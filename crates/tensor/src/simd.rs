//! The crate's one wide-lane dispatch: safe kernel bodies recompiled with
//! AVX2 enabled when the CPU has it.
//!
//! Every register-tiled kernel — the gemm micro-kernel, the direct
//! convolution's forward / `d_input` / `dW` task bodies, the max-pool row
//! tile — is written once as plain safe Rust over fixed-size arrays and
//! handed to [`with_wide_lanes`], which is the only `target_feature` call
//! shim (and the only AVX2 `unsafe` site) in the workspace.

/// Runs `body` compiled with AVX2 enabled when the CPU has it, so an
/// 8-float tile row is one 256-bit lane instead of two 128-bit ones.
/// Callers pass an `#[inline(always)]` closure whose hot loops are named
/// `#[inline(always)]` functions, so all of it is inlined into — and
/// recompiled inside — the `target_feature` function: the *identical*
/// sequence of IEEE operations (Rust never contracts `a * b + c` into an
/// FMA), bit-identical to the baseline compilation. The detection is std's once-per-process cached
/// probe. Compiled out under Miri (scripts/miri.sh), which does not model
/// `target_feature` recompilation.
#[inline(always)]
pub(crate) fn with_wide_lanes<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx2") {
        #[target_feature(enable = "avx2")]
        #[allow(unsafe_code)]
        unsafe fn avx2<R>(body: impl FnOnce() -> R) -> R {
            body()
        }
        // SAFETY: guarded by the runtime AVX2 detection above.
        #[allow(unsafe_code)]
        return unsafe { avx2(body) };
    }
    body()
}
