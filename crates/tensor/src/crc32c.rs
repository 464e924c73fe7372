//! CRC32C (Castagnoli) over f32 bit patterns — the checksum of the SMB
//! integrity grid, computed at memory speed.
//!
//! The checksum is defined on each element's `to_bits()` little-endian
//! bytes, so it is bit-exact across platforms and tells `-0.0` from `0.0`
//! and one NaN payload from another. It is a streaming function: start
//! from [`CRC32C_INIT`], feed slices through [`crc32c_append`] in any
//! split, and [`crc32c_finish`] the state — the value is the standard
//! Castagnoli CRC (init `!0`, final xor `!0`, reflected polynomial
//! `0x82F63B78`; the nine bytes `"123456789"` give `0xE3069283`).
//!
//! Three [`Kernel`]s produce that one function, the widest the CPU runs
//! selected once per process like the gemm micro-kernel: `fold`
//! (carry-less multiplication, 256 bytes per step) where x86_64 has
//! AVX-512F and VPCLMULQDQ, `crc32` (the SSE4.2 instruction, eight bytes
//! per instruction) where it has SSE4.2, and `portable` (a safe
//! slicing-by-8 table step) everywhere else and under Miri. Nothing
//! configures the choice.
//!
//! One serial chain of either step waits on its own latency (three cycles
//! per `crc32`), so `crc32` and `portable` run under one lane split: three
//! consecutive equal lanes are hashed as three independent chains — the
//! first from the running state, the others from zero — and joined by
//! linearity, `shift(shift(a) ^ b) ^ c`, where `shift` appends one lane of
//! zero bytes to a raw state through a compile-time table. Long lanes take
//! the bulk, short lanes what is left of a page, and one chain the last
//! few words.
//!
//! `fold` keeps four 512-bit accumulators of stream bytes and carries each
//! 128-bit lane 256 bytes down the stream per step by multiplying it with
//! a power of `x` modulo the polynomial (a `const fn` of `POLY`), then
//! folds everything into one 128-bit remainder that two `crc32` reduce to
//! the state. Inputs shorter than two steps and the tail after the last
//! step go to `crc32`.

/// State of an empty stream.
pub const CRC32C_INIT: u32 = !0;

/// Reflected Castagnoli generator polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `TABLES[0]` is the byte-at-a-time table and
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
///
/// The tables are `static`s evaluated at compile time, not `const`s: an
/// unoptimised build copies a `const` array at every lookup, which made
/// the kernels ~100× slower in the test profile.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Folds one 32-bit word into the state (slicing-by-4).
#[inline(always)]
fn fold_word(state: u32, word: u32) -> u32 {
    let x = state ^ word;
    TABLES[3][(x & 0xFF) as usize]
        ^ TABLES[2][((x >> 8) & 0xFF) as usize]
        ^ TABLES[1][((x >> 16) & 0xFF) as usize]
        ^ TABLES[0][(x >> 24) as usize]
}

/// Folds two words (eight bytes) into the state (slicing-by-8: eight
/// independent table lookups).
#[inline(always)]
fn fold_pair(state: u32, pair: u64) -> u32 {
    let lo = state ^ pair as u32;
    let hi = (pair >> 32) as u32;
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

/// Words (four bytes each) per run of a lane's chain: a fixed trip count
/// the compiler unrolls, where one loop over a whole long lane stays a
/// loop and runs ~12 % slower at 1 MiB.
const GROUP: usize = 16;

/// One lane length of the three-lane split and the table that joins it.
struct Lane {
    /// Words per lane, a multiple of [`GROUP`].
    words: usize,
    /// `shift[k][b]` is the raw state `b << 8k` followed by one lane of
    /// zero bytes; `shift` is linear, so four lookups shift any state.
    shift: [[u32; 256]; 4],
}

/// 2 KiB lanes: one join per 6 KiB, for whole buffers and large pages.
static LONG: Lane = Lane::new(512);

/// 256-byte lanes: what a 4 or 16 KiB page leaves after the long blocks.
/// Both lengths are measured choices (EXPERIMENTS.md): a shorter lane
/// pays a join per fewer bytes, a longer one leaves more of a page to the
/// single chain at its end.
static SHORT: Lane = Lane::new(64);

impl Lane {
    const fn new(words: usize) -> Lane {
        assert!(words.is_multiple_of(GROUP));
        // Appending zero bytes is linear in the state: shift each of the
        // 32 one-bit states, then xor them into every byte value.
        let mut basis = [0u32; 32];
        let mut bit = 0;
        while bit < 32 {
            let mut state = 1u32 << bit;
            let mut n = 0;
            while n < 4 * words {
                state = (state >> 8) ^ TABLES[0][(state & 0xFF) as usize];
                n += 1;
            }
            basis[bit] = state;
            bit += 1;
        }
        let mut shift = [[0u32; 256]; 4];
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                let mut j = 0;
                while j < 8 {
                    if b & (1 << j) != 0 {
                        shift[k][b] ^= basis[8 * k + j];
                    }
                    j += 1;
                }
                b += 1;
            }
            k += 1;
        }
        Lane { words, shift }
    }

    /// Appends one lane of zero bytes to a raw state.
    #[inline(always)]
    fn shift(&self, state: u32) -> u32 {
        self.shift[0][(state & 0xFF) as usize]
            ^ self.shift[1][((state >> 8) & 0xFF) as usize]
            ^ self.shift[2][((state >> 16) & 0xFF) as usize]
            ^ self.shift[3][(state >> 24) as usize]
    }

    /// Hashes every whole block of three lanes at the front of `data` and
    /// returns the state with the unconsumed rest.
    #[inline(always)]
    fn blocks<'a>(
        &self,
        mut state: u32,
        data: &'a [f32],
        step: &impl Fn(u32, u64) -> u32,
    ) -> (u32, &'a [f32]) {
        let mut blocks = data.chunks_exact(3 * self.words);
        for block in &mut blocks {
            let (a, rest) = block.split_at(self.words);
            let (b, c) = rest.split_at(self.words);
            let (mut sa, mut sb, mut sc) = (state, 0, 0);
            let groups =
                a.chunks_exact(GROUP).zip(b.chunks_exact(GROUP)).zip(c.chunks_exact(GROUP));
            for ((ga, gb), gc) in groups {
                for i in (0..GROUP).step_by(2) {
                    sa = step(sa, pair(&ga[i..]));
                    sb = step(sb, pair(&gb[i..]));
                    sc = step(sc, pair(&gc[i..]));
                }
            }
            state = self.shift(self.shift(sa) ^ sb) ^ sc;
        }
        (state, blocks.remainder())
    }
}

/// The first two words of `words` as one little-endian eight-byte step.
#[inline(always)]
fn pair(words: &[f32]) -> u64 {
    u64::from(words[0].to_bits()) | (u64::from(words[1].to_bits()) << 32)
}

/// The one lane split and join both step kernels run under: `step` folds
/// eight bytes into a state, `step_word` four.
#[inline(always)]
fn append_lanes(
    state: u32,
    data: &[f32],
    step: impl Fn(u32, u64) -> u32,
    step_word: impl Fn(u32, u32) -> u32,
) -> u32 {
    let (state, rest) = LONG.blocks(state, data, &step);
    let (mut state, rest) = SHORT.blocks(state, rest, &step);
    let mut pairs = rest.chunks_exact(2);
    for p in &mut pairs {
        state = step(state, pair(p));
    }
    for v in pairs.remainder() {
        state = step_word(state, v.to_bits());
    }
    state
}

/// The portable kernel: the table steps under the three-lane split.
fn append_portable(state: u32, data: &[f32]) -> u32 {
    append_lanes(state, data, fold_pair, fold_word)
}

/// The `crc32` kernel: one instruction per two words under the three-lane
/// split. The instruction implements exactly the reflected Castagnoli
/// step, so the state it carries is interchangeable with
/// [`append_portable`]'s.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "sse4.2")]
fn append_sse42(state: u32, data: &[f32]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u32, _mm_crc32_u64};
    // `crc32` zero-extends its 32-bit result into the 64-bit register.
    append_lanes(
        state,
        data,
        |state, pair| _mm_crc32_u64(u64::from(state), pair) as u32,
        |state, word| _mm_crc32_u32(state, word),
    )
}

/// The fold kernel: carry-less multiplication on AVX-512F + VPCLMULQDQ.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod fold {
    use super::{append_sse42, POLY};
    use std::arch::x86_64::*;

    /// Words per step: four 64-byte accumulators, 256 bytes.
    const STEP_WORDS: usize = 64;

    /// `x^n mod P`, reflected like a state (the coefficient of `x^d` in bit
    /// `31 - d`): `n` steps of the shift-and-reduce a zero bit takes.
    const fn x_pow_mod(n: u32) -> u32 {
        let mut r = 1 << 31;
        let mut i = 0;
        while i < n {
            r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
            i += 1;
        }
        r
    }

    /// The two multipliers that carry a 128-bit lane `bits` further down
    /// the stream. A lane holds the polynomial whose `x^127` coefficient is
    /// its first bit; its first qword is worth `x^(bits + 64)` there and
    /// its second `x^bits`. Each multiplier is reflected into a qword
    /// (`x^d` in bit `63 - d`), which makes the carry-less product land one
    /// degree high, hence `x^(bits + 63)` and `x^(bits - 1)`.
    const fn fold_keys(bits: u32) -> [u64; 2] {
        [(x_pow_mod(bits + 63) as u64) << 32, (x_pow_mod(bits - 1) as u64) << 32]
    }

    /// Keys for one step on, for each accumulator onto the last, and for
    /// each lane onto the last (whose own keys are zero). Constants, so no
    /// kernel call computes a power.
    const STEP_KEYS: [u64; 2] = fold_keys(8 * 4 * STEP_WORDS as u32);
    const ACC_KEYS: [[u64; 2]; 3] = [fold_keys(1536), fold_keys(1024), fold_keys(512)];
    const LANE_KEYS: [[u64; 2]; 4] = [fold_keys(384), fold_keys(256), fold_keys(128), [0; 2]];

    /// Four 512-bit accumulators take 256 bytes per step, each 64 bytes
    /// costing two `vpclmulqdq` and one three-way xor. At the end the
    /// accumulators, then their lanes, fold into one 128-bit remainder
    /// congruent to the stream so far; two `crc32` over it give the state.
    /// Inputs shorter than two steps and the tail after the last whole
    /// step run on the `crc32` kernel.
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.2")]
    pub(super) fn append(state: u32, data: &[f32]) -> u32 {
        if data.len() < 2 * STEP_WORDS {
            return append_sse42(state, data);
        }
        let (steps, _) = data.as_chunks::<16>().0.as_chunks::<4>();
        let load = |step: &[[f32; 16]; 4]| {
            step.each_ref().map(|quarter| {
                // SAFETY: `quarter` is a `[f32; 16]`, 64 readable bytes,
                // and `loadu` has no alignment requirement. On x86_64 the
                // bytes in memory are each word's `to_bits()` little-endian
                // bytes, the stream the checksum is defined on.
                #[allow(unsafe_code)]
                unsafe {
                    _mm512_loadu_si512(quarter.as_ptr().cast())
                }
            })
        };
        // The carry-less products of both qwords of every lane of `a` with
        // their keys, xored with `c`.
        let fold = |a, keys, c| {
            let lo = _mm512_clmulepi64_epi128::<0x00>(a, keys);
            let hi = _mm512_clmulepi64_epi128::<0x11>(a, keys);
            _mm512_ternarylogic_epi64::<0x96>(lo, hi, c)
        };
        let lanes = |keys: [[u64; 2]; 4]| {
            let k = |lane: usize, qword: usize| keys[lane][qword] as i64;
            _mm512_set_epi64(k(3, 1), k(3, 0), k(2, 1), k(2, 0), k(1, 1), k(1, 0), k(0, 1), k(0, 0))
        };
        let mut acc = load(&steps[0]);
        // The running state enters as an xor over the stream's first bytes.
        acc[0] = _mm512_xor_si512(acc[0], _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32)));
        let step_keys = lanes([STEP_KEYS; 4]);
        for step in &steps[1..] {
            for (a, next) in acc.iter_mut().zip(load(step)) {
                *a = fold(*a, step_keys, next);
            }
        }
        let mut x = acc[3];
        for (a, keys) in acc[..3].iter().zip(ACC_KEYS) {
            x = fold(*a, lanes([keys; 4]), x);
        }
        let y = fold(x, lanes(LANE_KEYS), _mm512_setzero_si512());
        let r = _mm_xor_si128(
            _mm_xor_si128(_mm512_castsi512_si128(y), _mm512_extracti32x4_epi32::<1>(y)),
            _mm_xor_si128(_mm512_extracti32x4_epi32::<2>(y), _mm512_extracti32x4_epi32::<3>(x)),
        );
        let (lo, hi) = (_mm_cvtsi128_si64(r) as u64, _mm_extract_epi64::<1>(r) as u64);
        let state = _mm_crc32_u64(_mm_crc32_u64(0, lo), hi) as u32;
        append_sse42(state, &data[steps.len() * STEP_WORDS..])
    }
}

/// A CRC32C kernel the running CPU executes. Only this module makes one,
/// from runtime detection, which is what makes [`Kernel::append`]'s calls
/// into the instruction kernels sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel(Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Isa {
    Portable,
    Crc32,
    Fold,
}

impl Isa {
    /// Narrowest first; each kernel's instructions include the previous'.
    const ALL: [Isa; 3] = [Isa::Portable, Isa::Crc32, Isa::Fold];
}

/// The widest kernel this CPU runs, detected once per process. Always the
/// portable kernel under Miri (scripts/miri.sh), which does not model
/// `target_feature` dispatch.
fn detect() -> Isa {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::arch::is_x86_feature_detected as has;
        use std::sync::OnceLock;
        static HOST: OnceLock<Isa> = OnceLock::new();
        *HOST.get_or_init(|| match has!("sse4.2") {
            false => Isa::Portable,
            true if has!("avx512f") && has!("vpclmulqdq") && has!("pclmulqdq") => Isa::Fold,
            true => Isa::Crc32,
        })
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    Isa::Portable
}

/// Every kernel this host runs, narrowest first; [`crc32c_append`] runs
/// the last. All of them compute the same function.
pub fn kernels() -> Vec<Kernel> {
    let host = detect();
    Isa::ALL.into_iter().filter(|&isa| isa <= host).map(Kernel).collect()
}

impl Kernel {
    /// The kernel's name: `"portable"`, `"crc32"` or `"fold"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Isa::Portable => "portable",
            Isa::Crc32 => "crc32",
            Isa::Fold => "fold",
        }
    }

    /// [`crc32c_append`] on this kernel.
    pub fn append(self, state: u32, data: &[f32]) -> u32 {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // SAFETY: a `Kernel` is only made from `detect`, which found every
        // feature the callee enables on this CPU; the callees are safe
        // functions that only need the instructions to exist.
        #[allow(unsafe_code)]
        match self.0 {
            Isa::Fold => return unsafe { fold::append(state, data) },
            Isa::Crc32 => return unsafe { append_sse42(state, data) },
            Isa::Portable => {}
        }
        append_portable(state, data)
    }
}

/// Feeds `data` into a running checksum and returns the new state. Any
/// split of a stream into consecutive `crc32c_append` calls yields the same
/// final state as one call over the whole stream.
pub fn crc32c_append(state: u32, data: &[f32]) -> u32 {
    Kernel(detect()).append(state, data)
}

/// Finishes a stream: the standard final inversion.
pub fn crc32c_finish(state: u32) -> u32 {
    !state
}

/// One-shot CRC32C of an f32 slice.
pub fn crc32c(data: &[f32]) -> u32 {
    crc32c_finish(crc32c_append(CRC32C_INIT, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    /// The byte-at-a-time definition every kernel is checked against.
    fn oracle_bytes(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
        }
        state
    }

    fn oracle(data: &[f32]) -> u32 {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        !oracle_bytes(CRC32C_INIT, &bytes)
    }

    /// Every kernel this host runs. The ones it lacks are named on stderr:
    /// their cases are skipped, not passed.
    fn host_kernels() -> Vec<Kernel> {
        let kernels = kernels();
        for isa in Isa::ALL {
            if !kernels.contains(&Kernel(isa)) {
                eprintln!(
                    "crc32c: host lacks the {} kernel; skipping its cases",
                    Kernel(isa).name()
                );
            }
        }
        kernels
    }

    fn one_shot(kernel: Kernel, data: &[f32]) -> u32 {
        crc32c_finish(kernel.append(CRC32C_INIT, data))
    }

    fn words(bytes: &[u8]) -> Vec<f32> {
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            .collect()
    }

    /// Arbitrary bit patterns with the awkward ones over-represented:
    /// signed zeros, infinities, quiet and signalling NaNs with payloads.
    fn bit_pattern() -> impl Strategy<Value = f32> {
        (0u32..8, 0u32..u32::MAX).prop_map(|(class, raw)| {
            f32::from_bits(match class {
                0 => 0x0000_0000,
                1 => 0x8000_0000,
                2 => 0x7FC0_0000 | (raw & 0x003F_FFFF),
                3 => 0xFF80_0001 | (raw & 0x003F_FFFE),
                4 => 0x7F80_0000,
                _ => raw,
            })
        })
    }

    #[test]
    fn the_host_dispatches_its_widest_kernel() {
        let kernels = host_kernels();
        assert_eq!(kernels[0].name(), "portable");
        assert_eq!(Kernel(detect()), *kernels.last().expect("the portable kernel"));
    }

    #[test]
    fn oracle_matches_the_castagnoli_check_value() {
        assert_eq!(!oracle_bytes(CRC32C_INIT, b"123456789"), 0xE306_9283);
        assert_eq!(!oracle_bytes(CRC32C_INIT, b""), 0);
    }

    #[test]
    fn rfc3720_check_vectors() {
        // RFC 3720 appendix B.4: 32 bytes of zeros, of ones, incrementing,
        // decrementing, and an iSCSI read command PDU.
        let incrementing: Vec<u8> = (0u8..32).collect();
        let decrementing: Vec<u8> = (0u8..32).rev().collect();
        let pdu: [u8; 48] = [
            0x01, 0xC0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x14,
            0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ];
        let vectors: [(&[u8], u32); 5] = [
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&incrementing, 0x46DD_794E),
            (&decrementing, 0x113F_DB5C),
            (&pdu, 0xD996_3A56),
        ];
        for (bytes, expect) in vectors {
            let data = words(bytes);
            assert_eq!(!oracle_bytes(CRC32C_INIT, bytes), expect);
            assert_eq!(crc32c(&data), expect);
            for kernel in host_kernels() {
                assert_eq!(one_shot(kernel, &data), expect, "{}", kernel.name());
            }
        }
    }

    #[test]
    fn empty_and_single_word_streams() {
        assert_eq!(crc32c(&[]), 0);
        assert_eq!(crc32c_append(0x1234_5678, &[]), 0x1234_5678);
        for v in [0.0f32, -0.0, 1.0, f32::from_bits(0x7FC0_0001)] {
            assert_eq!(crc32c(&[v]), oracle(&[v]));
            for kernel in host_kernels() {
                assert_eq!(one_shot(kernel, &[v]), oracle(&[v]), "{}", kernel.name());
            }
        }
        assert_ne!(crc32c(&[0.0]), crc32c(&[-0.0]));
    }

    /// Distinct, well-mixed words, so a word hashed twice, skipped or moved
    /// at a lane edge changes the value.
    fn scrambled(len: usize) -> Vec<f32> {
        (0..len as u32).map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9) ^ 0x5A5A_A5A5)).collect()
    }

    /// Two long blocks (each ends on a short-block edge too) plus three
    /// words: 48 fold steps and a tail.
    fn two_blocks() -> Vec<f32> {
        scrambled(2 * 3 * LONG.words + 3)
    }

    /// Incoming states: the initial one, zero, and an arbitrary mid-stream
    /// value.
    const STATES: [u32; 3] = [CRC32C_INIT, 0, 0x9E37_79B9];

    /// Each block edge of both lane lengths, each fold step edge below and
    /// above the fold's two-step minimum, and every tail length, from every
    /// incoming state: the oracle state of each prefix is carried forward
    /// one word at a time.
    #[test]
    #[cfg_attr(miri, ignore = "~5M words through each kernel; the proptests cover Miri")]
    fn every_length_across_two_blocks() {
        let data = two_blocks();
        for kernel in host_kernels() {
            for start in STATES {
                let mut expect = start;
                for n in 0..=data.len() {
                    if n > 0 {
                        expect = oracle_bytes(expect, &data[n - 1].to_bits().to_le_bytes());
                    }
                    let got = kernel.append(start, &data[..n]);
                    assert_eq!(got, expect, "{}, {n} words from {start:#x}", kernel.name());
                }
            }
        }
    }

    /// A split anywhere in the first two blocks — mid-lane, on a lane,
    /// block or fold-step edge, mid-pair — chains to the one-shot value,
    /// from each incoming state in turn.
    #[test]
    #[cfg_attr(miri, ignore = "~9M words through each kernel; the proptests cover Miri")]
    fn split_at_every_offset_in_two_blocks_chains() {
        let data = two_blocks();
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        let expect = STATES.map(|start| oracle_bytes(start, &bytes));
        for kernel in host_kernels() {
            for cut in 0..=2 * 3 * LONG.words {
                let start = cut % STATES.len();
                let (head, tail) = data.split_at(cut);
                let chained = kernel.append(kernel.append(STATES[start], head), tail);
                assert_eq!(chained, expect[start], "{}, cut at {cut}", kernel.name());
            }
        }
    }

    /// Every entry of both join tables is its raw state followed by one lane
    /// of zero bytes through the oracle (Miri checks a sample per table).
    #[test]
    fn shift_tables_append_one_lane_of_zeros() {
        let stride = if cfg!(miri) { 97 } else { 1 };
        for lane in [&LONG, &SHORT] {
            let zeros = vec![0u8; 4 * lane.words];
            for entry in (0..4 * 256).step_by(stride) {
                let (k, b) = (entry / 256, entry % 256);
                let state = (b as u32) << (8 * k);
                assert_eq!(lane.shift[k][b], oracle_bytes(state, &zeros), "{} words", lane.words);
                assert_eq!(lane.shift(state), lane.shift[k][b]);
            }
        }
    }

    proptest! {
        // Miri interprets the kernels; a couple of cases still cover every
        // loop and tail there.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 24 }))]

        /// Every host kernel == dispatched kernel == byte-at-a-time oracle.
        #[test]
        fn kernels_agree_with_the_oracle(data in pvec(bit_pattern(), 0usize..70_001)) {
            let expect = oracle(&data);
            prop_assert_eq!(crc32c(&data), expect);
            for kernel in host_kernels() {
                prop_assert_eq!(one_shot(kernel, &data), expect, "{}", kernel.name());
            }
        }

        /// Any three-way split chains to the one-shot value in every kernel
        /// (odd cut points exercise the single-word tail mid-stream).
        #[test]
        fn append_over_any_split_equals_one_shot(
            data in pvec(bit_pattern(), 0usize..5_000),
            cut_a in 0usize..5_000,
            cut_b in 0usize..5_000,
        ) {
            let a = cut_a.min(data.len());
            let b = cut_b.min(data.len()).max(a);
            let parts = [&data[..a], &data[a..b], &data[b..]];
            let expect = oracle(&data);
            let chained = parts.iter().fold(CRC32C_INIT, |s, p| crc32c_append(s, p));
            prop_assert_eq!(crc32c_finish(chained), expect);
            for kernel in host_kernels() {
                let chained = parts.iter().fold(CRC32C_INIT, |s, p| kernel.append(s, p));
                prop_assert_eq!(crc32c_finish(chained), expect, "{}", kernel.name());
            }
        }
    }
}
