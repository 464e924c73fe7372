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
//! Two step kernels produce that one function, selected once per process
//! like the gemm micro-kernel: the SSE4.2 `crc32` instruction on x86_64
//! (eight bytes per instruction) and a safe slicing-by-8 table step
//! everywhere else and under Miri. Nothing configures the choice.
//!
//! One serial chain of either step waits on its own latency (three cycles
//! per `crc32`), so both run under one lane split: three consecutive equal
//! lanes are hashed as three independent chains — the first from the
//! running state, the others from zero — and joined by linearity,
//! `shift(shift(a) ^ b) ^ c`, where `shift` appends one lane of zero bytes
//! to a raw state through a compile-time table. Long lanes take the bulk,
//! short lanes what is left of a page, and one chain the last few words.

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

/// The portable kernel alone: the table steps under the three-lane split.
/// [`crc32c_append`] runs it where the `crc32` instruction is missing and
/// under Miri; it is public so `kernel_bench` can record what such a host
/// gets. Callers want [`crc32c_append`].
pub fn append_portable(state: u32, data: &[f32]) -> u32 {
    append_lanes(state, data, fold_pair, fold_word)
}

/// The hardware kernel: one `crc32` instruction per two words under the
/// three-lane split. The instruction implements exactly the reflected
/// Castagnoli step, so the state it carries is interchangeable with
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

/// Runtime kernel selector, detected once per process. Compiled out under
/// Miri (scripts/miri.sh), which does not model `target_feature` dispatch —
/// the portable kernel computes the same function.
#[cfg(all(target_arch = "x86_64", not(miri)))]
fn use_sse42() -> bool {
    use std::sync::OnceLock;
    static SSE42: OnceLock<bool> = OnceLock::new();
    *SSE42.get_or_init(|| std::arch::is_x86_feature_detected!("sse4.2"))
}

/// Feeds `data` into a running checksum and returns the new state. Any
/// split of a stream into consecutive `crc32c_append` calls yields the same
/// final state as one call over the whole stream.
pub fn crc32c_append(state: u32, data: &[f32]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if use_sse42() {
        // SAFETY: guarded by the runtime SSE4.2 detection above; the callee
        // is a safe function that only needs the instruction to exist.
        #[allow(unsafe_code)]
        return unsafe { append_sse42(state, data) };
    }
    append_portable(state, data)
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

    fn portable(data: &[f32]) -> u32 {
        crc32c_finish(append_portable(CRC32C_INIT, data))
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
            assert_eq!(portable(&data), expect);
            assert_eq!(crc32c(&data), expect);
        }
    }

    #[test]
    fn empty_and_single_word_streams() {
        assert_eq!(crc32c(&[]), 0);
        assert_eq!(crc32c_append(0x1234_5678, &[]), 0x1234_5678);
        for v in [0.0f32, -0.0, 1.0, f32::from_bits(0x7FC0_0001)] {
            assert_eq!(crc32c(&[v]), oracle(&[v]));
            assert_eq!(portable(&[v]), oracle(&[v]));
        }
        assert_ne!(crc32c(&[0.0]), crc32c(&[-0.0]));
    }

    /// Distinct, well-mixed words, so a word hashed twice, skipped or moved
    /// at a lane edge changes the value.
    fn scrambled(len: usize) -> Vec<f32> {
        (0..len as u32).map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9) ^ 0x5A5A_A5A5)).collect()
    }

    /// Two long blocks (each ends on a short-block edge too) plus three words.
    fn two_blocks() -> Vec<f32> {
        scrambled(2 * 3 * LONG.words + 3)
    }

    /// Each block edge of both lane lengths and every tail length: the
    /// oracle state of each prefix is carried forward one word at a time.
    #[test]
    #[cfg_attr(miri, ignore = "~5M words through each kernel; the proptests cover Miri")]
    fn every_length_across_two_blocks() {
        let data = two_blocks();
        let mut expect = CRC32C_INIT;
        for n in 0..=data.len() {
            if n > 0 {
                expect = oracle_bytes(expect, &data[n - 1].to_bits().to_le_bytes());
            }
            assert_eq!(append_portable(CRC32C_INIT, &data[..n]), expect, "portable, {n} words");
            assert_eq!(crc32c_append(CRC32C_INIT, &data[..n]), expect, "dispatched, {n} words");
        }
    }

    /// A split anywhere in the first two blocks — mid-lane, on a lane or
    /// block edge, mid-pair — chains to the one-shot value.
    #[test]
    #[cfg_attr(miri, ignore = "~9M words through each kernel; the proptests cover Miri")]
    fn split_at_every_offset_in_two_blocks_chains() {
        let data = two_blocks();
        let expect = oracle(&data);
        for cut in 0..=2 * 3 * LONG.words {
            let (head, tail) = data.split_at(cut);
            let portable = append_portable(append_portable(CRC32C_INIT, head), tail);
            assert_eq!(crc32c_finish(portable), expect, "portable, cut at {cut}");
            let dispatched = crc32c_append(crc32c_append(CRC32C_INIT, head), tail);
            assert_eq!(crc32c_finish(dispatched), expect, "dispatched, cut at {cut}");
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

        /// Dispatched kernel == slicing-by-8 == byte-at-a-time oracle.
        #[test]
        fn kernels_agree_with_the_oracle(data in pvec(bit_pattern(), 0usize..70_001)) {
            let expect = oracle(&data);
            prop_assert_eq!(portable(&data), expect);
            prop_assert_eq!(crc32c(&data), expect);
        }

        /// Any three-way split chains to the one-shot value in both kernels
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
            let chained = parts.iter().fold(CRC32C_INIT, |s, p| crc32c_append(s, p));
            prop_assert_eq!(crc32c_finish(chained), crc32c(&data));
            let chained = parts.iter().fold(CRC32C_INIT, |s, p| append_portable(s, p));
            prop_assert_eq!(crc32c_finish(chained), portable(&data));
        }
    }
}
