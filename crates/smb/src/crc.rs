//! CRC32C (Castagnoli) for the SMB integrity layer.
//!
//! The paper's RDS/verbs stack gets end-to-end payload protection for free
//! from InfiniBand's hardware ICRC; the simulated fabric has no such layer,
//! so the SMB server guards segment pages with a software CRC instead (see
//! `server.rs`). CRC32C is the conventional choice for storage/network
//! scrubbing (iSCSI, ext4, btrfs): it detects all 1- and 2-bit errors and
//! every burst up to 32 bits, which covers the fault model's seeded
//! bit-flips and torn-write prefixes.
//!
//! Checksums are computed over the f32 payload's `to_bits()` little-endian
//! bytes, so they are bit-exact across platforms and independent of any
//! float formatting. The arithmetic lives in [`shmcaffe_tensor::crc32c`]
//! (carry-less-multiplication folding or the `crc32` instruction where the
//! CPU has them, slicing-by-8 tables elsewhere — one function either way);
//! this module is the SMB-side name for it.

/// CRC32C of an f32 slice over each element's `to_bits()` little-endian
/// bytes (init `!0`, final xor `!0` — the standard Castagnoli convention).
/// This is the page checksum of the SMB integrity grid: defined on the
/// *bit pattern*, so `-0.0` vs `0.0` and NaN payloads all checksum
/// distinctly.
pub fn crc32c_f32(data: &[f32]) -> u32 {
    shmcaffe_tensor::crc32c::crc32c(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0.25f32; 64];
        let clean = crc32c_f32(&data);
        for elem in [0usize, 17, 63] {
            for bit in [0u32, 15, 31] {
                let mut flipped = data.clone();
                flipped[elem] = f32::from_bits(flipped[elem].to_bits() ^ (1 << bit));
                assert_ne!(crc32c_f32(&flipped), clean, "flip at {elem}:{bit} undetected");
            }
        }
    }

    #[test]
    fn distinguishes_signed_zero_and_nan_payloads() {
        assert_ne!(crc32c_f32(&[0.0]), crc32c_f32(&[-0.0]));
        let nan_a = f32::from_bits(0x7FC0_0001);
        let nan_b = f32::from_bits(0x7FC0_0002);
        assert_ne!(crc32c_f32(&[nan_a]), crc32c_f32(&[nan_b]));
    }
}
