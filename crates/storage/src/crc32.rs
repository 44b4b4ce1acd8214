//! CRC-32 (IEEE 802.3, the polynomial used by gzip/zlib/PNG), computed
//! by slicing-by-16.
//!
//! The disk layer stores a CRC in every page trailer and in the repository
//! manifest/segment headers; this module is the one shared implementation.
//! Implemented locally because the build environment has no registry
//! access (see `crates/shims/README.md` for the same story on other deps).
//!
//! Slicing-by-16 folds sixteen input bytes per step through sixteen
//! 256-entry tables: `TABLES[j][b]` is the CRC contribution of byte `b`
//! followed by `j` zero bytes, so the sixteen lookups of one step are
//! independent and XOR together. It reads ~0.7 ns per byte where the
//! one-table bytewise loop read ~3.5 (a 4,092-byte page payload in ~2.7
//! instead of ~14 µs), with every value unchanged. A hardware CRC
//! (SSE4.2 `crc32` computes the Castagnoli polynomial, not this one;
//! PCLMULQDQ folding would) needs `std::arch` intrinsics and `unsafe`,
//! which the crates keep out of their sources.

/// The reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the main loop.
const SLICE: usize = 16;

/// Sixteen 256-entry lookup tables, built at compile time. `TABLES[0]` is
/// the classic bytewise table; `TABLES[j]` advances `TABLES[j - 1]` by
/// one zero byte.
const TABLES: [[u32; 256]; SLICE] = {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            k += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < SLICE {
        let mut b = 0;
        while b < 256 {
            let prev = tables[j - 1][b];
            tables[j][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        j += 1;
    }
    tables
};

/// CRC-32 of `bytes` (init `!0`, final xor `!0` — the standard check value
/// of `b"123456789"` is `0xCBF43926`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(SLICE);
    for c in &mut chunks {
        // The running CRC is XORed into the first four bytes; byte `i` of
        // the chunk then has `15 - i` bytes after it.
        let x = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-table bytewise loop `crc32` replaced: the oracle.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// `n` pseudo-random bytes from `seed` (splitmix64).
    fn noise(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn known_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0xA5u8; 257];
        let base = crc32(&data);
        for byte in [0usize, 1, 128, 256] {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn standard_check_values() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 4096]), 0xC71C_0011);
    }

    #[test]
    fn first_table_is_the_bytewise_table() {
        // Spot values of the published CRC-32 table.
        assert_eq!(TABLES[0][1], 0x7707_3096);
        assert_eq!(TABLES[0][255], 0x2D02_EF8D);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Lengths 0..=12,300 cross the 16-byte step and the 4 KiB page.
        #[test]
        fn equals_the_bytewise_oracle(len in 0usize..12_301, seed in any::<u64>()) {
            let data = noise(len, seed);
            prop_assert_eq!(crc32(&data), bytewise(&data));
        }

        /// Every start offset into one buffer, so every alignment of the
        /// 16-byte chunks against the data (and of the data in memory).
        #[test]
        fn equals_the_bytewise_oracle_at_every_offset(len in 0usize..600, seed in any::<u64>()) {
            let data = noise(len + SLICE, seed);
            for start in 0..SLICE {
                let tail = &data[start..start + len];
                prop_assert_eq!(crc32(tail), bytewise(tail), "offset {}", start);
            }
        }

        /// CRC-32 detects every single-bit error.
        #[test]
        fn a_single_bit_flip_changes_the_value(
            len in 1usize..12_301,
            seed in any::<u64>(),
            pick in any::<u64>(),
        ) {
            let mut data = noise(len, seed);
            let base = crc32(&data);
            let bit = (pick % (len as u64 * 8)) as usize;
            data[bit / 8] ^= 1 << (bit % 8);
            prop_assert_ne!(crc32(&data), base, "flip at bit {}", bit);
            prop_assert_eq!(crc32(&data), bytewise(&data));
        }
    }
}
