//! Table-driven IEEE CRC32 (the polynomial used by zip/png/ethernet).
//!
//! Implemented in-tree so the WAL needs no external checksum crate.
//! The loop is slicing-by-8: eight 256-entry tables, generated at first
//! use from the standard reflected `0xEDB8_8320` polynomial, fold eight
//! input bytes per step instead of one. Table `k` maps a byte to the
//! CRC of that byte followed by `k` zero bytes, so the eight lookups of
//! one step XOR together into the same register the bytewise loop
//! reaches after those eight bytes.

use std::sync::OnceLock;

type Tables = [[u32; 256]; 8];

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// IEEE CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// The one-lookup-per-byte loop: the reference the sliced loop must
/// match bit for bit.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let table = &tables()[0];
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        for v in [&b"123456789"[..], b"", b"The quick brown fox"] {
            assert_eq!(crc32(v), crc32_bytewise(v));
        }
    }

    #[test]
    fn sensitive_to_single_bit() {
        let base = crc32(b"hello wal");
        let mut flipped = b"hello wal".to_vec();
        for i in 0..flipped.len() * 8 {
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&flipped), base, "bit {i} undetected");
            flipped[i / 8] ^= 1 << (i % 8);
        }
    }

    /// A deterministic xorshift byte stream (no RNG dependency).
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_loop_matches_the_bytewise_loop_at_every_length_and_offset() {
        let buf = noise(64 + 8, 0x9E37_79B9_7F4A_7C15);
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn sliced_loop_matches_the_bytewise_loop_on_a_multi_megabyte_buffer() {
        let buf = noise(3 << 20, 0xD1B5_4A32_D192_ED03);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        assert_eq!(crc32(&buf[5..]), crc32_bytewise(&buf[5..]));
    }
}
