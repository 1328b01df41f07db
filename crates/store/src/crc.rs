//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`), hand-rolled —
//! the workspace builds hermetically, so the checksum every WAL record
//! and snapshot trailer carries is defined here and nowhere else.
//!
//! The loop is slicing-by-8: eight table lookups fold eight input bytes
//! at once, instead of one lookup per byte. Every output value is the
//! bytewise algorithm's, so stored checksums do not change.

/// `TABLES[0]` is the bytewise table: the CRC register after shifting in
/// byte `i`. `TABLES[k][i]` is the same register after `k` more zero
/// bytes, which is what byte `i` contributes from `k` bytes further
/// back in an 8-byte block. Computed at compile time.
const TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
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

/// CRC32 of `data` (IEEE: init `!0`, reflected, final xor `!0`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The specification: one table lookup per byte.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// `len` bytes from a fixed xorshift64 stream.
    fn seeded(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = b"arbalest wal record".to_vec();
        let clean = crc32(&data);
        for i in 0..data.len() {
            data[i] ^= 1;
            assert_ne!(crc32(&data), clean, "flip at byte {i} went undetected");
            data[i] ^= 1;
        }
        assert_eq!(crc32(&data), clean);
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_loop() {
        let buf = seeded(1024 + 8);
        for start in 0..8 {
            for len in 0..=1024 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), bytewise(data), "start {start}, len {len}");
            }
        }
        // Pinned: zlib's `crc32` gives the same value for this buffer.
        let big = seeded(1 << 20);
        assert_eq!(crc32(&big), bytewise(&big));
        assert_eq!(crc32(&big), 0x1F65_B4B5);
    }
}
