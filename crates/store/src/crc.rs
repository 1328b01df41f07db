//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`), hand-rolled —
//! the workspace builds hermetically, so the checksum every WAL record
//! and snapshot trailer carries is defined here and nowhere else.
//!
//! The loop is slicing-by-16: sixteen table lookups fold sixteen input
//! bytes at once, instead of one lookup per byte. Every output value is
//! the bytewise algorithm's, so stored checksums do not change.

/// Bytes folded per step of the main loop.
const SLICE: usize = 16;

/// `TABLES[0]` is the bytewise table: the CRC register after shifting in
/// byte `i`. `TABLES[k][i]` is the same register after `k` more zero
/// bytes, which is what byte `i` contributes from `k` bytes further
/// back in a 16-byte block. Computed at compile time.
const TABLES: [[u32; 256]; SLICE] = make_tables();

const fn make_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
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
    while k < SLICE {
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
    let mut blocks = data.chunks_exact(SLICE);
    for b in &mut blocks {
        // The register folds into the block's first four bytes; byte `j`
        // then has `15 - j` bytes of the block after it.
        let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
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
    fn slicing_by_16_equals_the_bytewise_loop() {
        let buf = seeded(1024 + SLICE);
        for start in 0..SLICE {
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
