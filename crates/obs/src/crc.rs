//! Software CRC32C (Castagnoli), table-driven, no external deps.
//!
//! Log records checksum their framed bytes with this polynomial — the
//! same one iSCSI/ext4/LevelDB use — because its error-detection profile is
//! well studied for exactly this "short record in a log file" shape. It
//! lives in `sb-obs` (the workspace's dependency root alongside the JSON
//! codec) so both the store's segment files and the fleet coordinator's
//! write-ahead journal share one implementation; `sb_store::crc` re-exports
//! it for its original callers. The walk is slicing-by-8: eight const-built
//! tables fold eight input bytes per step, and the classic byte-at-a-time
//! step finishes the < 8-byte tail. Every record is checksummed once per
//! write, once per open (the recovery scan) and once per lookup, so on a
//! warm store the CRC is a visible share of the read path.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
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

static TABLES: [[u32; 256]; 8] = build_tables();

/// Incremental CRC32C state.
#[derive(Clone, Copy, Debug)]
pub struct Crc32c(u32);

impl Default for Crc32c {
    fn default() -> Self {
        Crc32c::new()
    }
}

impl Crc32c {
    /// Fresh state.
    pub fn new() -> Crc32c {
        Crc32c(!0)
    }

    /// Folds `bytes` into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][c[4] as usize]
                ^ TABLES[2][c[5] as usize]
                ^ TABLES[1][c[6] as usize]
                ^ TABLES[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The final checksum.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// One-shot CRC32C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical CRC-32C check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // RFC 3720 appendix B.4: 32 bytes of zeros.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // 32 bytes of 0xFF.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    /// The textbook bit-at-a-time CRC the tables are checked against.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn slicing_equals_the_bitwise_reference_at_every_length_and_split() {
        let data: Vec<u8> = (0u32..64)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=data.len() {
            let want = reference(&data[..len]);
            assert_eq!(crc32c(&data[..len]), want, "length {len}");
            for split in 0..=len {
                let mut c = Crc32c::new();
                c.update(&data[..split]);
                c.update(&data[split..len]);
                assert_eq!(c.finish(), want, "length {len} split at {split}");
            }
        }
        assert_eq!(reference(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0u16..512).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 7, 255, 511, 512] {
            let mut c = Crc32c::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32c(&data), "split at {split}");
        }
    }

    #[test]
    fn single_byte_flips_change_the_checksum() {
        let base = crc32c(b"snowboard record payload");
        let mut data = *b"snowboard record payload";
        for i in 0..data.len() {
            for bit in 0..8 {
                data[i] ^= 1 << bit;
                assert_ne!(crc32c(&data), base, "flip byte {i} bit {bit}");
                data[i] ^= 1 << bit;
            }
        }
    }
}
