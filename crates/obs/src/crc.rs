//! CRC32C (Castagnoli), the checksum of every framed record in the workspace.
//!
//! Its one caller is [`crate::frame`], the frame under store segment
//! records, the checkpoint log, the worker spool and the fleet socket. The
//! polynomial is the one iSCSI, ext4 and LevelDB use, chosen for its
//! error-detection profile on exactly this "short record in a log file"
//! shape.
//!
//! Who checksums what: a log frame once when it is appended and once by
//! every load of its log (a resume, a spool replay); a socket frame once by
//! each side; a segment record of the benchmark's store once when it is
//! written and once by each lookup that serves it, and `Store::open` only
//! the last record of each file (what the torn-tail rule needs).
//!
//! [`Crc32c::update`] has two walks with the same result: the reflected
//! polynomial, a `!0` seed and a final inversion either way, so a record
//! written under one verifies under the other.
//!
//! * On x86_64, when the CPU reports SSE4.2 (a run-time check that `std`
//!   caches), the `crc32` instruction folds eight bytes at a time and the
//!   tail one byte at a time: a 516-byte record in ~60 ns where the table
//!   walk takes ~300 ns (a shared 2-vCPU x86_64 VM), bound by the
//!   instruction's latency on one dependency chain.
//! * Everywhere else, slicing-by-8: eight const-built tables fold eight
//!   bytes per step and the byte-at-a-time step finishes the tail.
//!
//! The table walk stays because the build names no target CPU: the same
//! binary must run on an x86_64 without SSE4.2 and on other architectures.
//! It is also the second reference, beside the bitwise one, that the tests
//! hold the hardware walk to.

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
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
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
        self.0 = match sse42(self.0, bytes) {
            Some(crc) => crc,
            None => slicing_by_8(self.0, bytes),
        };
    }

    /// The final checksum.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// The table walk: eight bytes per step through `TABLES`, then the tail
/// byte by byte.
fn slicing_by_8(mut crc: u32, bytes: &[u8]) -> u32 {
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
    crc
}

/// The hardware walk, or `None` where the CPU has no SSE4.2.
#[cfg(target_arch = "x86_64")]
fn sse42(crc: u32, bytes: &[u8]) -> Option<u32> {
    if !std::arch::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: `crc32_sse42` requires SSE4.2 and nothing else; the line
    // above checked that the running CPU has it.
    Some(unsafe { crc32_sse42(crc, bytes) })
}

#[cfg(not(target_arch = "x86_64"))]
fn sse42(_crc: u32, _bytes: &[u8]) -> Option<u32> {
    None
}

/// `crc32` over eight bytes per instruction, then the tail byte by byte.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32_sse42(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut wide = u64::from(crc);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        wide = _mm_crc32_u64(
            wide,
            u64::from_le_bytes(c.try_into().expect("8-byte chunk")),
        );
    }
    // The instruction zero-extends its 32-bit CRC into the 64-bit register.
    let mut crc = wide as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
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

    type Walk = fn(u32, &[u8]) -> u32;

    /// Every walk this CPU can run, by name: the table walk always, the
    /// hardware walk where `update` would take it.
    fn walks() -> Vec<(&'static str, Walk)> {
        let mut walks: Vec<(&'static str, Walk)> = vec![("slicing-by-8", slicing_by_8)];
        if sse42(!0, &[]).is_some() {
            walks.push(("sse4.2", |crc, bytes| {
                sse42(crc, bytes).expect("detected above")
            }));
        }
        walks
    }

    /// One-shot checksum of `bytes` through `walk`.
    fn one_shot(walk: Walk, bytes: &[u8]) -> u32 {
        !walk(!0, bytes)
    }

    #[test]
    fn known_vectors() {
        for (name, walk) in walks() {
            // The canonical CRC-32C check value.
            assert_eq!(one_shot(walk, b"123456789"), 0xE306_9283, "{name}");
            assert_eq!(one_shot(walk, b""), 0, "{name}");
            // RFC 3720 appendix B.4: 32 bytes of zeros.
            assert_eq!(one_shot(walk, &[0u8; 32]), 0x8A91_36AA, "{name}");
            // 32 bytes of 0xFF.
            assert_eq!(one_shot(walk, &[0xFFu8; 32]), 0x62A8_AB43, "{name}");
        }
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn update_takes_the_hardware_walk_wherever_the_cpu_has_sse42() {
        let names: Vec<_> = walks().into_iter().map(|(name, _)| name).collect();
        let want: &[&str] = if std::arch::is_x86_feature_detected!("sse4.2") {
            &["slicing-by-8", "sse4.2"]
        } else {
            &["slicing-by-8"]
        };
        assert_eq!(names, want);
    }

    /// The textbook bit-at-a-time CRC the walks are checked against.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// `len` bytes of a seeded stream.
    fn noise(rng: &mut sb_vmm::rng::SplitMix64, len: usize) -> Vec<u8> {
        let mut out: Vec<u8> = (0..len.div_ceil(8))
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect();
        out.truncate(len);
        out
    }

    #[test]
    fn slicing_equals_the_bitwise_reference_at_every_length_and_split() {
        let data: Vec<u8> = (0u32..64)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=data.len() {
            let want = reference(&data[..len]);
            assert_eq!(one_shot(slicing_by_8, &data[..len]), want, "length {len}");
            for split in 0..=len {
                let crc = slicing_by_8(slicing_by_8(!0, &data[..split]), &data[split..len]);
                assert_eq!(!crc, want, "length {len} split at {split}");
            }
        }
        assert_eq!(reference(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn every_walk_equals_the_reference_at_every_length_and_start_offset() {
        let data = noise(&mut sb_vmm::rng::SplitMix64::new(0xC4C3_2C01), 1024 + 8);
        for start in 0..8 {
            for len in 0..=1024 {
                let bytes = &data[start..start + len];
                let want = reference(bytes);
                for (name, walk) in walks() {
                    assert_eq!(
                        one_shot(walk, bytes),
                        want,
                        "{name}: offset {start} length {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_walk_equals_the_reference_on_random_buffers_up_to_64_kib() {
        let mut rng = sb_vmm::rng::SplitMix64::new(0xC4C3_2C02);
        for case in 0..10_000 {
            // A log-uniform length: every size class up to 64 KiB is drawn
            // as often as the next, so short records are not drowned out.
            let class = rng.gen_range(0..=16usize);
            let len = rng.gen_range(0..=1usize << class);
            let start = rng.gen_range(0..8usize);
            let data = noise(&mut rng, start + len);
            let want = reference(&data[start..]);
            for (name, walk) in walks() {
                assert_eq!(
                    one_shot(walk, &data[start..]),
                    want,
                    "{name}: case {case}, length {len}"
                );
            }
        }
    }

    #[test]
    fn any_split_across_any_pair_of_walks_equals_the_one_shot_checksum() {
        let mut rng = sb_vmm::rng::SplitMix64::new(0xC4C3_2C03);
        let data = noise(&mut rng, 300);
        let walks = walks();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 299, 300] {
            let want = reference(&data[..len]);
            for split in 0..=len {
                for (first, a) in &walks {
                    for (second, b) in &walks {
                        let crc = b(a(!0, &data[..split]), &data[split..len]);
                        assert_eq!(
                            !crc, want,
                            "{first} then {second}: length {len} split at {split}"
                        );
                    }
                }
            }
        }
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
