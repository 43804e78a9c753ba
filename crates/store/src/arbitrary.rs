//! Arbitrary-bytes suite: every decoder of this crate, handed bytes it did
//! not write, returns a typed error or a value that encodes back to what
//! it was given — never a panic — and, where it replaced an older
//! implementation (`codec::reference`), agrees with it on the verdict, on
//! the value, and on the error.
//!
//! Two sources: seeded random strings, and the real files of three small
//! fuzzed corpora with every truncation and every single-byte flip under
//! four masks. Plain loops; a failure prints the seed or offset it needs
//! to be replayed.

use sb_kernel::KernelConfig;
use sb_vmm::rng::SplitMix64;
use snowboard::pmc::PmcSet;
use snowboard::{Pipeline, PipelineCfg};

use crate::manifest::Manifest;
use crate::segment::{scan, SegmentKind};
use crate::{codec, profile_key, Error, Store};

const MASKS: [u8; 4] = [0x01, 0x04, 0x20, 0x80];

/// The seeded stream of the random-strings sweep, with the shapes it draws.
struct Rng(SplitMix64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// 0–4 096 bytes. Every other string is drawn from small values, so
    /// counts stay plausible and a decoder gets past its first few fields.
    fn bytes(&mut self) -> Vec<u8> {
        let len = (self.next() % 4097) as usize;
        let small = self.next().is_multiple_of(2);
        (0..len)
            .map(|_| {
                let b = self.next();
                if small && !b.is_multiple_of(16) {
                    (b >> 8) as u8 % 12
                } else {
                    (b >> 8) as u8
                }
            })
            .collect()
    }

    /// A string of JSON-ish tokens: random bytes almost never get a
    /// parser past its first character.
    fn jsonish(&mut self) -> String {
        const TOKENS: [&str; 19] = [
            "{",
            "}",
            "[",
            "]",
            ":",
            ",",
            "\"",
            " ",
            "0",
            "1",
            "2",
            "18446744073709551615",
            "\"version\"",
            "\"last_hits\"",
            "\"last_misses\"",
            "\"profiles\"",
            "null",
            "\\u00e9",
            "\n",
        ];
        let len = (self.next() % 64) as usize;
        (0..len)
            .map(|_| TOKENS[(self.next() % TOKENS.len() as u64) as usize])
            .collect()
    }
}

/// `input` with its tail cut at every length, then with every byte flipped
/// under every mask; `what` names the variant in a failing assertion.
fn for_each_mutation(input: &[u8], mut check: impl FnMut(&[u8], &str)) {
    for cut in 0..=input.len() {
        check(
            &input[..cut],
            &format!("truncated to {cut} of {}", input.len()),
        );
    }
    let mut flipped = input.to_vec();
    for at in 0..input.len() {
        for mask in MASKS {
            flipped[at] ^= mask;
            check(&flipped, &format!("byte {at} ^ {mask:#04x}"));
            flipped[at] ^= mask;
        }
    }
}

/// New and reference decoder agree: same value, or the same typed error.
fn agree<T: PartialEq + std::fmt::Debug>(
    new: &Result<T, Error>,
    reference: &Result<T, Error>,
    what: &str,
) {
    match (new, reference) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: values differ"),
        (Err(a), Err(b)) => {
            assert!(
                matches!(a, Error::Truncated | Error::Corrupt(_)),
                "{what}: untyped error {a:?}"
            );
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: errors differ");
        }
        _ => panic!("{what}: new decoder {new:?}, reference {reference:?}"),
    }
}

/// What an accepted `input` must encode back to: the input itself when it
/// was canonical, else something shorter (a varint can be padded) that
/// decodes to the same value.
fn encodes_back<T: PartialEq + std::fmt::Debug>(
    input: &[u8],
    value: &T,
    encoded: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, Error>,
    what: &str,
) {
    assert!(encoded.len() <= input.len(), "{what}: re-encoding grew");
    if encoded.len() == input.len() {
        assert_eq!(encoded, input, "{what}: re-encoding differs");
    }
    assert_eq!(
        decode(encoded).as_ref().ok(),
        Some(value),
        "{what}: re-encoding decodes differently"
    );
}

fn check_profile(input: &[u8], what: &str) {
    let new = codec::decode_profile(input);
    agree(&new, &codec::reference::decode_profile(input), what);
    // The encoder asserts the 4-bit access length it writes; a flags byte
    // read from arbitrary input can carry six.
    if let Some(p) = new.ok().filter(|p| p.accesses.iter().all(|a| a.len <= 15)) {
        let mut encoded = Vec::new();
        codec::encode_profile(&p, &mut encoded);
        encodes_back(input, &p, &encoded, codec::decode_profile, what);
    }
}

fn check_pmc_set(input: &[u8], what: &str) {
    let new = codec::decode_pmc_set(input);
    agree(&new, &codec::reference::decode_pmc_set(input), what);
    if let Ok(set) = new {
        let mut encoded = Vec::new();
        codec::encode_pmc_set(&set, &mut encoded);
        encodes_back(input, &set, &encoded, codec::decode_pmc_set, what);
    }
}

/// A PMC record's corpus list: what it reads encodes back, and the bytes
/// behind it go to the set decoder.
fn check_pmc_record(input: &[u8], what: &str) {
    let decode = |buf: &[u8]| codec::decode_pmc_corpus(buf).map(|(c, set)| (c, set.to_vec()));
    let Ok(value) = decode(input) else { return };
    let mut encoded = Vec::new();
    crate::varint::put_u64(value.0.len() as u64, &mut encoded);
    for key in &value.0 {
        encoded.extend_from_slice(&key.to_le_bytes());
    }
    encoded.extend_from_slice(&value.1);
    encodes_back(input, &value, &encoded, decode, what);
    check_pmc_set(&value.1, what);
}

/// The scan's structure — records, valid prefix — is one thing whatever
/// it checksums; records tile the valid prefix; what it checksummed is
/// what it reports.
fn check_scan(input: &[u8], kind: SegmentKind, what: &str) {
    let full = scan(input, kind, true);
    let lazy = scan(input, kind, false);
    assert_eq!(
        (full.recognized, full.file_len),
        (lazy.recognized, lazy.file_len),
        "{what}"
    );
    assert_eq!(
        full.valid_len, lazy.valid_len,
        "{what}: valid prefix depends on what the scan checksums"
    );
    assert!(full.valid_len <= full.file_len, "{what}");
    assert_eq!(full.records.len(), lazy.records.len(), "{what}");
    let mut at = 8;
    for (i, (f, l)) in full.records.iter().zip(&lazy.records).enumerate() {
        assert_eq!(
            (f.key, f.offset, f.len),
            (l.key, l.offset, l.len),
            "{what}: record {i}"
        );
        assert_eq!(
            f.offset, at,
            "{what}: record {i} does not follow its predecessor"
        );
        at += crate::segment::HEADER_LEN + f.len;
        assert!(
            f.crc_ok.is_some(),
            "{what}: record {i} unverified by a scan that checksums all"
        );
        let last = i + 1 == full.records.len();
        // The lazy scan checksums a record only in last place — the
        // scan's last, or the one a torn last record left last.
        assert!(
            l.crc_ok.is_none() || (last && l.crc_ok == f.crc_ok),
            "{what}: record {i}"
        );
    }
    assert!(
        !full.recognized || at == full.valid_len,
        "{what}: records do not tile the valid prefix"
    );
    assert!(lazy.crc_bytes <= full.crc_bytes, "{what}");
}

/// The counters file: what parses renders back to itself.
fn check_manifest(text: &str, what: &str) {
    if let Ok(m) = Manifest::parse(text) {
        assert_eq!(
            Manifest::parse(&m.render()),
            Ok(m),
            "{what}: render does not read back"
        );
    }
}

#[test]
fn random_strings_never_panic_a_decoder_and_match_the_references() {
    let mut rng = Rng(SplitMix64::new(0x5EED_0021));
    for case in 0..10_000u32 {
        let state = rng.0.clone();
        let input = rng.bytes();
        let what = format!("case {case} ({state:x?}, {} bytes)", input.len());
        check_profile(&input, &what);
        check_pmc_set(&input, &what);
        check_pmc_record(&input, &what);
        // Under a real magic, so the walker gets to walk.
        let mut file = input.clone();
        if case % 2 == 0 && file.len() >= 8 {
            file[..8].copy_from_slice(crate::segment::PROFILE_MAGIC);
        }
        check_scan(&file, SegmentKind::Profile, &what);
        check_manifest(&String::from_utf8_lossy(&input), &what);
        check_manifest(&rng.jsonish(), &what);
    }
}

#[test]
fn invalid_utf8_in_a_manifest_file_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("sb-store-arb-utf8-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("manifest.json");
    std::fs::write(&path, b"{\"version\":1,\"\xFF\":0}").expect("write");
    assert!(matches!(
        Manifest::load(&path),
        Err(Error::Io { op: "read", .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// A store of the last four profiles a fuzzed corpus ends with (the ones
/// the fuzzer made, not the seed programs every corpus starts from) and the
/// first PMCs identified from the whole corpus: real encodings, kept small
/// because the mutation sweep below is quadratic in them.
fn small_real_store(seed: u64, dir: &std::path::Path) -> PmcSet {
    let cfg = PipelineCfg {
        seed,
        corpus_target: 24,
        fuzz_budget: 400,
        workers: 1,
        ..PipelineCfg::default()
    };
    let config = KernelConfig::v5_12_rc3();
    let pipeline = Pipeline::prepare(config, cfg);
    let tail = &pipeline.profiles[pipeline.profiles.len().saturating_sub(4)..];
    let mut batch: Vec<_> = tail
        .iter()
        .map(|p| {
            (
                profile_key(&config, seed, &pipeline.corpus[p.test as usize]),
                Some(p.clone()),
            )
        })
        .collect();
    batch.push((seed, None));
    let pmcs = PmcSet {
        pmcs: pipeline.pmcs.pmcs.iter().take(24).cloned().collect(),
    };
    assert!(
        tail.len() == 4 && !pmcs.is_empty(),
        "seed {seed}: nothing to mutate"
    );
    let keys: Vec<u64> = batch.iter().map(|(key, _)| *key).collect();
    let mut store = Store::open(dir).expect("open");
    store.insert_profiles(&batch).expect("insert");
    store.save_pmcs(&keys, &pmcs).expect("save");
    store.flush().expect("flush");
    pmcs
}

#[test]
fn every_truncation_and_flip_of_three_real_stores_is_survived() {
    let mut payloads = std::collections::BTreeSet::new();
    for seed in [3u64, 5, 8] {
        let dir = std::env::temp_dir().join(format!("sb-store-arb-{seed}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let pmcs = small_real_store(seed, &dir);

        for (_, kind, name) in crate::store::list_segment_files(&dir).expect("list") {
            let file = std::fs::read(dir.join(&name)).expect("read");
            let records = scan(&file, kind, true).records;
            assert!(
                !records.is_empty() && records.iter().all(|r| r.crc_ok == Some(true)),
                "{name}"
            );
            for_each_mutation(&file, |bytes, how| {
                check_scan(bytes, kind, &format!("seed {seed} {name} {how}"))
            });
            for rec in records {
                let payload = rec.payload(&file);
                let what = |how: &str| format!("seed {seed} {name} record at {} {how}", rec.offset);
                payloads.insert(payload.to_vec());
                match kind {
                    SegmentKind::Profile => {
                        // What the store wrote is canonical: it encodes back exactly.
                        let mut encoded = Vec::new();
                        codec::encode_profile(
                            &codec::decode_profile(payload).expect("own record"),
                            &mut encoded,
                        );
                        assert_eq!(encoded, payload, "{}", what("re-encoded"));
                        for_each_mutation(payload, |bytes, how| check_profile(bytes, &what(how)));
                    }
                    SegmentKind::Pmc => {
                        let (corpus, set) = codec::decode_pmc_corpus(payload).expect("own record");
                        assert_eq!(crate::corpus_key(&corpus), rec.key);
                        assert_eq!(codec::decode_pmc_set(set).expect("own record"), pmcs);
                        for_each_mutation(payload, |bytes, how| {
                            check_pmc_record(bytes, &what(how))
                        });
                    }
                }
            }
        }
        let manifest = std::fs::read(dir.join("manifest.json")).expect("manifest");
        for_each_mutation(&manifest, |bytes, how| {
            check_manifest(
                &String::from_utf8_lossy(bytes),
                &format!("seed {seed} manifest {how}"),
            );
        });
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        payloads.len() >= 12,
        "the three corpora should not repeat each other: {} distinct payloads",
        payloads.len()
    );
}
