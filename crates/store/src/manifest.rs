//! The store manifest: content key → segment address, plus PMC indexes.
//!
//! The manifest is the only mutable file in a store. It is JSON (human
//! inspectable mid-campaign, like the campaign checkpoint) rendered through
//! `snowboard::json`, whose numbers are unsigned integers only — content
//! keys are 64-bit hashes and must survive u64-exactly. Writes go through
//! `snowboard::json::atomic_write`, so a killed process never leaves a torn
//! manifest; at worst the last run's additions are lost and re-profiled.

use std::collections::BTreeMap;
use std::path::Path;

use snowboard::json::{self, Json};

use crate::Error;

/// Current manifest format version.
pub const VERSION: u64 = 1;

/// Where one profile lives, or the memo that its test failed sequentially.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfileStatus {
    /// Stored at this segment address.
    Ok {
        /// Segment file number (`seg-<n>.bin`).
        segment: u64,
        /// Record offset within the segment.
        offset: u64,
        /// Payload length in bytes.
        len: u64,
    },
    /// The test did not complete sequentially; there is nothing to store,
    /// but the *failure* is cached so warm runs skip re-executing it.
    Failed,
}

/// One persisted PMC set and the exact corpus (as profile keys, in order)
/// it was identified from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PmcEntry {
    /// Profile keys of the corpus, in corpus order.
    pub corpus: Vec<u64>,
    /// PMC segment file number (`pmc-<n>.bin`).
    pub segment: u64,
    /// Record offset within the segment.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
}

/// The manifest document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Manifest {
    /// Next segment file number to allocate (shared by profile and PMC
    /// segments).
    pub next_segment: u64,
    /// Profile content key → status.
    pub profiles: BTreeMap<u64, ProfileStatus>,
    /// Persisted PMC sets, oldest first.
    pub pmcs: Vec<PmcEntry>,
    /// Profile cache hits of the most recent completed run.
    pub last_hits: u64,
    /// Profile cache misses of the most recent completed run.
    pub last_misses: u64,
}

impl Manifest {
    /// Loads the manifest at `path`; a missing file is an empty store.
    pub fn load(path: &Path) -> Result<Manifest, Error> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Manifest::default())
            }
            Err(source) => {
                return Err(Error::Io {
                    op: "read",
                    path: path.to_path_buf(),
                    source,
                })
            }
        };
        let doc = json::parse(&text).map_err(|detail| Error::Format {
            path: path.to_path_buf(),
            detail,
        })?;
        Manifest::from_json(&doc).map_err(|detail| Error::Format {
            path: path.to_path_buf(),
            detail,
        })
    }

    /// Atomically writes the manifest to `path`.
    pub fn save(&self, path: &Path) -> Result<(), Error> {
        let text = self.to_json().render();
        json::atomic_write(path, &text).map_err(|(op, path, source)| Error::Io { op, path, source })
    }

    fn to_json(&self) -> Json {
        let profiles = self
            .profiles
            .iter()
            .map(|(key, status)| {
                let value = match status {
                    ProfileStatus::Ok { segment, offset, len } => Json::Obj(vec![
                        ("status".into(), Json::Str("ok".into())),
                        ("segment".into(), Json::U64(*segment)),
                        ("offset".into(), Json::U64(*offset)),
                        ("len".into(), Json::U64(*len)),
                    ]),
                    ProfileStatus::Failed => {
                        Json::Obj(vec![("status".into(), Json::Str("failed".into()))])
                    }
                };
                (key.to_string(), value)
            })
            .collect();
        let pmcs = self
            .pmcs
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    (
                        "corpus".into(),
                        Json::Arr(e.corpus.iter().map(|k| Json::U64(*k)).collect()),
                    ),
                    ("segment".into(), Json::U64(e.segment)),
                    ("offset".into(), Json::U64(e.offset)),
                    ("len".into(), Json::U64(e.len)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("version".into(), Json::U64(VERSION)),
            ("next_segment".into(), Json::U64(self.next_segment)),
            ("last_hits".into(), Json::U64(self.last_hits)),
            ("last_misses".into(), Json::U64(self.last_misses)),
            ("profiles".into(), Json::Obj(profiles)),
            ("pmcs".into(), Json::Arr(pmcs)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Manifest, String> {
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("missing version")?;
        if version != VERSION {
            return Err(format!("unsupported manifest version {version}"));
        }
        let u64_field = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing {key}"))
        };
        let mut profiles = BTreeMap::new();
        let Some(Json::Obj(fields)) = doc.get("profiles") else {
            return Err("missing profiles object".into());
        };
        for (key, value) in fields {
            let key: u64 = key.parse().map_err(|_| format!("bad profile key {key:?}"))?;
            let status = match value.get("status").and_then(Json::as_str) {
                Some("ok") => ProfileStatus::Ok {
                    segment: u64_field(value, "segment")?,
                    offset: u64_field(value, "offset")?,
                    len: u64_field(value, "len")?,
                },
                Some("failed") => ProfileStatus::Failed,
                other => return Err(format!("bad profile status {other:?}")),
            };
            profiles.insert(key, status);
        }
        let mut pmcs = Vec::new();
        let Some(Json::Arr(entries)) = doc.get("pmcs") else {
            return Err("missing pmcs array".into());
        };
        for e in entries {
            let Some(Json::Arr(corpus)) = e.get("corpus") else {
                return Err("missing pmc corpus array".into());
            };
            let corpus = corpus
                .iter()
                .map(|k| k.as_u64().ok_or("non-integer corpus key"))
                .collect::<Result<Vec<u64>, _>>()?;
            pmcs.push(PmcEntry {
                corpus,
                segment: u64_field(e, "segment")?,
                offset: u64_field(e, "offset")?,
                len: u64_field(e, "len")?,
            });
        }
        Ok(Manifest {
            next_segment: u64_field(doc, "next_segment")?,
            profiles,
            pmcs,
            last_hits: u64_field(doc, "last_hits")?,
            last_misses: u64_field(doc, "last_misses")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut profiles = BTreeMap::new();
        profiles.insert(
            u64::MAX,
            ProfileStatus::Ok { segment: 0, offset: 8, len: 123 },
        );
        profiles.insert(7, ProfileStatus::Failed);
        Manifest {
            next_segment: 2,
            profiles,
            pmcs: vec![PmcEntry {
                corpus: vec![u64::MAX, 7, 0],
                segment: 1,
                offset: 8,
                len: 456,
            }],
            last_hits: 10,
            last_misses: 2,
        }
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = sample();
        let doc = json::parse(&m.to_json().render()).expect("parse");
        assert_eq!(Manifest::from_json(&doc).expect("from_json"), m);
    }

    #[test]
    fn a_mebibyte_manifest_round_trips() {
        // No wall-clock assertion: a parser quadratic in the document
        // needs minutes here, so a regression shows as a hung suite.
        let mut m = sample();
        for i in 0..20_000u64 {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            m.profiles.insert(key, ProfileStatus::Ok { segment: i / 50, offset: 8 + 900 * (i % 50), len: 884 });
        }
        let text = m.to_json().render();
        assert!(text.len() >= 1 << 20, "{} bytes", text.len());
        let doc = json::parse(&text).expect("parse");
        assert_eq!(Manifest::from_json(&doc).expect("from_json"), m);
    }

    #[test]
    fn manifest_round_trips_through_disk_and_missing_file_is_empty() {
        let dir = std::env::temp_dir().join(format!("sb-store-man-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("manifest.json");
        assert_eq!(Manifest::load(&path).expect("fresh"), Manifest::default());
        let m = sample();
        m.save(&path).expect("save");
        assert_eq!(Manifest::load(&path).expect("load"), m);
        std::fs::write(&path, "{not json").expect("corrupt");
        assert!(matches!(Manifest::load(&path), Err(Error::Format { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }
}
