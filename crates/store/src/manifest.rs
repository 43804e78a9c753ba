//! The store manifest: content key → segment address, plus PMC indexes.
//!
//! The manifest is the only mutable file in a store. It is JSON (human
//! inspectable mid-campaign, like the campaign checkpoint) in the grammar
//! of `snowboard::json`, whose numbers are unsigned integers only — content
//! keys are 64-bit hashes and must survive u64-exactly. Writes go through
//! `snowboard::json::atomic_write`, so a killed process never leaves a torn
//! manifest; at worst the last run's additions are lost and written again.
//!
//! The document is never a `Json` tree: [`Manifest::render`] streams it
//! into one string and [`Manifest::load`] pulls it through a
//! `json::Reader` straight into the map. At a few thousand entries the
//! tree was most of a flush and half of an open.

use std::collections::BTreeMap;
use std::path::Path;

#[cfg(test)]
use snowboard::json::Json;
use snowboard::json::{self, Reader};

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
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Manifest::default()),
            Err(source) => {
                return Err(Error::Io {
                    op: "read",
                    path: path.to_path_buf(),
                    source,
                })
            }
        };
        Manifest::parse(&text).map_err(|detail| Error::Format {
            path: path.to_path_buf(),
            detail,
        })
    }

    /// Atomically writes the manifest to `path`.
    pub fn save(&self, path: &Path) -> Result<(), Error> {
        json::atomic_write(path, self.render()).map_err(|(op, path, source)| Error::Io {
            op,
            path,
            source,
        })
    }

    /// The manifest document, streamed into one pre-sized string.
    pub fn render(&self) -> String {
        fn field(out: &mut String, name: &str, value: u64) {
            out.push_str(name);
            json::write_u64(value, out);
        }
        fn address(out: &mut String, segment: u64, offset: u64, len: u64) {
            field(out, "\"segment\":", segment);
            field(out, ",\"offset\":", offset);
            field(out, ",\"len\":", len);
            out.push('}');
        }
        let corpus_keys: usize = self.pmcs.iter().map(|e| e.corpus.len()).sum();
        let mut out = String::with_capacity(
            128 + 96 * self.profiles.len() + 64 * self.pmcs.len() + 21 * corpus_keys,
        );
        field(&mut out, "{\"version\":", VERSION);
        field(&mut out, ",\"next_segment\":", self.next_segment);
        field(&mut out, ",\"last_hits\":", self.last_hits);
        field(&mut out, ",\"last_misses\":", self.last_misses);
        out.push_str(",\"profiles\":{");
        for (i, (key, status)) in self.profiles.iter().enumerate() {
            field(&mut out, if i == 0 { "\"" } else { ",\"" }, *key);
            match status {
                ProfileStatus::Ok {
                    segment,
                    offset,
                    len,
                } => {
                    out.push_str("\":{\"status\":\"ok\",");
                    address(&mut out, *segment, *offset, *len);
                }
                ProfileStatus::Failed => out.push_str("\":{\"status\":\"failed\"}"),
            }
        }
        out.push_str("},\"pmcs\":[");
        for (i, e) in self.pmcs.iter().enumerate() {
            out.push_str(if i == 0 {
                "{\"corpus\":["
            } else {
                ",{\"corpus\":["
            });
            for (j, k) in e.corpus.iter().enumerate() {
                field(&mut out, if j == 0 { "" } else { "," }, *k);
            }
            out.push_str("],");
            address(&mut out, e.segment, e.offset, e.len);
        }
        out.push_str("]}");
        out
    }

    /// Reads the document straight into the map, without a [`Json`] tree
    /// in between. Accepts what `from_json(parse(text))` accepts, with the
    /// same value: members of other names are skipped, the first member of
    /// a scalar's name is the one read, a later profile key replaces an
    /// earlier equal one.
    pub(crate) fn parse(text: &str) -> Result<Manifest, String> {
        let mut r = Reader::new(text);
        let (mut version, mut next_segment, mut last_hits, mut last_misses) =
            (None, None, None, None);
        let (mut profiles, mut pmcs) = (None, None);
        r.obj(|r, name| match name {
            "version" => first(&mut version, r, Reader::u64),
            "next_segment" => first(&mut next_segment, r, Reader::u64),
            "last_hits" => first(&mut last_hits, r, Reader::u64),
            "last_misses" => first(&mut last_misses, r, Reader::u64),
            "profiles" => first(&mut profiles, r, |r| {
                // `render` writes the keys in order, so `collect` builds the
                // map in one pass; its stable sort keeps the later of two
                // equal keys, as `insert` would.
                let mut entries = Vec::new();
                let is_obj = r.obj(|r, key| {
                    let key: u64 = key
                        .parse()
                        .map_err(|_| format!("bad profile key {key:?}"))?;
                    entries.push((key, profile_status(r)?));
                    Ok(())
                })?;
                Ok(is_obj.then(|| entries.into_iter().collect()))
            }),
            "pmcs" => first(&mut pmcs, r, |r| {
                let mut entries = Vec::new();
                let is_arr = r.arr(|r| {
                    entries.push(pmc_entry(r)?);
                    Ok(())
                })?;
                Ok(is_arr.then_some(entries))
            }),
            _ => r.skip(),
        })?;
        r.finish()?;
        let version = required(version, "version")?;
        if version != VERSION {
            return Err(format!("unsupported manifest version {version}"));
        }
        Ok(Manifest {
            next_segment: required(next_segment, "next_segment")?,
            profiles: required(profiles, "profiles object")?,
            pmcs: required(pmcs, "pmcs array")?,
            last_hits: required(last_hits, "last_hits")?,
            last_misses: required(last_misses, "last_misses")?,
        })
    }
}

/// Reads the member under the reader into `slot` if it is the first of its
/// name; a later duplicate is skipped unread, as `Json::get` never saw one.
/// `Some(None)` is a first member of the wrong type.
fn first<'a, T>(
    slot: &mut Option<Option<T>>,
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<Option<T>, String>,
) -> Result<(), String> {
    match slot {
        Some(_) => r.skip(),
        None => {
            *slot = Some(read(r)?);
            Ok(())
        }
    }
}

fn required<T>(slot: Option<Option<T>>, what: &str) -> Result<T, String> {
    slot.flatten().ok_or_else(|| format!("missing {what}"))
}

fn profile_status(r: &mut Reader<'_>) -> Result<ProfileStatus, String> {
    let (mut status, mut segment, mut offset, mut len) = (None, None, None, None);
    r.obj(|r, name| match name {
        "status" => first(&mut status, r, Reader::str),
        "segment" => first(&mut segment, r, Reader::u64),
        "offset" => first(&mut offset, r, Reader::u64),
        "len" => first(&mut len, r, Reader::u64),
        _ => r.skip(),
    })?;
    match status.flatten().as_deref() {
        Some("ok") => Ok(ProfileStatus::Ok {
            segment: required(segment, "segment")?,
            offset: required(offset, "offset")?,
            len: required(len, "len")?,
        }),
        Some("failed") => Ok(ProfileStatus::Failed),
        other => Err(format!("bad profile status {other:?}")),
    }
}

fn pmc_entry(r: &mut Reader<'_>) -> Result<PmcEntry, String> {
    let (mut corpus, mut segment, mut offset, mut len) = (None, None, None, None);
    r.obj(|r, name| match name {
        "corpus" => first(&mut corpus, r, |r| {
            let mut keys = Vec::new();
            let is_arr = r.arr(|r| {
                keys.push(r.u64()?.ok_or("non-integer corpus key")?);
                Ok(())
            })?;
            Ok(is_arr.then_some(keys))
        }),
        "segment" => first(&mut segment, r, Reader::u64),
        "offset" => first(&mut offset, r, Reader::u64),
        "len" => first(&mut len, r, Reader::u64),
        _ => r.skip(),
    })?;
    Ok(PmcEntry {
        corpus: required(corpus, "pmc corpus array")?,
        segment: required(segment, "segment")?,
        offset: required(offset, "offset")?,
        len: required(len, "len")?,
    })
}

/// The tree-building manifest codec `render`/`parse` replaced, kept as the
/// reference they are compared with.
#[cfg(test)]
impl Manifest {
    pub(crate) fn to_json(&self) -> Json {
        let profiles = self
            .profiles
            .iter()
            .map(|(key, status)| {
                let value = match status {
                    ProfileStatus::Ok {
                        segment,
                        offset,
                        len,
                    } => Json::Obj(vec![
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

    pub(crate) fn from_json(doc: &Json) -> Result<Manifest, String> {
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
            let key: u64 = key
                .parse()
                .map_err(|_| format!("bad profile key {key:?}"))?;
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
            ProfileStatus::Ok {
                segment: 0,
                offset: 8,
                len: 123,
            },
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

    /// `render` writes the bytes the tree did; `parse` reads what
    /// `from_json(json::parse(..))` read, or refuses what it refused.
    fn same_as_the_tree(text: &str) -> Result<Manifest, String> {
        let read = Manifest::parse(text);
        let tree = json::parse(text).and_then(|doc| Manifest::from_json(&doc));
        match (&read, &tree) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{text}"),
            (Err(_), Err(_)) => {}
            _ => panic!("reader {read:?}, tree {tree:?} on {text}"),
        }
        if let Ok(m) = &read {
            assert_eq!(m.render(), m.to_json().render(), "{text}");
        }
        read
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = sample();
        assert_eq!(same_as_the_tree(&m.render()), Ok(m));
        assert_eq!(
            same_as_the_tree(&Manifest::default().render()),
            Ok(Manifest::default())
        );
    }

    #[test]
    fn a_mebibyte_manifest_round_trips() {
        // No wall-clock assertion: a parser quadratic in the document
        // needs minutes here, so a regression shows as a hung suite.
        let mut m = sample();
        for i in 0..20_000u64 {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            m.profiles.insert(
                key,
                ProfileStatus::Ok {
                    segment: i / 50,
                    offset: 8 + 900 * (i % 50),
                    len: 884,
                },
            );
        }
        let text = m.render();
        assert!(text.len() >= 1 << 20, "{} bytes", text.len());
        assert!(
            text.len() <= text.capacity() && text.capacity() < 2 * text.len(),
            "one allocation, sized to fit"
        );
        assert_eq!(same_as_the_tree(&text), Ok(m));
    }

    #[test]
    fn a_duplicate_profile_key_parses_to_the_later_entry_in_any_order() {
        let at = |segment| ProfileStatus::Ok {
            segment,
            offset: 8,
            len: 1,
        };
        let mut m = Manifest::default();
        m.profiles.insert(9, at(0));
        let text = m.render().replacen(
            r#""9":{"status":"ok","segment":0,"offset":8,"len":1}"#,
            r#""9":{"status":"ok","segment":0,"offset":8,"len":1},"5":{"status":"failed"},"9":{"status":"ok","segment":1,"offset":8,"len":1},"2":{"status":"failed"},"5":{"status":"ok","segment":2,"offset":8,"len":1},"9":{"status":"ok","segment":3,"offset":8,"len":1}"#,
            1,
        );
        let m = same_as_the_tree(&text).expect("parses");
        let want = BTreeMap::from([(2, ProfileStatus::Failed), (5, at(2)), (9, at(3))]);
        assert_eq!(m.profiles, want);
    }

    #[test]
    fn the_reader_accepts_and_refuses_what_the_tree_did() {
        let ok = |text: &str| same_as_the_tree(text).unwrap_or_else(|e| panic!("{e}: {text}"));
        let refused = |text: &str| same_as_the_tree(text).expect_err(text);
        // The two manifests `cli/tests/cli.rs` writes by hand.
        let fresh = r#"{"version":1,"next_segment":0,"last_hits":0,"last_misses":0,"profiles":{},"pmcs":[]}"#;
        assert_eq!(ok(fresh), Manifest::default());
        let dangling = r#"{"version":1,"next_segment":1,"last_hits":0,"last_misses":0,"profiles":{"42":{"status":"ok","segment":0,"offset":8,"len":5}},"pmcs":[]}"#;
        assert_eq!(
            ok(dangling).profiles[&42],
            ProfileStatus::Ok {
                segment: 0,
                offset: 8,
                len: 5
            }
        );

        // Whitespace between any two tokens.
        let spaced = sample()
            .render()
            .replace(':', " :\t")
            .replace(',', "\n, ")
            .replace('{', "{ ")
            .replace('[', "[\r\n");
        assert_eq!(ok(&format!(" \n{spaced}\t ")), sample());

        // Members in any order, unknown members of any shape at every level.
        let reordered = r#"{"pmcs":[{"len":4,"x":[{}],"offset":8,"segment":1,"corpus":[7,9],"y":null}],"later":{"a":[1,{"b":"c"}]},
            "profiles":{"7":{"len":3,"offset":8,"note":"n","segment":0,"status":"ok"},"9":{"why":[true,false],"status":"failed"}},
            "last_misses":2,"last_hits":1,"next_segment":2,"version":1,"z":"\u00e9"}"#;
        let m = ok(reordered);
        assert_eq!(
            m.profiles[&7],
            ProfileStatus::Ok {
                segment: 0,
                offset: 8,
                len: 3
            }
        );
        assert_eq!(m.profiles[&9], ProfileStatus::Failed);
        assert_eq!(
            m.pmcs,
            [PmcEntry {
                corpus: vec![7, 9],
                segment: 1,
                offset: 8,
                len: 4
            }]
        );
        assert_eq!((m.next_segment, m.last_hits, m.last_misses), (2, 1, 2));

        // The first of two scalars of a name is the one read — even when the
        // second is of the wrong type, and even for `status`; a first of the
        // wrong type is a missing member.
        let dup = |member: &str| fresh.replacen("\"next_segment\":0", member, 1);
        assert_eq!(
            ok(&dup(r#""next_segment":5,"next_segment":"six""#)).next_segment,
            5
        );
        assert_eq!(ok(&dup(r#""next_segment":5,"version":2"#)).next_segment, 5);
        refused(&dup(r#""next_segment":"six","next_segment":5"#));
        refused(&dup(r#""next_segment":null"#));
        let entry = |body: &str| {
            fresh.replacen(
                "\"profiles\":{}",
                &format!("\"profiles\":{{\"3\":{body}}}"),
                1,
            )
        };
        assert_eq!(
            ok(&entry(r#"{"status":"failed","status":"ok"}"#)).profiles[&3],
            ProfileStatus::Failed
        );
        assert_eq!(
            ok(&entry(r#"{"status":"failed","segment":"unread"}"#)).profiles[&3],
            ProfileStatus::Failed
        );
        assert_eq!(
            ok(&entry(
                r#"{"segment":1,"segment":[],"status":"ok","offset":2,"len":3,"len":4}"#
            ))
            .profiles[&3],
            ProfileStatus::Ok {
                segment: 1,
                offset: 2,
                len: 3
            }
        );
        for body in [
            r#"{"status":"ok","segment":"1","offset":2,"len":3}"#,
            r#"{"status":"ok","offset":2,"len":3}"#,
            r#"{"status":7}"#,
            r#"{"status":"gone"}"#,
            r#"{}"#,
            r#"[]"#,
            r#""ok""#,
            r#"3"#,
        ] {
            refused(&entry(body));
        }
        // A second `profiles` or `pmcs` member is not read at all.
        assert_eq!(
            ok(&fresh.replacen(
                "\"pmcs\":[]",
                r#""pmcs":[],"pmcs":[7],"profiles":{"x":1}"#,
                1
            )),
            Manifest::default()
        );
        refused(&fresh.replacen("\"profiles\":{}", r#""profiles":[],"profiles":{}"#, 1));
        refused(&fresh.replacen("\"pmcs\":[]", r#""pmcs":{}"#, 1));

        // The later of two equal profile keys wins, however each is spelled.
        let twice = fresh.replacen("\"profiles\":{}", r#""profiles":{"3":{"status":"failed"},"+3":{"status":"ok","segment":1,"offset":2,"len":3},"0004":{"status":"failed"},"\u0034":{"status":"ok","segment":4,"offset":4,"len":4}}"#, 1);
        let m = ok(&twice);
        assert_eq!(m.profiles.len(), 2);
        assert_eq!(
            m.profiles[&3],
            ProfileStatus::Ok {
                segment: 1,
                offset: 2,
                len: 3
            }
        );
        assert_eq!(
            m.profiles[&4],
            ProfileStatus::Ok {
                segment: 4,
                offset: 4,
                len: 4
            },
            "an escaped key is the key it spells"
        );
        for key in ["", "x", "-1", "1.0", "18446744073709551616", " 1"] {
            refused(&fresh.replacen(
                "\"profiles\":{}",
                &format!("\"profiles\":{{\"{key}\":{{\"status\":\"failed\"}}}}"),
                1,
            ));
        }

        // PMC entries.
        let pmc = |body: &str| fresh.replacen("\"pmcs\":[]", &format!("\"pmcs\":[{body}]"), 1);
        assert_eq!(
            ok(&pmc(
                r#"{"corpus":[],"corpus":[1],"segment":1,"offset":2,"len":3}"#
            ))
            .pmcs[0]
                .corpus,
            Vec::<u64>::new()
        );
        for body in [
            r#"{"corpus":[1,"2"],"segment":1,"offset":2,"len":3}"#,
            r#"{"corpus":{},"segment":1,"offset":2,"len":3}"#,
            r#"{"segment":1,"offset":2,"len":3}"#,
            r#"{"corpus":[1],"segment":1,"offset":2}"#,
            r#"[]"#,
            r#"7"#,
        ] {
            refused(&pmc(body));
        }

        // Versions, numbers the grammar has no room for, depth, the document's ends.
        assert!(
            refused(&fresh.replacen("\"version\":1", "\"version\":2", 1))
                .contains("unsupported manifest version 2")
        );
        refused(&fresh.replacen("\"version\":1,", "", 1));
        refused(&fresh.replacen("\"last_hits\":0", "\"last_hits\":0.5", 1));
        refused(&fresh.replacen("\"last_hits\":0", "\"last_hits\":-1", 1));
        refused(&fresh.replacen("\"last_hits\":0", "\"extra\":1e3,\"last_hits\":0", 1));
        let nested = |depth: usize| {
            fresh.replacen(
                "\"pmcs\"",
                &format!(
                    "\"deep\":{}1{},\"pmcs\"",
                    "[".repeat(depth),
                    "]".repeat(depth)
                ),
                1,
            )
        };
        assert_eq!(
            ok(&nested(127)),
            Manifest::default(),
            "127 arrays inside the document: depth 128"
        );
        assert!(
            refused(&nested(128)).contains("nesting deeper than 128"),
            "depth 129"
        );
        for text in [
            "",
            "[]",
            "7",
            "null",
            "{",
            &fresh[..fresh.len() - 1],
            &format!("{fresh}{fresh}"),
            &format!("{fresh} x"),
        ] {
            refused(text);
        }
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
