//! The store manifest: the last run's profile hit and miss counters.
//!
//! The segment files are the store's only index ([`crate::store`]); the
//! manifest holds what no record can, `{"version":2,"last_hits":H,
//! "last_misses":M}`, and marks a directory as a store. Writes go through
//! `snowboard::json::atomic_write`, so a killed process never leaves a torn
//! manifest.

use std::path::Path;

use snowboard::json::{self, Json};

use crate::Error;

/// Current manifest format version.
pub const VERSION: u64 = 2;

/// The manifest document: the profile counters of the most recent completed
/// run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
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

    /// The manifest document.
    pub fn render(&self) -> String {
        format!(
            "{{\"version\":{VERSION},\"last_hits\":{},\"last_misses\":{}}}",
            self.last_hits, self.last_misses
        )
    }

    /// Reads the counters of a version 2 document; other members are
    /// skipped.
    pub(crate) fn parse(text: &str) -> Result<Manifest, String> {
        let doc = json::parse(text)?;
        let field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing {name}"))
        };
        let version = field("version")?;
        if version != VERSION {
            return Err(format!("unsupported manifest version {version}"));
        }
        Ok(Manifest {
            last_hits: field("last_hits")?,
            last_misses: field("last_misses")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json() {
        for m in [
            Manifest::default(),
            Manifest {
                last_hits: 10,
                last_misses: u64::MAX,
            },
        ] {
            assert_eq!(Manifest::parse(&m.render()), Ok(m));
        }
        // A version-1 manifest, key map and all, is refused.
        let v1 = r#"{"version":1,"next_segment":2,"last_hits":3,"last_misses":4,"profiles":{"7":{"status":"failed"}},"pmcs":[]}"#;
        for text in [
            v1,
            r#"{"version":3,"last_hits":0,"last_misses":0}"#,
            r#"{"version":0,"last_hits":0,"last_misses":0}"#,
            r#"{"version":2,"last_hits":0}"#,
            r#"{"version":2,"last_hits":-1,"last_misses":0}"#,
            "[]",
            "",
        ] {
            assert!(Manifest::parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn manifest_round_trips_through_disk_and_missing_file_is_empty() {
        let dir = std::env::temp_dir().join(format!("sb-store-man-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("manifest.json");
        assert_eq!(Manifest::load(&path).expect("fresh"), Manifest::default());
        let m = Manifest {
            last_hits: 10,
            last_misses: 2,
        };
        m.save(&path).expect("save");
        assert_eq!(Manifest::load(&path).expect("load"), m);
        std::fs::write(&path, "{not json").expect("corrupt");
        assert!(matches!(Manifest::load(&path), Err(Error::Format { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }
}
