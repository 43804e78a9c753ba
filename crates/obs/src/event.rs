//! The typed trace-event model and its JSONL schema.
//!
//! Every line of a trace file is one JSON object with a `t` field
//! (microseconds since the tracer's origin) and an `ev` discriminator.
//! [`Event::to_json`] and [`Event::from_json`] define the schema in both
//! directions; `from_json` rejects unknown discriminators and missing or
//! mistyped fields, which is what the CI trace-validation job leans on.
//!
//! Eight event kinds exist:
//!
//! | `ev`         | payload                                                |
//! |--------------|--------------------------------------------------------|
//! | `span_start` | `span`, `parent` (0 = root), `name`                    |
//! | `span_end`   | `span`, `name`, `dur` (µs)                             |
//! | `count`      | `key`, `n` — a monotonic counter increment             |
//! | `hist`       | `key`, `v` — one histogram observation                 |
//! | `job`        | one campaign job's resolution (totals + quarantine bit)|
//! | `worker`     | one supervised-worker lifecycle transition             |
//! | `fleet`      | one fleet-worker lifecycle/lease transition            |
//! | `summary`    | the run's funnel + `CampaignReport` totals             |
//!
//! The `summary` event is emitted last, from the authoritative
//! `CampaignReport`, so a reader can cross-check the funnel it reconstructs
//! from the fine-grained events against what the run itself claimed.

use crate::json::Json;

/// One structured trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A span opened.
    SpanStart {
        /// Microseconds since tracer origin.
        t: u64,
        /// Span id (unique within the trace, starts at 1).
        span: u64,
        /// Parent span id; 0 for a root span.
        parent: u64,
        /// Span name (e.g. `campaign`, `profile`).
        name: String,
    },
    /// A span closed.
    SpanEnd {
        /// Microseconds since tracer origin.
        t: u64,
        /// Span id matching the corresponding [`Event::SpanStart`].
        span: u64,
        /// Span name, repeated for line-local readability.
        name: String,
        /// Span duration in microseconds.
        dur: u64,
    },
    /// A counter increment.
    Count {
        /// Microseconds since tracer origin.
        t: u64,
        /// Counter key (see [`crate::trace::keys`]).
        key: String,
        /// Increment amount.
        n: u64,
    },
    /// One histogram observation.
    Hist {
        /// Microseconds since tracer origin.
        t: u64,
        /// Histogram key.
        key: String,
        /// Observed value.
        v: u64,
    },
    /// One campaign job resolved (completed or quarantined).
    Job {
        /// Microseconds since tracer origin.
        t: u64,
        /// Campaign job index.
        job: u64,
        /// Trials executed.
        trials: u64,
        /// Engine steps consumed.
        steps: u64,
        /// Distinct findings within the job.
        findings: u64,
        /// Attempts consumed (1 = first try; 0 = never dispatched).
        attempts: u64,
        /// True if the job was quarantined instead of completing.
        quarantined: bool,
    },
    /// One supervised-worker lifecycle transition (multi-process campaigns
    /// only). Actions: `spawn`, `restart`, `exit`, `heartbeat-miss`.
    Worker {
        /// Microseconds since tracer origin.
        t: u64,
        /// The pool slot the process runs in.
        worker: u64,
        /// Lifecycle action.
        action: String,
        /// Human-readable context (exit status, pending count, ...).
        detail: String,
    },
    /// One fleet-worker lifecycle or lease transition (TCP-coordinated
    /// campaigns only). Actions: `join`, `reject`, `lease`, `evict`,
    /// `reassign`, `duplicate`, `drain`, `give-up`.
    Fleet {
        /// Microseconds since tracer origin.
        t: u64,
        /// Coordinator-assigned worker id (or connection id before a
        /// worker joined).
        worker: u64,
        /// Lifecycle action.
        action: String,
        /// Human-readable context (reason, lease contents, ...).
        detail: String,
    },
    /// Final run summary: the funnel plus `CampaignReport` totals.
    Summary {
        /// Microseconds since tracer origin.
        t: u64,
        /// Sequential profiles obtained (stage 1 output).
        profiles: u64,
        /// Shared accesses surviving the stack filter.
        shared_accesses: u64,
        /// PMCs identified (stage 2 output).
        pmcs: u64,
        /// Clusters induced by the selected strategy (stage 3).
        clusters: u64,
        /// Concurrent tests executed (`CampaignReport::tested`).
        jobs: u64,
        /// Trials executed (`CampaignReport::executions`).
        trials: u64,
        /// Engine steps (`CampaignReport::total_steps`).
        steps: u64,
        /// Distinct issues discovered.
        findings: u64,
        /// Jobs quarantined.
        quarantined: u64,
    },
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .ok_or_else(|| format!("missing field '{key}'"))?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' is not an unsigned integer"))
}

fn field_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .ok_or_else(|| format!("missing field '{key}'"))?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("field '{key}' is not a string"))
}

fn field_bool(doc: &Json, key: &str) -> Result<bool, String> {
    doc.get(key)
        .ok_or_else(|| format!("missing field '{key}'"))?
        .as_bool()
        .ok_or_else(|| format!("field '{key}' is not a boolean"))
}

impl Event {
    /// The `ev` discriminator.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SpanStart { .. } => "span_start",
            Event::SpanEnd { .. } => "span_end",
            Event::Count { .. } => "count",
            Event::Hist { .. } => "hist",
            Event::Job { .. } => "job",
            Event::Worker { .. } => "worker",
            Event::Fleet { .. } => "fleet",
            Event::Summary { .. } => "summary",
        }
    }

    /// Renders the event as a JSON object (one trace line, sans newline).
    pub fn to_json(&self) -> Json {
        let ev = Json::Str(self.kind().to_owned());
        match self {
            Event::SpanStart {
                t,
                span,
                parent,
                name,
            } => obj(vec![
                ("t", Json::U64(*t)),
                ("ev", ev),
                ("span", Json::U64(*span)),
                ("parent", Json::U64(*parent)),
                ("name", Json::Str(name.clone())),
            ]),
            Event::SpanEnd { t, span, name, dur } => obj(vec![
                ("t", Json::U64(*t)),
                ("ev", ev),
                ("span", Json::U64(*span)),
                ("name", Json::Str(name.clone())),
                ("dur", Json::U64(*dur)),
            ]),
            Event::Count { t, key, n } => obj(vec![
                ("t", Json::U64(*t)),
                ("ev", ev),
                ("key", Json::Str(key.clone())),
                ("n", Json::U64(*n)),
            ]),
            Event::Hist { t, key, v } => obj(vec![
                ("t", Json::U64(*t)),
                ("ev", ev),
                ("key", Json::Str(key.clone())),
                ("v", Json::U64(*v)),
            ]),
            Event::Job {
                t,
                job,
                trials,
                steps,
                findings,
                attempts,
                quarantined,
            } => obj(vec![
                ("t", Json::U64(*t)),
                ("ev", ev),
                ("job", Json::U64(*job)),
                ("trials", Json::U64(*trials)),
                ("steps", Json::U64(*steps)),
                ("findings", Json::U64(*findings)),
                ("attempts", Json::U64(*attempts)),
                ("quarantined", Json::Bool(*quarantined)),
            ]),
            Event::Worker {
                t,
                worker,
                action,
                detail,
            }
            | Event::Fleet {
                t,
                worker,
                action,
                detail,
            } => obj(vec![
                ("t", Json::U64(*t)),
                ("ev", ev),
                ("worker", Json::U64(*worker)),
                ("action", Json::Str(action.clone())),
                ("detail", Json::Str(detail.clone())),
            ]),
            Event::Summary {
                t,
                profiles,
                shared_accesses,
                pmcs,
                clusters,
                jobs,
                trials,
                steps,
                findings,
                quarantined,
            } => obj(vec![
                ("t", Json::U64(*t)),
                ("ev", ev),
                ("profiles", Json::U64(*profiles)),
                ("shared_accesses", Json::U64(*shared_accesses)),
                ("pmcs", Json::U64(*pmcs)),
                ("clusters", Json::U64(*clusters)),
                ("jobs", Json::U64(*jobs)),
                ("trials", Json::U64(*trials)),
                ("steps", Json::U64(*steps)),
                ("findings", Json::U64(*findings)),
                ("quarantined", Json::U64(*quarantined)),
            ]),
        }
    }

    /// Parses and schema-validates one trace line's JSON object.
    pub fn from_json(doc: &Json) -> Result<Event, String> {
        let t = field_u64(doc, "t")?;
        let ev = field_str(doc, "ev")?;
        match ev.as_str() {
            "span_start" => Ok(Event::SpanStart {
                t,
                span: field_u64(doc, "span")?,
                parent: field_u64(doc, "parent")?,
                name: field_str(doc, "name")?,
            }),
            "span_end" => Ok(Event::SpanEnd {
                t,
                span: field_u64(doc, "span")?,
                name: field_str(doc, "name")?,
                dur: field_u64(doc, "dur")?,
            }),
            "count" => Ok(Event::Count {
                t,
                key: field_str(doc, "key")?,
                n: field_u64(doc, "n")?,
            }),
            "hist" => Ok(Event::Hist {
                t,
                key: field_str(doc, "key")?,
                v: field_u64(doc, "v")?,
            }),
            "job" => Ok(Event::Job {
                t,
                job: field_u64(doc, "job")?,
                trials: field_u64(doc, "trials")?,
                steps: field_u64(doc, "steps")?,
                findings: field_u64(doc, "findings")?,
                attempts: field_u64(doc, "attempts")?,
                quarantined: field_bool(doc, "quarantined")?,
            }),
            "worker" => Ok(Event::Worker {
                t,
                worker: field_u64(doc, "worker")?,
                action: field_str(doc, "action")?,
                detail: field_str(doc, "detail")?,
            }),
            "fleet" => Ok(Event::Fleet {
                t,
                worker: field_u64(doc, "worker")?,
                action: field_str(doc, "action")?,
                detail: field_str(doc, "detail")?,
            }),
            "summary" => Ok(Event::Summary {
                t,
                profiles: field_u64(doc, "profiles")?,
                shared_accesses: field_u64(doc, "shared_accesses")?,
                pmcs: field_u64(doc, "pmcs")?,
                clusters: field_u64(doc, "clusters")?,
                jobs: field_u64(doc, "jobs")?,
                trials: field_u64(doc, "trials")?,
                steps: field_u64(doc, "steps")?,
                findings: field_u64(doc, "findings")?,
                quarantined: field_u64(doc, "quarantined")?,
            }),
            other => Err(format!("unknown event kind '{other}'")),
        }
    }

    /// Parses and schema-validates one raw trace line.
    pub fn parse_line(line: &str) -> Result<Event, String> {
        let doc = crate::json::parse(line)?;
        Event::from_json(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: Event) {
        let line = ev.to_json().render();
        assert_eq!(Event::parse_line(&line).unwrap(), ev, "line: {line}");
    }

    #[test]
    fn all_kinds_round_trip() {
        roundtrip(Event::SpanStart {
            t: 1,
            span: 1,
            parent: 0,
            name: "campaign".into(),
        });
        roundtrip(Event::SpanEnd {
            t: 9,
            span: 1,
            name: "campaign".into(),
            dur: 8,
        });
        roundtrip(Event::Count {
            t: 2,
            key: "pipeline.profiles".into(),
            n: 3,
        });
        roundtrip(Event::Hist {
            t: 2,
            key: "select.cluster_size".into(),
            v: u64::MAX,
        });
        roundtrip(Event::Job {
            t: 3,
            job: 7,
            trials: 24,
            steps: 9000,
            findings: 1,
            attempts: 2,
            quarantined: false,
        });
        roundtrip(Event::Worker {
            t: 5,
            worker: 2,
            action: "heartbeat-miss".into(),
            detail: "silent for 10.2s".into(),
        });
        roundtrip(Event::Fleet {
            t: 6,
            worker: 3,
            action: "reassign".into(),
            detail: "job 12: lease 4 expired".into(),
        });
        roundtrip(Event::Summary {
            t: 4,
            profiles: 100,
            shared_accesses: 5000,
            pmcs: 300,
            clusters: 40,
            jobs: 40,
            trials: 960,
            steps: 1_000_000,
            findings: 2,
            quarantined: 1,
        });
    }

    #[test]
    fn rejects_schema_violations() {
        // Unknown kind.
        assert!(Event::parse_line("{\"t\":0,\"ev\":\"nope\"}").is_err());
        // Missing discriminator / timestamp.
        assert!(Event::parse_line("{\"ev\":\"count\",\"key\":\"k\",\"n\":1}").is_err());
        assert!(Event::parse_line("{\"t\":0,\"key\":\"k\",\"n\":1}").is_err());
        // Mistyped field.
        assert!(Event::parse_line("{\"t\":0,\"ev\":\"count\",\"key\":\"k\",\"n\":\"1\"}").is_err());
        // Missing field.
        assert!(
            Event::parse_line("{\"t\":0,\"ev\":\"span_end\",\"span\":1,\"name\":\"x\"}").is_err()
        );
        assert!(
            Event::parse_line("{\"t\":0,\"ev\":\"worker\",\"worker\":1,\"action\":\"spawn\"}")
                .is_err()
        );
        assert!(
            Event::parse_line("{\"t\":0,\"ev\":\"fleet\",\"worker\":1,\"action\":\"join\"}")
                .is_err()
        );
        // Not JSON at all.
        assert!(Event::parse_line("not json").is_err());
    }
}
