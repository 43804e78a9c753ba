//! Metric definitions and the documents a run emits.
//!
//! The definitions here are the single source of `/BENCHMARK.json`
//! (`sb-benchmark manifest` prints it; a test pins the committed file to it),
//! of the result line every run ends with, and of the bounds `noise` checks.

use std::collections::BTreeMap;

use sb_obs::json::Json;

use crate::spans::{NameTotal, Span};
use crate::workloads::SPECS;
use crate::RUN_SECONDS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The gated metrics with the share of the parent's median each may worsen
/// by. `setup_s` is a handful of samples per run and takes the widest bound.
pub const END_TO_END: [(MetricDef, f64); 4] = [
    (lower("setup_s", "s"), 0.25),
    (higher("units_per_s", "1/s"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.15),
    (higher("bugs_found", "count"), 0.25),
];

/// The per-layer ledger, `<module>.<metric>`; never gated.
pub const PER_LAYER: [MetricDef; 63] = [
    lower("vmm.step_ns_conc", "ns"),
    lower("vmm.step_ns_seq", "ns"),
    lower("vmm.step_ns_conc_unpinned", "ns"),
    lower("vmm.ctx_switches_per_step", "count"),
    lower("vmm.steps_per_trial", "count"),
    lower("vmm.switches_per_trial", "count"),
    lower("vmm.executor_new_us", "us"),
    lower("mem.clone_ns", "ns"),
    lower("mem.first_write_ns", "ns"),
    lower("mem.dirty_pages_per_trial", "count"),
    lower("kernel.boot_ms", "ms"),
    higher("fuzz.execs_per_s", "1/s"),
    lower("fuzz.executed", "count"),
    higher("fuzz.corpus_kept", "count"),
    higher("profile.programs_per_s", "1/s"),
    lower("profile.accesses_per_program", "count"),
    higher("profile.shared_share", "share"),
    lower("pmc.identify_ms", "ms"),
    lower("pmc.identify_sharded2_ms", "ms"),
    lower("pmc.incremental_add_ms", "ms"),
    higher("pmc.pmcs", "count"),
    lower("cluster.s_full_ms", "ms"),
    lower("cluster.s_ins_pair_ms", "ms"),
    lower("select.exemplars_ms", "ms"),
    higher("select.exemplars", "count"),
    higher("campaign.trials_per_s", "1/s"),
    lower("campaign.job_us", "us"),
    lower("campaign.runner_overhead_share", "share"),
    higher("campaign.exercised_share", "share"),
    lower("campaign.quarantined", "count"),
    lower("detect.analyze_us_per_trial", "us"),
    lower("detect.race_only_us_per_trial", "us"),
    higher("detect.findings", "count"),
    lower("obs.tracer_overhead_share", "share"),
    lower("obs.span_ns", "ns"),
    higher("store.encode_mb_per_s", "MB/s"),
    higher("store.decode_mb_per_s", "MB/s"),
    higher("store.insert_records_per_s", "1/s"),
    higher("store.lookup_records_per_s", "1/s"),
    lower("store.open_ms", "ms"),
    lower("store.flush_ms", "ms"),
    lower("store.pmc_save_ms", "ms"),
    lower("store.pmc_load_ms", "ms"),
    lower("store.bytes_per_record", "count"),
    lower("store.damaged", "count"),
    lower("journal.append_us", "us"),
    lower("journal.sync_us", "us"),
    higher("journal.replay_records_per_s", "1/s"),
    lower("protocol.frame_roundtrip_us", "us"),
    higher("fleet.loopback_trials_per_s", "1/s"),
    lower("fleet.job_overhead_us", "us"),
    lower("checkpoint.save_ms", "ms"),
    lower("checkpoint.load_ms", "ms"),
    higher("harness.reps", "count"),
    lower("harness.rep_p50_s", "s"),
    lower("harness.rep_p75_s", "s"),
    lower("harness.rep_spread", "share"),
    lower("harness.calib_ns", "ns"),
    higher("harness.pinned_cpu", "count"),
    higher("harness.batch_policy", "count"),
    lower("harness.trace_overhead_share", "share"),
    lower("hunt.unattributed_share", "share"),
    lower("hunt.stages_s", "s"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// A JSON number for `v` with all its digits (non-finite values, which no
/// metric should produce, render as 0 rather than break the document).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The last line of a run's standard output: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, the latter holding every metric of
/// `defs` (a missing value is a harness bug and panics).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                number(*v),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Reads metric `name`'s value back out of a result line (used by `noise`,
/// which runs this binary as a child; `sb_obs::json` holds no fractions).
pub fn value_in_result_line(line: &str, name: &str) -> Option<f64> {
    let (_, rest) = line.split_once(&format!("\"{name}\": {{\"value\": "))?;
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

pub fn end_to_end_defs() -> Vec<MetricDef> {
    END_TO_END.iter().map(|(d, _)| *d).collect()
}

/// `/BENCHMARK.json`, generated.
pub fn manifest() -> String {
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|s| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(d, bound)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"sh\", \"crates/benchmark/run.sh\"],\n  \"paths\": [\"crates/benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// What identifies a traced run in its ledger.
pub struct LedgerHead<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub pinned_cpu: Option<usize>,
    pub scratch: &'a str,
}

/// The traced run's ledger document (`snowboard.benchmark.v1`): every
/// per-layer metric with its unit, per-name span totals inside timed reps and
/// overall, and the raw spans. Integers only, as `sb_obs::json` holds them;
/// metric values travel as decimal strings.
pub fn ledger(
    head: &LedgerHead<'_>,
    values: &Values,
    timed: &BTreeMap<&'static str, NameTotal>,
    all: &BTreeMap<&'static str, NameTotal>,
    spans: &[Span],
) -> Json {
    let s = |x: &str| Json::Str(x.to_string());
    let metrics = PER_LAYER
        .iter()
        .filter_map(|d| {
            values.get(d.name).map(|v| {
                Json::Obj(vec![
                    ("name".into(), s(d.name)),
                    ("unit".into(), s(d.unit)),
                    ("better".into(), s(d.better.as_str())),
                    ("value".into(), s(&number(*v))),
                ])
            })
        })
        .collect();
    let totals = |m: &BTreeMap<&'static str, NameTotal>| {
        Json::Arr(
            m.iter()
                .map(|(name, t)| {
                    Json::Obj(vec![
                        ("name".into(), s(name)),
                        ("count".into(), Json::U64(t.count)),
                        ("total_ns".into(), Json::U64(t.total_ns)),
                        ("self_ns".into(), Json::U64(t.self_ns)),
                    ])
                })
                .collect(),
        )
    };
    let raw = spans
        .iter()
        .map(|sp| {
            Json::Obj(vec![
                ("name".into(), s(sp.name)),
                ("start".into(), Json::U64(sp.start_ns)),
                ("end".into(), Json::U64(sp.end_ns)),
                // 0 = no parent; otherwise 1 + the parent's index.
                (
                    "parent".into(),
                    Json::U64(sp.parent.map_or(0, |p| p as u64 + 1)),
                ),
                // 0 = outside timed reps; otherwise 1 + the rep's index.
                ("rep".into(), Json::U64((sp.rep + 1).max(0) as u64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), s("snowboard.benchmark.v1")),
        ("workload".into(), s(head.workload)),
        ("seed".into(), Json::U64(head.seed)),
        (
            "pinned_cpu".into(),
            head.pinned_cpu.map_or(Json::Null, |c| Json::U64(c as u64)),
        ),
        ("scratch".into(), s(head.scratch)),
        ("metrics".into(), Json::Arr(metrics)),
        ("span_totals_timed".into(), totals(timed)),
        ("span_totals_all".into(), totals(all)),
        ("spans".into(), Json::Arr(raw)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_values() -> Values {
        PER_LAYER
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, i as f64 + 0.5))
            .collect()
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END.iter().map(|(d, _)| d).chain(PER_LAYER.iter());
        for d in names {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(d
                .name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
            assert!(!d.unit.is_empty() && d.unit.len() <= 16);
            assert!(d
                .unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
        assert!(PER_LAYER.len() <= 128);
        for (d, bound) in &END_TO_END {
            assert!(*bound <= 0.25, "{}", d.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|(d, _)| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.0.unit, setup.0.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|(_, b)| *b <= setup.1),
            "setup_s takes the widest bound"
        );
    }

    #[test]
    fn result_line_holds_exactly_the_contract_keys_and_reads_back() {
        let mut v = Values::new();
        v.insert("setup_s", 0.8127);
        v.insert("units_per_s", 2034.685);
        v.insert("peak_rss_mb", 21.5);
        v.insert("bugs_found", 12.0);
        let line = result_line(true, 1000, 0, &end_to_end_defs(), &v);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert!(!line.contains('\n'));
        assert_eq!(value_in_result_line(&line, "units_per_s"), Some(2034.685));
        assert_eq!(value_in_result_line(&line, "setup_s"), Some(0.8127));
        assert_eq!(value_in_result_line(&line, "bugs_found"), Some(12.0));
        assert_eq!(value_in_result_line(&line, "absent"), None);
        assert_eq!(line.matches("\"unit\"").count(), 4);
    }

    #[test]
    fn ledger_parses_with_sb_obs_json_and_names_every_layer_metric_with_a_unit() {
        let spans = vec![Span {
            name: "store.open",
            start_ns: 5,
            end_ns: 9,
            parent: None,
            rep: 0,
        }];
        let timed = crate::spans::totals_by_name(&spans, |s| s.rep >= 0);
        let head = LedgerHead {
            workload: "store-cycle",
            seed: 7,
            pinned_cpu: Some(1),
            scratch: "/dev/shm/x",
        };
        let text = ledger(&head, &all_values(), &timed, &timed, &spans).render();
        let doc = sb_obs::json::parse(&text).expect("ledger is sb_obs::json");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("snowboard.benchmark.v1")
        );
        let metrics = doc.get("metrics").and_then(Json::as_arr).expect("metrics");
        for d in &PER_LAYER {
            let m = metrics
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(d.name))
                .unwrap_or_else(|| panic!("{} missing", d.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
            let value = m.get("value").and_then(Json::as_str).expect("value");
            assert!(value.parse::<f64>().is_ok());
        }
        let raw = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(raw[0].get("rep").and_then(Json::as_u64), Some(1));
        assert_eq!(raw[0].get("parent").and_then(Json::as_u64), Some(0));
        // And the traced result line carries the same names.
        let line = result_line(true, 1, 0, &PER_LAYER, &all_values());
        for d in &PER_LAYER {
            assert!(value_in_result_line(&line, d.name).is_some(), "{}", d.name);
        }
    }

    #[test]
    fn committed_manifest_matches_the_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `sb-benchmark manifest`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
