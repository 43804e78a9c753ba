//! Property tests for the job-lifecycle state machine: random sequences of
//! lease / hold / deliver / owner-died / release / expire events over one
//! to three owners never break the ledger's invariants —
//!
//! * every job of the universe is in exactly one of pending, held,
//!   covered, reported-only;
//! * a job's first real verdict is the one the campaign reports, whatever
//!   arrives later and whoever delivers it;
//! * `finish()` equals `aggregate` over those first verdicts, in job order,
//!   plus the reported-only verdicts nothing superseded.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use snowboard::campaign::{aggregate, JobVerdict, PmcTestOutcome, QuarantineRecord};
use snowboard::error::FailureKind;
use snowboard::ledger::{Charge, Delivered, JobLedger};
use snowboard::CampaignCfg;

const JOBS: usize = 8;
const CRASH_BUDGET: u32 = 2;

fn outcome(job: usize, steps: u64) -> PmcTestOutcome {
    PmcTestOutcome {
        pmc: Some(job as u32),
        pair: (1, 2),
        trials_run: 4,
        exercised: steps.is_multiple_of(2),
        findings: vec![],
        steps,
        first_finding_trial: None,
        repro_schedule: None,
        attempts: 1,
    }
}

fn quarantine(job: usize, kind: FailureKind, tag: u64) -> QuarantineRecord {
    QuarantineRecord {
        job,
        pmc: Some(job as u32),
        attempts: 1,
        kind,
        chain: vec![format!("scripted {tag}")],
    }
}

/// What the campaign must report for each job, tracked independently of
/// the ledger.
#[derive(Default)]
struct Model {
    /// First real verdict per job.
    real: BTreeMap<usize, JobVerdict>,
    /// First reported-only verdict of a job with no real one yet.
    reported: BTreeMap<usize, QuarantineRecord>,
}

impl Model {
    /// Mirrors one delivery; returns whether the ledger should merge it.
    fn deliver(&mut self, job: usize, verdict: &JobVerdict) -> bool {
        let reported_only = matches!(
            verdict,
            JobVerdict::Quarantined(q)
                if matches!(q.kind, FailureKind::Rejected | FailureKind::GaveUp)
        );
        if self.real.contains_key(&job) || (reported_only && self.reported.contains_key(&job)) {
            return false;
        }
        match verdict {
            JobVerdict::Quarantined(q) if reported_only => {
                self.reported.insert(job, q.clone());
            }
            real => {
                self.reported.remove(&job);
                self.real.insert(job, real.clone());
            }
        }
        true
    }
}

fn assert_partition(ledger: &JobLedger) {
    let census = ledger.census();
    let mut all: Vec<usize> = [census.pending, census.held, census.covered, census.reported]
        .into_iter()
        .flatten()
        .collect();
    all.sort_unstable();
    assert_eq!(
        all,
        (0..JOBS).collect::<Vec<_>>(),
        "every job in exactly one state"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_event_sequences_keep_the_ledger_invariants(
        ops in proptest::collection::vec((0u8..6, 1u64..4, 0usize..10, 0u64..1000), 0..160),
    ) {
        let exemplars: Vec<u32> = (0..JOBS as u32).collect();
        let mut ledger =
            JobLedger::open(&exemplars, &CampaignCfg::default(), None).expect("fresh ledger");
        let mut model = Model::default();
        let mut duplicates = 0u64;
        let t0 = Instant::now();
        let at = |x: u64| t0 + Duration::from_secs(x);

        for (kind, owner, job, x) in ops {
            match kind {
                0 => {
                    let until = (x % 4 != 0).then(|| at(x));
                    let taken = ledger.lease(owner, 1 + (x % 3) as usize, until);
                    assert!(taken.iter().all(|j| ledger.held_by(owner).contains(j)));
                }
                1 => {
                    let taken = ledger.hold(owner, &[job], None);
                    assert!(taken.len() <= 1);
                }
                2 => {
                    let verdict = match x % 5 {
                        0 => JobVerdict::Quarantined(quarantine(job, FailureKind::Panic, x)),
                        1 => JobVerdict::Quarantined(quarantine(job, FailureKind::Rejected, x)),
                        _ => JobVerdict::Completed(outcome(job, x)),
                    };
                    let delivered = ledger.deliver(job, verdict.clone());
                    if job >= JOBS {
                        assert!(delivered.is_err(), "job {job} is outside the universe");
                    } else if model.deliver(job, &verdict) {
                        assert_eq!(delivered, Ok(Delivered::Merged));
                    } else {
                        duplicates += 1;
                        assert_eq!(delivered, Ok(Delivered::Duplicate));
                    }
                }
                3 => {
                    let held = ledger.held_by(owner);
                    let charges =
                        ledger.owner_died(owner, CRASH_BUDGET, |job| format!("died on {job}"));
                    assert_eq!(charges.len(), held.len(), "every held job is accounted for");
                    for charge in charges {
                        if let Charge::Quarantined(record) = charge {
                            assert_eq!(record.kind, FailureKind::Crash);
                            assert_eq!(record.attempts, CRASH_BUDGET);
                            let job = record.job;
                            assert!(model.deliver(job, &JobVerdict::Quarantined(record)));
                        }
                    }
                    assert!(!ledger.holds(owner));
                }
                4 => {
                    let held = ledger.held_by(owner);
                    assert_eq!(ledger.release(owner), held);
                }
                _ => {
                    for (_, jobs) in ledger.expire(at(x)) {
                        assert!(!jobs.is_empty(), "an owner with nothing held is forgotten");
                    }
                }
            }
            assert_partition(&ledger);
        }

        assert_eq!(ledger.duplicates(), duplicates);
        let report = ledger.finish().expect("nothing to save, nothing to fail");
        let mut outcomes = Vec::new();
        let mut quarantined: BTreeMap<usize, QuarantineRecord> = model.reported;
        for (job, verdict) in model.real {
            match verdict {
                JobVerdict::Completed(out) => outcomes.push(out),
                JobVerdict::Quarantined(q) => {
                    quarantined.insert(job, q);
                }
            }
        }
        let expected = aggregate(outcomes);
        assert_eq!(report.outcomes, expected.outcomes);
        assert_eq!(report.issues, expected.issues);
        assert_eq!(report.executions, expected.executions);
        assert_eq!(report.total_steps, expected.total_steps);
        assert_eq!(report.quarantined, quarantined.into_values().collect::<Vec<_>>());
    }
}
