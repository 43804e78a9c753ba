//! The checkpoint loader under damage, mirroring
//! `crates/store/tests/segment_props.rs`: every single-byte flip and every
//! truncation of two checkpoint logs — one written by the in-process
//! transport, one by a coordinator killed with leases out for two sessions
//! — and 10 000 random byte strings. Header damage is a typed error; tail
//! damage replays exactly an intact prefix (verdicts, lease table, ack
//! watermarks) with the cut counted once; nothing panics, and no load
//! changes a byte of the file.

use std::collections::BTreeMap;
use std::path::PathBuf;

use proptest::ScratchDir;
use sb_vmm::rng::SplitMix64;
use snowboard::campaign::{JobVerdict, PmcTestOutcome, QuarantineRecord};
use snowboard::checkpoint::{read, Checkpoint, Loaded};
use snowboard::error::FailureKind;
use snowboard::journal::{JournalRecord, Replay, ReplayLease};
use snowboard::ledger::JobLedger;
use snowboard::{CampaignCfg, Error};

const SEED: u64 = 41;
const JOBS: u32 = 8;

fn outcome(job: usize, steps: u64) -> PmcTestOutcome {
    PmcTestOutcome {
        pmc: Some(job as u32),
        pair: (1, 2),
        trials_run: 8,
        exercised: true,
        findings: vec![],
        steps,
        first_finding_trial: None,
        repro_schedule: None,
        attempts: 1,
    }
}

fn quarantine(job: usize, kind: FailureKind) -> QuarantineRecord {
    QuarantineRecord {
        job,
        pmc: Some(3),
        attempts: 2,
        kind,
        chain: vec!["worker died".into()],
    }
}

/// A fresh checkpoint path, in a scratch directory that goes with the guard.
fn scratch() -> (ScratchDir, PathBuf) {
    let dir = ScratchDir::new("jprops");
    let path = dir.join("ckpt.json");
    (dir, path)
}

fn exemplars() -> Vec<u32> {
    (0..JOBS).map(|i| i + 100).collect()
}

/// Runs `script` against a ledger logging to a fresh checkpoint, drops it
/// unfinished (a kill), and returns the log's bytes.
fn killed_log(script: impl FnOnce(&mut JobLedger)) -> Vec<u8> {
    let (_dir, path) = scratch();
    let cfg = CampaignCfg {
        seed: SEED,
        checkpoint: Some(path.clone()),
        ..CampaignCfg::default()
    };
    let mut ledger = JobLedger::open(&exemplars(), &cfg, None).expect("fresh ledger");
    script(&mut ledger);
    drop(ledger);
    std::fs::read(&path).expect("read log")
}

/// The in-process transport: verdicts without sessions, a duplicate, a
/// crash quarantine, and a reported-only verdict that is never logged.
fn in_process() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        killed_log(|l| {
            l.lease(0, usize::MAX, None);
            l.deliver(0, JobVerdict::Completed(outcome(0, 100)))
                .unwrap();
            l.deliver(
                1,
                JobVerdict::Quarantined(quarantine(1, FailureKind::Panic)),
            )
            .unwrap();
            l.deliver(0, JobVerdict::Completed(outcome(0, 999)))
                .unwrap();
            l.deliver(
                2,
                JobVerdict::Quarantined(quarantine(2, FailureKind::GaveUp)),
            )
            .unwrap();
            l.deliver(3, JobVerdict::Completed(outcome(3, 103)))
                .unwrap();
        })
    })
}

/// A coordinator killed mid-campaign: interleaved grants for two sessions,
/// results out of grant order, a release, a crash quarantine, and leases
/// still out.
fn coordinator() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        killed_log(|l| {
            let grant = |l: &mut JobLedger, lease: u64, session: u64, take: usize| {
                let jobs = l.lease(lease, take, None);
                l.journal(&JournalRecord::Lease {
                    lease,
                    session,
                    jobs,
                });
            };
            grant(l, 1, 7, 2);
            l.deliver_from(7, 1, 0, JobVerdict::Completed(outcome(0, 100)))
                .unwrap();
            grant(l, 2, 9, 2);
            l.deliver_from(
                9,
                1,
                2,
                JobVerdict::Quarantined(quarantine(2, FailureKind::Hang)),
            )
            .unwrap();
            l.deliver_from(7, 2, 1, JobVerdict::Completed(outcome(1, 101)))
                .unwrap();
            l.journal(&JournalRecord::Release { lease: 2 });
            l.owner_died(2, 1, |job| format!("lease 2 died on {job}"));
            grant(l, 3, 7, 2);
            l.deliver_from(9, 2, 0, JobVerdict::Completed(outcome(0, 999)))
                .unwrap();
            grant(l, 4, 9, 2);
        })
    })
}

/// Offsets just past each frame (the header's first), read with a parser
/// of this file's own.
fn boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = 8;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        ends.push(pos);
    }
    assert_eq!(pos, bytes.len(), "a pristine log ends on a frame boundary");
    ends
}

/// What replaying the first `k` records after the header must give, folded
/// by the rules the loader documents.
fn expected(bytes: &[u8], k: usize) -> (Checkpoint, Replay) {
    let ends = boundaries(bytes);
    let mut cp = Checkpoint::begin(SEED, &exemplars());
    let mut replay = Replay::default();
    for i in 1..=k {
        let line = std::str::from_utf8(&bytes[ends[i - 1] + 8..ends[i]]).unwrap();
        let (session, seq) = match JournalRecord::parse(line).unwrap() {
            JournalRecord::Lease {
                lease,
                session,
                jobs,
            } => {
                replay.leases.push(ReplayLease {
                    lease,
                    session,
                    jobs,
                });
                continue;
            }
            JournalRecord::Release { lease } => {
                replay.leases.retain(|l| l.lease != lease);
                continue;
            }
            JournalRecord::Done {
                session,
                seq,
                job,
                outcome,
            } => {
                cp.merge_outcome(job, outcome);
                (session, seq)
            }
            JournalRecord::Quarantine {
                session,
                seq,
                record,
            } => {
                cp.merge_quarantine(record);
                (session, seq)
            }
        };
        replay.verdicts += 1;
        if session != 0 {
            let acked = replay.acked.entry(session).or_insert(0);
            *acked = (*acked).max(seq);
        }
    }
    (cp, replay)
}

/// Loads `bytes` from a scratch file; checks the file is unchanged after.
fn load(bytes: &[u8]) -> Result<Loaded, Error> {
    let (_dir, path) = scratch();
    std::fs::write(&path, bytes).expect("write log");
    let loaded = std::panic::catch_unwind(|| read(&path)).expect("the loader never panics");
    assert_eq!(
        std::fs::read(&path).expect("reread"),
        bytes,
        "a load changed the file"
    );
    loaded
}

/// The damage at `cut` (an offset in the pristine log, or its new length)
/// must give exactly the prefix of records that end at or before it.
fn check(pristine: &[u8], damaged: &[u8], cut: usize) {
    let ends = boundaries(pristine);
    let loaded = load(damaged);
    if cut < ends[0] {
        assert!(
            matches!(loaded, Err(Error::CheckpointFormat { .. })),
            "header damage at {cut}: {loaded:?}"
        );
        return;
    }
    let loaded = loaded.unwrap_or_else(|e| panic!("tail damage at {cut} refused: {e}"));
    let k = ends[1..].iter().take_while(|end| **end <= cut).count();
    let (cp, mut replay) = expected(pristine, k);
    replay.damaged = u64::from(damaged.len() > ends[k]);
    assert_eq!(
        loaded.checkpoint, cp,
        "verdicts of the {k}-record prefix (cut {cut})"
    );
    assert_eq!(
        loaded.replay, replay,
        "replay of the {k}-record prefix (cut {cut})"
    );
    assert_eq!(loaded.intact, &pristine[..ends[k]]);
}

fn logs() -> [&'static [u8]; 2] {
    [in_process(), coordinator()]
}

#[test]
fn the_pristine_logs_replay_whole() {
    for bytes in logs() {
        let records = boundaries(bytes).len() - 1;
        let loaded = load(bytes).expect("pristine log loads");
        let (cp, replay) = expected(bytes, records);
        assert_eq!((loaded.checkpoint, loaded.replay), (cp, replay));
    }
    let coord = load(coordinator()).unwrap();
    assert_eq!(coord.replay.acked, BTreeMap::from([(7, 2), (9, 2)]));
    let open: Vec<u64> = coord.replay.leases.iter().map(|l| l.lease).collect();
    assert_eq!(open, vec![1, 3, 4]);
    assert_eq!(
        coord.checkpoint.outcomes[&0].steps, 100,
        "first verdict wins"
    );
    assert_eq!(
        load(in_process()).unwrap().replay.verdicts,
        4,
        "the gave-up job is not logged"
    );
}

#[test]
fn single_byte_flips_never_replay_wrong_state() {
    for bytes in logs() {
        for (off, mask) in (0..bytes.len()).zip([0x01u8, 0x80, 0xFF, 0x5A].into_iter().cycle()) {
            let mut mutated = bytes.to_vec();
            mutated[off] ^= mask;
            check(bytes, &mutated, off);
        }
    }
}

#[test]
fn truncations_never_replay_wrong_state() {
    for bytes in logs() {
        for keep in 0..bytes.len() {
            check(bytes, &bytes[..keep], keep);
        }
    }
}

#[test]
fn random_bytes_never_panic_and_never_write() {
    let header_end = boundaries(coordinator())[0];
    let mut rng = SplitMix64::new(0x5EED_0030);
    for case in 0..10_000 {
        let mut bytes = match case % 3 {
            0 => Vec::new(),
            1 => b"SBWAL001".to_vec(),
            _ => coordinator()[..header_end].to_vec(),
        };
        let tail = rng.gen_range(0..200usize);
        bytes.extend((0..tail).map(|_| rng.next_u64() as u8));
        match load(&bytes) {
            Ok(loaded) => {
                assert!(bytes.starts_with(&loaded.intact));
                assert!(loaded.replay.damaged <= 1);
                assert_eq!(
                    loaded.replay.damaged,
                    u64::from(loaded.intact.len() < bytes.len())
                );
            }
            Err(e) => assert!(matches!(e, Error::CheckpointFormat { .. }), "{e}"),
        }
    }
}
