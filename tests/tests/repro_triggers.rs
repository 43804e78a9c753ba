//! `snowboard-cli repro` end to end, for every planted bug with a known
//! trigger: the sequential profiles of the trigger pair predict the PMC, and
//! the Snowboard scheduler hinted with it exposes the bug — what `repro
//! --bug N` replays, with its seed and its cap.

use sb_kernel::{boot, bugs};
use sb_vmm::Executor;
use snowboard::metrics::{find_pmc_by_sites, hits_bug, interleavings_to_expose, SchedKind};
use snowboard::pmc::identify;
use snowboard::profile::profile_corpus;

#[test]
fn every_trigger_predicts_its_pmc_and_exposes_its_bug() {
    let ids: Vec<u8> = bugs::registry()
        .iter()
        .map(|b| b.id)
        .filter(|&id| bugs::trigger(id).is_some())
        .collect();
    assert_eq!(ids, [1, 2, 3, 4, 11, 12]);
    for id in ids {
        let t = bugs::trigger(id).unwrap();
        let booted = boot(t.config);
        let profiles = profile_corpus(&booted, &[t.writer.clone(), t.reader.clone()], 2);
        let set = identify(&profiles);
        let (_, pmc) = find_pmc_by_sites(&set, t.write_fn, t.read_fn).unwrap_or_else(|| {
            panic!("#{id}: PMC ({} -> {}) not predicted", t.write_fn, t.read_fn)
        });
        let exposed = interleavings_to_expose(
            &mut Executor::new(2),
            &booted,
            &t.writer,
            &t.reader,
            pmc,
            SchedKind::Snowboard,
            1,
            4096,
            hits_bug(id),
        );
        assert!(
            exposed.is_some(),
            "#{id}: not exposed within 4096 interleavings"
        );
    }
}
