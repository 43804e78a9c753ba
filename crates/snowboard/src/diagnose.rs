//! Post-mortem diagnosis of findings (§4.4.1).
//!
//! The paper builds "post-mortem analysis tools that verify that a data
//! race is caused by an identified PMC and its kernel source code
//! information", and §6 argues PMCs double as debugging aids: "concurrent
//! tests generated by Snowboard allow developers to refer to the PMC
//! channel to understand a possible cause". This module implements both: it
//! links each finding from a trial back to the PMC(s) whose accesses
//! explain it and renders a human-readable diagnosis with the simulated
//! kernel's "source" locations (site names).

use sb_detect::{Finding, OracleCtx, OracleSet, RaceReport};
use sb_vmm::access::Access;
use sb_vmm::exec::ExecReport;

use crate::pmc::{Pmc, PmcId, PmcSet};

/// The verdict linking one finding to the PMC universe.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    /// The finding being explained.
    pub finding: Finding,
    /// PMCs whose write and read sides both appear in the trial's trace
    /// adjacent to the finding — candidate causes.
    pub caused_by: Vec<PmcId>,
    /// Ground-truth Table 2 id, when matched.
    pub bug_id: Option<u8>,
    /// Rendered human-readable explanation.
    pub rendered: String,
}

/// True if the PMC's write and read both occurred in `trace` with the
/// write observed by the read (value flow over the overlap).
fn pmc_manifested(trace: &[Access], pmc: &Pmc) -> bool {
    crate::campaign::channel_exercised(trace, pmc)
}

/// True when the race's sites correspond to the PMC's instruction pair.
fn race_matches_pmc(race: &RaceReport, pmc: &Pmc) -> bool {
    let (a, b) = (race.write_site, race.other_site);
    (a == pmc.key.w.ins && b == pmc.key.r.ins) || (a == pmc.key.r.ins && b == pmc.key.w.ins)
}

/// Diagnoses every finding the default oracles make on one execution
/// against the PMC universe.
pub fn diagnose(report: &ExecReport, set: &PmcSet) -> Vec<Diagnosis> {
    let findings = OracleCtx::new(OracleSet::default()).analyze(report);
    let races = sb_detect::detect_races(&report.trace);
    findings
        .into_iter()
        .map(|finding| {
            let caused_by: Vec<PmcId> = match &finding {
                Finding::DataRace {
                    write_site,
                    other_site,
                    ..
                } => {
                    // Exact site-pair correspondence first; the race was
                    // predicted iff some identified PMC names both sites.
                    races
                        .iter()
                        .filter(|r| {
                            r.write_site.display_name() == *write_site
                                && r.other_site.display_name() == *other_site
                        })
                        .flat_map(|r| {
                            set.pmcs
                                .iter()
                                .enumerate()
                                .filter(|(_, p)| race_matches_pmc(r, p))
                                .map(|(id, _)| id as PmcId)
                        })
                        .collect()
                }
                Finding::KernelPanic { .. } | Finding::ConsoleError { .. } => {
                    // For crashes, candidate causes are PMCs that actually
                    // manifested (write observed by read) in this trial.
                    set.pmcs
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| pmc_manifested(&report.trace, p))
                        .map(|(id, _)| id as PmcId)
                        .collect()
                }
                _ => Vec::new(),
            };
            let bug_id = crate::triage::triage(&finding);
            let rendered = render(&finding, &caused_by, set, bug_id);
            Diagnosis {
                finding,
                caused_by,
                bug_id,
                rendered,
            }
        })
        .collect()
}

fn render(finding: &Finding, caused_by: &[PmcId], set: &PmcSet, bug_id: Option<u8>) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    match finding {
        Finding::KernelPanic { msg } => {
            let _ = writeln!(s, "KERNEL PANIC: {msg}");
        }
        Finding::ConsoleError { line } => {
            let _ = writeln!(s, "CONSOLE ERROR: {line}");
        }
        Finding::DataRace {
            write_site,
            other_site,
            addr,
        } => {
            let _ = writeln!(s, "DATA RACE on {addr:#x}: {write_site} <-> {other_site}");
        }
        Finding::Deadlock => {
            let _ = writeln!(s, "DEADLOCK");
        }
        Finding::Livelock => {
            let _ = writeln!(s, "LIVELOCK");
        }
        Finding::LockRuleViolation { site, lock, addr } => {
            let _ = writeln!(
                s,
                "LOCK RULE VIOLATION on {addr:#x}: {site} accessed it without {lock}"
            );
        }
        Finding::LockOrderInversion { first, second } => {
            let _ = writeln!(
                s,
                "LOCK ORDER INVERSION: {first} <-> {second} (latent ABBA)"
            );
        }
        Finding::MissedWakeup {
            queue,
            wake_site,
            sleep_site,
        } => {
            let _ = writeln!(
                s,
                "MISSED WAKEUP on queue {queue:#x}: {wake_site} fired before {sleep_site} slept"
            );
        }
        Finding::SleepInAtomic { site, enter_site } => {
            let _ = writeln!(s, "SLEEP IN ATOMIC: {site} slept inside {enter_site}");
        }
    }
    if let Some(id) = bug_id {
        if let Some(b) = sb_kernel::bugs::by_id(id) {
            let _ = writeln!(
                s,
                "  matches Table 2 #{id} ({}; {}; {})",
                b.kind,
                b.subsystem,
                if b.harmful { "harmful" } else { "benign" }
            );
        }
    }
    match caused_by.len() {
        0 => {
            let _ = writeln!(s, "  no identified PMC explains this finding (incidental)");
        }
        n => {
            let _ = writeln!(s, "  explained by {n} identified PMC(s):");
            for id in caused_by.iter().take(4) {
                let p = set.get(*id);
                let _ = writeln!(
                    s,
                    "    write {}@{:#x}+{} = {:#x}  ->  read {}@{:#x}+{} (saw {:#x} sequentially)",
                    p.key.w.ins.display_name(),
                    p.key.w.addr,
                    p.key.w.len,
                    p.key.w.value,
                    p.key.r.ins.display_name(),
                    p.key.r.addr,
                    p.key.r.len,
                    p.key.r.value,
                );
            }
            if n > 4 {
                let _ = writeln!(s, "    ... and {} more", n - 4);
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_kernel::prog::{Domain, Res};
    use sb_kernel::{boot, KernelConfig, Program, Syscall};
    use sb_vmm::sched::SnowboardSched;
    use sb_vmm::Executor;

    #[test]
    fn l2tp_panic_is_explained_by_the_publication_pmc() {
        let booted = boot(KernelConfig::v5_12_rc3());
        let writer = Program::new(vec![
            Syscall::Socket {
                domain: Domain::L2tp,
            },
            Syscall::Connect {
                sock: Res(0),
                tunnel_id: 2,
            },
        ]);
        let reader = Program::new(vec![
            Syscall::Socket {
                domain: Domain::L2tp,
            },
            Syscall::Connect {
                sock: Res(0),
                tunnel_id: 2,
            },
            Syscall::Sendmsg {
                sock: Res(0),
                len: 1,
            },
        ]);
        let profiles =
            crate::profile::profile_corpus(&booted, &[writer.clone(), reader.clone()], 2);
        let set = crate::pmc::identify(&profiles);
        let (_, pmc) =
            crate::metrics::find_pmc_by_sites(&set, "list_add_rcu", "l2tp_tunnel_get").unwrap();
        let mut exec = Executor::new(2);
        let mut sched = SnowboardSched::new(3, pmc.hints());
        for trial in 0..512 {
            sched.begin_trial(trial);
            let r = exec.run(
                booted.snapshot.clone(),
                vec![
                    booted.kernel.process_job(writer.clone()),
                    booted.kernel.process_job(reader.clone()),
                ],
                &mut sched,
            );
            if r.report.outcome.is_panic() {
                let diags = diagnose(&r.report, &set);
                let panic_diag = diags
                    .iter()
                    .find(|d| matches!(d.finding, Finding::KernelPanic { .. }))
                    .expect("panic diagnosis");
                assert_eq!(panic_diag.bug_id, Some(12));
                assert!(
                    !panic_diag.caused_by.is_empty(),
                    "the publication PMC must have manifested"
                );
                assert!(panic_diag.rendered.contains("Table 2 #12"));
                return;
            }
        }
        panic!("no panicking trial found");
    }

    #[test]
    fn unpredicted_races_render_as_incidental() {
        let d = render(
            &Finding::DataRace {
                write_site: "x:w".into(),
                other_site: "y:r".into(),
                addr: 0x40,
            },
            &[],
            &PmcSet::default(),
            None,
        );
        assert!(d.contains("incidental"));
    }
}
