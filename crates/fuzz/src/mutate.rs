//! Structural program mutation, Syzkaller-style.
//!
//! Mutations may temporarily break resource references; every operator runs
//! the [`crate::gen::fix_program`] repair pass before returning, so mutated
//! programs are always well-formed.

use sb_kernel::prog::{Program, Syscall};

use crate::gen::{fix_program, ProgGen};

/// The available mutation operators.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MutOp {
    /// Insert a freshly generated call at a random position.
    Insert,
    /// Remove a random call.
    Remove,
    /// Regenerate the scalar arguments of a random call.
    MutateArgs,
    /// Cross over with a second program (prefix of one + suffix of other).
    Splice,
}

/// Mutates `p` (optionally crossing over with `other`), returning a
/// well-formed program. Empty results fall back to a fresh program.
pub fn mutate(g: &mut ProgGen, p: &Program, other: Option<&Program>, max_len: usize) -> Program {
    let op = match g.rng().gen_range(0..4) {
        0 => MutOp::Insert,
        1 => MutOp::Remove,
        2 => MutOp::MutateArgs,
        _ => MutOp::Splice,
    };
    let mut out = apply(g, op, p, other, max_len);
    if out.is_empty() {
        out = g.gen_program(max_len);
    }
    out
}

/// Applies one specific operator (exposed for tests and ablation).
pub fn apply(
    g: &mut ProgGen,
    op: MutOp,
    p: &Program,
    other: Option<&Program>,
    max_len: usize,
) -> Program {
    let mut calls = p.calls.clone();
    match op {
        MutOp::Insert => {
            if calls.len() < max_len {
                let fresh = g.gen_program(1);
                let pos = g.rng().gen_range(0..=calls.len());
                for (k, c) in fresh.calls.into_iter().enumerate() {
                    calls.insert(pos + k, c);
                }
            }
        }
        MutOp::Remove => {
            if !calls.is_empty() {
                let pos = g.rng().gen_range(0..calls.len());
                calls.remove(pos);
            }
        }
        MutOp::MutateArgs => {
            if !calls.is_empty() {
                let pos = g.rng().gen_range(0..calls.len());
                calls[pos] = remix_args(g, &calls[pos]);
            }
        }
        MutOp::Splice => {
            if let Some(o) = other {
                let cut_a = g.rng().gen_range(0..=calls.len());
                let cut_b = g.rng().gen_range(0..=o.calls.len());
                calls.truncate(cut_a);
                calls.extend(o.calls[cut_b..].iter().cloned());
                calls.truncate(max_len);
            }
        }
    }
    fix_program(&Program::new(calls), g.rng())
}

/// Regenerates the scalar (non-resource) arguments of a call, keeping its
/// resource references.
fn remix_args(g: &mut ProgGen, c: &Syscall) -> Syscall {
    use sb_kernel::prog::{DOMAINS, IOCTL_CMDS, SOCK_OPTS};
    let mut c = c.clone();
    let rng = g.rng();
    match &mut c {
        Syscall::Socket { domain } => *domain = *rng.choose(&DOMAINS).expect("non-empty"),
        Syscall::Connect { tunnel_id, .. } => *tunnel_id = rng.gen_range(0..4),
        Syscall::Sendmsg { len, .. } => *len = rng.gen_range(0..16),
        Syscall::Setsockopt { opt, val, .. } => {
            *opt = *rng.choose(&SOCK_OPTS).expect("non-empty");
            *val = rng.gen_range(0..8);
        }
        Syscall::Ioctl { cmd, arg, .. } => {
            *cmd = *rng.choose(&IOCTL_CMDS).expect("non-empty");
            *arg = rng.gen_range(0..16);
        }
        Syscall::Read { off, .. } => *off = rng.gen_range(0..16),
        Syscall::Write { off, val, .. } => {
            *off = rng.gen_range(0..16);
            *val = rng.gen_range(0..=255);
        }
        Syscall::Msgget { key } => *key = rng.gen_range(0..8),
        Syscall::Msgsnd { mtype, val, .. } => {
            *mtype = rng.gen_range(0..4);
            *val = rng.gen_range(0..=255);
        }
        Syscall::Msgrcv { mtype, .. } => *mtype = rng.gen_range(0..4),
        Syscall::Mkdir { item } | Syscall::Rmdir { item } => *item = rng.gen_range(0..4),
        _ => {}
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutations_preserve_well_formedness() {
        let mut g = ProgGen::new(11);
        let mut p = g.gen_program(5);
        let other = g.gen_program(5);
        for i in 0..500 {
            p = mutate(&mut g, &p, Some(&other), 8);
            assert!(p.is_well_formed(), "iteration {i}: {p}");
            assert!(!p.is_empty());
            assert!(p.len() <= 10);
        }
    }

    #[test]
    fn every_operator_preserves_well_formedness() {
        let mut g = ProgGen::new(13);
        let base = g.gen_program(6);
        let other = g.gen_program(6);
        for op in [
            MutOp::Insert,
            MutOp::Remove,
            MutOp::MutateArgs,
            MutOp::Splice,
        ] {
            for _ in 0..200 {
                let q = apply(&mut g, op, &base, Some(&other), 8);
                assert!(q.is_well_formed(), "{op:?} broke {q}");
            }
        }
    }

    #[test]
    fn insert_grows_and_remove_shrinks_on_average() {
        let mut g = ProgGen::new(17);
        let base = g.gen_program(4);
        let mut grew = 0;
        let mut shrank = 0;
        for _ in 0..100 {
            if apply(&mut g, MutOp::Insert, &base, None, 16).len() > base.len() {
                grew += 1;
            }
            if apply(&mut g, MutOp::Remove, &base, None, 16).len() < base.len() {
                shrank += 1;
            }
        }
        assert!(grew > 50);
        assert!(shrank > 50);
    }
}
