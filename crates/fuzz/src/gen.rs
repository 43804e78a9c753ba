//! Typed random program generation.
//!
//! Mirrors Syzkaller's resource typing: arguments that name kernel resources
//! are [`Res`] references to earlier calls that produce a compatible
//! resource. The generator keeps programs well-formed by construction; the
//! repair pass ([`fix_program`]) restores well-formedness after structural
//! mutations.

use sb_kernel::prog::{
    MsgCmd, Path, Program, Res, Syscall, DOMAINS, IOCTL_CMDS, SOCK_OPTS,
};
use sb_vmm::rng::SplitMix64;

/// The resource classes a call can produce.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ResKind {
    /// A file descriptor (sockets, files, devices).
    Fd,
    /// A System V message-queue id.
    MsqId,
}

/// The resource class call `c` produces, if any.
pub fn produces(c: &Syscall) -> Option<ResKind> {
    match c {
        Syscall::Socket { .. } | Syscall::Open { .. } => Some(ResKind::Fd),
        Syscall::Msgget { .. } => Some(ResKind::MsqId),
        _ => None,
    }
}

/// The resource class each [`Res`] argument of `c` requires.
pub fn requires(c: &Syscall) -> Option<ResKind> {
    match c {
        Syscall::Connect { .. }
        | Syscall::Sendmsg { .. }
        | Syscall::Setsockopt { .. }
        | Syscall::Getsockname { .. }
        | Syscall::Ioctl { .. }
        | Syscall::Close { .. }
        | Syscall::Read { .. }
        | Syscall::Write { .. }
        | Syscall::Fadvise { .. } => Some(ResKind::Fd),
        Syscall::Msgctl { .. } | Syscall::Msgsnd { .. } | Syscall::Msgrcv { .. } => {
            Some(ResKind::MsqId)
        }
        _ => None,
    }
}

/// Replaces every [`Res`] argument of `c` with `r`.
pub fn with_res(c: &Syscall, r: Res) -> Syscall {
    let mut c = c.clone();
    match &mut c {
        Syscall::Connect { sock, .. }
        | Syscall::Sendmsg { sock, .. }
        | Syscall::Setsockopt { sock, .. }
        | Syscall::Getsockname { sock } => *sock = r,
        Syscall::Ioctl { fd, .. }
        | Syscall::Close { fd }
        | Syscall::Read { fd, .. }
        | Syscall::Write { fd, .. }
        | Syscall::Fadvise { fd } => *fd = r,
        Syscall::Msgctl { id, .. }
        | Syscall::Msgsnd { id, .. }
        | Syscall::Msgrcv { id, .. } => *id = r,
        _ => {}
    }
    c
}

/// Which syscall surface the generator draws from.
///
/// [`Catalog::Stock`] is the original 18-call surface and keeps the RNG
/// stream byte-identical to pre-oracle builds, so distilled corpora (and
/// everything downstream of them) reproduce exactly. [`Catalog::Extended`]
/// adds the twelve sync-oracle calls (futex, epoll, nbd, vsock, kernfs,
/// workqueue).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Catalog {
    /// The original syscall surface (default).
    #[default]
    Stock,
    /// Stock plus the sync-oracle subsystem calls.
    Extended,
}

/// Random program generator with typed resources.
pub struct ProgGen {
    rng: SplitMix64,
    catalog: Catalog,
}

impl ProgGen {
    /// Creates a generator from a seed, drawing from the stock catalog.
    pub fn new(seed: u64) -> Self {
        Self::with_catalog(seed, Catalog::Stock)
    }

    /// Creates a generator from a seed with an explicit catalog.
    pub fn with_catalog(seed: u64, catalog: Catalog) -> Self {
        ProgGen {
            rng: SplitMix64::new(seed),
            catalog,
        }
    }

    /// The catalog this generator draws from.
    pub fn catalog(&self) -> Catalog {
        self.catalog
    }

    fn gen_path(&mut self) -> Path {
        match self.rng.gen_range(0..5) {
            0 => Path::Ext4File(self.rng.gen_range(0..4)),
            1 => Path::BlockDev,
            2 => Path::Tty,
            3 => Path::SndCtl,
            _ => Path::Configfs(self.rng.gen_range(0..4)),
        }
    }

    /// Generates a resource-producing call.
    pub fn gen_producer(&mut self, kind: ResKind) -> Syscall {
        match kind {
            ResKind::Fd => {
                if self.rng.gen_bool(0.5) {
                    Syscall::Socket {
                        domain: *self.rng.choose(&DOMAINS).expect("non-empty"),
                    }
                } else {
                    Syscall::Open { path: self.gen_path() }
                }
            }
            ResKind::MsqId => Syscall::Msgget {
                key: self.rng.gen_range(0..8),
            },
        }
    }

    /// Generates one call template (with a placeholder `Res(0)` for resource
    /// args, to be fixed up by the caller).
    fn gen_template(&mut self) -> Syscall {
        let r = Res(0);
        // The stock arm must keep drawing from 0..18 so existing seeds
        // reproduce the exact same programs; the extended calls only exist
        // past index 17.
        let k = match self.catalog {
            Catalog::Stock => self.rng.gen_range(0..18),
            Catalog::Extended => self.rng.gen_range(0..30),
        };
        match k {
            0 => Syscall::Socket {
                domain: *self.rng.choose(&DOMAINS).expect("non-empty"),
            },
            1 => Syscall::Connect {
                sock: r,
                tunnel_id: self.rng.gen_range(0..4),
            },
            2 => Syscall::Sendmsg {
                sock: r,
                len: self.rng.gen_range(0..16),
            },
            3 => Syscall::Setsockopt {
                sock: r,
                opt: *self.rng.choose(&SOCK_OPTS).expect("non-empty"),
                val: self.rng.gen_range(0..8),
            },
            4 => Syscall::Getsockname { sock: r },
            5 => Syscall::Ioctl {
                fd: r,
                cmd: *self.rng.choose(&IOCTL_CMDS).expect("non-empty"),
                arg: self.rng.gen_range(0..16),
            },
            6 => Syscall::Open { path: self.gen_path() },
            7 => Syscall::Close { fd: r },
            8 => Syscall::Read {
                fd: r,
                off: self.rng.gen_range(0..16),
            },
            9 => Syscall::Write {
                fd: r,
                off: self.rng.gen_range(0..16),
                val: self.rng.gen_range(0..=255),
            },
            10 => Syscall::Fadvise { fd: r },
            11 => Syscall::Msgget {
                key: self.rng.gen_range(0..8),
            },
            12 => Syscall::Msgctl {
                id: r,
                cmd: if self.rng.gen_bool(0.5) {
                    MsgCmd::Rmid
                } else {
                    MsgCmd::Stat
                },
            },
            13 => Syscall::Mkdir {
                item: self.rng.gen_range(0..4),
            },
            14 => Syscall::Rmdir {
                item: self.rng.gen_range(0..4),
            },
            15 => Syscall::Msgsnd {
                id: r,
                mtype: self.rng.gen_range(0..4),
                val: self.rng.gen_range(0..=255),
            },
            16 => Syscall::Msgrcv {
                id: r,
                mtype: self.rng.gen_range(0..4),
            },
            17 => Syscall::Mount,
            18 => Syscall::FutexWait {
                slot: self.rng.gen_range(0..2),
            },
            19 => Syscall::FutexWake {
                slot: self.rng.gen_range(0..2),
            },
            20 => Syscall::EpollAdd {
                slot: self.rng.gen_range(0..2),
            },
            21 => Syscall::EpollWake {
                slot: self.rng.gen_range(0..2),
            },
            22 => Syscall::NbdSend {
                len: self.rng.gen_range(0..8),
            },
            23 => Syscall::NbdDisconnect,
            24 => Syscall::VsockConnect {
                cid: self.rng.gen_range(0..4),
            },
            25 => Syscall::VsockSend {
                len: self.rng.gen_range(0..8),
            },
            26 => Syscall::KernfsActivate {
                node: self.rng.gen_range(0..2),
            },
            27 => Syscall::KernfsNotify {
                node: self.rng.gen_range(0..2),
            },
            28 => Syscall::WqQueue {
                work: self.rng.gen_range(0..4),
            },
            _ => Syscall::WqFlush,
        }
    }

    /// Generates a well-formed program of up to `max_len` calls.
    pub fn gen_program(&mut self, max_len: usize) -> Program {
        let target = self.rng.gen_range(1..=max_len.max(1));
        let mut calls: Vec<Syscall> = Vec::with_capacity(target + 2);
        while calls.len() < target {
            let template = self.gen_template();
            match requires(&template) {
                None => calls.push(template),
                Some(kind) => {
                    let producers: Vec<usize> = calls
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| produces(c) == Some(kind))
                        .map(|(i, _)| i)
                        .collect();
                    if let Some(&i) = self.rng.choose(&producers) {
                        calls.push(with_res(&template, Res(i as u8)));
                    } else if calls.len() + 1 < target + 2 {
                        // Insert the missing producer first, then the call.
                        calls.push(self.gen_producer(kind));
                        let i = calls.len() - 1;
                        calls.push(with_res(&template, Res(i as u8)));
                    }
                }
            }
        }
        let p = Program::new(calls);
        debug_assert!(p.is_well_formed());
        p
    }

    /// Access to the generator's RNG (used by the mutator).
    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }
}

/// Repairs a program after structural edits: every [`Res`] argument must
/// point to an earlier call producing the right resource class; calls whose
/// requirements cannot be satisfied are dropped.
pub fn fix_program(p: &Program, rng: &mut SplitMix64) -> Program {
    let mut fixed: Vec<Syscall> = Vec::with_capacity(p.calls.len());
    for call in &p.calls {
        match requires(call) {
            None => fixed.push(call.clone()),
            Some(kind) => {
                let valid_as_is = call.res_args().iter().all(|r| {
                    fixed
                        .get(usize::from(r.0))
                        .map(|c| produces(c) == Some(kind))
                        .unwrap_or(false)
                });
                if valid_as_is {
                    fixed.push(call.clone());
                    continue;
                }
                let producers: Vec<usize> = fixed
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| produces(c) == Some(kind))
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&i) = rng.choose(&producers) {
                    fixed.push(with_res(call, Res(i as u8)));
                }
                // Otherwise the call is dropped.
            }
        }
    }
    Program::new(fixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_kernel::prog::Domain;

    #[test]
    fn generated_programs_are_well_formed() {
        let mut g = ProgGen::new(1);
        for _ in 0..500 {
            let p = g.gen_program(6);
            assert!(p.is_well_formed(), "{p}");
            assert!(!p.is_empty());
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let progs = |seed| {
            let mut g = ProgGen::new(seed);
            (0..50).map(|_| g.gen_program(5)).collect::<Vec<_>>()
        };
        assert_eq!(progs(7), progs(7));
        assert_ne!(progs(7), progs(8));
    }

    #[test]
    fn generator_covers_every_syscall_kind() {
        let mut g = ProgGen::new(99);
        let mut names = std::collections::HashSet::new();
        for _ in 0..2000 {
            for c in g.gen_program(6).calls {
                names.insert(c.name());
            }
        }
        for expect in [
            "socket", "connect", "sendmsg", "setsockopt", "getsockname", "ioctl", "open",
            "close", "read", "write", "fadvise", "msgget", "msgctl", "msgsnd", "msgrcv", "mkdir", "rmdir", "mount",
        ] {
            assert!(names.contains(expect), "never generated {expect}");
        }
    }

    #[test]
    fn stock_catalog_stream_is_unchanged_and_never_emits_oracle_calls() {
        let extended_only = [
            "futex_wait", "futex_wake", "epoll_add", "epoll_wake", "nbd_send",
            "nbd_disconnect", "vsock_connect", "vsock_send", "kernfs_activate",
            "kernfs_notify", "wq_queue", "wq_flush",
        ];
        let mut a = ProgGen::new(99);
        let mut b = ProgGen::with_catalog(99, Catalog::Stock);
        for _ in 0..500 {
            let (pa, pb) = (a.gen_program(6), b.gen_program(6));
            assert_eq!(pa, pb, "with_catalog(Stock) must not perturb the stream");
            for c in pa.calls {
                assert!(!extended_only.contains(&c.name()), "stock emitted {}", c.name());
            }
        }
    }

    #[test]
    fn extended_catalog_covers_the_oracle_calls() {
        let mut g = ProgGen::with_catalog(1234, Catalog::Extended);
        let mut names = std::collections::HashSet::new();
        for _ in 0..4000 {
            for c in g.gen_program(6).calls {
                names.insert(c.name());
            }
        }
        for expect in [
            "futex_wait", "futex_wake", "epoll_add", "epoll_wake", "nbd_send",
            "nbd_disconnect", "vsock_connect", "vsock_send", "kernfs_activate",
            "kernfs_notify", "wq_queue", "wq_flush", "socket", "mount",
        ] {
            assert!(names.contains(expect), "never generated {expect}");
        }
    }

    #[test]
    fn fix_program_repairs_dangling_refs() {
        let mut rng = SplitMix64::new(3);
        // sendmsg referencing call 5 which does not exist.
        let broken = Program::new(vec![
            Syscall::Socket { domain: Domain::Inet },
            Syscall::Sendmsg { sock: Res(5), len: 1 },
        ]);
        let fixed = fix_program(&broken, &mut rng);
        assert!(fixed.is_well_formed());
        assert_eq!(fixed.len(), 2, "the ref should be re-pointed, not dropped");
    }

    #[test]
    fn fix_program_drops_unsatisfiable_calls() {
        let mut rng = SplitMix64::new(3);
        let broken = Program::new(vec![Syscall::Msgctl { id: Res(0), cmd: MsgCmd::Rmid }]);
        let fixed = fix_program(&broken, &mut rng);
        assert!(fixed.is_empty());
    }

    #[test]
    fn fix_program_respects_resource_kinds() {
        let mut rng = SplitMix64::new(4);
        // msgctl pointing at a socket: must be re-pointed at the msgget.
        let broken = Program::new(vec![
            Syscall::Socket { domain: Domain::Inet },
            Syscall::Msgget { key: 1 },
            Syscall::Msgctl { id: Res(0), cmd: MsgCmd::Stat },
        ]);
        let fixed = fix_program(&broken, &mut rng);
        assert!(fixed.is_well_formed());
        if let Syscall::Msgctl { id, .. } = &fixed.calls[2] {
            assert_eq!(id.0, 1);
        } else {
            panic!("expected msgctl");
        }
    }
}
