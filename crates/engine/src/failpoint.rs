//! Deterministic, in-process fault injection for the durability layer.
//!
//! A **failpoint** is a named site in the engine's I/O and threading paths
//! (the catalog lives in [`points`]) where a test — or an operator via the
//! [`ENV_VAR`] environment variable — can arm a fault: an injected I/O
//! error, a short (torn) write, a worker panic, or a simulated kill
//! (`process::exit`). Faults fire on an exact hit count, so a plan like
//! `journal.append=error@7` is a pure function of the run's execution —
//! the same run trips the same syscall every time, which is what makes
//! the kill/recover differential suite reproducible.
//!
//! **Scope.** [`arm`] installs a parsed spec for the *current thread* until
//! its guard drops. A run carries the set onto the threads it crosses: the
//! discovery pool hands it to its workers with each round's job, and
//! `serve` captures the caller's set for its worker and connection
//! threads. Hit counters live in the shared set, so `round.worker=panic@7`
//! counts hits across all of a run's threads. Runs on other threads never
//! see the set, so tests that arm failpoints run concurrently with
//! everything else and need no lock.
//!
//! **Cost when disabled.** Every site calls [`fire`], whose fast path is
//! one thread-local load and a `None` check. No failpoint code allocates,
//! locks, or branches further on the hot path of an unarmed thread — the
//! durability ablation bench runs with the same binary.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Environment variable the CLI reads at startup to arm failpoints,
/// e.g. `CHASEKIT_FAILPOINTS="journal.append=short:10@3;snapshot.rename=exit:9"`.
pub const ENV_VAR: &str = "CHASEKIT_FAILPOINTS";

/// The failpoint catalog: every site the engine's durability layer can
/// trip. Arming an unknown name is an error, so specs can't silently rot.
pub mod points {
    /// A journal record append ([`crate::journal::JournalWriter::append`]).
    pub const JOURNAL_APPEND: &str = "journal.append";
    /// The journal flush/sync path.
    pub const JOURNAL_SYNC: &str = "journal.sync";
    /// Journal truncation after a successful snapshot (the crash window
    /// that leaves a stale journal base behind a newer snapshot).
    pub const JOURNAL_TRUNCATE: &str = "journal.truncate";
    /// Writing the snapshot's temporary file.
    pub const SNAPSHOT_WRITE: &str = "snapshot.write";
    /// The atomic rename publishing a snapshot (firing `exit` here
    /// simulates a kill between the last journal append and the rename).
    pub const SNAPSHOT_RENAME: &str = "snapshot.rename";
    /// Inside a parallel-round discovery worker (panic injection).
    pub const ROUND_WORKER: &str = "round.worker";
    /// Server job admission: after the job's store files are durably
    /// written, before it is enqueued and acknowledged. Firing `exit` here
    /// simulates a kill in the admit window — the restarted server must
    /// recover the persisted-but-unacknowledged job.
    pub const SERVE_ADMIT: &str = "serve.admit";
    /// Server result publication: after a job's final checkpoint is
    /// written, before its result file marks it complete. Firing `exit`
    /// here leaves a finished-but-unmarked job for restart recovery to
    /// re-run deterministically.
    pub const SERVE_RESULT: &str = "serve.result";

    /// Every point, for spec validation.
    pub(super) const ALL: &[&str] = &[
        JOURNAL_APPEND,
        JOURNAL_SYNC,
        JOURNAL_TRUNCATE,
        SNAPSHOT_WRITE,
        SNAPSHOT_RENAME,
        ROUND_WORKER,
        SERVE_ADMIT,
        SERVE_RESULT,
    ];
}

/// What an armed failpoint does when its hit count comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Return an injected `io::Error` from the site.
    Error,
    /// Write only the first `n` bytes of the site's payload, then fail —
    /// a torn write, exactly what a mid-write crash leaves behind.
    ShortWrite(usize),
    /// Panic at the site (worker-thread crash).
    Panic,
    /// Exit the whole process with the given code (simulated kill).
    Exit(u8),
}

#[derive(Debug)]
struct Point {
    name: &'static str,
    action: Action,
    /// 1-based hit index the fault fires on.
    at: u64,
    hits: AtomicU64,
}

/// A parsed failpoint spec and its hit counters. Installed per thread by
/// [`arm`]; a run that crosses threads hands its `Arc` along, so hits
/// from every thread of the run count against one counter per point.
#[derive(Debug)]
pub(crate) struct FailpointSet {
    points: Vec<Point>,
}

impl FailpointSet {
    /// Parses an [`arm`] spec. Each point may be named at most once.
    fn parse(spec: &str) -> Result<FailpointSet, String> {
        let mut points: Vec<Point> = Vec::new();
        for item in spec.split([';', ',']).map(str::trim).filter(|s| !s.is_empty()) {
            let (name, rest) = item
                .split_once('=')
                .ok_or_else(|| format!("failpoint item `{item}` is not `name=action[@N]`"))?;
            let name = points::ALL.iter().copied().find(|&p| p == name).ok_or_else(|| {
                format!("unknown failpoint `{name}` (known: {})", points::ALL.join(", "))
            })?;
            if points.iter().any(|p| p.name == name) {
                return Err(format!("failpoint `{name}` is named more than once"));
            }
            let (action_text, at) = match rest.split_once('@') {
                Some((a, n)) => (
                    a,
                    n.parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("failpoint `{name}`: bad hit index `{n}`"))?,
                ),
                None => (rest, 1),
            };
            let action = match action_text.split_once(':') {
                None => match action_text {
                    "error" => Action::Error,
                    "panic" => Action::Panic,
                    "exit" => Action::Exit(1),
                    other => return Err(format!("failpoint `{name}`: unknown action `{other}`")),
                },
                Some(("exit", code)) => Action::Exit(
                    code.parse()
                        .map_err(|_| format!("failpoint `{name}`: bad exit code `{code}`"))?,
                ),
                Some(("short", bytes)) => {
                    Action::ShortWrite(bytes.parse().map_err(|_| {
                        format!("failpoint `{name}`: bad short-write size `{bytes}`")
                    })?)
                }
                Some((other, _)) => {
                    return Err(format!("failpoint `{name}`: unknown action `{other}`"))
                }
            };
            points.push(Point { name, action, at, hits: AtomicU64::new(0) });
        }
        Ok(FailpointSet { points })
    }

    fn fire(&self, name: &str) -> Option<Action> {
        let point = self.points.iter().find(|p| p.name == name)?;
        // Relaxed: the counter publishes no other data; `fetch_add` alone
        // gives exactly one thread the selected hit.
        let hit = point.hits.fetch_add(1, Ordering::Relaxed) + 1;
        (hit == point.at).then_some(point.action)
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<FailpointSet>>> = const { RefCell::new(None) };
}

/// Restores the thread's previous failpoint set when dropped (also on
/// unwind). Not `Send`: it must be dropped on the thread that armed it.
#[must_use = "failpoints are disarmed when the guard drops"]
#[derive(Debug)]
pub struct FailpointGuard {
    prev: Option<Arc<FailpointSet>>,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for FailpointGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        // The thread-local may already be gone if the guard lives in
        // another thread-local's destructor; nothing is armed then.
        let _ = CURRENT.try_with(|current| current.replace(prev));
    }
}

/// Arms failpoints from a spec string for the current thread (and the
/// pool and server threads its runs start) until the returned guard
/// drops: `;`- or `,`-separated `name=action[@N]` items, where `action`
/// is `error`, `panic`, `exit[:CODE]`, or `short:BYTES`, and `@N`
/// (default 1) is the 1-based hit the fault fires on. Hit counters start
/// at zero. A bad spec arms nothing and names the offending item.
pub fn arm(spec: &str) -> Result<FailpointGuard, String> {
    Ok(install(Some(Arc::new(FailpointSet::parse(spec)?))))
}

/// Installs `set` (`None` disarms) for the current thread until the
/// guard drops — how a run carries its [`current`] set onto the threads
/// it spawns.
pub(crate) fn install(set: Option<Arc<FailpointSet>>) -> FailpointGuard {
    let prev = CURRENT.with(|current| current.replace(set));
    FailpointGuard { prev, _thread_bound: PhantomData }
}

/// The set armed on the current thread, to hand to a thread the run
/// crosses onto.
pub(crate) fn current() -> Option<Arc<FailpointSet>> {
    CURRENT.with(|current| current.borrow().clone())
}

/// Registers a hit at `name` and returns the armed action if this hit is
/// the one the spec selected. The unarmed fast path is one thread-local
/// load and a `None` check.
#[inline]
pub fn fire(name: &str) -> Option<Action> {
    CURRENT.with(|current| current.borrow().as_ref()?.fire(name))
}

/// [`fire`] for I/O sites: maps `Error` to an injected `io::Error` naming
/// the site, `ShortWrite(n)` to `Ok(Some(n))` (the caller tears its write
/// to `n` bytes and then fails), and executes `Panic`/`Exit` in place.
/// Returns `Ok(None)` when nothing fires.
pub(crate) fn trip_io(name: &str) -> std::io::Result<Option<usize>> {
    match fire(name) {
        None => Ok(None),
        Some(Action::Error) => Err(injected(name)),
        Some(Action::ShortWrite(n)) => Ok(Some(n)),
        Some(Action::Panic) => panic!("injected panic at failpoint `{name}`"),
        Some(Action::Exit(code)) => std::process::exit(code.into()),
    }
}

/// [`fire`] for non-I/O sites (worker threads): every armed action that
/// fires becomes a panic, except `Exit`, which exits the process.
pub(crate) fn trip(name: &str) {
    match fire(name) {
        None => {}
        Some(Action::Exit(code)) => std::process::exit(code.into()),
        Some(_) => panic!("injected panic at failpoint `{name}`"),
    }
}

/// The `io::Error` an armed `Error` action injects.
pub(crate) fn injected(name: &str) -> std::io::Error {
    std::io::Error::other(format!("injected failpoint `{name}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_fast_path_fires_nothing() {
        assert!(current().is_none());
        for _ in 0..1000 {
            assert_eq!(fire(points::JOURNAL_APPEND), None);
        }
    }

    #[test]
    fn fires_on_the_exact_hit_and_only_once() {
        let _fp = arm("journal.append=error@3").unwrap();
        assert_eq!(fire(points::JOURNAL_APPEND), None);
        assert_eq!(fire(points::JOURNAL_APPEND), None);
        assert_eq!(fire(points::JOURNAL_APPEND), Some(Action::Error));
        assert_eq!(fire(points::JOURNAL_APPEND), None);
        // Unarmed points never fire even while the thread is armed.
        assert_eq!(fire(points::SNAPSHOT_RENAME), None);
    }

    #[test]
    fn spec_grammar_round_trips_every_action() {
        let outer =
            arm("journal.append=short:12@2; snapshot.write=error, round.worker=panic@5").unwrap();
        assert_eq!(fire(points::SNAPSHOT_WRITE), Some(Action::Error));
        assert_eq!(fire(points::JOURNAL_APPEND), None);
        // A nested arm replaces the set (don't actually fire the exit
        // in-process) and its drop restores the outer set's counters.
        let inner = arm("snapshot.rename=exit:9").unwrap();
        assert_eq!(fire(points::JOURNAL_APPEND), None);
        drop(inner);
        assert_eq!(fire(points::JOURNAL_APPEND), Some(Action::ShortWrite(12)));
        drop(outer);
        assert!(current().is_none());
    }

    #[test]
    fn bad_specs_are_rejected_with_the_offending_item() {
        for (spec, needle) in [
            ("nonsense", "nonsense"),
            ("no.such.point=error", "no.such.point"),
            ("journal.append=explode", "explode"),
            ("journal.append=error@0", "0"),
            ("journal.append=short:lots", "lots"),
            ("journal.append=error@3;journal.append=short:4@5", "`journal.append` is named more"),
        ] {
            let err = arm(spec).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
            assert!(current().is_none(), "{spec} must not half-arm");
        }
    }

    #[test]
    fn trip_io_maps_actions() {
        let _fp = arm("journal.sync=error@1;journal.append=short:4@1").unwrap();
        assert_eq!(trip_io(points::JOURNAL_APPEND).unwrap(), Some(4));
        let err = trip_io(points::JOURNAL_SYNC).unwrap_err();
        assert!(err.to_string().contains("journal.sync"));
        assert_eq!(trip_io(points::JOURNAL_SYNC).unwrap(), None);
    }

    #[test]
    fn the_guard_disarms_on_unwind() {
        let unwound = std::panic::catch_unwind(|| {
            let _fp = arm("journal.sync=error").unwrap();
            trip(points::JOURNAL_SYNC);
        });
        assert!(unwound.is_err());
        assert!(current().is_none());
    }

    #[test]
    fn a_set_is_private_to_its_thread_until_handed_on() {
        let _fp = arm("round.worker=panic@3").unwrap();
        let set = current();
        std::thread::scope(|scope| {
            // A bystander thread sees nothing armed.
            scope.spawn(|| assert_eq!(fire(points::ROUND_WORKER), None));
        });
        std::thread::scope(|scope| {
            // A thread the run hands its set to shares the hit counter.
            scope.spawn(|| {
                let _fp = install(set);
                assert_eq!(fire(points::ROUND_WORKER), None);
                assert_eq!(fire(points::ROUND_WORKER), None);
            });
        });
        assert_eq!(fire(points::ROUND_WORKER), Some(Action::Panic));
    }
}
