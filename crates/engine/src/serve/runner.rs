//! `JobRunner`: one chase job, durably, from genesis or from wreckage.
//!
//! [`run_job`] is the single entry point the server's worker pool uses for
//! both fresh submissions and jobs found half-done by the restart scan —
//! the two cases are deliberately the same code path, so the recovery
//! differential ("a killed job, resumed, is bit-identical to one that
//! never crashed") is a property of the only loop there is. The loop runs
//! legs of `checkpoint_every` applications under one overall wall-clock
//! deadline and syncs the journal after every leg. Unlike the CLI's
//! `chase --checkpoint --journal --checkpoint-every` driver, which
//! snapshots after every leg, it publishes a full snapshot (and re-bases
//! the journal on it) only at geometrically spaced leg boundaries — see
//! [`snapshot_due`] — so the bytes a job writes grow linearly with its
//! size, not quadratically, while a kill still loses no synced work.
//!
//! A job directory owns four well-known files (see [`JobPaths`]): the
//! working snapshot + journal pair the durable loop maintains, the final
//! checkpoint published when the chase stops, and the result marker the
//! *server* writes last — its presence is what the restart scan treats as
//! "complete", so a kill anywhere before it simply re-runs the
//! deterministic tail.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use chasekit_core::{CriticalInstance, Instance, Program};

use crate::journal::{recover, write_snapshot_atomic, JournalWriter};
use crate::trace::TraceSink;
use crate::{Budget, CancelToken, ChaseConfig, ChaseMachine, ChaseVariant, StopReason};

/// The per-job budget and durability cadence, persisted in the job's
/// `meta` file so a restarted server re-runs the job under identical
/// rules. Wall-clock deadlines restart from zero on recovery (elapsed
/// time before the kill is unknowable); deterministic workloads use the
/// application/atom/memory budgets, which replay exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Chase variant.
    pub variant: ChaseVariant,
    /// Application budget (the CLI's `--steps`).
    pub steps: u64,
    /// Wall-clock deadline in milliseconds, if any.
    pub timeout_ms: Option<u64>,
    /// Atom-count ceiling, if any.
    pub max_atoms: Option<usize>,
    /// Approximate memory ceiling in bytes, if any.
    pub max_memory: Option<usize>,
    /// Journal sync cadence in applications: every leg of this many
    /// applications ends with a synced journal. Full snapshots (with a
    /// journal re-base) are spaced geometrically on top of it — the first
    /// after `checkpoint_every` applications, then each once the job has
    /// run as many applications again as it had at the previous one (see
    /// [`snapshot_due`]). 0 = only the final checkpoint, no periodic
    /// durability.
    pub checkpoint_every: u64,
    /// Journal group-commit batch size (records per `write(2)`).
    pub flush_every: u64,
}

impl JobSpec {
    /// The server's built-in defaults: semi-oblivious chase, a generous
    /// but finite application budget, periodic durability every 256
    /// applications, write-per-record journaling.
    pub fn server_default() -> JobSpec {
        JobSpec {
            variant: ChaseVariant::SemiOblivious,
            steps: 1_000_000,
            timeout_ms: None,
            max_atoms: None,
            max_memory: None,
            checkpoint_every: 256,
            flush_every: 1,
        }
    }
}

/// The well-known files inside one job directory.
#[derive(Debug, Clone)]
pub struct JobPaths {
    /// The job directory itself.
    pub dir: PathBuf,
}

impl JobPaths {
    /// Wraps a job directory.
    pub fn new(dir: &Path) -> JobPaths {
        JobPaths { dir: dir.to_path_buf() }
    }

    /// The submitted program text, exactly as received.
    pub fn program(&self) -> PathBuf {
        self.dir.join("program.rules")
    }

    /// The job spec (`meta`), written last and atomically at admission.
    pub fn meta(&self) -> PathBuf {
        self.dir.join("meta")
    }

    /// The working snapshot the durable loop re-publishes every leg.
    pub fn state_checkpoint(&self) -> PathBuf {
        self.dir.join("state.ckpt")
    }

    /// The write-ahead journal covering everything past the snapshot.
    pub fn journal(&self) -> PathBuf {
        self.dir.join("state.journal")
    }

    /// The final checkpoint, published when the chase stops.
    pub fn final_checkpoint(&self) -> PathBuf {
        self.dir.join("final.ckpt")
    }

    /// The result marker the server writes last; its presence means done.
    pub fn result(&self) -> PathBuf {
        self.dir.join("result")
    }
}

/// What [`run_job`] accomplished.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Why the chase stopped.
    pub outcome: StopReason,
    /// Trigger applications performed (including recovered ones).
    pub applications: u64,
    /// Final instance size in atoms.
    pub atoms: usize,
    /// Labelled nulls minted.
    pub nulls: usize,
    /// Whether the job resumed from on-disk state (restart recovery).
    pub recovered: bool,
    /// Journal records replayed during recovery.
    pub replayed: u64,
    /// The final checkpoint text (also on disk at
    /// [`JobPaths::final_checkpoint`]) — the byte-identity witness the
    /// differential suite compares.
    pub checkpoint_text: String,
    /// The sticky journal error when `outcome` is [`StopReason::Io`].
    pub io_error: Option<String>,
    /// Full-instance snapshots this run published: working snapshots,
    /// the recovery republish, and the final checkpoint.
    pub snapshots: u64,
    /// Bytes of checkpoint text those snapshots wrote.
    pub snapshot_bytes: u64,
    /// Successful journal fsyncs (one per leg boundary, one at the end).
    pub journal_syncs: u64,
}

/// Whether the leg boundary at `applications` publishes a full snapshot
/// and re-bases the journal, rather than only syncing it: once the
/// applications since the last snapshot reach
/// `max(checkpoint_every, last_snapshot)`. A snapshot re-serializes the
/// whole instance, so snapshotting every leg writes bytes quadratic in
/// the job size; doubling the spacing keeps the total linear, and
/// recovery replays at most about half the run. `checkpoint_every == 0`
/// never snapshots mid-run.
pub(crate) fn snapshot_due(last_snapshot: u64, applications: u64, checkpoint_every: u64) -> bool {
    checkpoint_every > 0
        && applications.saturating_sub(last_snapshot) >= checkpoint_every.max(last_snapshot)
}

/// The durable writes one job performed, counted as they succeed.
#[derive(Debug, Default)]
struct Writes {
    snapshots: u64,
    snapshot_bytes: u64,
    journal_syncs: u64,
}

impl Writes {
    fn snapshot(&mut self, path: &Path, text: &str) -> std::io::Result<()> {
        write_snapshot_atomic(path, text)?;
        self.snapshots += 1;
        self.snapshot_bytes += text.len() as u64;
        Ok(())
    }

    fn sync(&mut self, journal: &mut JournalWriter) -> Result<(), String> {
        journal
            .sync()
            .map_err(|e| format!("cannot sync journal {}: {e}", journal.path().display()))?;
        self.journal_syncs += 1;
        Ok(())
    }
}

/// Runs one job to a terminal state inside `dir`, fresh or recovered.
///
/// If the directory holds a prior `state.ckpt`/`state.journal` pair (the
/// server was killed mid-job), the machine is recovered from them —
/// verified deterministic replay, torn tails truncated — and continues;
/// otherwise the chase starts from the program's facts (or its critical
/// instance when it has none), exactly like the CLI. Returns an error
/// string for structural failures (unreadable state, mismatched files,
/// unwritable final checkpoint); budget and I/O stops are *successful*
/// reports with the corresponding [`StopReason`].
pub fn run_job(
    program: &Program,
    spec: &JobSpec,
    dir: &Path,
    cancel: CancelToken,
    sink: Option<Box<dyn TraceSink>>,
) -> Result<JobReport, String> {
    let paths = JobPaths::new(dir);
    let mut program = program.clone();
    let config = ChaseConfig::of(spec.variant);

    let snapshot_text = match std::fs::read_to_string(paths.state_checkpoint()) {
        Ok(t) => Some(t),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("cannot read {}: {e}", paths.state_checkpoint().display())),
    };
    let journal_bytes = match std::fs::read(paths.journal()) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("cannot read {}: {e}", paths.journal().display())),
    };

    let genesis = if program.facts().is_empty() {
        CriticalInstance::build(&mut program).instance
    } else {
        Instance::from_atoms(program.facts().iter().cloned())
    };

    let recovered = snapshot_text.is_some() || !journal_bytes.is_empty();
    let mut replayed = 0;
    let mut machine = if recovered {
        let (mut m, report) =
            recover(&program, snapshot_text.as_deref(), &journal_bytes, genesis, config)
                .map_err(|e| format!("cannot recover job state: {e}"))?;
        replayed = report.records_replayed;
        if let Some(sink) = sink {
            // Sequence numbers continue from the recovered stats; the
            // stream is a suffix of an uncrashed run's stream.
            m.set_trace_sink(sink);
        }
        m
    } else {
        match sink {
            Some(sink) => ChaseMachine::new_with_trace(&program, config, genesis, sink),
            None => ChaseMachine::new(&program, config, genesis),
        }
    };
    machine.set_cancel_token(cancel);

    let mut writes = Writes::default();
    if recovered {
        // Republish the recovered state as the working snapshot *before*
        // the journal is re-based on it (the CLI's `run_recovery` order).
        // The re-base truncates the journal to base = recovered
        // applications; if a second kill lands before the next leg
        // publish, the old snapshot would trail that base and recover()
        // would reject the pair as inconsistent, failing the job on every
        // subsequent restart.
        let text = machine
            .snapshot()
            .to_text()
            .map_err(|e| format!("cannot serialize recovered snapshot: {e}"))?;
        writes.snapshot(&paths.state_checkpoint(), &text).map_err(|e| {
            format!("cannot write checkpoint {}: {e}", paths.state_checkpoint().display())
        })?;
    }

    let journal = JournalWriter::for_machine(&paths.journal(), &machine)
        .map_err(|e| format!("cannot create journal {}: {e}", paths.journal().display()))?
        .with_flush_every(spec.flush_every);
    machine.set_journal(journal);

    // One overall wall-clock deadline across all legs, exactly like the
    // CLI driver. The genesis state, or the recovered snapshot just
    // republished, is the first snapshot.
    let deadline = spec.timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut last_snapshot = machine.stats().applications;
    let mut publish_error: Option<String> = None;
    let mut outcome = loop {
        let target = if spec.checkpoint_every > 0 {
            machine.stats().applications.saturating_add(spec.checkpoint_every).min(spec.steps)
        } else {
            spec.steps
        };
        let mut budget = Budget::applications(target);
        if let Some(d) = deadline {
            let left = d.saturating_duration_since(Instant::now());
            budget = budget.with_timeout_ms(left.as_millis() as u64);
        }
        if let Some(atoms) = spec.max_atoms {
            budget = budget.with_atoms(atoms);
        }
        if let Some(bytes) = spec.max_memory {
            budget = budget.with_memory(bytes);
        }
        let stop = machine.run(&budget);
        if stop == StopReason::Applications && target < spec.steps {
            // Leg boundary with budget to spare: sync (and, when due,
            // snapshot) and keep going. A sync or publish failure (ENOSPC,
            // EACCES, injected fault) is a durability stop, not a server
            // error: the job ends with StopReason::Io and the named error
            // text.
            let applications = machine.stats().applications;
            let leg = if snapshot_due(last_snapshot, applications, spec.checkpoint_every) {
                last_snapshot = applications;
                publish_leg(&mut machine, &paths, spec, &mut writes)
            } else {
                sync_journal(&mut machine, &mut writes)
            };
            match leg {
                Ok(()) => continue,
                Err(msg) => {
                    publish_error = Some(msg);
                    break StopReason::Io;
                }
            }
        }
        break stop;
    };

    machine.flush_trace();

    // Finalization. A journal that cannot be synced is a durability
    // failure: surface it as StopReason::Io, never swallow it.
    let mut io_error = None;
    if outcome == StopReason::Io {
        io_error = publish_error.or_else(|| machine.journal_failed().map(str::to_string));
        let _ = machine.take_journal();
    } else if let Some(mut j) = machine.take_journal() {
        if let Err(msg) = writes.sync(&mut j) {
            io_error = Some(msg);
            outcome = StopReason::Io;
        }
    }

    let checkpoint_text = machine
        .snapshot()
        .to_text()
        .map_err(|e| format!("cannot serialize final checkpoint: {e}"))?;
    writes.snapshot(&paths.final_checkpoint(), &checkpoint_text).map_err(|e| {
        format!("cannot write final checkpoint {}: {e}", paths.final_checkpoint().display())
    })?;

    Ok(JobReport {
        outcome,
        applications: machine.stats().applications,
        atoms: machine.instance().len(),
        nulls: machine.stats().nulls_minted as usize,
        recovered,
        replayed,
        checkpoint_text,
        io_error,
        snapshots: writes.snapshots,
        snapshot_bytes: writes.snapshot_bytes,
        journal_syncs: writes.journal_syncs,
    })
}

/// Syncs the installed journal in place: a leg boundary with no
/// snapshot due.
fn sync_journal(machine: &mut ChaseMachine<'_>, writes: &mut Writes) -> Result<(), String> {
    let Some(mut j) = machine.take_journal() else { return Ok(()) };
    let synced = writes.sync(&mut j);
    machine.set_journal(j);
    synced
}

/// Syncs the journal, atomically publishes the working snapshot, and
/// re-bases the journal on it — the CLI's `write_durable_snapshot`, with
/// the group-commit batch size carried across the re-base.
fn publish_leg(
    machine: &mut ChaseMachine<'_>,
    paths: &JobPaths,
    spec: &JobSpec,
    writes: &mut Writes,
) -> Result<(), String> {
    let text = machine
        .snapshot()
        .to_text()
        .map_err(|e| format!("cannot serialize snapshot: {e}"))?;
    sync_journal(machine, writes)?;
    writes
        .snapshot(&paths.state_checkpoint(), &text)
        .map_err(|e| format!("cannot write checkpoint {}: {e}", paths.state_checkpoint().display()))?;
    let j = JournalWriter::for_machine(&paths.journal(), machine)
        .map_err(|e| format!("cannot re-base journal {}: {e}", paths.journal().display()))?
        .with_flush_every(spec.flush_every);
    machine.set_journal(j);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The snapshot points [`snapshot_due`] picks over the leg boundaries
    /// of a `steps`-application job (the final checkpoint is not a leg).
    fn snapshot_points(every: u64, steps: u64) -> Vec<u64> {
        let (mut last, mut points) = (0, Vec::new());
        let mut applications = every;
        while every > 0 && applications < steps {
            if snapshot_due(last, applications, every) {
                last = applications;
                points.push(applications);
            }
            applications += every;
        }
        points
    }

    #[test]
    fn snapshots_are_spaced_geometrically() {
        assert_eq!(snapshot_points(25, 120), [25, 50, 100]);
        assert_eq!(snapshot_points(256, 5000), [256, 512, 1024, 2048, 4096]);
        assert_eq!(snapshot_points(0, 120), [] as [u64; 0]);
        assert!(!snapshot_due(0, 1_000_000, 0), "every = 0 never snapshots mid-run");
    }

    #[test]
    fn a_recovered_snapshot_counts_as_the_last_one() {
        // Recovered at 39 under every = 25: the next legs land at 64, 89.
        assert!(!snapshot_due(39, 64, 25));
        assert!(snapshot_due(39, 89, 25));
    }

    #[test]
    fn job_report_counts_its_durable_writes() {
        let dir = std::env::temp_dir()
            .join(format!("chasekit-runner-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("every-25")).unwrap();
        std::fs::create_dir_all(dir.join("every-0")).unwrap();
        let program =
            Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap();
        let spec = JobSpec { steps: 120, checkpoint_every: 25, ..JobSpec::server_default() };
        let report = run_job(&program, &spec, &dir.join("every-25"), CancelToken::new(), None);
        let report = report.unwrap();
        assert_eq!(report.outcome, StopReason::Applications);
        // Snapshots at 25, 50, 100 plus the final checkpoint; syncs at
        // every leg boundary (25, 50, 75, 100) plus the final one.
        assert_eq!(report.snapshots, 4);
        assert_eq!(report.journal_syncs, 5);
        let last = std::fs::read_to_string(JobPaths::new(&dir.join("every-25")).state_checkpoint());
        let last = last.unwrap();
        assert!(report.snapshot_bytes > (last.len() + report.checkpoint_text.len()) as u64);

        // every = 0: one leg, so only the final sync and checkpoint.
        let spec = JobSpec { checkpoint_every: 0, ..spec };
        let once = run_job(&program, &spec, &dir.join("every-0"), CancelToken::new(), None);
        let once = once.unwrap();
        assert_eq!((once.snapshots, once.journal_syncs), (1, 1));
        assert_eq!(once.snapshot_bytes, once.checkpoint_text.len() as u64);
        assert_eq!(once.checkpoint_text, report.checkpoint_text, "cadence changes no result");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
