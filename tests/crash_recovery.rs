//! Crash/recovery differential suite for the durability layer.
//!
//! The headline guarantee under test: **kill the chase at any injected
//! fault point, recover from the journal + last good snapshot, continue —
//! and the final state is bit-identical to a run that never crashed**, for
//! every corpus program, all three chase variants, at 1, 2, and 4 threads.
//! "Bit-identical" is checkpoint-text equality (instance, queue, identity
//! set, RNG state, counters — hence also the trace `core_seq`), plus
//! derivation-DAG and Skolem-ancestry equality for tracked runs, plus
//! trace-stream suffix equality for the recovered continuation.
//!
//! In-process tests arm failpoints with a guard scoped to their own thread
//! (and the pool threads their runs start), so they run concurrently with
//! each other and need no lock. The spawned-binary tests pass the spec
//! through `CHASEKIT_FAILPOINTS` instead.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};

use proptest::prelude::*;

use chasekit::engine::{
    failpoint, needs_recovery, recover, write_snapshot_atomic, ChaseConfig, ChaseMachine,
    Checkpoint, CheckpointError, JournalWriter, JsonlSink, StopReason, TraceSink,
};
use chasekit::prelude::*;

const VARIANTS: [ChaseVariant; 3] =
    [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious, ChaseVariant::Restricted];

/// The chase's initial instance for a program: its facts, or the critical
/// instance when it carries none.
fn seed(program: &mut Program) -> Instance {
    if program.facts().is_empty() {
        CriticalInstance::build(program).instance
    } else {
        Instance::from_atoms(program.facts().iter().cloned())
    }
}

fn state_text(m: &ChaseMachine<'_>) -> String {
    m.snapshot().to_text().expect("untracked runs serialize")
}

/// A scratch directory unique to this test, cleaned before use.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("chasekit-crash-recovery-{}", std::process::id()))
        .join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn budget(total: u64) -> Budget {
    Budget::applications(total).with_atoms(4_000)
}

/// Drives a journaled run with periodic snapshots the way the CLI does,
/// abandoning everything mid-flight at the first durability casualty — a
/// sticky journal error ([`StopReason::Io`]), a failed snapshot/sync, or
/// an injected worker panic. Whatever the files hold at that moment is
/// exactly what a killed process leaves behind.
#[allow(clippy::too_many_arguments)]
fn durable_run_until_crash(
    program: &Program,
    variant: ChaseVariant,
    initial: &Instance,
    threads: usize,
    every: u64,
    total: u64,
    ckpt: &Path,
    journal: &Path,
    flush_every: u64,
) {
    let run = AssertUnwindSafe(|| {
        let cfg = ChaseConfig::of(variant);
        let mut machine = ChaseMachine::new(program, cfg, initial.clone());
        match JournalWriter::for_machine(journal, &machine) {
            Ok(j) => machine.set_journal(j.with_flush_every(flush_every)),
            Err(_) => return, // crashed creating the journal
        }
        loop {
            let target = machine.stats().applications.saturating_add(every).min(total);
            let stop = machine.run_parallel(&budget(target), threads);
            if stop == StopReason::Io {
                return; // journal write died; run stopped at a boundary
            }
            if stop == StopReason::Applications && target < total {
                // Periodic snapshot: sync journal, publish, re-base.
                let text = machine.snapshot().to_text().unwrap();
                let mut j = machine.take_journal().unwrap();
                if j.sync().is_err() {
                    return;
                }
                if write_snapshot_atomic(ckpt, &text).is_err() {
                    return;
                }
                match JournalWriter::for_machine(journal, &machine) {
                    Ok(j) => machine.set_journal(j.with_flush_every(flush_every)),
                    Err(_) => return,
                }
                continue;
            }
            // Ran to the end without a casualty (the fault never landed in
            // an executed window): publish the final state cleanly.
            let text = machine.snapshot().to_text().unwrap();
            if let Some(mut j) = machine.take_journal() {
                let _ = j.sync();
            }
            let _ = write_snapshot_atomic(ckpt, &text);
            return;
        }
    });
    // An injected worker panic unwinds out of run_parallel; the files are
    // the crash scene either way.
    let _ = catch_unwind(run);
}

/// Recovers from whatever `durable_run_until_crash` left on disk and runs
/// to `total`; returns the final state text.
fn recover_and_finish(
    program: &Program,
    variant: ChaseVariant,
    initial: &Instance,
    threads: usize,
    total: u64,
    ckpt: &Path,
    journal: &Path,
) -> String {
    let snapshot_text = std::fs::read_to_string(ckpt).ok();
    let journal_bytes = std::fs::read(journal).unwrap_or_default();
    let (mut machine, _report) = recover(
        program,
        snapshot_text.as_deref(),
        &journal_bytes,
        initial.clone(),
        ChaseConfig::of(variant),
    )
    .expect("crash scenes always recover");
    machine.run_parallel(&budget(total), threads);
    state_text(&machine)
}

/// Every failpoint the durability layer exposes, armed at a hit index that
/// lands inside a short run. `round.worker` only fires with real fan-out.
const FAULT_PLANS: &[&str] = &[
    "journal.append=error@7",
    "journal.append=short:3@13",
    "journal.sync=error@1",
    "snapshot.write=error@1",
    "snapshot.write=short:40@2",
    "snapshot.rename=error@1",
    "journal.truncate=short:10@1",
    "journal.truncate=short:10@2",
    "round.worker=panic@3",
];

/// The headline differential: corpus (which includes paper Examples 1–2)
/// × all variants × every failpoint × 1/2/4 threads. Crash, recover,
/// continue — final checkpoint text must equal the uninterrupted run's.
#[test]
fn kill_at_every_failpoint_recovers_bit_identical() {
    let dir = scratch("differential");
    let ckpt = dir.join("state.ckpt");
    let journal = dir.join("state.journal");
    const EVERY: u64 = 25;
    const TOTAL: u64 = 120;

    for family in chasekit::datagen::corpus() {
        let mut program = family.program;
        let initial = seed(&mut program);
        for variant in VARIANTS {
            // Uninterrupted reference (sequential; PR-2 guarantees every
            // thread count matches it).
            let mut reference = ChaseMachine::new(
                &program,
                ChaseConfig::of(variant),
                initial.clone(),
            );
            reference.run(&budget(TOTAL));
            let want = state_text(&reference);

            for plan in FAULT_PLANS {
                for threads in [1usize, 2, 4] {
                    if plan.starts_with("round.worker") && threads == 1 {
                        continue; // no workers to panic
                    }
                    let _ = std::fs::remove_file(&ckpt);
                    let _ = std::fs::remove_file(&journal);
                    let armed = failpoint::arm(plan).unwrap();
                    durable_run_until_crash(
                        &program, variant, &initial, threads, EVERY, TOTAL, &ckpt, &journal, 1,
                    );
                    drop(armed);
                    let got = recover_and_finish(
                        &program, variant, &initial, threads, TOTAL, &ckpt, &journal,
                    );
                    assert_eq!(
                        want, got,
                        "{}: {variant:?} diverged after `{plan}` @ {threads} threads",
                        family.name
                    );
                }
            }
        }
    }
}

/// The same kill-at-every-failpoint differential with journal group
/// commit enabled: batching N records per `write(2)` may lose up to a
/// buffered batch plus a torn line to a crash, but what survives is
/// always a valid journal prefix — so recover-and-continue still lands
/// bit-identical to the uninterrupted run. A reduced corpus slice keeps
/// the sweep affordable; the fault plans and thread counts are the full
/// set that exercises batching (`round.worker` needs fan-out).
#[test]
fn group_commit_kill_at_every_failpoint_recovers_bit_identical() {
    let dir = scratch("group-commit-differential");
    let ckpt = dir.join("state.ckpt");
    let journal = dir.join("state.journal");
    const EVERY: u64 = 25;
    const TOTAL: u64 = 120;

    for family in chasekit::datagen::corpus().into_iter().take(4) {
        let mut program = family.program;
        let initial = seed(&mut program);
        for variant in [ChaseVariant::SemiOblivious, ChaseVariant::Restricted] {
            let mut reference =
                ChaseMachine::new(&program, ChaseConfig::of(variant), initial.clone());
            reference.run(&budget(TOTAL));
            let want = state_text(&reference);

            for flush_every in [8u64, 64] {
                for plan in FAULT_PLANS {
                    for threads in [1usize, 4] {
                        if plan.starts_with("round.worker") && threads == 1 {
                            continue;
                        }
                        let _ = std::fs::remove_file(&ckpt);
                        let _ = std::fs::remove_file(&journal);
                        let armed = failpoint::arm(plan).unwrap();
                        durable_run_until_crash(
                            &program,
                            variant,
                            &initial,
                            threads,
                            EVERY,
                            TOTAL,
                            &ckpt,
                            &journal,
                            flush_every,
                        );
                        drop(armed);
                        let got = recover_and_finish(
                            &program, variant, &initial, threads, TOTAL, &ckpt, &journal,
                        );
                        assert_eq!(
                            want, got,
                            "{}: {variant:?} diverged after `{plan}` @ {threads} threads, \
                             flush-every {flush_every}",
                            family.name
                        );
                    }
                }
            }
        }
    }
}

/// Derivation-DAG and Skolem-ancestry identity across an interrupt: a
/// tracked run cut at an in-memory snapshot boundary and resumed must
/// produce the same DAG (every edge, parent set, frontier) and the same
/// cyclic-Skolem witness as a straight run. (Text checkpoints exclude
/// tracking by design, so the crash cut here is the in-memory snapshot —
/// the same state the file recovery rebuilds for untracked runs.)
#[test]
fn derivation_and_ancestry_survive_interrupt_resume() {
    for (label, text) in [
        ("example-1", "person(bob). person(X) -> hasFather(X, Y), person(Y)."),
        ("example-2", "p(a, b). p(X, Y) -> p(Y, Z)."),
    ] {
        let mut program = Program::parse(text).unwrap();
        let initial = seed(&mut program);
        for variant in VARIANTS {
            let cfg = ChaseConfig::of(variant).with_derivation().with_skolem();
            let mut straight = ChaseMachine::new(&program, cfg, initial.clone());
            straight.run(&budget(90));

            for cut in [1u64, 13, 50, 89] {
                let mut first = ChaseMachine::new(&program, cfg, initial.clone());
                first.run(&budget(cut));
                let snap = first.snapshot();
                let mut resumed = snap.resume(&program).unwrap();
                resumed.run_parallel(&budget(90), 4);
                assert_eq!(
                    format!("{:?}", straight.derivation()),
                    format!("{:?}", resumed.derivation()),
                    "{label}: {variant:?} DAG diverged at cut {cut}"
                );
                assert_eq!(
                    straight.skolem_cyclic(),
                    resumed.skolem_cyclic(),
                    "{label}: {variant:?} skolem witness at cut {cut}"
                );
                assert_eq!(straight.stats(), resumed.stats(), "{label}: {variant:?} stats");
            }
        }
    }
}

/// A `Write` target readable after the owning machine is dropped.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The recovered continuation's trace is a byte-exact *suffix* of the
/// uninterrupted run's trace: sequence numbers resume contiguously and
/// every core event matches (`core_seq` composes across recovery exactly
/// as it does across checkpoint resume).
#[test]
fn recovered_continuation_traces_a_suffix_of_the_uninterrupted_trace() {
    let dir = scratch("trace-suffix");
    let ckpt = dir.join("t.ckpt");
    let journal = dir.join("t.journal");
    let mut program =
        Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap();
    let initial = seed(&mut program);

    for variant in VARIANTS {
        // Uninterrupted traced reference.
        let reference = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let sink: Box<dyn TraceSink> = Box::new(JsonlSink::new(reference.clone(), &program));
        let mut machine = ChaseMachine::new_with_trace(
            &program,
            ChaseConfig::of(variant),
            initial.clone(),
            sink,
        );
        machine.run(&budget(80));
        machine.flush_trace();
        let want = String::from_utf8(reference.0.lock().unwrap().clone()).unwrap();

        // Crash an (untraced) journaled run, recover, then trace only the
        // continuation.
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(&journal);
        let armed = failpoint::arm("journal.append=error@31").unwrap();
        durable_run_until_crash(&program, variant, &initial, 1, 20, 80, &ckpt, &journal, 1);
        drop(armed);

        let snapshot_text = std::fs::read_to_string(&ckpt).ok();
        let journal_bytes = std::fs::read(&journal).unwrap_or_default();
        let (mut recovered, report) = recover(
            &program,
            snapshot_text.as_deref(),
            &journal_bytes,
            initial.clone(),
            ChaseConfig::of(variant),
        )
        .unwrap();
        assert!(report.records_replayed > 0, "{variant:?}: the fault must have landed");
        let cont = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        recovered.set_trace_sink(Box::new(JsonlSink::new(cont.clone(), &program)));
        recovered.run(&budget(80));
        recovered.flush_trace();
        let got = String::from_utf8(cont.0.lock().unwrap().clone()).unwrap();

        assert!(!got.is_empty(), "{variant:?}: continuation must trace something");
        assert!(
            want.ends_with(&got),
            "{variant:?}: continuation trace is not a suffix of the reference\n\
             reference tail:\n{}\ncontinuation head:\n{}",
            &want[want.len().saturating_sub(400)..],
            &got[..got.len().min(400)]
        );
    }
}

/// A journal append failure (real I/O error) stops both drivers with
/// [`StopReason::Io`] at a step boundary, leaving a consistent machine.
#[test]
fn journal_failure_stops_with_io_at_a_boundary() {
    let dir = scratch("io-stop");
    let mut program =
        Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap();
    let initial = seed(&mut program);

    for threads in [1usize, 4] {
        let armed = failpoint::arm("journal.append=error@10").unwrap();
        let mut machine = ChaseMachine::new(
            &program,
            ChaseConfig::of(ChaseVariant::Oblivious),
            initial.clone(),
        );
        let journal = dir.join(format!("io-{threads}.journal"));
        machine.set_journal(JournalWriter::for_machine(&journal, &machine).unwrap());
        let stop = machine.run_parallel(&budget(100), threads);
        drop(armed);
        assert_eq!(stop, StopReason::Io, "@ {threads} threads");
        assert!(machine.journal_failed().is_some());
        // The machine is still consistent: it can snapshot and resume.
        let text = state_text(&machine);
        Checkpoint::from_text(&text).unwrap().resume(&program).unwrap();
    }
}

/// `needs_recovery` draws the line exactly where work would be lost.
#[test]
fn needs_recovery_spots_unreplayed_tails() {
    let dir = scratch("needs-recovery");
    let journal = dir.join("n.journal");
    let mut program =
        Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap();
    let initial = seed(&mut program);
    let cfg = ChaseConfig::of(ChaseVariant::SemiOblivious);

    let mut machine = ChaseMachine::new(&program, cfg, initial.clone());
    machine.set_journal(JournalWriter::for_machine(&journal, &machine).unwrap());
    machine.run(&budget(10));
    drop(machine.take_journal());
    let bytes = std::fs::read(&journal).unwrap();

    // A fresh machine (0 applications) is behind the journal's 10 records.
    let fresh = ChaseMachine::new(&program, cfg, initial.clone());
    assert!(needs_recovery(&fresh, &bytes));
    // A machine already at 10 applications is fully covered.
    let mut caught_up = ChaseMachine::new(&program, cfg, initial.clone());
    caught_up.run(&budget(10));
    assert!(!needs_recovery(&caught_up, &bytes));
    // Unscannable garbage also demands recovery (recover() explains why).
    assert!(needs_recovery(&fresh, b"not a journal at all\n"));
    // An absent/empty journal never does.
    assert!(!needs_recovery(&fresh, b""));
}

/// An armed plan belongs to the thread that armed it: a sibling test's
/// plan neither fires inside another test's run nor is spent by it.
/// Thread A arms a torn truncate and parks; thread B then opens a journal
/// and runs a journaled chase untouched; A's own open then trips the
/// fault on its first truncate.
#[test]
fn armed_failpoints_stay_on_their_own_thread() {
    let dir = scratch("thread-scoped");
    let mut program =
        Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap();
    let initial = seed(&mut program);
    let cfg = ChaseConfig::of(ChaseVariant::SemiOblivious);
    let (armed, released) = (Barrier::new(2), Barrier::new(2));

    std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let _armed = failpoint::arm("journal.truncate=short:10").unwrap();
            armed.wait();
            released.wait();
            let machine = ChaseMachine::new(&program, cfg, initial.clone());
            JournalWriter::for_machine(&dir.join("a.journal"), &machine).map(|_| ())
        });
        armed.wait();
        let b = scope
            .spawn(|| {
                let mut machine = ChaseMachine::new(&program, cfg, initial.clone());
                let writer = JournalWriter::for_machine(&dir.join("b.journal"), &machine)?;
                machine.set_journal(writer);
                let stop = machine.run(&budget(30));
                Ok::<_, std::io::Error>((
                    stop,
                    machine.stats().applications,
                    machine.journal_failed().is_some(),
                ))
            })
            .join();
        released.wait();
        let a = a.join().unwrap();
        let b = b.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        assert_eq!(b.unwrap(), (StopReason::Applications, 30, false), "B must run unfaulted");
        let err = a.unwrap_err();
        assert!(err.to_string().contains("journal.truncate"), "A's fault must fire: {err}");
    });
}

// ---------------------------------------------------------------------------
// Corruption tolerance: no bytes on disk may panic the recovery path.
// ---------------------------------------------------------------------------

/// Reference states for every application count, plus the crash-scene
/// snapshot + journal the corruption cases mutate. `test` names the
/// caller's own scratch directory: the two proptests run concurrently.
fn corruption_fixture(test: &str) -> (Program, Instance, Vec<String>, String, Vec<u8>) {
    let mut program =
        Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap();
    let initial = seed(&mut program);
    let cfg = ChaseConfig::of(ChaseVariant::Oblivious);

    // state_by_apps[k] = checkpoint text after exactly k applications.
    let mut m = ChaseMachine::new(&program, cfg, initial.clone());
    let mut state_by_apps = vec![state_text(&m)];
    for _ in 0..30 {
        m.step().unwrap();
        state_by_apps.push(state_text(&m));
    }

    // Snapshot at 12 applications, journal holding records 1..=30 (base 0:
    // the stale-prefix crash window, so skipping is exercised too).
    let dir = scratch(test);
    let journal_path = dir.join("c.journal");
    let mut w = ChaseMachine::new(&program, cfg, initial.clone());
    w.set_journal(JournalWriter::for_machine(&journal_path, &w).unwrap());
    w.run(&budget(30));
    drop(w.take_journal());
    let journal = std::fs::read(&journal_path).unwrap();
    let snapshot = state_by_apps[12].clone();
    (program, initial, state_by_apps, snapshot, journal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flip and truncate arbitrary bytes of the journal: recovery must
    /// either return a structured error or land on a *valid prefix state*
    /// — byte-identical to some uninterrupted run of that length. Never a
    /// panic, never a silently wrong state.
    #[test]
    fn corrupted_journals_never_panic_and_never_lie(
        flips in proptest::collection::vec((0usize..4096, 1u8..255), 0..4),
        cut in prop_oneof![Just(None::<usize>), (0usize..4096).prop_map(Some)],
    ) {
        let (program, initial, state_by_apps, snapshot, mut journal) =
            corruption_fixture("corrupted-journals");
        for (pos, mask) in flips {
            let idx = pos % journal.len().max(1);
            if let Some(b) = journal.get_mut(idx) {
                *b ^= mask;
            }
        }
        if let Some(c) = cut {
            journal.truncate(c % (journal.len() + 1));
        }
        match recover(
            &program,
            Some(&snapshot),
            &journal,
            initial.clone(),
            ChaseConfig::of(ChaseVariant::Oblivious),
        ) {
            Err(e) => {
                // Structured, displayable, and specifically not a panic.
                let shown = format!("{e}");
                prop_assert!(!shown.is_empty());
            }
            Ok((m, report)) => {
                let apps = m.stats().applications as usize;
                prop_assert!(apps >= 12, "cannot land before the snapshot");
                prop_assert!(apps < state_by_apps.len());
                prop_assert_eq!(&state_text(&m), &state_by_apps[apps]);
                prop_assert_eq!(
                    report.final_applications,
                    apps as u64
                );
            }
        }
    }

    /// Flip and truncate arbitrary bytes of the snapshot: `from_text` (and
    /// hence recovery) must reject every actual change via the CRC trailer
    /// or a structured parse error — never panic, never resume wrong state.
    #[test]
    fn corrupted_snapshots_never_panic_and_never_lie(
        flip_pos in 0usize..8192,
        mask in 1u8..255,
        cut in prop_oneof![Just(None::<usize>), (0usize..8192).prop_map(Some)],
    ) {
        let (program, initial, state_by_apps, snapshot, journal) =
            corruption_fixture("corrupted-snapshots");
        let mut bytes = snapshot.clone().into_bytes();
        let changed_len = cut.map(|c| c % (bytes.len() + 1));
        if let Some(c) = changed_len {
            bytes.truncate(c);
        }
        let mut flipped = false;
        let idx = flip_pos % bytes.len().max(1);
        if let Some(b) = bytes.get_mut(idx) {
            let before = *b;
            *b ^= mask;
            flipped = *b != before;
        }
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        let unchanged = mutated == snapshot;
        match recover(
            &program,
            Some(&mutated),
            &journal,
            initial.clone(),
            ChaseConfig::of(ChaseVariant::Oblivious),
        ) {
            Err(e) => {
                let shown = format!("{e}");
                prop_assert!(!shown.is_empty());
            }
            Ok((m, _)) => {
                // Only a mutation that left the file semantically intact
                // (e.g. truncation after `end` removing just the trailer,
                // with no effective flip) may recover — and then it must
                // recover the *correct* prefix state.
                let apps = m.stats().applications as usize;
                prop_assert!(apps < state_by_apps.len());
                prop_assert_eq!(&state_text(&m), &state_by_apps[apps]);
                if !unchanged {
                    // Any accepted change must be trailer-only.
                    prop_assert!(
                        !flipped || changed_len.is_some(),
                        "a pure byte flip inside the file must be caught by the CRC"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Real-process kill: SIGKILL a spawned chasekit mid-run, then recover.
// ---------------------------------------------------------------------------

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_chasekit")
}

/// SIGKILL the real binary mid-chase (no failpoints: a genuine
/// out-of-nowhere kill), then `--recover` and continue; the final
/// checkpoint must be bit-identical to an uninterrupted run of the same
/// length.
#[test]
fn sigkill_mid_run_recovers_and_continues_bit_identical() {
    let dir = scratch("sigkill");
    let rules = dir.join("ex1.rules");
    std::fs::write(&rules, "person(bob). person(X) -> hasFather(X, Y), person(Y).\n").unwrap();
    let ckpt = dir.join("k.ckpt");
    let journal = dir.join("k.journal");

    let mut child = std::process::Command::new(bin())
        .args([
            "chase",
            rules.to_str().unwrap(),
            "--steps",
            "100000000",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--checkpoint-every",
            "500",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(300));
    child.kill().unwrap(); // SIGKILL on unix
    child.wait().unwrap();

    // Recover; exit code 3 marks a successful recovery.
    let out = std::process::Command::new(bin())
        .args([
            "chase",
            rules.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--recover",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "recover exit code; stdout: {stdout}");
    let recovered_apps: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("recovered state: "))
        .and_then(|l| l.split(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("recovery report states the application count");

    // Continue past the kill point, then compare against an uninterrupted
    // run of exactly the same total length.
    let total = (recovered_apps + 77).to_string();
    let out = std::process::Command::new(bin())
        .args([
            "chase",
            rules.to_str().unwrap(),
            "--steps",
            &total,
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(10), "continuation hits the application budget");

    let reference_ckpt = dir.join("ref.ckpt");
    let out = std::process::Command::new(bin())
        .args([
            "chase",
            rules.to_str().unwrap(),
            "--steps",
            &total,
            "--checkpoint",
            reference_ckpt.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(10));

    let recovered = std::fs::read_to_string(&ckpt).unwrap();
    let reference = std::fs::read_to_string(&reference_ckpt).unwrap();
    assert_eq!(recovered, reference, "post-recovery state must be bit-identical");
}

/// Deterministic simulated kill in the real binary, at the nastiest spot:
/// between the last journal append and the snapshot rename. The interrupted
/// run must refuse to restart without `--recover`, and the recover → continue
/// relay must be bit-identical to one uninterrupted invocation.
#[test]
fn injected_kill_between_append_and_rename_relays_bit_identical() {
    let dir = scratch("injected-kill");
    let rules = dir.join("ex1.rules");
    std::fs::write(&rules, "person(bob). person(X) -> hasFather(X, Y), person(Y).\n").unwrap();
    let ckpt = dir.join("i.ckpt");
    let journal = dir.join("i.journal");

    // Kill exactly at the first periodic snapshot's rename.
    let out = std::process::Command::new(bin())
        .env(failpoint::ENV_VAR, "snapshot.rename=exit:9@1")
        .args([
            "chase",
            rules.to_str().unwrap(),
            "--steps",
            "90",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--checkpoint-every",
            "40",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(9), "the injected kill fires");
    assert!(!ckpt.exists(), "the rename never happened");

    // Without --recover the binary must refuse, not truncate the journal.
    let out = std::process::Command::new(bin())
        .args([
            "chase",
            rules.to_str().unwrap(),
            "--steps",
            "90",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--recover"),
        "refusal must point at --recover"
    );

    // Recover, continue, compare with one uninterrupted run.
    let out = std::process::Command::new(bin())
        .args([
            "chase",
            rules.to_str().unwrap(),
            "--steps",
            "90",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--recover",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let out = std::process::Command::new(bin())
        .args([
            "chase",
            rules.to_str().unwrap(),
            "--steps",
            "90",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(10));

    let reference_ckpt = dir.join("ref.ckpt");
    let out = std::process::Command::new(bin())
        .args([
            "chase",
            rules.to_str().unwrap(),
            "--steps",
            "90",
            "--checkpoint",
            reference_ckpt.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(10));
    assert_eq!(
        std::fs::read_to_string(&ckpt).unwrap(),
        std::fs::read_to_string(&reference_ckpt).unwrap(),
        "kill-at-rename relay must be bit-identical"
    );
}

/// `CheckpointError` messages from the hardened parser carry line numbers,
/// and trailing garbage after the final section is rejected.
#[test]
fn hardened_checkpoint_parser_reports_locations() {
    let mut program =
        Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap();
    let initial = seed(&mut program);
    let mut m = ChaseMachine::new(
        &program,
        ChaseConfig::of(ChaseVariant::SemiOblivious),
        initial,
    );
    m.run(&budget(5));
    let text = state_text(&m);

    // Round-trips (the CRC trailer is parsed and re-emitted identically).
    let again = Checkpoint::from_text(&text).unwrap().to_text().unwrap();
    assert_eq!(text, again);

    // Trailing garbage is rejected with its location.
    let garbage = format!("{text}surprise\n");
    let err = Checkpoint::from_text(&garbage).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("trailing garbage"), "{msg}");
    assert!(msg.contains(&format!("line {}", text.lines().count() + 1)), "{msg}");

    // A malformed mid-file line is reported with its line number.
    let broken = text.replacen("rng ", "rngX ", 1);
    let err = Checkpoint::from_text(&broken).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("line 6"), "{msg}");

    // A flipped byte anywhere in the body trips the CRC even if the line
    // still parses.
    let flipped = text.replacen("stats ", "stats 9", 1);
    let err = Checkpoint::from_text(&flipped).unwrap_err();
    assert!(matches!(err, CheckpointError::Parse(_)), "{err}");

    // EOF mid-file names the line it expected.
    let truncated: String =
        text.lines().take(4).map(|l| format!("{l}\n")).collect();
    let err = Checkpoint::from_text(&truncated).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("line 5") && msg.contains("end of file"), "{msg}");
}
