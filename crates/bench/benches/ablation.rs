//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **Delta-driven trigger discovery** (re-match only bodies touching the
//!   new atom) vs naive full re-matching after every step.
//! * **Deferred certificate re-checks** in the guarded decider (retry pairs
//!   when their missing side condition arrives) vs fresh scans only — this
//!   one trades time for *completeness*, so the bench also reports how many
//!   of the sample sets become undecidable without it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use chasekit_core::{Instance, Program};
use chasekit_datagen::{random_guarded, RandomConfig};
use chasekit_engine::{Budget, ChaseConfig, ChaseMachine, ChaseVariant};
use chasekit_termination::{decide_guarded, GuardedConfig, GuardedVerdict};

fn transitive_closure_program(n: usize) -> Program {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("e(v{i}, v{}).\n", i + 1));
    }
    src.push_str("e(X, Y) -> t(X, Y). e(X, Y), t(Y, Z) -> t(X, Z).\n");
    Program::parse(&src).unwrap()
}

fn bench_delta_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/trigger_discovery");
    group.sample_size(10);
    for n in [16usize, 32] {
        let program = transitive_closure_program(n);
        for naive in [false, true] {
            let label = format!("{}-{}", if naive { "naive" } else { "delta" }, n);
            group.bench_with_input(BenchmarkId::from_parameter(label), &program, |b, p| {
                b.iter(|| {
                    let cfg = if naive {
                        ChaseConfig::of(ChaseVariant::SemiOblivious).with_naive_matching()
                    } else {
                        ChaseConfig::of(ChaseVariant::SemiOblivious)
                    };
                    let initial = Instance::from_atoms(p.facts().iter().cloned());
                    let mut m = ChaseMachine::new(p, cfg, initial);
                    let _ = m.run(&Budget::default());
                    black_box(m.instance().len())
                })
            });
        }
    }
    group.finish();
}

fn bench_deferred_rechecks(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/deferred_rechecks");
    group.sample_size(10);
    let cfg = RandomConfig::default();
    let programs: Vec<_> = (0..20).map(|s| random_guarded(&cfg, 40_000 + s)).collect();

    for deferred in [true, false] {
        let label = if deferred { "with_rechecks" } else { "fresh_scans_only" };
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut decided = 0u32;
                for p in &programs {
                    let mut gcfg = GuardedConfig::new(ChaseVariant::SemiOblivious);
                    gcfg.defer_rechecks = deferred;
                    gcfg.max_applications = 2_000;
                    gcfg.max_atoms = 20_000;
                    if let Ok(r) = decide_guarded(p, gcfg) {
                        decided += r.verdict.terminates().is_some() as u32;
                    }
                }
                black_box(decided)
            })
        });
    }

    // Completeness impact (reported once; not a timing measurement).
    let count = |deferred: bool| {
        programs
            .iter()
            .filter(|p| {
                let mut gcfg = GuardedConfig::new(ChaseVariant::SemiOblivious);
                gcfg.defer_rechecks = deferred;
                gcfg.max_applications = 2_000;
                gcfg.max_atoms = 20_000;
                matches!(
                    decide_guarded(p, gcfg).map(|r| r.verdict),
                    Ok(GuardedVerdict::Unknown)
                )
            })
            .count()
    };
    eprintln!(
        "ablation/deferred_rechecks: unknowns with rechecks = {}, without = {}",
        count(true),
        count(false)
    );
    group.finish();
}

/// Thread-count ablation for the parallel-round driver on the E4 guarded
/// family: the same chases at 1, 2, and 4 workers. Results are bit-identical
/// by construction, so this row isolates the cost/benefit of fan-out alone
/// (see `benches/parallel_chase.rs` for the full scaling sweep + JSON).
fn bench_parallel_rounds(c: &mut Criterion) {
    use chasekit_core::CriticalInstance;

    let mut group = c.benchmark_group("ablation/parallel_rounds");
    group.sample_size(10);
    let cfg = RandomConfig { predicates: 4, max_arity: 3, rules: 4, ..Default::default() };
    let programs: Vec<Program> = (0..8)
        .map(|s| {
            let mut p = random_guarded(&cfg, 90_000 + s);
            let _ = CriticalInstance::build(&mut p);
            p
        })
        .collect();
    let budget = Budget { max_applications: 800, max_atoms: 20_000, ..Budget::unlimited() };

    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &threads| {
            b.iter(|| {
                let mut atoms = 0usize;
                for p in &programs {
                    let mut frozen = p.clone();
                    let initial = CriticalInstance::build(&mut frozen).instance;
                    let mut m = ChaseMachine::new(
                        &frozen,
                        ChaseConfig::of(ChaseVariant::SemiOblivious),
                        initial,
                    );
                    let _ = m.run_parallel(&budget, threads);
                    atoms += m.instance().len();
                }
                black_box(atoms)
            })
        });
    }
    group.finish();
}

/// Observability ablation on the E4 guarded family: the same chases with
/// tracing disabled (the default `Option<TraceHandle>` = `None` path), with
/// a JSONL sink writing to `io::sink()`, and with the in-memory metrics
/// registry. The disabled row must sit within noise of the pre-trace
/// baseline — the handle is one `Option` check on the hot path.
fn bench_trace_overhead(c: &mut Criterion) {
    use chasekit_core::CriticalInstance;
    use chasekit_engine::{JsonlSink, MetricsSink};

    let mut group = c.benchmark_group("ablation/trace_overhead");
    group.sample_size(10);
    let cfg = RandomConfig { predicates: 4, max_arity: 3, rules: 4, ..Default::default() };
    let programs: Vec<Program> = (0..8)
        .map(|s| {
            let mut p = random_guarded(&cfg, 90_000 + s);
            let _ = CriticalInstance::build(&mut p);
            p
        })
        .collect();
    let budget = Budget { max_applications: 800, max_atoms: 20_000, ..Budget::unlimited() };

    for mode in ["disabled", "jsonl", "metrics"] {
        group.bench_with_input(BenchmarkId::from_parameter(mode), &mode, |b, &mode| {
            b.iter(|| {
                let mut atoms = 0usize;
                for p in &programs {
                    let mut frozen = p.clone();
                    let initial = CriticalInstance::build(&mut frozen).instance;
                    let cfg = ChaseConfig::of(ChaseVariant::SemiOblivious);
                    let mut m = match mode {
                        "jsonl" => ChaseMachine::new_with_trace(
                            &frozen,
                            cfg,
                            initial,
                            Box::new(JsonlSink::new(std::io::sink(), &frozen)),
                        ),
                        "metrics" => ChaseMachine::new_with_trace(
                            &frozen,
                            cfg,
                            initial,
                            Box::new(MetricsSink::new(&frozen)),
                        ),
                        _ => ChaseMachine::new(&frozen, cfg, initial),
                    };
                    let _ = m.run(&budget);
                    atoms += m.instance().len();
                }
                black_box(atoms)
            })
        });
    }
    group.finish();
}

/// Durability ablation on the E4 guarded family: the same chases with no
/// journal, with the write-ahead journal appending every admitted trigger,
/// and with the full durable loop (journal + atomic snapshot every 200
/// applications). The no-journal row also measures the disabled-failpoint
/// fast path — every hook on the hot path is behind one thread-local
/// load and a `None` check. Medians land in `BENCH_journal_overhead.json` at the repo root.
fn bench_journal_overhead(c: &mut Criterion) {
    use chasekit_core::CriticalInstance;
    use chasekit_engine::{write_snapshot_atomic, JournalWriter};
    use std::time::Instant;

    let mut group = c.benchmark_group("ablation/journal_overhead");
    group.sample_size(10);
    let cfg = RandomConfig { predicates: 4, max_arity: 3, rules: 4, ..Default::default() };
    let programs: Vec<Program> = (0..8)
        .map(|s| {
            let mut p = random_guarded(&cfg, 90_000 + s);
            let _ = CriticalInstance::build(&mut p);
            p
        })
        .collect();
    let budget = Budget { max_applications: 800, max_atoms: 20_000, ..Budget::unlimited() };
    let dir = std::env::temp_dir().join("chasekit-bench-journal");
    std::fs::create_dir_all(&dir).expect("bench scratch dir");

    // Group-commit batch size per mode: `flushN` rows append through the
    // same WAL but batch N records per write(2)+fsync.
    let flush_of = |mode: &str| -> u64 {
        mode.strip_prefix("flush").map_or(1, |n| n.parse().expect("flush mode"))
    };
    let sweep = |mode: &str| -> usize {
        let mut atoms = 0usize;
        for p in &programs {
            let mut frozen = p.clone();
            let initial = CriticalInstance::build(&mut frozen).instance;
            let cfg = ChaseConfig::of(ChaseVariant::SemiOblivious);
            let mut m = ChaseMachine::new(&frozen, cfg, initial);
            let journal_path = dir.join("bench.journal");
            if mode != "off" {
                let _ = std::fs::remove_file(&journal_path);
                m.set_journal(
                    JournalWriter::for_machine(&journal_path, &m)
                        .expect("journal opens")
                        .with_flush_every(flush_of(mode)),
                );
            }
            if mode == "durable" {
                let ckpt = dir.join("bench.ckpt");
                loop {
                    let target = m.stats().applications + 200;
                    let leg = Budget { max_applications: target, ..budget };
                    let stop = m.run(&leg);
                    let text = m.snapshot().to_text().expect("untracked snapshot");
                    let mut j = m.take_journal().expect("journal installed");
                    j.sync().expect("journal syncs");
                    write_snapshot_atomic(&ckpt, &text).expect("snapshot lands");
                    if stop != chasekit_engine::StopReason::Applications
                        || target >= budget.max_applications
                    {
                        break;
                    }
                    m.set_journal(
                        JournalWriter::for_machine(&journal_path, &m).expect("journal reopens"),
                    );
                }
            } else {
                let _ = m.run(&budget);
            }
            atoms += m.instance().len();
        }
        atoms
    };

    for mode in ["off", "journal", "durable"] {
        group.bench_with_input(BenchmarkId::from_parameter(mode), &mode, |b, &mode| {
            b.iter(|| black_box(sweep(mode)))
        });
    }
    group.finish();

    // Group-commit ablation: the same journaled sweep at batch sizes 1, 8,
    // and 64 (`--journal-flush-every`). Larger batches amortize the
    // write(2) per record; crash-safety is unchanged (a torn batch is a
    // valid journal prefix, see tests/crash_recovery.rs).
    let mut group = c.benchmark_group("ablation/journal_flush");
    group.sample_size(10);
    for mode in ["journal", "flush8", "flush64"] {
        let label = if mode == "journal" { "flush1" } else { mode };
        group.bench_with_input(BenchmarkId::from_parameter(label), &mode, |b, &mode| {
            b.iter(|| black_box(sweep(mode)))
        });
    }
    group.finish();

    // Independent medians for the standalone JSON record, in the same shape
    // as BENCH_parallel_chase.json.
    let median = |mode: &str| -> u64 {
        let mut runs: Vec<u64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                black_box(sweep(mode));
                start.elapsed().as_micros() as u64
            })
            .collect();
        runs.sort_unstable();
        runs[runs.len() / 2]
    };
    let rows: Vec<(&str, u64)> = ["off", "journal", "flush8", "flush64", "durable"]
        .iter()
        .map(|&m| (m, median(m)))
        .collect();
    let base = rows[0].1.max(1) as f64;
    let rows_json: Vec<String> = rows
        .iter()
        .map(|(m, us)| {
            format!(
                "    {{\"mode\": \"{m}\", \"median_us\": {us}, \"overhead_vs_off\": {:.3}}}",
                *us as f64 / base
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"journal_overhead\",\n  \"workload\": \"e4-guarded critical-instance chase, 8 seeds, semi-oblivious\",\n  \"budget\": {{\"max_applications\": 800, \"max_atoms\": 20000}},\n  \"modes\": {{\"off\": \"no journal (failpoints compiled in, disabled)\", \"journal\": \"WAL append per admitted trigger (flush every 1)\", \"flush8\": \"WAL with group commit, 8 records per write\", \"flush64\": \"WAL with group commit, 64 records per write\", \"durable\": \"WAL + fsync'd atomic snapshot every 200 applications\"}},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows_json.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_journal_overhead.json");
    std::fs::write(out, &json).expect("write BENCH_journal_overhead.json");
    eprintln!("journal_overhead: wrote {out}");
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_delta_vs_naive,
    bench_deferred_rechecks,
    bench_parallel_rounds,
    bench_trace_overhead,
    bench_journal_overhead
);
criterion_main!(benches);
