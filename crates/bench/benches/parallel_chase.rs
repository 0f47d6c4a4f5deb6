//! Parallel-round chase scaling on the E4 guarded family.
//!
//! Chases a random guarded population (the E4 generator dials) on critical
//! instances at 1, 2, 4, and 8 worker threads, checks that every threaded
//! run is bit-identical to the sequential oracle, and records wall-clock
//! medians in `BENCH_parallel_chase.json` at the repo root. The host core
//! count decides what gets recorded: scaling is physically bounded by it,
//! so on a single-core host the multi-thread sweep and the t4 speedup are
//! **skipped** (marked `"skipped": "single-core host"`) rather than
//! reported as numbers that read like a regression. A single-core host
//! instead records `single_core_t2_overhead` — the t2/t1 ratio, which
//! isolates pure orchestration cost (the persistent pool keeps it near 1;
//! the old per-round spawn made it 16×).
//!
//! The file also carries two ablation rows. `ablation/indexed_matching`
//! compares the sequential median against a naive-matching sequential
//! median (`ChaseConfig::with_naive_matching`: re-match every rule from
//! scratch after each application) measured in the same run on the same
//! host — what delta discovery over the indexed postings buys.
//! `ablation/incremental` times a single-fact DRed retraction
//! (cone overdelete + re-derivation + completion) on a saturated machine
//! against re-chasing the edited instance from scratch — the case for the
//! incremental update path over `chasekit update`'s alternative of a full
//! re-run.
//!
//! Set `CHASEKIT_BENCH_QUICK=1` for a smoke run (fewer seeds, smaller
//! budget, fewer repeats): it exercises every code path and still writes
//! the JSON (marked `"quick": true`) without touching the committed
//! numbers' workload — CI uses it to catch bench-plumbing breakage.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use chasekit_core::{CriticalInstance, Instance, Program};
use chasekit_datagen::{random_guarded, RandomConfig};
use chasekit_engine::{Budget, ChaseConfig, ChaseMachine, ChaseVariant, Edit};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn indexed() -> ChaseConfig {
    ChaseConfig::of(ChaseVariant::SemiOblivious)
}

fn quick() -> bool {
    std::env::var("CHASEKIT_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The E4 population dials, biased toward wide guards so trigger discovery
/// (the parallel phase) dominates the round time.
fn population() -> Vec<Program> {
    let cfg = RandomConfig { predicates: 4, max_arity: 3, rules: 4, ..Default::default() };
    let seeds = if quick() { 2 } else { 12 };
    (0..seeds)
        .map(|seed| {
            let mut p = random_guarded(&cfg, 90_000 + seed);
            // Freeze the critical-instance constant into the program now so
            // every timed run chases the identical input.
            let _ = CriticalInstance::build(&mut p);
            p
        })
        .collect()
}

fn budget() -> Budget {
    let (apps, atoms) = if quick() { (200, 5_000) } else { (1_500, 30_000) };
    Budget { max_applications: apps, max_atoms: atoms, ..Budget::unlimited() }
}

/// One full chase of `program` under `config` at `threads`; returns
/// (applications, atoms) as the identity fingerprint.
fn chase_once(program: &Program, config: ChaseConfig, threads: usize) -> (u64, usize) {
    let mut p = program.clone();
    let initial = CriticalInstance::build(&mut p).instance;
    let mut m = ChaseMachine::new(&p, config, initial);
    let _ = m.run_parallel(&budget(), threads);
    (m.stats().applications, m.instance().len())
}

/// Chases the whole population once; returns total wall-clock microseconds.
fn sweep_us(programs: &[Program], config: ChaseConfig, threads: usize) -> u64 {
    let start = Instant::now();
    for p in programs {
        black_box(chase_once(p, config, threads));
    }
    start.elapsed().as_micros() as u64
}

/// Median of repeated sweeps.
fn median_us(programs: &[Program], config: ChaseConfig, threads: usize) -> u64 {
    let repeats = if quick() { 3 } else { 5 };
    let mut runs: Vec<u64> =
        (0..repeats).map(|_| sweep_us(programs, config, threads)).collect();
    runs.sort_unstable();
    runs[runs.len() / 2]
}

/// Times a one-fact retraction repaired in place against a from-scratch
/// re-chase of the same edited instance, summed over the population.
/// Returns `(retract_repair_us, full_rechase_us)` medians. The saturating
/// setup chase is untimed — both sides start from the same chased state
/// and the question is purely "repair the cone, or throw the instance away
/// and re-derive everything".
fn incremental_vs_full_us(programs: &[Program]) -> (u64, u64) {
    let repeats = if quick() { 3 } else { 5 };
    let mut inc_runs: Vec<u64> = Vec::new();
    let mut full_runs: Vec<u64> = Vec::new();
    for _ in 0..repeats {
        let mut inc_total = 0u64;
        let mut full_total = 0u64;
        for program in programs {
            let mut p = program.clone();
            let initial = CriticalInstance::build(&mut p).instance;
            let victim = initial.iter().next().map(|(_, a)| a.to_atom()).expect("non-empty");
            let cfg = ChaseConfig::of(ChaseVariant::SemiOblivious).with_derivation();
            let mut m = ChaseMachine::new(&p, cfg, initial.clone());
            let _ = m.run(&budget());

            // Timed: DRed repair under the *same* cumulative budget as the
            // initial run. A retraction's replay re-fires with surviving
            // support inside the repair itself, so no extra application
            // headroom is owed — granting more would have the completion
            // chase push the frontier further than the full re-chase's cap
            // and time new derivation work, not the repair.
            let start = Instant::now();
            m.apply_edits(&[Edit::Retract(victim.clone())], &budget()).expect("repair");
            black_box(m.instance().len());
            inc_total += start.elapsed().as_micros() as u64;

            // Timed: chase the edited instance from scratch under the same
            // config (derivation tracking on, so a later edit would again
            // be repairable — the honest apples-to-apples alternative).
            let edited = Instance::from_atoms(
                initial.iter().map(|(_, a)| a.to_atom()).filter(|a| *a != victim),
            );
            let cfg = ChaseConfig::of(ChaseVariant::SemiOblivious).with_derivation();
            let start = Instant::now();
            let mut full = ChaseMachine::new(&p, cfg, edited);
            let _ = full.run(&budget());
            black_box(full.instance().len());
            full_total += start.elapsed().as_micros() as u64;
        }
        inc_runs.push(inc_total);
        full_runs.push(full_total);
    }
    inc_runs.sort_unstable();
    full_runs.sort_unstable();
    (inc_runs[inc_runs.len() / 2], full_runs[full_runs.len() / 2])
}

fn bench_parallel_chase(c: &mut Criterion) {
    let programs = population();
    let host_cpus =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let multi_core = host_cpus > 1;

    // Bit-identity sanity before timing anything: every thread count must
    // land on the identical (applications, atoms) fingerprint — this runs
    // on every host, single-core included; only the *timings* are skipped
    // there.
    let oracle: Vec<(u64, usize)> =
        programs.iter().map(|p| chase_once(p, indexed(), 1)).collect();
    for &threads in &THREADS[1..] {
        for (p, expect) in programs.iter().zip(&oracle) {
            assert_eq!(&chase_once(p, indexed(), threads), expect, "diverged at {threads} threads");
        }
    }

    let timed_threads: &[usize] = if multi_core { &THREADS } else { &THREADS[..1] };
    let mut group = c.benchmark_group("parallel_chase/e4_guarded");
    group.sample_size(10);
    for &threads in timed_threads {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| b.iter(|| sweep_us(&programs, indexed(), threads)),
        );
    }
    group.finish();

    // Honest medians for the JSON record (criterion's stub reports its own
    // numbers; these are measured independently so the file stands alone).
    let medians: Vec<(usize, u64)> =
        timed_threads.iter().map(|&t| (t, median_us(&programs, indexed(), t))).collect();
    let t1 = medians[0].1.max(1);

    // Sweep rows + t4 speedup: only meaningful with real cores to scale
    // onto. On a single-core host they are replaced by a skip marker and a
    // t2/t1 overhead diagnostic (pure orchestration cost — the number the
    // persistent pool exists to crush).
    let (sweep_json, speedup_json) = if multi_core {
        let rows: Vec<String> = medians
            .iter()
            .map(|(t, us)| format!("    {{\"threads\": {t}, \"median_us\": {us}}}"))
            .collect();
        let t4 = medians.iter().find(|(t, _)| *t == 4).map(|&(_, us)| us.max(1)).unwrap();
        let speedup = t1 as f64 / t4 as f64;
        (
            format!("  \"sweeps\": [\n{}\n  ],\n", rows.join(",\n")),
            format!("  \"speedup_t4_vs_t1\": {speedup:.3},\n"),
        )
    } else {
        let t2 = median_us(&programs, indexed(), 2).max(1);
        let overhead = t2 as f64 / t1 as f64;
        (
            [
                format!("  \"sweeps\": [\n    {{\"threads\": 1, \"median_us\": {t1}}}\n  ],\n"),
                "  \"multi_thread_sweep\": {\"skipped\": \"single-core host\"},\n".to_string(),
                format!("  \"single_core_t2_overhead\": {overhead:.3},\n"),
            ]
            .concat(),
            "  \"speedup_t4_vs_t1\": {\"skipped\": \"single-core host\"},\n".to_string(),
        )
    };

    // Delta discovery against its oracle: the sequential median vs. a
    // naive-matching sequential median from this run, same population and
    // budget. Plus the incremental-update case: repairing a one-fact
    // retraction in place vs. re-chasing the edited instance from scratch.
    let naive_t1 = median_us(&programs, indexed().with_naive_matching(), 1).max(1);
    let vs_naive = naive_t1 as f64 / t1 as f64;
    let (inc_us, full_us) = incremental_vs_full_us(&programs);
    let inc_speedup = full_us.max(1) as f64 / inc_us.max(1) as f64;
    let ablation_json = format!(
        "  \"ablation\": {{\"indexed_matching\": {{\"naive_t1_us\": {naive_t1}, \
         \"indexed_t1_us\": {t1}, \"speedup_vs_naive\": {vs_naive:.3}}}, \
         \"incremental\": {{\"retract_repair_us\": {inc_us}, \
         \"full_rechase_us\": {full_us}, \
         \"speedup_vs_full_rechase\": {inc_speedup:.3}}}}},\n"
    );

    let workload = if quick() {
        "e4-guarded critical-instance chase, 2 seeds, semi-oblivious (QUICK smoke — numbers not comparable)"
    } else {
        "e4-guarded critical-instance chase, 12 seeds, semi-oblivious"
    };
    let budget_json = if quick() {
        "{\"max_applications\": 200, \"max_atoms\": 5000}"
    } else {
        "{\"max_applications\": 1500, \"max_atoms\": 30000}"
    };
    let json = format!(
        "{{\n  \"bench\": \"parallel_chase\",\n  \"workload\": \"{workload}\",\n  \
         \"budget\": {budget_json},\n  \"quick\": {},\n  \"host_cpus\": {host_cpus},\n  \
         \"bit_identical_across_threads\": true,\n  \
         \"note\": \"speedup is bounded by host_cpus; single-core hosts skip the sweep and record pure t2 orchestration overhead instead\",\n\
         {sweep_json}{speedup_json}{ablation_json}  \"unit\": \"us\"\n}}\n",
        quick()
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel_chase.json");
    std::fs::write(out, &json).expect("write BENCH_parallel_chase.json");
    eprintln!(
        "parallel_chase: host_cpus = {host_cpus}, t1 = {t1}us, naive t1 = {naive_t1}us \
         ({vs_naive:.3}x)"
    );
    eprintln!(
        "parallel_chase: retract+repair = {inc_us}us vs full re-chase = {full_us}us \
         ({inc_speedup:.3}x)"
    );
    eprintln!("parallel_chase: wrote {out}");
}

criterion_group!(benches, bench_parallel_chase);
criterion_main!(benches);
