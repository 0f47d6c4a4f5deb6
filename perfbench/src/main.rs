//! chasekit benchmark: four workloads measured end to end, and a traced
//! run that times each layer from outside through its public functions.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones of the named workload; with `--trace 1`
//! they are every per-layer metric. See README.md.

mod corpus;
mod inputs;
mod materialize;
mod measure;
mod serve;
mod span;
mod update;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use measure::{median, Samples};
use span::Tracer;

/// Workload names. `lubm-update` is held back from BENCHMARK.json: its
/// correctness gate fails on the current engine (README.md, "Held back").
const WORKLOADS: [&str; 4] = [
    "lubm-materialize",
    "termination-corpus",
    "serve-durable",
    "lubm-update",
];

/// The workloads BENCHMARK.json lists, in the order the traced run
/// visits them.
const KEPT: [&str; 3] = ["lubm-materialize", "termination-corpus", "serve-durable"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Where runs leave span files and scratch stores, relative to the
/// working directory (the root of the checkout).
pub const OUT_DIR: &str = ".bench_out";

/// One per-layer metric.
#[derive(Debug, Clone)]
pub struct Layer {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Layer {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Layer {
        Layer { name, value, unit }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Set-up times in milliseconds, one per set-up.
    pub setup_ms: Vec<f64>,
    /// Latencies of the workload's primary operation, in milliseconds.
    pub primary: Samples,
    /// Latencies of its secondary operation, in milliseconds.
    pub secondary: Samples,
    /// Operations completed, the numerator of `ops_per_s`.
    pub completed: u64,
    /// Seconds the operations were measured over.
    pub measured_s: f64,
    /// Process peak RSS (`VmHWM`) at the end of the measured region.
    pub peak_rss: u64,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Layer>,
    /// The first correctness check that failed, if any.
    pub gate_error: Option<String>,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records a failed correctness check; the first one is reported.
    pub fn fail_gate(&mut self, msg: String) {
        self.gate_error.get_or_insert(msg);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    setups: usize,
    tracer: &mut Tracer,
) -> RunResult {
    match name {
        "lubm-materialize" => materialize::execute(seed, seconds, setups, tracer),
        "termination-corpus" => corpus::execute(seed, seconds, setups, tracer),
        "serve-durable" => serve::execute(seed, seconds, setups, tracer),
        "lubm-update" => update::execute(seed, seconds, setups, tracer),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// The end-to-end metrics, in BENCHMARK.json order. Tails are printed in
/// each workload's notes but are not among them: on a shared host they
/// measure how often its neighbours stall the run, and moved by a fifth
/// to a third between sets of runs of the same code.
fn end_to_end(r: &RunResult) -> Vec<Layer> {
    vec![
        Layer::new("setup_s", median(&r.setup_ms) / 1e3, "s"),
        Layer::new("peak_rss_mb", r.peak_rss as f64 / (1024.0 * 1024.0), "MB"),
        Layer::new("op_p50_ms", r.primary.median(), "ms"),
        Layer::new("ops_per_s", r.completed as f64 / r.measured_s, "1/s"),
        Layer::new("op2_p50_ms", r.secondary.median(), "ms"),
    ]
}

/// The `metrics` object. A metric without samples (only possible when
/// operations failed, which makes the run incorrect) prints as 0 so the
/// line stays valid JSON.
fn json_metrics(metrics: &[Layer]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Where a traced workload's time went: each span name's total self
/// time, and its share of the time all spans cover.
fn print_self_times(workload: &str, tracer: &Tracer) {
    let by_name = tracer.self_ms_by_name();
    let total: f64 = by_name.values().flatten().sum();
    let mut rows: Vec<(&str, usize, f64)> = by_name
        .iter()
        .map(|(n, v)| (*n, v.len(), v.iter().sum::<f64>()))
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    for (span, count, self_ms) in rows {
        println!(
            "{workload}  self time  {span:<36} {count:>8} spans {self_ms:>12.3} ms {:>6.2}%",
            100.0 * self_ms / total
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    let base = Instant::now();
    let mut spans = Tracer::new(args.trace, base);
    let mut attempted = 0;
    let mut failed = 0;
    let mut gates: Vec<(String, Option<String>)> = Vec::new();
    let metrics: Vec<Layer>;

    if !args.trace {
        let mut tracer = Tracer::new(false, base);
        let r = run_workload(&args.workload, args.seed, args.seconds, SETUPS, &mut tracer);
        attempted += r.attempted;
        failed += r.failed;
        metrics = end_to_end(&r);
        for note in &r.notes {
            println!("{}  {note}", args.workload);
        }
        gates.push((args.workload.clone(), r.gate_error));
    } else {
        // Every per-layer metric belongs to the workload that exercises its
        // layer, so the traced run visits every kept workload (and the named
        // one, if it is held back), sharing the time equally with an
        // untraced run of the named workload: its traced-over-untraced p50
        // is the tracing overhead.
        let mut visit: Vec<&str> = KEPT.to_vec();
        if !visit.contains(&args.workload.as_str()) {
            visit.push(&args.workload);
        }
        let slice = args.seconds / (visit.len() + 1) as f64;
        let mut untraced = Tracer::new(false, base);
        let plain = run_workload(&args.workload, args.seed, slice, 1, &mut untraced);
        attempted += plain.attempted;
        failed += plain.failed;
        gates.push((format!("{} (untraced)", args.workload), plain.gate_error));
        let mut layers = Vec::new();
        let mut overhead = f64::NAN;
        for name in visit {
            let mut tracer = Tracer::new(true, base);
            let r = run_workload(name, args.seed, slice, 1, &mut tracer);
            attempted += r.attempted;
            failed += r.failed;
            if name == args.workload {
                overhead = r.primary.median() / plain.primary.median();
            }
            for note in &r.notes {
                println!("{name}  {note}");
            }
            print_self_times(name, &tracer);
            layers.extend(r.layers);
            gates.push((name.to_string(), r.gate_error));
            spans.absorb(tracer);
        }
        println!(
            "{}  tracing overhead: traced p50 / untraced p50 of the primary operation = {overhead:.4}",
            args.workload
        );
        layers.push(Layer::new("bench.trace_overhead_ratio", overhead, "ratio"));
        metrics = layers;
        let path = out_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    let mut correct = true;
    for (name, gate) in &gates {
        match gate {
            None => println!("{name}  correctness gate: pass"),
            Some(e) => {
                correct = false;
                println!("{name}  correctness gate: FAIL: {e}");
            }
        }
    }
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        correct = false;
        println!("metric {} was not measured (no samples)", bad.name);
    }
    if attempted == 0 {
        correct = false;
        println!("no operation was attempted");
    }
    if correct {
        for m in &metrics {
            println!("{:<44} {:>14.6} {}", m.name, m.value, m.unit);
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        attempted,
        failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
