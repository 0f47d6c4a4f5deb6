//! `lubm-materialize`: parse → load → chase to saturation → render, under
//! the semi-oblivious and then the restricted variant, one thread, no
//! journal. The data-scale path a `chasekit chase rules.txt` user runs.

use std::collections::HashMap;
use std::time::Instant;

use chasekit_core::display::{instance_to_string, program_to_string};
use chasekit_core::{Instance, Program};
use chasekit_engine::{is_model, Budget, ChaseConfig, ChaseMachine, ChaseStats, ChaseVariant};

use crate::inputs::{sized_database, terminating_lubm};
use crate::measure::{
    digest, median, mix, ms_since, peak_rss_bytes, rss_bytes, timed, trim_heap, Samples,
};
use crate::span::Tracer;
use crate::{Layer, RunResult};

/// Distinct programs per run. Each run cycles through them, so its
/// medians average over several rule sets instead of hanging on one. More
/// and smaller passes would put the tail at a higher percentile, where a
/// few seconds of a slow shared host decide it.
const PROGRAMS: usize = 8;
/// Atoms in each saturated instance. Every program has one database per
/// variant, sized for that variant: the restricted variant skips a share
/// of the triggers that differs from program to program, and with one
/// database for both its passes differed by up to 1.6× within one seed.
const TARGET_ATOMS: usize = 150_000;
const VARIANTS: [ChaseVariant; 2] = [ChaseVariant::SemiOblivious, ChaseVariant::Restricted];

struct Input {
    /// Per program, the input text for each variant, in `VARIANTS` order.
    texts: Vec<[String; 2]>,
}

fn setup(seed: u64) -> Input {
    let texts = terminating_lubm(seed, 0x4d41_5400, PROGRAMS)
        .into_iter()
        .enumerate()
        .map(|(i, program)| {
            VARIANTS.map(|variant| {
                program_to_string(&sized_database(
                    &program,
                    TARGET_ATOMS,
                    variant,
                    mix(seed, i as u64),
                ))
            })
        })
        .collect();
    Input { texts }
}

/// What one pass produced, for the gate and the layer counters.
struct Pass {
    program: Program,
    instance: Instance,
    stats: ChaseStats,
    rendered: String,
    saturated: bool,
    run_ms: f64,
}

/// One pass: parse → load → chase → render, each call in its own span.
fn pass(text: &str, variant: ChaseVariant, tracer: &mut Tracer) -> Result<Pass, String> {
    let program = tracer
        .span("core.parser.parse", |_| Program::parse(text))
        .map_err(|e| format!("parse: {e}"))?;
    let initial = tracer.span("core.instance.load", |_| {
        Instance::from_atoms(program.facts().iter().cloned())
    });
    let mut machine = tracer.span("engine.chase.init", |_| {
        ChaseMachine::new(&program, ChaseConfig::of(variant), initial)
    });
    let (stop, run_ms) =
        timed(|| tracer.span("engine.chase.run", |_| machine.run(&Budget::unlimited())));
    let rendered = tracer.span("core.display.render", |_| {
        instance_to_string(machine.instance(), &program.vocab)
    });
    let stats = machine.stats().clone();
    let instance = machine.into_instance();
    Ok(Pass {
        program,
        instance,
        stats,
        rendered,
        saturated: stop.is_saturated(),
        run_ms,
    })
}

/// The gate for one pass: a saturated result that is a model of the
/// program, rendered to the same text as every earlier pass of the same
/// program and variant.
pub fn check_pass(
    program: &Program,
    instance: &Instance,
    saturated: bool,
    digest_now: u64,
    digest_first: Option<u64>,
) -> Result<(), String> {
    if !saturated {
        return Err("chase stopped before saturation".into());
    }
    match digest_first {
        None if !is_model(program, instance) => Err("result is not a model of the program".into()),
        Some(first) if first != digest_now => Err(format!(
            "rendered digest {digest_now:016x} differs from the first pass {first:016x}"
        )),
        _ => Ok(()),
    }
}

pub fn execute(seed: u64, seconds: f64, setups: usize, tracer: &mut Tracer) -> RunResult {
    let mut r = RunResult::default();
    let mut input = None;
    for _ in 0..setups {
        let (i, ms) = timed(|| setup(seed));
        r.setup_ms.push(ms);
        input = Some(i);
    }
    let input = input.expect("at least one set-up");

    let mut digests: HashMap<(usize, ChaseVariant), u64> = HashMap::new();
    let mut stats: Vec<(ChaseVariant, ChaseStats, f64)> = Vec::new();
    let mut max_atoms = 0usize;
    let mut busy_ms = 0.0;
    let mut op = 0usize;
    while busy_ms < seconds * 1e3 {
        let idx = (op / 2) % PROGRAMS;
        let v = op % 2;
        let variant = VARIANTS[v];
        op += 1;
        r.attempted += 1;
        tracer.next_op();
        let start = Instant::now();
        let result = tracer.span("bench.materialize.op", |t| {
            pass(&input.texts[idx][v], variant, t)
        });
        let ms = ms_since(start);
        busy_ms += ms;
        let p = match result {
            Ok(x) => x,
            Err(e) => {
                r.failed += 1;
                r.fail_gate(e);
                continue;
            }
        };
        if variant == ChaseVariant::SemiOblivious {
            r.primary.push(ms);
        } else {
            r.secondary.push(ms);
        }
        r.completed += 1;
        max_atoms = max_atoms.max(p.instance.len());
        // Outside the timed region: the gate.
        let d = digest(p.rendered.as_bytes());
        let first = digests.get(&(idx, variant)).copied();
        if let Err(e) = check_pass(&p.program, &p.instance, p.saturated, d, first) {
            r.failed += 1;
            r.fail_gate(format!("program {idx} {variant:?}: {e}"));
        }
        digests.entry((idx, variant)).or_insert(d);
        stats.push((variant, p.stats, p.run_ms));
    }
    r.measured_s = busy_ms / 1e3;
    r.peak_rss = peak_rss_bytes();
    let (tail_pct, tail) = r.primary.tail();
    r.notes.push(format!(
        "materialize_so_s p50 {:.4} s, p{tail_pct:.1} {:.4} s (n={}), materialize_restricted_s p50 {:.4} s (n={}), bytes_per_atom {:.0} (peak RSS over the largest instance, {max_atoms} atoms)",
        r.primary.median() / 1e3,
        tail / 1e3,
        r.primary.len(),
        r.secondary.median() / 1e3,
        r.secondary.len(),
        r.peak_rss as f64 / max_atoms.max(1) as f64,
    ));

    if tracer.enabled() {
        traced_layers(&input, tracer, &mut r, &stats, &digests);
    }
    r
}

fn traced_layers(
    input: &Input,
    tracer: &mut Tracer,
    r: &mut RunResult,
    stats: &[(ChaseVariant, ChaseStats, f64)],
    digests: &HashMap<(usize, ChaseVariant), u64>,
) {
    // Memory: RSS growth over one semi-oblivious pass started from a
    // trimmed heap, against the engine's own estimate. Kept out of the
    // timed passes, which a trimmed heap would slow with page faults.
    let so = ChaseConfig::of(ChaseVariant::SemiOblivious);
    trim_heap();
    let rss_before = rss_bytes();
    let program = Program::parse(&input.texts[0][0]).expect("parsed in the timed loop");
    let initial = Instance::from_atoms(program.facts().iter().cloned());
    let mut machine = ChaseMachine::new(&program, so, initial.clone());
    machine.run(&Budget::unlimited());
    let rss_growth = rss_bytes().saturating_sub(rss_before).max(1) as f64;
    let estimate_over_rss = machine.approx_memory_bytes() as f64 / rss_growth;
    let bytes_per_atom = rss_growth / machine.instance().len() as f64;
    drop(machine);

    // A semi-oblivious pass driven one `step()` at a time, each step a span.
    let mut machine = ChaseMachine::new(&program, so, initial.clone());
    tracer.next_op();
    while tracer
        .span("engine.chase.step", |_| machine.step())
        .is_some()
    {}
    let stepped = digest(instance_to_string(machine.instance(), &program.vocab).as_bytes());
    drop(machine);

    // Two threads against one, alternating, on the same input.
    let mut t1 = Vec::new();
    let mut t2 = Vec::new();
    let mut parallel_share = 0.0;
    let mut parallel_digest = 0;
    for _ in 0..2 {
        let mut m = ChaseMachine::new(&program, so, initial.clone());
        t1.push(timed(|| m.run(&Budget::unlimited())).1);
        let mut m = ChaseMachine::new(&program, so, initial.clone());
        t2.push(timed(|| m.run_parallel(&Budget::unlimited(), 2)).1);
        let rs = m.round_stats();
        parallel_share = rs.parallel_rounds as f64 / rs.rounds.max(1) as f64;
        parallel_digest = digest(instance_to_string(m.instance(), &program.vocab).as_bytes());
    }
    let expected = digests.get(&(0, ChaseVariant::SemiOblivious)).copied();
    for (what, d) in [
        ("step()-driven", stepped),
        ("run_parallel(2)", parallel_digest),
    ] {
        if expected.is_some_and(|e| e != d) {
            r.fail_gate(format!("{what} chase rendered a different instance"));
        }
    }

    let by_name = tracer.self_ms_by_name();
    let med_s = |name: &str| by_name.get(name).map_or(f64::NAN, |v| median(v) / 1e3);
    let sum = |f: &dyn Fn(&ChaseStats) -> u64, only: Option<ChaseVariant>| -> f64 {
        stats
            .iter()
            .filter(|(v, _, _)| only.is_none_or(|o| o == *v))
            .map(|(_, s, _)| f(s) as f64)
            .sum()
    };
    let ns_per_app: Vec<f64> = stats
        .iter()
        .map(|(_, s, run_ms)| run_ms * 1e6 / s.applications.max(1) as f64)
        .collect();
    let step_ms = Samples(
        by_name
            .get("engine.chase.step")
            .cloned()
            .unwrap_or_default(),
    );
    r.layers = vec![
        Layer::new("core.parser.parse_s", med_s("core.parser.parse"), "s"),
        Layer::new("core.instance.load_s", med_s("core.instance.load"), "s"),
        Layer::new("engine.chase.init_s", med_s("engine.chase.init"), "s"),
        Layer::new("engine.chase.run_s", med_s("engine.chase.run"), "s"),
        Layer::new("core.display.render_s", med_s("core.display.render"), "s"),
        Layer::new("engine.chase.ns_per_application", median(&ns_per_app), "ns"),
        Layer::new(
            "engine.chase.dedup_ratio",
            sum(&|s| s.triggers_deduped, None)
                / sum(&|s| s.triggers_deduped + s.triggers_enqueued, None),
            "ratio",
        ),
        Layer::new(
            "engine.chase.duplicate_atom_ratio",
            sum(&|s| s.duplicate_atoms, None) / sum(&|s| s.duplicate_atoms + s.atoms_added, None),
            "ratio",
        ),
        Layer::new(
            "engine.chase.satisfied_skip_ratio",
            sum(&|s| s.satisfied_skips, Some(ChaseVariant::Restricted))
                / sum(&|s| s.triggers_enqueued, Some(ChaseVariant::Restricted)),
            "ratio",
        ),
        Layer::new(
            "engine.chase.step_p99_us",
            step_ms.percentile(99.0) * 1e3,
            "us",
        ),
        Layer::new("engine.chase.bytes_per_atom", bytes_per_atom, "B"),
        Layer::new("engine.guard.estimate_over_rss", estimate_over_rss, "ratio"),
        Layer::new(
            "engine.round.t2_over_t1",
            median(&t2) / median(&t1),
            "ratio",
        ),
        Layer::new("engine.round.parallel_round_share", parallel_share, "ratio"),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saturated(src: &str) -> (Program, Instance, u64) {
        let program = Program::parse(src).unwrap();
        let p = pass(
            &program_to_string(&program),
            ChaseVariant::SemiOblivious,
            &mut Tracer::new(false, Instant::now()),
        )
        .unwrap();
        let d = digest(p.rendered.as_bytes());
        (p.program, p.instance, d)
    }

    #[test]
    fn gate_accepts_a_true_pass_and_rejects_tampered_ones() {
        let (program, instance, d) =
            saturated("e(a, b). e(b, c). e(X, Y) -> t(X, Y). t(X, Y), e(Y, Z) -> t(X, Z).");
        assert_eq!(check_pass(&program, &instance, true, d, None), Ok(()));
        assert_eq!(check_pass(&program, &instance, true, d, Some(d)), Ok(()));
        // A dropped atom leaves a trigger unsatisfied.
        let mut tampered = instance.clone();
        let victim = tampered.iter().last().map(|(id, _)| id).unwrap();
        tampered.retract(victim);
        assert!(check_pass(&program, &tampered, true, d, None).is_err());
        // A pass whose rendering differs from the first one.
        assert!(check_pass(&program, &instance, true, d ^ 1, Some(d)).is_err());
        // A run that stopped early.
        assert!(check_pass(&program, &instance, false, d, Some(d)).is_err());
    }
}
