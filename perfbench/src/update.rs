//! `lubm-update`: a derivation-tracked chase kept up to date under a
//! seeded stream of single-fact edits, alternating the retraction of a
//! base fact with the addition of a fresh one, one `apply_edits` call per
//! edit. The only workload that deletes.

use std::time::Instant;

use chasekit_core::display::atom_to_string;
use chasekit_core::{Instance, Program};
use chasekit_engine::{
    canonical_form, check_support, edited_program, parse_edit_script, Budget, ChaseConfig,
    ChaseMachine, ChaseVariant, DerivationDag, Edit, StopReason,
};

use crate::inputs::{sized_database, terminating_lubm};
use crate::measure::{median, mix, ms_since, peak_rss_bytes, timed};
use crate::span::Tracer;
use crate::{Layer, RunResult};

/// Atoms in the saturated instance the edits update (about 20k facts).
const TARGET_ATOMS: usize = 60_000;
/// Edits generated up front; a run stops at its time limit long before.
const EDITS: usize = 4_000;

fn config() -> ChaseConfig {
    ChaseConfig::of(ChaseVariant::SemiOblivious).with_derivation()
}

/// The program with its database, and the edit stream already interned
/// into its vocabulary (a machine borrows the program, so fresh constants
/// must exist before the chase starts).
fn prepare(seed: u64) -> (Program, Vec<Edit>) {
    let rules = terminating_lubm(seed, 0x0ed1_7000, 1).remove(0);
    let mut program = sized_database(
        &rules,
        TARGET_ATOMS,
        ChaseVariant::SemiOblivious,
        mix(seed, 0xdb),
    );
    let facts = program.facts().to_vec();
    // A seeded permutation of the base facts gives distinct retractions.
    let mut order: Vec<usize> = (0..facts.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(
            i,
            (mix(seed, 0xa0_0000 + i as u64) % (i as u64 + 1)) as usize,
        );
    }
    let vocab = &program.vocab;
    let mut script = String::new();
    for k in 0..EDITS / 2 {
        let victim = &facts[order[k % order.len()]];
        script.push_str(&format!(
            "retract {}.\n",
            atom_to_string(victim, vocab, None)
        ));
        // A fresh fact: a base fact's predicate, its arguments mixing the
        // base constants with new ones.
        let template = &facts[order[(k * 7 + 3) % order.len()]];
        let args: Vec<String> = template
            .args
            .iter()
            .enumerate()
            .map(|(i, t)| {
                if mix(seed, (k * 8 + i) as u64).is_multiple_of(2) {
                    format!("fresh{k}_{i}")
                } else {
                    chasekit_core::display::term_to_string(*t, vocab, None)
                }
            })
            .collect();
        script.push_str(&format!(
            "add {}({}).\n",
            vocab.pred_name(template.pred),
            args.join(", ")
        ));
    }
    let edits = parse_edit_script(&script, &mut program).expect("generated edit scripts parse");
    (program, edits)
}

fn tracked_chase(program: &Program) -> ChaseMachine<'_> {
    let initial = Instance::from_atoms(program.facts().iter().cloned());
    let mut m = ChaseMachine::new(program, config(), initial);
    m.run(&Budget::unlimited());
    m
}

/// The gate: the updated instance is supported by surviving base facts
/// and equals, Skolem-canonically, a from-scratch chase of the edited
/// program.
pub fn check_update(
    live: &Instance,
    live_dag: &DerivationDag,
    scratch: &Instance,
    scratch_dag: &DerivationDag,
) -> Result<(), String> {
    check_support(live, live_dag).map_err(|e| format!("support broken: {e}"))?;
    let (a, b) = (
        canonical_form(live, live_dag),
        canonical_form(scratch, scratch_dag),
    );
    if a == b {
        return Ok(());
    }
    let diff = a
        .iter()
        .find(|x| !b.contains(x))
        .or_else(|| b.iter().find(|x| !a.contains(x)));
    Err(format!(
        "updated instance ({} atoms) differs from a from-scratch chase ({} atoms), e.g. at {diff:?}",
        a.len(),
        b.len()
    ))
}

pub fn execute(seed: u64, seconds: f64, setups: usize, tracer: &mut Tracer) -> RunResult {
    let mut r = RunResult::default();
    for _ in 1..setups {
        let (_, ms) = timed(|| {
            let (program, _) = prepare(seed);
            drop(tracked_chase(&program));
        });
        r.setup_ms.push(ms);
    }
    let start = Instant::now();
    let (program, edits) = prepare(seed);
    let mut machine = tracked_chase(&program);
    r.setup_ms.push(ms_since(start));

    let mut applied = Vec::new();
    let (mut overdeleted, mut invalidated, mut rederived, mut retracts) =
        (0usize, 0usize, 0usize, 0usize);
    let mut busy_ms = 0.0;
    for edit in &edits {
        if busy_ms >= seconds * 1e3 {
            break;
        }
        r.attempted += 1;
        tracer.next_op();
        let start = Instant::now();
        let out = tracer.span("bench.update.op", |t| {
            if !t.enabled() {
                return machine
                    .apply_edits(std::slice::from_ref(edit), &Budget::unlimited())
                    .map(|rep| (rep.outcome, None));
            }
            // The two calls `apply_edits` makes, each in its own span.
            let outcome = match edit {
                Edit::Retract(a) => Some(t.span("engine.incremental.retract_fact", |_| {
                    machine.retract_fact(a)
                })?),
                Edit::Add(a) => {
                    t.span("engine.incremental.add_fact", |_| machine.add_fact(a))?;
                    None
                }
            };
            let stop = t.span("engine.incremental.completion", |_| {
                machine.run(&Budget::unlimited())
            });
            Ok((stop, outcome))
        });
        let ms = ms_since(start);
        busy_ms += ms;
        match out {
            Ok((StopReason::Saturated, outcome)) => {
                applied.push(edit.clone());
                r.completed += 1;
                match edit {
                    Edit::Retract(_) => r.primary.push(ms),
                    Edit::Add(_) => r.secondary.push(ms),
                }
                if let Some(o) = outcome {
                    retracts += 1;
                    overdeleted += o.overdeleted;
                    invalidated += o.invalidated_apps;
                    rederived += o.rederived_apps;
                }
            }
            Ok((stop, _)) => {
                r.failed += 1;
                r.fail_gate(format!("completion stopped: {}", stop.keyword()));
            }
            Err(e) => {
                r.failed += 1;
                r.fail_gate(format!("edit {edit:?}: {e}"));
            }
        }
    }
    r.measured_s = busy_ms / 1e3;
    r.peak_rss = peak_rss_bytes();
    let (tail_pct, tail) = r.primary.tail();
    r.notes.push(format!(
        "{} base facts, {} atoms after the edits; retract_p50_ms {:.2}, retract_p{tail_pct:.1}_ms {:.2} (n={}), add_p50_us {:.1} (n={})",
        program.facts().len(),
        machine.instance().len(),
        r.primary.median(),
        tail,
        r.primary.len(),
        r.secondary.median() * 1e3,
        r.secondary.len(),
    ));

    // Outside the measured region: the gate.
    let edited = edited_program(&program, &applied);
    let scratch = tracked_chase(&edited);
    if let Err(e) = check_update(
        machine.instance(),
        machine.derivation(),
        scratch.instance(),
        scratch.derivation(),
    ) {
        r.fail_gate(e);
    }
    drop(scratch);

    if tracer.enabled() {
        // Tracking's cost: the same chase with and without the DAG,
        // alternating, in this process.
        let untracked_config = ChaseConfig::of(ChaseVariant::SemiOblivious);
        let initial = Instance::from_atoms(program.facts().iter().cloned());
        let mut with = Vec::new();
        let mut without = Vec::new();
        for _ in 0..3 {
            let mut m = ChaseMachine::new(&program, config(), initial.clone());
            with.push(timed(|| m.run(&Budget::unlimited())).1);
            let mut m = ChaseMachine::new(&program, untracked_config, initial.clone());
            without.push(timed(|| m.run(&Budget::unlimited())).1);
        }
        let by_name = tracer.self_ms_by_name();
        let med_ms = |name: &str| by_name.get(name).map_or(f64::NAN, |v| median(v));
        let completion: Vec<f64> = {
            // Completion runs that follow a retraction, not an addition.
            let spans = tracer.spans();
            let self_ns = tracer.self_times_ns();
            spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == "engine.incremental.completion")
                .filter(|(i, _)| *i > 0 && spans[i - 1].name == "engine.incremental.retract_fact")
                .map(|(i, _)| self_ns[i] as f64 / 1e6)
                .collect()
        };
        let retracts = retracts.max(1) as f64;
        r.layers = vec![
            Layer::new(
                "engine.incremental.retract_fact_ms",
                med_ms("engine.incremental.retract_fact"),
                "ms",
            ),
            Layer::new(
                "engine.incremental.completion_ms",
                median(&completion),
                "ms",
            ),
            Layer::new(
                "engine.incremental.overdeleted_per_retract",
                overdeleted as f64 / retracts,
                "count",
            ),
            Layer::new(
                "engine.incremental.rederive_ratio",
                rederived as f64 / (rederived + invalidated).max(1) as f64,
                "ratio",
            ),
            Layer::new(
                "engine.derivation.tracking_overhead",
                median(&with) / median(&without) - 1.0,
                "ratio",
            ),
        ];
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_gate_rejects_a_tampered_instance() {
        let src = "e(a, b). e(b, c). e(c, d). e(X, Y) -> t(X, Y). t(X, Y), e(Y, Z) -> t(X, Z). t(X, Y) -> s(Y, W).";
        let mut program = Program::parse(src).unwrap();
        let edits = parse_edit_script("retract e(b, c).\nadd e(d, a).\n", &mut program).unwrap();
        let mut live = tracked_chase(&program);
        live.apply_edits(&edits, &Budget::unlimited()).unwrap();
        let edited = edited_program(&program, &edits);
        let scratch = tracked_chase(&edited);
        assert_eq!(
            check_update(
                live.instance(),
                live.derivation(),
                scratch.instance(),
                scratch.derivation()
            ),
            Ok(())
        );
        // The unedited chase stands in for an update that went wrong.
        let stale = tracked_chase(&program);
        assert!(check_update(
            stale.instance(),
            stale.derivation(),
            scratch.instance(),
            scratch.derivation()
        )
        .is_err());
    }
}
