//! Seeded inputs shared by the workloads: LUBM-shaped programs whose
//! semi-oblivious chase provably terminates, with random databases sized
//! to a target instance size.

use chasekit_core::{Instance, Program};
use chasekit_datagen::{lubm, random_database, DbConfig};
use chasekit_engine::{Budget, ChaseConfig, ChaseMachine, ChaseVariant};
use chasekit_termination::decide;

use crate::measure::mix;

/// Extension rules on top of the fixed LUBM backbone.
const LUBM_SIZE: usize = 8;
/// Database density: facts per constant, as in 200k facts over 50k constants.
const FACTS_PER_CONSTANT: usize = 4;
/// Facts in the pilot database used to size the real one.
const PILOT_FACTS: usize = 2_000;

/// The first `count` programs `lubm(8, ·)` of the seed stream
/// `(seed, stream)` that `decide` proves semi-oblivious-terminating. The
/// check is a property of the program: a diverging program cannot be
/// chased to saturation, which every workload here does.
pub fn terminating_lubm(seed: u64, stream: u64, count: usize) -> Vec<Program> {
    let mut out = Vec::with_capacity(count);
    let mut k = 0u64;
    while out.len() < count {
        let program_seed = mix(seed, stream.wrapping_add(k));
        k += 1;
        let program = lubm(LUBM_SIZE, program_seed).program;
        let d = decide(&program, ChaseVariant::SemiOblivious, &Budget::default());
        if d.terminates == Some(true) {
            out.push(program);
        }
    }
    out
}

/// `program` with `facts` random base facts over `facts / 4` constants
/// attached as program facts.
pub fn with_database(program: &Program, facts: usize, db_seed: u64) -> Program {
    let mut p = program.clone();
    let cfg = DbConfig {
        facts,
        constants: (facts / FACTS_PER_CONSTANT).max(1),
    };
    let db = random_database(&mut p, &cfg, db_seed);
    for (_, atom) in db.iter() {
        p.add_fact(atom.to_atom())
            .expect("generated facts match the vocabulary");
    }
    p
}

/// Atoms in the saturated chase of a program's facts under `variant`.
fn saturated_atoms(program: &Program, variant: ChaseVariant) -> usize {
    let initial = Instance::from_atoms(program.facts().iter().cloned());
    let mut m = ChaseMachine::new(program, ChaseConfig::of(variant), initial);
    m.run(&Budget::unlimited());
    m.instance().len()
}

/// How many base facts make a saturated instance of about `target_atoms`
/// atoms under `variant`: a pilot database measures the program's growth
/// per fact. Programs differ several-fold in how much each fact derives,
/// so fixing the instance size rather than the fact count keeps the work
/// per operation comparable from seed to seed.
pub fn facts_for(
    program: &Program,
    target_atoms: usize,
    variant: ChaseVariant,
    db_seed: u64,
) -> usize {
    let pilot = with_database(program, PILOT_FACTS, db_seed);
    let per_fact = saturated_atoms(&pilot, variant) as f64 / PILOT_FACTS as f64;
    ((target_atoms as f64 / per_fact.max(1.0)).round() as usize).max(1)
}

/// `program` with a random database sized by [`facts_for`].
pub fn sized_database(
    program: &Program,
    target_atoms: usize,
    variant: ChaseVariant,
    db_seed: u64,
) -> Program {
    with_database(program, facts_for(program, target_atoms, variant, db_seed), db_seed)
}
