//! `termination-corpus`: the paper's own procedure over a seeded corpus of
//! rule sets given as text. Each program is parsed and classified, then
//! `decide` runs under the oblivious and semi-oblivious variants, then
//! `restricted_verdict`. Closed loop, one program at a time.

use std::time::Instant;

use chasekit_acyclicity::{check_with_work, GraphKind};
use chasekit_core::display::program_to_string;
use chasekit_core::{CriticalInstance, Program, RuleClass};
use chasekit_datagen::{
    binary_counter, chain, critical_constants, critical_gap, cycle, data_exchange, dl_lite,
    dl_lite_r, lubm, random_guarded, separator, wide, wide_terminating, LabeledProgram,
    RandomConfig,
};
use chasekit_engine::{Budget, ChaseConfig, ChaseMachine, ChaseVariant};
use chasekit_termination::{decide, restricted_verdict, Decision};

use crate::measure::{median, mix, ms_since, peak_rss_bytes, timed};
use crate::span::Tracer;
use crate::{Layer, RunResult};

/// Seeded programs per (family, size) cell.
const PER_CELL: usize = 160;
const SIZES: [usize; 3] = [4, 8, 16];
const GUARDED_ARITIES: [usize; 3] = [3, 4, 5];
/// Every this-many-th "terminates" claim is confirmed by chasing the
/// critical instance to saturation.
const CONFIRM_EVERY: usize = 25;
/// Budget of a confirming chase: far above any terminating corpus member.
const CONFIRM_APPLICATIONS: u64 = 200_000;

/// One corpus member: its text and, for the calibration families, the
/// analytic (oblivious, semi-oblivious) termination labels.
pub struct Member {
    pub name: String,
    pub text: String,
    pub labels: Option<(bool, bool)>,
}

fn member(lp: LabeledProgram) -> Member {
    let labels = lp.o_terminates.zip(lp.so_terminates);
    Member {
        name: lp.name,
        text: program_to_string(&lp.program),
        labels,
    }
}

fn setup(seed: u64) -> Vec<Member> {
    let mut out = Vec::new();
    // The labelled calibration families, at several sizes.
    for n in 2..=5 {
        for lp in [
            chain(n),
            cycle(n),
            separator(n),
            critical_gap(n),
            dl_lite(n, false),
            dl_lite(n, true),
            data_exchange(n),
            wide(n),
            wide_terminating(n),
            binary_counter(n),
        ] {
            out.push(member(lp));
        }
    }
    let mut k = 0u64;
    let mut next = || {
        k += 1;
        mix(seed, 0xC0_0000 + k)
    };
    for size in SIZES {
        for _ in 0..PER_CELL {
            out.push(member(dl_lite_r(size, next())));
            out.push(member(lubm(size, next())));
            out.push(member(critical_constants(size, next())));
        }
    }
    for arity in GUARDED_ARITIES {
        let cfg = RandomConfig {
            max_arity: arity,
            ..RandomConfig::default()
        };
        for _ in 0..PER_CELL {
            let s = next();
            let lp = LabeledProgram {
                name: format!("random-guarded-a{arity}-s{s}"),
                program: random_guarded(&cfg, s),
                so_terminates: None,
                o_terminates: None,
                expected_class: RuleClass::Guarded,
            };
            out.push(member(lp));
        }
    }
    out
}

/// The verdicts of one program.
#[derive(Debug, Clone, Copy)]
pub struct Verdicts {
    pub oblivious: Option<bool>,
    pub semi_oblivious: Option<bool>,
    pub restricted: Option<bool>,
}

fn layer_of(class: RuleClass) -> &'static str {
    match class {
        RuleClass::SimpleLinear | RuleClass::Linear => "termination.linear",
        RuleClass::Guarded => "termination.guarded",
        RuleClass::General => "termination.general",
    }
}

/// One operation: parse, classify, decide under o and so, restricted
/// verdict. `decide` dispatches on the class, so the span around it is
/// named after the procedure that class reaches.
fn classify(
    text: &str,
    tracer: &mut Tracer,
) -> Result<(Program, [Decision; 2], Verdicts, f64), String> {
    let program = tracer
        .span("core.parser.parse", |_| Program::parse(text))
        .map_err(|e| format!("parse: {e}"))?;
    let layer = layer_of(program.class());
    let budget = Budget::default();
    let o = tracer.span(layer, |_| {
        decide(&program, ChaseVariant::Oblivious, &budget)
    });
    let so = tracer.span(layer, |_| {
        decide(&program, ChaseVariant::SemiOblivious, &budget)
    });
    let start = Instant::now();
    let r = tracer.span("termination.restricted", |_| restricted_verdict(&program));
    let restricted_ms = ms_since(start);
    let v = Verdicts {
        oblivious: o.terminates,
        semi_oblivious: so.terminates,
        restricted: r.terminates,
    };
    Ok((program, [o, so], v, restricted_ms))
}

/// The label gate: a decided verdict must equal the analytic label.
pub fn check_labels(name: &str, labels: Option<(bool, bool)>, v: &Verdicts) -> Result<(), String> {
    let Some((o, so)) = labels else { return Ok(()) };
    for (variant, label, got) in [("o", o, v.oblivious), ("so", so, v.semi_oblivious)] {
        if got.is_some_and(|g| g != label) {
            return Err(format!(
                "{name}: {variant} verdict {got:?} contradicts the label {label}"
            ));
        }
    }
    Ok(())
}

/// The confirmation gate: a semi-oblivious "terminates" claim must come
/// with a saturating semi-oblivious chase of the critical instance.
pub fn confirm_terminates(name: &str, program: &Program) -> Result<(), String> {
    let mut p = program.clone();
    let critical = CriticalInstance::build(&mut p).instance;
    let mut m = ChaseMachine::new(&p, ChaseConfig::of(ChaseVariant::SemiOblivious), critical);
    let stop = m.run(&Budget::applications(CONFIRM_APPLICATIONS));
    if stop.is_saturated() {
        Ok(())
    } else {
        Err(format!(
            "{name}: claimed to terminate, but its critical instance did not saturate ({})",
            stop.keyword()
        ))
    }
}

pub fn execute(seed: u64, seconds: f64, setups: usize, tracer: &mut Tracer) -> RunResult {
    let mut r = RunResult::default();
    let mut corpus = Vec::new();
    for _ in 0..setups {
        let (c, ms) = timed(|| setup(seed));
        r.setup_ms.push(ms);
        corpus = c;
    }

    let mut effort: u64 = 0;
    let mut undecided = 0u64;
    let mut claims = 0usize;
    let mut busy_ms = 0.0;
    let mut i = 0usize;
    while busy_ms < seconds * 1e3 {
        let m = &corpus[i % corpus.len()];
        let first_cycle = i < corpus.len();
        i += 1;
        r.attempted += 1;
        tracer.next_op();
        let start = Instant::now();
        let out = tracer.span("bench.corpus.op", |t| classify(&m.text, t));
        let ms = ms_since(start);
        busy_ms += ms;
        let (program, decisions, v, restricted_ms) = match out {
            Ok(x) => x,
            Err(e) => {
                r.failed += 1;
                r.fail_gate(format!("{}: {e}", m.name));
                continue;
            }
        };
        r.primary.push(ms);
        r.secondary.push(restricted_ms);
        r.completed += 1;
        effort += decisions.iter().map(|d| d.effort.cost()).sum::<u64>();
        undecided += [v.oblivious, v.semi_oblivious, v.restricted]
            .iter()
            .filter(|x| x.is_none())
            .count() as u64;
        // Outside the timed region: the gates, once per corpus member.
        if first_cycle {
            if let Err(e) = check_labels(&m.name, m.labels, &v) {
                r.failed += 1;
                r.fail_gate(e);
            }
            if v.semi_oblivious == Some(true) {
                claims += 1;
                if claims % CONFIRM_EVERY == 1 {
                    if let Err(e) = confirm_terminates(&m.name, &program) {
                        r.failed += 1;
                        r.fail_gate(e);
                    }
                }
            }
        }
        if tracer.enabled() {
            // The layers `decide` reaches internally, called directly.
            let mut p = program.clone();
            tracer.span("core.critical.build", |_| CriticalInstance::build(&mut p));
            tracer.span("acyclicity.check", |_| {
                check_with_work(&program, GraphKind::Standard)
            });
        }
    }
    r.measured_s = busy_ms / 1e3;
    r.peak_rss = peak_rss_bytes();
    let (tail_pct, tail) = r.primary.tail();
    r.notes.push(format!(
        "{} programs in the corpus; decisions_per_s {:.1} (programs, 3 verdicts each), decide p50 {:.1} us, decide_p{tail_pct:.2}_us {:.1} (n={})",
        corpus.len(),
        r.completed as f64 / r.measured_s,
        r.primary.median() * 1e3,
        tail * 1e3,
        r.primary.len(),
    ));

    if tracer.enabled() {
        let by_name = tracer.self_ms_by_name();
        let med_us = |name: &str| by_name.get(name).map_or(f64::NAN, |v| median(v) * 1e3);
        let programs = r.completed.max(1) as f64;
        r.layers = vec![
            Layer::new("termination.linear_us", med_us("termination.linear"), "us"),
            Layer::new(
                "termination.guarded_us",
                med_us("termination.guarded"),
                "us",
            ),
            Layer::new(
                "termination.general_us",
                med_us("termination.general"),
                "us",
            ),
            Layer::new(
                "termination.restricted_us",
                med_us("termination.restricted"),
                "us",
            ),
            Layer::new(
                "termination.effort_per_program",
                effort as f64 / programs,
                "count",
            ),
            Layer::new(
                "termination.undecided_share",
                undecided as f64 / (3.0 * programs),
                "ratio",
            ),
            Layer::new(
                "core.critical.build_us",
                med_us("core.critical.build"),
                "us",
            ),
            Layer::new("acyclicity.check_us", med_us("acyclicity.check"), "us"),
        ];
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_gate_rejects_a_flipped_verdict() {
        let lp = cycle(3);
        let labels = lp.o_terminates.zip(lp.so_terminates);
        let m = member(lp);
        let (_, _, v, _) = classify(&m.text, &mut Tracer::new(false, Instant::now())).unwrap();
        assert_eq!(check_labels(&m.name, labels, &v), Ok(()));
        let flipped = Verdicts {
            semi_oblivious: v.semi_oblivious.map(|b| !b),
            ..v
        };
        assert!(flipped.semi_oblivious.is_some());
        assert!(check_labels(&m.name, labels, &flipped).is_err());
    }

    #[test]
    fn confirmation_gate_rejects_a_false_terminates_claim() {
        let ok = Program::parse("e(X, Y) -> t(X, Y).").unwrap();
        assert_eq!(confirm_terminates("ok", &ok), Ok(()));
        // Diverges on every database: a "terminates" claim is caught.
        let bad = Program::parse("p(X, Y) -> p(Y, Z).").unwrap();
        assert!(confirm_terminates("bad", &bad).is_err());
    }
}
