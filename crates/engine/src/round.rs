//! The run loop: one driver for sequential runs and for parallel rounds
//! with concurrent trigger discovery.
//!
//! [`ChaseMachine::run_parallel`] is the chase's only run loop, and
//! [`ChaseMachine::run`] is its one-thread case. At every thread count,
//! pending triggers are drawn in scheduling order, re-checked, and applied
//! one at a time by the same loop, which polls every guard through one
//! helper before each application attempt. What the thread count changes
//! is *when* the triggers an application enables are discovered:
//!
//! - **Inline**, right after the application: the sequential path. It is
//!   the whole run whenever rounds cannot fan out: `threads <= 1`, random
//!   trigger scheduling (the xorshift draw order depends on
//!   interleaving), or naive matching (the ablation mode re-matches
//!   everything from scratch per step). Such a run keeps no round
//!   bookkeeping: it emits no `RoundOpen`/`RoundClose` events and leaves
//!   [`RoundStats`] all zero.
//! - **In rounds**, otherwise. Each round takes the pending-trigger
//!   frontier (the queue as it stands at round start). A frontier too
//!   small to amortise the pool handshake (fewer than `threads * 4`
//!   triggers) runs the same inline path, limited to `frontier` pops. A
//!   wider frontier splits the work into two phases:
//!
//!   1. **Apply** (sequential, cheap): pop the frontier triggers in FIFO
//!      order and apply each one — satisfaction re-checks for the
//!      restricted chase, null minting, head-image insertion,
//!      derivation/Skolem recording. After each application the instance
//!      length is recorded as that application's *horizon*.
//!   2. **Discover** (parallel, hot): the atoms born this round are turned
//!      into `(atom, rule)` work items and fed to the machine's
//!      **persistent worker pool** ([`crate::pool::DiscoveryPool`] —
//!      spawned once on the first fanned-out round, parked between rounds,
//!      joined on drop), which distributes them in chunks through an
//!      atomic claim cursor. Each worker matches rule bodies pinned to its
//!      atom against a **read-only prefix view** of the instance clipped
//!      to the producing application's horizon
//!      ([`chasekit_core::InstanceView`]), so it reproduces exactly the
//!      matches the sequential machine found at that moment. Results are
//!      merged on the driver thread in deterministic (application, atom,
//!      rule) order — the order the sequential machine enqueues — through
//!      the same dedup-and-admit path.
//!
//! **Determinism.** Because (a) the apply phase performs the same
//! applications in the same order as the sequential FIFO machine, (b) the
//! horizon views make every pinned match see exactly the instance the
//! sequential machine saw when it matched, and (c) the merge replays the
//! sequential enqueue order through the same identity set, a parallel run
//! produces **bit-identical** instances (atom ids, null numbering),
//! derivation DAGs, queue contents, identity sets, and [`ChaseStats`] to
//! `run` — for every variant, at every thread count. The restricted
//! chase's order-dependence is therefore also preserved: its head
//! re-checks happen at dequeue time against the live merged instance,
//! which is the same instance state the sequential machine re-checked
//! against. Round/worker counters live in [`RoundStats`], *not* in
//! [`ChaseStats`], precisely so that stats stay comparable across modes.
//!
//! **Guardrails.** Budgets, the wall-clock deadline, the memory ceiling,
//! cancellation, and journal failure are polled before every application
//! attempt by the one loop, so budget stops land on the same step boundary
//! with the same [`StopReason`] at every thread count. Only a two-phase
//! round adds checks: its workers poll the deadline and the
//! [`crate::guard::CancelToken`] between work chunks, and its boundary
//! re-checks cancellation, the deadline, and the memory ceiling. A trip
//! observed during discovery stops the run at the end of the current round
//! (discovery for already-applied triggers always completes first — that
//! is what keeps the stopped machine checkpoint-consistent and resumable
//! by either execution mode).
//!
//! [`ChaseStats`]: crate::ChaseStats

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use chasekit_core::{AtomId, InstanceView, Substitution};

use crate::chase::{matches_pinned, ChaseMachine, Scheduling};
use crate::guard::{Budget, StopReason};
use crate::pool::DiscoveryPool;
use crate::trace::TraceEvent;

/// Counters describing the round structure of a parallel run.
///
/// Deliberately separate from [`crate::ChaseStats`]: the chase counters
/// must stay bit-identical between the sequential and parallel engines
/// (the differential suite compares them), while these describe *how* the
/// run was executed, which legitimately differs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RoundStats {
    /// Rounds driven (one per frontier batch, including budget-stopped
    /// ones).
    pub rounds: u64,
    /// Rounds whose discovery phase was fanned out to worker threads.
    pub parallel_rounds: u64,
    /// `(atom, rule)` discovery work items processed across all rounds.
    pub work_items: u64,
    /// Widest frontier seen at a round start (pending triggers).
    pub max_frontier: usize,
    /// Worker threads requested for the run (0 until a parallel run).
    pub threads: usize,
}

/// One unit of discovery work: match `rule`'s body pinned to `atom`
/// against the instance prefix of length `horizon`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkItem {
    pub(crate) atom: AtomId,
    pub(crate) horizon: usize,
    pub(crate) rule: usize,
}

/// Per-slot record of one phase-1 dequeue, kept only when a trace sink is
/// installed. Emission is suppressed during the apply phase (the handle is
/// taken off the machine) and replayed at the merge, interleaved with that
/// application's admissions — reproducing the sequential machine's event
/// order exactly, so traced parallel runs emit a byte-identical core
/// stream.
enum SlotTrace {
    Skipped { rule: usize },
    Applied { app: u64, rule: usize, new_atoms: Vec<AtomId>, duplicates: u64 },
}

/// What phase 1 of a two-phase round leaves for phase 2.
struct RoundLog {
    /// One entry per application that added atoms: the atoms, and the
    /// instance id bound right afterwards (its horizon).
    batches: Vec<(Vec<AtomId>, usize)>,
    /// The round's slots, kept only when a trace sink is installed.
    slots: Option<Vec<SlotTrace>>,
}

/// What the run loop does with each trigger it applies.
enum Apply<'a> {
    /// Apply it and discover what it enables at once: the sequential path.
    Inline,
    /// The same, in a narrow round of a multi-threaded run: also trips the
    /// `round.worker` failpoint and counts the round's work items.
    InlineRound,
    /// Apply it without discovery (phase 1 of a two-phase round), logging
    /// what phase 2 needs.
    Deferred(&'a mut RoundLog),
}

impl ChaseMachine<'_> {
    /// Counters describing the round structure of the latest parallel run
    /// (all zero for machines whose runs never fanned out).
    pub fn round_stats(&self) -> &RoundStats {
        &self.round_stats
    }

    /// Runs the chase until saturation or the first guardrail, discovering
    /// triggers in parallel rounds on `threads` workers where rounds can
    /// fan out — producing **bit-identical** state at every thread count
    /// (see the module docs for the argument).
    ///
    /// Rounds fan out only under FIFO scheduling with delta matching and
    /// `threads >= 2`; otherwise this is the sequential run, exactly
    /// [`run`](Self::run).
    pub fn run_parallel(&mut self, budget: &Budget, threads: usize) -> StopReason {
        let start = Instant::now();
        let stop = if threads >= 2
            && self.config.scheduling == Scheduling::Fifo
            && !self.config.naive_matching
        {
            self.round_stats.threads = threads;
            self.run_rounds(budget, threads, start)
        } else {
            match self.apply_loop(budget, start, usize::MAX, Apply::Inline) {
                Some(stop) => self.boundary(stop),
                None => StopReason::Saturated,
            }
        };
        self.finish(stop)
    }

    /// The guard poll before every application attempt: the application
    /// and atom caps, cancellation, and a failed journal on every call; the
    /// wall clock, the memory ceiling, and the progress callback every
    /// `PERIOD` applications (cheap, but not hot-loop cheap on microsecond
    /// steps).
    fn poll_guards(&mut self, budget: &Budget, start: Instant) -> Option<StopReason> {
        const PERIOD: u64 = 32;
        if self.stats.applications >= budget.max_applications {
            return Some(StopReason::Applications);
        }
        if self.instance.len() >= budget.max_atoms {
            return Some(StopReason::Atoms);
        }
        if self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            return Some(StopReason::Cancelled);
        }
        if self.journal_failed().is_some() {
            return Some(StopReason::Io);
        }
        if self.stats.applications.is_multiple_of(PERIOD) {
            if budget.max_wall.is_some_and(|limit| start.elapsed() >= limit) {
                return Some(StopReason::WallClock);
            }
            if budget.max_memory.is_some_and(|ceiling| self.approx_bytes >= ceiling) {
                return Some(StopReason::Memory);
            }
            if let Some(p) = &mut self.progress {
                p.poll(
                    self.stats.applications,
                    self.instance.len(),
                    self.queue.len(),
                    self.approx_bytes,
                );
            }
        }
        None
    }

    /// The run loop: draws up to `pops` pending triggers in scheduling
    /// order, skips those the restricted chase finds satisfied, and hands
    /// each other one to `mode`, polling the guards before every
    /// application attempt. Returns the guard that tripped, or `None` once
    /// `pops` triggers were drawn or the queue drained.
    fn apply_loop(
        &mut self,
        budget: &Budget,
        start: Instant,
        mut pops: usize,
        mut mode: Apply<'_>,
    ) -> Option<StopReason> {
        while pops > 0 {
            if let Some(stop) = self.poll_guards(budget, start) {
                return Some(stop);
            }
            let trigger = loop {
                if pops == 0 {
                    return None;
                }
                pops -= 1;
                let trigger = self.next_trigger()?;
                if !self.skip_if_satisfied(&trigger) {
                    break trigger;
                }
                if let Apply::Deferred(RoundLog { slots: Some(slots), .. }) = &mut mode {
                    slots.push(SlotTrace::Skipped { rule: trigger.rule });
                }
            };
            match &mut mode {
                Apply::Inline => {
                    self.apply(trigger);
                }
                Apply::InlineRound => {
                    // Failpoint: same logical site as the per-item trip of
                    // two-phase discovery, so `round.worker` plans land on
                    // narrow rounds too (firing before the application
                    // keeps the crash scene at a clean step boundary).
                    crate::failpoint::trip(crate::failpoint::points::ROUND_WORKER);
                    let event = self.apply(trigger);
                    // One item per (new atom, rule mentioning its
                    // predicate), as the two-phase item builder counts.
                    for &id in &event.new_atoms {
                        let items = self.rules_mentioning(self.instance.atom(id).pred).len();
                        self.round_stats.work_items += items as u64;
                    }
                }
                Apply::Deferred(log) => {
                    let rule = trigger.rule;
                    let dup_before = self.stats.duplicate_atoms;
                    let event = self.apply_core(trigger);
                    if let Some(slots) = &mut log.slots {
                        slots.push(SlotTrace::Applied {
                            app: event.seq,
                            rule,
                            new_atoms: event.new_atoms.clone(),
                            duplicates: self.stats.duplicate_atoms - dup_before,
                        });
                    }
                    if !event.new_atoms.is_empty() {
                        // Horizons are *id* bounds for prefix views, so
                        // they live in slab space: after an incremental
                        // update has tombstoned atoms, the live count
                        // undershoots the id high-water mark.
                        log.batches.push((event.new_atoms, self.instance.slab_len()));
                    }
                }
            }
        }
        None
    }

    fn run_rounds(&mut self, budget: &Budget, threads: usize, start: Instant) -> StopReason {
        loop {
            if self.queue.is_empty() {
                return StopReason::Saturated;
            }
            self.round_stats.rounds += 1;
            let frontier = self.queue.len();
            self.round_stats.max_frontier = self.round_stats.max_frontier.max(frontier);
            if let Some(t) = &mut self.trace {
                t.note(TraceEvent::RoundOpen { round: self.round_stats.rounds, frontier });
            }
            // Narrow rounds: a frontier too small to amortise the fan-out
            // handshake runs the inline path, whose core trace events need
            // no suppress-and-replay. The two-phase split would overlap
            // nothing here, and its batching, slot log, and merge cost
            // about as much as the matching they stage. Bit-identity is
            // free: the two-phase merge replays the inline order by
            // construction.
            let stop = if frontier < threads * 4 {
                let items_before = self.round_stats.work_items;
                let stop = self.apply_loop(budget, start, frontier, Apply::InlineRound);
                if let Some(t) = &mut self.trace {
                    t.note(TraceEvent::RoundClose {
                        round: self.round_stats.rounds,
                        work_items: (self.round_stats.work_items - items_before) as usize,
                        workers: 1,
                    });
                }
                stop
            } else {
                self.two_phase_round(budget, threads, frontier, start)
            };
            if let Some(stop) = stop {
                return self.boundary(stop);
            }
        }
    }

    /// One round over a frontier wide enough to fan out: apply it, then
    /// discover in parallel and merge. Returns the guard that tripped
    /// during the round or at its boundary.
    fn two_phase_round(
        &mut self,
        budget: &Budget,
        threads: usize,
        frontier: usize,
        start: Instant,
    ) -> Option<StopReason> {
        let deadline = budget.max_wall.map(|w| start + w);
        // Suppress core-event emission during the apply phase: the
        // sequential stream interleaves each application's events with
        // the admissions it discovers, which in round mode only exist
        // after phase 2. Phase 1 logs its slots and the merge replays
        // them (see `SlotTrace`).
        let trace = self.trace.take();
        let mut log = RoundLog { batches: Vec::new(), slots: trace.is_some().then(Vec::new) };

        // Phase 1: apply the frontier in FIFO order.
        let pending_stop = self.apply_loop(budget, start, frontier, Apply::Deferred(&mut log));

        // Phase 2: parallel discovery, merged in the deterministic
        // (application, atom, rule) order — the sequential enqueue
        // order. Only rules whose bodies mention the new atom's predicate
        // can match it.
        let mut items: Vec<WorkItem> = Vec::new();
        // Item index range of each batch, so the traced merge can
        // interleave admissions with their producing application.
        let mut batch_ranges: Vec<(usize, usize)> = Vec::with_capacity(log.batches.len());
        for (new_atoms, horizon) in &log.batches {
            let lo = items.len();
            for &atom in new_atoms {
                let rules = self.rules_mentioning(self.instance.atom(atom).pred);
                items.extend(rules.iter().map(|&rule| WorkItem { atom, horizon: *horizon, rule }));
            }
            batch_ranges.push((lo, items.len()));
        }
        self.round_stats.work_items += items.len() as u64;

        let observed = Arc::new(AtomicBool::new(false));
        let cancel = self.cancel.clone();
        // Fan out only when the frontier is wide enough to amortise
        // the pool handshake: each fanned round wakes every worker
        // and drains a `Done` barrier, which costs a few context
        // switches — more than the matching a narrow round would
        // hide (most rounds in chase workloads carry a handful of
        // items). Requiring ~four items per lane keeps tiny rounds
        // on the driver; inline discovery runs the same code in the
        // same item order, so the choice is invisible to the result
        // (`RoundClose.workers` is an execution-class trace event,
        // excluded from core traces).
        let fan = if items.len() < threads * 4 { 1 } else { threads.min(items.len() / 2) };
        let (items, mut results): (Vec<WorkItem>, Vec<Vec<Substitution>>) = if fan < 2 {
            let results = items
                .iter()
                .map(|item| {
                    // Failpoint: same per-item site as the pool's
                    // `run_job`, so `round.worker` plans land even
                    // on rounds below the fan-out cutoff.
                    crate::failpoint::trip(crate::failpoint::points::ROUND_WORKER);
                    let view = InstanceView::prefix(&self.instance, item.horizon);
                    matches_pinned(self.program, &view, item.rule, item.atom, &mut self.scratch)
                })
                .collect();
            (items, results)
        } else {
            self.round_stats.parallel_rounds += 1;
            // Lazily spawn the persistent pool (or replace it if this
            // machine is re-run at a different thread count).
            if self.pool.as_ref().is_none_or(|p| p.threads() != threads) {
                self.pool = Some(DiscoveryPool::new(self.program, threads));
            }
            let pool = self.pool.as_ref().expect("pool was just ensured");
            // Move the instance (and items) behind Arcs for the
            // discovery barrier; both come back via try_unwrap — see
            // the pool docs for why the barrier makes this sound.
            let shared = Arc::new(std::mem::take(&mut self.instance));
            let items = Arc::new(items);
            let outcome = pool.discover(
                Arc::clone(&shared),
                Arc::clone(&items),
                cancel.clone(),
                deadline,
                Arc::clone(&observed),
                &mut self.scratch,
            );
            let Ok(reclaimed) = Arc::try_unwrap(shared) else {
                unreachable!("every worker dropped its instance handle at the barrier")
            };
            self.instance = reclaimed;
            let Ok(items) = Arc::try_unwrap(items) else {
                unreachable!("every worker dropped its item handle at the barrier")
            };
            match outcome {
                Ok(results) => (items, results),
                // A worker panicked (injected failpoint): re-raise on
                // the driver thread, exactly like the scoped spawn did.
                // The instance was restored above, so the machine the
                // unwind abandons is structurally sound.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        };
        self.trace = trace;
        if let Some(slots) = log.slots {
            // Traced merge: replay each slot's suppressed events, then
            // admit that application's discoveries — the sequential
            // machine's exact emission order, through the same
            // dedup-and-admit path.
            let mut next_batch = 0;
            for slot in slots {
                match slot {
                    SlotTrace::Skipped { rule } => {
                        if let Some(t) = &mut self.trace {
                            t.core(TraceEvent::TriggerSkipped { rule });
                        }
                    }
                    SlotTrace::Applied { app, rule, new_atoms, duplicates } => {
                        if let Some(t) = &mut self.trace {
                            t.core(TraceEvent::Applied {
                                app,
                                rule,
                                new_atoms: new_atoms.len(),
                                duplicates: duplicates as usize,
                            });
                        }
                        for &id in &new_atoms {
                            let pred = self.instance.atom(id).pred.0;
                            if let Some(t) = &mut self.trace {
                                t.core(TraceEvent::AtomInserted {
                                    atom: id.index() as u32,
                                    pred,
                                    rule,
                                    app,
                                });
                            }
                        }
                        if !new_atoms.is_empty() {
                            let (lo, hi) = batch_ranges[next_batch];
                            next_batch += 1;
                            for idx in lo..hi {
                                for subst in std::mem::take(&mut results[idx]) {
                                    self.admit_trigger(items[idx].rule, subst);
                                }
                            }
                        }
                    }
                }
            }
        } else {
            for (item, homs) in items.iter().zip(results) {
                for subst in homs {
                    self.admit_trigger(item.rule, subst);
                }
            }
        }
        if let Some(t) = &mut self.trace {
            t.note(TraceEvent::RoundClose {
                round: self.round_stats.rounds,
                work_items: items.len(),
                workers: if fan < 2 { 1 } else { fan },
            });
        }

        if pending_stop.is_some() {
            return pending_stop;
        }
        // A trip observed during discovery (by a worker or just now)
        // ends the run at this round boundary instead of paying for
        // another round of applications.
        let cancelled = cancel.as_ref().is_some_and(|t| t.is_cancelled());
        if cancelled {
            return Some(StopReason::Cancelled);
        }
        if observed.load(Ordering::Relaxed) || deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopReason::WallClock);
        }
        // Memory accounting for pending triggers lands at the merge, so
        // mid-round ceiling checks undercount; the round boundary is
        // where the estimate is exact (and equals the sequential
        // machine's at the same application count). A memory stop may
        // therefore land up to one round later than sequentially — it
        // is a resource guard, not part of the deterministic state.
        if budget.max_memory.is_some_and(|ceiling| self.approx_bytes >= ceiling) {
            return Some(StopReason::Memory);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use chasekit_core::Program;

    use crate::chase::{ChaseConfig, ChaseMachine, Scheduling};
    use crate::guard::{Budget, CancelToken, StopReason};
    use crate::variant::ChaseVariant;

    /// Diverges under every variant with a frontier that widens each round
    /// (every `e` atom feeds two rules), so rounds really fan out.
    const DIVERGING: &str = "\
        e(a, b).\n\
        e(X, Y) -> e(Y, Z).\n\
        e(X, Y) -> f(Y, W).\n\
        f(X, Y) -> e(Y, Z).\n";

    /// Saturates after exactly two applications: p(a) ⇒ q(a) ⇒ r(a).
    const TWO_STEPS: &str = "p(a). p(X) -> q(X). q(X) -> r(X).";

    fn machine(text: &str, config: ChaseConfig) -> ChaseMachine<'_> {
        // Leak: test-only convenience to get a 'static program.
        let program = Box::leak(Box::new(Program::parse(text).unwrap()));
        let initial =
            chasekit_core::Instance::from_atoms(program.facts().iter().cloned());
        ChaseMachine::new(program, config, initial)
    }

    /// The checkpoint text serializes the whole resumable state — instance,
    /// queue, identity set, RNG, stats — so equality here is bit-identity
    /// of everything the chase can observe.
    fn state_text(m: &ChaseMachine<'_>) -> String {
        m.snapshot().to_text().expect("untracked runs serialize")
    }

    #[test]
    fn bit_identical_to_the_sequential_machine_for_every_variant() {
        for variant in
            [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious, ChaseVariant::Restricted]
        {
            let budget = Budget::applications(120);
            let mut seq = machine(DIVERGING, ChaseConfig::of(variant));
            let seq_stop = seq.run(&budget);
            for threads in [2, 4, 8] {
                let mut par = machine(DIVERGING, ChaseConfig::of(variant));
                let par_stop = par.run_parallel(&budget, threads);
                assert_eq!(seq_stop, par_stop, "{variant:?} stop @ {threads} threads");
                assert_eq!(
                    state_text(&seq),
                    state_text(&par),
                    "{variant:?} state @ {threads} threads"
                );
            }
        }
    }

    #[test]
    fn tracked_runs_produce_identical_derivations_and_skolem_ancestry() {
        let config = ChaseConfig::of(ChaseVariant::SemiOblivious).with_derivation().with_skolem();
        let budget = Budget::applications(80);
        let mut seq = machine(DIVERGING, config);
        let mut par = machine(DIVERGING, config);
        assert_eq!(seq.run(&budget), par.run_parallel(&budget, 4));
        assert_eq!(format!("{:?}", seq.derivation()), format!("{:?}", par.derivation()));
        assert_eq!(seq.skolem_cyclic(), par.skolem_cyclic());
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn empty_queue_exactly_at_the_cap_reports_saturated() {
        let mut m = machine(TWO_STEPS, ChaseConfig::of(ChaseVariant::Oblivious));
        assert_eq!(m.run_parallel(&Budget::applications(2), 4), StopReason::Saturated);
        assert_eq!(m.stats().applications, 2);
    }

    #[test]
    fn applications_cap_with_pending_work_reports_applications() {
        let mut m = machine(TWO_STEPS, ChaseConfig::of(ChaseVariant::Oblivious));
        assert_eq!(m.run_parallel(&Budget::applications(1), 4), StopReason::Applications);
        assert_eq!(m.stats().applications, 1);
        assert!(m.pending() > 0);
    }

    #[test]
    fn atoms_cap_stops_round_mode_on_the_sequential_boundary() {
        let budget = Budget::unlimited().with_atoms(50);
        let mut seq = machine(DIVERGING, ChaseConfig::of(ChaseVariant::Oblivious));
        let mut par = machine(DIVERGING, ChaseConfig::of(ChaseVariant::Oblivious));
        assert_eq!(seq.run(&budget), StopReason::Atoms);
        assert_eq!(par.run_parallel(&budget, 4), StopReason::Atoms);
        assert_eq!(state_text(&seq), state_text(&par));
    }

    #[test]
    fn memory_ceiling_stops_round_mode_at_a_consistent_boundary() {
        let ceiling = 64 * 1024;
        let budget = Budget::unlimited().with_memory(ceiling);
        let mut seq = machine(DIVERGING, ChaseConfig::of(ChaseVariant::Oblivious));
        let mut par = machine(DIVERGING, ChaseConfig::of(ChaseVariant::Oblivious));
        assert_eq!(seq.run(&budget), StopReason::Memory);
        assert_eq!(par.run_parallel(&budget, 4), StopReason::Memory);
        // The estimate genuinely exceeded the ceiling, and the stop may
        // land at most one round after the sequential boundary (trigger
        // bytes are accounted at the merge, see the driver).
        assert!(par.approx_memory_bytes() >= ceiling);
        assert!(par.stats().applications >= seq.stats().applications);
        // The stopped state is a consistent checkpoint that keeps chasing.
        let text = state_text(&par);
        let restored = crate::checkpoint::Checkpoint::from_text(&text).unwrap();
        let program = Box::leak(Box::new(Program::parse(DIVERGING).unwrap()));
        let mut resumed = restored.resume(program).unwrap();
        let more = Budget::applications(resumed.stats().applications + 5);
        assert_eq!(resumed.run_parallel(&more, 4), StopReason::Applications);
    }

    /// A frontier that never reaches `threads * 4` runs the inline path
    /// with no round-boundary checks, so a memory stop lands where the
    /// sequential run's does: the ceiling is polled every 32 applications
    /// in both, and an extra check after each narrow round would stop the
    /// parallel run as soon as the estimate crosses it.
    #[test]
    fn narrow_frontiers_stop_on_the_sequential_memory_boundary() {
        // One pending trigger at every round start. The estimate grows by
        // a few hundred bytes per application and crosses this ceiling
        // between the polls at 32 and 64 applications.
        const CHAIN: &str = "p(a, b). p(X, Y) -> p(Y, Z).";
        let budget = Budget::unlimited().with_memory(10_000);
        let mut seq = machine(CHAIN, ChaseConfig::of(ChaseVariant::Oblivious));
        let mut par = machine(CHAIN, ChaseConfig::of(ChaseVariant::Oblivious));
        assert_eq!(seq.run(&budget), StopReason::Memory);
        assert_eq!(par.run_parallel(&budget, 4), StopReason::Memory);
        assert_eq!(par.stats().applications, seq.stats().applications);
        assert_eq!(state_text(&par), state_text(&seq));
        let rs = par.round_stats();
        assert!(rs.rounds > 0 && rs.max_frontier < 4 * 4, "{rs:?}");
    }

    #[test]
    fn a_pre_cancelled_token_stops_before_any_application() {
        let mut m = machine(DIVERGING, ChaseConfig::of(ChaseVariant::Oblivious));
        let token = CancelToken::new();
        token.cancel();
        m.set_cancel_token(token);
        assert_eq!(m.run_parallel(&Budget::unlimited(), 4), StopReason::Cancelled);
        assert_eq!(m.stats().applications, 0);
    }

    #[test]
    fn cancellation_stops_a_parallel_run_mid_flight_and_leaves_it_resumable() {
        let mut m = machine(DIVERGING, ChaseConfig::of(ChaseVariant::SemiOblivious));
        let token = CancelToken::new();
        m.set_cancel_token(token.clone());
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        });
        // The 30 s deadline is a safety net for a broken cancel path; the
        // token must win long before it.
        let stop = m.run_parallel(&Budget::unlimited().with_timeout_ms(30_000), 4);
        canceller.join().unwrap();
        assert_eq!(stop, StopReason::Cancelled);
        assert!(m.stats().applications > 0, "cancel should land mid-run, not at the start");

        // The stopped state round-trips through the text checkpoint and
        // keeps chasing — i.e. cancellation left a consistent boundary.
        let text = state_text(&m);
        let restored = crate::checkpoint::Checkpoint::from_text(&text).unwrap();
        let program = Box::leak(Box::new(Program::parse(DIVERGING).unwrap()));
        let mut resumed = restored.resume(program).unwrap();
        let more = Budget::applications(resumed.stats().applications + 10);
        assert_eq!(resumed.run_parallel(&more, 4), StopReason::Applications);
        assert_eq!(resumed.stats().applications, m.stats().applications + 10);
    }

    #[test]
    fn a_wall_clock_deadline_stops_a_parallel_run() {
        let mut m = machine(DIVERGING, ChaseConfig::of(ChaseVariant::Oblivious));
        let stop = m.run_parallel(&Budget::unlimited().with_timeout_ms(15), 4);
        assert_eq!(stop, StopReason::WallClock);
        assert!(m.pending() > 0, "the diverging chase never drains its queue");
    }

    #[test]
    fn single_thread_and_random_scheduling_run_inline_without_rounds() {
        let budget = Budget::applications(60);

        let mut seq = machine(DIVERGING, ChaseConfig::of(ChaseVariant::Oblivious));
        let mut one = machine(DIVERGING, ChaseConfig::of(ChaseVariant::Oblivious));
        assert_eq!(seq.run(&budget), one.run_parallel(&budget, 1));
        assert_eq!(state_text(&seq), state_text(&one));
        assert_eq!(one.round_stats().rounds, 0, "threads=1 must not enter round mode");

        let random = ChaseConfig::of(ChaseVariant::Restricted).with_random_scheduling(7);
        assert_eq!(random.scheduling, Scheduling::Random(7));
        let mut seq = machine(DIVERGING, random);
        let mut par = machine(DIVERGING, random);
        assert_eq!(seq.run(&budget), par.run_parallel(&budget, 4));
        assert_eq!(state_text(&seq), state_text(&par));
        assert_eq!(par.round_stats().rounds, 0, "random scheduling must not enter round mode");
    }

    #[test]
    fn round_stats_describe_the_fan_out() {
        let mut m = machine(DIVERGING, ChaseConfig::of(ChaseVariant::Oblivious));
        m.run_parallel(&Budget::applications(120), 4);
        let rs = m.round_stats().clone();
        assert_eq!(rs.threads, 4);
        assert!(rs.rounds >= 1);
        assert!(rs.parallel_rounds >= 1, "the widening frontier must fan out at least once");
        assert!(rs.work_items > 0);
        assert!(rs.max_frontier >= 2);
    }
}
