//! A seed-parallel map for the experiment populations.
//!
//! Experiments evaluate thousands of independent seeded samples; this
//! spreads them over worker threads (std scoped threads + an atomic work
//! counter) while keeping results in seed order, so all tables and
//! counters stay exactly reproducible regardless of thread count.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Applies `f` to every seed in `0..count`, in parallel, returning results
/// in seed order. A panicking seed fails the whole map with a panic that
/// names the seed. `threads = 1` degenerates to a plain loop.
pub fn par_map_seeds<T, F>(count: u64, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let run = |seed: u64| {
        catch_unwind(AssertUnwindSafe(|| f(seed))).unwrap_or_else(|payload| {
            panic!("par_map_seeds: seed {seed} panicked: {}", payload_message(payload.as_ref()))
        })
    };
    if threads <= 1 || count <= 1 {
        return (0..count).map(run).collect();
    }

    let next = AtomicU64::new(0);
    let mut done: Vec<(u64, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(count as usize))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let seed = next.fetch_add(1, Ordering::Relaxed);
                        if seed >= count {
                            return done;
                        }
                        done.push((seed, run(seed)));
                    }
                })
            })
            .collect();
        // Joining by hand re-raises a worker's own payload (which names
        // its seed) rather than the scope's generic one.
        workers
            .into_iter()
            .flat_map(|worker| worker.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    done.sort_unstable_by_key(|&(seed, _)| seed);
    done.into_iter().map(|(_, value)| value).collect()
}

/// A sensible default worker count: the available parallelism, capped.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_seed_order() {
        let out = par_map_seeds(100, 4, |seed| seed * 3);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 3);
        }
    }

    #[test]
    fn single_thread_matches_parallel() {
        let seq = par_map_seeds(37, 1, |s| s * s % 17);
        let par = par_map_seeds(37, 8, |s| s * s % 17);
        assert_eq!(seq, par);
    }

    #[test]
    fn thread_count_never_changes_results() {
        for threads in [1, 2, 3, 8, 32] {
            let out = par_map_seeds(53, threads, |s| s.wrapping_mul(0x9e37_79b9) >> 7);
            let reference: Vec<_> =
                (0..53).map(|s: u64| s.wrapping_mul(0x9e37_79b9) >> 7).collect();
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn zero_and_one_seed_edge_cases() {
        assert!(par_map_seeds(0, 4, |s| s).is_empty());
        assert_eq!(par_map_seeds(1, 4, |s| s), vec![0]);
    }

    #[test]
    #[should_panic(expected = "seed 3")]
    fn strict_wrapper_names_the_failing_seed() {
        let _ = par_map_seeds(8, 2, |seed| {
            if seed == 3 {
                panic!("boom");
            }
            seed
        });
    }

    #[test]
    fn real_workload_through_the_pool() {
        use chasekit_datagen::{random_simple_linear, RandomConfig};
        use chasekit_engine::ChaseVariant;
        use chasekit_termination::decide_linear;
        let cfg = RandomConfig::default();
        let results = par_map_seeds(40, 4, |seed| {
            let p = random_simple_linear(&cfg, seed);
            decide_linear(&p, ChaseVariant::SemiOblivious, false).unwrap().terminates
        });
        let sequential: Vec<bool> = (0..40)
            .map(|seed| {
                let p = random_simple_linear(&cfg, seed);
                decide_linear(&p, ChaseVariant::SemiOblivious, false).unwrap().terminates
            })
            .collect();
        assert_eq!(results, sequential);
    }

    /// The experiment pool's workers each run a parallel-round chase, so
    /// the chase's own discovery pool nests inside this one: every seed's
    /// run must stay bit-identical to the sequential chase of that seed.
    #[test]
    fn nested_parallel_chases_match_the_sequential_chase() {
        use chasekit_core::CriticalInstance;
        use chasekit_datagen::{random_guarded, RandomConfig};
        use chasekit_engine::{Budget, ChaseConfig, ChaseMachine, ChaseVariant};

        const SEEDS: u64 = 200;
        let cfg = RandomConfig::default();
        let budget = Budget::applications(40).with_atoms(1_000);
        // The checkpoint text is the whole observable run state, so it
        // doubles as the value under differential comparison.
        let chase_text = |seed: u64, threads: usize| {
            // Random guarded sets carry no facts: chase the critical
            // instance, like the guarded experiments do.
            let mut p = random_guarded(&cfg, seed);
            let initial = CriticalInstance::build(&mut p).instance;
            let mut m =
                ChaseMachine::new(&p, ChaseConfig::of(ChaseVariant::SemiOblivious), initial);
            let stop = m.run_parallel(&budget, threads);
            format!("{stop}\n{}", m.snapshot().to_text().unwrap())
        };

        let sequential: Vec<String> = (0..SEEDS).map(|s| chase_text(s, 1)).collect();
        for threads in [2, 4] {
            let nested = par_map_seeds(SEEDS, threads, |seed| chase_text(seed, 2));
            for (seed, text) in nested.iter().enumerate() {
                assert_eq!(
                    text, &sequential[seed],
                    "seed {seed} diverged under the nested parallel chase (pool threads = {threads})"
                );
            }
        }
    }
}
