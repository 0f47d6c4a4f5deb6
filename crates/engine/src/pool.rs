//! A persistent worker pool for parallel trigger discovery.
//!
//! PR 2's round driver spawned a fresh `std::thread::scope` per round,
//! which priced every round at thread-creation cost — the dominant term on
//! small frontiers and the reason the committed bench showed parallel mode
//! losing to sequential. This pool is spawned **once** per
//! [`ChaseMachine`](crate::ChaseMachine) (lazily, on the first fanned-out
//! round), fed per-round [`RoundJob`]s over channels, parks between rounds
//! on a blocking `recv`, and is joined when the machine drops.
//!
//! ## Sharing without `unsafe`
//!
//! Every crate in this workspace forbids `unsafe`, so the pool cannot hand
//! borrowed instance references to long-lived threads. Instead the driver
//! moves the instance into an `Arc` for the duration of the discovery
//! phase and takes it back with `Arc::try_unwrap` afterwards. The handoff
//! is sound because `discover` is a strict barrier: every worker drops its
//! job (and with it its `Arc<Instance>` clone) **before** sending its
//! terminal `Done`/`Panicked` reply, and the driver waits for all
//! terminals before unwrapping — at that point the driver's clone is the
//! only one left. No copy of the instance is ever made.
//!
//! ## Work distribution and determinism
//!
//! Workers — **and the driver itself** — claim **chunks** of the round's
//! work-item list through a shared atomic cursor (claim order is racy;
//! result order is not: every chunk carries its start index and results
//! are slotted back by position). Driver participation matters most on
//! low-core hosts: instead of parking on `recv` and paying a context
//! switch per chunk, the driver matches inline until the cursor runs dry,
//! so a single-core run degrades to (almost) the sequential loop plus two
//! wake-and-`Done` handshakes per round. Matching itself is read-only
//! against horizon-pinned prefix views, so which thread processes which
//! item is invisible to the merged result — the same argument as PR 2,
//! with chunking cutting channel traffic by the chunk factor on wide
//! frontiers.
//!
//! The driver's own chunks never travel through the reply channel — it
//! slots them directly. That is not just a shortcut: worker chunks are
//! ordered before that worker's terminal by sender FIFO, so draining
//! `threads` terminals provably drains every worker chunk, but a
//! channel-borne driver chunk would have **no** terminal ordering it
//! against the workers' `Done`s and could be stranded past the barrier.
//!
//! ## Panics and cancellation
//!
//! Each job runs under `catch_unwind`; an injected failpoint panic (the
//! crash-recovery suite's `round.worker` site) is reported as a
//! [`Reply::Panicked`] terminal. Jobs carry the driver's failpoint set, so
//! a plan armed on the driving thread counts hits on every worker. The
//! driver still drains the full barrier (keeping the pool reusable and the
//! `Arc` handoff sound), restores the instance, and only then resumes the
//! unwind — so a worker panic still unwinds out of `run_parallel` exactly
//! as the scoped version did.
//! Workers poll the cancel token / deadline between chunks and record
//! trips in the job's `observed` flag; discovery always runs to
//! completion so the already-applied round stays checkpoint-consistent
//! (PR 2's probe semantics, unchanged).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use chasekit_core::{Instance, InstanceView, MatchScratch, Program, Substitution};

use crate::chase::matches_pinned;
use crate::failpoint::{self, FailpointSet};
use crate::guard::CancelToken;
use crate::round::WorkItem;

/// One round's discovery work, shared with every worker.
struct RoundJob {
    instance: Arc<Instance>,
    items: Arc<Vec<WorkItem>>,
    /// Shared claim cursor: each `fetch_add(chunk)` claims the next chunk.
    next: Arc<AtomicUsize>,
    /// Set by workers when the cancel token / deadline trips mid-round.
    observed: Arc<AtomicBool>,
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    chunk: usize,
    /// The driver's failpoint set, installed by the worker for this job.
    failpoints: Option<Arc<FailpointSet>>,
}

impl RoundJob {
    fn tripped(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Worker → driver replies for one job.
enum Reply {
    /// Matches for the chunk of items starting at `start`, in item order.
    Chunk { start: usize, homs: Vec<Vec<Substitution>> },
    /// This worker finished the job (its job handle is already dropped).
    Done,
    /// This worker's job panicked (payload to re-raise after the barrier).
    Panicked(Box<dyn Any + Send>),
}

/// The persistent discovery pool. See the module docs.
pub(crate) struct DiscoveryPool {
    threads: usize,
    /// For the driver's own `run_job` participation (workers carry their
    /// own clones).
    program: Arc<Program>,
    job_txs: Vec<Sender<RoundJob>>,
    reply_rx: Receiver<Reply>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for DiscoveryPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiscoveryPool").field("threads", &self.threads).finish_non_exhaustive()
    }
}

impl DiscoveryPool {
    /// Spawns `threads` workers (parked until the first job). The program
    /// is cloned once here so workers can outlive the driver's borrow.
    pub(crate) fn new(program: &Program, threads: usize) -> Self {
        assert!(threads >= 2, "a pool below two workers is never profitable");
        let program = Arc::new(program.clone());
        let (reply_tx, reply_rx) = channel::<Reply>();
        let mut job_txs = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (job_tx, job_rx) = channel::<RoundJob>();
            job_txs.push(job_tx);
            let program = Arc::clone(&program);
            let replies = reply_tx.clone();
            handles.push(std::thread::spawn(move || worker(program, job_rx, replies)));
        }
        DiscoveryPool { threads, program, job_txs, reply_rx, handles }
    }

    /// Number of workers the pool was built with.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every work item against `instance` and returns the per-item
    /// matches in item order. A strict barrier: returns only after every
    /// worker has finished the job and dropped its handles, so on return
    /// the caller's `Arc`s are the only ones left.
    ///
    /// Returns `Err(payload)` if any worker's job panicked; the caller is
    /// expected to resume the unwind once it has restored its state.
    #[allow(clippy::type_complexity)]
    pub(crate) fn discover(
        &self,
        instance: Arc<Instance>,
        items: Arc<Vec<WorkItem>>,
        cancel: Option<CancelToken>,
        deadline: Option<Instant>,
        observed: Arc<AtomicBool>,
        scratch: &mut MatchScratch,
    ) -> Result<Vec<Vec<Substitution>>, Box<dyn Any + Send>> {
        // Aim for ~4 claims per worker to balance scheduling slack against
        // cursor contention and channel traffic; cap so one chunk's reply
        // stays small.
        let chunk = (items.len() / (self.threads * 4)).clamp(1, 64);
        let next = Arc::new(AtomicUsize::new(0));
        let failpoints = failpoint::current();
        for tx in &self.job_txs {
            let job = RoundJob {
                instance: Arc::clone(&instance),
                items: Arc::clone(&items),
                next: Arc::clone(&next),
                observed: Arc::clone(&observed),
                cancel: cancel.clone(),
                deadline,
                chunk,
                failpoints: failpoints.clone(),
            };
            tx.send(job).expect("pool workers outlive the machine");
        }

        // The driver claims chunks too instead of parking on `recv`: on a
        // multi-core host it is one more lane; on a single-core host it
        // does nearly all the matching itself (workers only get scheduled
        // once it blocks draining the barrier, find the cursor exhausted,
        // and reply `Done`) — which is what keeps the t2-vs-t1 overhead
        // near 1 instead of paying context switches per chunk. Its chunks
        // go straight into a local vec, not the reply channel: nothing
        // would order them before the workers' terminals (module docs).
        // Same catch_unwind discipline as the workers: a failpoint panic
        // here must not skip the barrier.
        let driver_job = RoundJob {
            instance: Arc::clone(&instance),
            items: Arc::clone(&items),
            next,
            observed,
            cancel,
            deadline,
            chunk,
            failpoints,
        };
        let mut mine: Vec<(usize, Vec<Vec<Substitution>>)> = Vec::new();
        let driver_outcome = catch_unwind(AssertUnwindSafe(|| {
            run_job(&self.program, &driver_job, scratch, &mut |start, homs| {
                mine.push((start, homs));
                true
            })
        }));
        drop(driver_job);

        let mut slots: Vec<Option<Vec<Substitution>>> = (0..items.len()).map(|_| None).collect();
        for (start, homs) in mine {
            for (offset, h) in homs.into_iter().enumerate() {
                slots[start + offset] = Some(h);
            }
        }
        let mut terminals = 0;
        let mut panicked: Option<Box<dyn Any + Send>> = driver_outcome.err();
        while terminals < self.threads {
            match self.reply_rx.recv().expect("pool workers outlive the machine") {
                Reply::Chunk { start, homs } => {
                    for (offset, h) in homs.into_iter().enumerate() {
                        slots[start + offset] = Some(h);
                    }
                }
                Reply::Done => terminals += 1,
                Reply::Panicked(payload) => {
                    terminals += 1;
                    panicked = Some(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            return Err(payload);
        }
        Ok(slots
            .into_iter()
            .enumerate()
            .map(|(idx, slot)| {
                slot.unwrap_or_else(|| panic!("work item {idx} was never processed"))
            })
            .collect())
    }
}

impl Drop for DiscoveryPool {
    fn drop(&mut self) {
        // Closing the job channels wakes every parked worker with a recv
        // error; join so no thread outlives the machine.
        self.job_txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Worker loop: parked on `recv` between rounds, one scratch for life.
fn worker(program: Arc<Program>, jobs: Receiver<RoundJob>, replies: Sender<Reply>) {
    let mut scratch = MatchScratch::default();
    while let Ok(job) = jobs.recv() {
        let _failpoints = failpoint::install(job.failpoints.clone());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_job(&program, &job, &mut scratch, &mut |start, homs| {
                replies.send(Reply::Chunk { start, homs }).is_ok()
            })
        }));
        // Drop the job — and with it this worker's Arc<Instance> clone —
        // strictly before the terminal reply: the driver unwraps the Arc
        // as soon as the barrier closes.
        drop(job);
        let terminal = match outcome {
            Ok(()) => Reply::Done,
            Err(payload) => Reply::Panicked(payload),
        };
        if replies.send(terminal).is_err() {
            return;
        }
    }
}

/// Claims and matches chunks until the cursor passes the end of the list,
/// handing each chunk's results to `deliver` (which returns `false` to
/// stop early, e.g. on a closed reply channel).
fn run_job(
    program: &Program,
    job: &RoundJob,
    scratch: &mut MatchScratch,
    deliver: &mut dyn FnMut(usize, Vec<Vec<Substitution>>) -> bool,
) {
    let items: &[WorkItem] = &job.items;
    loop {
        if job.tripped() {
            job.observed.store(true, Ordering::Relaxed);
        }
        let start = job.next.fetch_add(job.chunk, Ordering::Relaxed);
        if start >= items.len() {
            return;
        }
        let end = (start + job.chunk).min(items.len());
        let mut homs = Vec::with_capacity(end - start);
        for item in &items[start..end] {
            // Failpoint: the crash-recovery suite injects worker panics
            // here to prove a dead round leaves nothing behind.
            failpoint::trip(failpoint::points::ROUND_WORKER);
            let view = InstanceView::prefix(&job.instance, item.horizon);
            homs.push(matches_pinned(program, &view, item.rule, item.atom, scratch));
        }
        if !deliver(start, homs) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker runs each job under the failpoint set the job carries,
    /// not under whatever its own thread has armed (nothing).
    #[test]
    fn workers_run_jobs_under_the_drivers_failpoints() {
        let program = Arc::new(Program::parse("p(a). p(X) -> q(X).").unwrap());
        let mut instance = Instance::default();
        let (atom, _) = instance.insert(program.facts()[0].clone());
        let (job_tx, job_rx) = channel();
        let (reply_tx, reply_rx) = channel();
        let worker = {
            let program = Arc::clone(&program);
            std::thread::spawn(move || worker(program, job_rx, reply_tx))
        };
        let job = |failpoints| RoundJob {
            instance: Arc::new(instance.clone()),
            items: Arc::new(vec![WorkItem { atom, horizon: 1, rule: 0 }]),
            next: Arc::new(AtomicUsize::new(0)),
            observed: Arc::new(AtomicBool::new(false)),
            cancel: None,
            deadline: None,
            chunk: 1,
            failpoints,
        };
        let terminal = |rx: &Receiver<Reply>| loop {
            match rx.recv().unwrap() {
                Reply::Chunk { .. } => continue,
                other => return other,
            }
        };

        let _armed = failpoint::arm("round.worker=panic@2").unwrap();
        // Hit 1 on the worker, carried by the job: no fault yet.
        job_tx.send(job(failpoint::current())).unwrap();
        assert!(matches!(terminal(&reply_rx), Reply::Done));
        // A job without the set leaves the counter alone ...
        job_tx.send(job(None)).unwrap();
        assert!(matches!(terminal(&reply_rx), Reply::Done));
        // ... so the next carried hit is the 2nd, and it fires.
        job_tx.send(job(failpoint::current())).unwrap();
        assert!(matches!(terminal(&reply_rx), Reply::Panicked(_)));

        drop(job_tx);
        worker.join().unwrap();
    }
}
