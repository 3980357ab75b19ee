//! From-scratch work-stealing thread pool (std-only: `std::thread`,
//! `Mutex`, atomics — per the workspace dependency policy).
//!
//! Jobs are indices `0..jobs`, seeded into per-worker deques in contiguous
//! chunks. A worker drains a *chunk* of jobs from the front of its own
//! deque per lock acquisition into a private buffer, and when empty steals
//! *half* the most-loaded victim's deque from the back — the classic split
//! that keeps owner access cache-warm while stealers take the work
//! farthest from the owner's current position. Victims are chosen from
//! lock-free approximate lengths, so an idle worker never locks every
//! deque just to look. Chunking is what makes short jobs scale: one lock
//! per chunk instead of one per job took the 4-thread overhead from ~7 %
//! of each job's runtime to parity. Results land in per-job slots, so the
//! output order is the job order no matter which worker ran what, which is
//! what makes batch reports deterministic across thread counts.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Jobs obtained by stealing, across all pool runs of a recording.
static POOL_STEALS: awe_obs::Counter = awe_obs::Counter::new("pool.steals");
/// Deque length observed at each refill that takes work (owner's own
/// deque, before the drain) — the live-queue-depth distribution of a
/// run. An idle worker's empty deque records nothing.
static QUEUE_DEPTH: awe_obs::Histogram = awe_obs::Histogram::new("pool.queue_depth");

/// Scheduler observability for one pool run.
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// Worker count actually used.
    pub threads: usize,
    /// Jobs executed per worker.
    pub executed: Vec<usize>,
    /// Jobs each worker obtained by stealing.
    pub steals: Vec<usize>,
    /// Refills that took jobs off a worker's own deque, summed over the
    /// workers: one `pool.queue_depth` sample each.
    pub refills: usize,
}

impl PoolStats {
    /// Total steals across workers.
    pub fn total_steals(&self) -> usize {
        self.steals.iter().sum()
    }
}

/// Runs `f(job, worker)` for `job` in `0..jobs` across `threads` workers,
/// returning results in job order plus scheduler stats. The closure's
/// second argument is the index of the worker running the job, so callers
/// can attribute per-job work (times, counters) to the worker that
/// actually did it.
///
/// `threads == 0` uses [`std::thread::available_parallelism`]; explicit
/// requests are *capped* at the available parallelism too — the jobs are
/// CPU-bound, so oversubscribed workers only add context-switch and
/// steal-contention overhead (requesting 8 workers on a 4-core host
/// measurably ran slower than 4). The worker count is clamped to the job
/// count; one effective worker runs inline on the caller thread (no
/// spawn), so single-threaded runs are exactly sequential.
///
/// When an [`awe_obs`] recording is live, each spawned worker labels its
/// trace lane `worker-N` (the inline single-worker path labels the caller
/// thread `worker-0`), steals feed the `pool.steals` counter, and the
/// owner-deque length at every refill feeds the `pool.queue_depth`
/// histogram.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn run_indexed<T, F>(jobs: usize, threads: usize, f: F) -> (Vec<T>, PoolStats)
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    run_indexed_with(jobs, effective_threads(threads, jobs), f)
}

/// [`run_indexed`] with the worker count taken verbatim (callers resolve
/// and cap it). Kept separate so scheduler tests can force a specific
/// worker count regardless of the host's core count.
fn run_indexed_with<T, F>(jobs: usize, threads: usize, f: F) -> (Vec<T>, PoolStats)
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let threads = threads.clamp(1, jobs.max(1));
    if jobs == 0 {
        return (
            Vec::new(),
            PoolStats {
                threads,
                executed: vec![0; threads],
                steals: vec![0; threads],
                refills: 0,
            },
        );
    }
    if threads == 1 {
        if awe_obs::enabled() {
            awe_obs::set_lane_label("worker-0");
        }
        let results = (0..jobs).map(|i| f(i, 0)).collect();
        return (
            results,
            PoolStats {
                threads: 1,
                executed: vec![jobs],
                steals: vec![0],
                refills: 0,
            },
        );
    }

    // Seed contiguous chunks so neighboring nets start on the same worker.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| {
            let lo = w * jobs / threads;
            let hi = (w + 1) * jobs / threads;
            Mutex::new((lo..hi).collect())
        })
        .collect();
    // Approximate deque lengths, maintained under each deque's lock but
    // readable without it: the victim scan is advisory, so a stale read
    // costs at worst one wasted lock on an emptied victim.
    let lens: Vec<AtomicUsize> = deques
        .iter()
        .map(|d| AtomicUsize::new(d.lock().expect("deque lock").len()))
        .collect();
    let remaining = AtomicUsize::new(jobs);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let executed: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
    let steals: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
    let refills = AtomicUsize::new(0);

    // Forward the spawner's ambient request id (if any) into every
    // worker, so a daemon request's spans and health events stay
    // attributable to it across the pool boundary.
    let req = awe_obs::current_request();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let deques = &deques;
            let lens = &lens;
            let remaining = &remaining;
            let slots = &slots;
            let executed = &executed;
            let steals = &steals;
            let refills = &refills;
            let f = &f;
            scope.spawn(move || {
                let _req = awe_obs::req_scope(req);
                if awe_obs::enabled() {
                    awe_obs::set_lane_label(&format!("worker-{w}"));
                }
                // Jobs claimed but not yet run. Buffered jobs are invisible
                // to stealers, so the chunk size is capped: large enough to
                // amortize the lock, small enough that a heavy tail can
                // still be stolen out of the shared deque.
                let mut local: VecDeque<usize> = VecDeque::new();
                loop {
                    // Refill: drain a chunk off the front of our deque
                    // under one lock. Nothing is ever pushed onto a deque
                    // after seeding, so a zero length means it stays
                    // empty: an idle worker skips the lock.
                    if local.is_empty() && lens[w].load(Ordering::Acquire) > 0 {
                        let mut dq = deques[w].lock().expect("deque lock");
                        let take = chunk_size(dq.len());
                        if take > 0 {
                            QUEUE_DEPTH.record(dq.len() as f64);
                            refills.fetch_add(1, Ordering::Relaxed);
                            local.extend(dq.drain(..take));
                            lens[w].store(dq.len(), Ordering::Release);
                        }
                    }
                    if local.is_empty() {
                        // Steal: pick the fullest victim from the advisory
                        // lengths, then take half its deque from the back.
                        let victim = (0..threads)
                            .filter(|&v| v != w)
                            .map(|v| (lens[v].load(Ordering::Acquire), v))
                            .max()
                            .filter(|&(len, _)| len > 0)
                            .map(|(_, v)| v);
                        if let Some(v) = victim {
                            let mut dq = deques[v].lock().expect("deque lock");
                            let take = steal_size(dq.len());
                            let split = dq.len() - take;
                            local.extend(dq.drain(split..));
                            lens[v].store(dq.len(), Ordering::Release);
                            drop(dq);
                            steals[w].fetch_add(local.len(), Ordering::Relaxed);
                            POOL_STEALS.add(local.len() as u64);
                            // Stolen back-half jobs run oldest-first to
                            // preserve rough job-order locality.
                        }
                    }
                    match local.pop_front() {
                        Some(idx) => {
                            let result = f(idx, w);
                            *slots[idx].lock().expect("slot lock") = Some(result);
                            executed[w].fetch_add(1, Ordering::Relaxed);
                            remaining.fetch_sub(1, Ordering::AcqRel);
                        }
                        None => {
                            if remaining.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            // Another worker still owns in-flight jobs;
                            // nothing to steal right now.
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });

    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every job ran exactly once")
        })
        .collect();
    let stats = PoolStats {
        threads,
        executed: executed.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        steals: steals.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        refills: refills.into_inner(),
    };
    (results, stats)
}

/// How many jobs to move per lock acquisition: a quarter of what's there,
/// clamped to `[1, 8]` (0 when the deque is empty). The cap bounds how
/// much work can hide in a private buffer; the quarter keeps the tail of a
/// large deque available to other stealers.
fn chunk_size(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        (len / 4).clamp(1, 8)
    }
}

/// How many jobs a steal takes: half the victim's deque (the classic
/// split — the victim keeps the cache-warm front, the thief takes the
/// far-from-owner back), capped at 8 so one thief cannot hide a long run
/// of jobs from the others.
fn steal_size(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        (len / 2).clamp(1, 8)
    }
}

pub(crate) fn effective_threads(requested: usize, jobs: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = if requested == 0 {
        cores
    } else {
        requested.min(cores)
    };
    t.clamp(1, jobs.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_job_order() {
        for threads in [1, 2, 4, 8] {
            let (results, stats) = run_indexed(100, threads, |i, _w| i * i);
            assert_eq!(results, (0..100).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(stats.executed.iter().sum::<usize>(), 100);
        }
    }

    #[test]
    fn zero_jobs() {
        let (results, stats) = run_indexed(0, 4, |i, _w| i);
        assert!(results.is_empty());
        assert_eq!(stats.executed.iter().sum::<usize>(), 0);
    }

    #[test]
    fn more_threads_than_jobs() {
        let (results, stats) = run_indexed(3, 16, |i, _w| i + 1);
        assert_eq!(results, vec![1, 2, 3]);
        assert!(stats.threads <= 3);
    }

    #[test]
    fn imbalanced_work_is_stolen() {
        // Front-loaded cost: worker 0's chunk is far heavier, so with the
        // stealing policy other workers must take some of it. Verify all
        // work completes and the slow chunk did not serialize the run into
        // worker 0 executing everything while others idle — i.e. every
        // worker executed something.
        let (results, stats) = run_indexed_with(64, 4, |i, _w| {
            let spins = if i < 16 { 2_000_000 } else { 1_000 };
            (0..spins).fold(i as u64, |a, b| a ^ (b as u64).wrapping_mul(31))
        });
        assert_eq!(results.len(), 64);
        assert_eq!(stats.executed.iter().sum::<usize>(), 64);
        // Chunked claiming means a late-scheduled worker can find its
        // deque already stolen empty (especially on one core), so the
        // invariant is that work *moved* — not that every worker ran some.
        assert!(
            stats.total_steals() > 0,
            "imbalance should force steals: {stats:?}"
        );
        assert!(
            stats.executed.iter().filter(|&&e| e > 0).count() >= 2,
            "work should not serialize onto one worker: {:?}",
            stats.executed
        );
    }

    #[test]
    fn chunk_size_is_bounded_and_progresses() {
        assert_eq!(chunk_size(0), 0);
        assert_eq!(chunk_size(1), 1); // always progress on nonempty deques
        assert_eq!(chunk_size(3), 1);
        assert_eq!(chunk_size(16), 4);
        assert_eq!(chunk_size(10_000), 8); // cap keeps work stealable
    }

    #[test]
    fn steal_size_takes_half_bounded() {
        assert_eq!(steal_size(0), 0);
        assert_eq!(steal_size(1), 1); // a thief always makes progress
        assert_eq!(steal_size(6), 3);
        assert_eq!(steal_size(10_000), 8); // cap bounds hidden work
    }

    #[test]
    fn explicit_requests_capped_at_available_parallelism() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Oversubscription is never granted…
        assert!(effective_threads(1024, 1 << 20) <= cores);
        // …and the job-count clamp still applies.
        assert_eq!(effective_threads(1024, 2), 2.min(cores));
        assert_eq!(effective_threads(0, 0), 1);
        assert_eq!(effective_threads(1, 100), 1);
    }

    #[test]
    fn steals_are_counted_per_job() {
        // One worker's chunk is heavy; the others must pull jobs across,
        // and the steal counter tallies jobs (not chunks).
        let (results, stats) = run_indexed_with(64, 4, |i, _w| {
            let spins = if i < 16 { 1_000_000 } else { 100 };
            (0..spins).fold(i as u64, |a, b| a ^ (b as u64).wrapping_mul(31))
        });
        assert_eq!(results.len(), 64);
        assert_eq!(stats.executed.iter().sum::<usize>(), 64);
        assert!(stats.total_steals() > 0, "stats: {stats:?}");
        assert!(stats.total_steals() < 64);
    }

    #[test]
    fn single_thread_runs_inline() {
        let id = std::thread::current().id();
        let (results, _) = run_indexed(5, 1, move |i, _w| {
            assert_eq!(std::thread::current().id(), id);
            i
        });
        assert_eq!(results, vec![0, 1, 2, 3, 4]);
    }
}
