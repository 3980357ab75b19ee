//! Run metrics: aggregate throughput, latency percentiles, and the
//! per-stage time breakdown of a batch run.
//!
//! Stage times come in two views. *CPU* time sums every net's stage
//! breakdown regardless of which worker ran it — total compute burned per
//! stage, which exceeds the run's wall time once workers overlap. *Wall*
//! time first attributes each net's stages to the worker that ran it
//! (`NetTiming::worker`), then takes the per-stage maximum across pool
//! workers: work on one worker is serialized, work on different workers
//! overlaps, so the busiest worker's stage total is the stage's wall-time
//! contribution. The sequential donor-presolve pass
//! ([`CALLER_WORKER`](crate::engine::CALLER_WORKER)) runs strictly
//! *before* the pool, so its stage sums add on top of the maximum instead
//! of competing in it — which also makes the two views coincide exactly
//! on single-threaded runs.

use std::collections::BTreeMap;
use std::time::Duration;

use awe::StageTimings;

use crate::engine::{BatchRun, CALLER_WORKER};

/// Aggregate metrics of one [`BatchRun`].
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Net count.
    pub nets: usize,
    /// AWE solves performed: one per distinct solve circuit among the
    /// cache misses.
    pub solves: usize,
    /// Nets served from a sibling's decomposition (same solve circuit,
    /// another observation node).
    pub shared: usize,
    /// Results served from the cache.
    pub cache_hits: usize,
    /// Solves that reused a cached symbolic LU pattern (numeric
    /// refactorization instead of a full symbolic+numeric factor).
    pub pattern_hits: usize,
    /// Group tapes compiled this run (cache-served tapes compile nothing).
    pub tapes_compiled: usize,
    /// Worst fill ratio `nnz(L+U) / nnz(G̃)` among the tapes compiled
    /// (`None` when none compiled).
    pub fill_ratio: Option<f64>,
    /// Tape replay invocations (one per scheduled member block).
    pub tape_replays: usize,
    /// Mean live-lane occupancy of the sparse lane blocks executed, in
    /// `[0, 1]` (`None` when no lane block ran).
    pub lane_occupancy: Option<f64>,
    /// Tape members that diverged from their block and finished on the
    /// scalar solve path.
    pub scalar_fallbacks: usize,
    /// Tape members stamped from their group's stamp program (no dense
    /// matrix).
    pub stamped: usize,
    /// Tape members rebuilt through the full dense MNA assembly.
    pub rebuilt: usize,
    /// Corner-sweep members built as circuits (see
    /// [`BatchRun::materialized`]).
    pub materialized: usize,
    /// Nets whose analysis failed.
    pub failures: usize,
    /// Nets that escalated past their requested/starting order.
    pub escalated: usize,
    /// Nets whose model needed a partial-Padé rescue (bad poles discarded
    /// and residues refit).
    pub rescued: usize,
    /// Worst §3.4 error estimate across solved nets, when any.
    pub worst_error: Option<f64>,
    /// Wall time spent parsing/generating the design.
    pub parse_time: Duration,
    /// End-to-end wall time of the analysis run.
    pub wall: Duration,
    /// Throughput in nets per second of wall time.
    pub nets_per_sec: f64,
    /// Median per-net latency (nearest-rank).
    pub p50: Duration,
    /// 95th-percentile per-net latency (nearest-rank).
    pub p95: Duration,
    /// 99th-percentile per-net latency (nearest-rank).
    pub p99: Duration,
    /// Per-stage CPU time summed across all solves (MNA assembly →
    /// LU factor/refactor → moments → Padé → residues). Exceeds `wall`
    /// when workers overlap.
    pub stages_cpu: StageTimings,
    /// Per-stage wall-time estimate: each net's stages are attributed to
    /// the worker that ran it; each stage takes the busiest pool worker's
    /// total plus the sequential presolve pass's sum (which runs before
    /// the pool). Never exceeds `stages_cpu`; the two coincide on
    /// single-threaded runs.
    pub stages_wall: StageTimings,
}

impl RunMetrics {
    /// Computes the metrics of a finished run.
    pub fn of(run: &BatchRun) -> Self {
        let mut latencies: Vec<Duration> = run.timings.iter().map(|t| t.latency).collect();
        latencies.sort_unstable();
        let mut stages_cpu = StageTimings::default();
        let mut per_worker: BTreeMap<usize, StageTimings> = BTreeMap::new();
        for t in &run.timings {
            add_stages(&mut stages_cpu, &t.stages);
            add_stages(per_worker.entry(t.worker).or_default(), &t.stages);
        }
        // The presolve pass is serialized before the pool: its stage sums
        // add to the wall estimate, while concurrent pool workers compete
        // (per-stage maximum over workers).
        let presolve = per_worker.remove(&CALLER_WORKER).unwrap_or_default();
        let mut stages_wall = StageTimings::default();
        for s in per_worker.values() {
            stages_wall.mna = stages_wall.mna.max(s.mna);
            stages_wall.factor = stages_wall.factor.max(s.factor);
            stages_wall.refactor = stages_wall.refactor.max(s.refactor);
            stages_wall.moments = stages_wall.moments.max(s.moments);
            stages_wall.pade = stages_wall.pade.max(s.pade);
            stages_wall.residues = stages_wall.residues.max(s.residues);
        }
        add_stages(&mut stages_wall, &presolve);
        let secs = run.wall.as_secs_f64();
        RunMetrics {
            nets: run.results.len(),
            solves: run.solves,
            shared: run.shared,
            cache_hits: run.cache_hits,
            pattern_hits: run.pattern_hits,
            tapes_compiled: run.tapes_compiled,
            fill_ratio: run.fill_ratio,
            tape_replays: run.tape_replays,
            lane_occupancy: (run.lane_blocks > 0).then(|| {
                run.lane_lanes as f64 / (run.lane_blocks * awe_numeric::LANE_WIDTH) as f64
            }),
            scalar_fallbacks: run.scalar_fallbacks,
            stamped: run.stamped,
            rebuilt: run.rebuilt,
            materialized: run.materialized,
            failures: run.results.iter().filter(|r| r.error.is_some()).count(),
            escalated: run.results.iter().filter(|r| r.escalations > 0).count(),
            rescued: run.results.iter().filter(|r| r.rescued).count(),
            worst_error: run
                .results
                .iter()
                .filter_map(|r| r.error_estimate)
                .fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e)))),
            parse_time: run.parse_time,
            wall: run.wall,
            nets_per_sec: if secs > 0.0 {
                run.results.len() as f64 / secs
            } else {
                0.0
            },
            p50: percentile(&latencies, 50.0),
            p95: percentile(&latencies, 95.0),
            p99: percentile(&latencies, 99.0),
            stages_cpu,
            stages_wall,
        }
    }

    /// Cache hit rate in `[0, 1]` (zero for an empty run).
    pub fn hit_rate(&self) -> f64 {
        if self.nets == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.nets as f64
        }
    }
}

/// Aggregate metrics of one [`SweepRun`](crate::sweep::SweepRun): the
/// underlying batch metrics plus the sweep's own accounting — corner
/// census, boundary rejections, and the symbolic-work ledger whose
/// "after donor" entry being zero is the sweep's headline claim.
#[derive(Clone, Debug)]
pub struct SweepMetrics {
    /// Metrics of the underlying batch run over all corner members.
    pub batch: RunMetrics,
    /// Corners requested by the spec.
    pub corners: usize,
    /// Members scheduled (accepted corners × observation nodes).
    pub members: usize,
    /// Per-net corner rejections at the validation boundary.
    pub rejected: usize,
    /// Symbolic factorizations paid (`solves - pattern_hits`).
    pub new_symbolic: usize,
    /// Symbolic factorizations beyond the donor's — zero when every
    /// corner after the donor replayed a cached pattern.
    pub new_symbolic_after_donor: usize,
    /// Corners per second of batch wall time.
    pub corners_per_sec: f64,
}

impl SweepMetrics {
    /// Computes the metrics of a finished sweep.
    pub fn of(sweep: &crate::sweep::SweepRun) -> Self {
        SweepMetrics {
            batch: RunMetrics::of(&sweep.run),
            corners: sweep.spec.corners,
            members: sweep.members.len(),
            rejected: sweep.rejected.len(),
            new_symbolic: sweep.new_symbolic,
            new_symbolic_after_donor: sweep.new_symbolic_after_donor,
            corners_per_sec: sweep.corners_per_sec(),
        }
    }
}

fn add_stages(dst: &mut StageTimings, src: &StageTimings) {
    dst.mna += src.mna;
    dst.factor += src.factor;
    dst.refactor += src.refactor;
    dst.moments += src.moments;
    dst.pade += src.pade;
    dst.residues += src.residues;
}

/// Nearest-rank percentile of sorted latencies (`Duration::ZERO` when
/// empty).
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;
    use crate::engine::{BatchEngine, BatchOptions};

    #[test]
    fn percentile_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 50.0), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 95.0), Duration::from_millis(95));
        assert_eq!(percentile(&ms, 99.0), Duration::from_millis(99));
        assert_eq!(percentile(&ms[..1], 99.0), Duration::from_millis(1));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
    }

    #[test]
    fn metrics_of_a_run() {
        let design = Design::synthetic(10, 2);
        let engine = BatchEngine::new();
        let run = engine.run(&design, &BatchOptions::default());
        let m = RunMetrics::of(&run);
        assert_eq!(m.nets, 10);
        assert_eq!(m.solves, 10);
        assert_eq!(m.failures, 0);
        assert!(m.nets_per_sec > 0.0);
        assert!(m.p50 <= m.p95 && m.p95 <= m.p99);
        assert!(m.stages_cpu.total() > Duration::ZERO);
        assert!(m.stages_wall.total() > Duration::ZERO);
        assert!(m.stages_wall.total() <= m.stages_cpu.total());

        let rerun = engine.run(&design, &BatchOptions::default());
        let m2 = RunMetrics::of(&rerun);
        assert_eq!(m2.cache_hits, 10);
        assert!((m2.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_thread_wall_equals_cpu() {
        // With one worker everything is serialized on the caller thread
        // (presolve pass included), so the wall view degenerates to the
        // cpu view exactly.
        let design = Design::synthetic(9, 13);
        let run = BatchEngine::new().run(
            &design,
            &BatchOptions {
                threads: 1,
                ..BatchOptions::default()
            },
        );
        let m = RunMetrics::of(&run);
        assert_eq!(m.stages_cpu.total(), m.stages_wall.total());
    }

    #[test]
    fn multi_thread_wall_bounded_by_cpu() {
        let design = Design::synthetic(24, 3);
        let run = BatchEngine::new().run(
            &design,
            &BatchOptions {
                threads: 4,
                ..BatchOptions::default()
            },
        );
        let m = RunMetrics::of(&run);
        assert!(m.stages_wall.total() <= m.stages_cpu.total());
        assert!(m.stages_wall.total() > Duration::ZERO);
    }
}
