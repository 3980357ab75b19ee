//! # awe-batch
//!
//! Concurrent **full-design** timing analysis on top of the AWE engine:
//! take a design of many independent nets (a multi-net SPICE deck or a
//! synthetic workload) and run AWE across all of them on a from-scratch
//! work-stealing thread pool, with an incremental-reanalysis cache and
//! run metrics.
//!
//! The paper's pitch is throughput — AWE gets its speed from needing
//! "only... moments" per net rather than a full simulation, which is what
//! makes whole-chip timing analysis tractable. This crate supplies the
//! full-design half of that story:
//!
//! * [`Design`]/[`NetSpec`]: the net collection, from
//!   [`Design::from_deck`] (multi-net decks) or [`Design::synthetic`]
//!   (random RC-tree workloads).
//! * [`BatchEngine`]: the scheduler and cache. Results always come back
//!   in design order — byte-identical across thread counts — and re-runs
//!   after an ECO edit only re-solve nets whose
//!   [structural hash](structural_hash) changed.
//! * [`RunMetrics`]: per-stage wall times (parse → MNA → moments → Padé →
//!   residues), escalation and error census, throughput and latency
//!   percentiles; rendered by [`text_report`] / [`json_report`].
//!
//! ```
//! use awe_batch::{BatchEngine, BatchOptions, Design, RunMetrics};
//!
//! let design = Design::synthetic(32, 42);
//! let engine = BatchEngine::new();
//! let run = engine.run(&design, &BatchOptions::default());
//! assert_eq!(run.solves, 32);
//!
//! // Unchanged design: served entirely from the cache, zero AWE solves.
//! let rerun = engine.run(&design, &BatchOptions::default());
//! assert_eq!(rerun.solves, 0);
//! assert_eq!(RunMetrics::of(&rerun).hit_rate(), 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod design;
pub mod engine;
pub mod metrics;
pub mod pool;
pub mod report;
pub mod sweep;
pub mod tape;

pub use awe_circuit::ReduceOptions;
pub use design::{
    net_keys, pattern_key, prepare_net, structural_hash, Design, NetSpec, PreparedNet,
};
pub use engine::{BatchEngine, BatchOptions, BatchRun, NetResult, NetTiming};
pub use metrics::{RunMetrics, SweepMetrics};
pub use pool::PoolStats;
pub use report::{json_report, sweep_json_report, sweep_text_report, text_report};
pub use sweep::{
    corner_circuit, pdn_design, sweep, sweep_ordered, CornerError, CornerSpec, NodeStats, SweepRun,
};
pub use tape::{GroupTape, WorkerArena};
