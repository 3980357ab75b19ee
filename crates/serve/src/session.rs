//! Persistent per-design sessions with dirty-net tracking.
//!
//! A session owns a [`Design`], a private [`BatchEngine`] (so one
//! session's caches never alias another's), and the bookkeeping that
//! makes ECO re-analysis incremental:
//!
//! * **Per-net state** — each net's current structural hash (the result
//!   cache key) and topology-only pattern key (the symbolic-LU cache
//!   key), plus a dirty class for the pending edits.
//! * **Structure groups** — a reference count of member nets per pattern
//!   key. A topology edit moves a net between groups; when a group
//!   empties, its cached symbolic pattern is dropped (nothing will
//!   refactor against it again).
//!
//! Invalidation rules applied at ECO commit time:
//!
//! | edit class | result cache | pattern cache |
//! |---|---|---|
//! | no-op (hash unchanged) | keep | keep |
//! | value-only (pattern key unchanged) | evict old hash | keep — next analyze *refactors* |
//! | topology (pattern key changed) | evict old hash | evict old key iff its group emptied |
//!
//! The engine itself re-derives what to solve from the hashes, so the
//! tracking here can only cost a stale eviction, never a wrong answer —
//! but the counters it maintains are what let tests and the bench *prove*
//! that a value-only ECO performs zero new symbolic analyses.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use awe_batch::{net_keys, BatchEngine, BatchOptions, BatchRun, Design, NetSpec};

use crate::eco::EcoOp;
use crate::protocol::{ErrorCode, RunOpts, ServeError};

/// How stale a net's cached artifacts are after pending edits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Dirty {
    /// No pending edit; the cached result is current.
    Clean,
    /// Values changed: the result is stale, the symbolic pattern holds.
    Value,
    /// Topology changed: result stale and the net switched structure
    /// groups.
    Topology,
}

#[derive(Clone, Copy, Debug)]
struct NetState {
    hash: u64,
    pattern: u64,
    dirty: Dirty,
}

/// Monotonic per-session counters, reported by the `metrics` verb.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// `eco` requests accepted.
    pub ecos: u64,
    /// Individual ops inside accepted ECOs.
    pub eco_ops: u64,
    /// Nets whose edit was value-only.
    pub value_nets: u64,
    /// Nets whose edit changed topology.
    pub topology_nets: u64,
    /// Nets edited back to their previous hash (nothing invalidated).
    pub noop_nets: u64,
    /// `analyze` runs (the initial load's run included).
    pub analyses: u64,
    /// AWE solves across all runs.
    pub solves: u64,
    /// Results served from the cache across all runs.
    pub cache_hits: u64,
    /// Solves that refactored against a cached symbolic pattern.
    pub pattern_hits: u64,
    /// Cached results evicted by edits.
    pub invalidated_results: u64,
    /// Symbolic patterns dropped because their group emptied.
    pub invalidated_patterns: u64,
}

impl SessionStats {
    /// Solves that could *not* reuse a cached symbolic pattern — i.e.
    /// fresh symbolic analyses (dense-path factors count here too, which
    /// only overstates the figure the serve bench bounds).
    pub fn new_symbolic(&self) -> u64 {
        self.solves.saturating_sub(self.pattern_hits)
    }
}

/// What one net's committed edit turned out to be.
#[derive(Clone, Debug)]
pub struct NetChange {
    /// Net name.
    pub net: String,
    /// `"value"`, `"topology"`, or `"noop"`.
    pub class: &'static str,
}

/// The committed effect of one `eco` request.
#[derive(Clone, Debug, Default)]
pub struct EcoOutcome {
    /// Per touched net, in first-touch order.
    pub changes: Vec<NetChange>,
    /// Cached results evicted.
    pub invalidated_results: usize,
    /// Symbolic patterns dropped (structure groups emptied).
    pub invalidated_patterns: usize,
}

/// Deterministic summary of one `analyze` run.
#[derive(Clone, Copy, Debug)]
pub struct AnalyzeSummary {
    /// Nets in the design.
    pub nets: usize,
    /// Nets that were value-dirty going in.
    pub dirty_value: usize,
    /// Nets that were topology-dirty going in.
    pub dirty_topology: usize,
    /// Nets the engine actually visited: the whole design on the first
    /// (cold) analyze, only the dirty subset on warm re-analyses.
    pub swept: usize,
    /// AWE solves performed.
    pub solves: usize,
    /// Results served from the cache.
    pub cache_hits: usize,
    /// Solves that refactored against a cached pattern.
    pub pattern_hits: usize,
    /// Solves that needed a fresh symbolic analysis (or dense factor).
    pub new_symbolic: usize,
    /// Nets whose analysis failed.
    pub failures: usize,
    /// End-to-end wall time of the run.
    pub wall: Duration,
}

/// One named session: a design, its engine, and the dirty-net tracker.
#[derive(Debug)]
pub struct Session {
    /// Session name (the map key, repeated here for reports).
    pub name: String,
    design: Design,
    engine: BatchEngine,
    opts: BatchOptions,
    states: HashMap<String, NetState>,
    groups: HashMap<u64, usize>,
    /// Counters (public so the server can fold in request-level stats).
    pub stats: SessionStats,
    last: Option<BatchRun>,
}

impl Session {
    /// Creates a session around a parsed design. No analysis happens
    /// here; the caller runs [`Session::analyze`] for the initial solve.
    pub fn new(
        name: impl Into<String>,
        design: Design,
        defaults: BatchOptions,
        overrides: RunOpts,
    ) -> Self {
        let mut opts = defaults;
        if let Some(threads) = overrides.threads {
            opts.threads = threads;
        }
        if let Some(order) = overrides.order {
            opts.order = order;
        }
        if overrides.auto_target.is_some() {
            opts.auto_target = overrides.auto_target;
        }
        if let Some(max_order) = overrides.max_order {
            opts.max_order = max_order;
        }
        if let Some(enabled) = overrides.reduce {
            opts.reduce.enabled = enabled;
        }
        if let Some(tol) = overrides.reduce_tol {
            opts.reduce.tolerance = tol;
        }
        if let Some(no_tape) = overrides.no_tape {
            opts.use_tape = !no_tape;
        }
        let mut states = HashMap::with_capacity(design.len());
        let mut groups: HashMap<u64, usize> = HashMap::new();
        for net in design.nets() {
            let (hash, pattern) = net_keys(net, &opts.reduce);
            let state = NetState {
                hash,
                pattern,
                dirty: Dirty::Clean,
            };
            *groups.entry(state.pattern).or_insert(0) += 1;
            states.insert(net.name.clone(), state);
        }
        Session {
            name: name.into(),
            design,
            engine: BatchEngine::new(),
            opts,
            states,
            groups,
            stats: SessionStats::default(),
            last: None,
        }
    }

    /// The design under analysis.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Distinct structure groups (pattern keys) in the design.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Cached result count in this session's engine.
    pub fn cached_results(&self) -> usize {
        self.engine.cache_len()
    }

    /// Cached symbolic-pattern count in this session's engine.
    pub fn cached_patterns(&self) -> usize {
        self.engine.pattern_len()
    }

    /// The most recent run, if any analyze has completed.
    pub fn last_run(&self) -> Option<&BatchRun> {
        self.last.as_ref()
    }

    /// Applies an op sequence atomically: every op is validated against a
    /// *clone* of its net, and only a fully successful sequence commits.
    /// On error the design, states, groups, and caches are untouched.
    pub fn apply_ops(&mut self, ops: &[EcoOp]) -> Result<EcoOutcome, ServeError> {
        // Stage: group ops by net (first-touch order) and apply each
        // net's ops to a clone of its circuit.
        let mut order: Vec<&str> = Vec::new();
        let mut staged: HashMap<&str, awe_circuit::Circuit> = HashMap::new();
        for op in ops {
            let net = op.net();
            if !staged.contains_key(net) {
                let spec = self.design.net_mut(net).ok_or_else(|| {
                    ServeError::new(ErrorCode::EcoError, format!("no net named `{net}`"))
                        .with_net(net)
                })?;
                staged.insert(net, spec.circuit.clone());
                order.push(net);
            }
            let circuit = staged.get_mut(net).expect("staged above");
            op.apply(circuit).map_err(|e| {
                ServeError::new(ErrorCode::EcoError, format!("{op}: {e}")).with_net(net)
            })?;
        }

        // Commit: swap in the edited circuits, reclassify, invalidate.
        let mut outcome = EcoOutcome::default();
        for net in order {
            let circuit = staged.remove(net).expect("staged");
            let spec = self.design.net_mut(net).expect("validated above");
            spec.circuit = circuit;
            // Keys come from the *prepared* net: with the reduction
            // pre-pass enabled these derive from the reduced rewrite, so
            // an ECO inside a collapsed chain reclassifies by what it did
            // to the reduced topology (value shift vs. shifted segment
            // boundaries), never against a stale pattern.
            let (new_hash, new_pattern) = net_keys(spec, &self.opts.reduce);
            let state = self.states.get_mut(net).expect("state tracks design");

            if new_hash == state.hash {
                self.stats.noop_nets += 1;
                outcome.changes.push(NetChange {
                    net: net.to_owned(),
                    class: "noop",
                });
                continue;
            }
            if self.engine.invalidate_result(state.hash) {
                outcome.invalidated_results += 1;
                self.stats.invalidated_results += 1;
            }
            let class = if new_pattern == state.pattern {
                self.stats.value_nets += 1;
                state.dirty = state.dirty.max(Dirty::Value);
                "value"
            } else {
                // Move the net between structure groups; an emptied group
                // will never be refactored against again, so its cached
                // symbolic pattern goes too.
                let members = self
                    .groups
                    .get_mut(&state.pattern)
                    .expect("group tracks members");
                *members -= 1;
                if *members == 0 {
                    self.groups.remove(&state.pattern);
                    if self.engine.invalidate_pattern(state.pattern) {
                        outcome.invalidated_patterns += 1;
                        self.stats.invalidated_patterns += 1;
                    }
                }
                *self.groups.entry(new_pattern).or_insert(0) += 1;
                self.stats.topology_nets += 1;
                state.dirty = Dirty::Topology;
                "topology"
            };
            state.hash = new_hash;
            state.pattern = new_pattern;
            outcome.changes.push(NetChange {
                net: net.to_owned(),
                class,
            });
        }
        self.stats.ecos += 1;
        self.stats.eco_ops += ops.len() as u64;
        Ok(outcome)
    }

    /// Runs the batch engine over the design. Clean nets are served from
    /// the result cache; value-dirty nets refactor against their group's
    /// cached symbolic pattern; topology-dirty nets factor cold (or seed
    /// their new group).
    ///
    /// The first analyze sweeps the whole design. Warm re-analyses hand
    /// the engine only the *dirty* subset — the previous run's results
    /// stay current for every clean net (their hashes are unchanged, so a
    /// full sweep could only re-serve them from the cache) — and splice
    /// the fresh results back into the retained run by net name. Clean
    /// nets still count as `cache_hits` in the summary, so the counters
    /// read identically to a full sweep; `swept` records how many nets
    /// the engine actually visited.
    pub fn analyze(&mut self) -> AnalyzeSummary {
        let mut dirty_value = 0usize;
        let mut dirty_topology = 0usize;
        for state in self.states.values() {
            match state.dirty {
                Dirty::Clean => {}
                Dirty::Value => dirty_value += 1,
                Dirty::Topology => dirty_topology += 1,
            }
        }

        if self.last.is_none() {
            // Cold: nothing to splice into, sweep everything.
            let run = self.engine.run(&self.design, &self.opts);
            for state in self.states.values_mut() {
                state.dirty = Dirty::Clean;
            }
            self.stats.analyses += 1;
            self.stats.solves += run.solves as u64;
            self.stats.cache_hits += run.cache_hits as u64;
            self.stats.pattern_hits += run.pattern_hits as u64;
            let summary = AnalyzeSummary {
                nets: run.results.len(),
                dirty_value,
                dirty_topology,
                swept: run.results.len(),
                solves: run.solves,
                cache_hits: run.cache_hits,
                pattern_hits: run.pattern_hits,
                new_symbolic: run.solves.saturating_sub(run.pattern_hits),
                failures: run.results.iter().filter(|r| r.error.is_some()).count(),
                wall: run.wall,
            };
            self.last = Some(run);
            return summary;
        }

        let start = Instant::now();
        let dirty_nets: Vec<NetSpec> = self
            .design
            .nets()
            .iter()
            .filter(|n| self.states[&n.name].dirty != Dirty::Clean)
            .cloned()
            .collect();
        let swept = dirty_nets.len();
        let clean = self.design.len() - swept;
        let (solves, cache_hits, pattern_hits, wall) = if swept == 0 {
            (0, clean, 0, start.elapsed())
        } else {
            let sub = Design::from_nets(self.design.name.clone(), dirty_nets);
            let run = self.engine.run(&sub, &self.opts);
            let last = self.last.as_mut().expect("warm path has a run");
            let pos: HashMap<String, usize> = last
                .results
                .iter()
                .enumerate()
                .map(|(i, r)| (r.name.clone(), i))
                .collect();
            let totals = (
                run.solves,
                clean + run.cache_hits,
                run.pattern_hits,
                run.wall,
            );
            last.wall = run.wall;
            last.solves = run.solves;
            last.shared = run.shared;
            last.cache_hits = clean + run.cache_hits;
            last.pattern_hits = run.pattern_hits;
            last.pool = run.pool;
            for (res, timing) in run.results.into_iter().zip(run.timings) {
                let i = pos[&res.name];
                last.results[i] = res;
                last.timings[i] = timing;
            }
            totals
        };
        for state in self.states.values_mut() {
            state.dirty = Dirty::Clean;
        }
        self.stats.analyses += 1;
        self.stats.solves += solves as u64;
        self.stats.cache_hits += cache_hits as u64;
        self.stats.pattern_hits += pattern_hits as u64;
        let last = self.last.as_ref().expect("warm path has a run");
        AnalyzeSummary {
            nets: last.results.len(),
            dirty_value,
            dirty_topology,
            swept,
            solves,
            cache_hits,
            pattern_hits,
            new_symbolic: solves.saturating_sub(pattern_hits),
            failures: last.results.iter().filter(|r| r.error.is_some()).count(),
            wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chains_session(nets: usize, stages: usize) -> Session {
        Session::new(
            "t",
            Design::synthetic_chains(nets, stages, 9),
            BatchOptions {
                threads: 1,
                ..BatchOptions::default()
            },
            RunOpts::default(),
        )
    }

    #[test]
    fn value_eco_refactors_without_new_symbolic() {
        // 200 stages: past the sparse-path threshold, so the group shares
        // one cached symbolic pattern.
        let mut s = chains_session(4, 200);
        let cold = s.analyze();
        assert_eq!(cold.solves, 4);
        assert_eq!(s.cached_patterns(), 1);
        let baseline = s.stats.new_symbolic();

        let out = s
            .apply_ops(&[EcoOp::Resize {
                net: "net0002".into(),
                element: "R5".into(),
                value: 123.0,
            }])
            .unwrap();
        assert_eq!(out.changes.len(), 1);
        assert_eq!(out.changes[0].class, "value");
        assert_eq!(out.invalidated_results, 1);
        assert_eq!(out.invalidated_patterns, 0);

        let warm = s.analyze();
        assert_eq!((warm.dirty_value, warm.dirty_topology), (1, 0));
        assert_eq!(warm.solves, 1);
        assert_eq!(warm.cache_hits, 3);
        assert_eq!(warm.pattern_hits, 1);
        assert_eq!(warm.new_symbolic, 0, "value-only ECO: pure refactor");
        assert_eq!(s.stats.new_symbolic(), baseline);
    }

    #[test]
    fn warm_analyze_sweeps_only_the_dirty_subset() {
        let mut s = chains_session(6, 20);
        let cold = s.analyze();
        assert_eq!(cold.swept, 6, "cold analyze sweeps the whole design");

        s.apply_ops(&[EcoOp::Resize {
            net: "net0004".into(),
            element: "R3".into(),
            value: 55.0,
        }])
        .unwrap();
        let warm = s.analyze();
        assert_eq!(warm.swept, 1, "warm analyze visits only the dirty net");
        assert_eq!(warm.solves, 1);
        assert_eq!(warm.cache_hits, 5, "clean nets still read as cache hits");
        let last = s.last_run().expect("analyzed");
        assert_eq!(last.results.len(), 6, "spliced run reports every net");
        assert_eq!(last.results[3].name, "net0004", "design order preserved");
        assert!(!last.results[3].cache_hit, "the dirty net was re-solved");

        // Nothing dirty: the engine is not consulted at all.
        let idle = s.analyze();
        assert_eq!((idle.swept, idle.solves, idle.cache_hits), (0, 0, 6));
    }

    #[test]
    fn topology_eco_moves_groups_and_invalidates_emptied_ones() {
        let mut s = chains_session(3, 200);
        s.analyze();
        assert_eq!(s.group_count(), 1);

        // One net grows a side capacitor: it leaves the group (which keeps
        // two members, so the shared pattern survives).
        let out = s
            .apply_ops(&[EcoOp::Add {
                net: "net0001".into(),
                card: "CX n7 0 0.3p".into(),
            }])
            .unwrap();
        assert_eq!(out.changes[0].class, "topology");
        assert_eq!(out.invalidated_patterns, 0, "group still populated");
        assert_eq!(s.group_count(), 2);
        let after = s.analyze();
        assert_eq!(after.solves, 1);
        assert_eq!(after.new_symbolic, 1, "new topology needs its own analysis");

        // Removing it again returns the net to the original group; the
        // singleton group it vacates empties, dropping the pattern the
        // engine recorded when the lone member solved.
        let back = s
            .apply_ops(&[EcoOp::Remove {
                net: "net0001".into(),
                element: "CX".into(),
            }])
            .unwrap();
        assert_eq!(back.changes[0].class, "topology");
        assert_eq!(s.group_count(), 1);

        // Now push *every* net out of the shared group: the emptied group
        // drops its cached symbolic pattern.
        let grow = |i: usize| EcoOp::Add {
            net: format!("net{:04}", i),
            card: format!("CY{} n3 0 0.{}p", i, i + 1),
        };
        let out = s.apply_ops(&[grow(1), grow(2), grow(3)]).unwrap();
        assert_eq!(
            out.invalidated_patterns, 1,
            "emptied group evicts its pattern"
        );
    }

    #[test]
    fn failed_eco_sequences_commit_nothing() {
        let mut s = chains_session(2, 20);
        s.analyze();
        let hash_before = s.design.nets()[0].hash();
        // Second op fails (no such element): the first op must not stick.
        let err = s
            .apply_ops(&[
                EcoOp::Resize {
                    net: "net0001".into(),
                    element: "R1".into(),
                    value: 500.0,
                },
                EcoOp::Remove {
                    net: "net0001".into(),
                    element: "NOPE".into(),
                },
            ])
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::EcoError);
        assert_eq!(err.net.as_deref(), Some("net0001"));
        assert!(err.message.contains("NOPE"), "{}", err.message);
        assert_eq!(s.design.nets()[0].hash(), hash_before, "atomic: no commit");
        assert_eq!(s.stats.ecos, 0);
        let rerun = s.analyze();
        assert_eq!(rerun.solves, 0, "nothing was dirtied");

        let err = s
            .apply_ops(&[EcoOp::Resize {
                net: "ghost".into(),
                element: "R1".into(),
                value: 1.0,
            }])
            .unwrap_err();
        assert!(err.message.contains("ghost"), "{}", err.message);
    }

    #[test]
    fn resize_to_same_value_is_a_noop() {
        let mut s = chains_session(2, 20);
        s.analyze();
        // Resize to an arbitrary value, then back: second eco of the pair
        // restores the original hash, so nothing stays invalid.
        let original = s.design.nets()[1].hash();
        s.apply_ops(&[EcoOp::Resize {
            net: "net0002".into(),
            element: "R3".into(),
            value: 777.0,
        }])
        .unwrap();
        let out = s
            .apply_ops(&[EcoOp::Resize {
                net: "net0002".into(),
                element: "R3".into(),
                value: 777.0,
            }])
            .unwrap();
        assert_eq!(out.changes[0].class, "noop");
        assert_ne!(s.design.nets()[1].hash(), original, "value did change once");
        assert_eq!(s.stats.noop_nets, 1);
    }
}
