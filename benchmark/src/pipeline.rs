//! The traced pass: a workload's analysis re-executed one public layer
//! call at a time on one thread, each call timed from outside.
//!
//! [`Pipeline::solve`] follows the path the batch engine takes for every
//! net (`crates/batch/src/engine.rs` and `tape.rs`):
//!
//! * a structure group seen for the first time solves its first member
//!   directly (MNA build, cold factor, moments, reduction) — the donor;
//! * a donor that ended on the sparse path hands its symbolic pattern to
//!   the rest of the group, which replays in lane blocks of
//!   [`LANE_WIDTH`]: a primed slot restamps through the group's
//!   [`StampProgram`], any other slot rebuilds and converts to CSC, then
//!   one [`LaneLu`] refactor, one lane-merged moment recursion and one
//!   reduction per member;
//! * a donor that ended dense makes every other member repeat the direct
//!   path (the dense tape);
//! * a net alone in its group with no stored pattern goes through
//!   [`AweEngine`], as the engine's scalar path does.
//!
//! The returned 50 % delays are bit-identical to the engine's, which the
//! workloads check, so the timings describe the path the engine took.
//! With timers off the same calls run bare; the ratio of the two walls is
//! the tracing overhead.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use awe::{reduce_decomposition, AweEngine, SharedSymbolic, StageTimings};
use awe_batch::{prepare_net, BatchOptions, NetSpec};
use awe_circuit::{Circuit, NodeId};
use awe_mna::{
    decompose_lanes_with, Decomposition, MnaSystem, MomentEngine, MomentWorkspace, StampProgram,
};
use awe_numeric::{LaneLu, SparseMatrix, LANE_WIDTH};

use crate::stats::median;

/// Wall times of outside-timed layer calls, in seconds, keyed by call.
/// When off, [`Timers::start`] returns `None` and nothing is recorded.
pub struct Timers {
    on: bool,
    calls: BTreeMap<&'static str, Vec<f64>>,
}

impl Timers {
    pub fn new(on: bool) -> Self {
        Timers {
            on,
            calls: BTreeMap::new(),
        }
    }

    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    pub fn stop(&mut self, key: &'static str, started: Option<Instant>) {
        self.stop_split(key, started, 1);
    }

    /// Records a call the caller timed itself.
    pub fn record(&mut self, key: &'static str, secs: f64) {
        if self.on {
            self.calls.entry(key).or_default().push(secs);
        }
    }

    /// Records one call shared by `parts` members as `parts` equal samples.
    pub fn stop_split(&mut self, key: &'static str, started: Option<Instant>, parts: usize) {
        if let Some(t) = started {
            let share = t.elapsed().as_secs_f64() / parts.max(1) as f64;
            self.calls
                .entry(key)
                .or_default()
                .extend(std::iter::repeat_n(share, parts.max(1)));
        }
    }

    /// Median seconds per call, 0 when the call never ran.
    pub fn median(&self, key: &str) -> f64 {
        self.calls.get(key).map_or(0.0, |v| median(v))
    }

    /// Total seconds over all calls.
    pub fn total(&self, key: &str) -> f64 {
        self.calls.get(key).map_or(0.0, |v| v.iter().sum())
    }

    /// Total seconds over every timed call.
    pub fn attributed(&self) -> f64 {
        self.calls.values().flatten().sum()
    }
}

/// One arena slot: a stamped system with its sparse images, and the
/// pattern key whose stamp program admitted it (the fast-path tag).
struct Slot {
    sys: MnaSystem,
    g: SparseMatrix,
    c: SparseMatrix,
    primed: Option<u64>,
}

/// A member in flight through a lane block.
struct Lane {
    pos: usize,
    sys: MnaSystem,
    g: SparseMatrix,
    c: Option<SparseMatrix>,
    primed: Option<u64>,
    idx: usize,
}

/// The engine's per-net path, replayed through public layer calls.
pub struct Pipeline {
    pub timers: Timers,
    opts: BatchOptions,
    ws: MomentWorkspace,
    slots: Vec<Option<Slot>>,
    patterns: HashMap<u64, SharedSymbolic>,
    programs: HashMap<u64, Option<Arc<StampProgram>>>,
    filled: HashSet<u64>,
    /// `nnz(L+U) / nnz(G̃)` per sparse structure group.
    pub fill_ratios: Vec<f64>,
    /// Largest MNA unknown count seen.
    pub max_unknowns: usize,
}

impl Pipeline {
    pub fn new(opts: BatchOptions, traced: bool) -> Self {
        Pipeline {
            timers: Timers::new(traced),
            opts,
            ws: MomentWorkspace::new(),
            slots: (0..LANE_WIDTH).map(|_| None).collect(),
            patterns: HashMap::new(),
            programs: HashMap::new(),
            filled: HashSet::new(),
            fill_ratios: Vec::new(),
            max_unknowns: 0,
        }
    }

    /// Drops the stored pattern of a structure group that emptied, as the
    /// serve session does when a topology edit leaves a group.
    pub fn forget(&mut self, key: u64) {
        self.patterns.remove(&key);
        self.programs.remove(&key);
    }

    fn moment_count(&self) -> usize {
        2 * (self.opts.order + self.opts.awe.max_escalation + 1)
    }

    /// Solves every net and returns its 50 % delay (`None` where the
    /// engine reports an error or no crossing), in input order.
    pub fn solve(&mut self, nets: &[NetSpec]) -> Vec<Option<f64>> {
        let mut prepared = Vec::with_capacity(nets.len());
        for net in nets {
            let t = self.timers.start();
            let p = prepare_net(net, &self.opts.reduce);
            self.timers.stop("batch.prepare", t);
            prepared.push(p);
        }
        let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
        let mut group_of: HashMap<u64, usize> = HashMap::new();
        for (i, p) in prepared.iter().enumerate() {
            let g = *group_of.entry(p.pattern).or_insert_with(|| {
                groups.push((p.pattern, Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(i);
        }
        let mut out = vec![None; nets.len()];
        for (key, idx) in groups {
            let members: Vec<(&Circuit, NodeId)> = idx
                .iter()
                .map(|&i| (prepared[i].circuit(&nets[i].circuit), prepared[i].output))
                .collect();
            let delays = self.solve_group(key, &members);
            for (i, d) in idx.into_iter().zip(delays) {
                out[i] = d;
            }
        }
        out
    }

    fn solve_group(&mut self, key: u64, members: &[(&Circuit, NodeId)]) -> Vec<Option<f64>> {
        let mut out = Vec::with_capacity(members.len());
        let mut rest = members;
        if !self.patterns.contains_key(&key) {
            let (&(circuit, output), tail) = members.split_first().expect("groups are non-empty");
            if tail.is_empty() {
                out.push(self.scalar(key, circuit, output, None));
                return out;
            }
            let (delay, symbolic) = self.direct(circuit, output);
            out.push(delay);
            let Some(symbolic) = symbolic else {
                for &(c, o) in tail {
                    // Dense replay rebuilds slot 0, which voids its priming.
                    self.slots[0] = None;
                    out.push(self.direct(c, o).0);
                }
                return out;
            };
            self.patterns.insert(key, symbolic);
            rest = tail;
        }
        let symbolic = self.patterns[&key].clone();
        let program = match self.programs.get(&key) {
            Some(p) => p.clone(),
            None => {
                let t = self.timers.start();
                let p = StampProgram::compile(rest[0].0)
                    .filter(|p| p.num_unknowns() == symbolic.dim())
                    .map(Arc::new);
                self.timers.stop("mna.stamp_other", t);
                self.programs.insert(key, p.clone());
                p
            }
        };
        for block in rest.chunks(LANE_WIDTH) {
            out.extend(self.lanes(key, &symbolic, program.as_deref(), block));
        }
        out
    }

    /// MNA build, cold factor, moments and reduction of one net; returns
    /// its delay and the symbolic pattern when the factor went sparse.
    fn direct(
        &mut self,
        circuit: &Circuit,
        output: NodeId,
    ) -> (Option<f64>, Option<SharedSymbolic>) {
        let t = self.timers.start();
        let built = MnaSystem::build(circuit);
        self.timers.stop("mna.assemble", t);
        let Ok(sys) = built else {
            return (None, None);
        };
        self.max_unknowns = self.max_unknowns.max(sys.num_unknowns());
        let t = self.timers.start();
        let engine = MomentEngine::with_pattern(&sys, None);
        self.timers.stop("numeric.factor", t);
        let Ok(engine) = engine else {
            return (None, None);
        };
        let symbolic = engine.lu_symbolic().cloned();
        let Some(idx) = sys.unknown_of_node(output) else {
            return (None, symbolic);
        };
        let count = self.moment_count();
        let t = self.timers.start();
        let dec = engine.decompose_with(&mut self.ws, count);
        self.timers.stop("mna.moments", t);
        let delay = match dec {
            Ok(dec) => {
                let d = self.reduce(&dec, idx);
                self.ws.recycle(dec);
                d
            }
            Err(_) => None,
        };
        (delay, symbolic)
    }

    /// The engine's scalar path: `AweEngine::new` plus one approximation.
    fn scalar(
        &mut self,
        key: u64,
        circuit: &Circuit,
        output: NodeId,
        seed: Option<SharedSymbolic>,
    ) -> Option<f64> {
        let (order, awe) = (self.opts.order, self.opts.awe);
        let t = self.timers.start();
        let solved = AweEngine::new(circuit).ok().map(|engine| {
            engine.set_factor_pattern(seed);
            let delay = engine
                .approximate_with(output, order, awe)
                .ok()
                .and_then(|a| a.delay_50());
            (
                delay,
                engine.factor_pattern(),
                engine.system().num_unknowns(),
            )
        });
        self.timers.stop("core.engine", t);
        let (delay, pattern, n) = solved?;
        self.max_unknowns = self.max_unknowns.max(n);
        if let Some(p) = pattern {
            self.patterns.entry(key).or_insert(p);
        }
        delay
    }

    fn reduce(&mut self, dec: &Decomposition, idx: usize) -> Option<f64> {
        let mut clock = StageTimings::default();
        let t = self.timers.start();
        let approx = reduce_decomposition(dec, idx, self.opts.order, self.opts.awe, &mut clock);
        self.timers.stop("core.reduce", t);
        approx.ok().and_then(|a| a.delay_50())
    }

    /// One lane block of a sparse structure group.
    fn lanes(
        &mut self,
        key: u64,
        symbolic: &SharedSymbolic,
        program: Option<&StampProgram>,
        block: &[(&Circuit, NodeId)],
    ) -> Vec<Option<f64>> {
        let mut out = vec![None; block.len()];
        let mut live: Vec<Lane> = Vec::new();
        let mut fallback: Vec<usize> = Vec::new();
        for (pos, &(circuit, output)) in block.iter().enumerate() {
            let mut recycled = self.slots[pos].take();
            let mut slot = None;
            if let (Some(p), Some(s)) = (program, recycled.as_mut()) {
                if s.primed == Some(key) {
                    let t = self.timers.start();
                    let ok = p.apply(circuit, &mut s.sys, &mut s.g, &mut s.c);
                    self.timers.stop("mna.stamp", t);
                    if ok {
                        slot = recycled.take();
                    }
                }
            }
            let slot = match slot {
                Some(s) => s,
                None => {
                    let t = self.timers.start();
                    let built = MnaSystem::build(circuit);
                    self.timers.stop("mna.assemble", t);
                    let Ok(sys) = built else {
                        continue;
                    };
                    self.max_unknowns = self.max_unknowns.max(sys.num_unknowns());
                    if sys.num_unknowns() != symbolic.dim() {
                        fallback.push(pos);
                        continue;
                    }
                    let t = self.timers.start();
                    let g = SparseMatrix::from_dense(&sys.g_tilde);
                    let c = SparseMatrix::from_dense(&sys.c_tilde);
                    self.timers.stop("numeric.to_sparse", t);
                    if self.filled.insert(key) {
                        self.fill_ratios
                            .push(symbolic.pattern_nnz() as f64 / g.nnz().max(1) as f64);
                    }
                    let t = self.timers.start();
                    let admitted = program.is_some_and(|p| p.check(circuit));
                    self.timers.stop("mna.stamp_other", t);
                    Slot {
                        sys,
                        g,
                        c,
                        primed: admitted.then_some(key),
                    }
                }
            };
            match slot.sys.unknown_of_node(output) {
                Some(idx) => live.push(Lane {
                    pos,
                    sys: slot.sys,
                    g: slot.g,
                    c: Some(slot.c),
                    primed: slot.primed,
                    idx,
                }),
                None => self.slots[pos] = Some(slot),
            }
        }

        let mut lu = None;
        while !live.is_empty() {
            let key_name = if live.len() == 1 {
                "numeric.refactor"
            } else {
                "numeric.lane_block"
            };
            let mats: Vec<&SparseMatrix> = live.iter().map(|l| &l.g).collect();
            let t = self.timers.start();
            let (fresh, statuses) = LaneLu::refactor(symbolic, &mats);
            self.timers.stop(key_name, t);
            if statuses.iter().all(Result::is_ok) {
                lu = Some(fresh);
                break;
            }
            let mut survivors = Vec::with_capacity(live.len());
            for (lane, status) in live.into_iter().zip(&statuses) {
                if status.is_ok() {
                    survivors.push(lane);
                } else {
                    fallback.push(lane.pos);
                    self.park(lane);
                }
            }
            live = survivors;
        }

        if let Some(lu) = lu {
            let count = self.moment_count();
            let t = self.timers.start();
            let images: Vec<SparseMatrix> = live
                .iter_mut()
                .map(|l| l.c.take().expect("a stamped lane holds its C image"))
                .collect();
            let engines: Vec<MomentEngine<'_>> = live
                .iter()
                .zip(images)
                .enumerate()
                .map(|(k, (l, c))| {
                    let factor = lu.extract(k).expect("a live lane extracts");
                    MomentEngine::from_sparse(&l.sys, factor, c)
                })
                .collect();
            let decs = decompose_lanes_with(&engines, &lu, &mut self.ws, count);
            let returned: Vec<Option<SparseMatrix>> = engines
                .into_iter()
                .map(|e| e.into_sparse().map(|(_, c)| c))
                .collect();
            self.timers.stop_split("mna.moments", t, live.len());
            for (l, c) in live.iter_mut().zip(returned) {
                l.c = c;
            }
            for (lane, dec) in live.into_iter().zip(decs) {
                match dec {
                    Ok(dec) => {
                        out[lane.pos] = self.reduce(&dec, lane.idx);
                        self.ws.recycle(dec);
                    }
                    Err(_) => fallback.push(lane.pos),
                }
                self.park(lane);
            }
        }

        fallback.sort_unstable();
        for pos in fallback {
            let (circuit, output) = block[pos];
            out[pos] = self.scalar(key, circuit, output, Some(symbolic.clone()));
        }
        out
    }

    /// Returns a lane's buffers to its slot; a lane whose C image did not
    /// come back cannot take the stamp fast path again.
    fn park(&mut self, lane: Lane) {
        self.slots[lane.pos] = lane.c.map(|c| Slot {
            sys: lane.sys,
            g: lane.g,
            c,
            primed: lane.primed,
        });
    }
}
