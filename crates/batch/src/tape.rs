//! The structure-group tape compiler and replay VM.
//!
//! After a structure group's donor net finishes its symbolic analysis,
//! the group's remaining members all run the *same* op sequence — stamp
//! values, refactor, moment recursion, Padé/residues, waveform metrics —
//! differing only in numeric values. [`compile`] records that sequence
//! once as a flat [`GroupTape`]; [`replay_block`] then executes the
//! remaining members by replaying the tape over pre-sized, recycled
//! value buffers (a [`WorkerArena`]) instead of re-running the engine's
//! allocation-heavy general path per net.
//!
//! A member is a solve job: one circuit plus the nets observing it,
//! leader first. Stamp, factor and moments run once per member; Reduce
//! runs once per observer at that observer's own unknown.
//!
//! Two tape kinds exist (see `DESIGN.md` §13 for the ISA):
//!
//! * **Sparse** tapes carry the group's [`SharedSymbolic`] analysis and
//!   replay up to [`LANE_WIDTH`] members at once through the lane-strided
//!   [`LaneLu`] kernel — one numeric refactorization and one blocked
//!   moment recursion for the whole lane block.
//! * **Dense** tapes replay one member at a time, recycling the arena's
//!   dense LU buffers and MNA arrays (no lane kernel: dense factors are
//!   pivot-order-divergent, so lanes would immediately desynchronize).
//!
//! Replay is **bit-identical** to the scalar engine path by
//! construction: every stage goes through the same code the scalar path
//! runs (`build_reusing` ≡ `build`, `refill_from_dense` ≡ `from_dense`,
//! per-lane `LaneLu` factors ≡ scalar refactorization,
//! `decompose_lanes_with` ≡ per-lane `decompose_with`,
//! [`reduce_decomposition`] ≡ the engine's delivery policy). Any member
//! that diverges — a failed lane refactorization, an unknown-count
//! mismatch, a dense member that would have taken the sparse path —
//! falls back to the scalar [`solve_net`](crate::engine) for just that
//! member, which is the tape-off code path verbatim.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use awe::{reduce_decomposition, AweError, SharedSymbolic, StageTimings};
use awe_circuit::Circuit;
use awe_mna::{
    decompose_lanes_with, Decomposition, MnaSystem, MomentEngine, MomentWorkspace, StampProgram,
    SPARSE_THRESHOLD,
};
use awe_numeric::{LaneLu, Lu, Matrix, SparseMatrix, LANE_WIDTH};

use crate::engine::{
    blank_result, fill_result, outcome, share, solve_net, BatchOptions, NetResult, Observer,
    SolveJob, SolveOutcome,
};

/// Tapes compiled this process (one per structure group per option set).
static TAPES_COMPILED: awe_obs::Counter = awe_obs::Counter::new("batch.tapes_compiled");
/// Tape replay invocations (one per scheduled member block).
static TAPE_REPLAYS: awe_obs::Counter = awe_obs::Counter::new("batch.tape_replays");
/// Members that left tape replay for the scalar solve path.
static SCALAR_FALLBACKS: awe_obs::Counter = awe_obs::Counter::new("batch.scalar_fallbacks");
/// Live-lane fraction per executed lane block (1.0 = all lanes full).
static LANE_OCCUPANCY: awe_obs::Histogram = awe_obs::Histogram::new("batch.lane_occupancy");
/// Members restamped through a compiled stamp program (the Stamp op's
/// value-only fast path) instead of a full MNA rebuild.
static STAMP_APPLIES: awe_obs::Counter = awe_obs::Counter::new("batch.stamp_applies");

/// One instruction of a compiled group tape.
///
/// Operands are implicit indices into the replaying [`WorkerArena`]'s
/// value buffers (systems, matrix images, factor lanes, workspace); the
/// member's position in its block selects the lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TapeOp {
    /// Assemble each member's MNA system into the arena's recycled
    /// system buffers (values only; the layout is fixed by the group).
    Stamp,
    /// Numeric multi-lane refactorization of every stamped `G̃` against
    /// the group's shared symbolic pattern.
    RefactorLanes,
    /// Dense LU factorization of `G̃`, recycling the arena's dense
    /// factor buffers.
    FactorDense,
    /// Blocked multi-RHS moment recursion: `count` moments per
    /// excitation piece, all lanes in lockstep.
    Moments {
        /// Moments generated per excitation piece.
        count: usize,
    },
    /// Padé pole matching, pole filtering/rescue, residues, and the
    /// §3.4 error estimate at the requested order (the engine's full
    /// delivery policy).
    Reduce {
        /// Requested approximation order.
        order: usize,
    },
    /// Waveform metrics (50 % delay, final value, poles) into the
    /// member's result row.
    Emit,
}

/// Which factorization kernel a tape replays through.
#[derive(Clone)]
pub enum TapeKind {
    /// Multi-lane sparse replay against a shared symbolic analysis.
    Sparse {
        /// The group's shared symbolic LU pattern.
        symbolic: SharedSymbolic,
    },
    /// Scalar-width dense replay with recycled factor buffers.
    Dense,
}

/// A compiled, flat op schedule for one structure group.
///
/// Compiled once per group (per option set) after the donor solve;
/// cached on the [`BatchEngine`](crate::BatchEngine) keyed by the
/// group's pattern key, so a later single-member run (an ECO re-analysis
/// of one group member) replays without recompiling.
#[derive(Clone)]
pub struct GroupTape {
    /// The group's topology pattern key.
    pub pattern: u64,
    /// Factorization kernel.
    pub kind: TapeKind,
    /// Compiled value-only restamping schedule (sparse tapes whose donor
    /// fits the program contract). The Stamp op uses it to skip the full
    /// MNA rebuild on primed arena slots; `None` replays through
    /// `build_reusing` exactly as before.
    pub program: Option<Arc<StampProgram>>,
    /// The op schedule.
    pub ops: Vec<TapeOp>,
    /// Requested order the `Reduce` op was compiled for.
    pub order: usize,
    /// Moment count the `Moments` op was compiled for.
    pub moment_count: usize,
}

impl fmt::Debug for GroupTape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupTape")
            .field("pattern", &format_args!("{:016x}", self.pattern))
            .field(
                "kind",
                &match self.kind {
                    TapeKind::Sparse { .. } => "sparse",
                    TapeKind::Dense => "dense",
                },
            )
            .field("ops", &self.ops)
            .field("program", &self.program.is_some())
            .finish()
    }
}

impl GroupTape {
    /// Members replayed per lane block: [`LANE_WIDTH`] on the sparse
    /// kernel, one at a time on the dense kernel.
    pub fn lane_width(&self) -> usize {
        match self.kind {
            TapeKind::Sparse { .. } => LANE_WIDTH,
            TapeKind::Dense => 1,
        }
    }

    /// Whether this tape was compiled for the given options (order and
    /// escalation headroom move the op operands, so a stale tape must be
    /// recompiled — compilation needs no donor and is cheap).
    pub fn matches(&self, opts: &BatchOptions) -> bool {
        self.order == opts.order && self.moment_count == moment_count(opts)
    }
}

/// Moments the tape's recursion op must generate: enough for the highest
/// escalated order plus the §3.4 `(q+1)` error reference — the same
/// count the scalar engine requests.
fn moment_count(opts: &BatchOptions) -> usize {
    2 * (opts.order + opts.awe.max_escalation + 1)
}

/// Whether batch tapes apply to this option set at all. Automatic order
/// selection re-plans per net (each member may stop at a different
/// order), so there is no group-uniform schedule to compile.
pub fn tape_applicable(opts: &BatchOptions) -> bool {
    opts.use_tape && opts.auto_target.is_none()
}

/// Compiles the op schedule for one structure group. `symbolic` is the
/// group's shared pattern when the donor took the sparse path; `donor`
/// is the group's donor circuit, from which the Stamp op's value-only
/// restamping program is compiled when the topology fits its contract
/// (see [`StampProgram`]). A donor outside the contract — or a program
/// whose unknown count disagrees with the shared pattern (a pattern-key
/// collision) — simply leaves `program` unset, and Stamp replays through
/// the full build path.
pub fn compile(
    pattern: u64,
    donor: Option<&Circuit>,
    symbolic: Option<SharedSymbolic>,
    opts: &BatchOptions,
) -> GroupTape {
    TAPES_COMPILED.incr();
    let kind = match symbolic {
        Some(symbolic) => TapeKind::Sparse { symbolic },
        None => TapeKind::Dense,
    };
    let program = match (&kind, donor) {
        (TapeKind::Sparse { symbolic }, Some(circuit)) => StampProgram::compile(circuit)
            .filter(|p| p.num_unknowns() == symbolic.dim())
            .map(Arc::new),
        _ => None,
    };
    let factor = match kind {
        TapeKind::Sparse { .. } => TapeOp::RefactorLanes,
        TapeKind::Dense => TapeOp::FactorDense,
    };
    GroupTape {
        pattern,
        ops: vec![
            TapeOp::Stamp,
            factor,
            TapeOp::Moments {
                count: moment_count(opts),
            },
            TapeOp::Reduce { order: opts.order },
            TapeOp::Emit,
        ],
        kind,
        program,
        order: opts.order,
        moment_count: moment_count(opts),
    }
}

/// One worker's owned replay buffers: recycled MNA systems, sparse
/// matrix images, dense factor storage, and the moment-recursion
/// workspace. Each pool worker owns exactly one arena for a whole run,
/// so replay performs no cross-thread sharing and, in steady state, no
/// per-net allocation.
pub struct WorkerArena {
    ws: MomentWorkspace,
    systems: Vec<Option<MnaSystem>>,
    g_imgs: Vec<Option<SparseMatrix>>,
    c_imgs: Vec<Option<SparseMatrix>>,
    /// Pattern key whose stamp program last verified slot `pos`'s
    /// buffers: the system and both images hold that group's donor
    /// structure, so the Stamp op may restamp them in place through the
    /// program instead of rebuilding. Cleared whenever a slot takes on
    /// unverified structure (dense replay, build-path members the
    /// program declines).
    primed: Vec<Option<u64>>,
    dense_lu: Option<Lu>,
}

impl Default for WorkerArena {
    fn default() -> Self {
        WorkerArena {
            ws: MomentWorkspace::new(),
            systems: (0..LANE_WIDTH).map(|_| None).collect(),
            g_imgs: (0..LANE_WIDTH).map(|_| None).collect(),
            c_imgs: (0..LANE_WIDTH).map(|_| None).collect(),
            primed: (0..LANE_WIDTH).map(|_| None).collect(),
            dense_lu: None,
        }
    }
}

impl fmt::Debug for WorkerArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("WorkerArena { .. }")
    }
}

impl WorkerArena {
    /// A fresh arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Deterministic accounting for one replay invocation.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ReplayStats {
    /// Lane blocks executed through the sparse kernel.
    pub lane_blocks: usize,
    /// Live lanes summed over those blocks (occupancy numerator).
    pub lane_lanes: usize,
}

/// Replays the solve `jobs` of one structure group against `tape`, using
/// (and refilling) the worker's `arena`. Each job is one member: one
/// stamped system, one factor and one moment recursion, reduced at every
/// observer's node. Returns one outcome per job, in job order.
pub(crate) fn replay_block(
    tape: &GroupTape,
    jobs: &[SolveJob<'_>],
    opts: &BatchOptions,
    arena: &mut WorkerArena,
) -> (Vec<SolveOutcome>, ReplayStats) {
    TAPE_REPLAYS.incr();
    let mut sp = awe_obs::span("tape.replay");
    sp.note(jobs.len() as f64, tape.lane_width() as f64);
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut stats = ReplayStats::default();
    match &tape.kind {
        TapeKind::Sparse { symbolic } => {
            for chunk in jobs.chunks(LANE_WIDTH) {
                replay_sparse_lanes(
                    tape,
                    symbolic,
                    chunk,
                    opts,
                    arena,
                    &mut outcomes,
                    &mut stats,
                );
            }
        }
        TapeKind::Dense => {
            for job in jobs {
                outcomes.push(replay_dense_member(tape, job, opts, arena));
            }
        }
    }
    (outcomes, stats)
}

/// A live lane mid-replay: the member position, its stamped system and
/// sparse images, each observer's unknown (`None` outside the system),
/// and the build time. The lane owns its images from Stamp onward (the
/// moment op temporarily takes the `C̃` image into the engine and puts it
/// back); they return to the arena slot when the lane retires.
struct Lane {
    pos: usize,
    sys: MnaSystem,
    g_img: SparseMatrix,
    c_img: Option<SparseMatrix>,
    idxs: Vec<Option<usize>>,
    build: Duration,
}

/// Returns a retired lane's buffers to its arena slot. The primed tag,
/// if set, stays valid: retirement never changes the buffers' structure,
/// only their values.
fn park_lane(arena: &mut WorkerArena, lane: Lane) {
    arena.systems[lane.pos] = Some(lane.sys);
    arena.g_imgs[lane.pos] = Some(lane.g_img);
    arena.c_imgs[lane.pos] = lane.c_img;
}

/// Each observer's unknown in the stamped system, or `None` when no
/// observer's node is an unknown (every observer then gets `BadNode`).
fn observer_unknowns(job: &SolveJob<'_>, sys: &MnaSystem) -> Option<Vec<Option<usize>>> {
    let idxs: Vec<Option<usize>> = job
        .observers
        .iter()
        .map(|o| sys.unknown_of_node(o.output))
        .collect();
    idxs.iter().any(Option::is_some).then_some(idxs)
}

/// A job finished without a decomposition: every observer carries
/// `error`, or `BadNode` where `error` is `None`.
fn failed_job(
    job: &SolveJob<'_>,
    opts: &BatchOptions,
    error: Option<&AweError>,
    stages: StageTimings,
    t0: Instant,
    pattern_hit: bool,
) -> SolveOutcome {
    let stages = share(&stages, job.observers.len());
    SolveOutcome {
        nets: job
            .observers
            .iter()
            .map(|o| {
                let mut result = base_result(job, o, opts);
                result.error = Some(error.map_or_else(
                    || AweError::BadNode(o.output).to_string(),
                    ToString::to_string,
                ));
                (o.index, result, stages)
            })
            .collect(),
        latency: t0.elapsed(),
        pattern_hit,
        new_pattern: None,
        fallback: false,
    }
}

/// Reduces one decomposition at every observer of `job`: observers with
/// an unknown get the engine's delivery policy at it (or the error that
/// stopped the decomposition), the rest `BadNode`. `shared` holds the
/// job's shared stage times, split evenly here.
fn reduce_observers(
    job: &SolveJob<'_>,
    idxs: &[Option<usize>],
    dec: Result<&Decomposition, &AweError>,
    order: usize,
    opts: &BatchOptions,
    shared: &StageTimings,
) -> Vec<(usize, NetResult, StageTimings)> {
    let shared = share(shared, job.observers.len());
    job.observers
        .iter()
        .zip(idxs)
        .map(|(o, idx)| {
            let mut result = base_result(job, o, opts);
            let mut clock = shared;
            let reduced = match (*idx, dec) {
                (Some(idx), Ok(dec)) => reduce_decomposition(dec, idx, order, opts.awe, &mut clock),
                (Some(_), Err(e)) => Err(e.clone()),
                (None, _) => Err(AweError::BadNode(o.output)),
            };
            match reduced {
                Ok(approx) => {
                    result.escalations = approx.order.saturating_sub(order);
                    fill_result(&mut result, &approx);
                }
                Err(e) => result.error = Some(e.to_string()),
            }
            (o.index, result, clock)
        })
        .collect()
}

/// Replays up to [`LANE_WIDTH`] members in lockstep through the sparse
/// lane kernel, interpreting the tape's op schedule. Members that
/// diverge at any op drop out to scalar fallback without disturbing
/// their neighbors.
#[allow(clippy::too_many_arguments)]
fn replay_sparse_lanes(
    tape: &GroupTape,
    symbolic: &SharedSymbolic,
    members: &[SolveJob<'_>],
    opts: &BatchOptions,
    arena: &mut WorkerArena,
    outcomes: &mut Vec<SolveOutcome>,
    stats: &mut ReplayStats,
) {
    let t_block = Instant::now();
    let mut done: Vec<Option<SolveOutcome>> = members.iter().map(|_| None).collect();
    let mut fallback: Vec<usize> = Vec::new();
    let mut lanes: Vec<Lane> = Vec::new();
    let mut lu: Option<LaneLu> = None;
    let mut refactor_share = Duration::ZERO;
    let mut moments_share = Duration::ZERO;
    let mut decs = Vec::new();

    for op in &tape.ops {
        match *op {
            TapeOp::Stamp => {
                for (pos, member) in members.iter().enumerate() {
                    let t0 = Instant::now();
                    let mut recycled = arena.systems[pos].take();
                    // Fast path: a primed slot (donor-structured system
                    // plus both sparse images, tagged with this tape's
                    // pattern) restamps through the compiled program —
                    // O(elements + nnz) value stores instead of a full
                    // dense rebuild and two dense→CSC refills. A member
                    // the program declines falls through to the build
                    // path below with the buffers back in hand.
                    if let (Some(prog), Some(tag)) = (&tape.program, arena.primed[pos]) {
                        if tag == tape.pattern
                            && recycled.is_some()
                            && arena.g_imgs[pos].is_some()
                            && arena.c_imgs[pos].is_some()
                        {
                            let mut sys = recycled.take().expect("checked above");
                            let mut g_img = arena.g_imgs[pos].take().expect("checked above");
                            let mut c_img = arena.c_imgs[pos].take().expect("checked above");
                            if prog.apply(member.circuit, &mut sys, &mut g_img, &mut c_img) {
                                STAMP_APPLIES.incr();
                                if let Some(idxs) = observer_unknowns(member, &sys) {
                                    lanes.push(Lane {
                                        pos,
                                        sys,
                                        g_img,
                                        c_img: Some(c_img),
                                        idxs,
                                        build: t0.elapsed(),
                                    });
                                } else {
                                    arena.systems[pos] = Some(sys);
                                    arena.g_imgs[pos] = Some(g_img);
                                    arena.c_imgs[pos] = Some(c_img);
                                    let stages = StageTimings {
                                        mna: t0.elapsed(),
                                        ..StageTimings::default()
                                    };
                                    done[pos] =
                                        Some(failed_job(member, opts, None, stages, t0, true));
                                }
                                continue;
                            }
                            recycled = Some(sys);
                            arena.g_imgs[pos] = Some(g_img);
                            arena.c_imgs[pos] = Some(c_img);
                        }
                    }
                    arena.primed[pos] = None;
                    match MnaSystem::build_reusing(member.circuit, recycled) {
                        Ok(sys) => {
                            if sys.num_unknowns() != symbolic.dim() {
                                // Pattern-key collision across unknown
                                // counts: the scalar path would reject the
                                // seed and cold-factor; so does fallback.
                                arena.systems[pos] = Some(sys);
                                fallback.push(pos);
                            } else if let Some(idxs) = observer_unknowns(member, &sys) {
                                // Refill both images now (Stamp-stage
                                // work; the factor and moment ops consume
                                // them in place), and prime the slot for
                                // the next block when the program admits
                                // this member — its structure then
                                // provably equals the donor's.
                                let g_img = refill_or_build(arena.g_imgs[pos].take(), &sys.g_tilde);
                                let c_img = refill_or_build(arena.c_imgs[pos].take(), &sys.c_tilde);
                                if tape
                                    .program
                                    .as_ref()
                                    .is_some_and(|p| p.check(member.circuit))
                                {
                                    arena.primed[pos] = Some(tape.pattern);
                                }
                                lanes.push(Lane {
                                    pos,
                                    sys,
                                    g_img,
                                    c_img: Some(c_img),
                                    idxs,
                                    build: t0.elapsed(),
                                });
                            } else {
                                // Scalar parity: the engine seeds the
                                // pattern before the node check, so the
                                // returned pattern equals the seed and
                                // counts as a hit.
                                arena.systems[pos] = Some(sys);
                                let stages = StageTimings {
                                    mna: t0.elapsed(),
                                    ..StageTimings::default()
                                };
                                done[pos] = Some(failed_job(member, opts, None, stages, t0, true));
                            }
                        }
                        Err(e) => {
                            // Scalar parity: `AweEngine::new` fails before
                            // any pattern is involved.
                            let e = AweError::from(e);
                            done[pos] = Some(failed_job(
                                member,
                                opts,
                                Some(&e),
                                StageTimings::default(),
                                t0,
                                false,
                            ));
                        }
                    }
                }
            }
            TapeOp::RefactorLanes => {
                // Refactor every lane's (already stamped) G̃ image at
                // once. A lane whose values make a stored pivot
                // inadmissible drops to fallback and the survivors
                // refactor again — per-lane factor values are
                // position-independent, so the retry changes nothing for
                // the lanes that already succeeded.
                while !lanes.is_empty() {
                    let t0 = Instant::now();
                    let mats: Vec<&SparseMatrix> = lanes.iter().map(|l| &l.g_img).collect();
                    let (fresh_lu, statuses) = LaneLu::refactor(symbolic, &mats);
                    refactor_share += t0.elapsed();
                    if statuses.iter().all(|s| s.is_ok()) {
                        lu = Some(fresh_lu);
                        break;
                    }
                    let mut survivors = Vec::with_capacity(lanes.len());
                    for (k, lane) in lanes.into_iter().enumerate() {
                        if statuses[k].is_ok() {
                            survivors.push(lane);
                        } else {
                            let pos = lane.pos;
                            park_lane(arena, lane);
                            fallback.push(pos);
                        }
                    }
                    lanes = survivors;
                }
            }
            TapeOp::FactorDense => unreachable!("dense op on a sparse tape"),
            TapeOp::Moments { count } => {
                if lanes.is_empty() {
                    continue;
                }
                let lu = lu.as_ref().expect("refactor precedes moments");
                stats.lane_blocks += 1;
                stats.lane_lanes += lanes.len();
                LANE_OCCUPANCY.record(lanes.len() as f64 / LANE_WIDTH as f64);
                let t0 = Instant::now();
                let c_imgs: Vec<SparseMatrix> = lanes
                    .iter_mut()
                    .map(|l| l.c_img.take().expect("stamp fills the C image"))
                    .collect();
                let mut engines = Vec::with_capacity(lanes.len());
                for (k, (lane, c_img)) in lanes.iter().zip(c_imgs).enumerate() {
                    let factor = lu.extract(k).expect("live lane extracts");
                    engines.push(MomentEngine::from_sparse(&lane.sys, factor, c_img));
                }
                decs = decompose_lanes_with(&engines, lu, &mut arena.ws, count);
                let recycled: Vec<_> = engines.into_iter().map(MomentEngine::into_sparse).collect();
                for (lane, rec) in lanes.iter_mut().zip(recycled) {
                    if let Some((_, c_img)) = rec {
                        lane.c_img = Some(c_img);
                    }
                }
                moments_share += t0.elapsed();
            }
            // Emit runs fused with Reduce (the waveform metrics read the
            // approximation the reduction just delivered).
            TapeOp::Emit => {}
            TapeOp::Reduce { order } => {
                let live = lanes.len().max(1) as u32;
                for (lane, dec) in lanes.drain(..).zip(decs.drain(..)) {
                    match dec {
                        Ok(dec) => {
                            let shared = StageTimings {
                                mna: lane.build,
                                refactor: refactor_share / live,
                                moments: moments_share / live,
                                ..StageTimings::default()
                            };
                            let member = &members[lane.pos];
                            let nets = reduce_observers(
                                member,
                                &lane.idxs,
                                Ok(&dec),
                                order,
                                opts,
                                &shared,
                            );
                            arena.ws.recycle(dec);
                            done[lane.pos] = Some(SolveOutcome {
                                nets,
                                latency: t_block.elapsed(),
                                pattern_hit: true,
                                new_pattern: None,
                                fallback: false,
                            });
                        }
                        // A lane the merged recursion could not finish:
                        // replay it scalar, which reproduces the exact
                        // scalar-path error (or result) for that member.
                        Err(_) => fallback.push(lane.pos),
                    }
                    park_lane(arena, lane);
                }
            }
        }
    }

    fallback.sort_unstable();
    for pos in fallback {
        done[pos] = Some(scalar_fallback(
            &members[pos],
            opts,
            Some(symbolic),
            t_block,
        ));
    }
    for (pos, slot) in done.into_iter().enumerate() {
        outcomes.push(
            slot.unwrap_or_else(|| unreachable!("member {pos} neither completed nor fell back")),
        );
    }
}

/// Replays one member of a dense tape: the scalar pipeline with every
/// buffer recycled from the arena (system arrays, dense LU storage,
/// moment workspace).
fn replay_dense_member(
    tape: &GroupTape,
    job: &SolveJob<'_>,
    opts: &BatchOptions,
    arena: &mut WorkerArena,
) -> SolveOutcome {
    let t0 = Instant::now();
    // Dense replay rebuilds slot 0's system with this member's own
    // structure; any stamp-program priming of that slot is void.
    arena.primed[0] = None;
    let mut clock = StageTimings::default();
    let mut sys: Option<MnaSystem> = None;
    let mut idxs: Vec<Option<usize>> = Vec::new();
    let mut lu: Option<Lu> = None;
    let mut nets = Vec::new();

    for op in &tape.ops {
        match *op {
            TapeOp::Stamp => {
                let t = Instant::now();
                match MnaSystem::build_reusing(job.circuit, arena.systems[0].take()) {
                    Ok(s) => {
                        clock.mna = t.elapsed();
                        if s.num_unknowns() >= SPARSE_THRESHOLD {
                            // The scalar path might choose sparse here;
                            // replaying dense could diverge bitwise.
                            arena.systems[0] = Some(s);
                            return scalar_fallback(job, opts, None, t0);
                        }
                        match observer_unknowns(job, &s) {
                            Some(found) => {
                                idxs = found;
                                sys = Some(s);
                            }
                            None => {
                                arena.systems[0] = Some(s);
                                return failed_job(job, opts, None, clock, t0, false);
                            }
                        }
                    }
                    Err(e) => {
                        let e = AweError::from(e);
                        return failed_job(job, opts, Some(&e), clock, t0, false);
                    }
                }
            }
            TapeOp::FactorDense => {
                let s = sys.as_ref().expect("stamp precedes factor");
                let t = Instant::now();
                let mut sp = awe_obs::span("lu.dense_factor");
                sp.note(s.num_unknowns() as f64, 0.0);
                match Lu::factor_reusing(&s.g_tilde, arena.dense_lu.take()) {
                    Ok(f) => {
                        clock.factor = t.elapsed();
                        lu = Some(f);
                    }
                    Err(_) => {
                        // Singular G̃: hand the member to the scalar path
                        // so the error text (and any recovery) matches
                        // tape-off exactly.
                        arena.systems[0] = sys.take();
                        return scalar_fallback(job, opts, None, t0);
                    }
                }
            }
            TapeOp::RefactorLanes => unreachable!("lane op on a dense tape"),
            TapeOp::Moments { count } => {
                let s = sys.as_ref().expect("stamp precedes moments");
                let engine = MomentEngine::from_dense(s, lu.take().expect("factor precedes"));
                let t = Instant::now();
                match engine.decompose_with(&mut arena.ws, count) {
                    Ok(dec) => {
                        clock.moments = t.elapsed();
                        nets = reduce_observers(job, &idxs, Ok(&dec), tape.order, opts, &clock);
                        arena.ws.recycle(dec);
                    }
                    Err(e) => {
                        let e = AweError::from(e);
                        nets = reduce_observers(job, &idxs, Err(&e), tape.order, opts, &clock);
                    }
                }
                arena.dense_lu = engine.into_dense_lu();
            }
            // Reduce runs fused with the moment op (the decomposition
            // borrows the system); Emit is the return below.
            TapeOp::Reduce { .. } | TapeOp::Emit => {}
        }
    }
    arena.systems[0] = sys;
    SolveOutcome {
        nets,
        latency: t0.elapsed(),
        pattern_hit: false,
        new_pattern: None,
        fallback: false,
    }
}

/// The tape-off path for one job: a full scalar [`solve_net`], seeded
/// with the group pattern when the tape carried one. Bit-identical to
/// running the job with tapes disabled.
fn scalar_fallback(
    job: &SolveJob<'_>,
    opts: &BatchOptions,
    seed: Option<&SharedSymbolic>,
    t0: Instant,
) -> SolveOutcome {
    SCALAR_FALLBACKS.incr();
    let (nets, pattern) = solve_net(job, opts, seed);
    outcome(nets, t0, seed, pattern, true)
}

/// The scalar path's pre-solve result skeleton for one observer.
fn base_result(job: &SolveJob<'_>, o: &Observer<'_>, opts: &BatchOptions) -> NetResult {
    blank_result(o.name, o.hash, job.circuit, opts.order)
}

/// Recycles a sparse image in place when its pattern still matches the
/// dense source (bitwise identical to a fresh conversion — proven by the
/// numeric crate's tests), else converts fresh.
fn refill_or_build(recycled: Option<SparseMatrix>, dense: &Matrix) -> SparseMatrix {
    if let Some(mut img) = recycled {
        if img.refill_from_dense(dense) {
            return img;
        }
    }
    SparseMatrix::from_dense(dense)
}
