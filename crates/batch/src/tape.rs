//! Structure-group tapes and multi-lane replay.
//!
//! After a structure group's donor net finishes its sparse symbolic
//! analysis, the group's remaining members all run the *same* pipeline —
//! stamp values, refactor, moment recursion, Padé/residues, waveform
//! metrics — differing only in numeric values. A [`GroupTape`] holds
//! what that pipeline shares once per group (the shared
//! [`SharedSymbolic`] analysis and an optional value-only
//! [`StampProgram`]); [`replay_block`] then runs the members up to
//! [`LANE_WIDTH`] at a time as straight-line code over pre-sized,
//! recycled buffers (a [`WorkerArena`]):
//!
//! stamp → lane refactor ([`LaneLu`]) → per member: extract its lane
//! factor, run its moment recursion ([`MomentEngine::decompose_with`],
//! one single-RHS solve per moment) → reduce per observer.
//!
//! Lanes pay only on the refactor, where one pass over the shared
//! pattern serves four members; solving four members' moments in
//! lockstep cost more per right-hand side than the scalar sparse solve
//! on power-grid meshes, so each member solves alone (`DESIGN.md` §13).
//!
//! A member is a solve job: one circuit — a design net's, or a sweep
//! corner's value vector over its base circuit — plus the nets observing
//! it, leader first. Stamp, refactor and moments run once per member; the
//! reduction runs once per observer at that observer's own unknown.
//!
//! The donor itself solves on the group's program where the scalar path
//! would factor sparse ([`solve_donor`]): stamped like a member, factored
//! cold, with no dense matrix and no circuit built. Groups whose donor
//! ended on the dense path get no tape: their members
//! go to the scalar [`solve_net`](crate::engine) units, which is the
//! tape-off path. Factoring a small dense `G̃` costs next to nothing, so
//! recycling its buffers bought no measurable speed (see `DESIGN.md` §13).
//!
//! The stamp stage never touches a dense `n×n` matrix for a member the
//! group's [`StampProgram`] admits: the member's values fold into a copy
//! of the program's template (the system skeleton and CSC `G̃`/`C̃`
//! pattern), kept in the worker's arena slot from block to block. A
//! corner member is admitted once per base circuit and stamped straight
//! from its value vector, with no circuit built. Only a member the
//! program declines is rebuilt in full.
//!
//! Replay is **bit-identical** to the scalar engine path by
//! construction: every stage goes through the same code the scalar path
//! runs or a proven-equal twin of it (program stamping ≡ `build` +
//! `from_dense`, `build_reusing` ≡ `build`, `refill_from_dense` ≡
//! `from_dense`, per-lane `LaneLu` factors ≡ scalar refactorization,
//! [`reduce_decomposition`] ≡ the engine's delivery policy; the moment
//! recursion is the scalar `decompose_with` itself). Any member
//! that diverges — a failed lane refactorization or an unknown-count
//! mismatch — falls back to the scalar [`solve_net`](crate::engine) for
//! just that member, which is the tape-off code path verbatim.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use awe::{reduce_decomposition, AweError, SharedSymbolic, StageTimings};
use awe_mna::{
    sparse_factor, Decomposition, MnaSystem, MomentEngine, MomentWorkspace, StampProgram,
};
use awe_numeric::{LaneLu, Matrix, SparseMatrix, LANE_WIDTH};

use crate::engine::{
    blank_result, fill_result, outcome, share, solve_net, BatchOptions, NetResult, Observer,
    SolveJob, SolveOutcome, Source,
};

/// Tapes compiled this process (one per structure group and pattern).
static TAPES_COMPILED: awe_obs::Counter = awe_obs::Counter::new("batch.tapes_compiled");
/// Tape replay invocations (one per scheduled member block).
static TAPE_REPLAYS: awe_obs::Counter = awe_obs::Counter::new("batch.tape_replays");
/// Members that left tape replay for the scalar solve path.
static SCALAR_FALLBACKS: awe_obs::Counter = awe_obs::Counter::new("batch.scalar_fallbacks");
/// Live-lane fraction per executed lane block (1.0 = all lanes full).
static LANE_OCCUPANCY: awe_obs::Histogram = awe_obs::Histogram::new("batch.lane_occupancy");
/// Members stamped through a compiled stamp program (the value-only
/// fast path) instead of a full MNA rebuild.
static STAMP_APPLIES: awe_obs::Counter = awe_obs::Counter::new("batch.stamp_applies");

/// What one structure group's members share at replay.
///
/// Built once per group by the donor solve; cached on the
/// [`BatchEngine`](crate::BatchEngine) keyed by the group's pattern key,
/// so a later single-member run (an ECO re-analysis of one group member)
/// replays without recompiling. The order and moment count come from the
/// run's options at replay, so the tape is valid under any of them.
#[derive(Clone)]
pub struct GroupTape {
    /// The group's topology pattern key.
    pub pattern: u64,
    /// The group's shared symbolic LU pattern.
    pub symbolic: SharedSymbolic,
    /// Compiled value-only stamping schedule (when the donor fits the
    /// program contract). Replay stamps every member it admits from its
    /// template, with no dense matrix; `None` stamps through
    /// `build_reusing`.
    pub program: Option<Arc<StampProgram>>,
}

impl fmt::Debug for GroupTape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupTape")
            .field("pattern", &format_args!("{:016x}", self.pattern))
            .field("unknowns", &self.symbolic.dim())
            .field("program", &self.program.is_some())
            .finish()
    }
}

/// Moments the recursion must generate: enough for the highest escalated
/// order plus the §3.4 `(q+1)` error reference — the same count the
/// scalar engine requests.
fn moment_count(opts: &BatchOptions) -> usize {
    2 * (opts.order + opts.awe.max_escalation + 1)
}

/// Whether batch tapes apply to this option set at all. Automatic order
/// selection re-plans per net (each member may stop at a different
/// order), so there is no group-uniform schedule to compile.
pub fn tape_applicable(opts: &BatchOptions) -> bool {
    opts.use_tape && opts.auto_target.is_none()
}

impl GroupTape {
    /// The tape of one structure group: `symbolic` is the group's shared
    /// pattern and `program` the group's value-only stamping schedule,
    /// compiled from any member's structure (see [`StampProgram`]). A
    /// program whose unknown count disagrees with the shared pattern (a
    /// pattern-key collision) is dropped, and replay stamps through the
    /// full build path.
    pub fn new(
        pattern: u64,
        program: Option<Arc<StampProgram>>,
        symbolic: SharedSymbolic,
    ) -> GroupTape {
        TAPES_COMPILED.incr();
        GroupTape {
            pattern,
            program: program.filter(|p| p.num_unknowns() == symbolic.dim()),
            symbolic,
        }
    }
}

/// Solves a structure group's donor on the group's stamp program, with no
/// dense matrix: the donor is stamped like any member (a corner straight
/// from its value vector), its `G̃` image factored cold under the AMD
/// order — the group's symbolic analysis — and its moments run on the
/// images. This is the scalar path's sparse branch on the same CSC
/// images, so every bit agrees with [`solve_net`]. Returns the outcome
/// and the analysis, or `None` where the scalar path would go elsewhere —
/// the program declines the donor, the system is below the sparse
/// threshold or too dense, no observer is an unknown, or the sparse
/// factor fails — and the caller solves the donor through [`solve_net`].
pub(crate) fn solve_donor(
    program: &StampProgram,
    job: &SolveJob<'_>,
    opts: &BatchOptions,
) -> Option<(SolveOutcome, SharedSymbolic)> {
    if opts.order == 0 || !program.check(job.structure()) {
        return None;
    }
    let t0 = Instant::now();
    let (mut sys, mut g_img, mut c_img) = program.instantiate();
    let stamped = match job.source {
        Source::Circuit(c) => program.apply(c, &mut sys, &mut g_img, &mut c_img),
        Source::Corner { base, values, .. } => {
            program.apply_values(base, values, &mut sys, &mut g_img, &mut c_img)
        }
    };
    if !stamped {
        return None;
    }
    let idxs = observer_unknowns(job, &sys)?;
    let mna = t0.elapsed();
    let t1 = Instant::now();
    let lu = sparse_factor(&g_img)?;
    let factor = t1.elapsed();
    let symbolic = lu.symbolic().clone();
    let t2 = Instant::now();
    let engine = MomentEngine::from_sparse(&sys, lu, c_img);
    let decomposed = engine.decompose_with(&mut MomentWorkspace::new(), moment_count(opts));
    let stages = StageTimings {
        mna,
        factor,
        moments: t2.elapsed(),
        ..StageTimings::default()
    };
    let outcome = match decomposed {
        Ok(dec) => SolveOutcome {
            nets: reduce_observers(job, &idxs, &dec, opts, &stages),
            latency: t0.elapsed(),
            pattern_hit: false,
            new_pattern: None,
            fallback: false,
        },
        Err(e) => failed_job(job, opts, Some(&e.into()), stages, t0, false),
    };
    Some((outcome, symbolic))
}

/// One lane position's recycled buffers: a stamped MNA system and the
/// sparse images of its `G̃` and `C̃`.
struct Slot {
    sys: MnaSystem,
    g_img: SparseMatrix,
    c_img: SparseMatrix,
    /// The stamp program whose template these buffers hold (no dense
    /// matrices; the program restamps them in place), or `None` for a
    /// system rebuilt in full.
    program: Option<Arc<StampProgram>>,
}

/// One worker's owned replay buffers: one [`Slot`] per lane position and
/// the moment-recursion workspace. Each pool worker owns exactly one
/// arena for a whole run, so replay performs no cross-thread sharing
/// and, in steady state, no per-net allocation: a slot is copied from
/// its group's template once, then restamped in place.
pub struct WorkerArena {
    pub(crate) ws: MomentWorkspace,
    slots: Vec<Option<Slot>>,
}

impl Default for WorkerArena {
    fn default() -> Self {
        WorkerArena {
            ws: MomentWorkspace::new(),
            slots: (0..LANE_WIDTH).map(|_| None).collect(),
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
    /// Members stamped through the group's stamp program.
    pub stamped: usize,
    /// Members rebuilt through the full MNA assembly.
    pub rebuilt: usize,
    /// Corner members built as circuits (see `BatchRun::materialized`).
    pub materialized: usize,
}

impl ReplayStats {
    /// Adds another invocation's counts.
    pub fn add(&mut self, other: &ReplayStats) {
        self.lane_blocks += other.lane_blocks;
        self.lane_lanes += other.lane_lanes;
        self.stamped += other.stamped;
        self.rebuilt += other.rebuilt;
        self.materialized += other.materialized;
    }
}

/// Replays the solve `jobs` of one structure group against `tape`, using
/// (and refilling) the worker's `arena`. Each job is one member: one
/// stamped system, one factor and one moment recursion, reduced at every
/// observer's node. Returns one outcome per job, in job order.
pub(crate) fn replay_block(
    tape: &GroupTape,
    jobs: &[&SolveJob<'_>],
    opts: &BatchOptions,
    arena: &mut WorkerArena,
) -> (Vec<SolveOutcome>, ReplayStats) {
    TAPE_REPLAYS.incr();
    let mut sp = awe_obs::span("tape.replay");
    sp.note(jobs.len() as f64, LANE_WIDTH as f64);
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut stats = ReplayStats::default();
    for chunk in jobs.chunks(LANE_WIDTH) {
        replay_lanes(tape, chunk, opts, arena, &mut outcomes, &mut stats);
    }
    (outcomes, stats)
}

/// A live lane mid-replay: the member position, its stamped system and
/// sparse images, each observer's unknown (`None` outside the system),
/// and the stamp time. The lane owns its slot's buffers until it retires
/// (the moment recursion temporarily takes the `C̃` image into the engine
/// and hands it back).
struct Lane {
    pos: usize,
    sys: MnaSystem,
    g_img: SparseMatrix,
    c_img: Option<SparseMatrix>,
    program: Option<Arc<StampProgram>>,
    idxs: Vec<Option<usize>>,
    stamp: Duration,
}

/// Returns a retired lane's buffers to its arena slot. The program tag
/// stays valid: retirement never changes the buffers' structure, only
/// their values. A lane whose `C̃` image did not come back leaves the
/// slot empty.
fn park_lane(arena: &mut WorkerArena, lane: Lane) {
    arena.slots[lane.pos] = lane.c_img.map(|c_img| Slot {
        sys: lane.sys,
        g_img: lane.g_img,
        c_img,
        program: lane.program,
    });
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
/// an unknown get the engine's delivery policy at it, the rest `BadNode`.
/// `shared` holds the job's shared stage times, split evenly here.
fn reduce_observers(
    job: &SolveJob<'_>,
    idxs: &[Option<usize>],
    dec: &Decomposition,
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
            let reduced = match *idx {
                Some(idx) => reduce_decomposition(dec, idx, opts.order, opts.awe, &mut clock),
                None => Err(AweError::BadNode(o.output)),
            };
            match reduced {
                Ok(approx) => {
                    result.escalations = approx.order.saturating_sub(opts.order);
                    fill_result(&mut result, &approx);
                }
                Err(e) => result.error = Some(e.to_string()),
            }
            (o.index, result, clock)
        })
        .collect()
}

/// Stamps one member into a slot. A member the tape's stamp program
/// admits is stamped from the program — `O(elements + nnz)` value stores
/// into the recycled slot, or into a fresh copy of the template when the
/// slot holds another structure — and carries no dense matrix; a corner
/// member is stamped straight from its value vector. Any other member is
/// rebuilt in full (a corner materialized first), reusing the slot's
/// buffers. `stats` counts which of the two happened.
fn stamp(
    tape: &GroupTape,
    job: &SolveJob<'_>,
    mut recycled: Option<Slot>,
    stats: &mut ReplayStats,
) -> Result<Slot, AweError> {
    let admitted = |prog: &StampProgram| match job.source {
        Source::Circuit(c) => prog.check(c),
        Source::Corner { admitted, .. } => admitted,
    };
    if let Some(prog) = tape.program.as_ref().filter(|p| admitted(p)) {
        let mut slot = match recycled.take() {
            Some(s) if s.program.as_ref().is_some_and(|p| Arc::ptr_eq(p, prog)) => s,
            _ => {
                let (sys, g_img, c_img) = prog.instantiate();
                Slot {
                    sys,
                    g_img,
                    c_img,
                    program: Some(prog.clone()),
                }
            }
        };
        let (sys, g_img, c_img) = (&mut slot.sys, &mut slot.g_img, &mut slot.c_img);
        let stamped = match job.source {
            Source::Circuit(c) => prog.apply(c, sys, g_img, c_img),
            Source::Corner { base, values, .. } => {
                prog.apply_values(base, values, sys, g_img, c_img)
            }
        };
        if stamped {
            STAMP_APPLIES.incr();
            stats.stamped += 1;
            return Ok(slot);
        }
        recycled = Some(slot);
    }
    stats.rebuilt += 1;
    let (sys, g_img, c_img) = match recycled {
        Some(s) => (Some(s.sys), Some(s.g_img), Some(s.c_img)),
        None => (None, None, None),
    };
    let sys = MnaSystem::build_reusing(&job.circuit(&mut stats.materialized), sys)?;
    let g_img = refill_or_build(g_img, &sys.g_tilde);
    let c_img = refill_or_build(c_img, &sys.c_tilde);
    Ok(Slot {
        sys,
        g_img,
        c_img,
        program: None,
    })
}

/// Replays up to [`LANE_WIDTH`] members: stamp each, refactor them
/// together in one [`LaneLu`], then per member extract its lane factor,
/// run its moment recursion and reduce at every observer. Members that
/// diverge at any stage drop out to scalar fallback without disturbing
/// their neighbors.
fn replay_lanes(
    tape: &GroupTape,
    members: &[&SolveJob<'_>],
    opts: &BatchOptions,
    arena: &mut WorkerArena,
    outcomes: &mut Vec<SolveOutcome>,
    stats: &mut ReplayStats,
) {
    let t_block = Instant::now();
    let symbolic = &tape.symbolic;
    let mut done: Vec<Option<SolveOutcome>> = members.iter().map(|_| None).collect();
    let mut fallback: Vec<usize> = Vec::new();

    // Stamp each member's system and both sparse images.
    let mut lanes: Vec<Lane> = Vec::with_capacity(members.len());
    for (pos, member) in members.iter().enumerate() {
        let t0 = Instant::now();
        let slot = match stamp(tape, member, arena.slots[pos].take(), stats) {
            Ok(slot) => slot,
            Err(e) => {
                // Scalar parity: `AweEngine::new` fails before any
                // pattern is involved.
                done[pos] = Some(failed_job(
                    member,
                    opts,
                    Some(&e),
                    StageTimings::default(),
                    t0,
                    false,
                ));
                continue;
            }
        };
        if slot.sys.num_unknowns() != symbolic.dim() {
            // Pattern-key collision across unknown counts: the scalar
            // path would reject the seed and cold-factor; so does
            // fallback.
            arena.slots[pos] = Some(slot);
            fallback.push(pos);
        } else if let Some(idxs) = observer_unknowns(member, &slot.sys) {
            lanes.push(Lane {
                pos,
                sys: slot.sys,
                g_img: slot.g_img,
                c_img: Some(slot.c_img),
                program: slot.program,
                idxs,
                stamp: t0.elapsed(),
            });
        } else {
            // Scalar parity: the engine seeds the pattern before the
            // node check, so the returned pattern equals the seed and
            // counts as a hit.
            arena.slots[pos] = Some(slot);
            let stages = StageTimings {
                mna: t0.elapsed(),
                ..StageTimings::default()
            };
            done[pos] = Some(failed_job(member, opts, None, stages, t0, true));
        }
    }

    // Refactor every lane's G̃ image at once. A lane whose values make a
    // stored pivot inadmissible drops to fallback and the survivors
    // refactor again — per-lane factor values are position-independent,
    // so the retry changes nothing for the lanes that already succeeded.
    let mut refactor = Duration::ZERO;
    let mut lu: Option<LaneLu> = None;
    while !lanes.is_empty() {
        let t0 = Instant::now();
        let mats: Vec<&SparseMatrix> = lanes.iter().map(|l| &l.g_img).collect();
        let (fresh_lu, statuses) = LaneLu::refactor(symbolic, &mats);
        refactor += t0.elapsed();
        if statuses.iter().all(Result::is_ok) {
            lu = Some(fresh_lu);
            break;
        }
        let mut survivors = Vec::with_capacity(lanes.len());
        for (lane, status) in lanes.into_iter().zip(&statuses) {
            if status.is_ok() {
                survivors.push(lane);
            } else {
                fallback.push(lane.pos);
                park_lane(arena, lane);
            }
        }
        lanes = survivors;
    }

    if let Some(lu) = lu {
        stats.lane_blocks += 1;
        stats.lane_lanes += lanes.len();
        LANE_OCCUPANCY.record(lanes.len() as f64 / LANE_WIDTH as f64);
        let live = lanes.len() as u32;
        for (k, mut lane) in lanes.into_iter().enumerate() {
            // Each member's own moment recursion on its extracted lane
            // factor, then the reduction at every observer.
            let t0 = Instant::now();
            let factor = lu.extract(k).expect("live lane extracts");
            let c_img = lane.c_img.take().expect("stamp fills the C image");
            let engine = MomentEngine::from_sparse(&lane.sys, factor, c_img);
            let dec = engine.decompose_with(&mut arena.ws, moment_count(opts));
            lane.c_img = engine.into_sparse().map(|(_, c_img)| c_img);
            let moments = t0.elapsed();
            match dec {
                Ok(dec) => {
                    let shared = StageTimings {
                        mna: lane.stamp,
                        refactor: refactor / live,
                        moments,
                        ..StageTimings::default()
                    };
                    let nets = reduce_observers(members[lane.pos], &lane.idxs, &dec, opts, &shared);
                    arena.ws.recycle(dec);
                    done[lane.pos] = Some(SolveOutcome {
                        nets,
                        latency: t_block.elapsed(),
                        pattern_hit: true,
                        new_pattern: None,
                        fallback: false,
                    });
                }
                // A lane whose recursion could not finish: replay it
                // scalar, which reproduces the exact scalar-path error
                // (or result) for that member.
                Err(_) => fallback.push(lane.pos),
            }
            park_lane(arena, lane);
        }
    }

    fallback.sort_unstable();
    for pos in fallback {
        done[pos] = Some(scalar_fallback(
            members[pos],
            opts,
            symbolic,
            t_block,
            stats,
            &mut arena.ws,
        ));
    }
    for (pos, slot) in done.into_iter().enumerate() {
        outcomes.push(
            slot.unwrap_or_else(|| unreachable!("member {pos} neither completed nor fell back")),
        );
    }
}

/// The tape-off path for one job: a full scalar [`solve_net`], seeded
/// with the group pattern. Bit-identical to running the job with tapes
/// disabled.
fn scalar_fallback(
    job: &SolveJob<'_>,
    opts: &BatchOptions,
    seed: &SharedSymbolic,
    t0: Instant,
    stats: &mut ReplayStats,
    ws: &mut MomentWorkspace,
) -> SolveOutcome {
    SCALAR_FALLBACKS.incr();
    let circuit = job.circuit(&mut stats.materialized);
    let solved = solve_net(&circuit, &job.observers, opts, Some(seed), ws);
    outcome(solved.nets, t0, Some(seed), solved.pattern, true)
}

/// The scalar path's pre-solve result skeleton for one observer.
fn base_result(job: &SolveJob<'_>, o: &Observer<'_>, opts: &BatchOptions) -> NetResult {
    blank_result(o.name, o.hash, job.structure(), opts.order)
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
