//! The batch engine: scheduling, the incremental-reanalysis cache, and
//! the per-net result/timing split.
//!
//! Results are split into [`NetResult`] (deterministic analysis outputs —
//! identical bytes for identical nets regardless of thread count or cache
//! state) and [`NetTiming`] (wall times, which are not). Reports that
//! must be byte-comparable across thread counts render only the former.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use awe::{
    reduce_decomposition, AweApproximation, AweEngine, AweError, AweOptions, SharedSymbolic,
    StageTimings,
};
use awe_circuit::{Circuit, NodeId, ReduceOptions};
use awe_mna::{MomentWorkspace, StampProgram, SPARSE_THRESHOLD};
use awe_numeric::LANE_WIDTH;

use crate::design::{prepare_net, same_solve_circuit, Design};
use crate::pool::{effective_threads, run_indexed, PoolStats};
use crate::sweep::materialize;
use crate::tape::{self, GroupTape, ReplayStats, WorkerArena};

/// Results served from the incremental cache without an AWE solve.
static CACHE_HITS: awe_obs::Counter = awe_obs::Counter::new("batch.cache_hits");
/// Solves that refactored against a shared symbolic LU pattern.
static PATTERN_HITS: awe_obs::Counter = awe_obs::Counter::new("batch.pattern_hits");
/// Full AWE solves performed (cache misses, donor presolves included).
static SOLVES: awe_obs::Counter = awe_obs::Counter::new("batch.solves");
/// Nets served from a sibling's decomposition: same solve circuit,
/// another observation node, one more reduction instead of a solve.
static SHARED_OUTPUTS: awe_obs::Counter = awe_obs::Counter::new("batch.shared_outputs");
/// Cached results dropped because an ECO edit made them stale.
static CACHE_INVALIDATIONS: awe_obs::Counter = awe_obs::Counter::new("batch.cache_invalidations");
/// Symbolic patterns dropped because their structure group emptied.
static PATTERN_INVALIDATIONS: awe_obs::Counter =
    awe_obs::Counter::new("batch.pattern_invalidations");

/// Sentinel worker index for work done on the caller thread before the
/// pool starts (the sequential donor-presolve pass).
pub const CALLER_WORKER: usize = usize::MAX;

/// Nets per scalar work unit: the pool's deques move whole batches of
/// tiny nets per lock transaction instead of individual ~100 µs jobs.
const SCALAR_CHUNK: usize = 16;
/// Members per tape work unit (two full lane blocks).
const TAPE_CHUNK: usize = 2 * LANE_WIDTH;

/// Options for one batch run.
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// Worker threads (`0` = one per available core).
    pub threads: usize,
    /// Requested AWE order in fixed-order mode.
    pub order: usize,
    /// Automatic order selection: escalate per net until the §3.4 error
    /// estimate drops below this target (overrides `order`).
    pub auto_target: Option<f64>,
    /// Order ceiling in automatic mode.
    pub max_order: usize,
    /// Per-solve AWE options.
    pub awe: AweOptions,
    /// RC-chain reduction pre-pass (off by default). When enabled, every
    /// net solves on its reduced rewrite; cache keys derive from the
    /// reduced topology plus the reduce config, so toggling this (or the
    /// tolerance) never serves results computed under another config.
    pub reduce: ReduceOptions,
    /// Replay the members of every structure group with a shared sparse
    /// pattern through the multi-lane kernel (see [`GroupTape`]). Replay
    /// is bit-identical to the scalar path; `false` is the escape hatch.
    /// Groups on the dense path always take the scalar path, as does
    /// automatic order selection ([`BatchOptions::auto_target`]) — it
    /// re-plans per net, so there is no group-uniform schedule to
    /// compile.
    pub use_tape: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            threads: 0,
            order: 2,
            auto_target: None,
            max_order: 8,
            awe: AweOptions::default(),
            reduce: ReduceOptions::default(),
            use_tape: true,
        }
    }
}

/// Deterministic analysis outputs for one net.
#[derive(Clone, Debug)]
pub struct NetResult {
    /// Net name.
    pub name: String,
    /// Structural hash (the cache key). A corner-sweep member carries
    /// its base net's hash and is never cached.
    pub hash: u64,
    /// Node count (including ground) of the circuit actually solved —
    /// the reduced rewrite's count when the reduction pre-pass ran.
    pub nodes: usize,
    /// Element count of the circuit actually solved.
    pub elements: usize,
    /// Order asked for (the starting order in automatic mode).
    pub requested_order: usize,
    /// Order actually used.
    pub order: usize,
    /// §3.3 order escalations performed beyond the requested/starting
    /// order (extra orders tried in automatic mode).
    pub escalations: usize,
    /// Whether every approximating pole was stable.
    pub stable: bool,
    /// Whether the model needed a partial-Padé rescue (one or more RHP or
    /// spurious poles discarded and the residues refit).
    pub rescued: bool,
    /// §3.4 relative error estimate, when computed.
    pub error_estimate: Option<f64>,
    /// 50 % delay of the observed response, when defined.
    pub delay_50: Option<f64>,
    /// Final value of the observed response.
    pub final_value: f64,
    /// Approximating poles as `(re, im)` pairs, dominant first.
    pub poles: Vec<(f64, f64)>,
    /// Whether this result came from the cache (no AWE solve performed).
    pub cache_hit: bool,
    /// Analysis failure, if the net could not be solved.
    pub error: Option<String>,
}

/// Wall times for one net (excluded from deterministic reports).
#[derive(Clone, Copy, Debug, Default)]
pub struct NetTiming {
    /// End-to-end latency of the net's job (cache lookup included).
    pub latency: Duration,
    /// Per-stage breakdown of the solve (zero on cache hits). A solve
    /// shared by several observing nets splits its shared stages — MNA
    /// assembly, factor/refactor and moments — evenly over them, as a
    /// sparse lane block splits its refactor and moments over its lanes;
    /// Padé and residue times are each observer's own. Summed over the
    /// observers, the shares give back the solve's stage times.
    pub stages: StageTimings,
    /// Pool worker that ran the job, or [`CALLER_WORKER`] for nets solved
    /// by the sequential donor-presolve pass on the caller thread. Stage
    /// times attributed to the same worker are serialized; across workers
    /// they overlap.
    pub worker: usize,
}

/// Everything one [`BatchEngine::run`] produced.
#[derive(Clone, Debug)]
pub struct BatchRun {
    /// Design name.
    pub design: String,
    /// Wall time spent parsing/generating the design.
    pub parse_time: Duration,
    /// End-to-end wall time of the run (scheduling included).
    pub wall: Duration,
    /// Per-net results, in design order.
    pub results: Vec<NetResult>,
    /// Per-net timings, in design order.
    pub timings: Vec<NetTiming>,
    /// Scheduler stats.
    pub pool: PoolStats,
    /// AWE solves actually performed: one per distinct solve circuit
    /// among the cache misses.
    pub solves: usize,
    /// Nets served from a sibling's decomposition: they observe a
    /// circuit another net of this run solves, so they cost one more
    /// reduction instead of a solve. `solves + shared + cache_hits`
    /// equals the net count.
    pub shared: usize,
    /// Results served from the cache.
    pub cache_hits: usize,
    /// Solves that reused a cached symbolic LU pattern (numeric
    /// refactorization instead of a cold symbolic+numeric factor).
    pub pattern_hits: usize,
    /// Group tapes compiled this run (runs replaying a cached tape
    /// compile nothing).
    pub tapes_compiled: usize,
    /// Worst fill ratio `nnz(L+U) / nnz(G̃)` among the tapes compiled
    /// this run (`None` when none compiled): how much a lane refactor or
    /// moment solve of that group costs over a product with `G̃`.
    pub fill_ratio: Option<f64>,
    /// Tape replay invocations (one per scheduled member block).
    pub tape_replays: usize,
    /// Multi-lane blocks executed through the sparse lane kernel.
    pub lane_blocks: usize,
    /// Live lanes summed over those blocks — the mean lane occupancy is
    /// `lane_lanes / (lane_blocks · LANE_WIDTH)`.
    pub lane_lanes: usize,
    /// Tape members that diverged from their block (failed lane
    /// refactorization, unknown-count mismatch, …) and finished on the
    /// scalar solve path instead.
    pub scalar_fallbacks: usize,
    /// Tape members stamped from their group's stamp program: value
    /// stores into the program's template, no dense matrix.
    pub stamped: usize,
    /// Tape members the stamp program declined (or whose group has
    /// none), rebuilt through the full dense MNA assembly.
    pub rebuilt: usize,
    /// Corner-sweep members built as circuits: a donor the stamp program
    /// cannot solve, a lane that fell back to the scalar path, a rebuilt
    /// member, or any member of a group no tape serves. An admitted
    /// member, the donor included, is stamped from its value vector and
    /// never built; a design net is never counted.
    pub materialized: usize,
}

/// Concurrent batch analyzer with a persistent incremental-reanalysis
/// cache.
///
/// The cache is keyed by each net's [structural
/// hash](crate::design::structural_hash) and lives for the engine's
/// lifetime: re-running a design after an ECO edit re-solves only the
/// touched nets. Corner-sweep members never enter it (see
/// [`crate::sweep`]).
#[derive(Debug, Default)]
pub struct BatchEngine {
    cache: Mutex<HashMap<u64, NetResult>>,
    /// Symbolic LU patterns keyed by each net's topology-only
    /// [`pattern_key`](crate::design::pattern_key): structurally identical
    /// nets (same topology, any values) factor their elimination pattern
    /// exactly once, then refactor numerically.
    patterns: Mutex<HashMap<u64, SharedSymbolic>>,
    /// Compiled group tapes keyed by pattern key. A group's donor
    /// presolve compiles its tape from the system it assembled;
    /// revalidated against the pattern cache before reuse (a stale tape
    /// recompiles from one member's circuit — no donor solve needed), so
    /// a single-member ECO re-run of a known group replays its tape.
    tapes: Mutex<HashMap<u64, Arc<GroupTape>>>,
    /// Per-worker tape-replay arenas, kept warm across runs.
    arenas: Mutex<Vec<WorkerArena>>,
}

impl BatchEngine {
    /// A batch engine with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached net count.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("cache lock").len()
    }

    /// Cached symbolic-pattern count.
    pub fn pattern_len(&self) -> usize {
        self.patterns.lock().expect("pattern lock").len()
    }

    /// Drops all cached results, symbolic patterns, and compiled tapes.
    pub fn clear_cache(&self) {
        self.cache.lock().expect("cache lock").clear();
        self.patterns.lock().expect("pattern lock").clear();
        self.tapes.lock().expect("tape lock").clear();
    }

    /// Compiled-tape count.
    pub fn tape_len(&self) -> usize {
        self.tapes.lock().expect("tape lock").len()
    }

    /// Whether a result for this structural hash is cached.
    pub fn has_result(&self, hash: u64) -> bool {
        self.cache.lock().expect("cache lock").contains_key(&hash)
    }

    /// Whether a symbolic LU pattern for this topology key is cached.
    pub fn has_pattern(&self, key: u64) -> bool {
        self.patterns
            .lock()
            .expect("pattern lock")
            .contains_key(&key)
    }

    /// Drops the cached result for one structural hash (an ECO edit made
    /// it stale), returning whether an entry existed. The next run
    /// re-solves any net with that hash; untouched hashes keep hitting.
    pub fn invalidate_result(&self, hash: u64) -> bool {
        let evicted = self.cache.lock().expect("cache lock").remove(&hash);
        if evicted.is_some() {
            CACHE_INVALIDATIONS.incr();
        }
        evicted.is_some()
    }

    /// Drops the shared symbolic LU pattern for one topology key (every
    /// net of that structure group changed topology, so nothing will
    /// refactor against it again), returning whether an entry existed.
    /// The underlying analysis is `Arc`-shared: in-flight solves holding
    /// a clone are unaffected.
    pub fn invalidate_pattern(&self, key: u64) -> bool {
        let evicted = self.patterns.lock().expect("pattern lock").remove(&key);
        // A tape compiled against the dropped pattern can never validate
        // again; drop it with the pattern.
        self.tapes.lock().expect("tape lock").remove(&key);
        if evicted.is_some() {
            PATTERN_INVALIDATIONS.incr();
        }
        evicted.is_some()
    }

    /// Analyzes every net of `design`, fanning out across
    /// `opts.threads` workers. Results come back in design order
    /// regardless of scheduling; nets whose structural hash is already
    /// cached are served without an AWE solve.
    ///
    /// Scheduling is unit-based: structure-group members go to the pool
    /// as whole tape blocks (group × lane chunk) and the remaining nets
    /// as scalar batches, so the work-stealing deques move tens of nets
    /// per transaction instead of individual ~100 µs jobs.
    pub fn run(&self, design: &Design, opts: &BatchOptions) -> BatchRun {
        let start = Instant::now();

        // Parallel prepare: hashing and the optional reduction rewrite
        // are pure per-net work.
        let (prepared, _) = run_indexed(design.len(), opts.threads, |i, _| {
            prepare_net(&design.nets()[i], &opts.reduce)
        });
        let solve_circuit = |i: usize| prepared[i].circuit(&design.nets()[i].circuit);

        // One pass under the cache lock serves the snapshot's hits; every
        // other net solves, shares a solve, or repeats an earlier net.
        let mut served: Vec<(usize, NetResult)> = Vec::new();
        {
            let cache = self.cache.lock().expect("cache lock");
            for (i, pn) in prepared.iter().enumerate() {
                if let Some(r) = cache.get(&pn.hash) {
                    served.push((i, r.clone()));
                }
            }
        }
        let mut hit = vec![false; design.len()];
        for &(i, _) in &served {
            hit[i] = true;
        }
        let (dups, solves) = plan_solves(
            (0..design.len()).filter(|&i| !hit[i]),
            |i| (prepared[i].hash, prepared[i].circuit_key),
            solve_circuit,
        );
        let observer = |j: usize| Observer {
            index: j,
            name: &design.nets()[j].name,
            output: prepared[j].output,
            hash: prepared[j].hash,
        };
        let mut jobs: Vec<SolveJob<'_>> = solves
            .iter()
            .map(|nets| SolveJob {
                source: Source::Circuit(solve_circuit(nets[0])),
                pattern: prepared[nets[0]].pattern,
                observers: nets.iter().map(|&j| observer(j)).collect(),
            })
            .collect();
        let executed = self.execute(&mut jobs, opts);

        let mut run = collect(design.len(), executed, served, &dups, |i| {
            &design.nets()[i].name
        });

        // Batched cache insertion: one lock at the end of the run instead
        // of one per net.
        {
            let mut cache = self.cache.lock().expect("cache lock");
            for &i in solves.iter().flatten() {
                cache.insert(prepared[i].hash, run.results[i].clone());
            }
        }
        run.design.clone_from(&design.name);
        run.parse_time = design.parse_time;
        run.wall = start.elapsed();
        run
    }

    /// Runs prebuilt solve jobs — a corner sweep's members, given as
    /// value vectors over their base circuits — through the same donor →
    /// tape → lane replay → scalar-fallback flow as [`BatchEngine::run`].
    /// `len` results come back, indexed by the observers' `index`; each
    /// `dups` pair `(i, j)` serves result `i` as a copy of result `j`
    /// (`name(i)` renamed, marked as a cache hit). Nothing enters the
    /// result cache: a member's `hash` does not identify its values.
    pub(crate) fn run_jobs<'n>(
        &self,
        len: usize,
        mut jobs: Vec<SolveJob<'_>>,
        dups: &[(usize, usize)],
        name: impl Fn(usize) -> &'n str,
        opts: &BatchOptions,
    ) -> BatchRun {
        let start = Instant::now();
        let executed = self.execute(&mut jobs, opts);
        let mut run = collect(len, executed, Vec::new(), dups, name);
        run.wall = start.elapsed();
        run
    }

    /// Solves `jobs` (one per distinct solve circuit, in design order):
    /// the donor presolve of every structure group, tape compilation and
    /// the pool run of tape blocks and scalar batches.
    fn execute(&self, jobs: &mut [SolveJob<'_>], opts: &BatchOptions) -> Executed {
        // Group sizes count the distinct circuits per pattern key for the
        // donor-presolve decision below.
        let mut group_size: HashMap<u64, usize> = HashMap::new();
        for job in jobs.iter() {
            *group_size.entry(job.pattern).or_insert(0) += 1;
        }

        // Deterministic pattern seeding: any group with at least two
        // distinct circuits that will actually solve gets its first such
        // circuit (in design order) solved *here*, sequentially, so the
        // group's shared symbolic pattern never depends on scheduling.
        // That matters because threshold pivoting is value-dependent —
        // *which* circuit's pivot order a group shares is observable in
        // the last bits of its siblings' factors, and batch results must
        // stay byte-identical across thread counts. Groups whose pattern
        // is already cached (an earlier run) skip straight to replay;
        // singleton groups pay nothing here.
        let tape_on = tape::tape_applicable(opts);
        let mut executed = Executed::default();
        let mut presolved = vec![false; jobs.len()];
        // One moment workspace serves every scalar donor in turn.
        let mut donor_ws = MomentWorkspace::new();
        for (i, job) in jobs.iter().enumerate() {
            let key = job.pattern;
            if group_size.get(&key).is_none_or(|&c| c < 2) {
                continue;
            }
            if self
                .patterns
                .lock()
                .expect("pattern lock")
                .contains_key(&key)
            {
                continue;
            }
            // One donor attempt per group, whether or not it yields a
            // pattern (dense nets never do — their siblings then solve in
            // the scalar units like any ungrouped net).
            group_size.remove(&key);
            let t0 = Instant::now();
            let mut presolve_span = awe_obs::span("batch.presolve");
            presolve_span.note(i as f64, 0.0);
            // With a tape ahead, the group's stamp program compiles from
            // the donor's structure first, and the donor solves on it
            // without a dense matrix where the scalar path would factor
            // sparse. Only a system of at least `SPARSE_THRESHOLD`
            // unknowns can yield a pattern, and its unknowns (nodes and
            // branch currents) number fewer than nodes plus elements.
            let structure = job.structure();
            let program = (tape_on
                && structure.num_nodes() + structure.elements().len() > SPARSE_THRESHOLD)
                .then(|| StampProgram::compile(structure).map(Arc::new))
                .flatten();
            let donor = program
                .as_deref()
                .and_then(|p| tape::solve_donor(p, job, opts));
            let (solved, pattern) = match donor {
                Some((solved, symbolic)) => (solved, Some(symbolic)),
                None => {
                    let circuit = job.circuit(&mut executed.replay.materialized);
                    let solved = solve_net(&circuit, &job.observers, opts, None, &mut donor_ws);
                    let outcome = SolveOutcome {
                        nets: solved.nets,
                        latency: t0.elapsed(),
                        pattern_hit: false,
                        new_pattern: None,
                        fallback: false,
                    };
                    (outcome, solved.pattern)
                }
            };
            drop(presolve_span);
            if let Some(p) = pattern {
                if tape_on {
                    executed.compiled.push(p.fill_ratio());
                    let t = GroupTape::new(key, program, p.clone());
                    self.tapes
                        .lock()
                        .expect("tape lock")
                        .insert(key, Arc::new(t));
                }
                self.patterns.lock().expect("pattern lock").insert(key, p);
            }
            presolved[i] = true;
            executed.outcomes.push((key, CALLER_WORKER, solved));
        }

        // Pattern snapshot: presolve is done, so the only patterns that
        // can still appear this run come from singleton groups nobody
        // else shares — one lock, then lock-free reads from every
        // worker.
        let snapshot: HashMap<u64, SharedSymbolic> =
            self.patterns.lock().expect("pattern lock").clone();

        // Partition the remaining solves into work units.
        let mut order_of_pattern: HashMap<u64, usize> = HashMap::new();
        let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            if presolved[i] {
                continue;
            }
            let gi = *order_of_pattern.entry(job.pattern).or_insert_with(|| {
                groups.push((job.pattern, Vec::new()));
                groups.len() - 1
            });
            groups[gi].1.push(i);
        }
        let mut units: Vec<Unit> = Vec::new();
        let mut scalar_nets: Vec<usize> = Vec::new();
        for (key, members) in groups {
            // A tape applies when the group's shared sparse pattern is
            // known — even for one member, e.g. an ECO re-run.
            let Some(symbolic) = snapshot.get(&key).filter(|_| tape_on) else {
                scalar_nets.extend(members);
                continue;
            };
            let tape = {
                let mut tapes = self.tapes.lock().expect("tape lock");
                match tapes
                    .get(&key)
                    .filter(|t| Arc::ptr_eq(&t.symbolic, symbolic))
                {
                    Some(t) => t.clone(),
                    None => {
                        executed.compiled.push(symbolic.fill_ratio());
                        // A pattern cached by an earlier run: the first
                        // member stands in as the group's donor for
                        // stamp-program compilation (any member works:
                        // the program is topology-only and self-checks).
                        let program = StampProgram::compile(jobs[members[0]].structure());
                        let t =
                            Arc::new(GroupTape::new(key, program.map(Arc::new), symbolic.clone()));
                        tapes.insert(key, t.clone());
                        t
                    }
                }
            };
            if let Some(program) = &tape.program {
                admit_corners(program, jobs, &members);
            }
            units.extend(members.chunks(TAPE_CHUNK).map(|c| Unit::Tape {
                tape: tape.clone(),
                members: c.to_vec(),
            }));
        }
        scalar_nets.sort_unstable();
        units.extend(
            scalar_nets
                .chunks(SCALAR_CHUNK)
                .map(|c| Unit::Scalar { nets: c.to_vec() }),
        );

        // Every worker owns one arena for the whole run, persisted on
        // the engine so a serve daemon's repeated runs keep their
        // buffers warm.
        let threads = effective_threads(opts.threads, units.len());
        let arenas: Vec<Mutex<WorkerArena>> = {
            let mut stored = self.arenas.lock().expect("arena lock");
            while stored.len() < threads {
                stored.push(WorkerArena::new());
            }
            stored.drain(..).map(Mutex::new).collect()
        };

        let jobs: &[SolveJob<'_>] = jobs;
        let (unit_outs, pool) = run_indexed(units.len(), opts.threads, |u, w| {
            let arena = &arenas[w % arenas.len()];
            match &units[u] {
                Unit::Tape { tape, members } => {
                    let block: Vec<&SolveJob<'_>> = members.iter().map(|&i| &jobs[i]).collect();
                    let mut arena = arena.lock().expect("arena lock");
                    let (outs, stats) = tape::replay_block(tape, &block, opts, &mut arena);
                    UnitOut {
                        outcomes: outs.into_iter().map(|o| (tape.pattern, w, o)).collect(),
                        replays: 1,
                        stats,
                    }
                }
                Unit::Scalar { nets } => {
                    let mut stats = ReplayStats::default();
                    let mut arena = arena.lock().expect("arena lock");
                    let outcomes = nets
                        .iter()
                        .map(|&i| {
                            let job = &jobs[i];
                            let mut net_span = awe_obs::span("batch.net");
                            net_span.note(i as f64, w as f64);
                            let t0 = Instant::now();
                            let seed = snapshot.get(&job.pattern);
                            let circuit = job.circuit(&mut stats.materialized);
                            let solved =
                                solve_net(&circuit, &job.observers, opts, seed, &mut arena.ws);
                            (
                                job.pattern,
                                w,
                                outcome(solved.nets, t0, seed, solved.pattern, false),
                            )
                        })
                        .collect();
                    UnitOut {
                        outcomes,
                        replays: 0,
                        stats,
                    }
                }
            }
        });

        // Give the arenas back for the next run.
        *self.arenas.lock().expect("arena lock") = arenas
            .into_iter()
            .map(|m| m.into_inner().expect("arena poisoned"))
            .collect();

        for out in unit_outs {
            executed.tape_replays += out.replays;
            executed.replay.add(&out.stats);
            executed.outcomes.extend(out.outcomes);
        }
        // Record the patterns singleton groups analysed: one lock at the
        // end of the run instead of one per net.
        let mut fresh = executed
            .outcomes
            .iter_mut()
            .filter_map(|(key, _, o)| o.new_pattern.take().map(|p| (*key, p)))
            .peekable();
        if fresh.peek().is_some() {
            let mut pats = self.patterns.lock().expect("pattern lock");
            for (key, p) in fresh {
                pats.entry(key).or_insert(p);
            }
        }
        executed.pool = pool;
        executed
    }
}

/// One solve per distinct solve circuit. Of `nets` (in order), a net
/// with an earlier net's structural hash repeats it and copies its
/// result — exactly what a cache lookup after the first solve would
/// serve. The rest solve: nets whose circuits are equal bit for bit
/// (confirmed after the circuit key matches) share one solve, whose
/// moment recursion yields every unknown's moments, so each observer is
/// one more reduction. `keys(i)` is net `i`'s `(structural hash, circuit
/// key)`. Returns the repeats as `(net, earlier net)` and each solve's
/// observers, leader first, in the order the leaders appear.
pub(crate) fn plan_solves<'c>(
    nets: impl IntoIterator<Item = usize>,
    keys: impl Fn(usize) -> (u64, u64),
    circuit: impl Fn(usize) -> &'c Circuit,
) -> (Vec<(usize, usize)>, Vec<Vec<usize>>) {
    let mut first_of_hash: HashMap<u64, usize> = HashMap::new();
    let mut by_key: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut dups: Vec<(usize, usize)> = Vec::new();
    let mut solves: Vec<Vec<usize>> = Vec::new();
    for i in nets {
        let (hash, key) = keys(i);
        if let Some(&j) = first_of_hash.get(&hash) {
            dups.push((i, j));
            continue;
        }
        first_of_hash.insert(hash, i);
        let bucket = by_key.entry(key).or_default();
        match bucket
            .iter()
            .copied()
            .find(|&s| same_solve_circuit(circuit(solves[s][0]), circuit(i)))
        {
            Some(s) => solves[s].push(i),
            None => {
                bucket.push(solves.len());
                solves.push(vec![i]);
            }
        }
    }
    (dups, solves)
}

/// Sets every corner member's `admitted` flag for its group's stamp
/// program: element admission runs once per base circuit, not once per
/// member.
fn admit_corners<'a>(program: &StampProgram, jobs: &mut [SolveJob<'a>], members: &[usize]) {
    let mut checked: Vec<(&'a Circuit, bool)> = Vec::new();
    for &i in members {
        if let Source::Corner { base, admitted, .. } = &mut jobs[i].source {
            let base: &'a Circuit = base;
            *admitted = match checked.iter().find(|(c, _)| std::ptr::eq(*c, base)) {
                Some(&(_, a)) => a,
                None => {
                    let a = program.check(base);
                    checked.push((base, a));
                    a
                }
            };
        }
    }
}

/// What [`BatchEngine::execute`] produced.
#[derive(Default)]
struct Executed {
    /// `(pattern key, worker, outcome)` per solve job.
    outcomes: Vec<(u64, usize, SolveOutcome)>,
    pool: PoolStats,
    tape_replays: usize,
    replay: ReplayStats,
    /// Fill ratio of each tape compiled this run.
    compiled: Vec<f64>,
}

/// Scatters solve outcomes, served results and duplicates into a run of
/// `len` results and tallies its accounting. `served` results (cache
/// hits) and `dups` copies are renamed to `name(i)` and marked as cache
/// hits. The caller fills in the design name and times.
fn collect<'n>(
    len: usize,
    executed: Executed,
    served: Vec<(usize, NetResult)>,
    dups: &[(usize, usize)],
    name: impl Fn(usize) -> &'n str,
) -> BatchRun {
    let mut results: Vec<Option<NetResult>> = (0..len).map(|_| None).collect();
    let mut timings: Vec<NetTiming> = vec![NetTiming::default(); len];
    let mut solves = 0usize;
    let mut shared = 0usize;
    let mut pattern_hits = 0usize;
    let mut scalar_fallbacks = 0usize;
    for (_, worker, o) in executed.outcomes {
        solves += 1;
        shared += o.nets.len() - 1;
        pattern_hits += usize::from(o.pattern_hit);
        scalar_fallbacks += usize::from(o.fallback);
        for (i, result, stages) in o.nets {
            timings[i] = NetTiming {
                latency: o.latency,
                stages,
                worker,
            };
            results[i] = Some(result);
        }
    }
    let cache_hits = served.len() + dups.len();
    let hit = NetTiming {
        latency: Duration::ZERO,
        stages: StageTimings::default(),
        worker: CALLER_WORKER,
    };
    for (i, mut r) in served {
        r.name = name(i).to_owned();
        r.cache_hit = true;
        results[i] = Some(r);
        timings[i] = hit;
    }
    for &(i, j) in dups {
        let mut r = results[j].clone().expect("dup source resolved");
        r.name = name(i).to_owned();
        r.cache_hit = true;
        results[i] = Some(r);
        timings[i] = hit;
    }
    SOLVES.add(solves as u64);
    SHARED_OUTPUTS.add(shared as u64);
    CACHE_HITS.add(cache_hits as u64);
    PATTERN_HITS.add(pattern_hits as u64);
    let replay = executed.replay;
    BatchRun {
        design: String::new(),
        parse_time: Duration::ZERO,
        wall: Duration::ZERO,
        results: results
            .into_iter()
            .map(|r| r.expect("every net resolved"))
            .collect(),
        timings,
        pool: executed.pool,
        solves,
        shared,
        cache_hits,
        pattern_hits,
        tapes_compiled: executed.compiled.len(),
        fill_ratio: executed.compiled.into_iter().reduce(f64::max),
        tape_replays: executed.tape_replays,
        lane_blocks: replay.lane_blocks,
        lane_lanes: replay.lane_lanes,
        scalar_fallbacks,
        stamped: replay.stamped,
        rebuilt: replay.rebuilt,
        materialized: replay.materialized,
    }
}

/// One pool job: a whole batch of solves scheduled as a unit.
enum Unit {
    /// Replay the solve jobs `members` (job indices) through one group
    /// tape.
    Tape {
        tape: Arc<GroupTape>,
        members: Vec<usize>,
    },
    /// Scalar solves of the jobs `nets`, with no applicable tape.
    Scalar { nets: Vec<usize> },
}

/// What one work unit produced: `(pattern key, worker, outcome)` per
/// solve.
struct UnitOut {
    outcomes: Vec<(u64, usize, SolveOutcome)>,
    replays: usize,
    stats: ReplayStats,
}

/// One net reading its result off a solve: where the result goes and
/// which node it observes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Observer<'a> {
    /// Design index (for scattering the result).
    pub index: usize,
    /// Net name.
    pub name: &'a str,
    /// Observation node in the solve circuit.
    pub output: NodeId,
    /// Structural hash: the cache key of a design net, the base net's
    /// hash for a corner-sweep member.
    pub hash: u64,
}

/// Where a solve job's circuit comes from.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Source<'a> {
    /// A design net's solve circuit (the reduced rewrite when the
    /// pre-pass ran).
    Circuit(&'a Circuit),
    /// A corner-sweep member: `values` over `base`'s elements (see
    /// [`corner_values`](crate::sweep)). No circuit exists for it until a
    /// path that reads one materializes it.
    Corner {
        base: &'a Circuit,
        values: &'a [f64],
        /// Whether the group's stamp program admits `base` — set by the
        /// engine once per base circuit when the group has a tape.
        admitted: bool,
    },
}

/// One solve: a circuit built, factored and run through the moment
/// recursion once, then reduced at every observer's node.
pub(crate) struct SolveJob<'a> {
    /// The circuit to solve.
    pub source: Source<'a>,
    /// Topology pattern key of the circuit (its structure group).
    pub pattern: u64,
    /// The nets observing it, leader first (never empty).
    pub observers: Vec<Observer<'a>>,
}

impl<'a> SolveJob<'a> {
    /// The circuit's structure: node and element counts, names and
    /// terminals (a corner's base circuit, whose values differ).
    pub fn structure(&self) -> &'a Circuit {
        match self.source {
            Source::Circuit(c) | Source::Corner { base: c, .. } => c,
        }
    }

    /// The circuit itself, for the paths that read one: a design net's is
    /// borrowed, a corner's is built through
    /// [`corner_circuit`](crate::corner_circuit)'s materialization, and
    /// counted in `materialized`.
    pub fn circuit(&self, materialized: &mut usize) -> Cow<'a, Circuit> {
        match self.source {
            Source::Circuit(c) => Cow::Borrowed(c),
            Source::Corner { base, values, .. } => {
                *materialized += 1;
                Cow::Owned(materialize(base, values))
            }
        }
    }
}

/// What one solve produced.
pub(crate) struct SolveOutcome {
    /// `(design index, result, stage times)` per observer, in observer
    /// order. The shared stages are split evenly over the observers.
    pub nets: Vec<(usize, NetResult, StageTimings)>,
    /// End-to-end wall time of the solve (of its lane block, on the
    /// sparse tape).
    pub latency: Duration,
    /// Whether the solve reused the group's shared symbolic pattern.
    pub pattern_hit: bool,
    /// A freshly analysed pattern to record for the group.
    pub new_pattern: Option<SharedSymbolic>,
    /// Whether the solve left tape replay for the scalar path.
    pub fallback: bool,
}

/// Wraps a [`solve_net`] run seeded with `seed` as an outcome: the
/// engine kept the seeded `Arc` ⇔ the solve refactored against it; an
/// unseeded sparse solve hands its fresh pattern to the caches.
pub(crate) fn outcome(
    nets: Vec<(usize, NetResult, StageTimings)>,
    t0: Instant,
    seed: Option<&SharedSymbolic>,
    pattern: Option<SharedSymbolic>,
    fallback: bool,
) -> SolveOutcome {
    SolveOutcome {
        nets,
        latency: t0.elapsed(),
        pattern_hit: matches!((seed, &pattern), (Some(s), Some(p)) if Arc::ptr_eq(s, p)),
        new_pattern: match (seed, pattern) {
            (None, Some(p)) => Some(p),
            _ => None,
        },
        fallback,
    }
}

/// What one [`solve_net`] produced.
pub(crate) struct Solved {
    /// `(design index, result, stage times)` per observer.
    pub nets: Vec<(usize, NetResult, StageTimings)>,
    /// The pattern the engine ended up with.
    pub pattern: Option<SharedSymbolic>,
}

/// One full AWE solve of `circuit`, with stage times: one MNA build, one
/// factorization and one moment recursion per order tried, reduced at
/// every observer's node. Each observer's result is bit-identical to
/// solving its net alone — an observer whose node is no unknown of the
/// system gets the engine's `BadNode` error. A `seed` pattern is handed
/// to the AWE engine so the factorization can skip its symbolic
/// analysis; the pattern the engine ends up with (the seed if the
/// refactorization succeeded, a freshly analysed one otherwise, `None` on
/// the dense path) is returned for the caches. The engine runs its
/// moment recursions in `ws`, a worker's warm workspace.
pub(crate) fn solve_net(
    circuit: &Circuit,
    observers: &[Observer<'_>],
    opts: &BatchOptions,
    seed: Option<&SharedSymbolic>,
    ws: &mut MomentWorkspace,
) -> Solved {
    let requested = if opts.auto_target.is_some() {
        1
    } else {
        opts.order
    };
    let mut results: Vec<NetResult> = observers
        .iter()
        .map(|o| blank_result(o.name, o.hash, circuit, requested))
        .collect();
    let n = results.len();
    let collect = |results: Vec<NetResult>, stages: Vec<StageTimings>| {
        observers
            .iter()
            .zip(results)
            .zip(stages)
            .map(|((o, r), s)| (o.index, r, s))
            .collect()
    };
    let engine = match AweEngine::new(circuit) {
        Ok(e) => e,
        Err(e) => {
            for r in &mut results {
                r.error = Some(e.to_string());
            }
            return Solved {
                nets: collect(results, vec![StageTimings::default(); n]),
                pattern: None,
            };
        }
    };
    engine.set_factor_pattern(seed.cloned());
    engine.swap_workspace(ws);
    let mut solve_span = awe_obs::span("engine.solve");
    solve_span.note(requested as f64, engine.system().num_unknowns() as f64);
    let assembly = StageTimings {
        mna: engine.assembly_time(),
        ..StageTimings::default()
    };
    let mut stages = vec![share(&assembly, n); n];
    // Each observer's unknown, checked in the engine's own order: a zero
    // order is rejected first, then a node outside the system.
    let mut live: Vec<(usize, usize)> = Vec::with_capacity(n);
    for (p, o) in observers.iter().enumerate() {
        let checked = if opts.auto_target.is_none() && opts.order == 0 {
            Err(AweError::BadOrder { order: 0 })
        } else {
            engine
                .system()
                .unknown_of_node(o.output)
                .ok_or(AweError::BadNode(o.output))
        };
        match checked {
            Ok(idx) => live.push((p, idx)),
            Err(e) => results[p].error = Some(e.to_string()),
        }
    }
    if !live.is_empty() {
        match opts.auto_target {
            None => fixed_solve(&engine, &live, opts, &mut stages, &mut results),
            Some(target) => auto_solve(&engine, live, target, opts, &mut stages, &mut results),
        }
    }
    engine.swap_workspace(ws);
    Solved {
        nets: collect(results, stages),
        pattern: engine.factor_pattern(),
    }
}

/// Fixed-order mode: one decomposition with the escalation headroom,
/// then the engine's delivery policy at every live observer's unknown.
fn fixed_solve(
    engine: &AweEngine,
    live: &[(usize, usize)],
    opts: &BatchOptions,
    stages: &mut [StageTimings],
    results: &mut [NetResult],
) {
    match engine.decompose_timed(opts.order, opts.awe) {
        Ok((dec, clock)) => {
            let clock = share(&clock, live.len());
            for &(p, idx) in live {
                accumulate(&mut stages[p], &clock);
                match reduce_decomposition(&dec, idx, opts.order, opts.awe, &mut stages[p]) {
                    Ok(approx) => {
                        results[p].escalations = approx.order.saturating_sub(opts.order);
                        fill_result(&mut results[p], &approx);
                    }
                    Err(e) => results[p].error = Some(e.to_string()),
                }
            }
            engine.recycle(dec);
        }
        Err(e) => {
            for &(p, _) in live {
                results[p].error = Some(e.to_string());
            }
        }
    }
}

/// Automatic order selection with stage-time accounting: the
/// [`AweEngine::approximate_auto`] policy, inlined so every reduction's
/// wall time lands in `stages`. Each order is one decomposition shared by
/// every observer still searching, so each observer sees exactly the
/// per-order solves it would see alone.
fn auto_solve(
    engine: &AweEngine,
    live: Vec<(usize, usize)>,
    target: f64,
    opts: &BatchOptions,
    stages: &mut [StageTimings],
    results: &mut [NetResult],
) {
    let per_order = AweOptions {
        max_escalation: 0,
        ..opts.awe
    };
    let mut searching: Vec<(usize, usize, AutoSearch)> = live
        .into_iter()
        .map(|(p, idx)| (p, idx, AutoSearch::default()))
        .collect();
    for q in 1..=opts.max_order.max(1) {
        if searching.is_empty() {
            return;
        }
        match engine.decompose_timed(q, per_order) {
            Ok((dec, clock)) => {
                let clock = share(&clock, searching.len());
                searching.retain_mut(|(p, idx, search)| {
                    accumulate(&mut stages[*p], &clock);
                    let attempt = reduce_decomposition(&dec, *idx, q, per_order, &mut stages[*p]);
                    !search.feed(attempt, target, opts, &mut results[*p])
                });
                engine.recycle(dec);
            }
            Err(e) => {
                for (p, _, _) in searching.drain(..) {
                    results[p].error = Some(e.to_string());
                }
            }
        }
    }
    for (p, _, search) in searching {
        search.finish(opts, &mut results[p]);
    }
}

/// One observer's automatic-order search, fed one order at a time. Mirrors
/// the engine's trust gates: only stable, well-conditioned models are
/// candidates, the §3.4 early stop additionally requires the moment-tail
/// check, and when no order meets the target the highest trusted order
/// wins (un-rescued preferred).
#[derive(Default)]
struct AutoSearch {
    tried: usize,
    best_clean: Option<AweApproximation>,
    best_rescued: Option<AweApproximation>,
}

impl AutoSearch {
    /// Takes the next order's attempt; returns `true` once the search is
    /// over, with its outcome written to `result`.
    fn feed(
        &mut self,
        attempt: Result<AweApproximation, AweError>,
        target: f64,
        opts: &BatchOptions,
        result: &mut NetResult,
    ) -> bool {
        match attempt {
            Ok(approx) => {
                self.tried += 1;
                if !approx.trusted() {
                    return false;
                }
                let done = approx.tail_converged()
                    && target > 0.0
                    && approx.error_estimate.is_some_and(|e| e <= target);
                if done {
                    result.escalations = self.tried - 1;
                    fill_result(result, &approx);
                    return true;
                }
                if approx.discarded == 0 {
                    self.best_clean = Some(approx);
                } else {
                    self.best_rescued = Some(approx);
                }
                false
            }
            // True system order reached; stop escalating.
            Err(AweError::MomentMatrixSingular { .. }) => {
                std::mem::take(self).finish(opts, result);
                true
            }
            Err(e) => {
                result.error = Some(e.to_string());
                true
            }
        }
    }

    /// Ends the search after its last order: the best trusted model.
    fn finish(self, opts: &BatchOptions, result: &mut NetResult) {
        result.escalations = self.tried.saturating_sub(1);
        match self.best_clean.or(self.best_rescued) {
            Some(approx) => fill_result(result, &approx),
            None => {
                result.error = Some(
                    AweError::Unstable {
                        order: opts.max_order,
                    }
                    .to_string(),
                );
            }
        }
    }
}

/// Even split of a solve's stage times over the `n` observers sharing it.
pub(crate) fn share(clock: &StageTimings, n: usize) -> StageTimings {
    let n = n.max(1) as u32;
    StageTimings {
        mna: clock.mna / n,
        factor: clock.factor / n,
        refactor: clock.refactor / n,
        moments: clock.moments / n,
        pade: clock.pade / n,
        residues: clock.residues / n,
    }
}

fn accumulate(stages: &mut StageTimings, clock: &StageTimings) {
    stages.factor += clock.factor;
    stages.refactor += clock.refactor;
    stages.moments += clock.moments;
    stages.pade += clock.pade;
    stages.residues += clock.residues;
}

/// The pre-solve result skeleton for one net: everything known before
/// analysis, error and approximation fields blank.
pub(crate) fn blank_result(
    name: &str,
    hash: u64,
    circuit: &Circuit,
    requested: usize,
) -> NetResult {
    NetResult {
        name: name.to_owned(),
        hash,
        nodes: circuit.num_nodes(),
        elements: circuit.elements().len(),
        requested_order: requested,
        order: 0,
        escalations: 0,
        stable: false,
        rescued: false,
        error_estimate: None,
        delay_50: None,
        final_value: 0.0,
        poles: Vec::new(),
        cache_hit: false,
        error: None,
    }
}

/// Copies a delivered approximation's observables into a result row.
pub(crate) fn fill_result(result: &mut NetResult, approx: &AweApproximation) {
    result.order = approx.order;
    result.stable = approx.stable;
    result.rescued = approx.discarded > 0;
    result.error_estimate = approx.error_estimate;
    let crossing = awe_obs::span("response.crossing");
    result.delay_50 = approx.delay_50();
    drop(crossing);
    result.final_value = approx.final_value();
    result.poles = approx.poles().iter().map(|p| (p.re, p.im)).collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;

    #[test]
    fn run_solves_all_nets_in_order() {
        let design = Design::synthetic(20, 7);
        let engine = BatchEngine::new();
        let run = engine.run(&design, &BatchOptions::default());
        assert_eq!(run.results.len(), 20);
        assert_eq!(run.solves, 20);
        assert_eq!(run.cache_hits, 0);
        for (net, r) in design.nets().iter().zip(&run.results) {
            assert_eq!(net.name, r.name);
            assert!(r.error.is_none(), "{}: {:?}", r.name, r.error);
            assert!(r.stable);
            assert!(r.delay_50.is_some());
        }
    }

    #[test]
    fn second_run_is_all_cache_hits() {
        let design = Design::synthetic(8, 3);
        let engine = BatchEngine::new();
        let first = engine.run(&design, &BatchOptions::default());
        assert_eq!(first.solves, 8);
        let second = engine.run(&design, &BatchOptions::default());
        assert_eq!(second.solves, 0);
        assert_eq!(second.cache_hits, 8);
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(a.order, b.order);
            assert_eq!(a.delay_50, b.delay_50);
            assert!(b.cache_hit);
        }
    }

    #[test]
    fn eco_edit_recomputes_only_touched_net() {
        let mut design = Design::synthetic(6, 11);
        let engine = BatchEngine::new();
        engine.run(&design, &BatchOptions::default());
        let replacement = Design::synthetic(1, 999).nets()[0].clone();
        assert!(design.replace_net("net0003", replacement.circuit, replacement.output));
        let rerun = engine.run(&design, &BatchOptions::default());
        assert_eq!(rerun.solves, 1, "only the edited net re-solves");
        assert_eq!(rerun.cache_hits, 5);
        assert!(!rerun.results[2].cache_hit);
    }

    #[test]
    fn invalidation_forces_reanalysis() {
        // 200 stages ≈ 202 unknowns: past the sparse-path threshold, so
        // the group shares a cached symbolic pattern.
        let design = Design::synthetic_chains(4, 200, 5);
        let engine = BatchEngine::new();
        engine.run(&design, &BatchOptions::default());
        assert_eq!(engine.cache_len(), 4);
        assert_eq!(engine.pattern_len(), 1);

        let hash = design.nets()[2].hash();
        let key = design.nets()[2].pattern_key();
        assert!(engine.has_result(hash));
        assert!(engine.invalidate_result(hash));
        assert!(!engine.has_result(hash));
        assert!(!engine.invalidate_result(hash), "second evict is a no-op");

        // Re-run: only the evicted net solves, and it refactors against
        // the still-cached group pattern (no new symbolic analysis).
        let rerun = engine.run(&design, &BatchOptions::default());
        assert_eq!(rerun.solves, 1);
        assert_eq!(rerun.cache_hits, 3);
        assert_eq!(rerun.pattern_hits, 1);

        assert!(engine.has_pattern(key));
        assert!(engine.invalidate_pattern(key));
        assert!(!engine.has_pattern(key));
        assert!(!engine.invalidate_pattern(key));
    }

    #[test]
    fn reduction_shrinks_systems_and_never_crosses_caches() {
        let design = Design::synthetic_chains(3, 300, 9);
        let engine = BatchEngine::new();
        let full = engine.run(&design, &BatchOptions::default());
        assert_eq!(full.solves, 3);

        // Same design, reduction on: the cache keys are salted with the
        // reduce config, so nothing cross-serves.
        let ropts = BatchOptions {
            reduce: ReduceOptions {
                enabled: true,
                tolerance: 0.02,
            },
            ..BatchOptions::default()
        };
        let reduced = engine.run(&design, &ropts);
        assert_eq!(reduced.cache_hits, 0, "toggle never serves stale results");
        assert_eq!(reduced.solves, 3);
        for (f, r) in full.results.iter().zip(&reduced.results) {
            assert!(
                r.nodes * 5 < f.nodes,
                "{}: {} vs {} nodes",
                r.name,
                r.nodes,
                f.nodes
            );
            let (df, dr) = (f.delay_50.unwrap(), r.delay_50.unwrap());
            assert!(
                ((dr - df) / df).abs() < 0.05,
                "{}: delay {df} vs {dr}",
                r.name
            );
        }

        // Re-running with reduction on is pure cache; a different
        // tolerance re-keys again.
        let again = engine.run(&design, &ropts);
        assert_eq!(again.solves, 0);
        assert_eq!(again.cache_hits, 3);
        let other_tol = BatchOptions {
            reduce: ReduceOptions {
                enabled: true,
                tolerance: 0.01,
            },
            ..BatchOptions::default()
        };
        let rekeyed = engine.run(&design, &other_tol);
        assert_eq!(rekeyed.cache_hits, 0, "tolerance is part of the key");
    }

    #[test]
    fn auto_mode_meets_target() {
        let design = Design::synthetic(5, 21);
        let engine = BatchEngine::new();
        let run = engine.run(
            &design,
            &BatchOptions {
                auto_target: Some(0.01),
                ..BatchOptions::default()
            },
        );
        for r in &run.results {
            assert!(r.error.is_none(), "{}: {:?}", r.name, r.error);
            assert!(
                r.error_estimate.is_none_or(|e| e <= 0.01) || r.order == 8,
                "{}: err {:?} at order {}",
                r.name,
                r.error_estimate,
                r.order
            );
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let design = Design::synthetic(24, 5);
        let runs: Vec<BatchRun> = [1usize, 4]
            .iter()
            .map(|&t| {
                BatchEngine::new().run(
                    &design,
                    &BatchOptions {
                        threads: t,
                        ..BatchOptions::default()
                    },
                )
            })
            .collect();
        for (a, b) in runs[0].results.iter().zip(&runs[1].results) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.hash, b.hash);
            assert_eq!(a.order, b.order);
            assert_eq!(a.delay_50, b.delay_50);
            assert_eq!(a.poles, b.poles);
        }
    }
}
