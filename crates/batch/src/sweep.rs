//! Monte-Carlo corner sweeps: one base design, many value-only process
//! corners, replayed through the structure-group tape machinery.
//!
//! A *corner* is the base design with every R/C value perturbed by a
//! relative Gaussian draw (`value · (1 + σ·z)`). Corners never change
//! topology, element names, or observation nodes, so a corner is a
//! **value vector** over its base circuit's elements, not a circuit.
//! [`sweep_ordered`] partitions the base nets into distinct solve
//! circuits once (the taps of a PDN design are one circuit with several
//! observers), draws one vector per circuit and corner, and hands the
//! batch engine the resulting solve jobs: one structure group per base
//! topology, one donor symbolic factorization, and every other corner
//! stamped from its values into the group's tape (stamp program, lane
//! refactor) with zero new symbolic work.
//!
//! A corner becomes a [`Circuit`] — through [`corner_circuit`], the one
//! generator of corner bits — only where a circuit is read: the group's
//! donor, a lane that falls back to the scalar solve, a member the stamp
//! program declines, and every member when no tape applies (no tape, a
//! dense group, automatic order, RC-chain reduction).
//! [`BatchRun::materialized`] counts them. Sweep members never enter the
//! engine's result cache, and a member's [`NetResult::hash`] is its base
//! net's structural hash: it names the net a member perturbs, not the
//! member's values.
//!
//! Determinism is by construction, not by scheduling discipline: corner
//! `k`'s perturbation stream is seeded by a splitmix64 mix of
//! `seed ⊕ k` alone, so the values of corner `k` are a pure function of
//! `(base, spec, k)` — byte-identical at any thread count and any corner
//! order. The aggregation below keys every sample by corner index, so
//! quantiles and worst-corner attribution are permutation-invariant too.
//!
//! Perturbed values are validated *at the sweep boundary*: a draw that
//! drives R or C non-positive (or non-finite) yields a typed
//! [`CornerError`] naming the corner and element for every base net over
//! that circuit, and the corner is excluded from the run — it can
//! neither demote the tape to a stamp-program admission fallback nor
//! leak NaN into the quantile aggregation.
//!
//! [`NetResult::hash`]: crate::NetResult::hash

use std::time::Duration;

use awe_circuit::pdn::{pdn_grid, PdnSpec};
use awe_circuit::{Circuit, Element, NodeId};

use crate::design::{net_and_circuit_hash, pattern_key, Design, NetSpec};
use crate::engine::{plan_solves, BatchEngine, BatchOptions, BatchRun, Observer, SolveJob, Source};
use crate::pool::run_indexed;

static CORNERS: awe_obs::Counter = awe_obs::Counter::new("sweep.corners");
static REJECTED: awe_obs::Counter = awe_obs::Counter::new("sweep.corner_rejects");
static MEMBERS: awe_obs::Counter = awe_obs::Counter::new("sweep.members");

/// A corner-sweep specification: how many corners, how wide the
/// relative perturbation, and the master seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CornerSpec {
    /// Number of process corners to draw.
    pub corners: usize,
    /// Relative perturbation width: each R/C value becomes
    /// `value · (1 + sigma·z)` with `z` a standard-normal draw. `0.0`
    /// reproduces the base design bit-for-bit in every corner.
    pub sigma: f64,
    /// Master seed; corner `k` derives its stream from `seed ⊕ k`.
    pub seed: u64,
}

impl CornerSpec {
    /// A spec with the given corner count, σ, and seed.
    pub fn new(corners: usize, sigma: f64, seed: u64) -> Self {
        CornerSpec {
            corners,
            sigma,
            seed,
        }
    }
}

/// A perturbed value that left the physical domain, caught at the sweep
/// boundary before any analysis machinery saw it.
#[derive(Clone, Debug, PartialEq)]
pub struct CornerError {
    /// Corner index the draw belonged to.
    pub corner: usize,
    /// Base net whose circuit was being perturbed.
    pub net: String,
    /// Element whose perturbed value failed validation.
    pub element: String,
    /// The offending value (non-finite or ≤ 0).
    pub value: f64,
}

impl std::fmt::Display for CornerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corner {}: net {} element {} perturbed to non-physical value {:e}",
            self.corner, self.net, self.element, self.value
        )
    }
}

impl std::error::Error for CornerError {}

/// Delay distribution of one observation node across the sweep.
#[derive(Clone, Debug)]
pub struct NodeStats {
    /// Base net name (one observation node per base net).
    pub node: String,
    /// Per-corner 50 % delays in corner order: `(corner, delay)` — `None`
    /// when the corner solved but produced no delay (analysis error or
    /// no crossing). Boundary-rejected corners are absent entirely.
    pub delays: Vec<(usize, Option<f64>)>,
    /// Corners with a finite delay sample.
    pub samples: usize,
    /// Corners that ran but produced no usable delay.
    pub failed: usize,
    /// Median delay (nearest-rank over `samples`).
    pub p50: Option<f64>,
    /// 95th-percentile delay.
    pub p95: Option<f64>,
    /// 99th-percentile delay.
    pub p99: Option<f64>,
    /// Corner index of the worst (largest) delay; ties resolve to the
    /// lowest corner index.
    pub worst_corner: Option<usize>,
    /// The worst delay itself.
    pub worst_delay: Option<f64>,
}

/// A finished corner sweep: the underlying batch run plus per-node delay
/// distributions and the boundary-rejection ledger.
#[derive(Clone, Debug)]
pub struct SweepRun {
    /// Base design name.
    pub design: String,
    /// The sweep specification.
    pub spec: CornerSpec,
    /// The batch run over all admitted corner members.
    pub run: BatchRun,
    /// `(corner, base-net index)` of each member, in member order —
    /// aligned with `run.results`.
    pub members: Vec<(usize, usize)>,
    /// Per-observation-node delay distributions, in base-net order.
    pub nodes: Vec<NodeStats>,
    /// Corners rejected at the validation boundary.
    pub rejected: Vec<CornerError>,
    /// Symbolic factorizations paid (`solves - pattern_hits`): the donor
    /// plus any member that missed the pattern cache.
    pub new_symbolic: usize,
    /// Symbolic factorizations beyond the donor's: the headline
    /// "value-only corners replay for free" claim is this being zero.
    pub new_symbolic_after_donor: usize,
    /// Wall time of corner generation + validation (the batch run's own
    /// wall time lives in `run.wall`).
    pub generate_wall: Duration,
}

impl SweepRun {
    /// Assembles a finished sweep of `base` from its batch run, whose
    /// results align with `members`: the per-node delay distributions
    /// and the symbolic-work ledger. `rejected` must already be sorted by
    /// `(corner, net)`.
    pub fn from_run(
        base: &Design,
        spec: &CornerSpec,
        run: BatchRun,
        members: Vec<(usize, usize)>,
        rejected: Vec<CornerError>,
        generate_wall: Duration,
    ) -> SweepRun {
        let agg_span = awe_obs::span("sweep.aggregate");
        let nodes = aggregate(base, &run, &members);
        drop(agg_span);
        let new_symbolic = run.solves.saturating_sub(run.pattern_hits);
        SweepRun {
            design: base.name.clone(),
            spec: *spec,
            new_symbolic,
            new_symbolic_after_donor: new_symbolic.saturating_sub(1),
            run,
            members,
            nodes,
            rejected,
            generate_wall,
        }
    }

    /// FNV-1a digest of the deterministic sweep outcome: node names,
    /// per-corner delay bits, failure markers, and rejection records.
    /// Two sweeps of the same base/spec are required to agree on this
    /// digest at any thread count and any corner scheduling order.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut byte = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        let word = |v: u64, byte: &mut dyn FnMut(u8)| {
            for b in v.to_le_bytes() {
                byte(b);
            }
        };
        for n in &self.nodes {
            for b in n.node.bytes() {
                byte(b);
            }
            for &(corner, delay) in &n.delays {
                word(corner as u64, &mut byte);
                match delay {
                    Some(d) => word(d.to_bits(), &mut byte),
                    None => word(u64::MAX, &mut byte),
                }
            }
        }
        for r in &self.rejected {
            word(r.corner as u64, &mut byte);
            for b in r.net.bytes() {
                byte(b);
            }
            for b in r.element.bytes() {
                byte(b);
            }
            word(r.value.to_bits(), &mut byte);
        }
        h
    }

    /// Corners per second of batch wall time (0 for an empty/instant
    /// run). A "corner" here is one full set of observation nodes.
    pub fn corners_per_sec(&self) -> f64 {
        let secs = self.run.wall.as_secs_f64();
        let corners: std::collections::BTreeSet<usize> =
            self.members.iter().map(|&(c, _)| c).collect();
        if secs > 0.0 {
            corners.len() as f64 / secs
        } else {
            0.0
        }
    }
}

/// splitmix64 step (Steele et al.): the per-corner stream generator. The
/// stream for corner `k` starts at `seed ⊕ k`, so corner circuits are
/// pure functions of `(base, spec, corner)` — independent of thread
/// count and corner order.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in (0, 1) from one splitmix64 output (53-bit mantissa,
/// offset by half an ulp so 0 is excluded — `ln` below needs that).
fn unit(state: &mut u64) -> f64 {
    ((splitmix64(state) >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Standard-normal draw (Box–Muller, first component).
fn normal(state: &mut u64) -> f64 {
    let u1 = unit(state);
    let u2 = unit(state);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Corner `k`'s value vector over `base`: one entry per element of
/// `base` — every R/C value scaled by `1 + σ·z` with per-element
/// standard-normal draws from the corner's splitmix stream, in element
/// order; an inductor's entry is its base value, any other element's 0
/// (the entries [`StampProgram::apply_values`](awe_mna::StampProgram::apply_values)
/// reads).
///
/// # Errors
///
/// [`CornerError`] (with `net` left empty — the sweep fills it in) for
/// the first perturbed value that is non-finite or ≤ 0.
pub(crate) fn corner_values(
    base: &Circuit,
    spec: &CornerSpec,
    corner: usize,
) -> Result<Vec<f64>, CornerError> {
    let mut state = spec.seed ^ corner as u64;
    base.elements()
        .iter()
        .map(|el| {
            let (name, value) = match el {
                Element::Resistor { name, ohms, .. } => (name, *ohms),
                Element::Capacitor { name, farads, .. } => (name, *farads),
                Element::Inductor { henries, .. } => return Ok(*henries),
                _ => return Ok(0.0),
            };
            if spec.sigma == 0.0 {
                // Exactly the base bits.
                return Ok(value);
            }
            let perturbed = value * (1.0 + spec.sigma * normal(&mut state));
            if !perturbed.is_finite() || perturbed <= 0.0 {
                return Err(CornerError {
                    corner,
                    net: String::new(),
                    element: name.clone(),
                    value: perturbed,
                });
            }
            Ok(perturbed)
        })
        .collect()
}

/// The circuit a value vector describes: `base` with every R/C/L value
/// that differs from `values` written in. A 0σ vector writes nothing, so
/// the result is the base bits.
pub(crate) fn materialize(base: &Circuit, values: &[f64]) -> Circuit {
    let mut out = base.clone();
    for (idx, (el, &v)) in base.elements().iter().zip(values).enumerate() {
        let current = match el {
            Element::Resistor { ohms: x, .. }
            | Element::Capacitor { farads: x, .. }
            | Element::Inductor { henries: x, .. } => *x,
            _ => continue,
        };
        if current.to_bits() != v.to_bits() {
            out.set_value_at(idx, v)
                .expect("validated value on an existing element");
        }
    }
    out
}

/// Builds corner `k` of `base`: the circuit of its value vector, every
/// R/C value scaled by `1 + σ·z` with per-element standard-normal draws
/// from the corner's splitmix stream. A sweep builds this circuit only where one is read (see the
/// module docs); everywhere else it stamps the value vector.
///
/// # Errors
///
/// [`CornerError`] (with `net` left empty — the sweep fills it in) when
/// any perturbed value is non-finite or ≤ 0. The base circuit is never
/// mutated and no partially-perturbed circuit escapes.
pub fn corner_circuit(
    base: &Circuit,
    spec: &CornerSpec,
    corner: usize,
) -> Result<Circuit, CornerError> {
    corner_values(base, spec, corner).map(|values| materialize(base, &values))
}

/// Runs a corner sweep of `base` on `engine`, scheduling corners in
/// index order. See [`sweep_ordered`] for the scheduling-order variant
/// (results are identical by construction).
pub fn sweep(
    engine: &BatchEngine,
    base: &Design,
    spec: &CornerSpec,
    opts: &BatchOptions,
) -> SweepRun {
    let order: Vec<usize> = (0..spec.corners).collect();
    sweep_ordered(engine, base, spec, &order, opts)
}

/// Runs a corner sweep with an explicit corner scheduling order (a
/// permutation of `0..spec.corners`). The order only affects which
/// member happens to become the structure group's donor — every
/// aggregate, sample, and digest is keyed by corner index and comes out
/// byte-identical for any permutation.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..spec.corners`.
pub fn sweep_ordered(
    engine: &BatchEngine,
    base: &Design,
    spec: &CornerSpec,
    order: &[usize],
    opts: &BatchOptions,
) -> SweepRun {
    let mut seen = vec![false; spec.corners];
    for &k in order {
        assert!(
            k < spec.corners && !std::mem::replace(&mut seen[k], true),
            "order must be a permutation of 0..{}",
            spec.corners
        );
    }
    assert!(seen.iter().all(|&s| s), "order must cover every corner");

    let mut sweep_span = awe_obs::span("sweep.run");
    let gen_start = std::time::Instant::now();
    let mut plan = CornerPlan::draw(base, spec, order, opts.threads);
    let name = format!("{}+sweep", base.name);
    // Reduction rewrites each corner's topology from its values, so a
    // reducing sweep builds every member's circuit and runs it as a
    // design.
    let reduced = opts.reduce.enabled.then(|| plan.design(base, name.clone()));
    let generate_wall = gen_start.elapsed();
    CORNERS.add(spec.corners as u64);
    REJECTED.add(plan.rejected.len() as u64);
    MEMBERS.add(plan.members.len() as u64);
    // Rejections sort by (corner, net index); generation order above is
    // scheduling order, which must not leak into the report.
    plan.rejected
        .sort_by(|a, b| (a.corner, &a.net).cmp(&(b.corner, &b.net)));

    let run = match reduced {
        Some(design) => engine.run(&design, opts),
        None => {
            let mut run = engine.run_jobs(
                plan.members.len(),
                plan.jobs(),
                &plan.dups,
                |m| &plan.names[m],
                opts,
            );
            run.design = name;
            run
        }
    };

    sweep_span.note(spec.corners as f64, plan.members.len() as f64);
    SweepRun::from_run(base, spec, run, plan.members, plan.rejected, generate_wall)
}

/// A distinct solve circuit among the base design's nets.
struct BaseCircuit<'a> {
    circuit: &'a Circuit,
    pattern: u64,
}

/// One base net's place in the partition.
struct BaseNet {
    /// Index of its distinct solve circuit.
    circuit: usize,
    /// The first net with its structural hash: itself, or an earlier net
    /// it duplicates.
    source: usize,
    hash: u64,
    output: NodeId,
}

/// One value vector drawn for a distinct base circuit.
struct Draw {
    /// The corner that drew it.
    corner: usize,
    circuit: usize,
    values: Vec<f64>,
    /// Members observing its solve, leader first.
    members: Vec<usize>,
}

/// A sweep's solve structure: the base nets partitioned into distinct
/// solve circuits once, one value vector per circuit and admitted corner,
/// and the members in scheduling order (corner-major × base net).
struct CornerPlan<'a> {
    bases: Vec<BaseCircuit<'a>>,
    nets: Vec<BaseNet>,
    draws: Vec<Draw>,
    /// `(corner, base-net index)` per member.
    members: Vec<(usize, usize)>,
    /// The draw whose values each member observes.
    member_draw: Vec<usize>,
    names: Vec<String>,
    /// `(member, source member)`: members served as copies — a duplicate
    /// base net, or every corner of a 0σ sweep after the first, whose
    /// circuit is the base's.
    dups: Vec<(usize, usize)>,
    rejected: Vec<CornerError>,
}

impl<'a> CornerPlan<'a> {
    /// Partitions `base` and draws every corner of `order`, once per
    /// distinct solve circuit. A rejected draw rejects the corner for
    /// every net over that circuit. Hashing and drawing are pure per-net
    /// and per-corner work and run on `threads` workers.
    fn draw(base: &'a Design, spec: &CornerSpec, order: &[usize], threads: usize) -> Self {
        let (keys, _) = run_indexed(base.len(), threads, |ni, _| {
            let net = &base.nets()[ni];
            net_and_circuit_hash(&net.circuit, net.output)
        });
        let (dups, solves) =
            plan_solves(0..base.len(), |ni| keys[ni], |ni| &base.nets()[ni].circuit);
        let mut circuit_of = vec![0; base.len()];
        for (g, observers) in solves.iter().enumerate() {
            for &ni in observers {
                circuit_of[ni] = g;
            }
        }
        let mut source: Vec<usize> = (0..base.len()).collect();
        for (ni, j) in dups {
            circuit_of[ni] = circuit_of[j];
            source[ni] = j;
        }
        let nets: Vec<BaseNet> = base
            .nets()
            .iter()
            .zip(&keys)
            .enumerate()
            .map(|(ni, (net, &(hash, _)))| BaseNet {
                circuit: circuit_of[ni],
                source: source[ni],
                hash,
                output: net.output,
            })
            .collect();
        let bases: Vec<BaseCircuit<'a>> = solves
            .iter()
            .map(|observers| {
                let circuit = &base.nets()[observers[0]].circuit;
                BaseCircuit {
                    circuit,
                    pattern: pattern_key(circuit),
                }
            })
            .collect();

        let taps = nets.len();
        let mut plan = CornerPlan {
            bases,
            nets,
            draws: Vec::new(),
            members: Vec::with_capacity(order.len() * taps),
            member_draw: Vec::with_capacity(order.len() * taps),
            names: Vec::with_capacity(order.len() * taps),
            dups: Vec::new(),
            rejected: Vec::new(),
        };
        // A 0σ corner is the base circuit itself: the first scheduled
        // corner's draw serves every later one.
        let drawn_corners = if spec.sigma == 0.0 {
            order.len().min(1)
        } else {
            order.len()
        };
        let circuits = plan.bases.len();
        let (values, _) = run_indexed(drawn_corners * circuits, threads, |k, _| {
            let b = &plan.bases[k % circuits];
            corner_values(b.circuit, spec, order[k / circuits])
        });
        let mut values = values.into_iter();
        let mut member_of = vec![usize::MAX; spec.corners * taps];
        let mut drawn: Vec<Option<usize>> = vec![None; circuits];
        for &corner in order {
            for (g, slot) in drawn.iter_mut().enumerate() {
                let Some(values) = values.next() else { break };
                *slot = match values {
                    Ok(values) => {
                        plan.draws.push(Draw {
                            corner,
                            circuit: g,
                            values,
                            members: Vec::new(),
                        });
                        Some(plan.draws.len() - 1)
                    }
                    Err(e) => {
                        for (ni, net) in base.nets().iter().enumerate() {
                            if plan.nets[ni].circuit == g {
                                plan.rejected.push(CornerError {
                                    net: net.name.clone(),
                                    ..e.clone()
                                });
                            }
                        }
                        None
                    }
                };
            }
            for (ni, net) in base.nets().iter().enumerate() {
                let BaseNet {
                    circuit, source, ..
                } = plan.nets[ni];
                let Some(d) = drawn[circuit] else { continue };
                let m = plan.members.len();
                plan.members.push((corner, ni));
                plan.member_draw.push(d);
                plan.names.push(format!("{}@c{corner:04}", net.name));
                member_of[corner * taps + ni] = m;
                let first = plan.draws[d].corner;
                if first == corner && source == ni {
                    plan.draws[d].members.push(m);
                } else {
                    plan.dups.push((m, member_of[first * taps + source]));
                }
            }
        }
        plan
    }

    /// One solve job per draw: the corner's value vector over its base
    /// circuit, observed by the draw's members.
    fn jobs(&self) -> Vec<SolveJob<'_>> {
        self.draws
            .iter()
            .map(|d| {
                let b = &self.bases[d.circuit];
                SolveJob {
                    source: Source::Corner {
                        base: b.circuit,
                        values: &d.values,
                        admitted: false,
                    },
                    pattern: b.pattern,
                    observers: d
                        .members
                        .iter()
                        .map(|&m| {
                            let net = &self.nets[self.members[m].1];
                            Observer {
                                index: m,
                                name: &self.names[m],
                                output: net.output,
                                hash: net.hash,
                            }
                        })
                        .collect(),
                }
            })
            .collect()
    }

    /// Every member as a net over its corner's circuit, in member order.
    fn design(&self, base: &Design, name: String) -> Design {
        let nets = self
            .members
            .iter()
            .zip(&self.member_draw)
            .zip(&self.names)
            .map(|((&(_, ni), &d), name)| {
                let net = &base.nets()[ni];
                NetSpec {
                    name: name.clone(),
                    circuit: materialize(&net.circuit, &self.draws[d].values),
                    output: net.output,
                }
            })
            .collect();
        Design::from_nets(name, nets)
    }
}

/// Per-node delay aggregation, keyed by corner index so the outcome is
/// independent of member scheduling order.
fn aggregate(base: &Design, run: &BatchRun, members: &[(usize, usize)]) -> Vec<NodeStats> {
    let mut per_net: Vec<Vec<(usize, Option<f64>)>> = vec![Vec::new(); base.nets().len()];
    for (&(corner, ni), result) in members.iter().zip(&run.results) {
        // Only finite delays enter the distribution: an analysis error
        // or a NaN (impossible post-validation, but cheap to refuse)
        // records a failure instead of poisoning the quantiles.
        let delay = match (&result.error, result.delay_50) {
            (None, Some(d)) if d.is_finite() => Some(d),
            _ => None,
        };
        per_net[ni].push((corner, delay));
    }
    base.nets()
        .iter()
        .zip(per_net)
        .map(|(net, mut delays)| {
            delays.sort_by_key(|&(corner, _)| corner);
            let mut sorted: Vec<f64> = delays.iter().filter_map(|&(_, d)| d).collect();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let failed = delays.len() - sorted.len();
            let pick = |p: f64| -> Option<f64> {
                if sorted.is_empty() {
                    return None;
                }
                let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
                Some(sorted[rank.clamp(1, sorted.len()) - 1])
            };
            let worst = delays
                .iter()
                .filter_map(|&(corner, d)| d.map(|d| (corner, d)))
                .fold(None::<(usize, f64)>, |acc, (corner, d)| match acc {
                    Some((_, best)) if d <= best => acc,
                    _ => Some((corner, d)),
                });
            NodeStats {
                node: net.name.clone(),
                samples: sorted.len(),
                failed,
                p50: pick(50.0),
                p95: pick(95.0),
                p99: pick(99.0),
                worst_corner: worst.map(|(c, _)| c),
                worst_delay: worst.map(|(_, d)| d),
                delays,
            }
        })
        .collect()
}

/// Builds a sweep-ready [`Design`] from a PDN spec: one net per
/// observation tap, each over a clone of the same grid circuit. A sweep
/// sees that the taps are one circuit, draws each corner once for it,
/// and reads every tap off that one decomposition. Net names are
/// `pdn:<tap node>`.
pub fn pdn_design(name: impl Into<String>, spec: &PdnSpec) -> Design {
    let pdn = pdn_grid(spec);
    let nets = pdn
        .taps
        .iter()
        .map(|&tap| NetSpec {
            name: format!("pdn:{}", pdn.circuit.node_name(tap)),
            circuit: pdn.circuit.clone(),
            output: tap,
        })
        .collect();
    Design::from_nets(name, nets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_streams_are_order_independent() {
        let base = pdn_design("t", &PdnSpec::square(4));
        let spec = CornerSpec::new(4, 0.05, 11);
        let a = corner_circuit(&base.nets()[0].circuit, &spec, 3).unwrap();
        // Re-deriving corner 3 after other corners changes nothing.
        let _ = corner_circuit(&base.nets()[0].circuit, &spec, 1).unwrap();
        let b = corner_circuit(&base.nets()[0].circuit, &spec, 3).unwrap();
        assert_eq!(a.to_deck(), b.to_deck());
    }

    #[test]
    fn zero_sigma_is_the_base_bits() {
        let base = pdn_design("t", &PdnSpec::square(4));
        let spec = CornerSpec::new(2, 0.0, 99);
        let c = corner_circuit(&base.nets()[0].circuit, &spec, 1).unwrap();
        assert_eq!(c.to_deck(), base.nets()[0].circuit.to_deck());
    }

    #[test]
    fn nonphysical_draw_is_a_typed_error() {
        // σ huge: some draw drives a value negative almost surely.
        let base = pdn_design("t", &PdnSpec::square(4));
        let spec = CornerSpec::new(1, 1e6, 5);
        let err = corner_circuit(&base.nets()[0].circuit, &spec, 0).unwrap_err();
        assert!(!err.element.is_empty());
        assert!(!err.value.is_finite() || err.value <= 0.0);
    }

    #[test]
    fn sweep_groups_all_corners_into_one_pattern() {
        let engine = BatchEngine::new();
        // 15×15 mesh: 242 nodes, above the sparse threshold (192), so
        // the pattern cache and tape replay actually engage.
        let base = pdn_design("t", &PdnSpec::square(15));
        let spec = CornerSpec::new(6, 0.05, 3);
        let run = sweep(&engine, &base, &spec, &BatchOptions::default());
        assert!(run.rejected.is_empty());
        assert_eq!(run.members.len(), 6 * base.nets().len());
        assert_eq!(run.new_symbolic, 1, "one donor symbolic for the sweep");
        assert_eq!(run.new_symbolic_after_donor, 0);
        for n in &run.nodes {
            assert_eq!(n.samples, 6);
            assert_eq!(n.failed, 0);
            assert!(n.p50 <= n.p95 && n.p95 <= n.p99);
            assert!(n.worst_delay >= n.p99);
        }
    }

    #[test]
    fn permuted_schedule_is_byte_identical() {
        let base = pdn_design("t", &PdnSpec::square(5));
        let spec = CornerSpec::new(5, 0.08, 17);
        let opts = BatchOptions::default();
        let fwd = sweep(&engine_fresh(), &base, &spec, &opts);
        let rev: Vec<usize> = (0..5).rev().collect();
        let bwd = sweep_ordered(&engine_fresh(), &base, &spec, &rev, &opts);
        assert_eq!(fwd.digest(), bwd.digest());
    }

    fn engine_fresh() -> BatchEngine {
        BatchEngine::new()
    }
}
