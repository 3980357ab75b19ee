//! Monte-Carlo corner sweeps: one base design, many value-only process
//! corners, replayed through the structure-group tape machinery.
//!
//! A *corner* is the base design with every R/C value perturbed by a
//! relative Gaussian draw (`value · (1 + σ·z)`). Corners never change
//! topology, element names, or observation nodes, so every corner of a
//! net shares the base net's [`pattern_key`](crate::design::pattern_key):
//! the batch engine puts the whole sweep into **one structure group**,
//! pays one donor symbolic factorization, and replays every other corner
//! through the group's tape (stamp program, lane refactor) with zero new
//! symbolic work.
//!
//! Determinism is by construction, not by scheduling discipline: corner
//! `k`'s perturbation stream is seeded by a splitmix64 mix of
//! `seed ⊕ k` alone, so the circuit of corner `k` is a pure function of
//! `(base, spec, k)` — byte-identical at any thread count and any corner
//! order. The aggregation below keys every sample by corner index, so
//! quantiles and worst-corner attribution are permutation-invariant too.
//!
//! Perturbed values are validated *at the sweep boundary*: a draw that
//! drives R or C non-positive (or non-finite) yields a typed
//! [`CornerError`] naming the corner and element, and the corner is
//! excluded from the batch design — it can neither demote the tape to a
//! stamp-program admission fallback nor leak NaN into the quantile
//! aggregation.

use std::time::Duration;

use awe_circuit::pdn::{pdn_grid, PdnSpec};
use awe_circuit::{Circuit, Element};

use crate::design::{Design, NetSpec};
use crate::engine::{BatchEngine, BatchOptions, BatchRun};

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

/// Builds corner `k` of `base`: every R/C value scaled by `1 + σ·z` with
/// per-element standard-normal draws from the corner's splitmix stream.
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
    let mut out = base.clone();
    if spec.sigma == 0.0 {
        // Exactly the base bits: don't even touch the values, so a 0σ
        // sweep dedups against the baseline's structural hash.
        return Ok(out);
    }
    let mut state = spec.seed ^ corner as u64;
    for (idx, el) in base.elements().iter().enumerate() {
        let (name, value) = match el {
            Element::Resistor { name, ohms, .. } => (name, *ohms),
            Element::Capacitor { name, farads, .. } => (name, *farads),
            _ => continue,
        };
        let perturbed = value * (1.0 + spec.sigma * normal(&mut state));
        if !perturbed.is_finite() || perturbed <= 0.0 {
            return Err(CornerError {
                corner,
                net: String::new(),
                element: name.clone(),
                value: perturbed,
            });
        }
        out.set_value_at(idx, perturbed)
            .expect("validated value on an existing element");
    }
    Ok(out)
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
    let mut members = Vec::with_capacity(spec.corners * base.nets().len());
    let mut nets = Vec::with_capacity(spec.corners * base.nets().len());
    let mut rejected = Vec::new();
    for &corner in order {
        for (ni, net) in base.nets().iter().enumerate() {
            match corner_circuit(&net.circuit, spec, corner) {
                Ok(circuit) => {
                    members.push((corner, ni));
                    nets.push(NetSpec {
                        name: format!("{}@c{corner:04}", net.name),
                        circuit,
                        output: net.output,
                    });
                }
                Err(mut e) => {
                    e.net.clone_from(&net.name);
                    rejected.push(e);
                }
            }
        }
    }
    let generate_wall = gen_start.elapsed();
    CORNERS.add(spec.corners as u64);
    REJECTED.add(rejected.len() as u64);
    MEMBERS.add(nets.len() as u64);
    // Rejections sort by (corner, net index); generation order above is
    // scheduling order, which must not leak into the report.
    rejected.sort_by(|a, b| (a.corner, &a.net).cmp(&(b.corner, &b.net)));

    let design = Design::from_nets(format!("{}+sweep", base.name), nets);
    let run = engine.run(&design, opts);

    let agg_span = awe_obs::span("sweep.aggregate");
    let nodes = aggregate(base, &run, &members);
    drop(agg_span);
    sweep_span.note(spec.corners as f64, members.len() as f64);

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
/// observation tap, each over a clone of the same grid circuit. A
/// corner perturbs every tap's clone with the same stream, so the taps
/// of a corner are bit-identical circuits: the batch engine solves each
/// corner once and reads every tap off that one decomposition. Net
/// names are `pdn:<tap node>`.
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
