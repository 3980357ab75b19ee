//! Corner-sweep invariants: a 0σ sweep is the baseline bit-for-bit, and
//! sweep outcomes are byte-identical across thread counts and corner
//! scheduling orders — determinism by construction, not by accident of
//! scheduling.

use std::time::Duration;

use proptest::prelude::*;

use awe_batch::{
    corner_circuit, pdn_design, sweep, sweep_json_report, sweep_ordered, BatchEngine, BatchOptions,
    CornerSpec, Design, NetResult, NetSpec, SweepRun,
};
use awe_circuit::pdn::PdnSpec;
use awe_circuit::Circuit;
use awe_mna::{MnaSystem, MomentEngine};

fn opts(threads: usize) -> BatchOptions {
    BatchOptions {
        threads,
        ..BatchOptions::default()
    }
}

/// Runs the base design once per tap and returns the per-net 50% delays
/// in design order.
fn baseline_delays(base: &Design) -> Vec<Option<f64>> {
    let run = BatchEngine::new().run(base, &opts(1));
    run.results.iter().map(|r| r.delay_50).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A 0σ sweep reproduces the baseline delay **bit-for-bit** in every
    /// corner: corner circuits are untouched clones, so each corner's
    /// member dedups onto the baseline's structural hash and replays the
    /// identical numeric path.
    #[test]
    fn zero_sigma_sweep_is_bit_identical_to_baseline(
        n in 5usize..9,
        corners in 1usize..5,
        seed in 0u64..1000,
    ) {
        let base = pdn_design("p", &PdnSpec::square(n));
        let baseline = baseline_delays(&base);
        let spec = CornerSpec::new(corners, 0.0, seed);
        let run = sweep(&BatchEngine::new(), &base, &spec, &opts(1));
        prop_assert!(run.rejected.is_empty());
        for (node, want) in run.nodes.iter().zip(&baseline) {
            prop_assert_eq!(node.delays.len(), corners);
            for &(_, got) in &node.delays {
                // Bit-level equality, not tolerance: same circuit bits,
                // same arithmetic, same answer.
                prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
            }
        }
    }

    /// The digest (node names, per-corner delay bits, rejections) agrees
    /// for any permutation of the corner scheduling order.
    #[test]
    fn corner_permutations_are_byte_identical(
        corners in 2usize..6,
        sigma in 0.01f64..0.15,
        seed in 0u64..1000,
        shuffle_seed in 0u64..1000,
    ) {
        let base = pdn_design("p", &PdnSpec::square(5));
        let spec = CornerSpec::new(corners, sigma, seed);
        let fwd = sweep(&BatchEngine::new(), &base, &spec, &opts(1));

        // Fisher–Yates off a splitmix-style stream; any permutation works.
        let mut order: Vec<usize> = (0..corners).collect();
        let mut state = shuffle_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for i in (1..order.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let perm = sweep_ordered(&BatchEngine::new(), &base, &spec, &order, &opts(1));
        prop_assert_eq!(fwd.digest(), perm.digest());
        prop_assert_eq!(
            sweep_json_report(&fwd, false),
            sweep_json_report(&perm, false)
        );
    }
}

/// Thread count must not leak into any reported byte: digest and the
/// timing-free JSON report agree across 1, 2, and 4 workers.
#[test]
fn sweep_is_byte_identical_across_thread_counts() {
    // 15×15: past the sparse threshold so the pattern-cache/tape path
    // (the one with actual cross-thread scheduling) is exercised.
    let base = pdn_design("p", &PdnSpec::square(15));
    let spec = CornerSpec::new(6, 0.07, 23);
    let runs: Vec<_> = [1, 2, 4]
        .iter()
        .map(|&t| sweep(&BatchEngine::new(), &base, &spec, &opts(t)))
        .collect();
    for r in &runs[1..] {
        assert_eq!(runs[0].digest(), r.digest());
        assert_eq!(
            sweep_json_report(&runs[0], false),
            sweep_json_report(r, false)
        );
    }
}

/// Boundary rejection: a σ wide enough to drive values negative yields
/// typed per-corner errors naming net and element, the corner is absent
/// from the distribution, and the quantiles stay NaN-free.
#[test]
fn nonphysical_corners_are_rejected_not_cascaded() {
    let base = pdn_design("p", &PdnSpec::square(5));
    // σ = 0.8: each element has a few-percent chance per draw of going
    // non-positive; across 25 nodes × several corners rejection is
    // essentially certain, while some corners typically survive.
    let spec = CornerSpec::new(8, 0.8, 41);
    let run = sweep(&BatchEngine::new(), &base, &spec, &opts(1));
    assert!(
        !run.rejected.is_empty(),
        "σ=0.8 should reject at least one corner draw"
    );
    for e in &run.rejected {
        assert!(e.corner < spec.corners);
        assert!(!e.net.is_empty());
        assert!(!e.element.is_empty());
        assert!(!e.value.is_finite() || e.value <= 0.0);
    }
    let rejected_pairs: std::collections::BTreeSet<(usize, &str)> = run
        .rejected
        .iter()
        .map(|e| (e.corner, e.net.as_str()))
        .collect();
    for node in &run.nodes {
        for &(corner, d) in &node.delays {
            assert!(
                !rejected_pairs.contains(&(corner, node.node.as_str())),
                "rejected corner {corner} leaked into {}",
                node.node
            );
            if let Some(d) = d {
                assert!(d.is_finite());
            }
        }
        for q in [node.p50, node.p95, node.p99, node.worst_delay]
            .into_iter()
            .flatten()
        {
            assert!(q.is_finite(), "quantiles must stay NaN-free");
        }
    }
}

/// Fill ratio `nnz(L+U) / nnz(G̃)` of the cold symbolic analysis
/// `MomentEngine::with_pattern` runs on `circuit`: the pattern every
/// donor, lane refactor and moment solve of its structure group inherits.
fn fill_ratio(circuit: &Circuit) -> f64 {
    let sys = MnaSystem::build(circuit).expect("assembles");
    let engine = MomentEngine::with_pattern(&sys, None).expect("factors");
    engine.lu_symbolic().expect("sparse path").fill_ratio()
}

#[test]
fn pdn_mesh_fill_stays_low() {
    // The 40×40, strap-pitch-5 mesh of the benchmark's corner sweep: a
    // banded order fills 22.9× here, minimum degree under 8×.
    let spec = PdnSpec {
        strap_pitch: 5,
        ..PdnSpec::square(40)
    };
    let design = pdn_design("pdn-40x40", &spec);
    let fill = fill_ratio(&design.nets()[0].circuit);
    assert!(fill <= 8.0, "40×40 PDN fill {fill}");
}

#[test]
fn chain_fill_stays_one() {
    // A 200-stage RC chain eliminated leaf-first fills nothing.
    let design = Design::synthetic_chains(1, 200, 7);
    let fill = fill_ratio(&design.nets()[0].circuit);
    assert_eq!(fill, 1.0, "200-stage chain fill");
}

/// The sweep as it ran before corners became value vectors: every member
/// built through `corner_circuit`, named, and run as a design.
fn materialized_sweep(
    base: &Design,
    spec: &CornerSpec,
    order: &[usize],
    opts: &BatchOptions,
) -> SweepRun {
    let mut members = Vec::new();
    let mut nets = Vec::new();
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
    rejected.sort_by(|a, b| (a.corner, &a.net).cmp(&(b.corner, &b.net)));
    let design = Design::from_nets(format!("{}+sweep", base.name), nets);
    let run = BatchEngine::new().run(&design, opts);
    SweepRun::from_run(base, spec, run, members, rejected, Duration::ZERO)
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Digest, timing-free report, rejection ledger, members, every result's
/// delay, poles, error and provenance, and the work counters agree.
fn assert_same_sweep(value: &SweepRun, want: &SweepRun) {
    assert_eq!(value.digest(), want.digest());
    assert_eq!(
        sweep_json_report(value, false),
        sweep_json_report(want, false)
    );
    assert_eq!(value.rejected, want.rejected);
    assert_eq!(value.members, want.members);
    assert_eq!(value.run.results.len(), want.run.results.len());
    let pole_bits = |r: &NetResult| -> Vec<(u64, u64)> {
        r.poles
            .iter()
            .map(|&(re, im)| (re.to_bits(), im.to_bits()))
            .collect()
    };
    for (got, exp) in value.run.results.iter().zip(&want.run.results) {
        assert_eq!(got.name, exp.name);
        assert_eq!(bits(got.delay_50), bits(exp.delay_50), "{}", exp.name);
        assert_eq!(pole_bits(got), pole_bits(exp), "{}", exp.name);
        assert_eq!(got.error, exp.error, "{}", exp.name);
        assert_eq!(got.cache_hit, exp.cache_hit, "{}", exp.name);
    }
    let counters = |s: &SweepRun| {
        (
            s.run.solves,
            s.run.shared,
            s.run.stamped,
            s.run.rebuilt,
            s.new_symbolic,
        )
    };
    assert_eq!(counters(value), counters(want));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A sweep through value vectors equals the materialized sweep bit
    /// for bit: digest, timing-free report, every member's delay, poles
    /// and error, the rejection ledger and the work counters — at any
    /// thread count and corner order, on dense and sparse meshes, with
    /// one tap or four, and with σ = 0.3 rejecting corners.
    #[test]
    fn value_path_equals_materialized_path(
        sparse in 0u8..2,
        taps in 0u8..2,
        sigma in 0usize..3,
        threads in 0u32..3,
        corners in 1usize..7,
        seed in 0u64..1000,
        reverse in 0u8..2,
    ) {
        let (sparse, four_taps, reverse) = (sparse == 1, taps == 1, reverse == 1);
        let sigma = [0.0, 0.05, 0.3][sigma];
        let threads = 1usize << threads;
        // 15×15 is past the sparse threshold (donor, tape, lane replay);
        // 6×6 factors dense and runs every member scalar.
        let mut base = pdn_design("p", &PdnSpec::square(if sparse { 15 } else { 6 }));
        if !four_taps {
            base = Design::from_nets("p", vec![base.nets()[1].clone()]);
        }
        let spec = CornerSpec::new(corners, sigma, seed);
        let mut order: Vec<usize> = (0..corners).collect();
        if reverse {
            order.reverse();
        }
        let value = sweep_ordered(&BatchEngine::new(), &base, &spec, &order, &opts(threads));
        let want = materialized_sweep(&base, &spec, &order, &opts(1));

        assert_same_sweep(&value, &want);
        // On the tape, no member is built as a circuit, the donor included.
        if sparse && sigma > 0.0 && value.run.solves > 1 {
            prop_assert_eq!(value.run.materialized, 0);
        }
    }
}

/// σ = 0.3 on a sparse mesh: some corners are rejected at the boundary,
/// the rest replay on the tape, and both paths agree on all of it.
#[test]
fn value_path_equals_materialized_path_with_rejections() {
    let base = pdn_design("p", &PdnSpec::square(15));
    let spec = CornerSpec::new(6, 0.3, 16);
    let order: Vec<usize> = (0..6).rev().collect();
    let value = sweep_ordered(&BatchEngine::new(), &base, &spec, &order, &opts(2));
    let want = materialized_sweep(&base, &spec, &order, &opts(1));
    let rejected: std::collections::BTreeSet<usize> =
        want.rejected.iter().map(|e| e.corner).collect();
    assert!(!rejected.is_empty() && want.run.solves >= 2, "{rejected:?}");
    assert_eq!(value.rejected.len(), rejected.len() * base.len());
    assert_same_sweep(&value, &want);
}
