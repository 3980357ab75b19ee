//! One solve per distinct circuit: nets that observe the same solve
//! circuit at different nodes share its MNA build, factorization and
//! moment recursion, and each of them gets exactly the result it would
//! get solved alone — on every solve path (donor presolve, sparse lanes,
//! scalar), at any thread count, with tapes and the reduction pre-pass on
//! or off.

use proptest::prelude::*;

use awe::AweEngine;
use awe_batch::{
    pdn_design, sweep, BatchEngine, BatchOptions, CornerSpec, Design, NetResult, NetSpec,
    ReduceOptions,
};
use awe_circuit::generators::{random_rc_tree, rc_line};
use awe_circuit::pdn::PdnSpec;
use awe_circuit::{Circuit, Element, NodeId, Waveform, GROUND};

fn tree(nodes: usize, seed: u64) -> Circuit {
    random_rc_tree(
        nodes,
        (10.0, 500.0),
        (0.05e-12, 2e-12),
        seed,
        Waveform::step(0.0, 5.0),
    )
    .circuit
}

/// `base` with every R and C scaled into `[0.8, 1.2)×` by a
/// deterministic per-element draw: same topology, new values.
fn perturbed(base: &Circuit, seed: u64) -> Circuit {
    let mut out = base.clone();
    for (k, e) in base.elements().iter().enumerate() {
        let (name, v) = match e {
            Element::Resistor { name, ohms, .. } => (name, *ohms),
            Element::Capacitor { name, farads, .. } => (name, *farads),
            _ => continue,
        };
        let mut x = seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        out.set_value(name, v * (0.8 + 0.4 * u))
            .expect("known element");
    }
    out
}

/// `k` distinct non-ground nodes of `c`, spread from `start`.
fn outputs(c: &Circuit, k: usize, start: usize) -> Vec<NodeId> {
    let span = c.num_nodes() - 1;
    let step = (span / k).max(1);
    let mut out: Vec<NodeId> = (0..k).map(|j| 1 + (start + j * step) % span).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Nets observing `c` at each of `nodes`.
fn observe(nets: &mut Vec<NetSpec>, tag: &str, c: &Circuit, nodes: &[NodeId]) {
    for &output in nodes {
        nets.push(NetSpec {
            name: format!("{tag}@{output}"),
            circuit: c.clone(),
            output,
        });
    }
}

/// Seven distinct solve circuits: a dense RC-tree group of three (donor
/// presolve plus scalar solves), a sparse 200-stage chain group of three
/// (donor plus lane replay), and a lone tree (scalar path). The second
/// tree and the last two chains are observed at `k` nodes each, the lone
/// tree at `k` nodes too, and one extra net observes the circuit picked
/// by `bad_on` at ground or past its last node.
fn design(k: usize, seed: u64, start: usize, bad_on: usize, ground: bool) -> Design {
    let t0 = tree(8 + (seed % 9) as usize, seed);
    let t1 = perturbed(&t0, seed ^ 1);
    let t2 = perturbed(&t0, seed ^ 2);
    let chain = |r: f64, c: f64| rc_line(200, r, c, Waveform::step(0.0, 5.0));
    let c0 = chain(100.0, 1e-12);
    let (c1, c2) = (chain(130.0, 0.9e-12), chain(85.0, 1.3e-12));
    let lone = tree(13 + (seed % 5) as usize, seed.wrapping_add(77));

    let mut nets = Vec::new();
    observe(&mut nets, "t0", &t0, &[t0.num_nodes() - 1]);
    observe(&mut nets, "c0", &c0.circuit, &[c0.output]);
    observe(&mut nets, "t1", &t1, &outputs(&t1, k, start));
    observe(
        &mut nets,
        "c1",
        &c1.circuit,
        &outputs(&c1.circuit, k, start),
    );
    observe(&mut nets, "lone", &lone, &outputs(&lone, k, start + 1));
    observe(&mut nets, "t2", &t2, &[t2.num_nodes() - 1]);
    observe(
        &mut nets,
        "c2",
        &c2.circuit,
        &outputs(&c2.circuit, k, start + 2),
    );
    let target = [&t1, &c2.circuit, &lone][bad_on % 3];
    nets.push(NetSpec {
        name: "bad".into(),
        circuit: target.clone(),
        output: if ground {
            GROUND
        } else {
            target.num_nodes() + 3
        },
    });
    Design::from_nets("shared", nets)
}

fn opts(threads: usize, use_tape: bool, reduce: bool) -> BatchOptions {
    BatchOptions {
        threads,
        use_tape,
        reduce: ReduceOptions {
            enabled: reduce,
            ..ReduceOptions::default()
        },
        ..BatchOptions::default()
    }
}

/// The net solved alone, on a fresh engine.
fn alone(net: &NetSpec, opts: &BatchOptions) -> NetResult {
    let solo = Design::from_nets("alone", vec![net.clone()]);
    let run = BatchEngine::new().run(&solo, opts);
    assert_eq!((run.solves, run.shared), (1, 0));
    run.results.into_iter().next().expect("one result")
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

fn assert_same(got: &NetResult, want: &NetResult) -> Result<(), TestCaseError> {
    let name = &want.name;
    prop_assert_eq!(&got.name, name);
    prop_assert_eq!(got.hash, want.hash, "{}", name);
    prop_assert_eq!(
        (got.nodes, got.elements, got.requested_order),
        (want.nodes, want.elements, want.requested_order),
        "{}",
        name
    );
    prop_assert_eq!(
        (got.order, got.escalations, got.stable, got.rescued),
        (want.order, want.escalations, want.stable, want.rescued),
        "{}",
        name
    );
    prop_assert_eq!(
        bits(got.error_estimate),
        bits(want.error_estimate),
        "{}",
        name
    );
    prop_assert_eq!(bits(got.delay_50), bits(want.delay_50), "{}", name);
    prop_assert_eq!(
        got.final_value.to_bits(),
        want.final_value.to_bits(),
        "{}",
        name
    );
    let poles = |r: &NetResult| -> Vec<(u64, u64)> {
        r.poles
            .iter()
            .map(|&(re, im)| (re.to_bits(), im.to_bits()))
            .collect()
    };
    prop_assert_eq!(poles(got), poles(want), "{}", name);
    prop_assert_eq!(got.cache_hit, want.cache_hit, "{}", name);
    prop_assert_eq!(&got.error, &want.error, "{}", name);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every net of a design whose circuits are observed 1..=6 times is
    /// bit-identical to that net solved alone, on every path and option.
    #[test]
    fn shared_observers_match_solving_alone(
        k in 1usize..=6,
        seed in 0u64..1000,
        start in 0usize..50,
        bad_on in 0usize..3,
        ground in proptest::bool::ANY,
    ) {
        let design = design(k, seed, start, bad_on, ground);
        for reduce in [false, true] {
            let want: Vec<NetResult> = design
                .nets()
                .iter()
                .map(|n| alone(n, &opts(1, true, reduce)))
                .collect();
            prop_assert!(want.last().unwrap().error.is_some(), "bad output must fail");
            for use_tape in [true, false] {
                for threads in [1, 2, 4] {
                    let run = BatchEngine::new().run(&design, &opts(threads, use_tape, reduce));
                    prop_assert_eq!(run.solves + run.shared, design.len());
                    if !reduce {
                        prop_assert_eq!(run.solves, 7, "one solve per distinct circuit");
                    }
                    for (got, want) in run.results.iter().zip(&want) {
                        assert_same(got, want)?;
                    }
                }
            }
        }
    }
}

/// Automatic order selection runs one decomposition per order for all
/// observers still searching; each observer still stops where it would
/// alone.
#[test]
fn auto_order_observers_match_solving_alone() {
    let design = design(6, 41, 3, 0, false);
    let auto = BatchOptions {
        auto_target: Some(0.01),
        ..opts(2, true, false)
    };
    let run = BatchEngine::new().run(&design, &auto);
    assert_eq!(run.solves, 7);
    for (got, net) in run.results.iter().zip(design.nets()) {
        assert_same(got, &alone(net, &auto)).unwrap();
        // The single-net engine's own policy agrees bit for bit.
        let engine = AweEngine::new(&net.circuit).expect("assembles");
        match engine.approximate_auto(net.output, 0.01, auto.max_order, auto.awe) {
            Ok((approx, trail)) => {
                assert_eq!(got.order, approx.order, "{}", net.name);
                assert_eq!(got.escalations + 1, trail.len(), "{}", net.name);
                assert_eq!(bits(got.delay_50), bits(approx.delay_50()), "{}", net.name);
            }
            Err(e) => assert_eq!(got.error, Some(e.to_string()), "{}", net.name),
        }
    }
}

/// A cache hit on one observer leaves the others to solve: the circuit
/// solves once for the remaining observers, whose results do not move.
#[test]
fn cached_observer_leaves_the_rest_to_one_solve() {
    let design = design(4, 9, 0, 1, true);
    let engine = BatchEngine::new();
    let first = engine.run(&design, &opts(1, true, false));
    let subset = Design::from_nets("sub", design.nets()[2..4].to_vec());
    let again = engine.run(&subset, &opts(1, true, false));
    assert_eq!((again.solves, again.shared, again.cache_hits), (0, 0, 2));
    assert!(engine.invalidate_result(design.nets()[3].hash()));
    let rerun = engine.run(&design, &opts(1, true, false));
    assert_eq!(
        (rerun.solves, rerun.shared, rerun.cache_hits),
        (1, 0, design.len() - 1)
    );
    for (got, want) in rerun.results.iter().zip(&first.results) {
        assert_eq!(bits(got.delay_50), bits(want.delay_50), "{}", want.name);
        assert_eq!(got.poles, want.poles, "{}", want.name);
    }
}

/// A 16-corner sweep of a 4-tap mesh solves each corner once and reads
/// the other three taps off its decomposition; the digest equals the one
/// assembled from four 1-tap sweeps.
#[test]
fn four_tap_sweep_solves_once_per_corner() {
    // 15×15: 242 nodes, past the sparse threshold, so the donor and the
    // lane replay both run.
    let base = pdn_design("p", &PdnSpec::square(15));
    assert_eq!(base.len(), 4);
    let spec = CornerSpec::new(16, 0.05, 7);
    let opts = BatchOptions::default();
    let four = sweep(&BatchEngine::new(), &base, &spec, &opts);
    assert_eq!(four.run.solves, 16);
    assert_eq!(four.run.shared, 48);
    assert_eq!(four.new_symbolic, 1);
    assert_eq!(four.new_symbolic_after_donor, 0);

    let mut assembled = four.clone();
    assembled.nodes = base
        .nets()
        .iter()
        .map(|net| {
            let one = Design::from_nets("p", vec![net.clone()]);
            let s = sweep(&BatchEngine::new(), &one, &spec, &opts);
            assert_eq!((s.run.solves, s.run.shared), (16, 0));
            s.nodes.into_iter().next().expect("one tap")
        })
        .collect();
    assert_eq!(assembled.digest(), four.digest());
}
