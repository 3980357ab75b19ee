//! Differential test of the sparse stepper against a dense one.
//!
//! `dense_simulate` keeps the reference simulator's former linear algebra
//! as a test-only oracle: the same step-doubling LTE controller and
//! breakpoint handling, but every `G + k·C` factored densely with plain
//! partial pivoting (written out below, independent of `awe-numeric`).
//! Both runs start from the same `t = 0⁺` state, so a disagreement can
//! only come from the linear algebra.

use awe::{AweEngine, AweOptions};
use awe_circuit::papers::{fig16, fig22, fig22_floating};
use awe_circuit::{parse_deck, Circuit, NodeId, Waveform};
use awe_mna::{MnaSystem, MomentEngine};
use awe_sim::{simulate, TransientOptions};
use awe_verify::{CaseParams, TopologyClass};

/// Dense `P·A = L·U` with partial pivoting: `lu` holds `L` (unit
/// diagonal implied) below the diagonal and `U` on and above it.
struct DenseLu {
    lu: Vec<Vec<f64>>,
    perm: Vec<usize>,
}

impl DenseLu {
    fn factor(mut a: Vec<Vec<f64>>) -> DenseLu {
        let n = a.len();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let p = (k..n).fold(k, |p, i| if a[i][k].abs() > a[p][k].abs() { i } else { p });
            assert!(a[p][k] != 0.0, "singular step matrix");
            a.swap(k, p);
            perm.swap(k, p);
            let (pivot, below) = a[k..].split_first_mut().unwrap();
            for row in below {
                let m = row[k] / pivot[k];
                row[k] = m;
                for (v, u) in row[k + 1..].iter_mut().zip(&pivot[k + 1..]) {
                    *v -= m * u;
                }
            }
        }
        DenseLu { lu: a, perm }
    }

    fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut y: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 0..n {
            for j in 0..i {
                y[i] -= self.lu[i][j] * y[j];
            }
        }
        for i in (0..n).rev() {
            for j in i + 1..n {
                y[i] -= self.lu[i][j] * y[j];
            }
            y[i] /= self.lu[i][i];
        }
        y
    }
}

/// Trapezoidal run to `t_stop` over dense factors: `(times, node values)`.
fn dense_simulate(circuit: &Circuit, t_stop: f64) -> (Vec<f64>, Vec<Vec<f64>>) {
    let sys = MnaSystem::build(circuit).unwrap();
    let engine = MomentEngine::new(&sys).unwrap();
    let state = engine.initial_state().unwrap();
    let mut x = engine
        .instantaneous(&state, &sys.source_values_at(0.0))
        .unwrap();
    let n = sys.num_unknowns();
    let nodes = |x: &[f64]| -> Vec<f64> {
        (0..circuit.num_nodes())
            .map(|node| sys.unknown_of_node(node).map_or(0.0, |i| x[i]))
            .collect()
    };
    let mut factors: Vec<(f64, DenseLu)> = Vec::new();
    let mut step = |x: &[f64], t: f64, h: f64| -> Vec<f64> {
        if !factors.iter().any(|(hh, _)| *hh == h) {
            let a = (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| sys.g[(i, j)] + 2.0 / h * sys.c[(i, j)])
                        .collect()
                })
                .collect();
            factors.push((h, DenseLu::factor(a)));
        }
        let (gx, cx) = (sys.g.mul_vec(x), sys.c_times(x));
        let (bu, mut rhs) = (
            sys.b_times(&sys.source_values_at(t)),
            sys.b_times(&sys.source_values_at(t + h)),
        );
        for i in 0..n {
            rhs[i] += 2.0 / h * cx[i] + bu[i] - gx[i];
        }
        factors
            .iter()
            .find(|(hh, _)| *hh == h)
            .unwrap()
            .1
            .solve(&rhs)
    };
    let mut breakpoints: Vec<f64> = sys
        .sources
        .iter()
        .flat_map(|s| s.waveform.points().iter().map(|p| p.0))
        .filter(|&t| t > 0.0 && t < t_stop)
        .collect();
    breakpoints.sort_by(f64::total_cmp);
    breakpoints.dedup_by(|a, b| (*a - *b).abs() <= 1e-12 * t_stop);
    breakpoints.push(t_stop);
    let (mut times, mut values) = (vec![0.0], vec![nodes(&x)]);
    let (mut t, mut h, h_min, tol) = (0.0f64, t_stop / 1e4, t_stop * 1e-18, 1e-6);
    let mut bps = breakpoints.into_iter();
    let mut next_bp = bps.next().unwrap_or(t_stop);
    while t < t_stop {
        let h_eff = h.min(next_bp - t).max(h_min);
        let x_full = step(&x, t, h_eff);
        let x_half = step(&x, t, h_eff / 2.0);
        let x_two = step(&x_half, t + h_eff / 2.0, h_eff / 2.0);
        let err = (0..n).fold(0.0f64, |e, i| e.max((x_full[i] - x_two[i]).abs()));
        let rel = err / x_two.iter().fold(1e-9f64, |s, v| s.max(v.abs()));
        if rel > tol && h_eff > h_min * 2.0 {
            h = (h_eff / 2.0).max(h_min);
            assert!(h > h_min, "dense reference step underflow at {t}");
            continue;
        }
        t += h_eff;
        x = x_two;
        times.push(t);
        values.push(nodes(&x));
        if (t - next_bp).abs() <= f64::EPSILON * t_stop {
            t = next_bp;
            next_bp = bps.next().unwrap_or(t_stop);
        }
        h = if rel < tol / 4.0 {
            (h_eff * 2.0).min(t_stop / 100.0)
        } else {
            h_eff
        };
    }
    (times, values)
}

/// First crossing of the 50 % level between the first and last samples.
fn delay_50(times: &[f64], values: &[Vec<f64>], node: NodeId) -> Option<f64> {
    let (v0, vf) = (values[0][node], values.last()?[node]);
    if vf == v0 {
        return None;
    }
    let level = v0 + 0.5 * (vf - v0);
    (1..times.len()).find_map(|k| {
        let (vp, v) = (values[k - 1][node], values[k][node]);
        if vp - level == 0.0 {
            Some(times[k - 1])
        } else if (vp - level).signum() != (v - level).signum() {
            Some(times[k - 1] + (level - vp) / (v - vp) * (times[k] - times[k - 1]))
        } else {
            None
        }
    })
}

/// Runs both steppers to `t_stop` and checks every node: max |Δv| at
/// most 1e-5 of the circuit's swing (the largest node swing), and the
/// 50 % delays of every node that makes a real transition (a net change
/// of at least 1e-3 of that swing) within 1e-6 relative.
fn assert_agree(name: &str, circuit: &Circuit, t_stop: f64) {
    let sparse = simulate(circuit, TransientOptions::new(t_stop))
        .unwrap_or_else(|e| panic!("{name}: sparse run failed: {e}"));
    let (times, values) = dense_simulate(circuit, t_stop);
    let column = |node: NodeId| values.iter().map(move |row| row[node]);
    let swing = (1..circuit.num_nodes())
        .map(|node| {
            let lo = column(node).fold(f64::INFINITY, f64::min);
            column(node).fold(f64::NEG_INFINITY, f64::max) - lo
        })
        .fold(0.0f64, f64::max);
    assert!(swing > 0.0, "{name}: no response");
    for node in 1..circuit.num_nodes() {
        let label = circuit.node_name(node);
        let worst = times
            .iter()
            .zip(column(node))
            .map(|(&t, v)| (sparse.value_at(node, t) - v).abs())
            .fold(0.0f64, f64::max);
        assert!(
            worst <= 1e-5 * swing,
            "{name}: node {label} max |dv| {worst:e} exceeds 1e-5 of swing {swing:e}"
        );
        let change = values.last().unwrap()[node] - values[0][node];
        if change.abs() < 1e-3 * swing {
            continue;
        }
        let (ds, dd) = (sparse.delay_50(node), delay_50(&times, &values, node));
        let (ds, dd) = (ds.unwrap(), dd.unwrap());
        assert!(
            ((ds - dd) / dd).abs() <= 1e-6,
            "{name}: node {label} delay {ds:e} (sparse) vs {dd:e} (dense)"
        );
    }
}

/// The AWE model's comparison horizon, as the verify oracles pick it,
/// cut to 100 cycles of its fastest ring: a high-Q ladder would
/// otherwise take millions of steps (and the transient oracle already
/// treats the reference as drifting beyond that).
fn horizon(circuit: &Circuit, output: NodeId) -> f64 {
    let order = circuit.num_states().clamp(1, 6);
    let (approx, _) = AweEngine::new(circuit)
        .and_then(|e| e.approximate_auto(output, 0.0, order, AweOptions::default()))
        .expect("AWE model for the horizon");
    let ring = approx
        .poles()
        .iter()
        .map(|p| p.im.abs())
        .fold(0.0, f64::max);
    approx.horizon().min(100.0 * std::f64::consts::TAU / ring)
}

#[test]
fn sparse_stepper_matches_dense_on_every_fuzzer_class() {
    let pdn = [TopologyClass::Pdn; 2].into_iter().zip(0..);
    let default_cycle = TopologyClass::ALL
        .into_iter()
        .flat_map(|c| [c; 8].into_iter().zip(0..));
    for (class, index) in default_cycle.chain(pdn) {
        let case = CaseParams::generate(class, 0, index).build();
        let t_stop = horizon(&case.circuit, case.output);
        assert_agree(&format!("{class} case {index}"), &case.circuit, t_stop);
    }
}

#[test]
fn sparse_stepper_matches_dense_on_ic_and_floating_decks() {
    let step = Waveform::rising_step(0.0, 5.0, 1e-9);
    for (name, p) in [
        ("fig16 with V_C6(0) = 5 V", fig16(step.clone(), Some(5.0))),
        ("fig22 with V_C6(0) = 5 V", fig22(step.clone(), Some(5.0))),
        ("fig22 floating victim", fig22_floating(step.clone(), None)),
    ] {
        assert_agree(name, &p.circuit, 8e-9);
    }
    let island = parse_deck(
        "V1 n1 0 PWL(0 0 0 1)\nC1 n1 n2 1p\nC2 n2 0 3p\nR1 n1 n3 1k\nC3 n3 0 1p IC=2\n.end\n",
    )
    .unwrap();
    assert_agree("floating island with IC", &island, 10e-9);
    let corpus = [
        include_str!("../../../tests/corpus/rc-mesh-residue-breakdown.sp"),
        include_str!("../../../tests/corpus/rc-tree-unstable-q5.sp"),
        include_str!("../../../tests/corpus/rlc-ladder-high-q-ring.sp"),
    ];
    for deck in corpus {
        let circuit = parse_deck(deck).unwrap();
        let output = deck
            .lines()
            .find_map(|l| l.strip_prefix("* output "))
            .and_then(|name| circuit.find_node(name.trim()))
            .unwrap();
        assert_agree(
            deck.lines().next().unwrap(),
            &circuit,
            horizon(&circuit, output),
        );
    }
}
