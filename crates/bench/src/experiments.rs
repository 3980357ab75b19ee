//! One function per table/figure of the paper's evaluation. Each returns
//! a formatted report with the regenerated rows/series and the paper's
//! reference numbers alongside, so EXPERIMENTS.md can quote them directly.

use std::fmt::Write as _;
use std::time::Instant;

use awe::elmore::elmore_delays;
use awe::twopole::two_pole_approximation;
use awe::{AweEngine, AweOptions};
use awe_circuit::generators::random_rc_tree;
use awe_circuit::papers::{fig16, fig22, fig22_victim, fig25, fig4, fig9, VDD};
use awe_circuit::Waveform;
use awe_mna::{MnaSystem, MomentEngine};
use awe_sim::{exact_poles, relative_l2_vs_sim, simulate, TransientOptions};
use awe_treelink::TreeAnalysis;

use crate::format::{percent, pole, seconds, waveform_table};
use crate::plot::{render, Series};

fn step5() -> Waveform {
    Waveform::step(0.0, VDD)
}

fn strict(order_bump: bool) -> AweOptions {
    AweOptions {
        max_escalation: 0,
        allow_order_bump: order_bump,
        ..AweOptions::default()
    }
}

/// **Fig. 7** — first-order AWE vs the reference simulation for the
/// Fig. 4 RC tree step response.
pub fn fig07() -> String {
    let p = fig4(step5());
    let engine = AweEngine::new(&p.circuit).expect("fig4 builds");
    let awe1 = engine.approximate(p.output, 1).expect("order 1");
    let sim = simulate(&p.circuit, TransientOptions::new(8e-3)).expect("sim");

    let times: Vec<f64> = (0..=12).map(|i| i as f64 * 3.5e-4).collect();
    let awe_v: Vec<f64> = times.iter().map(|&t| awe1.eval(t)).collect();
    let sim_v: Vec<f64> = times.iter().map(|&t| sim.value_at(p.output, t)).collect();

    let err = relative_l2_vs_sim(&sim, p.output, |t| awe1.eval(t)).unwrap_or(f64::NAN);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 7 — first-order AWE step response, Fig. 4 RC tree"
    );
    let _ = writeln!(out, "paper: visible error at first order (error term 36 %)");
    let _ = writeln!(out, "measured relative L2 error vs sim: {}", percent(err));
    let _ = writeln!(
        out,
        "pole: {} (reciprocal Elmore delay -1/T_D = {:.4e})",
        pole(awe1.poles()[0]),
        -1.0 / 7e-4
    );
    out.push_str(&waveform_table(
        &["t", "AWE-1 [V]", "sim [V]"],
        &times,
        &[awe_v, sim_v],
    ));
    out.push_str(&render(
        &[
            Series::sampled("awe-1", 0.0, 4.2e-3, 72, |t| awe1.eval(t)),
            Series::sampled("sim", 0.0, 4.2e-3, 72, |t| sim.value_at(p.output, t)),
        ],
        72,
        16,
    ));
    out
}

/// **Fig. 12** — first-order AWE with the grounded resistor of Fig. 9.
pub fn fig12() -> String {
    let p = fig9(step5());
    let engine = AweEngine::new(&p.circuit).expect("fig9 builds");
    let awe1 = engine.approximate(p.output, 1).expect("order 1");
    let sim = simulate(&p.circuit, TransientOptions::new(6e-3)).expect("sim");

    let times: Vec<f64> = (0..=12).map(|i| i as f64 * 2.5e-4).collect();
    let awe_v: Vec<f64> = times.iter().map(|&t| awe1.eval(t)).collect();
    let sim_v: Vec<f64> = times.iter().map(|&t| sim.value_at(p.output, t)).collect();

    let mut out = String::new();
    let _ = writeln!(out, "Fig. 12 — grounded resistor (Fig. 9, R5 = 4 Ω at n1)");
    let _ = writeln!(
        out,
        "steady state scales to V·R5/(R1+R5) = 4 V (paper eq. (3) regime)"
    );
    let _ = writeln!(
        out,
        "AWE final value: {:.4} V | sim final: {:.4} V | 50% delay: AWE {} vs sim {}",
        awe1.final_value(),
        sim.value_at(p.output, 6e-3),
        seconds(awe1.delay_50().unwrap_or(f64::NAN)),
        seconds(sim.delay_50(p.output).unwrap_or(f64::NAN)),
    );
    out.push_str(&waveform_table(
        &["t", "AWE-1 [V]", "sim [V]"],
        &times,
        &[awe_v, sim_v],
    ));
    out
}

/// **Fig. 14** — first-order ramp response (1 ms rise) by two-ramp
/// superposition.
pub fn fig14() -> String {
    let p = fig4(Waveform::rising_step(0.0, VDD, 1e-3));
    let engine = AweEngine::new(&p.circuit).expect("fig4 builds");
    let awe1 = engine.approximate(p.output, 1).expect("order 1");
    let sim = simulate(&p.circuit, TransientOptions::new(6e-3)).expect("sim");

    let times: Vec<f64> = (0..=15).map(|i| i as f64 * 2.5e-4).collect();
    let input: Vec<f64> = times
        .iter()
        .map(|&t| Waveform::rising_step(0.0, VDD, 1e-3).eval(t))
        .collect();
    let awe_v: Vec<f64> = times.iter().map(|&t| awe1.eval(t)).collect();
    let sim_v: Vec<f64> = times.iter().map(|&t| sim.value_at(p.output, t)).collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 14 — ramp response (5 V / 1 ms rise), Fig. 4 tree"
    );
    let _ = writeln!(
        out,
        "paper: good delay prediction; largest error near t = 0 (initial slope \
         glitch unless m_-2 is matched)"
    );
    let _ = writeln!(
        out,
        "initial slope of AWE-1 at t=0: {:+.3e} V/s (a small negative start is \
         the documented artifact)",
        (awe1.eval(1e-6) - awe1.eval(0.0)) / 1e-6
    );
    // §4.3's remedy: trade the highest moment condition for m_-2.
    let matched = engine
        .approximate_with(
            p.output,
            1,
            AweOptions {
                match_initial_slope: true,
                error_estimate: false,
                ..AweOptions::default()
            },
        )
        .expect("slope-matched order 1");
    let _ = writeln!(
        out,
        "with m_-2 matching (this implementation's §4.3 option): initial slope \
         {:+.3e} V/s — glitch removed",
        (matched.eval(1e-6) - matched.eval(0.0)) / 1e-6
    );
    let _ = writeln!(
        out,
        "50% delay: AWE {} vs sim {}",
        seconds(awe1.delay_50().unwrap_or(f64::NAN)),
        seconds(sim.delay_50(p.output).unwrap_or(f64::NAN)),
    );
    out.push_str(&waveform_table(
        &["t", "input [V]", "AWE-1 [V]", "sim [V]"],
        &times,
        &[input, awe_v, sim_v],
    ));
    out
}

/// **Fig. 15** — second-order step response of the Fig. 4 tree.
pub fn fig15() -> String {
    let p = fig4(step5());
    let engine = AweEngine::new(&p.circuit).expect("fig4 builds");
    let sim = simulate(&p.circuit, TransientOptions::new(8e-3)).expect("sim");

    let mut out = String::new();
    let _ = writeln!(out, "Fig. 15 — second-order step response, Fig. 4 tree");
    let _ = writeln!(out, "paper: error term 36 % (q=1) -> 1.6 % (q=2)");
    for q in 1..=2 {
        let a = engine.approximate(p.output, q).expect("approximation");
        let measured = relative_l2_vs_sim(&sim, p.output, |t| a.eval(t)).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "q={q}: internal error estimate {} | measured vs sim {}",
            a.error_estimate.map_or("n/a".into(), percent),
            percent(measured),
        );
    }
    let a2 = engine.approximate(p.output, 2).expect("order 2");
    let times: Vec<f64> = (0..=12).map(|i| i as f64 * 3.5e-4).collect();
    let awe_v: Vec<f64> = times.iter().map(|&t| a2.eval(t)).collect();
    let sim_v: Vec<f64> = times.iter().map(|&t| sim.value_at(p.output, t)).collect();
    out.push_str(&waveform_table(
        &["t", "AWE-2 [V]", "sim [V]"],
        &times,
        &[awe_v, sim_v],
    ));
    out.push_str(
        "second order vs sim (overlapping glyphs = indistinguishable, the\n\
         paper's own criterion for Fig. 15):\n",
    );
    out.push_str(&render(
        &[
            Series::sampled("awe-2", 0.0, 4.2e-3, 72, |t| a2.eval(t)),
            Series::sampled("sim", 0.0, 4.2e-3, 72, |t| sim.value_at(p.output, t)),
        ],
        72,
        16,
    ));
    out
}

/// **Table I** — approximating vs actual poles for the stiff RC tree,
/// without and with the `V_C6(0) = 5 V` initial condition.
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table I — approximating and exact poles, Fig. 16 RC tree\n\
         (paper shape: 1st order lands near the dominant pole; as the order\n\
         rises the approximating poles \"creep up on\" the actual poles — here\n\
         order 3 matches the first pole to 5 digits and order 4 matches four\n\
         poles; with the IC the low-order poles shift with the initial state)\n"
    );

    for (label, ic, max_q) in [
        ("no initial conditions", None, 4usize),
        // The paper's Table I stops at order 2 for the IC case; higher
        // strict orders of the charge-sharing seed develop right-half-
        // plane poles (the §3.3 escalation handles them in normal use).
        ("V_C6(0) = 5 V", Some(VDD), 2),
    ] {
        let p = fig16(step5(), ic);
        let engine = AweEngine::new(&p.circuit).expect("fig16 builds");
        let _ = writeln!(out, "--- {label} ---");
        let exact = exact_poles(&p.circuit).expect("poles");
        for q in 1..=max_q {
            match engine.approximate_with(p.output, q, strict(true)) {
                Ok(a) => {
                    let ps: Vec<String> = a.poles().iter().map(|&z| pole(z)).collect();
                    let note = if a.stable { "" } else { "  [unstable]" };
                    let _ = writeln!(out, "order {q}: {}{note}", ps.join(", "));
                }
                Err(e) => {
                    let _ = writeln!(out, "order {q}: ({e})");
                }
            }
        }
        let _ = writeln!(out, "actual ({}):", exact.len());
        for z in &exact {
            let _ = writeln!(out, "  {}", pole(*z));
        }
        out.push('\n');
    }
    out
}

/// **Figs. 17–18** — first- and second-order approximations at `C7` of
/// the stiff Fig. 16 tree with a 1 ns input ramp.
pub fn fig17_18() -> String {
    let p = fig16(Waveform::rising_step(0.0, VDD, 1e-9), None);
    let engine = AweEngine::new(&p.circuit).expect("fig16 builds");
    let sim = simulate(&p.circuit, TransientOptions::new(6e-9)).expect("sim");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figs. 17-18 — stiff RC tree (Fig. 16), 1 ns ramp, voltage at C7"
    );
    let _ = writeln!(out, "paper: error 4.4 % (q=1) -> 0.15 % (q=2)");
    let mut curves = Vec::new();
    for q in 1..=2 {
        let a = engine.approximate(p.output, q).expect("approximation");
        let measured = relative_l2_vs_sim(&sim, p.output, |t| a.eval(t)).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "q={q}: internal estimate {} | measured vs sim {}",
            a.error_estimate.map_or("n/a".into(), percent),
            percent(measured),
        );
        curves.push(a);
    }
    let times: Vec<f64> = (0..=12).map(|i| i as f64 * 0.25e-9).collect();
    let a1: Vec<f64> = times.iter().map(|&t| curves[0].eval(t)).collect();
    let a2: Vec<f64> = times.iter().map(|&t| curves[1].eval(t)).collect();
    let sv: Vec<f64> = times.iter().map(|&t| sim.value_at(p.output, t)).collect();
    out.push_str(&waveform_table(
        &["t", "AWE-1 [V]", "AWE-2 [V]", "sim [V]"],
        &times,
        &[a1, a2, sv],
    ));
    out
}

/// **Fig. 19** — CPU time: first-order cost vs the *incremental* cost of
/// moving to second order (moments dominate; higher orders are cheap).
pub fn fig19() -> String {
    let p = fig16(step5(), None);
    let sys = MnaSystem::build(&p.circuit).expect("mna builds");
    let reps = 200usize;

    // First-order work: factor G, decompose with 2 moments, reduce.
    let t0 = Instant::now();
    for _ in 0..reps {
        let eng = MomentEngine::new(&sys).expect("factor");
        let dec = eng.decompose(2).expect("moments");
        std::hint::black_box(&dec);
    }
    let first_order = t0.elapsed().as_secs_f64() / reps as f64;

    // Incremental second order: two more moments by resubstitution.
    let eng = MomentEngine::new(&sys).expect("factor");
    let dec2 = eng.decompose(2).expect("moments");
    let seed = dec2.pieces[0].moments[0].clone();
    let w: Vec<f64> = sys.c_times(&seed).iter().map(|v| -v).collect();
    let t1 = Instant::now();
    for _ in 0..reps {
        let m = eng
            .homogeneous_moments(seed.clone(), &w, 4)
            .expect("higher moments");
        std::hint::black_box(&m);
    }
    let incremental = t1.elapsed().as_secs_f64() / reps as f64;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 19 — cost of first order vs incremental second order (Fig. 16)"
    );
    let _ = writeln!(
        out,
        "paper: the second-order increment is a fraction of the first-order\n\
         setup (moments dominate; each extra moment is one resubstitution)"
    );
    let _ = writeln!(
        out,
        "first-order setup + m_-1..m_0:  {}",
        seconds(first_order)
    );
    let _ = writeln!(
        out,
        "incremental m_1..m_2 (order 2): {}",
        seconds(incremental)
    );
    let _ = writeln!(
        out,
        "ratio incremental/first = {:.2}",
        incremental / first_order
    );
    out
}

/// **Figs. 20–21** — nonequilibrium initial condition: low-order failure
/// and second-order recovery.
pub fn fig20_21() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figs. 20-21 — nonequilibrium IC (V_C6(0) = 5 V), node of C6"
    );
    let _ = writeln!(
        out,
        "paper: first order cannot represent the nonmonotone response (150 %);\n\
         second order matches (0.65 %)"
    );

    // Ideal step: the C6-node homogeneous response is a pure pulse with
    // m_-1 = 0 — the strict first-order match has *no solution* (§3.3).
    let p_step = fig16(step5(), Some(VDD));
    let n6 = p_step.nodes[5];
    let engine_step = AweEngine::new(&p_step.circuit).expect("fig16 builds");
    match engine_step.approximate_with(n6, 1, strict(false)) {
        Err(e) => {
            let _ = writeln!(out, "ideal step, strict q=1: no solution ({e})");
        }
        Ok(a) => {
            let _ = writeln!(
                out,
                "ideal step, strict q=1: degenerate flat response, v(0)={:.3}",
                a.eval(0.0)
            );
        }
    }

    // 1 ns ramp input (the §5.1 drive): errors by order.
    let p = fig16(Waveform::rising_step(0.0, VDD, 1e-9), Some(VDD));
    let n6 = p.nodes[5];
    let engine = AweEngine::new(&p.circuit).expect("fig16 builds");
    let sim = simulate(&p.circuit, TransientOptions::new(8e-9)).expect("sim");
    for q in 1..=3 {
        let a = engine
            .approximate_with(n6, q, strict(true))
            .expect("approximation");
        let e = relative_l2_vs_sim(&sim, n6, |t| a.eval(t)).unwrap_or(f64::NAN);
        let _ = writeln!(out, "ramp input, q={q}: measured error {}", percent(e));
    }
    let a2 = engine.approximate_with(n6, 2, strict(true)).expect("q2");
    let times: Vec<f64> = (0..=12).map(|i| i as f64 * 0.4e-9).collect();
    let av: Vec<f64> = times.iter().map(|&t| a2.eval(t)).collect();
    let sv: Vec<f64> = times.iter().map(|&t| sim.value_at(n6, t)).collect();
    out.push_str(&waveform_table(
        &["t", "AWE-2 [V]", "sim [V]"],
        &times,
        &[av, sv],
    ));
    out.push_str("the nonmonotone charge-sharing dip, order 2 vs sim:\n");
    out.push_str(&render(
        &[
            Series::sampled("awe-2", 0.0, 5e-9, 72, |t| a2.eval(t)),
            Series::sampled("sim", 0.0, 5e-9, 72, |t| sim.value_at(n6, t)),
        ],
        72,
        16,
    ));
    out
}

/// **Figs. 23–24** — floating coupling capacitor: output slowdown and the
/// charge dumped onto the victim.
pub fn fig23_24() -> String {
    let base = fig16(step5(), None);
    let coup = fig22(step5(), None);
    let victim = fig22_victim(&coup);
    let eng_base = AweEngine::new(&base.circuit).expect("fig16 builds");
    let eng_coup = AweEngine::new(&coup.circuit).expect("fig22 builds");
    let sim = simulate(&coup.circuit, TransientOptions::new(6e-9)).expect("sim");

    let a_base = eng_base.approximate(base.output, 3).expect("base");
    let a_out = eng_coup.approximate(coup.output, 3).expect("coupled out");
    let a_victim = eng_coup.approximate(victim, 3).expect("victim");

    let mut out = String::new();
    let _ = writeln!(out, "Figs. 23-24 — floating coupling capacitor (Fig. 22)");
    let _ = writeln!(
        out,
        "paper: 4.0 V threshold delay slips 1.6 -> 1.7 ns from charge sharing;\n\
         the charge dumped onto C12 is exact because m_0 is matched"
    );
    let d0 = a_base.delay_to_threshold(4.0).unwrap_or(f64::NAN);
    let d1 = a_out.delay_to_threshold(4.0).unwrap_or(f64::NAN);
    let _ = writeln!(
        out,
        "4.0 V delay: without C11 {} | with C11 {} ({:+.1} %)",
        seconds(d0),
        seconds(d1),
        (d1 / d0 - 1.0) * 100.0
    );
    for (q, label) in [(2, "q=2"), (3, "q=3")] {
        let a = eng_coup
            .approximate_with(coup.output, q, strict(true))
            .expect("approximation");
        let e = relative_l2_vs_sim(&sim, coup.output, |t| a.eval(t)).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "coupled output, {label}: measured error {}",
            percent(e)
        );
    }
    let times: Vec<f64> = (0..=12).map(|i| i as f64 * 0.4e-9).collect();
    let av: Vec<f64> = times.iter().map(|&t| a_victim.eval(t)).collect();
    let sv: Vec<f64> = times.iter().map(|&t| sim.value_at(victim, t)).collect();
    let _ = writeln!(
        out,
        "victim (C12) dumped-charge waveform (resistively held):"
    );
    out.push_str(&waveform_table(
        &["t", "AWE-3 [V]", "sim [V]"],
        &times,
        &[av, sv],
    ));

    // The §3.1 variant: a truly floating victim holds the dumped charge
    // forever — the paper's Fig. 24 plateau.
    let fl = awe_circuit::papers::fig22_floating(step5(), None);
    let fl_victim = fig22_victim(&fl);
    let eng_fl = AweEngine::new(&fl.circuit).expect("floating fig22 builds");
    let a_fl = eng_fl.approximate(fl_victim, 3).expect("floating victim");
    let plateau = VDD * 2.0e-13 / (2.0e-13 + 5.0e-13);
    let _ = writeln!(
        out,
        "floating-victim variant (§3.1 charge conservation): plateau {:.4} V          (capacitor divider predicts {:.4} V)",
        a_fl.final_value(),
        plateau
    );
    out
}

/// **Table II** — approximating vs actual poles for the underdamped RLC
/// circuit.
pub fn table2() -> String {
    let p = fig25(step5());
    let engine = AweEngine::new(&p.circuit).expect("fig25 builds");
    let exact = exact_poles(&p.circuit).expect("poles");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table II — RLC circuit poles (Fig. 25)\n\
         paper shape: 2nd order finds the dominant complex pair; 4th order\n\
         matches the first two pairs closely\n"
    );
    for q in [2usize, 4] {
        match engine.approximate_with(p.output, q, strict(true)) {
            Ok(a) => {
                let _ = writeln!(out, "order {q}:");
                for z in a.poles() {
                    let _ = writeln!(out, "  {}", pole(z));
                }
            }
            Err(e) => {
                let _ = writeln!(out, "order {q}: ({e})");
            }
        }
    }
    let _ = writeln!(out, "actual:");
    for z in &exact {
        let _ = writeln!(out, "  {}", pole(*z));
    }
    out
}

/// **Fig. 26** — second- and fourth-order step responses of the RLC
/// circuit.
pub fn fig26() -> String {
    let p = fig25(step5());
    let engine = AweEngine::new(&p.circuit).expect("fig25 builds");
    let sim = simulate(&p.circuit, TransientOptions::new(2e-8)).expect("sim");

    let mut out = String::new();
    let _ = writeln!(out, "Fig. 26 — RLC step response, orders 1/2/4 vs sim");
    let _ = writeln!(out, "paper: errors 74 % (q=1), 22 % (q=2), < 1 % (q=4)");
    let mut a2v = None;
    let mut a4v = None;
    for q in [1usize, 2, 4] {
        let a = engine
            .approximate_with(p.output, q, strict(true))
            .expect("approximation");
        let e = relative_l2_vs_sim(&sim, p.output, |t| a.eval(t)).unwrap_or(f64::NAN);
        let _ = writeln!(out, "q={q}: measured error {}", percent(e));
        if q == 2 {
            a2v = Some(a);
        } else if q == 4 {
            a4v = Some(a);
        }
    }
    let (a2, a4) = (a2v.expect("q2"), a4v.expect("q4"));
    let times: Vec<f64> = (0..=16).map(|i| i as f64 * 0.5e-9).collect();
    let v2: Vec<f64> = times.iter().map(|&t| a2.eval(t)).collect();
    let v4: Vec<f64> = times.iter().map(|&t| a4.eval(t)).collect();
    let sv: Vec<f64> = times.iter().map(|&t| sim.value_at(p.output, t)).collect();
    out.push_str(&waveform_table(
        &["t", "AWE-2 [V]", "AWE-4 [V]", "sim [V]"],
        &times,
        &[v2, v4, sv],
    ));
    out.push_str("ringing step response, orders 2/4 vs sim:\n");
    out.push_str(&render(
        &[
            Series::sampled("2nd order", 0.0, 8e-9, 72, |t| a2.eval(t)),
            Series::sampled("4th order", 0.0, 8e-9, 72, |t| a4.eval(t)),
            Series::sampled("sim", 0.0, 8e-9, 72, |t| sim.value_at(p.output, t)),
        ],
        72,
        18,
    ));
    out
}

/// **Fig. 27** — RLC ramp response (1 ns rise): the finite slope shifts
/// the residues so one pair dominates and low orders improve.
pub fn fig27() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 27 — RLC with 1 ns input rise, order 2 vs sim");
    let _ = writeln!(
        out,
        "paper: with finite rise time one complex pair dominates; the step\n\
         response exhibits the largest error term"
    );
    let mut errs = Vec::new();
    for (label, wf) in [
        ("step", step5()),
        ("1 ns ramp", Waveform::rising_step(0.0, VDD, 1e-9)),
    ] {
        let p = fig25(wf);
        let engine = AweEngine::new(&p.circuit).expect("fig25 builds");
        let sim = simulate(&p.circuit, TransientOptions::new(2e-8)).expect("sim");
        let a = engine
            .approximate_with(p.output, 2, strict(true))
            .expect("q2");
        let e = relative_l2_vs_sim(&sim, p.output, |t| a.eval(t)).unwrap_or(f64::NAN);
        let _ = writeln!(out, "q=2, {label}: measured error {}", percent(e));
        errs.push(e);
    }
    let _ = writeln!(
        out,
        "ramp/step error ratio: {:.2} (< 1 confirms the paper's remark)",
        errs[1] / errs[0]
    );

    let p = fig25(Waveform::rising_step(0.0, VDD, 1e-9));
    let engine = AweEngine::new(&p.circuit).expect("fig25 builds");
    let sim = simulate(&p.circuit, TransientOptions::new(2e-8)).expect("sim");
    let a2 = engine
        .approximate_with(p.output, 2, strict(true))
        .expect("q2");
    let times: Vec<f64> = (0..=16).map(|i| i as f64 * 0.5e-9).collect();
    let av: Vec<f64> = times.iter().map(|&t| a2.eval(t)).collect();
    let sv: Vec<f64> = times.iter().map(|&t| sim.value_at(p.output, t)).collect();
    out.push_str(&waveform_table(
        &["t", "AWE-2 [V]", "sim [V]"],
        &times,
        &[av, sv],
    ));
    out
}

/// **Ablation** — §3.5 frequency scaling on vs off: moment-matrix
/// conditioning and solvable order on the stiff Fig. 16 tree.
pub fn ablation_scaling() -> String {
    let p = fig16(step5(), None);
    let engine = AweEngine::new(&p.circuit).expect("fig16 builds");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation — frequency scaling (§3.5) on the stiff Fig. 16 tree"
    );
    let _ = writeln!(
        out,
        "paper: without scaling the moment matrix becomes numerically\n\
         unstable before an accurate solution may be reached\n"
    );
    let _ = writeln!(
        out,
        "{:>5} {:>28} {:>28}",
        "q", "cond (scaled)", "cond (unscaled)"
    );
    for q in 1..=5usize {
        let scaled = engine.approximate_with(p.output, q, strict(true));
        let unscaled = engine.approximate_with(
            p.output,
            q,
            AweOptions {
                frequency_scaling: false,
                ..strict(true)
            },
        );
        let fmt = |r: &Result<awe::AweApproximation, awe::AweError>| match r {
            Ok(a) => format!("{:.2e}", a.condition),
            Err(e) => format!("fail ({e:.0?})"),
        };
        let _ = writeln!(out, "{q:>5} {:>28} {:>28}", fmt(&scaled), fmt(&unscaled));
    }
    out
}

/// **Ablation** — order sweep: §3.4 error estimate and measured error,
/// orders 1..6 on the stiff tree.
pub fn ablation_order_sweep() -> String {
    let p = fig16(Waveform::rising_step(0.0, VDD, 1e-9), None);
    let engine = AweEngine::new(&p.circuit).expect("fig16 builds");
    let sim = simulate(&p.circuit, TransientOptions::new(6e-9)).expect("sim");

    let mut out = String::new();
    let _ = writeln!(out, "Ablation — order sweep at C7, Fig. 16 with 1 ns ramp");
    let _ = writeln!(
        out,
        "{:>3} {:>16} {:>16} {:>8}",
        "q", "est. error", "measured", "stable"
    );
    for q in 1..=6usize {
        match engine.approximate_with(p.output, q, strict(true)) {
            Ok(a) => {
                let measured =
                    relative_l2_vs_sim(&sim, p.output, |t| a.eval(t)).unwrap_or(f64::NAN);
                let _ = writeln!(
                    out,
                    "{q:>3} {:>16} {:>16} {:>8}",
                    a.error_estimate.map_or("n/a".into(), percent),
                    percent(measured),
                    a.stable,
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{q:>3} failed: {e}");
            }
        }
    }
    out
}

/// **Scaling** — §IV's `O(n)` claim: tree-walk Elmore/moment time vs
/// circuit size, alongside the dense-MNA engine for contrast.
pub fn scaling_tree_walk() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scaling — tree walk vs sparse/dense MNA moment engines, random RC trees\n\
         (the MNA engine switches to the AMD-ordered sparse LU above 192\n\
         unknowns; `dense` forces the O(n³) path for comparison)"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>14} {:>14} {:>14} {:>12}",
        "n", "tree walk", "MNA (auto)", "dense LU", "dense/walk"
    );
    for n in [32usize, 128, 512, 2048] {
        let g = random_rc_tree(n, (10.0, 200.0), (0.05e-12, 1e-12), 42, step5());

        let t0 = Instant::now();
        let ta = TreeAnalysis::new(&g.circuit).expect("tree builds");
        let m = ta.step_moments(&[VDD], 4).expect("moments");
        std::hint::black_box(&m);
        let walk = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let sys = MnaSystem::build(&g.circuit).expect("mna builds");
        let eng = MomentEngine::new(&sys).expect("factor");
        let dec = eng.decompose(4).expect("moments");
        std::hint::black_box(&dec);
        let auto = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let lu = awe_numeric::Lu::factor(&sys.g_tilde).expect("dense factor");
        let x = lu.solve(&vec![1.0; sys.num_unknowns()]).expect("solve");
        std::hint::black_box(&x);
        let dense = t2.elapsed().as_secs_f64();

        let _ = writeln!(
            out,
            "{n:>8} {:>14} {:>14} {:>14} {:>12.1}",
            seconds(walk),
            seconds(auto),
            seconds(dense),
            dense / walk
        );
    }
    let _ = writeln!(
        out,
        "\nThe walk is linear; the sparse LU keeps the general-purpose engine\n\
         close to it (matrix assembly is now the dominant cost), while the\n\
         dense factorization grows cubically — §IV's claim, quantified."
    );
    out
}

/// Baseline comparison: Elmore, two-pole, AWE-4 delays on the Fig. 4 tree
/// against the simulator (context for the §II discussion).
pub fn baselines() -> String {
    let p = fig4(step5());
    let engine = AweEngine::new(&p.circuit).expect("fig4 builds");
    let sim = simulate(&p.circuit, TransientOptions::new(8e-3)).expect("sim");
    let d_sim = sim.delay_50(p.output).unwrap_or(f64::NAN);

    let mut out = String::new();
    let _ = writeln!(out, "Baselines — 50 % delay at n4 of the Fig. 4 tree");
    let t_d = elmore_delays(&p.circuit).expect("rc tree")[p.output];
    let _ = writeln!(out, "Elmore bound T_D:            {}", seconds(t_d));
    let pr = awe::elmore::elmore_approximation(&p.circuit, p.output).expect("pr model");
    let _ = writeln!(
        out,
        "single-pole (P-R / AWE-1):   {}",
        seconds(pr.delay_50().unwrap_or(f64::NAN))
    );
    let tp = two_pole_approximation(&p.circuit, p.output).expect("two-pole");
    let _ = writeln!(
        out,
        "two-pole (Horowitz-style):   {}",
        seconds(tp.delay_50().unwrap_or(f64::NAN))
    );
    let a4 = engine.approximate(p.output, 4).expect("order 4");
    let _ = writeln!(
        out,
        "AWE order 4:                 {}",
        seconds(a4.delay_50().unwrap_or(f64::NAN))
    );
    let _ = writeln!(out, "reference simulation:        {}", seconds(d_sim));
    out
}

/// Runs every experiment and concatenates the reports (the
/// `report_all` binary).
pub fn all() -> String {
    let sections: Vec<String> = vec![
        fig07(),
        fig12(),
        fig14(),
        fig15(),
        table1(),
        fig17_18(),
        fig19(),
        fig20_21(),
        fig23_24(),
        table2(),
        fig26(),
        fig27(),
        ablation_scaling(),
        ablation_order_sweep(),
        scaling_tree_walk(),
        baselines(),
    ];
    sections.join("\n============================================================\n\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each experiment must at least run to completion and produce a
    // non-trivial report. The numeric assertions live in the workspace
    // integration tests; these are harness smoke tests.

    #[test]
    fn fig07_report_runs() {
        let r = fig07();
        assert!(r.contains("Fig. 7"));
        assert!(r.lines().count() > 10);
    }

    #[test]
    fn fig12_report_runs() {
        assert!(fig12().contains("4 V"));
    }

    #[test]
    fn fig15_report_runs() {
        let r = fig15();
        assert!(r.contains("q=1"));
        assert!(r.contains("q=2"));
    }

    #[test]
    fn table1_report_runs() {
        let r = table1();
        assert!(r.contains("no initial conditions"));
        assert!(r.contains("V_C6(0) = 5 V"));
        assert!(r.contains("actual"));
    }

    #[test]
    fn table2_report_runs() {
        let r = table2();
        assert!(r.contains("order 2"));
        assert!(r.contains("order 4"));
        assert!(r.contains("j"), "expects complex poles: {r}");
    }

    #[test]
    fn ablations_run() {
        assert!(ablation_scaling().contains("cond"));
        assert!(ablation_order_sweep().contains("measured"));
    }

    #[test]
    fn baselines_run() {
        let r = baselines();
        assert!(r.contains("Elmore"));
        assert!(r.contains("two-pole"));
    }
}
