//! Sweep-vs-simulator oracle: the worst-delay corner a sweep reports is
//! re-derived from `(base, spec, corner)` alone and checked against the
//! trapezoidal reference simulator — the sweep's headline number is a
//! real circuit answer, not an artifact of the tape replay path.

use awesim::batch::{corner_circuit, pdn_design, sweep, BatchEngine, BatchOptions, CornerSpec};
use awesim::circuit::pdn::PdnSpec;
use awesim::sim::{simulate, TransientOptions};

/// Sweeps `pdn` over `spec`'s corners and checks every tap's worst
/// corner against the trapezoidal simulator to 5 %.
fn check_worst_corners(pdn: &PdnSpec, spec: &CornerSpec) {
    let base = pdn_design("oracle", pdn);
    let run = sweep(
        &BatchEngine::new(),
        &base,
        spec,
        &BatchOptions {
            threads: 1,
            ..BatchOptions::default()
        },
    );
    assert!(run.rejected.is_empty(), "every corner should be accepted");

    for (node, net) in run.nodes.iter().zip(base.nets()) {
        let corner = node.worst_corner.expect("worst corner attributed");
        let worst = node.worst_delay.expect("worst delay recorded");

        // Corner purity: rebuild the exact corner circuit from the spec
        // and ask the reference simulator for the same 50% delay.
        let circuit = corner_circuit(&net.circuit, spec, corner).expect("accepted corner");
        // Horizon: several× the worst AWE delay bounds the settling time
        // of the dominant pole comfortably.
        let sim = simulate(&circuit, TransientOptions::new(12.0 * worst)).expect("sim");
        let d_sim = sim.delay_50(net.output).expect("rising response");

        assert!(
            ((worst - d_sim) / d_sim).abs() < 0.05,
            "{}: sweep worst-corner delay {worst:e} vs trapezoidal {d_sim:e}",
            node.node
        );
    }
}

#[test]
fn worst_corner_delay_matches_trapezoidal_sim() {
    // The benchmark's oracle mesh (20×20, above the sparse threshold):
    // the sparse reference simulator checks the sweep at the size the
    // sweep runs its sparse path. Enough corners for the worst one to be
    // a genuine extreme draw.
    check_worst_corners(&PdnSpec::square(20), &CornerSpec::new(12, 0.08, 2026));
}

/// The same check at 100×100 (10,401 nodes with its straps), the size
/// the AWE results are reported at, on one tap. The reference run takes
/// a few seconds in release, so the test is opt-in:
/// `cargo test --release --test sweep_oracle -- --ignored`.
#[test]
#[ignore = "several seconds in release; run with --release -- --ignored"]
fn worst_corner_delay_matches_trapezoidal_sim_at_100x100() {
    let pdn = PdnSpec {
        strap_pitch: 5,
        taps: 1,
        ..PdnSpec::square(100)
    };
    check_worst_corners(&pdn, &CornerSpec::new(4, 0.05, 1));
}
