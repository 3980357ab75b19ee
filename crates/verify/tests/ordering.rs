//! Cross-ordering check: the sparse LU's column order changes rounding,
//! never results.
//!
//! Every sparse factor in the engine is ordered by approximate minimum
//! degree. Here each circuit large enough for the sparse path is also
//! solved through a symbolic pattern factored in the *natural* column
//! order (`SparseLu::factor(.., None)`), handed to the engine as a
//! pattern seed so that `MomentEngine::with_pattern` refactors under it.
//! The 50 % delays of the two must agree to 1e-9 relative.
//!
//! The default fuzz classes never reach the sparse threshold (the seed-0
//! campaign's largest case has 22 unknowns), so the check runs on the
//! opt-in `pdn` class, the benchmark's meshes and a 200-stage chain.

use std::sync::Arc;

use awe::{AweEngine, AweOptions};
use awe_batch::{pdn_design, Design};
use awe_circuit::pdn::PdnSpec;
use awe_circuit::{Circuit, NodeId};
use awe_mna::{MnaSystem, SPARSE_THRESHOLD};
use awe_numeric::{SparseLu, SparseMatrix};
use awe_verify::{CaseParams, TopologyClass};

/// Same automatic order selection as the verify oracles.
const MAX_ORDER: usize = 6;

/// Checks one circuit; returns whether it took the sparse path.
fn check(circuit: &Circuit, output: NodeId, label: &str) -> bool {
    let sys = MnaSystem::build(circuit).expect("assembles");
    if sys.num_unknowns() < SPARSE_THRESHOLD {
        return false;
    }
    let g = SparseMatrix::from_dense(&sys.g_tilde);
    let natural = SparseLu::factor(&g, None)
        .expect("natural order factors")
        .symbolic()
        .clone();
    let order_cap = circuit.num_states().clamp(1, MAX_ORDER);
    let delay = |seed| {
        let engine = AweEngine::new(circuit).expect("assembles");
        engine.set_factor_pattern(seed);
        let (approx, _) = engine
            .approximate_auto(output, 0.0, order_cap, AweOptions::default())
            .expect("approximates");
        (
            approx.delay_50().expect("crosses 50 %"),
            engine
                .factor_pattern()
                .expect("sparse path records a pattern"),
        )
    };
    let (amd, amd_pattern) = delay(None);
    let (reference, used) = delay(Some(natural.clone()));
    assert!(
        Arc::ptr_eq(&used, &natural),
        "{label}: the natural-order pattern was not used"
    );
    assert_ne!(amd_pattern.col_order(), natural.col_order(), "{label}");
    let rel = (amd - reference).abs() / reference.abs();
    assert!(
        rel <= 1e-9,
        "{label}: AMD delay {amd:e} vs natural {reference:e} (rel {rel:e})"
    );
    true
}

#[test]
fn pdn_class_delays_agree_across_orderings() {
    let sparse = (0..200)
        .filter(|&i| {
            let case = CaseParams::generate(TopologyClass::Pdn, 0, i).build();
            check(&case.circuit, case.output, &format!("pdn case {i}"))
        })
        .count();
    assert!(
        sparse >= 20,
        "only {sparse} pdn cases reached the sparse path"
    );
}

#[test]
fn benchmark_meshes_and_chains_agree_across_orderings() {
    let meshes = [
        PdnSpec::square(20),
        PdnSpec {
            strap_pitch: 5,
            ..PdnSpec::square(40)
        },
    ];
    for spec in &meshes {
        // Every tap of a mesh observes the same circuit: check the first.
        let design = pdn_design(format!("pdn-{}", spec.nx), spec);
        let net = &design.nets()[0];
        assert!(check(&net.circuit, net.output, &net.name));
    }
    let chains = Design::synthetic_chains(3, 200, 11);
    for net in chains.nets() {
        assert!(check(&net.circuit, net.output, &net.name));
    }
}
