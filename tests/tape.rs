//! Tape-replay equivalence and accounting: the multi-lane tape VM must be
//! bit-identical to the scalar solve path on every topology class the
//! verify fuzzer generates, at every lane width and lane position — and a
//! structure group must compile exactly one tape no matter how many
//! members ride it.

use proptest::prelude::*;

use awesim::batch::{BatchEngine, BatchOptions, BatchRun, Design, NetSpec, RunMetrics};
use awesim::circuit::generators::rc_line;
use awesim::circuit::{Circuit, Element, Waveform, GROUND};
use awesim::core::AweOptions;
use awesim::verify::{CaseParams, TopologyClass};

fn opts(use_tape: bool) -> BatchOptions {
    BatchOptions {
        threads: 1,
        use_tape,
        ..BatchOptions::default()
    }
}

/// Clones `base` with every R/C/L value scaled by a deterministic factor
/// near 1 (distinct per `salt`): same topology — same structure group —
/// different structural hash.
fn jittered(base: &Circuit, salt: u64) -> Circuit {
    let mut out = base.clone();
    let edits: Vec<(String, f64)> = base
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::Resistor { name, ohms, .. } => Some((name.clone(), *ohms)),
            Element::Capacitor { name, farads, .. } => Some((name.clone(), *farads)),
            Element::Inductor { name, henries, .. } => Some((name.clone(), *henries)),
            _ => None,
        })
        .collect();
    for (i, (name, value)) in edits.iter().enumerate() {
        // SplitMix64 keyed on (salt, element index) → factor in
        // [1 + 1e-4·(salt+1), …] so distinct salts never collide.
        let mut z = salt
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(i as u64)
            .wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        let jitter = (z % 1000) as f64 / 1e5; // [0, 0.01)
        let factor = 1.0 + 1e-4 * (salt + 1) as f64 + jitter;
        out.set_value(name, value * factor).expect("jitter applies");
    }
    out
}

/// Asserts two runs agree bit-for-bit on every deterministic field.
fn assert_bit_identical(on: &BatchRun, off: &BatchRun) {
    assert_eq!(on.results.len(), off.results.len());
    for (a, b) in on.results.iter().zip(&off.results) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.hash, b.hash, "{}", a.name);
        assert_eq!(a.order, b.order, "{}", a.name);
        assert_eq!(a.escalations, b.escalations, "{}", a.name);
        assert_eq!(a.stable, b.stable, "{}", a.name);
        assert_eq!(a.rescued, b.rescued, "{}", a.name);
        assert_eq!(a.error, b.error, "{}", a.name);
        assert_eq!(
            a.error_estimate.map(f64::to_bits),
            b.error_estimate.map(f64::to_bits),
            "{}",
            a.name
        );
        assert_eq!(
            a.delay_50.map(f64::to_bits),
            b.delay_50.map(f64::to_bits),
            "{}",
            a.name
        );
        assert_eq!(
            a.final_value.to_bits(),
            b.final_value.to_bits(),
            "{}",
            a.name
        );
        let pa: Vec<(u64, u64)> = a
            .poles
            .iter()
            .map(|(r, i)| (r.to_bits(), i.to_bits()))
            .collect();
        let pb: Vec<(u64, u64)> = b
            .poles
            .iter()
            .map(|(r, i)| (r.to_bits(), i.to_bits()))
            .collect();
        assert_eq!(pa, pb, "{}", a.name);
    }
    assert_eq!(on.solves, off.solves);
    assert_eq!(on.cache_hits, off.cache_hits);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bit-identity across every fuzzer topology class, group sizes that
    /// exercise full lanes, partial lanes, and every lane position
    /// (1 member = scalar singleton, 4 = one full lane block, 5..6 =
    /// a full block plus a partial trailing block).
    #[test]
    fn tape_replay_bit_identical_to_scalar(
        index in 0u64..48,
        members in 1usize..=6,
        seed in 0u64..4,
    ) {
        let class = TopologyClass::ALL[(index % 4) as usize];
        let case = CaseParams::generate(class, seed, index).build();
        let nets: Vec<NetSpec> = (0..members)
            .map(|i| NetSpec {
                name: format!("m{i}"),
                circuit: jittered(&case.circuit, i as u64),
                output: case.output,
            })
            .collect();
        let design = Design::from_nets("prop-tape", nets);
        let on = BatchEngine::new().run(&design, &opts(true));
        let off = BatchEngine::new().run(&design, &opts(false));
        assert_bit_identical(&on, &off);
    }
}

/// Multi-piece excitations on the sparse path: 200-segment lines driven
/// by a five-breakpoint PWL source (five superposition pieces per
/// member), one family plain and one with a capacitor-held floating
/// node, replay through a full and a partial lane block bit-identically
/// to the tape-off run.
#[test]
fn multi_piece_sparse_groups_replay_bit_identically() {
    let pwl = Waveform::pwl(vec![
        (0.0, 0.0),
        (1e-9, 1.0),
        (2e-9, 1.0),
        (3e-9, 0.2),
        (5e-9, 0.8),
    ]);
    let g = rc_line(200, 25.0, 2e-14, pwl);
    let mut floating = g.circuit.clone();
    let f = floating.node("float");
    floating
        .add_capacitor("CF1", g.nodes[100], f, 5e-14)
        .unwrap();
    floating.add_capacitor("CF2", f, GROUND, 3e-14).unwrap();
    for (label, base) in [("plain", g.circuit.clone()), ("floating", floating)] {
        let nets: Vec<NetSpec> = (0..6)
            .map(|i| NetSpec {
                name: format!("{label}{i}"),
                circuit: jittered(&base, i),
                output: g.output,
            })
            .collect();
        let design = Design::from_nets(label, nets);
        let on = BatchEngine::new().run(&design, &opts(true));
        let off = BatchEngine::new().run(&design, &opts(false));
        assert_bit_identical(&on, &off);
        assert_eq!(on.pattern_hits, 5, "{label}");
        assert_eq!(on.lane_blocks, 2, "{label}: one full and one partial block");
        assert_eq!(on.scalar_fallbacks, 0, "{label}");
        for r in &on.results {
            assert!(r.error.is_none(), "{}: {:?}", r.name, r.error);
        }
    }
}

/// Lane width 1: an ECO rerun re-solves a single member of an
/// already-patterned group, which replays a one-lane tape block — and
/// must reproduce the original result bit-for-bit.
#[test]
fn single_lane_eco_replay_is_bit_identical() {
    // 200 stages keeps the solves on the sparse path, so the group's
    // pattern is recorded and the ECO rerun can validate a sparse tape.
    let design = Design::synthetic_chains(12, 200, 3);
    let engine = BatchEngine::new();
    let first = engine.run(&design, &opts(true));
    assert_eq!(first.solves, 12);
    let victim = &first.results[7];
    assert!(victim.error.is_none(), "{:?}", victim.error);
    let (hash, name) = (victim.hash, victim.name.clone());
    let baseline = victim.clone();

    assert!(engine.invalidate_result(hash), "result was cached");
    let rerun = engine.run(&design, &opts(true));
    assert_eq!(rerun.solves, 1, "only the invalidated net re-solves");
    assert_eq!(rerun.cache_hits, 11);
    assert!(
        rerun.tape_replays >= 1,
        "a single-member group with a known pattern must replay the tape"
    );
    let redone = rerun
        .results
        .iter()
        .find(|r| r.name == name)
        .expect("net present");
    assert!(!redone.cache_hit);
    assert_eq!(redone.order, baseline.order);
    assert_eq!(
        redone.delay_50.map(f64::to_bits),
        baseline.delay_50.map(f64::to_bits)
    );
    assert_eq!(redone.final_value.to_bits(), baseline.final_value.to_bits());
    assert_eq!(redone.poles, baseline.poles);
}

/// Clones `base` with every R/C/L value scaled log-uniformly in
/// [1/spread, spread] (deterministic per `salt`): same topology, wildly
/// different time constants — which is what flips value-dependent
/// behavior like the partial-Padé rescue within one structure group.
fn scaled(base: &Circuit, salt: u64, spread: f64) -> Circuit {
    let mut out = base.clone();
    let edits: Vec<(String, f64)> = base
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::Resistor { name, ohms, .. } => Some((name.clone(), *ohms)),
            Element::Capacitor { name, farads, .. } => Some((name.clone(), *farads)),
            Element::Inductor { name, henries, .. } => Some((name.clone(), *henries)),
            _ => None,
        })
        .collect();
    for (i, (name, value)) in edits.iter().enumerate() {
        let mut z = salt
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(i as u64)
            .wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        let u = (z % 10000) as f64 / 10000.0;
        out.set_value(name, value * spread.powf(2.0 * u - 1.0))
            .expect("scale applies");
    }
    out
}

/// One lane rescues, its neighbors don't: five value-scaled variants of
/// one fuzzer RC tree forced to q = 5, where exactly one member (lane 2
/// of the full lane block behind the donor) needs the partial-Padé
/// rescue — divergent *outcomes* inside one block must not leak across
/// lanes, and must match the scalar path bit-for-bit.
#[test]
fn rescue_in_one_lane_does_not_disturb_neighbors() {
    let case = CaseParams::generate(TopologyClass::RcTree, 0, 0).build();
    let nets: Vec<NetSpec> = (0..5)
        .map(|i| NetSpec {
            name: format!("tree{i}"),
            circuit: scaled(&case.circuit, i as u64, 10.0),
            output: case.output,
        })
        .collect();
    let design = Design::from_nets("rescue-lane", nets);
    let run_opts = |use_tape| BatchOptions {
        order: 5,
        awe: AweOptions {
            max_escalation: 0,
            ..AweOptions::default()
        },
        ..opts(use_tape)
    };
    let on = BatchEngine::new().run(&design, &run_opts(true));
    let off = BatchEngine::new().run(&design, &run_opts(false));
    assert_bit_identical(&on, &off);
    assert!(
        on.results[3].rescued,
        "the salt-3 member must take the rescue path"
    );
    let clean = on
        .results
        .iter()
        .enumerate()
        .filter(|(i, r)| *i != 3 && !r.rescued)
        .count();
    assert_eq!(clean, 4, "every other member must stay on the clean path");
    for r in &on.results {
        assert!(r.error.is_none(), "{}: {:?}", r.name, r.error);
        assert!(r.stable, "{}", r.name);
    }
}

/// Accounting: a 500-member structure group compiles exactly one tape,
/// replayed in fixed-size chunks, with the donor as the only scalar solve.
#[test]
fn five_hundred_member_group_compiles_one_tape() {
    let design = Design::synthetic_chains(500, 200, 11);
    let engine = BatchEngine::new();
    let run = engine.run(&design, &opts(true));
    assert_eq!(run.solves, 500);
    assert_eq!(run.tapes_compiled, 1, "one tape serves the whole group");
    assert_eq!(engine.tape_len(), 1);
    assert_eq!(
        run.pattern_hits, 499,
        "every non-donor member refactors against the shared pattern"
    );
    assert_eq!(run.scalar_fallbacks, 0);
    assert_eq!(
        run.tape_replays,
        499usize.div_ceil(8),
        "members are scheduled in fixed lane-chunk units"
    );
    let m = RunMetrics::of(&run);
    assert_eq!(m.tapes_compiled, 1);
    let occupancy = m.lane_occupancy.expect("lane blocks ran");
    assert!(occupancy > 0.95, "occupancy {occupancy}");
    for r in &run.results {
        assert!(r.error.is_none(), "{}: {:?}", r.name, r.error);
    }

    // A second run serves everything from the result cache: no new tape,
    // no replays.
    let rerun = engine.run(&design, &opts(true));
    assert_eq!(rerun.cache_hits, 500);
    assert_eq!(rerun.tapes_compiled, 0);
    assert_eq!(rerun.tape_replays, 0);
}

/// Structure groups of small RC trees end on the dense path, so they get
/// no tape: every member after the donor solves in the scalar units,
/// with results bit-identical to the tape-off run at any thread count.
#[test]
fn dense_groups_take_the_scalar_path() {
    let design = Design::synthetic_groups(6, 10, 7);
    let off = BatchEngine::new().run(&design, &opts(false));
    for threads in [1, 4] {
        let on = BatchEngine::new().run(
            &design,
            &BatchOptions {
                threads,
                ..opts(true)
            },
        );
        assert_eq!(on.solves, 60);
        assert_eq!(on.tapes_compiled, 0, "dense groups compile no tape");
        assert_eq!(on.tape_replays, 0);
        assert_eq!(on.scalar_fallbacks, 0);
        assert_bit_identical(&on, &off);
        for r in &on.results {
            assert!(r.error.is_none(), "{}: {:?}", r.name, r.error);
        }
    }
}

/// Every member after the donor is stamped from the group's stamp
/// program — never rebuilt, not even into a worker's never-used lane
/// slots — and the results stay bit-identical to the tape-off run.
/// Seventeen chains give each worker more than one lane block.
#[test]
fn every_member_after_the_donor_is_stamped_from_the_program() {
    for seed in [5, 23] {
        let design = Design::synthetic_chains(17, 200, seed);
        let off = BatchEngine::new().run(&design, &opts(false));
        for threads in [1, 4] {
            let on = BatchEngine::new().run(
                &design,
                &BatchOptions {
                    threads,
                    ..opts(true)
                },
            );
            assert_bit_identical(&on, &off);
            assert_eq!(on.scalar_fallbacks, 0);
            assert_eq!(on.rebuilt, 0, "seed {seed}, {threads} threads");
            assert_eq!(on.stamped, on.solves - 1, "seed {seed}, {threads} threads");
            for r in &on.results {
                assert!(r.error.is_none(), "{}: {:?}", r.name, r.error);
            }
        }
    }
}
