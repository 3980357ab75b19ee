//! Corner-sweep throughput on a power-grid mesh: cold per-corner
//! analysis (fresh engine, one corner, full symbolic factorization)
//! versus warm corners/sec inside one sweep, where every corner after
//! the donor replays the compiled stamp-program/lane tape.
//!
//! Writes `BENCH_sweep.json` at the workspace root: mesh size, cold and
//! warm per-corner wall times, the warm/cold speedup (gated ≥5× in full
//! mode), the symbolic-work ledger (`new_symbolic_after_donor` must be
//! zero), and a per-thread-count digest table proving byte-identical
//! sweep outcomes. Thread counts are *requested*; rows whose grant fell
//! short of the request are `"capped": true, "measured": false` and
//! carry no scaling claim.
//!
//! `AWE_BENCH_TINY=1` (or `--test`) shrinks the mesh for smoke runs; the
//! tiny mesh stays above the sparse threshold (192 unknowns) so the
//! pattern-cache/tape path is still the one being measured.

use std::fmt::Write as _;
use std::time::Instant;

use awe_batch::{pdn_design, sweep, BatchEngine, BatchOptions, CornerSpec, SweepRun};
use awe_circuit::pdn::PdnSpec;

fn opts(threads: usize) -> BatchOptions {
    BatchOptions {
        threads,
        ..BatchOptions::default()
    }
}

struct ThreadRow {
    requested: usize,
    granted: usize,
    digest: u64,
    corners_per_sec: f64,
}

fn main() {
    let tiny = std::env::var("AWE_BENCH_TINY").is_ok() || std::env::args().any(|a| a == "--test");
    // Full mode: 100×100 mesh + strap lattice = 10 401 nodes, the
    // ISSUE's ≥10k-node floor. Tiny: 15×15 = 242 nodes, still above the
    // sparse threshold.
    let (mesh, corners, cold_reps) = if tiny { (15, 4, 2) } else { (100, 8, 2) };
    let pdn = PdnSpec {
        strap_pitch: 5,
        ..PdnSpec::square(mesh)
    };
    let design = pdn_design(format!("pdn-{mesh}x{mesh}"), &pdn);
    let nodes = pdn.node_count();
    let spec = CornerSpec::new(corners, 0.05, 2711);
    println!(
        "pdn {mesh}x{mesh}: {nodes} nodes, {} taps, {corners} corners",
        pdn.taps
    );

    // Cold: a fresh engine analyzing ONE corner (all taps) — every run
    // pays parse-free corner generation plus the full symbolic factor.
    // Best-of-reps over distinct corners so no cache could help even in
    // principle.
    let mut cold_best = f64::MAX;
    for k in 0..cold_reps {
        let one = CornerSpec::new(1, 0.05, spec.seed.wrapping_add(k as u64));
        let engine = BatchEngine::new();
        let start = Instant::now();
        let run = sweep(&engine, &design, &one, &opts(1));
        let secs = start.elapsed().as_secs_f64();
        assert!(run.rejected.is_empty());
        // One solve serves every tap of the corner; no cache helps.
        assert_eq!(
            (run.run.solves, run.run.shared),
            (1, design.nets().len() - 1)
        );
        cold_best = cold_best.min(secs);
        println!("cold corner {k}: {secs:.3} s");
    }

    // Warm: one sweep over all corners; per-corner wall includes the
    // donor's symbolic work, so the speedup below is the honest
    // amortized number a caller sees.
    let engine = BatchEngine::new();
    let run = sweep(&engine, &design, &spec, &opts(1));
    assert!(run.rejected.is_empty());
    let warm_per_corner = run.run.wall.as_secs_f64() / corners as f64;
    assert_eq!(
        run.new_symbolic_after_donor, 0,
        "every corner after the donor must replay the cached pattern"
    );
    let speedup = cold_best / warm_per_corner;
    println!(
        "cold {cold_best:.3} s/corner, warm {warm_per_corner:.3} s/corner -> {speedup:.1}x \
         (new_symbolic {} / after donor {})",
        run.new_symbolic, run.new_symbolic_after_donor
    );
    if !tiny {
        assert!(
            speedup >= 5.0,
            "warm corners/sec must be >=5x cold per-corner analysis, got {speedup:.2}x"
        );
    }

    // Determinism table: the same sweep at 1/2/4 requested workers must
    // agree on the digest bit-for-bit. Run on a thread-check mesh small
    // enough to keep the bench bounded but still on the sparse path.
    let tdesign = if tiny {
        design.clone()
    } else {
        pdn_design("pdn-20x20", &PdnSpec::square(20))
    };
    let mut threads = Vec::new();
    for &t in &[1usize, 2, 4] {
        let engine = BatchEngine::new();
        let r = sweep(&engine, &tdesign, &spec, &opts(t));
        threads.push(ThreadRow {
            requested: t,
            granted: r.run.pool.threads,
            digest: r.digest(),
            corners_per_sec: r.corners_per_sec(),
        });
    }
    for row in &threads[1..] {
        assert_eq!(
            threads[0].digest, row.digest,
            "sweep digest must be identical at any thread count"
        );
    }
    println!("thread digests agree: {:016x}", threads[0].digest);

    write_json(
        &run,
        nodes,
        cold_best,
        warm_per_corner,
        speedup,
        &threads,
        tiny,
    );
}

fn write_json(
    run: &SweepRun,
    nodes: usize,
    cold: f64,
    warm: f64,
    speedup: f64,
    threads: &[ThreadRow],
    tiny: bool,
) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"sweep_corners\",");
    let _ = writeln!(out, "  \"tiny\": {tiny},");
    let _ = writeln!(out, "  \"pdn_nodes\": {nodes},");
    let _ = writeln!(out, "  \"taps\": {},", run.nodes.len());
    let _ = writeln!(out, "  \"corners\": {},", run.spec.corners);
    let _ = writeln!(out, "  \"sigma\": {},", run.spec.sigma);
    let _ = writeln!(out, "  \"seed\": {},", run.spec.seed);
    let _ = writeln!(out, "  \"host_cores\": {cores},");
    let _ = writeln!(out, "  \"cold_per_corner_s\": {cold:.6},");
    let _ = writeln!(out, "  \"warm_per_corner_s\": {warm:.6},");
    let _ = writeln!(out, "  \"warm_vs_cold_speedup\": {speedup:.2},");
    let _ = writeln!(out, "  \"new_symbolic\": {},", run.new_symbolic);
    let _ = writeln!(
        out,
        "  \"new_symbolic_after_donor\": {},",
        run.new_symbolic_after_donor
    );
    out.push_str("  \"threads\": [\n");
    for (i, t) in threads.iter().enumerate() {
        let comma = if i + 1 < threads.len() { "," } else { "" };
        let capped = t.granted < t.requested;
        // Same capped-row contract as BENCH_batch.json: a row that did
        // not get its requested workers makes no scaling claim.
        let _ = writeln!(
            out,
            "    {{\"requested_threads\": {}, \"granted_threads\": {}, \"capped\": {capped}, \
             \"measured\": {}, \"digest\": \"{:016x}\", \"corners_per_sec\": {:.3}}}{comma}",
            t.requested, t.granted, !capped, t.digest, t.corners_per_sec,
        );
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    match std::fs::write(path, &out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}
