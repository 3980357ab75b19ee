//! The two power-grid workloads.
//!
//! * `pdn_sweep`: cold Monte-Carlo corner sweeps on a 40×40 mesh. Dense
//!   MNA assembly and the dense-to-CSC round trip dominate, so this is
//!   where a sparse-native assembly shows.
//! * `pdn_oracle`: small sweeps on a 20×20 mesh, each worst-delay corner
//!   re-simulated by the trapezoidal reference. The only workload that
//!   runs `awe-sim`, and the accuracy gate for every speed claim.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use awe_batch::{
    corner_circuit, pdn_design, sweep, BatchEngine, CornerSpec, Design, NetSpec, SweepRun,
};
use awe_circuit::pdn::PdnSpec;
use awe_sim::{simulate, TransientOptions};

use crate::pipeline::Pipeline;
use crate::stats::{beyond, faster_half, median, mix, percentile, Run, TAIL_SAMPLES};
use crate::{
    engine_layers, pipeline_layers, run_delays, same_delays, setup, solve_ms, timed, two_passes,
    Ctx, Setups,
};

/// Relative perturbation of every R and C per corner.
const SIGMA: f64 = 0.05;
/// Timed set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// 40×40 rather than 60×60: at 60×60 (3,745 nodes, about 4 GB paged in
/// per sweep) the sweep's figures moved by up to 28 % between two sets of
/// runs on a shared host, beyond any bound a later change could be held
/// to.
const SWEEP_MESH: usize = 40;
const SWEEP_STRAP_PITCH: usize = 5;
const SWEEP_CORNERS: usize = 16;
/// Sweeps per run at least: single sweeps vary by ±15 % on a shared
/// host, their median over five does not.
const SWEEP_MIN_RUNS: usize = 5;
const SWEEP_TAIL: f64 = 90.0;

const ORACLE_MESH: usize = 20;
const ORACLE_CORNERS: usize = 16;
/// Rounds per run at least, so the p95 solve time has its samples.
const ORACLE_MIN_ROUNDS: usize = 4;
const ORACLE_TAIL: f64 = 95.0;
/// Largest relative 50 % delay error against the reference, as in
/// `tests/sweep_oracle.rs`.
const ORACLE_TOLERANCE: f64 = 0.05;
/// Simulated horizon in multiples of the worst AWE delay.
const HORIZON: f64 = 12.0;

/// Counts one sweep's members and checks its ledger.
fn account(run: &mut Run, s: &SweepRun) {
    let members = (s.spec.corners * s.nodes.len()) as u64;
    let errors = s.run.results.iter().filter(|r| r.error.is_some()).count();
    run.attempted += members;
    run.failed += (s.rejected.len() + errors) as u64;
    run.check(s.rejected.is_empty() && errors == 0, || {
        format!(
            "{}: {} rejected corners, {errors} member errors",
            s.design,
            s.rejected.len()
        )
    });
    run.check(s.new_symbolic_after_donor == 0, || {
        format!(
            "{}: {} symbolic factorizations after the donor",
            s.design, s.new_symbolic_after_donor
        )
    });
}

/// The sweep's member circuits, generated through `corner_circuit` in
/// the sweep's own order (corner-major) and timed as
/// `batch.corner`.
fn corner_nets(p: &mut Pipeline, base: &Design, spec: &CornerSpec) -> Vec<NetSpec> {
    let mut nets = Vec::with_capacity(spec.corners * base.nets().len());
    for corner in 0..spec.corners {
        for net in base.nets() {
            let t = p.timers.start();
            let circuit = corner_circuit(&net.circuit, spec, corner);
            p.timers.stop("batch.corner", t);
            if let Ok(circuit) = circuit {
                nets.push(NetSpec {
                    name: format!("{}@c{corner:04}", net.name),
                    circuit,
                    output: net.output,
                });
            }
        }
    }
    nets
}

/// Engine figures shared by both sweep workloads.
fn sweep_layers(run: &mut Run, first: &SweepRun, walls: &[f64], aggregate: &[f64], gen: &[f64]) {
    engine_layers(run, &first.run);
    run.layers.insert("batch.run_s", median(walls));
    run.layers
        .insert("batch.sweep_aggregate_ms", median(aggregate));
    run.layers.insert(
        "batch.new_symbolic_after_donor",
        first.new_symbolic_after_donor as f64,
    );
    run.layers.insert("circuit.gen_ms", median(gen) * 1e3);
}

pub fn pdn_sweep(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let xm: usize = std::env::var("XM").ok().and_then(|v| v.parse().ok()).unwrap_or(SWEEP_MESH);
    let pdn = PdnSpec {
        strap_pitch: SWEEP_STRAP_PITCH,
        ..PdnSpec::square(xm)
    };
    let setups = Setups {
        reps: SETUP_REPS,
        copies: ctx.threads,
        batch: 10,
    };
    let (base, setups) = setup(setups, || {
        pdn_design(format!("pdn-{SWEEP_MESH}x{SWEEP_MESH}"), &pdn)
    });
    let spec = CornerSpec::new(SWEEP_CORNERS, SIGMA, ctx.seed);
    let xt: usize = std::env::var("XT").ok().and_then(|v| v.parse().ok()).unwrap_or(ctx.threads);
    let opts = ctx.opts(xt);

    // (wall in s, member solve times in ms) of every sweep in the window.
    let mut sweeps: Vec<(f64, Vec<f64>)> = Vec::new();
    let mut walls = Vec::new();
    let mut aggregate = Vec::new();
    let mut digests = Vec::new();
    let mut first: Option<SweepRun> = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds || sweeps.len() < SWEEP_MIN_RUNS {
        let t = Instant::now();
        let s = sweep(&BatchEngine::new(), &base, &spec, &opts);
        let wall = t.elapsed();
        sweeps.push((wall.as_secs_f64(), solve_ms(&s.run).collect()));
        walls.push(s.run.wall.as_secs_f64());
        aggregate.push(
            wall.saturating_sub(s.run.wall)
                .saturating_sub(s.generate_wall)
                .as_secs_f64()
                * 1e3,
        );
        digests.push(s.digest());
        account(&mut run, &s);
        first.get_or_insert(s);
    }
    let first = first.expect("the window runs at least one sweep");

    // Outside the window: the same sweep on one thread must agree bit
    // for bit.
    let t = Instant::now();
    let single = sweep(&BatchEngine::new(), &base, &spec, &ctx.opts(1));
    let single_rate = SWEEP_CORNERS as f64 / t.elapsed().as_secs_f64();
    account(&mut run, &single);
    let digest = single.digest();
    run.check(digests.iter().all(|&d| d == digest), || {
        format!("sweep digests differ between 1 and {} threads", ctx.threads)
    });
    drop(single);

    let xall: Vec<f64> = sweeps.iter().flat_map(|s| s.1.iter().copied()).collect();
    let xrates: Vec<f64> = sweeps.iter().map(|s| SWEEP_CORNERS as f64 / s.0).collect();
    let kept = faster_half(&sweeps);
    let rates: Vec<f64> = kept
        .iter()
        .map(|&(wall, _)| SWEEP_CORNERS as f64 / wall)
        .collect();
    let latencies: Vec<f64> = kept.iter().flat_map(|(_, l)| l.iter().copied()).collect();
    let throughput = median(&rates);
    run.threads_requested = ctx.threads;
    run.threads_granted = first.run.pool.threads;
    run.check(beyond(latencies.len(), SWEEP_TAIL) >= TAIL_SAMPLES, || {
        format!(
            "only {} member latencies for p{SWEEP_TAIL}",
            latencies.len()
        )
    });
    run.e2e.insert("setup_s", median(&setups));
    run.e2e.insert("throughput_per_s", throughput);
    run.e2e
        .insert("latency_p50_ms", percentile(&latencies, 50.0));
    run.e2e
        .insert("latency_tail_ms", percentile(&latencies, SWEEP_TAIL));
    run.note(format!(
        "pdn_sweep: {} nodes, {} taps, {SWEEP_CORNERS} corners/sweep, {} sweeps at {} threads",
        pdn.node_count(),
        base.len(),
        sweeps.len(),
        ctx.threads
    ));
    run.note(format!(
        "corners_per_s {throughput:.4} 1/s, median over the faster {} sweeps: {rates:.4?}",
        kept.len()
    ));
    run.note(format!(
        "member solve time p50 {:.3} ms, p{SWEEP_TAIL} {:.3} ms over {} members",
        percentile(&latencies, 50.0),
        percentile(&latencies, SWEEP_TAIL),
        latencies.len()
    ));
    run.note(format!(
        "corners_per_s at 1 thread {single_rate:.4} 1/s, digest {digest:016x}"
    ));
    run.note(format!(
        "x: old_rate={} old_p50={} old_tail={}",
        median(&xrates),
        percentile(&xall, 50.0),
        percentile(&xall, SWEEP_TAIL),
    ));

    if ctx.traced {
        sweep_layers(&mut run, &first, &walls, &aggregate, &setups);
        run.layers.insert("batch.throughput_1t_per_s", single_rate);
        run.layers.insert(
            "batch.scaling_eff",
            throughput / (run.threads_granted.max(1) as f64 * single_rate),
        );
        let expected = run_delays(&first.run);
        drop(first);
        let (p, bare, delays, traced, untraced) = two_passes(ctx.opts(1), |p| {
            timed(|| {
                let nets = corner_nets(p, &base, &spec);
                p.solve(&nets)
            })
        });
        run.check(
            same_delays(&bare, &expected) && same_delays(&delays, &expected),
            || "traced pass delays differ from the engine's".to_owned(),
        );
        pipeline_layers(&mut run, &p, traced, untraced);
        run.layers.insert(
            "batch.sweep_generate_ms",
            p.timers.total("batch.corner") * 1e3,
        );
    }
    run
}

/// One reference simulation: its wall, accepted steps, and the relative
/// delay error of every tap it checks (`None` where the reference never
/// crossed 50 %).
struct Reference {
    secs: f64,
    steps: usize,
    errors: Vec<Option<f64>>,
}

/// The worst-delay corner of every tap, grouped: corner → `(tap,
/// worst delay)`. Taps without a worst corner are left out.
fn worst_corners(
    delays: &[Option<f64>],
    corners: usize,
    taps: usize,
) -> BTreeMap<usize, Vec<(usize, f64)>> {
    let mut out: BTreeMap<usize, Vec<(usize, f64)>> = BTreeMap::new();
    for tap in 0..taps {
        // Ties resolve to the lowest corner, as the sweep aggregation does.
        let mut worst: Option<(usize, f64)> = None;
        for corner in 0..corners {
            if let Some(d) = delays[corner * taps + tap].filter(|d| d.is_finite()) {
                if worst.is_none_or(|(_, w)| d > w) {
                    worst = Some((corner, d));
                }
            }
        }
        if let Some((corner, d)) = worst {
            out.entry(corner).or_default().push((tap, d));
        }
    }
    out
}

/// Simulates one worst corner and compares every tap it is worst for.
fn reference(
    base: &Design,
    spec: &CornerSpec,
    corner: usize,
    taps: &[(usize, f64)],
) -> Option<Reference> {
    let net = &base.nets()[taps[0].0];
    let circuit = corner_circuit(&net.circuit, spec, corner).ok()?;
    let horizon = taps.iter().map(|&(_, d)| d).fold(0.0, f64::max) * HORIZON;
    let t = Instant::now();
    let sim = simulate(&circuit, TransientOptions::new(horizon)).ok()?;
    let secs = t.elapsed().as_secs_f64();
    let errors = taps
        .iter()
        .map(|&(tap, awe)| {
            sim.delay_50(base.nets()[tap].output)
                .map(|d| ((awe - d) / d).abs())
        })
        .collect();
    Some(Reference {
        secs,
        steps: sim.len(),
        errors,
    })
}

/// Runs the reference for every worst corner on up to `threads` threads.
fn references(
    base: &Design,
    spec: &CornerSpec,
    worst: &BTreeMap<usize, Vec<(usize, f64)>>,
    threads: usize,
) -> Vec<Option<Reference>> {
    let jobs: Vec<(&usize, &Vec<(usize, f64)>)> = worst.iter().collect();
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, Option<Reference>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(jobs.len()).max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(&corner, taps)) = jobs.get(j) else {
                            break done;
                        };
                        done.push((j, reference(base, spec, corner, taps)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference worker panicked"))
            .collect()
    });
    out.sort_by_key(|&(j, _)| j);
    out.into_iter().map(|(_, r)| r).collect()
}

pub fn pdn_oracle(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let pdn = PdnSpec::square(ORACLE_MESH);
    let setups = Setups {
        reps: SETUP_REPS,
        copies: ctx.threads,
        batch: 40,
    };
    let (base, setups) = setup(setups, || {
        pdn_design(format!("pdn-{ORACLE_MESH}x{ORACLE_MESH}"), &pdn)
    });
    let taps = base.len();
    let opts = ctx.opts(ctx.threads);

    let mut latencies = Vec::new();
    let mut walls = Vec::new();
    let mut aggregate = Vec::new();
    let mut sim_secs = Vec::new();
    let mut steps = Vec::new();
    let mut worst_error = 0.0f64;
    let mut first: Option<SweepRun> = None;
    let mut round = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds || round < ORACLE_MIN_ROUNDS as u64 {
        let spec = CornerSpec::new(ORACLE_CORNERS, SIGMA, mix(ctx.seed, round));
        round += 1;
        let t = Instant::now();
        let s = sweep(&BatchEngine::new(), &base, &spec, &opts);
        let sweep_wall = t.elapsed();
        let worst = worst_corners(&run_delays(&s.run), ORACLE_CORNERS, taps);
        let refs = references(&base, &spec, &worst, ctx.threads);
        latencies.extend(solve_ms(&s.run));
        walls.push(s.run.wall.as_secs_f64());
        aggregate.push(
            sweep_wall
                .saturating_sub(s.run.wall)
                .saturating_sub(s.generate_wall)
                .as_secs_f64()
                * 1e3,
        );
        account(&mut run, &s);
        for (r, (corner, checked)) in refs.iter().zip(&worst) {
            run.attempted += checked.len() as u64;
            let Some(r) = r else {
                run.failed += checked.len() as u64;
                run.check(false, || {
                    format!("reference simulation of corner {corner} failed")
                });
                continue;
            };
            sim_secs.push(r.secs);
            steps.push(r.steps as f64);
            for e in &r.errors {
                match e {
                    Some(e) if *e <= ORACLE_TOLERANCE => worst_error = worst_error.max(*e),
                    _ => {
                        run.failed += 1;
                        worst_error = worst_error.max(e.unwrap_or(f64::INFINITY));
                    }
                }
            }
        }
        first.get_or_insert(s);
    }
    let first = first.expect("the window runs at least one round");
    run.check(worst_error <= ORACLE_TOLERANCE, || {
        format!("AWE delay off the reference by {worst_error:.4} (> {ORACLE_TOLERANCE})")
    });
    run.check(beyond(latencies.len(), ORACLE_TAIL) >= TAIL_SAMPLES, || {
        format!(
            "only {} member latencies for p{ORACLE_TAIL}",
            latencies.len()
        )
    });

    // Per simulation, so the count of distinct worst corners a round
    // happens to have (and how many of them overlap) does not enter.
    let sims_per_s = sim_secs.len() as f64 / sim_secs.iter().sum::<f64>();
    run.threads_requested = ctx.threads;
    run.threads_granted = first.run.pool.threads;
    run.e2e.insert("setup_s", median(&setups));
    run.e2e.insert("throughput_per_s", sims_per_s);
    run.e2e
        .insert("latency_p50_ms", percentile(&latencies, 50.0));
    run.e2e
        .insert("latency_tail_ms", percentile(&latencies, ORACLE_TAIL));
    run.note(format!(
        "pdn_oracle: {} nodes, {taps} taps, {ORACLE_CORNERS} corners/round, {round} rounds, {} reference runs",
        pdn.node_count(),
        sim_secs.len()
    ));
    run.note(format!(
        "reference_s {:.4} s (median), reference runs per s {sims_per_s:.4}",
        median(&sim_secs)
    ));
    run.note(format!(
        "delay_rel_err {worst_error:.3e} (tolerance {ORACLE_TOLERANCE})"
    ));
    if ctx.traced {
        sweep_layers(&mut run, &first, &walls, &aggregate, &setups);
        run.layers.insert("sim.simulate_s", median(&sim_secs));
        run.layers.insert("sim.steps", median(&steps));
        run.layers.insert("sim.delay_rel_err", worst_error);
        let spec = first.spec;
        let expected = run_delays(&first.run);
        let (p, bare, traced_out, traced, untraced) = two_passes(ctx.opts(1), |p| {
            timed(|| oracle_pass(p, &base, &spec, taps))
        });
        run.check(
            bare.is_some_and(|d| same_delays(&d, &expected))
                && traced_out.is_some_and(|d| same_delays(&d, &expected)),
            || "traced pass delays differ from the engine's".to_owned(),
        );
        pipeline_layers(&mut run, &p, traced, untraced);
        run.layers.insert(
            "batch.sweep_generate_ms",
            p.timers.total("batch.corner") * 1e3,
        );
    }
    run
}

/// One oracle round through the layer calls: corners, the sweep's
/// members, and the reference for every worst corner. `None` when a
/// reference run fails.
fn oracle_pass(
    p: &mut Pipeline,
    base: &Design,
    spec: &CornerSpec,
    taps: usize,
) -> Option<Vec<Option<f64>>> {
    let nets = corner_nets(p, base, spec);
    let delays = p.solve(&nets);
    let worst = worst_corners(&delays, spec.corners, taps);
    for (&corner, checked) in &worst {
        let r = reference(base, spec, corner, checked)?;
        p.timers.record("sim.simulate", r.secs);
    }
    Some(delays)
}
