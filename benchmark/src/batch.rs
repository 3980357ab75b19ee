//! `batch_mixed`: cold `BatchEngine::run` over one parsed multi-net deck
//! of many small nets, at `nproc` threads and at one thread.
//!
//! The deck mixes three populations so every solve path runs: RC trees
//! in structure groups (the dense tape), 200-stage RC chains (the
//! sparse lane tape) and unique random trees (the scalar engine path).
//! Per-net overhead, moments, Padé and residues dominate; large-n
//! assembly does not.

use std::sync::Mutex;
use std::time::Instant;

use awe_batch::{BatchEngine, Design, NetSpec};

use crate::stats::{beyond, median, percentile, Run, TAIL_SAMPLES};
use crate::{
    engine_layers, pipeline_layers, run_delays, same_delays, setup, solve_ms, timed, two_passes,
    Ctx, Setups,
};

/// Structure groups × members of small RC trees.
const GROUPS: usize = 100;
const MEMBERS: usize = 40;
/// RC chains, all one topology.
const CHAINS: usize = 800;
const CHAIN_STAGES: usize = 200;
/// Random RC trees, each its own topology.
const UNIQUE: usize = 2000;
/// Keeps the unique trees' generator seeds clear of the groups' seeds.
const UNIQUE_SEED_OFFSET: u64 = 1 << 32;
const SETUPS: usize = 5;
/// Runs per thread count at least.
const MIN_RUNS: usize = 3;
const TAIL: f64 = 99.0;

/// The three populations as one design, named so no two nets collide.
fn generate(seed: u64) -> Design {
    let mut nets: Vec<NetSpec> = Design::synthetic_groups(GROUPS, MEMBERS, seed)
        .nets()
        .to_vec();
    let renamed = |prefix: &'static str, d: Design| {
        d.nets().to_vec().into_iter().map(move |mut n| {
            n.name = format!("{prefix}-{}", n.name);
            n
        })
    };
    nets.extend(renamed(
        "chain",
        Design::synthetic_chains(CHAINS, CHAIN_STAGES, seed),
    ));
    nets.extend(renamed(
        "tree",
        Design::synthetic(UNIQUE, seed.wrapping_add(UNIQUE_SEED_OFFSET)),
    ));
    Design::from_nets("batch_mixed", nets)
}

pub fn batch_mixed(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    // (generation and rendering, parse) seconds of every set-up copy.
    let layer_times = Mutex::new(Vec::new());
    let setups = Setups {
        reps: SETUPS,
        copies: ctx.threads,
        batch: 1,
    };
    let (parsed, setups) = setup(setups, || {
        let t = Instant::now();
        let deck = generate(ctx.seed).to_multi_deck();
        let gen = t.elapsed().as_secs_f64();
        let p = Instant::now();
        let parsed = Design::from_deck("batch_mixed", &deck);
        let times = (gen, p.elapsed().as_secs_f64());
        layer_times
            .lock()
            .expect("set-up copy panicked")
            .push(times);
        parsed
    });
    let design = match parsed {
        Ok(d) => d,
        Err(e) => {
            run.check(false, || format!("generated deck does not parse: {e}"));
            return run;
        }
    };
    let (gen, parse): (Vec<f64>, Vec<f64>) = layer_times
        .into_inner()
        .expect("set-up copy panicked")
        .into_iter()
        .unzip();
    let nets = design.len();

    let mut rates = Vec::new();
    let mut rates_1t = Vec::new();
    let mut walls = Vec::new();
    let mut latencies = Vec::new();
    let mut xp50 = Vec::new();
    let mut expected: Option<Vec<Option<f64>>> = None;
    let mut first = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds || rates_1t.len() < MIN_RUNS {
        for threads in [ctx.threads, 1] {
            let b = BatchEngine::new().run(&design, &ctx.opts(threads));
            let rate = nets as f64 / b.wall.as_secs_f64();
            let errors = b.results.iter().filter(|r| r.error.is_some()).count();
            run.attempted += nets as u64;
            run.failed += errors as u64;
            run.check(errors == 0, || {
                format!("{errors} nets failed at {threads} threads")
            });
            let delays = run_delays(&b);
            let reference = expected.get_or_insert_with(|| delays.clone());
            run.check(same_delays(reference, &delays), || {
                format!("net delays at {threads} threads differ from the first run")
            });
            if threads == 1 {
                rates_1t.push(rate);
            } else {
                rates.push(rate);
                xp50.push(percentile(&solve_ms(&b).collect::<Vec<_>>(), 50.0));
                walls.push(b.wall.as_secs_f64());
                latencies.extend(solve_ms(&b));
                first.get_or_insert(b);
            }
        }
    }
    // On a one-core host both loops run at one thread.
    let first = first.unwrap_or_else(|| BatchEngine::new().run(&design, &ctx.opts(ctx.threads)));
    let expected = expected.expect("the window runs at least once");

    let throughput = median(&rates);
    let throughput_1t = median(&rates_1t);
    run.threads_requested = ctx.threads;
    run.threads_granted = first.pool.threads;
    run.check(beyond(latencies.len(), TAIL) >= TAIL_SAMPLES, || {
        format!("only {} net latencies for p{TAIL}", latencies.len())
    });
    run.e2e.insert("setup_s", median(&setups));
    run.e2e.insert("throughput_per_s", throughput);
    run.e2e
        .insert("latency_p50_ms", percentile(&latencies, 50.0));
    run.e2e
        .insert("latency_tail_ms", percentile(&latencies, TAIL));
    run.note(format!(
        "batch_mixed: {nets} nets ({} grouped trees, {CHAINS} chains of {CHAIN_STAGES} stages, \
         {UNIQUE} unique trees), {} runs at {} threads, {} at 1",
        GROUPS * MEMBERS,
        rates.len(),
        ctx.threads,
        rates_1t.len()
    ));
    run.note(format!(
        "nets_per_s {throughput:.1} 1/s, nets_per_s_1t {throughput_1t:.1} 1/s"
    ));
    run.note(format!(
        "x: rate_p75={} rate_max={} rate1_p75={} rate1_med={} lat_run_p25={} lat_run_min={} runs={}",
        percentile(&rates, 75.0),
        percentile(&rates, 100.0),
        percentile(&rates_1t, 75.0),
        median(&rates_1t),
        percentile(&xp50, 25.0),
        percentile(&xp50, 0.0),
        rates.len()
    ));
    run.note(format!(
        "net solve time p50 {:.4} ms, p{TAIL} {:.4} ms over {} nets",
        percentile(&latencies, 50.0),
        percentile(&latencies, TAIL),
        latencies.len()
    ));

    if ctx.traced {
        engine_layers(&mut run, &first);
        run.layers.insert("batch.run_s", median(&walls));
        run.layers
            .insert("batch.throughput_1t_per_s", throughput_1t);
        run.layers.insert(
            "batch.scaling_eff",
            throughput / (run.threads_granted.max(1) as f64 * throughput_1t),
        );
        run.layers.insert("circuit.gen_ms", median(&gen) * 1e3);
        run.layers.insert("circuit.parse_ms", median(&parse) * 1e3);
        let (p, bare, delays, traced, untraced) =
            two_passes(ctx.opts(1), |p| timed(|| p.solve(design.nets())));
        run.check(
            same_delays(&bare, &expected) && same_delays(&delays, &expected),
            || "traced pass delays differ from the engine's".to_owned(),
        );
        pipeline_layers(&mut run, &p, traced, untraced);
    }
    run
}
