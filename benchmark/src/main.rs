//! The AWEsim benchmark: four workloads, each run in its own process.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload pdn_sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no timers inside the
//! analysis; `--trace 1` runs the same workload and then a traced pass
//! that times each layer's public calls from outside (see
//! [`pipeline`]). `--workload all` runs every workload in a child
//! process of its own. The last line of standard output is the result
//! as one JSON object; the exit code is 1 when an output check failed.
//! `README.md` beside this crate defines every metric.

mod batch;
mod pipeline;
mod serve;
mod stats;
mod sweep;

use std::process::{Command, ExitCode};
use std::time::Instant;

use awe_batch::{BatchOptions, BatchRun, RunMetrics};

use crate::pipeline::Pipeline;
use crate::stats::{median, Run};

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["pdn_sweep", "batch_mixed", "serve_eco", "pdn_oracle"];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// does not run reports 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("circuit.gen_ms", "ms"),
    ("circuit.parse_ms", "ms"),
    ("mna.assemble_ms", "ms"),
    ("mna.stamp_ms", "ms"),
    ("mna.moments_ms", "ms"),
    ("mna.system_mb", "MB"),
    ("numeric.factor_ms", "ms"),
    ("numeric.refactor_ms", "ms"),
    ("numeric.to_sparse_ms", "ms"),
    ("numeric.lane_block_ms", "ms"),
    ("numeric.fill_ratio", "ratio"),
    ("core.reduce_us", "us"),
    ("core.engine_us", "us"),
    ("core.escalated", "count"),
    ("core.rescued", "count"),
    ("batch.prepare_ms", "ms"),
    ("batch.run_s", "s"),
    ("batch.sweep_generate_ms", "ms"),
    ("batch.sweep_aggregate_ms", "ms"),
    ("batch.pattern_hit_ratio", "ratio"),
    ("batch.new_symbolic_after_donor", "count"),
    ("batch.lane_occupancy", "ratio"),
    ("batch.scalar_fallback_ratio", "ratio"),
    ("batch.worker_imbalance", "ratio"),
    ("batch.throughput_1t_per_s", "1/s"),
    ("batch.scaling_eff", "ratio"),
    ("serve.eco_ms", "ms"),
    ("serve.analyze_ms", "ms"),
    ("serve.report_ms", "ms"),
    ("serve.metrics_ms", "ms"),
    ("serve.topo_p50_ms", "ms"),
    ("serve.topo_p95_ms", "ms"),
    ("serve.read_p50_ms", "ms"),
    ("serve.contention_ms", "ms"),
    ("serve.metrics_growth", "ratio"),
    ("serve.swept_per_analyze", "count"),
    ("serve.new_symbolic_value", "count"),
    ("sim.simulate_s", "s"),
    ("sim.steps", "count"),
    ("sim.delay_rel_err", "ratio"),
    ("obs.unattributed_share", "ratio"),
    ("obs.overhead_share", "ratio"),
];

/// Mixed into the seed by `--seed-set heldout`, so held-out inputs never
/// coincide with the inputs of any development seed.
const HELDOUT_SALT: u64 = 0x6865_6c64_5f6f_7574;

/// What every workload needs to know about its run.
pub struct Ctx {
    /// Workload seed; every input is generated from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether to run the traced pass and report per-layer metrics.
    pub traced: bool,
    /// Worker threads and clients: the host's available parallelism.
    pub threads: usize,
}

impl Ctx {
    pub fn opts(&self, threads: usize) -> BatchOptions {
        BatchOptions {
            threads,
            ..BatchOptions::default()
        }
    }
}

/// How a workload's set-up is repeated to time it.
pub struct Setups {
    /// Timed repetitions; `setup_s` is the median over them.
    pub reps: usize,
    /// Set-ups run at once in one repetition, one per thread. On a host
    /// whose CPUs differ in speed (shared cores), a single-threaded
    /// set-up reads fast or slow by the CPU it lands on; one copy per CPU
    /// makes it read the same every run.
    pub copies: usize,
    /// Set-ups each copy runs back to back in one repetition, so a
    /// repetition of a set-up of a few ms outlasts scheduling jitter.
    pub batch: usize,
}

/// Runs `make` as `setups` says and returns its last output with the
/// wall time per set-up of every repetition, in seconds.
pub fn setup<T: Send>(setups: Setups, make: impl Fn() -> T + Sync) -> (T, Vec<f64>) {
    let batch = setups.batch.max(1);
    let run_batch = || (0..batch).map(|_| make()).last();
    let mut walls = Vec::with_capacity(setups.reps);
    let mut last = None;
    for _ in 0..setups.reps.max(1) {
        let t = Instant::now();
        last = std::thread::scope(|scope| {
            let others: Vec<_> = (1..setups.copies).map(|_| scope.spawn(run_batch)).collect();
            let out = run_batch();
            for o in others {
                o.join().expect("set-up copy panicked");
            }
            out
        });
        walls.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    (last.expect("at least one set-up"), walls)
}

/// Whether two delay vectors agree bit for bit.
pub fn same_delays(a: &[Option<f64>], b: &[Option<f64>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits))
}

/// The delays of a batch run, in design order.
pub fn run_delays(run: &BatchRun) -> Vec<Option<f64>> {
    run.results.iter().map(|r| r.delay_50).collect()
}

/// Each result's solve time (the sum of its stage times), in ms. Unlike
/// `NetTiming::latency`, it leaves out the wait for the other members of
/// the result's lane block.
pub fn solve_ms(run: &BatchRun) -> impl Iterator<Item = f64> + '_ {
    run.timings
        .iter()
        .map(|t| t.stages.total().as_secs_f64() * 1e3)
}

/// Runs `f` and returns its output with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs `pass` untraced, then traced, each on a fresh [`Pipeline`]. The
/// pass returns its output and the wall time of its measured part.
/// Returns the traced pipeline, both outputs (untraced first), and the
/// traced and untraced walls in seconds.
pub fn two_passes<T>(
    opts: BatchOptions,
    mut pass: impl FnMut(&mut Pipeline) -> (T, f64),
) -> (Pipeline, T, T, f64, f64) {
    let (bare, untraced) = pass(&mut Pipeline::new(opts, false));
    let mut p = Pipeline::new(opts, true);
    let (out, traced) = pass(&mut p);
    (p, bare, out, traced, untraced)
}

/// Per-layer metrics read from a traced pipeline.
pub fn pipeline_layers(run: &mut Run, p: &Pipeline, traced: f64, untraced: f64) {
    let t = &p.timers;
    let n = p.max_unknowns as f64;
    let l = &mut run.layers;
    l.insert("mna.assemble_ms", t.median("mna.assemble") * 1e3);
    l.insert("mna.stamp_ms", t.median("mna.stamp") * 1e3);
    l.insert("mna.moments_ms", t.median("mna.moments") * 1e3);
    // Computed, not measured: the five dense n×n f64 fields of MnaSystem.
    l.insert("mna.system_mb", 5.0 * n * n * 8.0 / 1e6);
    l.insert("numeric.factor_ms", t.median("numeric.factor") * 1e3);
    l.insert("numeric.refactor_ms", t.median("numeric.refactor") * 1e3);
    l.insert("numeric.to_sparse_ms", t.median("numeric.to_sparse") * 1e3);
    l.insert(
        "numeric.lane_block_ms",
        t.median("numeric.lane_block") * 1e3,
    );
    l.insert("numeric.fill_ratio", median(&p.fill_ratios));
    l.insert("core.reduce_us", t.median("core.reduce") * 1e6);
    l.insert("core.engine_us", t.median("core.engine") * 1e6);
    l.insert("batch.prepare_ms", t.total("batch.prepare") * 1e3);
    l.insert(
        "obs.unattributed_share",
        (traced - t.attributed()) / traced.max(f64::MIN_POSITIVE),
    );
    l.insert(
        "obs.overhead_share",
        traced / untraced.max(f64::MIN_POSITIVE) - 1.0,
    );
}

/// Per-layer counts read from one engine run's public result structs.
pub fn engine_layers(run: &mut Run, b: &BatchRun) {
    let m = RunMetrics::of(b);
    let solves = b.solves.max(1) as f64;
    let executed: Vec<f64> = b.pool.executed.iter().map(|&e| e as f64).collect();
    let mean = executed.iter().sum::<f64>() / executed.len().max(1) as f64;
    let max = executed.iter().copied().fold(0.0, f64::max);
    let l = &mut run.layers;
    l.insert("core.escalated", m.escalated as f64);
    l.insert("core.rescued", m.rescued as f64);
    l.insert("batch.pattern_hit_ratio", b.pattern_hits as f64 / solves);
    l.insert("batch.lane_occupancy", m.lane_occupancy.unwrap_or(0.0));
    l.insert(
        "batch.scalar_fallback_ratio",
        b.scalar_fallbacks as f64 / solves,
    );
    l.insert(
        "batch.worker_imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    heldout: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        heldout: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--seed-set" => {
                args.heldout = match value()?.as_str() {
                    "dev" => false,
                    "heldout" => true,
                    other => return Err(format!("--seed-set takes dev or heldout, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: if args.heldout {
            stats::mix(args.seed, HELDOUT_SALT)
        } else {
            args.seed
        },
        seconds: args.seconds as f64,
        traced: args.trace,
        threads,
    };
    let mut run = match args.workload.as_str() {
        "pdn_sweep" => sweep::pdn_sweep(&ctx),
        "batch_mixed" => batch::batch_mixed(&ctx),
        "serve_eco" => serve::serve_eco(&ctx),
        _ => sweep::pdn_oracle(&ctx),
    };
    run.e2e.insert("peak_rss_mb", stats::peak_rss_mb());

    for line in &run.notes {
        println!("{line}");
    }
    let measured = run.threads_granted >= run.threads_requested;
    println!(
        "host: nproc {threads}, cpu \"{}\", threads requested {} granted {}, measured {measured}",
        stats::cpu_model(),
        run.threads_requested,
        run.threads_granted,
    );
    for b in &run.broken {
        eprintln!("check failed: {b}");
    }
    let correct = run.broken.is_empty();
    let (table, values): (&[(&str, &str)], _) = if ctx.traced {
        (&PER_LAYER, &run.layers)
    } else {
        (&END_TO_END, &run.e2e)
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).copied().filter(|v| v.is_finite());
            println!("{name:<32} {:>16} {unit}", v.unwrap_or(0.0));
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.unwrap_or(0.0)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: every workload in a child process of its own (so
/// each peak-memory reading covers that workload alone), output relayed.
fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            rest.push(a);
        }
    }
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        let status = Command::new(&exe)
            .arg("--workload")
            .arg(w)
            .args(&rest)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{w}: exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("{w}: cannot start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
