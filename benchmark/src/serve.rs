//! `serve_eco`: closed-loop clients on one warm daemon session, driven
//! through `awe_serve::handle_line` — the entry point the stdio and TCP
//! transports use.
//!
//! Set-up loads 500 RC chains of 200 stages into one session. Each client
//! owns a disjoint slice of the nets and repeats a fixed mix of ten
//! steps: eight value edits (`eco` resize, then `analyze`), one topology
//! edit (adding or, next time, removing one cap, then `analyze`, so the
//! design does not drift) and one read (`report` or the daemon-wide
//! `metrics`, alternately). One client runs the first part of the window
//! alone, then `nproc` clients share the rest.
//!
//! The session loads through the `chains` source, not an inline deck: the
//! daemon's JSON string parser re-validates the rest of the line for
//! every character, so a multi-megabyte deck line does not finish. The
//! cold-reload check therefore parses the final deck and builds the cold
//! `Session` directly, which is what `load_design` does with a deck.

use std::collections::HashMap;
use std::time::Instant;

use awe_batch::{Design, NetResult, NetSpec};
use awe_serve::{handle_line, EcoOp, Json, RunOpts, ServeOptions, ServeState, Session};

use crate::pipeline::Timers;
use crate::stats::{beyond, median, mix, percentile, unit, Run, TAIL_SAMPLES};
use crate::{pipeline_layers, setup, two_passes, Ctx, Setups};

const NETS: usize = 500;
const STAGES: usize = 200;
const SESSION: &str = "eco";
const SETUPS: usize = 5;
/// Share of the window the single client runs before the others join.
const SOLO_SHARE: f64 = 0.3;
const TAIL: f64 = 99.0;
/// Steps the traced pass sends through one client.
const TRACED_STEPS: u64 = 400;
/// Entries a `report` read asks for.
const REPORT_LIMIT: usize = 10;

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Value,
    Topology,
    Read,
}

/// One timed step: its class, the verb it ended with, when it started
/// (seconds into the window) and its latency.
struct Sample {
    class: Class,
    verb: &'static str,
    at: f64,
    ms: f64,
}

/// Replies, timed steps and `analyze` reply fields of one client.
#[derive(Default)]
struct Tally {
    replies: u64,
    failed: u64,
    broken: Vec<String>,
    samples: Vec<Sample>,
    /// Summed `new_symbolic` of analyses with no topology edit pending.
    new_symbolic_value: u64,
    swept: Vec<f64>,
    analyze_wall_us: Vec<f64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.replies += other.replies;
        self.failed += other.failed;
        self.broken.extend(other.broken);
        self.samples.extend(other.samples);
        self.new_symbolic_value += other.new_symbolic_value;
        self.swept.extend(other.swept);
        self.analyze_wall_us.extend(other.analyze_wall_us);
    }

    fn latencies(&self, class: Class) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.ms)
            .collect()
    }
}

/// One closed-loop client: the nets it owns, the edits it committed (to
/// rebuild the final design), its step counter and whether its cap is in.
struct Client {
    id: usize,
    seed: u64,
    nets: Vec<String>,
    log: Vec<EcoOp>,
    step: u64,
    cap_in: bool,
}

impl Client {
    /// Client `id` of `count` owns every `count`-th net. The first net is
    /// left alone: it is the structure group's donor, whose values fix the
    /// pivot order the group shares, and the final check compares against
    /// a cold reload.
    fn new(id: usize, count: usize, seed: u64) -> Self {
        Client {
            id,
            seed,
            nets: (1..NETS)
                .filter(|i| i % count == id)
                .map(|i| format!("net{:04}", i + 1))
                .collect(),
            log: Vec::new(),
            step: 0,
            cap_in: false,
        }
    }

    fn cap_name(&self) -> String {
        format!("CB{}", self.id)
    }

    /// The edit of step `i`, when the step is an edit.
    fn edit(&mut self, i: u64) -> Option<EcoOp> {
        match i % 10 {
            0..=7 => {
                let net = self.nets[(i as usize) % self.nets.len()].clone();
                let k = mix(self.seed, (self.id as u64) << 48 | i);
                Some(EcoOp::Resize {
                    net,
                    element: format!("R{}", 1 + k % STAGES as u64),
                    value: 50.0 + 100.0 * unit(k, 1),
                })
            }
            8 => {
                let net = self.nets[0].clone();
                let op = if self.cap_in {
                    EcoOp::Remove {
                        net,
                        element: self.cap_name(),
                    }
                } else {
                    EcoOp::Add {
                        net,
                        card: format!("{} n4 0 2e-15", self.cap_name()),
                    }
                };
                self.cap_in = !self.cap_in;
                Some(op)
            }
            _ => None,
        }
    }
}

fn eco_line(op: &EcoOp) -> String {
    let op = match op {
        EcoOp::Resize {
            net,
            element,
            value,
        } => Json::obj(vec![
            ("op", Json::str("resize")),
            ("net", Json::str(net)),
            ("element", Json::str(element)),
            ("value", Json::Num(*value)),
        ]),
        EcoOp::Add { net, card } => Json::obj(vec![
            ("op", Json::str("add")),
            ("net", Json::str(net)),
            ("card", Json::str(card)),
        ]),
        EcoOp::Remove { net, element } => Json::obj(vec![
            ("op", Json::str("remove")),
            ("net", Json::str(net)),
            ("element", Json::str(element)),
        ]),
        EcoOp::SetSource { .. } => unreachable!("the mix sends no source edits"),
    };
    Json::obj(vec![
        ("verb", Json::str("eco")),
        ("session", Json::str(SESSION)),
        ("ops", Json::Arr(vec![op])),
    ])
    .to_string()
}

fn analyze_line() -> String {
    format!(r#"{{"verb":"analyze","session":"{SESSION}"}}"#)
}

/// The read of step `i`: its verb and request line.
fn read_line(i: u64) -> (&'static str, String) {
    if (i / 10).is_multiple_of(2) {
        (
            "report",
            format!(r#"{{"verb":"report","session":"{SESSION}","limit":{REPORT_LIMIT}}}"#),
        )
    } else {
        ("metrics", r#"{"verb":"metrics"}"#.to_owned())
    }
}

/// Seeds travel as JSON numbers (f64), so keep them to 53 bits.
fn chain_seed(seed: u64) -> u64 {
    seed & ((1 << 53) - 1)
}

fn load_line(seed: u64) -> String {
    format!(
        r#"{{"verb":"load_design","session":"{SESSION}","chains":{{"nets":{NETS},"stages":{STAGES},"seed":{}}}}}"#,
        chain_seed(seed)
    )
}

/// Sends one line; returns the parsed reply (`None` unless `ok:true`)
/// and the latency in ms.
fn send(state: &ServeState, line: &str, tally: &mut Tally) -> (Option<Json>, f64) {
    let t = Instant::now();
    let reply = handle_line(state, line);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tally.replies += 1;
    let parsed = awe_serve::json::parse(&reply)
        .ok()
        .filter(|j| j.get("ok") == Some(&Json::Bool(true)));
    if parsed.is_none() {
        tally.failed += 1;
        if tally.broken.len() < 3 {
            tally
                .broken
                .push(format!("reply not ok: {line:.80} -> {reply:.200}"));
        }
    }
    (parsed, ms)
}

fn field(reply: &Option<Json>, key: &str) -> u64 {
    reply
        .as_ref()
        .and_then(|r| r.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Runs step `client.step` of the mix and records it.
fn step(state: &ServeState, client: &mut Client, tally: &mut Tally, t0: Instant) {
    let i = client.step;
    client.step += 1;
    let at = t0.elapsed().as_secs_f64();
    match client.edit(i) {
        Some(op) => {
            let class = if matches!(op, EcoOp::Resize { .. }) {
                Class::Value
            } else {
                Class::Topology
            };
            let (_, eco_ms) = send(state, &eco_line(&op), tally);
            let (reply, analyze_ms) = send(state, &analyze_line(), tally);
            if field(&reply, "dirty_topology") == 0 {
                tally.new_symbolic_value += field(&reply, "new_symbolic");
            }
            tally.swept.push(field(&reply, "swept") as f64);
            if class == Class::Value {
                tally.analyze_wall_us.push(field(&reply, "wall_us") as f64);
            }
            client.log.push(op);
            tally.samples.push(Sample {
                class,
                verb: "analyze",
                at,
                ms: eco_ms + analyze_ms,
            });
        }
        None => {
            let (verb, line) = read_line(i);
            let (_, ms) = send(state, &line, tally);
            tally.samples.push(Sample {
                class: Class::Read,
                verb,
                at,
                ms,
            });
        }
    }
}

/// Runs the client until `until` (seconds into the window) and until it
/// has sent `min_edits` value edits, then takes its cap out again if it
/// is in.
fn drive(
    state: &ServeState,
    client: &mut Client,
    t0: Instant,
    until: f64,
    min_edits: usize,
) -> Tally {
    let mut tally = Tally::default();
    let edits = |t: &Tally| t.samples.iter().filter(|s| s.class == Class::Value).count();
    while t0.elapsed().as_secs_f64() < until || edits(&tally) < min_edits {
        step(state, client, &mut tally, t0);
    }
    if client.cap_in {
        // Skip ahead to the next topology step.
        client.step += (18 - client.step % 10) % 10;
        step(state, client, &mut tally, t0);
    }
    tally
}

/// Whether a `report` row carries exactly a result's fields (everything
/// the report prints but `cache_hit`).
fn row_matches(row: &Json, r: &NetResult) -> bool {
    let bits = |key: &str| row.get(key).and_then(Json::as_f64).map(f64::to_bits);
    row.get("name").and_then(Json::as_str) == Some(r.name.as_str())
        && row.get("hash").and_then(Json::as_str) == Some(format!("{:016x}", r.hash).as_str())
        && row.get("order").and_then(Json::as_u64) == Some(r.order as u64)
        && row.get("stable").and_then(Json::as_bool) == Some(r.stable)
        && row.get("rescued").and_then(Json::as_bool) == Some(r.rescued)
        && bits("delay_50") == r.delay_50.map(f64::to_bits)
        && bits("final_value") == Some(r.final_value.to_bits())
        && bits("error_estimate") == r.error_estimate.map(f64::to_bits)
        && row.get("error").and_then(Json::as_str) == r.error.as_deref()
}

fn new_state(ctx: &Ctx) -> ServeState {
    ServeState::new(ServeOptions {
        defaults: ctx.opts(ctx.threads),
        ..ServeOptions::default()
    })
}

/// A daemon with the session loaded; `None` when the load failed.
fn loaded(ctx: &Ctx) -> Option<ServeState> {
    let state = new_state(ctx);
    let (reply, _) = send(&state, &load_line(ctx.seed), &mut Tally::default());
    reply.map(|_| state)
}

pub fn serve_eco(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    // One copy: the cold load already runs on every CPU.
    let setups = Setups {
        reps: SETUPS,
        copies: 1,
        batch: 1,
    };
    let (state, setups) = setup(setups, || loaded(ctx));
    let Some(state) = state else {
        run.check(false, || "load_design failed".to_owned());
        return run;
    };
    // The same nets, generated here to rebuild the final design.
    let t = Instant::now();
    let design = Design::synthetic_chains(NETS, STAGES, chain_seed(ctx.seed));
    let gen = t.elapsed().as_secs_f64();

    let clients = ctx.threads.max(1);
    let t0 = Instant::now();
    let mut solo_client = Client::new(0, clients, ctx.seed);
    let solo = drive(&state, &mut solo_client, t0, ctx.seconds * SOLO_SHARE, 0);
    // Enough shared-phase value edits for TAIL_SAMPLES beyond the tail.
    let min_edits = (TAIL_SAMPLES * 100).div_ceil(clients);
    let solo_step = solo_client.step;
    let solo_wall = t0.elapsed().as_secs_f64();
    let (shared, logs): (Tally, Vec<Vec<EcoOp>>) = std::thread::scope(|scope| {
        let state = &state;
        let workers: Vec<_> = (0..clients)
            .map(|id| {
                scope.spawn(move || {
                    let mut c = Client::new(id, clients, ctx.seed);
                    // Client 0 picks up where its solo run left off, so it
                    // never re-sends a value its nets already hold.
                    if id == 0 {
                        c.step = solo_step;
                    }
                    let tally = drive(state, &mut c, t0, ctx.seconds, min_edits);
                    (tally, c.log)
                })
            })
            .collect();
        let mut all = Tally::default();
        let mut logs = Vec::new();
        for w in workers {
            let (tally, log) = w.join().expect("client thread panicked");
            all.merge(tally);
            logs.push(log);
        }
        (all, logs)
    });
    let shared_wall = t0.elapsed().as_secs_f64() - solo_wall;

    // Outside the window: the warm session's full report must equal a
    // cold load of the final deck.
    let mut check = Tally::default();
    let (warm, _) = send(
        &state,
        &format!(r#"{{"verb":"report","session":"{SESSION}"}}"#),
        &mut check,
    );
    let mut final_design = design.clone();
    for op in solo_client.log.iter().chain(logs.iter().flatten()) {
        let applied = final_design
            .net_mut(op.net())
            .map(|net| op.apply(&mut net.circuit));
        run.check(matches!(applied, Some(Ok(()))), || {
            format!("edit `{op}` does not apply to the final design")
        });
    }
    let deck = final_design.to_multi_deck();
    let t = Instant::now();
    let parsed = Design::from_deck("cold", &deck);
    let parse = t.elapsed().as_secs_f64();
    let same = parsed.is_ok_and(|d| {
        let mut cold = Session::new("cold", d, ctx.opts(ctx.threads), RunOpts::default());
        cold.analyze();
        let rows = warm
            .as_ref()
            .and_then(|w| w.get("nets"))
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        cold.last_run().is_some_and(|r| {
            r.results.len() == rows.len()
                && rows
                    .iter()
                    .zip(&r.results)
                    .all(|(row, r)| row_matches(row, r))
        })
    });
    run.check(same, || {
        "the warm session's report differs from a cold load of the final deck".to_owned()
    });
    run.broken.extend(check.broken);

    let mut all = solo;
    let solo_samples = all.samples.len();
    let solo_replies = all.replies;
    all.merge(shared);
    run.attempted = all.replies;
    run.failed = all.failed;
    run.broken.extend(all.broken.iter().cloned());
    run.check(all.new_symbolic_value == 0, || {
        format!(
            "value edits paid {} symbolic factorizations",
            all.new_symbolic_value
        )
    });

    let shared_samples = Tally {
        samples: all.samples.split_off(solo_samples),
        ..Tally::default()
    };
    let solo_samples = Tally {
        samples: std::mem::take(&mut all.samples),
        ..Tally::default()
    };
    let edits = shared_samples.latencies(Class::Value);
    let solo_edits = solo_samples.latencies(Class::Value);
    let topo = shared_samples.latencies(Class::Topology);
    let reads = shared_samples.latencies(Class::Read);
    let throughput = (all.replies - solo_replies) as f64 / shared_wall;
    let throughput_1t = solo_replies as f64 / solo_wall;
    run.threads_requested = clients;
    run.threads_granted = clients.min(ctx.threads);
    run.check(beyond(edits.len(), TAIL) >= TAIL_SAMPLES, || {
        format!("only {} value edits for p{TAIL}", edits.len())
    });
    run.e2e.insert("setup_s", median(&setups));
    run.e2e.insert("throughput_per_s", throughput);
    run.e2e.insert("latency_p50_ms", percentile(&edits, 50.0));
    run.e2e.insert("latency_tail_ms", percentile(&edits, TAIL));
    run.note(format!(
        "serve_eco: {NETS} chains of {STAGES} stages, 1 client for {solo_wall:.1} s then \
         {clients} clients for {shared_wall:.1} s"
    ));
    run.note(format!(
        "requests_per_s {throughput:.1} 1/s ({} replies), 1 client {throughput_1t:.1} 1/s",
        all.replies - solo_replies
    ));
    run.note(format!(
        "edit_p50_ms {:.4}, edit_p99_ms {:.4} over {} value edits (p90 {:.4}, p95 {:.4})",
        percentile(&edits, 50.0),
        percentile(&edits, TAIL),
        edits.len(),
        percentile(&edits, 90.0),
        percentile(&edits, 95.0),
    ));
    run.note(format!(
        "topo_p50_ms {:.4}, topo_p95_ms {:.4} over {}; read_p50_ms {:.4} over {}",
        percentile(&topo, 50.0),
        percentile(&topo, 95.0),
        topo.len(),
        percentile(&reads, 50.0),
        reads.len()
    ));

    if ctx.traced {
        let l = &mut run.layers;
        l.insert("serve.topo_p50_ms", percentile(&topo, 50.0));
        l.insert("serve.topo_p95_ms", percentile(&topo, 95.0));
        l.insert("serve.read_p50_ms", percentile(&reads, 50.0));
        l.insert(
            "serve.contention_ms",
            percentile(&edits, 50.0) - percentile(&solo_edits, 50.0),
        );
        // Daemon-wide `metrics` latency late in the run over early in it.
        let mut metrics: Vec<(f64, f64)> = solo_samples
            .samples
            .iter()
            .chain(&shared_samples.samples)
            .filter(|s| s.verb == "metrics")
            .map(|s| (s.at, s.ms))
            .collect();
        metrics.sort_by(|a, b| a.0.total_cmp(&b.0));
        let ms: Vec<f64> = metrics.iter().map(|m| m.1).collect();
        let tenth = ms.len() / 10;
        if tenth > 0 {
            l.insert(
                "serve.metrics_growth",
                median(&ms[ms.len() - tenth..]) / median(&ms[..tenth]),
            );
        }
        l.insert("serve.swept_per_analyze", median(&all.swept));
        l.insert("serve.new_symbolic_value", all.new_symbolic_value as f64);
        l.insert("batch.run_s", median(&all.analyze_wall_us) / 1e6);
        l.insert("batch.throughput_1t_per_s", throughput_1t);
        l.insert(
            "batch.scaling_eff",
            throughput / (run.threads_granted as f64 * throughput_1t),
        );
        l.insert("circuit.gen_ms", gen * 1e3);
        l.insert("circuit.parse_ms", parse * 1e3);
        traced_pass(ctx, &mut run, &design);
    }
    run
}

/// One client's mix through `handle_line` on a fresh session, each
/// request timed per verb, with every re-solve the session performs
/// repeated through the layer calls of [`crate::pipeline::Pipeline`] on
/// a mirror design. The mirror's delays must match the session's final
/// report.
fn traced_pass(ctx: &Ctx, run: &mut Run, design: &Design) {
    let mut matched = true;
    let (p, _, _, traced, untraced) = two_passes(ctx.opts(ctx.threads), |p| {
        let Some(state) = loaded(ctx) else {
            matched = false;
            return ((), 0.0);
        };
        let mut tally = Tally::default();
        let mut mirror = design.clone();
        // The session's load solved every net; so does the mirror, untimed.
        let timers = std::mem::replace(&mut p.timers, Timers::new(false));
        p.solve(mirror.nets());
        p.timers = timers;

        let mut client = Client::new(0, 1, ctx.seed);
        let mut solved: HashMap<String, Option<f64>> = HashMap::new();
        let mut cap_key = None;
        let t0 = Instant::now();
        for _ in 0..TRACED_STEPS {
            let i = client.step;
            client.step += 1;
            let Some(op) = client.edit(i) else {
                let (verb, line) = read_line(i);
                let key = if verb == "report" {
                    "serve.report"
                } else {
                    "serve.metrics"
                };
                let t = p.timers.start();
                send(&state, &line, &mut tally);
                p.timers.stop(key, t);
                continue;
            };
            let t = p.timers.start();
            send(&state, &eco_line(&op), &mut tally);
            p.timers.stop("serve.eco", t);
            let t = p.timers.start();
            send(&state, &analyze_line(), &mut tally);
            p.timers.stop("serve.analyze", t);

            let net = mirror
                .net_mut(op.net())
                .expect("the mirror holds every net");
            let t = p.timers.start();
            matched &= op.apply(&mut net.circuit).is_ok();
            p.timers.stop("circuit.edit", t);
            let spec: NetSpec = net.clone();
            match op {
                EcoOp::Add { .. } => cap_key = Some(spec.pattern_key()),
                // The capped net was alone in its group, which now empties.
                EcoOp::Remove { .. } => {
                    if let Some(k) = cap_key.take() {
                        p.forget(k);
                    }
                }
                _ => {}
            }
            let delay = p.solve(std::slice::from_ref(&spec))[0];
            solved.insert(spec.name, delay);
        }
        let wall = t0.elapsed().as_secs_f64();
        let (report, _) = send(
            &state,
            &format!(r#"{{"verb":"report","session":"{SESSION}"}}"#),
            &mut tally,
        );
        let rows = report
            .as_ref()
            .and_then(|r| r.get("nets"))
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        for row in rows {
            let name = row.get("name").and_then(Json::as_str).unwrap_or("");
            if let Some(d) = solved.get(name) {
                let reported = row.get("delay_50").and_then(Json::as_f64);
                matched &= d.map(f64::to_bits) == reported.map(f64::to_bits);
            }
        }
        matched &= tally.failed == 0 && !solved.is_empty();
        ((), wall)
    });
    run.check(matched, || {
        "traced pass: mirror delays differ from the session's report".to_owned()
    });
    let t = &p.timers;
    let l = &mut run.layers;
    l.insert("serve.eco_ms", t.median("serve.eco") * 1e3);
    l.insert("serve.analyze_ms", t.median("serve.analyze") * 1e3);
    l.insert("serve.report_ms", t.median("serve.report") * 1e3);
    l.insert("serve.metrics_ms", t.median("serve.metrics") * 1e3);
    pipeline_layers(run, &p, traced, untraced);
}
