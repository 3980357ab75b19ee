//! Rendering a batch run as a text report and as machine-readable JSON.
//!
//! The text report has two parts: a *deterministic* per-net section
//! (identical bytes for identical inputs regardless of thread count or
//! cache temperature) and an optional timing section. Determinism tests
//! render with `include_timings = false` and compare bytes.

use std::fmt::Write as _;
use std::time::Duration;

use crate::engine::{BatchRun, NetResult};
use crate::metrics::{RunMetrics, SweepMetrics};
use crate::sweep::SweepRun;

/// Renders the run as a human-readable text report.
///
/// With `include_timings = false` only the deterministic section is
/// emitted: design name, per-net results, and the result census. Wall
/// times, throughput, latency percentiles, and scheduler stats (thread
/// and steal counts) are all timing-dependent and only appear with
/// `include_timings = true`.
pub fn text_report(run: &BatchRun, include_timings: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "batch report: {}", run.design);
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>5} {:>3} {:>4} {:>6} {:>12} {:>12}  status",
        "net", "nodes", "elems", "q", "esc", "stable", "err-est", "delay-50"
    );
    for r in &run.results {
        let _ = writeln!(out, "{}", net_line(r));
    }
    let m = RunMetrics::of(run);
    let _ = writeln!(
        out,
        "nets {}  solves {}  cache-hits {} ({:.1} %)  failures {}  escalated {}  rescued {}",
        m.nets,
        m.solves,
        m.cache_hits,
        100.0 * m.hit_rate(),
        m.failures,
        m.escalated,
        m.rescued
    );
    let _ = writeln!(out, "shared {}", m.shared);
    if let Some(worst) = m.worst_error {
        let _ = writeln!(out, "worst error estimate {}", sci(worst));
    }
    if include_timings {
        let _ = writeln!(
            out,
            "wall {}  parse {}  throughput {:.1} nets/s",
            dur(m.wall),
            dur(m.parse_time),
            m.nets_per_sec
        );
        let _ = writeln!(
            out,
            "latency p50 {}  p95 {}  p99 {}",
            dur(m.p50),
            dur(m.p95),
            dur(m.p99)
        );
        let _ = writeln!(out, "stages (cpu):  {}", stage_line(&m.stages_cpu));
        let _ = writeln!(out, "stages (wall): {}", stage_line(&m.stages_wall));
        let _ = writeln!(out, "pattern-hits {}", m.pattern_hits);
        let _ = writeln!(out, "{}", tape_line(&m));
        let _ = writeln!(
            out,
            "threads {}  steals {}  per-worker {:?}",
            run.pool.threads,
            run.pool.total_steals(),
            run.pool.executed
        );
    }
    out
}

/// The timed `tape` line of the batch and sweep text reports.
fn tape_line(m: &RunMetrics) -> String {
    format!(
        "tapes compiled {}  fill-ratio {}  replays {}  lane-occupancy {}  scalar-fallbacks {}  \
         stamped {}  rebuilt {}  materialized {}",
        m.tapes_compiled,
        m.fill_ratio.map_or("-".to_string(), |f| format!("{f:.2}")),
        m.tape_replays,
        m.lane_occupancy
            .map_or("-".to_string(), |o| format!("{:.0} %", 100.0 * o)),
        m.scalar_fallbacks,
        m.stamped,
        m.rebuilt,
        m.materialized
    )
}

/// The timed `tape` object of the batch and sweep JSON reports.
fn tape_json(m: &RunMetrics) -> String {
    format!(
        "{{\"compiled\": {}, \"fill_ratio\": {}, \"replays\": {}, \"lane_occupancy\": {}, \
         \"scalar_fallbacks\": {}, \"stamped\": {}, \"rebuilt\": {}, \"materialized\": {}}}",
        m.tapes_compiled,
        json_opt_f64(m.fill_ratio),
        m.tape_replays,
        json_opt_f64(m.lane_occupancy),
        m.scalar_fallbacks,
        m.stamped,
        m.rebuilt,
        m.materialized
    )
}

fn stage_line(s: &awe::StageTimings) -> String {
    format!(
        "mna {}  factor {}  refactor {}  moments {}  pade {}  residues {}",
        dur(s.mna),
        dur(s.factor),
        dur(s.refactor),
        dur(s.moments),
        dur(s.pade),
        dur(s.residues)
    )
}

fn net_line(r: &NetResult) -> String {
    let status = match (&r.error, r.cache_hit) {
        (Some(e), _) => format!("FAIL: {e}"),
        (None, true) => "cached".to_string(),
        (None, false) => "solved".to_string(),
    };
    format!(
        "{:<10} {:>5} {:>5} {:>3} {:>4} {:>6} {:>12} {:>12}  {}",
        r.name,
        r.nodes,
        r.elements,
        r.order,
        r.escalations,
        if r.stable { "yes" } else { "NO" },
        r.error_estimate.map_or("-".to_string(), sci),
        r.delay_50.map_or("-".to_string(), sci),
        status
    )
}

/// Renders the run as machine-readable JSON (hand-rolled — the workspace
/// carries no serde).
///
/// Timing fields (`wall_s`, per-stage seconds, latency percentiles,
/// scheduler stats) are included only with `include_timings = true`; the
/// remainder is deterministic.
pub fn json_report(run: &BatchRun, include_timings: bool) -> String {
    let m = RunMetrics::of(run);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"design\": {},", json_str(&run.design));
    let _ = writeln!(out, "  \"nets\": {},", m.nets);
    let _ = writeln!(out, "  \"solves\": {},", m.solves);
    let _ = writeln!(out, "  \"shared\": {},", m.shared);
    let _ = writeln!(out, "  \"cache_hits\": {},", m.cache_hits);
    let _ = writeln!(out, "  \"failures\": {},", m.failures);
    let _ = writeln!(out, "  \"escalated\": {},", m.escalated);
    let _ = writeln!(out, "  \"rescued\": {},", m.rescued);
    let _ = writeln!(out, "  \"worst_error\": {},", json_opt_f64(m.worst_error));
    if include_timings {
        let _ = writeln!(out, "  \"wall_s\": {},", json_f64(m.wall.as_secs_f64()));
        let _ = writeln!(
            out,
            "  \"parse_s\": {},",
            json_f64(m.parse_time.as_secs_f64())
        );
        let _ = writeln!(out, "  \"nets_per_sec\": {},", json_f64(m.nets_per_sec));
        let _ = writeln!(
            out,
            "  \"latency_s\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}},",
            json_f64(m.p50.as_secs_f64()),
            json_f64(m.p95.as_secs_f64()),
            json_f64(m.p99.as_secs_f64())
        );
        let _ = writeln!(out, "  \"stages_cpu_s\": {},", stage_json(&m.stages_cpu));
        let _ = writeln!(out, "  \"stages_wall_s\": {},", stage_json(&m.stages_wall));
        let _ = writeln!(out, "  \"pattern_hits\": {},", m.pattern_hits);
        let _ = writeln!(out, "  \"tape\": {},", tape_json(&m));
        let _ = writeln!(
            out,
            "  \"pool\": {{\"threads\": {}, \"steals\": {}}},",
            run.pool.threads,
            run.pool.total_steals()
        );
    }
    out.push_str("  \"results\": [\n");
    for (i, r) in run.results.iter().enumerate() {
        let comma = if i + 1 < run.results.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", net_json(r));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a corner sweep as a human-readable text report.
///
/// Like [`text_report`], the default section is deterministic (identical
/// bytes for identical base design + spec at any thread count or corner
/// order — the trailing digest line makes that checkable from a shell);
/// wall times and throughput only appear with `include_timings = true`.
pub fn sweep_text_report(sweep: &SweepRun, include_timings: bool) -> String {
    let m = SweepMetrics::of(sweep);
    let mut out = String::new();
    let _ = writeln!(out, "sweep report: {}", sweep.design);
    let _ = writeln!(
        out,
        "corners {}  sigma {}  seed {}  members {}  rejected {}",
        m.corners, sweep.spec.sigma, sweep.spec.seed, m.members, m.rejected
    );
    let _ = writeln!(
        out,
        "{:<16} {:>7} {:>6} {:>12} {:>12} {:>12} {:>12}  worst-corner",
        "node", "samples", "failed", "p50", "p95", "p99", "worst"
    );
    for n in &sweep.nodes {
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>6} {:>12} {:>12} {:>12} {:>12}  {}",
            n.node,
            n.samples,
            n.failed,
            n.p50.map_or("-".to_string(), sci),
            n.p95.map_or("-".to_string(), sci),
            n.p99.map_or("-".to_string(), sci),
            n.worst_delay.map_or("-".to_string(), sci),
            n.worst_corner
                .map_or("-".to_string(), |c| format!("c{c:04}")),
        );
    }
    for r in &sweep.rejected {
        let _ = writeln!(out, "rejected {r}");
    }
    let _ = writeln!(
        out,
        "solves {}  pattern-hits {}  new-symbolic {} (after donor {})",
        m.batch.solves, m.batch.pattern_hits, m.new_symbolic, m.new_symbolic_after_donor
    );
    let _ = writeln!(out, "shared {}", m.batch.shared);
    let _ = writeln!(out, "digest {:016x}", sweep.digest());
    if include_timings {
        let _ = writeln!(
            out,
            "wall {}  generate {}  {:.2} corners/s  ({:.1} members/s)",
            dur(sweep.run.wall),
            dur(sweep.generate_wall),
            m.corners_per_sec,
            m.batch.nets_per_sec
        );
        let _ = writeln!(out, "stages (cpu):  {}", stage_line(&m.batch.stages_cpu));
        let _ = writeln!(out, "{}", tape_line(&m.batch));
        let _ = writeln!(
            out,
            "threads {}  steals {}",
            sweep.run.pool.threads,
            sweep.run.pool.total_steals()
        );
    }
    out
}

/// Renders a corner sweep as machine-readable JSON (hand-rolled — the
/// workspace carries no serde). Timing fields are gated behind
/// `include_timings`; everything else, digest included, is
/// deterministic.
pub fn sweep_json_report(sweep: &SweepRun, include_timings: bool) -> String {
    let m = SweepMetrics::of(sweep);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"design\": {},", json_str(&sweep.design));
    let _ = writeln!(out, "  \"corners\": {},", m.corners);
    let _ = writeln!(out, "  \"sigma\": {},", json_f64(sweep.spec.sigma));
    let _ = writeln!(out, "  \"seed\": {},", sweep.spec.seed);
    let _ = writeln!(out, "  \"members\": {},", m.members);
    let _ = writeln!(out, "  \"solves\": {},", m.batch.solves);
    let _ = writeln!(out, "  \"shared\": {},", m.batch.shared);
    let _ = writeln!(out, "  \"cache_hits\": {},", m.batch.cache_hits);
    let _ = writeln!(out, "  \"pattern_hits\": {},", m.batch.pattern_hits);
    let _ = writeln!(out, "  \"new_symbolic\": {},", m.new_symbolic);
    let _ = writeln!(
        out,
        "  \"new_symbolic_after_donor\": {},",
        m.new_symbolic_after_donor
    );
    let _ = writeln!(out, "  \"failures\": {},", m.batch.failures);
    let _ = writeln!(out, "  \"digest\": \"{:016x}\",", sweep.digest());
    if include_timings {
        let _ = writeln!(
            out,
            "  \"wall_s\": {},",
            json_f64(sweep.run.wall.as_secs_f64())
        );
        let _ = writeln!(
            out,
            "  \"generate_s\": {},",
            json_f64(sweep.generate_wall.as_secs_f64())
        );
        let _ = writeln!(
            out,
            "  \"corners_per_sec\": {},",
            json_f64(m.corners_per_sec)
        );
        let _ = writeln!(out, "  \"tape\": {},", tape_json(&m.batch));
        let _ = writeln!(
            out,
            "  \"pool\": {{\"threads\": {}, \"steals\": {}}},",
            sweep.run.pool.threads,
            sweep.run.pool.total_steals()
        );
    }
    out.push_str("  \"rejected\": [\n");
    for (i, r) in sweep.rejected.iter().enumerate() {
        let comma = if i + 1 < sweep.rejected.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"corner\": {}, \"net\": {}, \"element\": {}, \"value\": {}}}{comma}",
            r.corner,
            json_str(&r.net),
            json_str(&r.element),
            json_f64(r.value)
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"nodes\": [\n");
    for (i, n) in sweep.nodes.iter().enumerate() {
        let comma = if i + 1 < sweep.nodes.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"node\": {}, \"samples\": {}, \"failed\": {}, \"p50\": {}, \"p95\": {}, \
             \"p99\": {}, \"worst_corner\": {}, \"worst_delay\": {}}}{comma}",
            json_str(&n.node),
            n.samples,
            n.failed,
            json_opt_f64(n.p50),
            json_opt_f64(n.p95),
            json_opt_f64(n.p99),
            n.worst_corner.map_or("null".to_string(), |c| c.to_string()),
            json_opt_f64(n.worst_delay)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn stage_json(s: &awe::StageTimings) -> String {
    format!(
        "{{\"mna\": {}, \"factor\": {}, \"refactor\": {}, \
         \"moments\": {}, \"pade\": {}, \"residues\": {}}}",
        json_f64(s.mna.as_secs_f64()),
        json_f64(s.factor.as_secs_f64()),
        json_f64(s.refactor.as_secs_f64()),
        json_f64(s.moments.as_secs_f64()),
        json_f64(s.pade.as_secs_f64()),
        json_f64(s.residues.as_secs_f64())
    )
}

fn net_json(r: &NetResult) -> String {
    let poles: Vec<String> = r
        .poles
        .iter()
        .map(|(re, im)| format!("[{}, {}]", json_f64(*re), json_f64(*im)))
        .collect();
    format!(
        "{{\"name\": {}, \"hash\": \"{:016x}\", \"nodes\": {}, \"elements\": {}, \
         \"requested_order\": {}, \"order\": {}, \"escalations\": {}, \"stable\": {}, \
         \"rescued\": {}, \"error_estimate\": {}, \"delay_50\": {}, \"final_value\": {}, \
         \"poles\": [{}], \"cache_hit\": {}, \"error\": {}}}",
        json_str(&r.name),
        r.hash,
        r.nodes,
        r.elements,
        r.requested_order,
        r.order,
        r.escalations,
        r.stable,
        r.rescued,
        json_opt_f64(r.error_estimate),
        json_opt_f64(r.delay_50),
        json_f64(r.final_value),
        poles.join(", "),
        r.cache_hit,
        r.error.as_deref().map_or("null".to_string(), json_str)
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number from an `f64` (shortest round-trip; non-finite → null,
/// which JSON cannot represent as a number).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map_or("null".to_string(), json_f64)
}

/// Scientific notation with fixed precision (deterministic).
fn sci(v: f64) -> String {
    format!("{v:.4e}")
}

/// Human duration: µs/ms/s with three significant-ish digits.
fn dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;
    use crate::engine::{BatchEngine, BatchOptions};

    #[test]
    fn deterministic_report_is_stable_across_threads() {
        let design = Design::synthetic(16, 9);
        let report = |threads| {
            let run = BatchEngine::new().run(
                &design,
                &BatchOptions {
                    threads,
                    ..BatchOptions::default()
                },
            );
            text_report(&run, false)
        };
        assert_eq!(report(1), report(4));
    }

    #[test]
    fn timing_section_gated() {
        let design = Design::synthetic(3, 1);
        let run = BatchEngine::new().run(&design, &BatchOptions::default());
        let bare = text_report(&run, false);
        let full = text_report(&run, true);
        assert!(!bare.contains("latency"));
        assert!(!bare.contains("threads"));
        assert!(full.contains("latency"));
        assert!(full.contains("nets/s"));
    }

    #[test]
    fn json_shape() {
        let design = Design::synthetic(2, 4);
        let run = BatchEngine::new().run(&design, &BatchOptions::default());
        let j = json_report(&run, true);
        assert!(j.contains("\"design\": \"synthetic-2\""));
        assert!(j.contains("\"nets\": 2"));
        assert!(j.contains("\"nets_per_sec\""));
        assert!(j.contains("\"name\": \"net0001\""));
        let bare = json_report(&run, false);
        assert!(!bare.contains("nets_per_sec"));
        // Balanced braces/brackets as a cheap well-formedness check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                j.matches(open).count(),
                j.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_opt_f64(None), "null");
        assert_eq!(json_opt_f64(Some(0.5)), "0.5");
    }
}
