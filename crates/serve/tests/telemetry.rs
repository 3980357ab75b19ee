//! Service-telemetry behavior: request-id minting and propagation into
//! obs events, the flight recorder (on-demand and anomaly-triggered),
//! and both renderings of the continuous telemetry (exposition text and
//! the stats dashboard).
//!
//! A recording is process-global, so every test that records serializes
//! on [`record_lock`].

use std::sync::{Mutex, PoisonError};

use awe_serve::json::parse;
use awe_serve::server::FlightOptions;
use awe_serve::{handle_line, Json, ServeOptions, ServeState};

static RECORD_LOCK: Mutex<()> = Mutex::new(());

fn record_lock() -> std::sync::MutexGuard<'static, ()> {
    RECORD_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn send(st: &ServeState, line: &str) -> Json {
    let reply = handle_line(st, line);
    parse(&reply).unwrap_or_else(|e| panic!("invalid reply JSON ({e}): {reply}"))
}

fn rid(reply: &Json) -> u64 {
    reply
        .get("req")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("reply missing req: {reply}"))
}

/// A per-test scratch directory under the target-adjacent temp dir.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("awe-serve-telemetry-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

const LOAD: &str =
    r#"{"id":1,"verb":"load_design","session":"s","chains":{"nets":4,"stages":8,"seed":5}}"#;
const ECO: &str = r#"{"id":2,"verb":"eco","session":"s","ops":[{"op":"resize","net":"net0001","element":"R3","value":180}]}"#;
const ANALYZE: &str = r#"{"id":3,"verb":"analyze","session":"s"}"#;

#[test]
fn every_reply_carries_a_fresh_request_id() {
    // Requests emit obs events; a recording test must not see them.
    let _guard = record_lock();
    let st = ServeState::new(ServeOptions::default());
    // Well-formed, error, and unparseable lines all get distinct,
    // strictly increasing ids: a log line is always attributable.
    let a = rid(&send(&st, LOAD));
    let b = rid(&send(&st, r#"{"verb":"analyze","session":"nope"}"#));
    let c = rid(&send(&st, "not json at all"));
    let d = rid(&send(&st, ANALYZE));
    assert!(
        a < b && b < c && c < d,
        "ids not increasing: {a} {b} {c} {d}"
    );
}

#[test]
fn request_ids_propagate_to_every_recorded_event() {
    let _guard = record_lock();
    let rec = awesim_recording();
    let st = ServeState::new(ServeOptions::default());
    let minted: Vec<u64> = [LOAD, ECO, ANALYZE]
        .iter()
        .map(|line| {
            let reply = send(&st, line);
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
            rid(&reply)
        })
        .collect();
    let analyze_rid = *minted.last().unwrap();
    let profile = rec.finish();
    let mut total = 0usize;
    let mut analyze_events = 0usize;
    for lane in &profile.lanes {
        for e in &lane.events {
            total += 1;
            assert!(
                minted.contains(&e.req),
                "event `{}` in lane `{}` has req {} outside the minted set {minted:?}",
                e.name,
                lane.label,
                e.req
            );
            if e.req == analyze_rid {
                analyze_events += 1;
            }
        }
    }
    assert!(total > 0, "the requests recorded nothing");
    // The analyze request reaches the batch engine and its solver spans
    // — on whatever thread the pool placed them — all tagged with the
    // minting request's id.
    assert!(
        analyze_events >= 2,
        "analyze request tagged only {analyze_events} events"
    );
}

#[test]
fn dump_trace_writes_a_valid_tagged_chrome_trace() {
    let _guard = record_lock();
    let rec = awesim_recording();
    let st = ServeState::new(ServeOptions::default());
    send(&st, LOAD);
    let path = scratch("dump").join("on-demand.json");
    let reply = send(
        &st,
        &format!(
            r#"{{"id":9,"verb":"dump_trace","session":"s","path":"{}"}}"#,
            path.display()
        ),
    );
    drop(rec);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    assert!(reply.get("events").and_then(Json::as_u64).unwrap() > 0);
    let text = std::fs::read_to_string(&path).expect("dump written");
    // Chrome's "JSON Array Format": the whole document is the event list.
    let trace = parse(&text).expect("dump is valid JSON");
    let events = trace.as_arr().expect("chrome trace is an event array");
    let trigger = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("flight_trigger"))
        .expect("trigger instant present");
    let args = trigger.get("args").expect("trigger args");
    assert_eq!(args.get("reason").and_then(Json::as_str), Some("on_demand"));
    assert_eq!(args.get("req"), Some(&Json::from(rid(&reply))));
    assert_eq!(args.get("session").and_then(Json::as_str), Some("s"));
}

#[test]
fn dump_trace_without_a_recording_is_a_typed_error() {
    let _guard = record_lock(); // must observe *no* recording
    let st = ServeState::new(ServeOptions::default());
    let reply = send(&st, r#"{"id":1,"verb":"dump_trace"}"#);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad_request")
    );
}

#[test]
fn error_responses_trigger_an_automatic_flight_dump() {
    let _guard = record_lock();
    let rec = awesim_recording();
    let dir = scratch("auto");
    for f in std::fs::read_dir(&dir).expect("scratch") {
        let _ = std::fs::remove_file(f.expect("entry").path());
    }
    let st = ServeState::new(ServeOptions {
        flight: FlightOptions {
            enabled: true,
            dir: dir.clone(),
            latency_threshold_us: None,
        },
        ..ServeOptions::default()
    });
    let reply = send(&st, r#"{"id":1,"verb":"analyze","session":"ghost"}"#);
    drop(rec);
    let bad_rid = rid(&reply);
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("scratch")
        .map(|f| f.expect("entry").path())
        .collect();
    assert_eq!(dumps.len(), 1, "exactly one dump: {dumps:?}");
    let name = dumps[0].file_name().unwrap().to_string_lossy().into_owned();
    assert_eq!(name, format!("flight-req{bad_rid:06}-error_response.json"));
    let trace = parse(&std::fs::read_to_string(&dumps[0]).expect("readable")).expect("valid JSON");
    assert!(trace.as_arr().is_some_and(|events| !events.is_empty()));
    // The daemon-wide metrics reply reports the dump.
    let metrics = send(&st, r#"{"verb":"metrics"}"#);
    assert_eq!(metrics.get("flight_dumps").and_then(Json::as_u64), Some(1));
    assert!(metrics
        .get("last_flight_dump")
        .and_then(Json::as_str)
        .is_some_and(|p| p.ends_with(&name)));
}

#[test]
fn disabled_flight_recorder_never_writes() {
    let _guard = record_lock();
    let rec = awesim_recording();
    let dir = scratch("disabled");
    let before = std::fs::read_dir(&dir).expect("scratch").count();
    // Default options: flight disabled — in-process embedders must not
    // grow files as a side effect of error responses.
    let st = ServeState::new(ServeOptions::default());
    send(&st, "garbage");
    drop(rec);
    assert_eq!(std::fs::read_dir(&dir).expect("scratch").count(), before);
}

#[test]
fn exposition_has_the_advertised_families() {
    // Requests emit obs events; a recording test must not see them.
    let _guard = record_lock();
    let st = ServeState::new(ServeOptions::default());
    send(&st, LOAD);
    send(&st, ECO);
    send(&st, ANALYZE);
    send(&st, "garbage");
    let text = st.prometheus_text();
    for family in [
        "# TYPE awesim_uptime_seconds gauge",
        "# TYPE awesim_requests_total counter",
        "awesim_request_errors_total 1",
        "awesim_sessions 1",
        "# TYPE awesim_obs_ring_dropped_total counter",
        "# TYPE awesim_anomalies_total counter",
        "awesim_requests_verb_total{verb=\"load_design\"} 1",
        "awesim_requests_verb_total{verb=\"other\"} 1",
        "awesim_request_latency_us{verb=\"analyze\",window=\"60s\",quantile=\"0.99\"}",
        "awesim_request_latency_us_count{verb=\"eco\",window=\"900s\"} 1",
        "awesim_eco_class_latency_us{class=\"value\",window=\"60s\",quantile=\"0.5\"}",
    ] {
        assert!(text.contains(family), "missing `{family}` in:\n{text}");
    }
    // Prometheus text format: every non-comment line is `name{labels} value`
    // with a parseable float value.
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (_, value) = line.rsplit_once(' ').expect("sample has a value");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad sample value: {line}"));
    }
}

#[test]
fn stats_dashboard_renders_the_metrics_reply() {
    // Requests emit obs events; a recording test must not see them.
    let _guard = record_lock();
    let st = ServeState::new(ServeOptions::default());
    send(&st, LOAD);
    send(&st, ANALYZE);
    let reply = send(&st, r#"{"verb":"metrics"}"#);
    let dash = awe_serve::render_stats(&reply);
    assert!(dash.contains("awesim daemon"), "{dash}");
    assert!(dash.contains("1 sessions"), "{dash}");
    assert!(dash.contains("load_design"), "{dash}");
    assert!(dash.contains("analyze"), "{dash}");
    // Degrades to `-` on a reply missing fields instead of panicking.
    let sparse = awe_serve::render_stats(&Json::obj(vec![("ok", Json::Bool(true))]));
    assert!(sparse.contains('-'), "{sparse}");
}

/// Starts the process-global recording, panicking with a useful message
/// if another test leaked one.
fn awesim_recording() -> awe_obs::Recording {
    awe_obs::Recording::start().expect("no other recording active")
}
