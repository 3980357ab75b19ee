//! The daemon: request dispatch, session registry, and the stdio/TCP
//! serving loops.
//!
//! One [`ServeState`] holds every session behind a two-level lock — the
//! registry map briefly, then the targeted session for the duration of
//! its request — so concurrent connections working on *different*
//! sessions analyze in parallel. [`handle_line`] is the whole protocol:
//! one request line in, one response line out, never a panic, which is
//! also what makes the daemon drivable in-process by tests and the
//! load-generator bench without a socket.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use awe_batch::{BatchOptions, BatchRun, Design};
use awe_circuit::CircuitError;
use awe_obs::flight::{flight_trace, live_profile, FlightTrigger};
use awe_obs::windows::WindowSnapshot;

use crate::json::Json;
use crate::protocol::{parse_request, DesignSource, ErrorCode, Request, RunOpts, ServeError};
use crate::session::Session;
use crate::telemetry::{eco_class_index, render_prometheus, verb_index, DaemonGauges, Telemetry};

/// Requests handled (well-formed or not).
static REQUESTS: awe_obs::Counter = awe_obs::Counter::new("serve.requests");
/// Requests answered with an error response.
static ERRORS: awe_obs::Counter = awe_obs::Counter::new("serve.errors");

/// Flight-recorder policy for a daemon.
#[derive(Clone, Debug)]
pub struct FlightOptions {
    /// Whether anomalous requests trigger automatic dumps. The
    /// `dump_trace` verb works regardless.
    pub enabled: bool,
    /// Directory automatic dumps (and default-pathed `dump_trace`
    /// dumps) are written to.
    pub dir: PathBuf,
    /// Additionally dump when a request's latency reaches this many
    /// microseconds.
    pub latency_threshold_us: Option<u64>,
}

impl Default for FlightOptions {
    fn default() -> Self {
        FlightOptions {
            enabled: false,
            dir: std::env::temp_dir(),
            latency_threshold_us: None,
        }
    }
}

/// Daemon-wide configuration.
#[derive(Clone, Debug, Default)]
pub struct ServeOptions {
    /// Default batch options for new sessions (per-session `opts`
    /// override them).
    pub defaults: BatchOptions,
    /// Flight-recorder policy (disabled by default, so in-process
    /// embedders — tests, benches — never write files as a side
    /// effect).
    pub flight: FlightOptions,
}

/// Request classes for the latency metrics (and the serve bench).
const CLASSES: [&str; 4] = ["load_design", "eco", "analyze", "other"];

/// Automatic flight dumps are rate-limited to one per this interval.
const FLIGHT_DUMP_MIN_INTERVAL_NS: u64 = 1_000_000_000;

/// Shared daemon state: the session registry plus request metrics.
#[derive(Debug)]
pub struct ServeState {
    defaults: BatchOptions,
    flight: FlightOptions,
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    shutdown: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Request-id mint: every protocol line gets the next id, malformed
    /// lines included, so every event recorded under this daemon is
    /// attributable.
    next_request: AtomicU64,
    /// Per-class lifetime request latencies in microseconds, in the
    /// power-of-two buckets of the telemetry windows: recording is one
    /// bucket increment, and a `metrics` reply copies the counts out and
    /// reads its quantiles after the lock is released.
    latencies: Mutex<[WindowSnapshot; 4]>,
    /// Rolling-window latency telemetry.
    telemetry: Mutex<Telemetry>,
    /// Flight dumps written, and the most recent dump's path.
    flight_dumps: AtomicU64,
    last_flight_path: Mutex<Option<String>>,
    /// Monotonic time (telemetry clock) of the last automatic dump —
    /// the rate limiter.
    last_flight_ns: AtomicU64,
}

impl ServeState {
    /// A daemon with no sessions.
    pub fn new(options: ServeOptions) -> Self {
        ServeState {
            defaults: options.defaults,
            flight: options.flight,
            sessions: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            next_request: AtomicU64::new(1),
            latencies: Mutex::new(std::array::from_fn(|_| WindowSnapshot::empty())),
            telemetry: Mutex::new(Telemetry::new()),
            flight_dumps: AtomicU64::new(0),
            last_flight_path: Mutex::new(None),
            last_flight_ns: AtomicU64::new(0),
        }
    }

    /// Whether a `shutdown` request has been handled.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().expect("session registry").len()
    }

    fn session(&self, name: &str) -> Result<Arc<Mutex<Session>>, ServeError> {
        self.sessions
            .lock()
            .expect("session registry")
            .get(name)
            .cloned()
            .ok_or_else(|| {
                ServeError::new(
                    ErrorCode::NoSuchSession,
                    format!("no session named `{name}`"),
                )
            })
    }

    fn record_latency(&self, class: &str, micros: u64) {
        let slot = CLASSES.iter().position(|c| *c == class).unwrap_or(3);
        self.latencies.lock().expect("latency metrics")[slot].record(micros as f64);
    }

    /// Point-in-time gauges for the exposition. Session sums use
    /// `try_lock` so a scrape never queues behind a long-running
    /// analysis — a busy session's counters are simply a scrape stale.
    fn gauges(&self) -> DaemonGauges {
        let mut g = DaemonGauges {
            requests_total: self.requests.load(Ordering::Relaxed),
            errors_total: self.errors.load(Ordering::Relaxed),
            anomalies_total: awe_obs::anomaly_count(),
            flight_dumps_total: self.flight_dumps.load(Ordering::Relaxed),
            obs_ring_dropped: awe_obs::live_dropped(),
            ..DaemonGauges::default()
        };
        let (lanes, lane_events) = awe_obs::live_occupancy();
        g.obs_lanes = lanes;
        g.obs_lane_events = lane_events;
        let registry = self.sessions.lock().expect("session registry");
        g.sessions = registry.len();
        for slot in registry.values() {
            if let Ok(s) = slot.try_lock() {
                g.cached_results += s.cached_results() as u64;
                g.cached_patterns += s.cached_patterns() as u64;
                g.solves_total += s.stats.solves;
                g.cache_hits_total += s.stats.cache_hits;
                g.pattern_hits_total += s.stats.pattern_hits;
            }
        }
        g
    }

    /// The Prometheus text-format exposition document served by
    /// `--metrics-addr` (also handy for tests and one-shot scrapes).
    pub fn prometheus_text(&self) -> String {
        let gauges = self.gauges();
        let mut tel = self.telemetry.lock().expect("telemetry");
        render_prometheus(&mut tel, &gauges)
    }
}

/// Handles one request line, returning exactly one response line (no
/// trailing newline). Never panics on any input; a `shutdown` request
/// flips [`ServeState::shutting_down`] after building its response.
///
/// Every line — malformed ones included — is minted a request id,
/// echoed back as the response's `req` field and installed as the obs
/// request scope, so every span and health event recorded while the
/// request runs (on any thread, via the pool's scope forwarding)
/// carries it.
pub fn handle_line(state: &ServeState, line: &str) -> String {
    let t0 = Instant::now();
    REQUESTS.incr();
    state.requests.fetch_add(1, Ordering::Relaxed);
    let rid = state.next_request.fetch_add(1, Ordering::Relaxed);
    let _req = awe_obs::req_scope(rid);
    let anomalies_before = awe_obs::anomaly_count();
    let (id, parsed) = parse_request(line);
    let mut eco_class: Option<usize> = None;
    let (verb, class, session, result) = match parsed {
        Err(e) => ("other", "other", None, Err(e)),
        Ok(req) => {
            let verb = verb_name(&req);
            let class = match &req {
                Request::LoadDesign { .. } => "load_design",
                Request::Eco { .. } => "eco",
                Request::Analyze { .. } => "analyze",
                _ => "other",
            };
            let session = request_session(&req);
            (
                verb,
                class,
                session,
                dispatch(state, req, rid, &mut eco_class),
            )
        }
    };
    let micros = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    state.record_latency(class, micros);
    let ok = result.is_ok();
    {
        let mut tel = state.telemetry.lock().expect("telemetry");
        tel.record_request(verb_index(verb), ok, micros);
        if let Some(ci) = eco_class {
            tel.record_eco_class(ci, micros);
        }
    }
    let response = match result {
        Ok((verb, mut payload)) => {
            let mut pairs = vec![
                ("id".to_owned(), id),
                ("req".to_owned(), Json::from(rid)),
                ("ok".to_owned(), Json::Bool(true)),
                ("verb".to_owned(), Json::str(verb)),
            ];
            if let Json::Obj(fields) = &mut payload {
                pairs.append(fields);
            }
            Json::Obj(pairs)
        }
        Err(e) => {
            ERRORS.incr();
            state.errors.fetch_add(1, Ordering::Relaxed);
            Json::obj(vec![
                ("id", id),
                ("req", Json::from(rid)),
                ("ok", Json::Bool(false)),
                ("error", e.to_json()),
            ])
        }
    };
    let anomaly_delta = awe_obs::anomaly_count().saturating_sub(anomalies_before);
    maybe_flight_dump(
        state,
        rid,
        verb,
        session.as_deref(),
        ok,
        micros,
        anomaly_delta,
    );
    response.to_string()
}

/// The wire verb a parsed request records telemetry under.
fn verb_name(req: &Request) -> &'static str {
    match req {
        Request::LoadDesign { .. } => "load_design",
        Request::Eco { .. } => "eco",
        Request::Analyze { .. } => "analyze",
        Request::Report { .. } => "report",
        Request::Metrics { .. } => "metrics",
        Request::DumpTrace { .. } => "dump_trace",
        Request::Ping => "ping",
        Request::Close { .. } => "close",
        Request::Shutdown => "shutdown",
    }
}

/// The session a request targets, for flight-dump attribution.
fn request_session(req: &Request) -> Option<String> {
    match req {
        Request::LoadDesign { session, .. }
        | Request::Eco { session, .. }
        | Request::Analyze { session }
        | Request::Report { session, .. }
        | Request::Close { session } => Some(session.clone()),
        Request::Metrics { session } | Request::DumpTrace { session, .. } => session.clone(),
        Request::Ping | Request::Shutdown => None,
    }
}

/// Writes an automatic flight-recorder dump when the request that just
/// finished looks anomalous: it recorded a numerical-health anomaly
/// (condition warning, Padé/refactor rejection, oracle disagreement),
/// it answered with an error, or it blew the latency threshold. The
/// dump is the live lanes as a Chrome trace with a `flight_trigger`
/// instant naming the request, rate-limited to one per second so an
/// anomaly storm cannot flood the disk.
fn maybe_flight_dump(
    state: &ServeState,
    rid: u64,
    verb: &str,
    session: Option<&str>,
    ok: bool,
    micros: u64,
    anomaly_delta: u64,
) {
    if !state.flight.enabled || !awe_obs::enabled() {
        return;
    }
    let reason = if anomaly_delta > 0 {
        "anomaly"
    } else if !ok {
        "error_response"
    } else if state
        .flight
        .latency_threshold_us
        .is_some_and(|t| micros >= t)
    {
        "slow_request"
    } else {
        return;
    };
    // Rate limit: claim the dump slot with a CAS so concurrent anomalous
    // requests produce one dump, not one each. `0` means "never dumped"
    // (the clock may legitimately read < 1 s early in the process).
    let now = awe_obs::epoch_ns().max(1);
    let last = state.last_flight_ns.load(Ordering::Relaxed);
    if (last != 0 && now.saturating_sub(last) < FLIGHT_DUMP_MIN_INTERVAL_NS)
        || state
            .last_flight_ns
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
    {
        return;
    }
    let Some(profile) = live_profile() else {
        return;
    };
    let trace = flight_trace(
        &profile,
        &FlightTrigger {
            reason: reason.to_owned(),
            request: rid,
            verb: verb.to_owned(),
            session: session.map(str::to_owned),
            latency_us: micros,
        },
    );
    let path = state
        .flight
        .dir
        .join(format!("flight-req{rid:06}-{reason}.json"));
    if std::fs::write(&path, trace).is_ok() {
        state.flight_dumps.fetch_add(1, Ordering::Relaxed);
        *state.last_flight_path.lock().expect("flight path") = Some(path.display().to_string());
    }
}

type Reply = Result<(&'static str, Json), ServeError>;

fn dispatch(state: &ServeState, req: Request, rid: u64, eco_class: &mut Option<usize>) -> Reply {
    match req {
        Request::LoadDesign {
            session,
            source,
            opts,
        } => load_design(state, session, source, opts),
        Request::Eco { session, ops } => {
            let slot = state.session(&session)?;
            let mut s = slot.lock().expect("session");
            let _lane = lane_for(&session);
            let mut sp = awe_obs::span_labeled("serve.request", "eco");
            sp.note(ops.len() as f64, 0.0);
            let out = s.apply_ops(&ops)?;
            // Dominant change class for the per-class latency windows:
            // topology beats value beats noop.
            let dominant = if out.changes.iter().any(|c| c.class == "topology") {
                "topology"
            } else if out.changes.iter().any(|c| c.class == "value") {
                "value"
            } else {
                "noop"
            };
            *eco_class = eco_class_index(dominant);
            let changes: Vec<Json> = out
                .changes
                .iter()
                .map(|c| {
                    Json::obj(vec![
                        ("net", Json::str(&c.net)),
                        ("class", Json::str(c.class)),
                    ])
                })
                .collect();
            Ok((
                "eco",
                Json::obj(vec![
                    ("session", Json::str(&session)),
                    ("ops", Json::from(ops.len())),
                    ("changes", Json::Arr(changes)),
                    ("invalidated_results", Json::from(out.invalidated_results)),
                    ("invalidated_patterns", Json::from(out.invalidated_patterns)),
                ]),
            ))
        }
        Request::Analyze { session } => {
            let slot = state.session(&session)?;
            let mut s = slot.lock().expect("session");
            let _lane = lane_for(&session);
            let mut sp = awe_obs::span_labeled("serve.request", "analyze");
            let summary = s.analyze();
            sp.note(summary.solves as f64, summary.cache_hits as f64);
            Ok((
                "analyze",
                Json::obj(vec![
                    ("session", Json::str(&session)),
                    ("nets", Json::from(summary.nets)),
                    ("dirty_value", Json::from(summary.dirty_value)),
                    ("dirty_topology", Json::from(summary.dirty_topology)),
                    ("swept", Json::from(summary.swept)),
                    ("solves", Json::from(summary.solves)),
                    ("cache_hits", Json::from(summary.cache_hits)),
                    ("pattern_hits", Json::from(summary.pattern_hits)),
                    ("new_symbolic", Json::from(summary.new_symbolic)),
                    ("failures", Json::from(summary.failures)),
                    ("wall_us", Json::from(summary.wall.as_micros() as u64)),
                ]),
            ))
        }
        Request::Report { session, limit } => {
            let slot = state.session(&session)?;
            let s = slot.lock().expect("session");
            let run = s.last_run().ok_or_else(|| {
                ServeError::new(
                    ErrorCode::BadRequest,
                    format!("session `{session}` has not been analyzed yet"),
                )
            })?;
            Ok(("report", report_json(&session, run, limit)))
        }
        Request::Metrics { session } => match session {
            Some(name) => {
                let slot = state.session(&name)?;
                let s = slot.lock().expect("session");
                Ok(("metrics", session_metrics(&s)))
            }
            None => Ok(("metrics", global_metrics(state))),
        },
        Request::DumpTrace { session, path } => {
            let profile = live_profile().ok_or_else(|| {
                ServeError::new(
                    ErrorCode::BadRequest,
                    "no live obs recording (daemon started without tracing enabled)",
                )
            })?;
            let lanes = profile.lanes.len();
            let events: usize = profile.lanes.iter().map(|l| l.events.len()).sum();
            let dropped = profile.events_dropped();
            let out_path = match path {
                Some(p) => PathBuf::from(p),
                None => state
                    .flight
                    .dir
                    .join(format!("flight-req{rid:06}-on_demand.json")),
            };
            let trace = flight_trace(
                &profile,
                &FlightTrigger {
                    reason: "on_demand".to_owned(),
                    request: rid,
                    verb: "dump_trace".to_owned(),
                    session,
                    latency_us: 0,
                },
            );
            std::fs::write(&out_path, trace).map_err(|e| {
                ServeError::new(
                    ErrorCode::BadRequest,
                    format!("cannot write `{}`: {e}", out_path.display()),
                )
            })?;
            state.flight_dumps.fetch_add(1, Ordering::Relaxed);
            let shown = out_path.display().to_string();
            *state.last_flight_path.lock().expect("flight path") = Some(shown.clone());
            Ok((
                "dump_trace",
                Json::obj(vec![
                    ("path", Json::str(shown)),
                    ("lanes", Json::from(lanes)),
                    ("events", Json::from(events)),
                    ("dropped", Json::from(dropped)),
                ]),
            ))
        }
        Request::Ping => Ok(("ping", Json::obj(vec![]))),
        Request::Close { session } => {
            let existed = state
                .sessions
                .lock()
                .expect("session registry")
                .remove(&session)
                .is_some();
            if !existed {
                return Err(ServeError::new(
                    ErrorCode::NoSuchSession,
                    format!("no session named `{session}`"),
                ));
            }
            Ok(("close", Json::obj(vec![("session", Json::str(&session))])))
        }
        Request::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            Ok((
                "shutdown",
                Json::obj(vec![("sessions", Json::from(state.session_count()))]),
            ))
        }
    }
}

fn load_design(state: &ServeState, session: String, source: DesignSource, opts: RunOpts) -> Reply {
    // Reserve the name first so two concurrent loads cannot both build.
    {
        let registry = state.sessions.lock().expect("session registry");
        if registry.contains_key(&session) {
            return Err(ServeError::new(
                ErrorCode::DuplicateSession,
                format!("session `{session}` already exists"),
            ));
        }
    }
    let _lane = lane_for(&session);
    let mut sp = awe_obs::span_labeled("serve.request", "load_design");
    let design = build_design(&session, source)?;
    sp.note(design.len() as f64, 0.0);
    let mut s = Session::new(session.clone(), design, state.defaults, opts);
    let summary = s.analyze();
    let payload = Json::obj(vec![
        ("session", Json::str(&session)),
        ("design", Json::str(&s.design().name)),
        ("nets", Json::from(summary.nets)),
        ("groups", Json::from(s.group_count())),
        ("solves", Json::from(summary.solves)),
        ("pattern_hits", Json::from(summary.pattern_hits)),
        ("new_symbolic", Json::from(summary.new_symbolic)),
        ("failures", Json::from(summary.failures)),
        ("wall_us", Json::from(summary.wall.as_micros() as u64)),
    ]);
    let mut registry = state.sessions.lock().expect("session registry");
    if registry.contains_key(&session) {
        // Lost a race with an identically named concurrent load.
        return Err(ServeError::new(
            ErrorCode::DuplicateSession,
            format!("session `{session}` already exists"),
        ));
    }
    registry.insert(session, Arc::new(Mutex::new(s)));
    Ok(("load_design", payload))
}

fn build_design(session: &str, source: DesignSource) -> Result<Design, ServeError> {
    match source {
        DesignSource::Deck { name, deck } => Design::from_deck(name, &deck).map_err(|e| {
            let mut err = ServeError::new(ErrorCode::DeckError, e.to_string())
                .with_net(deck_error_net(&deck, &e).unwrap_or_else(|| "net1".to_owned()));
            if let CircuitError::Parse { line, .. } = e {
                err = err.with_line(line);
            }
            err
        }),
        DesignSource::Chains { nets, stages, seed } => {
            Ok(Design::synthetic_chains(nets, stages, seed))
        }
        DesignSource::Synthetic { nets, seed } => Ok(Design::synthetic(nets, seed)),
    }
    .and_then(|d| {
        if d.is_empty() {
            Err(ServeError::new(ErrorCode::DeckError, "design has no nets")
                .with_net(format!("{session}/<empty>")))
        } else {
            Ok(d)
        }
    })
}

/// Names the net a deck error belongs to: the last `* NET <name>` header
/// at or before the offending line (the multi-deck convention), or the
/// 1-based positional name when the deck uses no headers.
fn deck_error_net(deck: &str, err: &CircuitError) -> Option<String> {
    let CircuitError::Parse { line, .. } = err else {
        return None;
    };
    let mut current: Option<String> = None;
    let mut position = 0usize;
    for (lineno, raw) in deck.lines().enumerate() {
        if lineno + 1 > *line {
            break;
        }
        let text = raw.split(';').next().unwrap_or("").trim();
        if let Some(rest) = text.strip_prefix('*') {
            let mut words = rest.split_whitespace();
            if words.next().is_some_and(|w| w.eq_ignore_ascii_case("net")) {
                if let Some(name) = words.next() {
                    position += 1;
                    current = Some(name.to_owned());
                }
            }
        } else if text.eq_ignore_ascii_case(".end") {
            current = None;
        } else if !text.is_empty() && !text.starts_with('.') && current.is_none() {
            position += 1;
            current = Some(format!("net{position}"));
        }
    }
    current
}

fn report_json(session: &str, run: &BatchRun, limit: Option<usize>) -> Json {
    let cap = limit.unwrap_or(usize::MAX).min(run.results.len());
    let nets: Vec<Json> = run.results[..cap]
        .iter()
        .map(|r| {
            let mut pairs = vec![
                ("name", Json::str(&r.name)),
                ("hash", Json::str(format!("{:016x}", r.hash))),
                ("order", Json::from(r.order)),
                ("stable", Json::from(r.stable)),
                ("rescued", Json::from(r.rescued)),
                ("cache_hit", Json::from(r.cache_hit)),
                ("delay_50", r.delay_50.map(Json::Num).unwrap_or(Json::Null)),
                ("final_value", Json::Num(r.final_value)),
                (
                    "error_estimate",
                    r.error_estimate.map(Json::Num).unwrap_or(Json::Null),
                ),
            ];
            if let Some(e) = &r.error {
                pairs.push(("error", Json::str(e)));
            }
            Json::obj(pairs)
        })
        .collect();
    Json::obj(vec![
        ("session", Json::str(session)),
        ("design", Json::str(&run.design)),
        ("nets_total", Json::from(run.results.len())),
        ("nets", Json::Arr(nets)),
    ])
}

fn session_metrics(s: &Session) -> Json {
    let st = &s.stats;
    Json::obj(vec![
        ("session", Json::str(&s.name)),
        ("nets", Json::from(s.design().len())),
        ("structure_groups", Json::from(s.group_count())),
        ("cached_results", Json::from(s.cached_results())),
        ("cached_patterns", Json::from(s.cached_patterns())),
        ("ecos", Json::from(st.ecos)),
        ("eco_ops", Json::from(st.eco_ops)),
        ("value_nets", Json::from(st.value_nets)),
        ("topology_nets", Json::from(st.topology_nets)),
        ("noop_nets", Json::from(st.noop_nets)),
        ("analyses", Json::from(st.analyses)),
        ("solves", Json::from(st.solves)),
        ("cache_hits", Json::from(st.cache_hits)),
        ("pattern_hits", Json::from(st.pattern_hits)),
        ("new_symbolic", Json::from(st.new_symbolic())),
        ("invalidated_results", Json::from(st.invalidated_results)),
        ("invalidated_patterns", Json::from(st.invalidated_patterns)),
    ])
}

fn global_metrics(state: &ServeState) -> Json {
    let latencies = state.latencies.lock().expect("latency metrics").clone();
    let classes: Vec<(String, Json)> = CLASSES
        .iter()
        .zip(&latencies)
        .map(|(class, hist)| {
            (
                (*class).to_owned(),
                Json::obj(vec![
                    ("count", Json::from(hist.count)),
                    ("p50_us", quantile_us(hist, 0.5)),
                    ("p99_us", quantile_us(hist, 0.99)),
                ]),
            )
        })
        .collect();
    let (lanes, lane_events) = awe_obs::live_occupancy();
    let last_flight = state
        .last_flight_path
        .lock()
        .expect("flight path")
        .clone()
        .map(Json::str)
        .unwrap_or(Json::Null);
    let (telemetry, uptime_s) = {
        let mut tel = state.telemetry.lock().expect("telemetry");
        let uptime = tel.uptime_s();
        (tel.json(), uptime)
    };
    Json::obj(vec![
        ("sessions", Json::from(state.session_count())),
        (
            "requests",
            Json::from(state.requests.load(Ordering::Relaxed)),
        ),
        ("errors", Json::from(state.errors.load(Ordering::Relaxed))),
        ("uptime_s", Json::Num(uptime_s)),
        ("classes", Json::Obj(classes)),
        ("obs_lanes", Json::from(lanes)),
        ("obs_lane_events", Json::from(lane_events)),
        ("obs_ring_dropped", Json::from(awe_obs::live_dropped())),
        ("anomalies", Json::from(awe_obs::anomaly_count())),
        (
            "flight_dumps",
            Json::from(state.flight_dumps.load(Ordering::Relaxed)),
        ),
        ("last_flight_dump", last_flight),
        ("telemetry", telemetry),
    ])
}

/// Nearest-rank quantile `q` of a latency histogram in whole
/// microseconds, `null` when empty: the geometric midpoint of the
/// power-of-two bucket the rank lands in, rounded — within a factor √2
/// of the exact order statistic, in the same bucket. A rank in the
/// underflow bucket (a 0 µs latency) reads 0.
fn quantile_us(hist: &WindowSnapshot, q: f64) -> Json {
    if hist.count == 0 {
        return Json::Null;
    }
    let v = hist.quantile(q);
    Json::from(if v < 1.0 { 0 } else { v.round() as u64 })
}

fn lane_for(session: &str) -> awe_obs::LaneScope {
    awe_obs::lane_scope(&format!("session:{session}"))
}

/// Serves newline-delimited requests from `input` to `output` until EOF
/// or a `shutdown` request. This is the `--stdio` loop, generic so tests
/// can drive it with in-memory buffers.
pub fn serve_lines<R: BufRead, W: Write>(
    state: &ServeState,
    input: R,
    mut output: W,
) -> io::Result<()> {
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line(state, &line);
        output.write_all(response.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        if state.shutting_down() {
            break;
        }
    }
    Ok(())
}

/// Serves TCP connections, one thread per client, until a `shutdown`
/// request arrives on any of them. Returns the error only for the
/// listener itself; per-connection I/O errors just end that connection.
pub fn serve_tcp(state: Arc<ServeState>, listener: TcpListener) -> io::Result<()> {
    let local = listener.local_addr()?;
    let mut workers = Vec::new();
    for stream in listener.incoming() {
        if state.shutting_down() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let state = Arc::clone(&state);
        workers.push(std::thread::spawn(move || {
            let reader = BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            });
            let was_shutdown = state.shutting_down();
            let _ = serve_lines(&state, reader, &stream);
            // The connection that handled `shutdown` wakes the blocked
            // accept loop with a throwaway connection.
            if !was_shutdown && state.shutting_down() {
                let _ = TcpStream::connect(local);
            }
        }));
    }
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

/// Serves the Prometheus exposition on `listener`: every connection gets
/// one scrape — request headers are read (and ignored) up to a short
/// timeout, then the full document is written with an HTTP/1.0 response
/// and the connection closes. Runs until the daemon shuts down; meant
/// for a dedicated thread next to [`serve_tcp`].
pub fn serve_metrics_endpoint(state: Arc<ServeState>, listener: TcpListener) -> io::Result<()> {
    for stream in listener.incoming() {
        if state.shutting_down() {
            break;
        }
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            // Drain the request line + headers so the client sees a
            // well-ordered exchange; never block a scrape on a slow or
            // silent client.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            let mut buf = [0u8; 1024];
            let mut seen: Vec<u8> = Vec::new();
            loop {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        seen.extend_from_slice(&buf[..n]);
                        if seen.windows(4).any(|w| w == b"\r\n\r\n")
                            || seen.windows(2).any(|w| w == b"\n\n")
                        {
                            break;
                        }
                    }
                }
            }
            let body = state.prometheus_text();
            let response = format!(
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; \
                 charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                body
            );
            let _ = stream.write_all(response.as_bytes());
            let _ = stream.flush();
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use awe_obs::bucket_index;

    fn class_reply(state: &ServeState, class: &str) -> Json {
        global_metrics(state)
            .get("classes")
            .and_then(|c| c.get(class))
            .cloned()
            .unwrap_or_else(|| panic!("no class {class}"))
    }

    /// Exact nearest-rank quantile of `sorted` (the rank the histogram
    /// walks to).
    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn latency_quantiles_land_in_the_exact_bucket() {
        let state = ServeState::new(ServeOptions::default());
        assert_eq!(class_reply(&state, "eco").get("p50_us"), Some(&Json::Null));

        // A spread over six decades, zeros included.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut samples: Vec<u64> = (0..997)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if i % 50 == 0 {
                    0
                } else {
                    x % 10u64.pow(1 + (x % 6) as u32)
                }
            })
            .collect();
        for &us in &samples {
            state.record_latency("eco", us);
        }
        samples.sort_unstable();
        let reply = class_reply(&state, "eco");
        assert_eq!(reply.get("count").and_then(Json::as_u64), Some(997));
        for (field, q) in [("p50_us", 0.5), ("p99_us", 0.99)] {
            let got = reply.get(field).and_then(Json::as_u64).expect(field);
            let want = exact(&samples, q);
            assert_eq!(
                bucket_index(got as f64),
                bucket_index(want as f64),
                "{field}: reported {got}, exact {want}"
            );
        }
    }

    #[test]
    fn every_request_is_counted_once() {
        let state = ServeState::new(ServeOptions::default());
        for _ in 0..25 {
            handle_line(&state, r#"{"verb":"ping"}"#);
        }
        handle_line(&state, "not json");
        // The metrics request itself records after its reply is built.
        let reply = class_reply(&state, "other");
        assert_eq!(reply.get("count").and_then(Json::as_u64), Some(26));
        let (p50, p99) = (reply.get("p50_us"), reply.get("p99_us"));
        let (p50, p99) = (p50.and_then(Json::as_u64), p99.and_then(Json::as_u64));
        assert!(p50.is_some() && p99 >= p50, "{reply}");
        assert_eq!(
            class_reply(&state, "eco")
                .get("count")
                .and_then(Json::as_u64),
            Some(0)
        );
    }
}
