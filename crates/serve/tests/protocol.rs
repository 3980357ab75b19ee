//! Protocol robustness: the daemon answers every line — well-formed or
//! garbage — with exactly one JSON response, never panics, and keeps
//! serving the session afterwards. Typed errors carry the machine code,
//! the echoed request id, and (for deck failures) the offending net and
//! line.

use awe_serve::json::parse;
use awe_serve::{handle_line, Json, ServeOptions, ServeState};

fn state() -> ServeState {
    ServeState::new(ServeOptions::default())
}

/// Sends one line and parses the response with the daemon's own JSON
/// parser — a response that fails to parse fails the test.
fn send(st: &ServeState, line: &str) -> Json {
    let reply = handle_line(st, line);
    assert!(!reply.contains('\n'), "one response, one line: {reply:?}");
    parse(&reply).unwrap_or_else(|e| panic!("daemon emitted invalid JSON ({e}): {reply}"))
}

fn ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool).unwrap_or(false)
}

fn code(v: &Json) -> &str {
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or("<none>")
}

fn num(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("field {key} in {v}"))
}

fn req(pairs: Vec<(&str, Json)>) -> String {
    Json::obj(pairs).to_string()
}

#[test]
fn garbage_mid_session_never_kills_the_daemon() {
    let st = state();
    let loaded = send(
        &st,
        &req(vec![
            ("id", Json::from(1u64)),
            ("verb", Json::str("load_design")),
            ("session", Json::str("s")),
            (
                "chains",
                Json::obj(vec![
                    ("nets", Json::from(3u64)),
                    ("stages", Json::from(12u64)),
                    ("seed", Json::from(7u64)),
                ]),
            ),
        ]),
    );
    assert!(ok(&loaded), "{loaded}");
    assert_eq!(num(&loaded, "nets"), 3);

    // A stream of hostile lines mid-session: every one of them gets a
    // typed error response and nothing else changes.
    let garbage: Vec<String> = vec![
        "".into(), // serve_lines skips blanks; handle_line must still answer
        "not json at all".into(),
        "{".into(),
        "{\"id\":9".into(),
        "[1,2,3]".into(),
        "\"just a string\"".into(),
        "42".into(),
        "null".into(),
        "{\"id\":10}".into(),
        "{\"id\":11,\"verb\":42}".into(),
        "{\"id\":12,\"verb\":\"frobnicate\"}".into(),
        "{\"id\":13,\"verb\":\"analyze\"}".into(),
        "{\"id\":14,\"verb\":\"analyze\",\"session\":17}".into(),
        "{\"id\":15,\"verb\":\"analyze\",\"session\":\"ghost\"}".into(),
        "{\"id\":16,\"verb\":\"eco\",\"session\":\"s\",\"ops\":\"nope\"}".into(),
        "{\"id\":17,\"verb\":\"eco\",\"session\":\"s\",\"ops\":[{\"op\":\"warp\",\"net\":\"n\"}]}".into(),
        "{\"id\":18,\"verb\":\"eco\",\"session\":\"s\",\"ops\":[{\"op\":\"remove\",\"net\":\"net0001\",\"element\":\"GONE\"}]}".into(),
        "{\"verb\":\"load_design\",\"session\":\"s\",\"deck\":\"R1\"}".into(), // duplicate name
        "\u{1}\u{2}\u{3}".into(),
        "{\"id\":\"x\",\"verb\":\"ping\"} trailing".into(),
        "[".repeat(5000),
        format!("{{\"id\":19,\"verb\":\"ping\",\"pad\":\"{}\"}}", "a".repeat(100_000)),
    ];
    for line in &garbage {
        let r = send(&st, line);
        // The oversized-but-valid ping is fine; everything else errors.
        if line.contains("\"pad\"") {
            assert!(ok(&r), "big but valid: {line:.60}");
            continue;
        }
        assert!(!ok(&r), "must reject: {line:.60}");
        assert_ne!(code(&r), "<none>", "typed code for: {line:.60}");
    }

    // The session survived it all: analyze is pure cache, metrics agree.
    let analyzed = send(
        &st,
        &req(vec![
            ("id", Json::from(99u64)),
            ("verb", Json::str("analyze")),
            ("session", Json::str("s")),
        ]),
    );
    assert!(ok(&analyzed), "{analyzed}");
    assert_eq!(num(&analyzed, "solves"), 0);
    assert_eq!(num(&analyzed, "cache_hits"), 3);
    let metrics = send(&st, "{\"verb\":\"metrics\"}");
    assert!(ok(&metrics), "{metrics}");
    assert_eq!(num(&metrics, "sessions"), 1);
    assert!(num(&metrics, "errors") >= 20);
}

#[test]
fn ids_echo_verbatim_for_success_and_error() {
    let st = state();
    for (id_json, expect) in [
        ("7", Json::Num(7.0)),
        ("\"req-a\"", Json::str("req-a")),
        ("3.25", Json::Num(3.25)),
        ("null", Json::Null),
        ("{\"batch\":[1,2]}", parse("{\"batch\":[1,2]}").unwrap()),
    ] {
        let r = send(&st, &format!("{{\"id\":{id_json},\"verb\":\"ping\"}}"));
        assert!(ok(&r));
        assert_eq!(r.get("id"), Some(&expect), "echo {id_json}");
        let r = send(&st, &format!("{{\"id\":{id_json},\"verb\":\"nope\"}}"));
        assert!(!ok(&r));
        assert_eq!(r.get("id"), Some(&expect), "echo {id_json} on error too");
    }
}

#[test]
fn error_codes_are_specific() {
    let st = state();
    let load = req(vec![
        ("verb", Json::str("load_design")),
        ("session", Json::str("dup")),
        (
            "chains",
            Json::obj(vec![
                ("nets", Json::from(1u64)),
                ("stages", Json::from(4u64)),
            ]),
        ),
    ]);
    assert!(ok(&send(&st, &load)));
    assert_eq!(code(&send(&st, &load)), "duplicate_session");
    assert_eq!(
        code(&send(&st, "{\"verb\":\"close\",\"session\":\"ghost\"}")),
        "no_such_session"
    );
    assert_eq!(code(&send(&st, "}{")), "bad_json");
    assert_eq!(code(&send(&st, "{\"verb\":\"warp\"}")), "unknown_verb");
    assert_eq!(code(&send(&st, "{\"verb\":\"report\"}")), "bad_request");
    let eco = send(
        &st,
        "{\"verb\":\"eco\",\"session\":\"dup\",\"ops\":[{\"op\":\"resize\",\"net\":\"net0001\",\"element\":\"R1\",\"value\":-4}]}",
    );
    assert_eq!(code(&eco), "eco_error");
    assert_eq!(
        eco.get("error")
            .and_then(|e| e.get("net"))
            .and_then(Json::as_str),
        Some("net0001")
    );

    // close works, and the session is really gone.
    assert!(ok(&send(&st, "{\"verb\":\"close\",\"session\":\"dup\"}")));
    assert_eq!(
        code(&send(&st, "{\"verb\":\"analyze\",\"session\":\"dup\"}")),
        "no_such_session"
    );
}

#[test]
fn deck_errors_name_the_net_and_line() {
    let st = state();
    // Line 8 (1-based) holds the malformed card, inside `* NET bad`.
    let deck = "* NET good\n\
                V1 in 0 STEP 0 5\n\
                R1 in out 1k\n\
                C1 out 0 1p\n\
                .end\n\
                * NET bad\n\
                V1 in 0 STEP 0 5\n\
                R1 in out notanumber\n\
                C1 out 0 1p\n";
    let r = send(
        &st,
        &req(vec![
            ("id", Json::from(4u64)),
            ("verb", Json::str("load_design")),
            ("session", Json::str("d")),
            ("deck", Json::str(deck)),
        ]),
    );
    assert!(!ok(&r), "{r}");
    let err = r.get("error").expect("error object");
    assert_eq!(err.get("code").and_then(Json::as_str), Some("deck_error"));
    assert_eq!(err.get("net").and_then(Json::as_str), Some("bad"));
    assert_eq!(err.get("line").and_then(Json::as_u64), Some(8));
    let message = err.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(message.contains("line 8"), "{message}");
    // The failed load left nothing behind: the name is free again.
    assert_eq!(st.session_count(), 0);

    // Headerless decks attribute by 1-based position.
    let r = send(
        &st,
        &req(vec![
            ("verb", Json::str("load_design")),
            ("session", Json::str("d2")),
            (
                "deck",
                Json::str("V1 in 0 STEP 0 5\nR1 in out 1k\nC1 out 0 1p\n.end\nV1 in 0 STEP 0 5\nRX in out\n"),
            ),
        ]),
    );
    let err = r.get("error").expect("error object");
    assert_eq!(err.get("net").and_then(Json::as_str), Some("net2"));
    assert_eq!(err.get("line").and_then(Json::as_u64), Some(6));
}

/// A multi-megabyte inline deck loads: the JSON string scanner copies
/// unescaped runs whole, so parsing stays linear in the line length.
#[test]
fn multi_megabyte_inline_deck_loads() {
    let nets = 500;
    let deck = awe_batch::Design::synthetic_chains(nets, 200, 3).to_multi_deck();
    assert!(deck.len() >= 4 << 20, "deck is only {} bytes", deck.len());
    let st = state();
    let loaded = send(
        &st,
        &req(vec![
            ("id", Json::from(1u64)),
            ("verb", Json::str("load_design")),
            ("session", Json::str("big")),
            ("deck", Json::str(&deck)),
        ]),
    );
    assert!(ok(&loaded), "{loaded}");
    assert_eq!(num(&loaded, "nets"), nets as u64);
}
