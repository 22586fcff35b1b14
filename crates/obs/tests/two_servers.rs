//! Two HTTP servers in one process, each with its own API handler,
//! health, trace seed and tail store. Each must answer only from its
//! own state: its own `/api/` plane, its own `/healthz`, trace ids
//! minted from its own seed, and a `/tracez/export` that lists only
//! the requests it served.
//!
//! The tail store only records while the flight recorder is on, a
//! process-wide flag, so this test lives in its own process.

use cable_obs::context::TraceCtx;
use cable_obs::json::Value;
use cable_obs::{ApiHandler, ApiRequest, ApiResponse, HealthInfo, ObsServer, ServerConfig};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

struct Echo;

impl ApiHandler for Echo {
    fn handle(&self, request: &ApiRequest) -> ApiResponse {
        ApiResponse::json(
            200,
            &Value::object([("echo", Value::from(request.route.as_str()))]),
        )
    }
}

/// One GET; returns (status line, body).
fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("head/body split");
    (
        head.lines().next().unwrap_or("").to_owned(),
        body.to_owned(),
    )
}

fn json(body: &str) -> Value {
    Value::parse(body.trim()).expect("body is JSON")
}

/// The trace ids listed in an export's summaries.
fn exported_traces(export: &Value) -> BTreeSet<String> {
    export
        .get("summaries")
        .and_then(Value::as_array)
        .expect("summaries array")
        .iter()
        .filter_map(|s| s.get("trace").and_then(Value::as_str).map(str::to_owned))
        .collect()
}

#[test]
fn two_servers_in_one_process_answer_from_their_own_state() {
    cable_obs::recorder::set_recording(true);
    let config = |seed| ServerConfig {
        trace_seed: seed,
        trace_slow_us: 0,
        ..ServerConfig::default()
    };
    let echo = ObsServer::bind("0", config(101))
        .expect("bind echo server")
        .with_api(Arc::new(Echo))
        .with_health(HealthInfo {
            generation: 7,
            journal_lag_bytes: 64,
            journal_lag_records: 1,
            degraded: None,
        })
        .spawn();
    let plain = ObsServer::bind("0", config(202))
        .expect("bind plain server")
        .spawn();

    // Interleave requests so a shared counter or store would show.
    for _ in 0..3 {
        let (status, body) = get(echo.addr(), "/api/sessions");
        assert!(status.contains("200"), "{status} {body}");
        assert_eq!(
            json(&body).get("echo").and_then(Value::as_str),
            Some("/api/sessions")
        );
        let (status, body) = get(plain.addr(), "/api/sessions");
        assert!(status.contains("404"), "{status}");
        assert!(body.contains("--api"), "{body}");
    }

    let (_, body) = get(echo.addr(), "/healthz");
    let health = json(&body);
    assert_eq!(health.get("store").and_then(Value::as_str), Some("open"));
    assert_eq!(health.get("generation").and_then(Value::as_u64), Some(7));
    let (_, body) = get(plain.addr(), "/healthz");
    let health = json(&body);
    assert_eq!(health.get("store").and_then(Value::as_str), Some("none"));
    assert!(health.get("generation").is_none(), "{body}");

    // Each server numbers its own requests from 0 under its own seed:
    // three API calls and one /healthz so far, and the export request
    // itself is recorded only after it has answered.
    let minted = |seed: u64| -> BTreeSet<String> {
        (0..4)
            .map(|seq| TraceCtx::mint(seed, seq).trace_hex())
            .collect()
    };
    let (_, body) = get(echo.addr(), "/tracez/export");
    assert_eq!(exported_traces(&json(&body)), minted(101));
    let (_, body) = get(plain.addr(), "/tracez/export");
    assert_eq!(exported_traces(&json(&body)), minted(202));

    drop(echo);
    drop(plain);
}
