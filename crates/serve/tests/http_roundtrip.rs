//! End-to-end integration: fit a model with `hics-core`, serve it over real
//! TCP, and drive it with raw HTTP/1.1 clients — including concurrent
//! connections whose responses must match direct engine scores bit-for-bit.

use hics_core::{FitBuilder, HicsParams};
use hics_data::model::NormKind;
use hics_data::SyntheticConfig;
use hics_outlier::QueryEngine;
use hics_serve::{ServeConfig, Server, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

struct RunningServer {
    addr: std::net::SocketAddr,
    handle: ShutdownHandle,
    thread: std::thread::JoinHandle<()>,
}

impl RunningServer {
    fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread");
    }
}

fn start_server(engine: QueryEngine) -> RunningServer {
    let server = Server::bind(
        engine,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            max_batch: 64,
            workers: 1,
            keep_alive: Duration::from_secs(5),
            max_connections: 64,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle().expect("handle");
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    RunningServer {
        addr,
        handle,
        thread,
    }
}

fn fit_engine() -> (QueryEngine, hics_data::LabeledDataset) {
    let g = SyntheticConfig::new(120, 5).with_seed(44).generate();
    let mut p = HicsParams::paper_defaults();
    p.search.m = 15;
    p.search.candidate_cutoff = 25;
    p.search.top_k = 8;
    p.lof_k = 6;
    let model = FitBuilder::new(p)
        .normalize(NormKind::MinMax)
        .fit(&g.dataset);
    (QueryEngine::from_model(&model, 2), g)
}

/// Sends one HTTP request on an existing stream and reads one response.
fn roundtrip(stream: &mut TcpStream, request: &str) -> (u16, String) {
    stream.write_all(request.as_bytes()).expect("send");
    read_response(stream)
}

/// Reads status code and body of one HTTP/1.1 response (Content-Length
/// framing, which the server always uses).
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read head");
        assert!(n > 0, "connection closed mid-head");
        buf.push(byte[0]);
    }
    let head = String::from_utf8(buf).expect("utf-8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_owned)
        })
        .expect("content-length header")
        .trim()
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

fn post_score(addr: std::net::SocketAddr, json_body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        json_body.len(),
        json_body
    );
    roundtrip(&mut stream, &request)
}

/// Extracts `"scores": [...]` from a response body without a JSON dep in
/// the test (split on brackets; scores are plain numbers).
fn parse_scores(body: &str) -> Vec<f64> {
    let inner = body
        .split('[')
        .nth(1)
        .and_then(|s| s.split(']').next())
        .expect("scores array");
    inner
        .split(',')
        .map(|t| t.trim().parse::<f64>().expect("numeric score"))
        .collect()
}

#[test]
fn serves_scores_matching_the_engine_bitwise() {
    let (engine, g) = fit_engine();
    let reference = engine.clone();
    let server = start_server(engine);

    let rows: Vec<Vec<f64>> = (0..6).map(|i| g.dataset.row(i * 7)).collect();
    let body = format!(
        "{{\"points\": [{}]}}",
        rows.iter()
            .map(|r| format!(
                "[{}]",
                r.iter().map(f64::to_string).collect::<Vec<_>>().join(",")
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    let (status, response) = post_score(server.addr, &body);
    assert_eq!(status, 200, "{response}");
    let scores = parse_scores(&response);
    assert_eq!(scores.len(), rows.len());
    for (i, (got, row)) in scores.iter().zip(&rows).enumerate() {
        let want = reference.score(row).expect("valid row");
        assert!(*got == want, "row {i}: served {got} != engine {want}");
    }
    server.stop();
}

#[test]
fn concurrent_connections_all_get_correct_answers() {
    let (engine, g) = fit_engine();
    let reference = std::sync::Arc::new(engine.clone());
    let server = start_server(engine);
    let addr = server.addr;

    let mut clients = Vec::new();
    for t in 0..8usize {
        let reference = std::sync::Arc::clone(&reference);
        let row = g.dataset.row((t * 13) % g.dataset.n());
        clients.push(std::thread::spawn(move || {
            let body = format!(
                "{{\"point\": [{}]}}",
                row.iter().map(f64::to_string).collect::<Vec<_>>().join(",")
            );
            let (status, response) = post_score(addr, &body);
            assert_eq!(status, 200, "{response}");
            let got: f64 = response
                .split(':')
                .nth(1)
                .and_then(|s| s.split('}').next())
                .expect("score field")
                .trim()
                .parse()
                .expect("numeric score");
            let want = reference.score(&row).expect("valid row");
            assert!(got == want, "client {t}: {got} != {want}");
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }

    // The stats endpoint saw all eight requests.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let (status, stats) = roundtrip(
        &mut stream,
        "GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert!(stats.contains("\"requests\":8"), "{stats}");
    server.stop();
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let (engine, _) = fit_engine();
    let server = start_server(engine);
    let mut stream = TcpStream::connect(server.addr).expect("connect");

    let (status, body) = roundtrip(&mut stream, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"status\":\"ok\"}");

    let (status, body) = roundtrip(&mut stream, "GET /model HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("\"attributes\":5"), "{body}");

    // Same socket, third request.
    let json = "{\"point\": [0.5, 0.5, 0.5, 0.5, 0.5]}";
    let request = format!(
        "POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
        json.len(),
        json
    );
    let (status, body) = roundtrip(&mut stream, &request);
    assert_eq!(status, 200, "{body}");
    server.stop();
}

#[test]
fn malformed_requests_get_4xx_not_hangs() {
    let (engine, _) = fit_engine();
    let server = start_server(engine);

    let (status, body) = post_score(server.addr, "{\"points\": [[1, 2]]}");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("error"), "{body}");

    let (status, _) = post_score(server.addr, "not json at all");
    assert_eq!(status, 400);

    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let (status, _) = roundtrip(
        &mut stream,
        "GET /no-such-route HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 404);

    // Framing the reactor rejects before any body is read. Each request is
    // sent whole (no bytes past what the server consumes), so the server's
    // close after answering is a clean FIN, never a reset.
    let mut oversized_head = String::from("GET / HTTP/1.1\r\nX-Pad: ");
    let pad = hics_serve::http::MAX_HEAD_BYTES + 1 - oversized_head.len();
    oversized_head.push_str(&"a".repeat(pad));
    for (request, want, msg) in [
        (
            "POST /score HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            411,
            "chunked bodies are not supported; send Content-Length",
        ),
        (
            "POST /score HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
            413,
            "body of 99999999999 bytes exceeds limit",
        ),
        (oversized_head.as_str(), 431, "request head too large"),
    ] {
        let mut stream = TcpStream::connect(server.addr).expect("connect");
        let (status, body) = roundtrip(&mut stream, request);
        assert_eq!(status, want, "{body}");
        assert!(body.contains(msg), "{body}");
    }

    // The peer half-closes mid-head and mid-body.
    for (request, msg) in [
        (
            "POST /score HTTP/1.1\r\nHost: t\r\n",
            "connection closed mid-request",
        ),
        (
            "POST /score HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
            "connection closed mid-body",
        ),
    ] {
        let mut stream = TcpStream::connect(server.addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let (status, body) = read_response(&mut stream);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains(msg), "{body}");
    }
    server.stop();
}
