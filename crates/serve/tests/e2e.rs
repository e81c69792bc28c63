//! End-to-end tests over real sockets: a served `gc_serve::Server`, the
//! blocking HTTP client, and the invariants the PR pins — byte-identical
//! cache hits, fingerprint-sensitive misses, deterministic LRU eviction,
//! valid Prometheus output, and ledger appends.

use std::net::TcpListener;
use std::thread::JoinHandle;

use gc_serve::http::request;
use gc_serve::load::{run_load, LoadMix, LoadOptions};
use gc_serve::server::report_bytes;
use gc_serve::{JobSpec, Server, ServerConfig};

fn start(cfg: ServerConfig) -> (String, JoinHandle<Result<(), String>>) {
    let server = Server::new(cfg).expect("server builds");
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.serve(listener));
    (addr, handle)
}

fn stop(addr: &str, handle: JoinHandle<Result<(), String>>) {
    let (status, _) = request(addr, "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    handle
        .join()
        .expect("serve thread")
        .expect("clean serve exit");
}

fn test_config() -> ServerConfig {
    ServerConfig {
        devices: 2,
        workers: 2,
        device: "warp32".into(),
        ..ServerConfig::default()
    }
}

/// A 4-cycle 0-1-3-2-0 as an inline-CSR job body.
const SQUARE: &str =
    r#"{"tenant":"t","row_ptr":[0,2,4,6,8],"col_idx":[1,2,0,3,0,3,1,2],"algorithm":"firstfit"}"#;
/// The 4-cycle 0-1-2-3-0: same vertex count and degree sequence, adjacency
/// differs — a one-edge-swap away from `SQUARE`, so the fingerprint must
/// differ and the cache must miss.
const SQUARE_REWIRED: &str =
    r#"{"tenant":"t","row_ptr":[0,2,4,6,8],"col_idx":[1,3,0,2,1,3,0,2],"algorithm":"firstfit"}"#;

fn submit_wait(addr: &str, body: &str) -> String {
    let (status, response) = request(addr, "POST", "/jobs?wait=1", Some(body)).expect("request");
    assert_eq!(status, 200, "{response}");
    response
}

/// The `job_id` field of a response body.
fn job_id(body: &str) -> u64 {
    body.split("\"job_id\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|n| n.parse().ok())
        .expect("job_id in response")
}

fn get_job(addr: &str, id: u64) -> String {
    let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    body
}

#[test]
fn repeat_submission_over_http_is_byte_identical_from_cache() {
    let (addr, handle) = start(test_config());
    let first = submit_wait(&addr, SQUARE);
    assert!(first.contains("\"cached\":false"), "{first}");
    let second = submit_wait(&addr, SQUARE);
    assert!(second.contains("\"cached\":true"), "{second}");
    assert_eq!(
        report_bytes(&first).unwrap(),
        report_bytes(&second).unwrap(),
        "cache hit must serve the original report bytes"
    );

    // One edge rewired: same size, different fingerprint — a miss.
    let third = submit_wait(&addr, SQUARE_REWIRED);
    assert!(third.contains("\"cached\":false"), "{third}");

    let (status, metrics) = request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    gc_gpusim::validate_prometheus_text(&metrics).expect("valid Prometheus text");
    assert!(metrics.contains("gc_serve_cache_hits_total 1"), "{metrics}");
    assert!(
        metrics.contains("gc_serve_cache_misses_total 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("gc_serve_job_latency_us{tenant=\"all\",quantile=\"0.99\"}"),
        "{metrics}"
    );
    stop(&addr, handle);
}

#[test]
fn lru_eviction_is_visible_over_http() {
    let cfg = ServerConfig {
        cache_capacity: 1,
        ..test_config()
    };
    let (addr, handle) = start(cfg);
    assert!(submit_wait(&addr, SQUARE).contains("\"cached\":false"));
    // Fills the single slot, evicting SQUARE.
    assert!(submit_wait(&addr, SQUARE_REWIRED).contains("\"cached\":false"));
    // SQUARE was evicted: miss again, and its re-insert evicts REWIRED.
    assert!(submit_wait(&addr, SQUARE).contains("\"cached\":false"));
    // Still resident: hit.
    assert!(submit_wait(&addr, SQUARE).contains("\"cached\":true"));
    let (_, metrics) = request(&addr, "GET", "/metrics", None).unwrap();
    assert!(
        metrics.contains("gc_serve_cache_evictions_total 2"),
        "{metrics}"
    );
    stop(&addr, handle);
}

#[test]
fn async_submit_then_poll_reaches_done() {
    let (addr, handle) = start(test_config());
    let (status, body) = request(&addr, "POST", "/jobs", Some(SQUARE)).unwrap();
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"status\":\"queued\""), "{body}");
    let id = job_id(&body);
    let mut done = String::new();
    for _ in 0..200 {
        let body = get_job(&addr, id);
        if body.contains("\"status\":\"done\"") {
            done = body;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        done.contains("\"num_colors\""),
        "poll never saw done: {done}"
    );
    let (status, _) = request(&addr, "GET", "/jobs/424242", None).unwrap();
    assert_eq!(status, 404);
    stop(&addr, handle);
}

#[test]
fn finished_jobs_serve_the_bytes_of_their_wait_response() {
    let (addr, handle) = start(test_config());
    let miss = submit_wait(&addr, SQUARE);
    assert!(miss.contains("\"cached\":false"), "{miss}");
    let hit = submit_wait(&addr, SQUARE);
    assert!(hit.contains("\"cached\":true"), "{hit}");
    for body in [&miss, &hit] {
        assert_eq!(&get_job(&addr, job_id(body)), body);
    }
    stop(&addr, handle);

    // The same submissions in process get the same ids, so `wait` and
    // `status` must render the same envelopes byte for byte.
    let mut server = Server::new(test_config()).expect("server builds");
    let spec = JobSpec::from_json(SQUARE.as_bytes()).unwrap();
    for body in [&miss, &hit] {
        let id = server.submit(&spec).unwrap();
        assert_eq!(server.wait(id).as_ref(), Some(body));
        assert_eq!(server.status(id), Some(("done", Some(body.clone()))));
    }
    server.shutdown();
}

/// A body of 100,000 open brackets is refused by both JSON endpoints
/// without recursing, and the server keeps serving.
#[test]
fn deeply_nested_bodies_are_refused_and_the_server_lives_on() {
    let (addr, handle) = start(test_config());
    let deep = "[".repeat(100_000);
    for path in ["/jobs?wait=1", "/graphs/00000000000000ff/edges"] {
        let (status, body) = request(&addr, "POST", path, Some(&deep)).expect("an answer");
        assert_eq!(status, 400, "{path}: {body}");
        assert!(body.starts_with("{\"error\":\"bad "), "{path}: {body}");
    }
    let nested_key = format!(r#"{{"x":{deep}"#);
    let (status, body) = request(&addr, "POST", "/jobs", Some(&nested_key)).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting deeper than"), "{body}");
    let (status, _) = request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(submit_wait(&addr, SQUARE).contains("\"status\":\"done\""));
    stop(&addr, handle);
}

/// Eight waiting connections hold eight handlers; the ninth connection
/// still gets an answer at once, and later sequential requests reuse the
/// parked handlers until shutdown releases them.
#[test]
fn concurrent_waits_do_not_block_new_connections() {
    let (addr, handle) = start(ServerConfig {
        devices: 1,
        workers: 1,
        ..test_config()
    });
    let bodies: Vec<String> = (1..=8)
        .map(|seed| {
            format!(
                r#"{{"tenant":"t","dataset":"road-net","scale":"small","algorithm":"maxmin","seed":{seed}}}"#
            )
        })
        .collect();
    let waiters: Vec<_> = bodies
        .iter()
        .map(|body| {
            let (addr, body) = (addr.clone(), body.clone());
            std::thread::spawn(move || submit_wait(&addr, &body))
        })
        .collect();
    // Ids are assigned in submission order: once job 8 exists, all eight
    // connections are waiting on the one worker.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while request(&addr, "GET", "/jobs/8", None).unwrap().0 != 200 {
        assert!(std::time::Instant::now() < deadline, "job 8 never arrived");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let (status, body) = request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
    let pending = (1..=8)
        .filter(|&id| !get_job(&addr, id).contains("\"status\":\"done\""))
        .count();
    assert!(pending > 0, "all eight finished before /healthz answered");

    for waiter in waiters {
        let body = waiter.join().expect("waiter thread");
        assert!(body.contains("\"cached\":false"), "{body}");
    }
    for i in 0..50 {
        let body = submit_wait(&addr, &bodies[i % bodies.len()]);
        assert!(body.contains("\"cached\":true"), "{body}");
    }
    stop(&addr, handle);
}

/// The `gc_serve_handler_threads` gauge from `/metrics`.
fn handler_threads(addr: &str) -> u64 {
    let (status, metrics) = request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200, "{metrics}");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix("gc_serve_handler_threads "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no handler gauge: {metrics}"))
}

/// Eight clients each submit a road-net job at `scale` and wait for it on
/// the server's one worker, after `before` jobs. Returns their threads
/// once job `before + 8` exists, that is, once all eight have been
/// submitted.
fn eight_waiters(addr: &str, scale: &str, before: u64) -> Vec<JoinHandle<String>> {
    let waiters = (1..=8)
        .map(|seed| {
            let addr = addr.to_string();
            let body = format!(
                r#"{{"tenant":"t","dataset":"road-net","scale":"{scale}","algorithm":"maxmin","seed":{seed}}}"#
            );
            std::thread::spawn(move || submit_wait(&addr, &body))
        })
        .collect();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let last = format!("/jobs/{}", before + 8);
    while request(addr, "GET", &last, None).unwrap().0 != 200 {
        assert!(std::time::Instant::now() < deadline, "{last} never arrived");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    waiters
}

fn one_worker() -> ServerConfig {
    ServerConfig {
        devices: 1,
        workers: 1,
        ..test_config()
    }
}

/// A sequential client never grows the handler pool past the handler
/// serving it plus the one waiting in `accept`; eight waiting clients grow
/// it past eight.
#[test]
fn the_handler_gauge_counts_connections_in_flight() {
    let (addr, handle) = start(one_worker());
    for _ in 0..50 {
        assert!(submit_wait(&addr, SQUARE).contains("\"status\":\"done\""));
    }
    let sequential = handler_threads(&addr);
    assert!(
        sequential <= 2,
        "{sequential} handlers after sequential requests"
    );

    let waiters = eight_waiters(&addr, "small", 50);
    let during = handler_threads(&addr);
    let pending = (51..=58)
        .filter(|&id| !get_job(&addr, id).contains("\"status\":\"done\""))
        .count();
    assert!(pending > 0, "all eight finished before the gauge was read");
    assert!(during >= 9, "{during} handlers with eight waits pending");
    for waiter in waiters {
        assert!(waiter.join().unwrap().contains("\"cached\":false"));
    }
    stop(&addr, handle);
}

/// After `stop`, every handler has exited, idle ones included, and the
/// last one closed the listening socket: the port can be bound again and
/// connecting is refused.
#[test]
fn shutdown_ends_every_handler_and_releases_the_port() {
    for cycle in 0..20 {
        let (addr, handle) = start(one_worker());
        assert!(submit_wait(&addr, SQUARE).contains("\"status\":\"done\""));
        let waiters = eight_waiters(&addr, "tiny", 1);
        for waiter in waiters {
            assert!(waiter.join().unwrap().contains("\"status\":\"done\""));
        }
        let handlers = handler_threads(&addr);
        assert!(
            handlers > 2,
            "cycle {cycle}: the pool never grew ({handlers})"
        );
        stop(&addr, handle);
        // Probe with `bind`, which wakes no handler blocked in `accept` (a
        // connect would): it succeeds once the last handler has dropped
        // the listener.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
        while let Err(e) = TcpListener::bind(&addr) {
            assert!(
                std::time::Instant::now() < deadline,
                "cycle {cycle}: {addr} still bound 1 s after stop: {e}"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let refused = std::net::TcpStream::connect(&addr).unwrap_err();
        assert_eq!(
            refused.kind(),
            std::io::ErrorKind::ConnectionRefused,
            "cycle {cycle}: {refused}"
        );
    }
}

/// A handler blocked writing a response to a client that does not read it
/// counts as busy, not idle: silent connections then take only handlers
/// that were waiting in `accept`, one more starts for each, and `/healthz`
/// still answers at once instead of after the 30 s read timeout.
#[test]
fn a_client_that_does_not_read_holds_no_idle_handler() {
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let (addr, handle) = start(one_worker());
    // Four million isolated vertices: an 8 MB report, more than a loopback
    // socket buffers (4 MB of send buffer at Linux's default limit).
    let body = format!(
        r#"{{"tenant":"t","row_ptr":[{}0],"col_idx":[],"algorithm":"seq"}}"#,
        "0,".repeat(4_000_000)
    );
    let mut unread = TcpStream::connect(&addr).unwrap();
    write!(
        unread,
        "POST /jobs?wait=1 HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    drop(body);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, metrics) = request(&addr, "GET", "/metrics", None).unwrap();
        if metrics.contains("\ngc_serve_cache_entries 1\n") {
            break;
        }
        assert!(Instant::now() < deadline, "the job never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Give its handler time to fill the socket buffer and block.
    std::thread::sleep(Duration::from_millis(200));
    let silent: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(&addr).unwrap()).collect();
    let t0 = Instant::now();
    let (status, _) = request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "/healthz took {:?}",
        t0.elapsed()
    );
    drop((unread, silent));
    stop(&addr, handle);
}

#[test]
fn completed_jobs_append_to_the_run_ledger_once() {
    let path = std::env::temp_dir().join(format!("gc-serve-e2e-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = ServerConfig {
        ledger: Some(path.to_string_lossy().into_owned()),
        ..test_config()
    };
    let (addr, handle) = start(cfg);
    submit_wait(&addr, SQUARE);
    submit_wait(&addr, SQUARE_REWIRED);
    submit_wait(&addr, SQUARE); // cache hit: must NOT append
    stop(&addr, handle);
    let ledger = std::fs::read_to_string(&path).expect("ledger written");
    let rows: Vec<&str> = ledger.lines().collect();
    assert_eq!(rows.len(), 2, "executed jobs only: {ledger}");
    for row in rows {
        assert!(row.contains("gc-serve"), "{row}");
        assert!(row.contains("inline:"), "{row}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn streaming_mutation_over_http_recolors_and_recaches() {
    let (addr, handle) = start(test_config());
    let first = submit_wait(&addr, SQUARE);
    assert!(first.contains("\"cached\":false"), "{first}");

    let g =
        gc_graph::CsrGraph::from_parts(vec![0, 2, 4, 6, 8], vec![1, 2, 0, 3, 0, 3, 1, 2]).unwrap();
    let fp = g.fingerprint();
    let (status, body) = request(
        &addr,
        "POST",
        &format!("/graphs/{fp:016x}/edges"),
        Some(r#"{"insert":[[0,3]],"job":{"tenant":"t","algorithm":"firstfit"}}"#),
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"inserted\":1"), "{body}");
    assert!(body.contains("\"dirty\":2"), "{body}");
    assert!(
        body.contains(&format!("\"fingerprint\":\"{fp:016x}\"")),
        "{body}"
    );

    // Submitting the mutated structure inline hits the recolored cache
    // entry byte-identically.
    let mut batch = gc_graph::MutationBatch::new();
    batch.insert_edge(0, 3);
    let out = batch.apply(&g).unwrap();
    assert!(
        body.contains(&format!("\"new_fingerprint\":\"{:016x}\"", out.fingerprint)),
        "{body}"
    );
    let spec = format!(
        r#"{{"tenant":"t","row_ptr":{:?},"col_idx":{:?},"algorithm":"firstfit"}}"#,
        out.graph.row_ptr(),
        out.graph.col_idx()
    );
    let hit = submit_wait(&addr, &spec);
    assert!(hit.contains("\"cached\":true"), "{hit}");
    assert_eq!(
        report_bytes(&hit).unwrap(),
        report_bytes(&body).unwrap(),
        "cache hit serves the mutation's report bytes"
    );

    let (_, metrics) = request(&addr, "GET", "/metrics", None).unwrap();
    assert!(metrics.contains("gc_serve_mutations_total 1"), "{metrics}");
    assert!(
        metrics.contains("gc_serve_graphs_registered 2"),
        "{metrics}"
    );
    stop(&addr, handle);
}

#[test]
fn mutation_endpoint_rejects_bad_requests_with_structured_errors() {
    let (addr, handle) = start(test_config());
    // Bad fingerprint: not hex.
    let (status, body) = request(&addr, "POST", "/graphs/nothex/edges", Some("{}")).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad graph fingerprint"), "{body}");
    // Well-formed but unknown fingerprint.
    let (status, body) = request(
        &addr,
        "POST",
        "/graphs/00000000deadbeef/edges",
        Some(r#"{"job":{"algorithm":"firstfit"}}"#),
    )
    .unwrap();
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("unknown graph fingerprint"), "{body}");
    // Malformed JSON body.
    let (status, body) = request(
        &addr,
        "POST",
        "/graphs/00000000deadbeef/edges",
        Some("not json"),
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad mutation request"), "{body}");
    stop(&addr, handle);
}

#[test]
fn non_http_bytes_get_a_structured_400_not_a_dropped_connection() {
    use std::io::{Read, Write};
    let (addr, handle) = start(test_config());
    // A request line with no path parses as garbage: the server must
    // answer 400 with a JSON error instead of closing silently.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("\"error\""), "{response}");
    drop(stream);
    // An unparseable Content-Length gets the same treatment.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: zzz\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("bad content-length"), "{response}");
    // Known path, wrong method: structured 405.
    let (status, body) = request(&addr, "DELETE", "/jobs", None).unwrap();
    assert_eq!(status, 405, "{body}");
    assert!(body.contains("method not allowed"), "{body}");
    stop(&addr, handle);
}

#[test]
fn oversized_content_length_is_refused_before_allocating() {
    use std::io::{Read, Write};
    let (addr, handle) = start(test_config());
    // Claim a 1 GB body and send none of it: the server must answer 400
    // naming the cap instead of allocating the claimed buffer.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 1000000000\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    let cap = gc_serve::http::MAX_BODY_BYTES.to_string();
    assert!(
        response.contains(&format!("{cap}-byte body cap")),
        "{response}"
    );
    drop(stream);
    // The server is unharmed: health checks and later jobs still succeed.
    let (status, body) = request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let done = submit_wait(&addr, SQUARE);
    assert!(done.contains("\"status\":\"done\""), "{done}");
    stop(&addr, handle);
}

#[test]
fn bad_requests_get_json_errors() {
    let (addr, handle) = start(test_config());
    let (status, body) = request(&addr, "POST", "/jobs", Some("not json")).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"error\""), "{body}");
    let (status, body) = request(
        &addr,
        "POST",
        "/jobs",
        Some(r#"{"dataset":"road-net","algorithm":"nope"}"#),
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("unknown algorithm"), "{body}");
    let (status, body) = request(
        &addr,
        "POST",
        "/jobs",
        Some(r#"{"dataset":"road-net","scale":"tiny","wg":65}"#),
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("--wg"), "{body}");
    let (status, _) = request(&addr, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    let (status, body) = request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, "{\"ok\":true}");
    stop(&addr, handle);
}

#[test]
fn smoke_load_closed_loop_pins_one_cache_hit() {
    let (addr, handle) = start(test_config());
    let summary = run_load(&LoadOptions {
        url: addr.clone(),
        jobs: 3,
        rate: 0.0, // closed loop: deterministic hit accounting
        mix: LoadMix::Smoke,
        seed: 1,
    })
    .expect("load run");
    assert_eq!(summary.jobs, 3);
    assert_eq!(summary.ok, 3);
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.cache_hits, 1, "{}", summary.to_json());
    stop(&addr, handle);
}

/// A flag its subcommand does not read exits 2 naming the flag, before
/// `serve` binds a port or `shutdown` dials its URL.
#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    let cases: [(&[&str], &str); 2] = [
        (&["serve", "--port", "0", "--batch-max", "8"], "--batch-max"),
        (
            &["shutdown", "--url", "127.0.0.1:1", "--bogus-flag", "7"],
            "--bogus-flag",
        ),
    ];
    for (argv, flag) in cases {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_gc-serve"))
            .args(argv)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn gc-serve");
        // A server that accepted the flag would block serving; give it
        // ten seconds to exit, then fail rather than hang.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while child.try_wait().unwrap().is_none() {
            if std::time::Instant::now() > deadline {
                child.kill().ok();
                panic!("{argv:?} kept running: the flag was accepted");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains(flag), "{argv:?} must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} ran: {stderr}");
    }
}
