//! End-to-end serving through the `synoptic` binary: a `serve` process
//! answers real `serve::Client` batches over TCP, a kill -9 mid-batch
//! surfaces as a clean client error (never a hang or a panic), and a
//! restarted server answers from the same last-good build. Admission
//! refusals cross the wire structurally with exit code 10, and the
//! `serve` flag validation (whose rebuild-policy half `maintain` shares)
//! rejects bad bounds with the usage code.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use synoptic_api::wire::RequestHeader;
use synoptic_api::{exit_code, EXIT_REFUSED};
use synoptic_core::{RangeQuery, SynopticError};
use synoptic_serve::Client;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_synoptic")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("failed to launch synoptic binary")
}

fn ok(args: &[&str]) -> Output {
    let out = run(args);
    assert!(
        out.status.success(),
        "`synoptic {}` failed:\nstdout: {}\nstderr: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("{name}_{}", std::process::id()))
}

/// Spawns `synoptic serve` with an ephemeral port and waits for the port
/// file to learn where it listens.
fn spawn_server(input: &str, port_file: &PathBuf, extra: &[&str]) -> (Child, String) {
    let _ = std::fs::remove_file(port_file);
    let mut args = vec![
        "serve",
        "--input",
        input,
        "--method",
        "sap0",
        "--budget",
        "16",
        "--column",
        "price",
        "--workers",
        "1",
        "--listen",
        "127.0.0.1:0",
        "--port-file",
        port_file.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let child = Command::new(bin())
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn server");
    let deadline = Instant::now() + Duration::from_secs(20);
    let port = loop {
        if let Ok(s) = std::fs::read_to_string(port_file) {
            if let Ok(p) = s.trim().parse::<u16>() {
                break p;
            }
        }
        assert!(
            Instant::now() < deadline,
            "server never wrote its port file"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, format!("127.0.0.1:{port}"))
}

/// A live server answers batches; kill -9 mid-batch gives the client a
/// clean structural error; a restarted server (same input, same build)
/// serves the identical last-good answers.
#[test]
fn serve_answers_batches_and_survives_kill_dash_nine_via_restart() {
    let col = tmp("synoptic_serve_col.txt");
    let port_file = tmp("synoptic_serve_port");
    let col_s = col.to_str().unwrap();
    ok(&["generate", "--n", "64", "--seed", "7", "--out", col_s]);

    let (mut server, addr) = spawn_server(col_s, &port_file, &[]);
    let client = Client::connect_with_timeout(&addr, Duration::from_secs(5)).expect("connect");
    client.ping().expect("ping");

    // A real batch over the wire, answered at one generation.
    let ranges = vec![
        RangeQuery::new(0, 63).unwrap(),
        RangeQuery::new(0, 31).unwrap(),
        RangeQuery::new(32, 63).unwrap(),
    ];
    let first = client
        .estimate_batch("price", ranges.clone())
        .expect("first batch");
    assert_eq!(first.values.len(), 3);
    assert_eq!(first.generation, 0, "initial build is generation 0");

    // Updates are acknowledged and visible in the server's stats.
    let (applied, _scheduled) = client
        .update("price", vec![(3, 5), (9, -2)])
        .expect("update");
    assert_eq!(applied, 2);
    let stats = client.stats("price").expect("stats");
    assert_eq!(stats.updates, 2);
    assert_eq!(stats.n, 64);

    // Kill -9 while batches are in flight: the client must get a clean
    // error (connection refused/reset or a timeout), not hang or panic.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        server.kill().expect("kill -9 the server");
        server.wait().expect("reap the server");
    });
    let died = loop {
        match client.estimate_batch("price", ranges.clone()) {
            Ok(_) => continue,
            Err(e) => break e,
        }
    };
    killer.join().expect("killer thread");
    assert!(
        matches!(
            died,
            SynopticError::Io { .. }
                | SynopticError::DeadlineExceeded { .. }
                | SynopticError::CorruptSynopsis { .. }
        ),
        "a killed server must surface as a clean transport error, got: {died}"
    );

    // Restart over the same input: the deterministic build serves the
    // same last-good answers the first process did.
    let (mut server, addr) = spawn_server(col_s, &port_file, &[]);
    let client = Client::connect_with_timeout(&addr, Duration::from_secs(5)).expect("reconnect");
    let again = client
        .estimate_batch("price", ranges)
        .expect("batch after restart");
    assert_eq!(
        again.values, first.values,
        "a restarted server must serve the same last-good build"
    );
    server.kill().expect("stop the restarted server");
    server.wait().expect("reap the restarted server");

    let _ = std::fs::remove_file(&col);
    let _ = std::fs::remove_file(&port_file);
}

/// Admission refusals cross the wire structurally: a dry tenant token
/// bucket refuses with `ServerOverloaded` carrying the observed count
/// and the limit, mapping to exit code 10. The bucket follows the
/// TENANT, not the connection — reconnecting buys nothing — while pings
/// (liveness) and other tenants keep working.
#[test]
fn serve_tenant_bucket_refusal_crosses_the_wire_with_exit_code_10() {
    let col = tmp("synoptic_serve_quota_col.txt");
    let port_file = tmp("synoptic_serve_quota_port");
    let col_s = col.to_str().unwrap();
    ok(&["generate", "--n", "32", "--seed", "5", "--out", col_s]);

    // A refill interval far beyond the test's lifetime: the burst is all
    // a tenant gets.
    let (mut server, addr) = spawn_server(
        col_s,
        &port_file,
        &["--tenant-burst", "2", "--tenant-refill-ms", "600000"],
    );
    let client = Client::connect_with_timeout(&addr, Duration::from_secs(5)).expect("connect");
    let q = vec![RangeQuery::new(0, 31).unwrap()];
    client
        .estimate_batch("price", q.clone())
        .expect("first estimate within the burst");
    client
        .estimate_batch("price", q.clone())
        .expect("second estimate within the burst");
    let err = client
        .estimate_batch("price", q.clone())
        .expect_err("third estimate must be refused");
    match &err {
        SynopticError::ServerOverloaded {
            what,
            observed,
            limit,
        } => {
            assert!(what.contains("token bucket"), "got what={what:?}");
            assert_eq!((*observed, *limit), (3, 2));
        }
        other => panic!("expected ServerOverloaded, got {other}"),
    }
    assert_eq!(exit_code(&err), EXIT_REFUSED);

    // Reconnecting does not refresh the bucket: admission follows the
    // tenant (un-headered clients share the default tenant).
    let fresh = Client::connect_with_timeout(&addr, Duration::from_secs(5)).expect("reconnect");
    let err = fresh
        .estimate_batch("price", q.clone())
        .expect_err("the tenant bucket is still dry on a fresh connection");
    assert!(matches!(err, SynopticError::ServerOverloaded { .. }));
    // Liveness probes never spend tokens.
    fresh.ping().expect("pings are exempt from metering");
    // A different tenant has its own (full) bucket.
    let header = RequestHeader {
        tenant: Some("other".to_string()),
        ..RequestHeader::default()
    };
    fresh
        .estimate_batch_with(&header, "price", q)
        .expect("another tenant is unaffected");

    server.kill().expect("stop the server");
    server.wait().expect("reap the server");
    let _ = std::fs::remove_file(&col);
    let _ = std::fs::remove_file(&port_file);
}

/// `serve` flag validation is a usage error (exit 2) before any listener
/// binds: conflicting policies, zero bounds, malformed addresses, and
/// duplicated flags are all refused with a message naming the flag.
#[test]
fn serve_flag_validation_exits_with_usage_code() {
    let col = tmp("synoptic_serve_usage_col.txt");
    let col_s = col.to_str().unwrap();
    ok(&["generate", "--n", "16", "--seed", "2", "--out", col_s]);
    let base = ["serve", "--input", col_s, "--method", "sap0"];

    let cases: &[(&[&str], &str)] = &[
        (
            &[
                "--listen",
                "127.0.0.1:0",
                "--every-k",
                "4",
                "--drift",
                "0.5",
            ],
            "mutually exclusive",
        ),
        (&["--listen", "127.0.0.1:0", "--every-k", "0"], "--every-k"),
        (&["--listen", "127.0.0.1:0", "--drift", "-0.5"], "--drift"),
        (&["--listen", "127.0.0.1:0", "--drift", "inf"], "--drift"),
        (&["--listen", "127.0.0.1:0", "--drift", "nan"], "--drift"),
        (
            &["--listen", "127.0.0.1:0", "--max-queue-depth", "0"],
            "--max-queue-depth",
        ),
        (
            &["--listen", "127.0.0.1:0", "--tenant-burst", "0"],
            "--tenant-burst",
        ),
        (
            &["--listen", "127.0.0.1:0", "--max-conns", "0"],
            "--max-conns",
        ),
        (
            &["--listen", "127.0.0.1:0", "--max-batch", "0"],
            "--max-batch",
        ),
        (&["--listen", "127.0.0.1:0", "--workers", "0"], "--workers"),
        (&["--listen", "127.0.0.1:99999"], "--listen"),
        (&["--listen", "not-an-address"], "--listen"),
        (
            &["--listen", "127.0.0.1:0", "--budget", "8", "--budget", "9"],
            "duplicate",
        ),
    ];
    for (extra, needle) in cases {
        let mut args: Vec<&str> = base.to_vec();
        args.extend_from_slice(extra);
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`synoptic {}` must exit 2\nstderr: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr).to_lowercase();
        assert!(
            stderr.contains(&needle.to_lowercase()),
            "stderr for `{}` must mention '{needle}': {stderr}",
            args.join(" ")
        );
    }
    let _ = std::fs::remove_file(&col);
}

/// `maintain` applies the same rebuild-policy check as `serve` (the
/// policy cases above): a drift fraction that is zero, negative, infinite
/// or NaN, a zero update period, and both policies at once are usage
/// errors (exit 2), never a panic or a runtime refusal.
#[test]
fn maintain_refuses_the_rebuild_policies_serve_refuses() {
    let col = tmp("synoptic_maintain_usage_col.txt");
    let col_s = col.to_str().unwrap();
    ok(&["generate", "--n", "16", "--seed", "3", "--out", col_s]);
    let base = [
        "maintain",
        "--input",
        col_s,
        "--method",
        "sap0",
        "--updates",
        "8",
    ];
    let cases: &[(&[&str], &str)] = &[
        (&["--drift", "0"], "--drift"),
        (&["--drift", "-0.5"], "--drift"),
        (&["--drift", "inf"], "--drift"),
        (&["--drift", "nan"], "--drift"),
        (&["--every-k", "0"], "--every-k"),
        (&["--every-k", "4", "--drift", "0.5"], "mutually exclusive"),
    ];
    for (extra, needle) in cases {
        let mut args: Vec<&str> = base.to_vec();
        args.extend_from_slice(extra);
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`synoptic {}` must exit 2\nstderr: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "stderr for `{}` must mention '{needle}': {stderr}",
            args.join(" ")
        );
    }
    let _ = std::fs::remove_file(&col);
}
