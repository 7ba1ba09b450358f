//! Integration tests for the serving tier: batch pinning, cache
//! invalidation, admission control, and fault injection against the
//! server's frame reader.

use std::sync::Arc;
use std::time::Duration;

use synoptic_api::wire::{
    decode_response, encode_request, encode_response, QueryBatch, Request, Response,
};
use synoptic_api::{exit_code, Queryable, EXIT_CORRUPT, EXIT_REFUSED};
use synoptic_catalog::{Fault, FaultyStorage, FsStorage};
use synoptic_core::{Budget, PrefixSums, RangeEstimator, RangeQuery, SynopticError};
use synoptic_repl::{
    FaultyTransport, ManualClock, MemTransport, Received, Transport, TransportFault,
};
use synoptic_serve::{Client, ServeConfig, Server};
use synoptic_stream::{
    ColumnBuild, ColumnHandle, DurabilityConfig, MaintainedPool, RebuildConfig, RebuildPolicy,
};

/// An exact estimator: answers are the true range sums of the snapshot it
/// was built from. Any mixing of two snapshots in one batch is therefore
/// arithmetically visible.
struct Exact {
    ps: PrefixSums,
}

impl RangeEstimator for Exact {
    fn n(&self) -> usize {
        self.ps.n()
    }
    fn estimate(&self, q: RangeQuery) -> f64 {
        self.ps.answer(q) as f64
    }
    fn storage_words(&self) -> usize {
        self.ps.n()
    }
    fn method_name(&self) -> &str {
        "EXACT"
    }
}

fn exact_build() -> ColumnBuild {
    ColumnBuild::Custom(Box::new(|v: &[i64], _ps: &PrefixSums, _b: &Budget| {
        Ok(Box::new(Exact {
            ps: PrefixSums::from_values(v),
        }) as Box<dyn RangeEstimator>)
    }))
}

fn exact_column(pool: &MaintainedPool, name: &str, values: &[i64]) -> ColumnHandle {
    pool.add_column(
        name,
        values,
        exact_build(),
        RebuildConfig::new(RebuildPolicy::Manual),
    )
    .unwrap()
}

/// Spawns a connection thread serving one end of a mem pair; returns the
/// client end.
fn mem_session(server: &Server) -> MemTransport {
    let (client_end, mut server_end) = MemTransport::pair();
    let server = server.clone();
    std::thread::spawn(move || server.handle_transport(&mut server_end));
    client_end
}

fn call(t: &mut dyn Transport, req: &Request) -> Response {
    t.send(&encode_request(req)).unwrap();
    recv_response(t)
}

fn recv_response(t: &mut dyn Transport) -> Response {
    match t.recv(Some(Duration::from_secs(10))).unwrap() {
        Received::Frame(f) => decode_response(&f).unwrap(),
        other => panic!("expected a response frame, got {other:?}"),
    }
}

fn batch(column: &str, ranges: Vec<RangeQuery>) -> Request {
    Request::EstimateBatch(QueryBatch::new(column, ranges))
}

// ---------------------------------------------------------------------------
// End-to-end over real TCP

#[test]
fn tcp_round_trip_ping_estimates_updates_and_stats() {
    let pool = MaintainedPool::new(1);
    let values = vec![2i64; 64];
    let col = exact_column(&pool, "price", &values);
    let server = Server::new(ServeConfig::default());
    server.register(col.clone());

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let accept = {
        let server = server.clone();
        std::thread::spawn(move || server.serve(listener).unwrap())
    };

    let client = Client::connect(&addr).unwrap();
    client.ping().unwrap();

    let answer = client
        .estimate_batch(
            "price",
            vec![RangeQuery::new(0, 63).unwrap(), RangeQuery::point(5)],
        )
        .unwrap();
    assert_eq!(answer.values, vec![128.0, 2.0]);
    assert_eq!(answer.cached, vec![false, false]);
    assert_eq!(answer.generation, 0, "nothing has rebuilt yet");

    let (applied, _scheduled) = client.update("price", vec![(5, 10), (6, -1)]).unwrap();
    assert_eq!(applied, 2);

    // The envelope view: one range through the unified Queryable surface.
    let env = client.query("price", RangeQuery::point(5)).unwrap();
    assert_eq!(env.generation, 0);
    assert_eq!(env.lag, 2, "two updates applied, none rebuilt yet");

    let stats = client.stats("price").unwrap();
    assert_eq!(stats.column, "price");
    assert_eq!(stats.n, 64);
    assert_eq!(stats.updates, 2);
    assert_eq!(stats.updates_since_rebuild, 2);
    assert!(stats.connections >= 1);

    // Structural errors cross the wire: an out-of-bounds update refuses
    // with the exact variant, nothing applied.
    let err = client.update("price", vec![(0, 1), (64, 1)]).unwrap_err();
    assert!(matches!(
        err,
        SynopticError::IndexOutOfBounds { index: 64, n: 64 }
    ));
    assert_eq!(client.stats("price").unwrap().updates, 2);

    let err = client.query("ghost", RangeQuery::point(0)).unwrap_err();
    assert!(matches!(err, SynopticError::InvalidParameter(_)));

    server.shutdown();
    accept.join().unwrap();
    drop(pool);
}

/// A server whose connection loops would take 30 s to notice a shutdown
/// by polling, so only a woken accept can make `serve` return promptly.
fn slow_poll_server() -> Server {
    Server::new(ServeConfig {
        poll_interval: Duration::from_secs(30),
        ..ServeConfig::default()
    })
}

/// Runs `serve` on its own thread; the receiver yields its result.
fn spawn_serve(
    server: &Server,
    listener: std::net::TcpListener,
) -> std::sync::mpsc::Receiver<std::io::Result<()>> {
    let (tx, rx) = std::sync::mpsc::channel();
    let server = server.clone();
    std::thread::spawn(move || {
        let _ = tx.send(server.serve(listener));
    });
    rx
}

#[test]
fn shutdown_wakes_an_idle_accept_on_loopback_and_unspecified_listeners() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = slow_poll_server();
        let served = spawn_serve(&server, std::net::TcpListener::bind(bind).unwrap());
        // Let `serve` reach its blocking accept.
        std::thread::sleep(Duration::from_millis(100));
        server.shutdown();
        served
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|e| panic!("serve on {bind} did not return within 2 s: {e}"))
            .unwrap();
    }
}

#[test]
fn shutdown_racing_the_start_of_serve_is_never_missed() {
    for round in 0..100 {
        let server = slow_poll_server();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let served = spawn_serve(&server, listener);
        server.shutdown();
        served
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("round {round}: serve did not return: {e}"))
            .unwrap();
    }
}

#[test]
fn a_non_blocking_listener_still_serves_and_shuts_down() {
    let server = slow_poll_server();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let served = spawn_serve(&server, listener);
    let client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
    drop(client);
    server.shutdown();
    served
        .recv_timeout(Duration::from_secs(2))
        .expect("serve did not return")
        .unwrap();
}

// ---------------------------------------------------------------------------
// Batch pinning

/// Every batch is answered from ONE snapshot pin: with an exact
/// estimator and racing updates+rebuilds, the full-range answer must
/// equal the sum of the two halves, and asking the same range twice in
/// one batch must return the identical value — both impossible if the
/// batch straddled a hot swap. The cache is disabled so every value is
/// computed from the pinned snapshot itself.
#[test]
fn a_batch_is_answered_from_one_snapshot_pin() {
    let n = 256usize;
    let pool = MaintainedPool::new(2);
    let col = exact_column(&pool, "c", &vec![1i64; n]);
    let server = Server::new(ServeConfig {
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    server.register(col.clone());

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let racer = {
        let col = col.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                col.update(i % n, 1).unwrap();
                let _ = col.request_rebuild();
                i += 1;
            }
        })
    };

    let mut t = mem_session(&server);
    let full = RangeQuery::new(0, n - 1).unwrap();
    let left = RangeQuery::new(0, n / 2 - 1).unwrap();
    let right = RangeQuery::new(n / 2, n - 1).unwrap();
    let mut generations: Vec<u64> = Vec::new();
    // At least 60 batches, then keep going until one observes a swap
    // published after the first batch: the racer's first rebuild may
    // land later than 60 fast batches take. The deadline bounds the wait:
    // if no rebuild has published by then, the final assertion fails.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while generations.len() < 60
        || (generations.last() <= generations.first() && std::time::Instant::now() < deadline)
    {
        let Response::Estimates(ans) = call(&mut t, &batch("c", vec![full, left, right, full]))
        else {
            panic!("expected estimates");
        };
        assert_eq!(
            ans.values[0],
            ans.values[1] + ans.values[2],
            "halves must sum to the whole within one pinned batch (generation {})",
            ans.generation
        );
        assert_eq!(
            ans.values[0], ans.values[3],
            "the same range twice in one batch must answer identically"
        );
        generations.push(ans.generation);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    racer.join().unwrap();
    col.quiesce();
    assert!(
        generations.last().copied().unwrap() > 0,
        "rebuilds raced the batches (generations observed: {:?}…)",
        &generations[..4.min(generations.len())]
    );
    drop(pool);
}

// ---------------------------------------------------------------------------
// Cache invalidation across a hot swap

#[test]
fn cache_is_invalidated_by_a_hot_swap_so_stale_hits_are_impossible() {
    let n = 32usize;
    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "c", &vec![1i64; n]);
    let server = Server::new(ServeConfig::default());
    server.register(col.clone());
    let mut t = mem_session(&server);
    let q = RangeQuery::new(0, n - 1).unwrap();

    // First ask computes and caches; second ask hits.
    let Response::Estimates(first) = call(&mut t, &batch("c", vec![q])) else {
        panic!()
    };
    assert_eq!(first.values, vec![n as f64]);
    assert_eq!(first.cached, vec![false]);
    let Response::Estimates(second) = call(&mut t, &batch("c", vec![q])) else {
        panic!()
    };
    assert_eq!(second.cached, vec![true]);
    assert_eq!(second.values, vec![n as f64]);
    assert_eq!(second.generation, first.generation);

    // Mutate and hot-swap: the generation bumps, and the cached answer
    // for the old generation MUST NOT survive — the fresh answer reflects
    // the new data exactly.
    col.update(0, 100).unwrap();
    assert!(col.request_rebuild().unwrap());
    col.quiesce();
    let Response::Estimates(after) = call(&mut t, &batch("c", vec![q])) else {
        panic!()
    };
    assert!(after.generation > first.generation, "the swap published");
    assert_eq!(
        after.cached,
        vec![false],
        "a stale-generation cache hit must be impossible"
    );
    assert_eq!(after.values, vec![(n + 100) as f64]);

    let Response::Stats(stats) = call(
        &mut t,
        &Request::Stats {
            column: "c".to_string(),
        },
    ) else {
        panic!()
    };
    assert!(stats.cache_hits >= 1);
    assert!(stats.cache_invalidations >= 1);
    drop(pool);
}

// ---------------------------------------------------------------------------
// Client connection poisoning: a timeout must never desynchronize pairing

/// `SQP1` pairs requests to responses by position only, so a client that
/// times out MUST poison its connection: otherwise the server's late
/// response is still in flight, and the next call would read it as its
/// own answer — silently serving the wrong batch's values.
#[test]
fn a_timed_out_call_poisons_the_connection_so_a_late_response_is_never_misread() {
    let (client_end, mut server_end) = MemTransport::pair();
    let client = Client::from_transport(Box::new(client_end), Duration::from_millis(50));
    let (late_tx, late_rx) = std::sync::mpsc::channel::<()>();
    let responder = std::thread::spawn(move || {
        let Ok(Received::Frame(_)) = server_end.recv(Some(Duration::from_secs(10))) else {
            panic!("expected the first request");
        };
        // Answer only after being told the client has already timed out:
        // this Pong is exactly the stale in-flight response an unpoisoned
        // client would misread as the answer to its NEXT request.
        late_rx.recv().unwrap();
        let _ = server_end.send(&encode_response(&Response::Pong));
    });

    assert!(!client.is_poisoned());
    let err = client.ping().unwrap_err();
    assert!(
        matches!(err, SynopticError::DeadlineExceeded { .. }),
        "got {err:?}"
    );
    assert!(client.is_poisoned(), "a timeout must poison the connection");

    late_tx.send(()).unwrap();
    responder.join().unwrap();

    // The next call must fail loudly instead of pairing with the stale
    // response (which would have returned Ok here).
    let err = client.ping().unwrap_err();
    assert!(
        matches!(&err, SynopticError::Io { detail, .. } if detail.contains("poisoned")),
        "a poisoned client must refuse further calls, got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Column replacement: long-lived connections must notice

/// `Server::register` may replace a column under the same name. An open
/// connection's cached snapshot reader belongs to the OLD column; if it
/// kept being used, the connection would pin the replaced hot-swap cell
/// forever and seed the NEW column's cache with the old values (both
/// cells start at generation 0, so the generation key cannot tell them
/// apart).
#[test]
fn re_registering_a_column_refreshes_connection_readers_and_caches() {
    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "c", &[1i64; 8]); // sum 8
    let server = Server::new(ServeConfig::default());
    server.register(col);
    let mut t = mem_session(&server);
    let q = RangeQuery::new(0, 7).unwrap();
    let Response::Estimates(old) = call(&mut t, &batch("c", vec![q])) else {
        panic!()
    };
    assert_eq!(old.values, vec![8.0]);
    // Ask again so the answer sits in the old column's cache.
    let Response::Estimates(old2) = call(&mut t, &batch("c", vec![q])) else {
        panic!()
    };
    assert_eq!(old2.cached, vec![true]);

    // Replace the column under the same name: same generation (0), same
    // name, different data — the aliasing worst case.
    let pool2 = MaintainedPool::new(1);
    let col2 = exact_column(&pool2, "c", &[5i64; 8]); // sum 40
    server.register(col2);

    // The SAME connection answers from the replacement, freshly computed.
    let Response::Estimates(fresh) = call(&mut t, &batch("c", vec![q])) else {
        panic!()
    };
    assert_eq!(
        fresh.values,
        vec![40.0],
        "an open connection must serve the replacement column"
    );
    assert_eq!(
        fresh.cached,
        vec![false],
        "the replacement starts with an empty cache"
    );

    // A brand-new connection agrees — the old column's values never
    // crossed into the new column's cache.
    let mut t2 = mem_session(&server);
    let Response::Estimates(fresh2) = call(&mut t2, &batch("c", vec![q])) else {
        panic!()
    };
    assert_eq!(fresh2.values, vec![40.0]);
    drop(pool);
    drop(pool2);
}

// ---------------------------------------------------------------------------
// Update batches: whole or nothing

/// An update batch applies whole. The only error after it applies is a
/// scheduling failure (here: the pool shut down, so the rebuild the batch
/// fires cannot schedule) — loud, and with every delta applied.
#[test]
fn non_bounds_mid_batch_update_failures_are_loud_and_whole() {
    let pool = MaintainedPool::new(1);
    let col = pool
        .add_column(
            "c",
            &[0i64; 8],
            exact_build(),
            RebuildConfig::new(RebuildPolicy::EveryKUpdates(1)),
        )
        .unwrap();
    let server = Server::new(ServeConfig::default());
    server.register(col.clone());
    let mut t = mem_session(&server);
    // Kill the maintenance workers: the batch applies, then fails to
    // schedule the rebuild its policy fires.
    pool.shutdown();
    let Response::Error(err) = call(
        &mut t,
        &Request::Update {
            column: "c".to_string(),
            deltas: vec![(0, 1), (1, 1)],
        },
    ) else {
        panic!("an update against a shut-down pool must fail loudly");
    };
    assert!(
        matches!(err, SynopticError::WorkerUnavailable { .. }),
        "got {err:?}"
    );
    // Both deltas landed before the scheduling failure. Whole — and
    // visible, never silent.
    assert_eq!(col.exact(RangeQuery::point(0)), 1);
    assert_eq!(col.exact(RangeQuery::point(1)), 1);
}

/// A journal append that fails (the disk is full) refuses the batch
/// before any delta touches state; the retried batch then applies whole.
#[test]
fn a_failed_journal_append_applies_no_delta_of_the_batch() {
    let dir = std::env::temp_dir().join(format!("synoptic-serve-enospc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let faulty = Arc::new(FaultyStorage::new(FsStorage::new(), vec![Fault::Enospc]));
    let pool = MaintainedPool::new(1);
    let col = pool
        .add_column_durable(
            "c",
            &[0i64; 8],
            exact_build(),
            RebuildConfig::new(RebuildPolicy::Manual),
            faulty.clone(),
            &DurabilityConfig::journaled(&dir),
            0,
            None,
        )
        .unwrap();
    let server = Server::new(ServeConfig::default());
    server.register(col.clone());
    let mut t = mem_session(&server);
    let update = Request::Update {
        column: "c".to_string(),
        deltas: vec![(0, 1), (1, 1)],
    };
    let Response::Error(err) = call(&mut t, &update) else {
        panic!("a failed journal append must refuse the batch");
    };
    assert!(matches!(err, SynopticError::Io { .. }), "got {err:?}");
    assert_eq!(faulty.faults_fired(), 1);
    assert_eq!(col.exact(RangeQuery::new(0, 7).unwrap()), 0);
    assert_eq!(col.wal_mark(), 0);
    assert!(matches!(
        call(&mut t, &update),
        Response::Updated { applied: 2, .. }
    ));
    assert_eq!(col.exact(RangeQuery::new(0, 7).unwrap()), 2);
    assert_eq!(col.wal_mark(), 2);
    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Admission control: every bound refuses with provenance and exit code 10

#[test]
fn tenant_token_bucket_refuses_with_exit_code_10_and_refills_on_the_clock() {
    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "c", &[1, 2, 3, 4]);
    let clock = ManualClock::new();
    let server = Server::new(ServeConfig {
        tenant_burst: Some(2),
        tenant_refill_ms: 100,
        clock: Arc::new(clock.clone()),
        ..ServeConfig::default()
    });
    server.register(col);
    let mut t = mem_session(&server);
    let q = RangeQuery::new(0, 3).unwrap();
    // Un-headered requests all meter against the shared "" tenant.
    for _ in 0..2 {
        assert!(matches!(
            call(&mut t, &batch("c", vec![q])),
            Response::Estimates(_)
        ));
    }
    let Response::Error(err) = call(&mut t, &batch("c", vec![q])) else {
        panic!("third estimate must be refused: the bucket is dry");
    };
    assert!(
        matches!(
            &err,
            SynopticError::ServerOverloaded { what, observed: 3, limit: 2 }
                if what.contains("token bucket")
        ),
        "got {err:?}"
    );
    assert_eq!(exit_code(&err), EXIT_REFUSED);
    // The bucket is per TENANT, not per connection: a fresh connection
    // sees the same dry bucket (this is the fix over PR 9's
    // per-connection quota, which a multi-connection tenant outran), and
    // the overdraft streak keeps escalating in `observed`.
    let mut t2 = mem_session(&server);
    let Response::Error(err2) = call(&mut t2, &batch("c", vec![q])) else {
        panic!("a fresh connection must not refresh the tenant bucket");
    };
    assert!(
        matches!(
            &err2,
            SynopticError::ServerOverloaded {
                observed: 4,
                limit: 2,
                ..
            }
        ),
        "got {err2:?}"
    );
    // Pings are liveness, not served work: they never spend a token.
    assert_eq!(call(&mut t2, &Request::Ping), Response::Pong);
    // Tokens refill from the clock; service resumes without reconnecting.
    clock.advance(100);
    assert!(matches!(
        call(&mut t2, &batch("c", vec![q])),
        Response::Estimates(_)
    ));
    drop(pool);
}

#[test]
fn rebuild_lag_bound_refuses_estimates_until_a_rebuild_lands() {
    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "c", &[1i64; 16]);
    let server = Server::new(ServeConfig {
        max_rebuild_lag: Some(2),
        ..ServeConfig::default()
    });
    server.register(col.clone());
    let mut t = mem_session(&server);
    let q = RangeQuery::new(0, 15).unwrap();

    for _ in 0..3 {
        col.update(0, 1).unwrap();
    }
    let Response::Error(err) = call(&mut t, &batch("c", vec![q])) else {
        panic!("estimate at lag 3 > bound 2 must refuse");
    };
    assert!(matches!(
        &err,
        SynopticError::ServerOverloaded { what, observed: 3, limit: 2 } if what == "rebuild lag"
    ));
    assert_eq!(exit_code(&err), EXIT_REFUSED);
    // Updates are NOT refused on lag — backpressure applies to reads.
    let Response::Updated { applied: 1, .. } = call(
        &mut t,
        &Request::Update {
            column: "c".to_string(),
            deltas: vec![(0, 1)],
        },
    ) else {
        panic!("updates pass the lag bound");
    };
    // A rebuild clears the lag and estimates flow again.
    col.request_rebuild().unwrap();
    col.quiesce();
    assert!(matches!(
        call(&mut t, &batch("c", vec![q])),
        Response::Estimates(_)
    ));
    drop(pool);
}

#[test]
fn zero_queue_depth_refuses_every_request() {
    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "c", &[1, 2]);
    let server = Server::new(ServeConfig {
        max_queue_depth: 0,
        ..ServeConfig::default()
    });
    server.register(col);
    let mut t = mem_session(&server);
    let Response::Error(err) = call(&mut t, &Request::Ping) else {
        panic!("queue depth 0 admits nothing");
    };
    assert!(matches!(
        &err,
        SynopticError::ServerOverloaded { what, .. } if what == "queue depth"
    ));
    assert_eq!(exit_code(&err), EXIT_REFUSED);
    drop(pool);
}

#[test]
fn connection_cap_refuses_at_accept() {
    let server = Server::new(ServeConfig {
        max_connections: 0,
        ..ServeConfig::default()
    });
    let mut t = mem_session(&server);
    let Response::Error(err) = recv_response(&mut t) else {
        panic!("over-cap connections are refused before any request");
    };
    assert!(matches!(
        &err,
        SynopticError::ServerOverloaded { what, .. } if what == "connection quota"
    ));
    assert_eq!(exit_code(&err), EXIT_REFUSED);
}

// ---------------------------------------------------------------------------
// Fault injection against the server's frame reader

#[test]
fn torn_frames_are_refused_loudly_and_the_connection_survives() {
    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "c", &[1, 2, 3]);
    let server = Server::new(ServeConfig::default());
    server.register(col);

    let (mut client_end, server_inner) = MemTransport::pair();
    {
        let server = server.clone();
        std::thread::spawn(move || {
            let mut faulty = FaultyTransport::with_recv_faults(
                server_inner,
                vec![],
                vec![TransportFault::Torn { keep: 5 }],
            );
            server.handle_transport(&mut faulty);
        });
    }
    // Frame 1 arrives torn: the server answers with the decode error
    // (corrupt frame, exit-code-4 class) instead of acting on garbage.
    let Response::Error(err) = call(&mut client_end, &Request::Ping) else {
        panic!("a torn frame must be refused");
    };
    assert!(matches!(
        &err,
        SynopticError::CorruptSynopsis { context, .. } if context == "query frame"
    ));
    assert_eq!(exit_code(&err), EXIT_CORRUPT);
    // The link survives corruption: the next clean frame is served.
    assert_eq!(call(&mut client_end, &Request::Ping), Response::Pong);
    drop(pool);
}

#[test]
fn duplicated_and_reordered_frames_each_get_exactly_one_valid_response() {
    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "c", &[1, 2, 3]);
    let server = Server::new(ServeConfig::default());
    server.register(col);

    let (mut client_end, server_inner) = MemTransport::pair();
    {
        let server = server.clone();
        std::thread::spawn(move || {
            let mut faulty = FaultyTransport::with_recv_faults(
                server_inner,
                vec![],
                vec![
                    TransportFault::Duplicate,
                    TransportFault::Reorder,
                    TransportFault::Clean,
                ],
            );
            server.handle_transport(&mut faulty);
        });
    }
    // Duplicate: the ping is delivered twice, so two pongs come back —
    // the server answers every frame it receives, exactly once each.
    client_end.send(&encode_request(&Request::Ping)).unwrap();
    assert_eq!(recv_response(&mut client_end), Response::Pong);
    assert_eq!(recv_response(&mut client_end), Response::Pong);
    // Reorder: a stats request and a ping swap on the wire; both still
    // get exactly one well-formed response of the right kind (order on
    // the wire is the transport's business, not correctness's).
    client_end
        .send(&encode_request(&Request::Stats {
            column: "c".to_string(),
        }))
        .unwrap();
    client_end.send(&encode_request(&Request::Ping)).unwrap();
    let got = [
        recv_response(&mut client_end),
        recv_response(&mut client_end),
    ];
    assert!(got.iter().filter(|r| matches!(r, Response::Pong)).count() == 1);
    assert!(
        got.iter()
            .filter(|r| matches!(r, Response::Stats(_)))
            .count()
            == 1
    );
    drop(pool);
}

// ---------------------------------------------------------------------------
// Oversized batches are rejected, not served partially

#[test]
fn batches_over_the_configured_maximum_are_rejected() {
    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "c", &[1i64; 8]);
    let server = Server::new(ServeConfig {
        max_batch: 2,
        ..ServeConfig::default()
    });
    server.register(col);
    let mut t = mem_session(&server);
    let qs = vec![
        RangeQuery::point(0),
        RangeQuery::point(1),
        RangeQuery::point(2),
    ];
    let Response::Error(err) = call(&mut t, &batch("c", qs)) else {
        panic!("a 3-range batch against max_batch=2 must be rejected");
    };
    assert!(matches!(err, SynopticError::InvalidParameter(_)));
    drop(pool);
}
