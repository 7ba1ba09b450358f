//! Overload-proofing integration tests: deadline sheds, per-tenant
//! admission, the graceful-degradation ladder, wire back-compat with
//! pre-header clients, and the overload-storm proof.

use std::sync::Arc;
use std::time::Duration;

use synoptic_api::wire::{
    decode_response, encode_request, encode_request_with, DegradeRung, QueryBatch, Request,
    RequestHeader, Response,
};
use synoptic_api::{exit_code, EXIT_DEADLINE, EXIT_REFUSED};
use synoptic_core::{AnswerSource, Budget, PrefixSums, RangeEstimator, RangeQuery, SynopticError};
use synoptic_repl::{
    FaultyTransport, ManualClock, MemTransport, Received, Transport, TransportFault,
};
use synoptic_serve::{ServeConfig, Server};
use synoptic_stream::{ColumnBuild, ColumnHandle, MaintainedPool, RebuildConfig, RebuildPolicy};

/// An exact estimator (true range sums), so degraded answers are
/// arithmetically distinguishable from fresh ones.
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

fn exact_column(pool: &MaintainedPool, name: &str, values: &[i64]) -> ColumnHandle {
    pool.add_column(
        name,
        values,
        ColumnBuild::Custom(Box::new(|v: &[i64], _ps: &PrefixSums, _b: &Budget| {
            Ok(Box::new(Exact {
                ps: PrefixSums::from_values(v),
            }) as Box<dyn RangeEstimator>)
        })),
        RebuildConfig::new(RebuildPolicy::Manual),
    )
    .unwrap()
}

fn mem_session(server: &Server) -> MemTransport {
    let (client_end, mut server_end) = MemTransport::pair();
    let server = server.clone();
    std::thread::spawn(move || server.handle_transport(&mut server_end));
    client_end
}

fn recv_response(t: &mut dyn Transport) -> Response {
    match t.recv(Some(Duration::from_secs(10))).unwrap() {
        Received::Frame(f) => decode_response(&f).unwrap(),
        other => panic!("expected a response frame, got {other:?}"),
    }
}

fn call_with(t: &mut dyn Transport, header: &RequestHeader, req: &Request) -> Response {
    t.send(&encode_request_with(header, req)).unwrap();
    recv_response(t)
}

fn call(t: &mut dyn Transport, req: &Request) -> Response {
    call_with(t, &RequestHeader::default(), req)
}

fn batch(column: &str, ranges: Vec<RangeQuery>) -> Request {
    Request::EstimateBatch(QueryBatch::new(column, ranges))
}

fn header(deadline_ms: Option<u64>, tenant: &str, degrade_ok: bool) -> RequestHeader {
    RequestHeader {
        deadline_ms,
        tenant: (!tenant.is_empty()).then(|| tenant.to_string()),
        degrade_ok,
    }
}

// ---------------------------------------------------------------------------
// Deadline propagation

#[test]
fn expired_deadlines_are_shed_before_execution_with_elapsed_provenance() {
    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "c", &[1, 2, 3, 4]);
    let server = Server::new(ServeConfig::default());
    server.register(col);
    let mut t = mem_session(&server);
    let q = RangeQuery::new(0, 3).unwrap();
    // deadline_ms = 0: expired on arrival, shed before any execution.
    let Response::Error(err) = call_with(&mut t, &header(Some(0), "", false), &batch("c", vec![q]))
    else {
        panic!("an already-expired request must be shed");
    };
    assert!(
        matches!(err, SynopticError::DeadlineExceeded { elapsed_ms: 0 }),
        "got {err:?}"
    );
    assert_eq!(exit_code(&err), EXIT_DEADLINE);
    // A generous deadline answers normally — and the connection survived
    // the shed (a shed is a response, not a disconnect).
    let resp = call_with(
        &mut t,
        &header(Some(60_000), "", false),
        &batch("c", vec![q]),
    );
    let Response::Estimates(answer) = resp else {
        panic!("a live deadline must be answered, got {resp:?}");
    };
    assert_eq!(answer.values, vec![10.0]);
    assert_eq!(answer.rung, None);
    // The shed is counted in the stats surface (headered stats → the
    // extended frame carries the overload meters).
    let Response::Stats(stats) = call_with(
        &mut t,
        &header(None, "mon", false),
        &Request::Stats {
            column: "c".to_string(),
        },
    ) else {
        panic!("stats must answer");
    };
    assert_eq!(stats.deadline_sheds, 1);
    drop(pool);
}

#[test]
fn legacy_stats_frames_zero_the_overload_meters_extended_frames_carry_them() {
    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "c", &[1, 2, 3, 4]);
    let server = Server::new(ServeConfig::default());
    server.register(col);
    let mut t = mem_session(&server);
    let q = RangeQuery::new(0, 3).unwrap();
    // Shed one expired request and answer one estimate, so the meters
    // are non-zero server-side.
    let _ = call_with(&mut t, &header(Some(0), "", false), &batch("c", vec![q]));
    let Response::Estimates(_) = call(&mut t, &batch("c", vec![q])) else {
        panic!("estimate must answer");
    };
    let stats_req = Request::Stats {
        column: "c".to_string(),
    };
    // Un-headered request → legacy dialect: extended fields zeroed.
    let Response::Stats(legacy) = call(&mut t, &stats_req) else {
        panic!("stats must answer");
    };
    assert_eq!(legacy.deadline_sheds, 0, "legacy frames have no meters");
    assert_eq!(legacy.estimate_p99_us, 0);
    // Headered request → extended dialect: meters populated.
    let Response::Stats(ext) = call_with(&mut t, &header(None, "mon", false), &stats_req) else {
        panic!("stats must answer");
    };
    assert_eq!(ext.deadline_sheds, 1);
    assert!(
        ext.estimate_p99_us > 0,
        "one estimate was answered, its latency must be on the meter"
    );
    assert_eq!(legacy.updates, ext.updates, "shared fields agree");
    drop(pool);
}

// ---------------------------------------------------------------------------
// Admission ordering (satellites 2 and 3)

#[test]
fn admission_sheds_never_consume_tenant_tokens() {
    // Regression: in the PR-9 shape, a refused request still burned the
    // quota of the client being refused — shed traffic double-paid.
    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "c", &[1, 2, 3, 4]);
    let clock = ManualClock::new();
    let server = Server::new(ServeConfig {
        max_queue_depth: 0, // every request is queue-shed
        tenant_burst: Some(5),
        tenant_refill_ms: 1_000,
        clock: Arc::new(clock.clone()),
        ..ServeConfig::default()
    });
    server.register(col);
    let mut t = mem_session(&server);
    let q = RangeQuery::new(0, 3).unwrap();
    for _ in 0..10 {
        let Response::Error(err) = call(&mut t, &batch("c", vec![q])) else {
            panic!("queue depth 0 must shed every estimate");
        };
        assert!(
            matches!(&err, SynopticError::ServerOverloaded { what, .. } if what == "queue depth"),
            "got {err:?}"
        );
    }
    // Expired-deadline sheds don't reach the bucket either.
    for _ in 0..10 {
        let Response::Error(err) =
            call_with(&mut t, &header(Some(0), "a", false), &batch("c", vec![q]))
        else {
            panic!("an expired request must be shed");
        };
        assert!(matches!(err, SynopticError::DeadlineExceeded { .. }));
    }
    // No token was ever taken: the bucket table has never even seen a
    // tenant (a take — admitted or refused — would have created one).
    let Response::Stats(stats) = call_with(
        &mut t,
        &header(None, "mon", false),
        &Request::Stats {
            column: "c".to_string(),
        },
    ) else {
        panic!("stats must answer even at queue depth 0");
    };
    assert_eq!(stats.tenants, 0, "sheds must not touch the token buckets");
    assert_eq!(stats.refused, 10);
    assert_eq!(stats.deadline_sheds, 10);
    drop(pool);
}

#[test]
fn stats_requests_bypass_queue_depth_lag_and_token_admission() {
    // Monitoring must keep working precisely when the server is
    // refusing everything else.
    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "c", &[1, 2, 3, 4]);
    let server = Server::new(ServeConfig {
        max_queue_depth: 0,
        max_rebuild_lag: Some(0),
        tenant_burst: Some(0), // every token take refuses
        ..ServeConfig::default()
    });
    server.register(col.clone());
    col.update(0, 1).unwrap(); // lag 1 > bound 0
    let mut t = mem_session(&server);
    let q = RangeQuery::new(0, 3).unwrap();
    // Everything else is refused…
    assert!(matches!(
        call(&mut t, &batch("c", vec![q])),
        Response::Error(SynopticError::ServerOverloaded { .. })
    ));
    assert!(matches!(
        call(&mut t, &Request::Ping),
        Response::Error(SynopticError::ServerOverloaded { .. })
    ));
    // …but stats answer, repeatedly, with the refusals on the meter.
    for round in 1..=3u64 {
        let Response::Stats(stats) = call(
            &mut t,
            &Request::Stats {
                column: "c".to_string(),
            },
        ) else {
            panic!("stats must bypass admission");
        };
        assert_eq!(stats.refused, 2, "round {round}: both refusals counted");
    }
    drop(pool);
}

// ---------------------------------------------------------------------------
// The degradation ladder

#[test]
fn queue_pressure_with_degrade_ok_descends_to_naive_then_cache_hit() {
    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "c", &[1, 2, 3, 4]);
    let server = Server::new(ServeConfig {
        max_queue_depth: 0, // permanent queue pressure
        ..ServeConfig::default()
    });
    server.register(col);
    let mut t = mem_session(&server);
    let full = RangeQuery::new(0, 3).unwrap();
    let half = RangeQuery::new(0, 1).unwrap();
    let h = header(None, "a", true);

    // Without degrade_ok: refused (the PR-9 behavior, unchanged).
    let Response::Error(err) = call(&mut t, &batch("c", vec![full])) else {
        panic!("no degrade_ok means a refusal");
    };
    assert_eq!(exit_code(&err), EXIT_REFUSED);

    // Cold cache, degrade_ok: the naive rung — total mass spread
    // uniformly, loudly stamped.
    let Response::Estimates(naive) = call_with(&mut t, &h, &batch("c", vec![half, full])) else {
        panic!("degrade_ok must be answered");
    };
    assert_eq!(naive.rung, Some(DegradeRung::Naive));
    assert_eq!(naive.source, AnswerSource::FallbackNaive);
    assert_eq!(
        naive.values,
        vec![5.0, 10.0],
        "total 10 spread uniformly: half the rows get half the mass"
    );
    assert_eq!(naive.cached, vec![false, false]);

    // The naive rung cached the full-range total; a full-range batch now
    // takes the cheaper cache-hit rung with the TRUE value.
    let Response::Estimates(hit) = call_with(&mut t, &h, &batch("c", vec![full])) else {
        panic!("degrade_ok must be answered");
    };
    assert_eq!(hit.rung, Some(DegradeRung::CacheHit));
    assert_eq!(hit.source, AnswerSource::Primary, "cache hits are fresh");
    assert_eq!(hit.values, vec![10.0]);
    assert_eq!(hit.cached, vec![true]);
    drop(pool);
}

#[test]
fn lag_pressure_with_degrade_ok_serves_last_good_with_stamped_staleness() {
    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "c", &[1i64; 8]);
    let server = Server::new(ServeConfig {
        max_rebuild_lag: Some(2),
        ..ServeConfig::default()
    });
    server.register(col.clone());
    let mut t = mem_session(&server);
    let q = RangeQuery::new(0, 7).unwrap();
    for _ in 0..3 {
        col.update(0, 1).unwrap(); // lag 3 > bound 2, no rebuild (Manual)
    }
    // Without degrade_ok: the lag bound refuses (PR-9 behavior).
    let Response::Error(err) = call(&mut t, &batch("c", vec![q])) else {
        panic!("lag over bound must refuse");
    };
    assert!(
        matches!(&err, SynopticError::ServerOverloaded { what, observed: 3, limit: 2 } if what == "rebuild lag")
    );
    // With degrade_ok: the last-good rung — the serving synopsis at its
    // actual staleness, stamped as a generation fallback.
    let h = header(None, "a", true);
    let Response::Estimates(last_good) = call_with(&mut t, &h, &batch("c", vec![q])) else {
        panic!("degrade_ok must be answered");
    };
    assert_eq!(last_good.rung, Some(DegradeRung::LastGood));
    assert_eq!(
        last_good.source,
        AnswerSource::FallbackGeneration { generation: 0 }
    );
    assert_eq!(last_good.lag, 3, "staleness is loud, never silent");
    assert_eq!(
        last_good.values,
        vec![8.0],
        "the pinned snapshot pre-dates the updates"
    );
    // Its compute warmed the cache: the same batch now takes the
    // cache-hit rung.
    let Response::Estimates(hit) = call_with(&mut t, &h, &batch("c", vec![q])) else {
        panic!("degrade_ok must be answered");
    };
    assert_eq!(hit.rung, Some(DegradeRung::CacheHit));
    assert_eq!(hit.cached, vec![true]);
    drop(pool);
}

// ---------------------------------------------------------------------------
// Wire back-compat: a pre-header client against the new server

#[test]
fn pr9_request_frames_round_trip_against_the_new_server() {
    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }
    // Captured from the PR-9 codec (see wire.rs's golden-frame test):
    // Ping, EstimateBatch("price",[(2,9),(4,4)]), Stats("price").
    let golden_ping = unhex("53515031015533c617");
    let golden_batch = unhex(
        "53515031030500707269636502000000020000000000000009000000000000000400000000000000040000000000000040e7a4a5",
    );
    let golden_stats = unhex("535150310705007072696365d4ed495d");

    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "price", &[1i64; 16]);
    let server = Server::new(ServeConfig::default());
    server.register(col);
    let mut t = mem_session(&server);

    let mut legacy_call = |frame: &[u8]| -> (u8, Response) {
        t.send(frame).unwrap();
        match t.recv(Some(Duration::from_secs(10))).unwrap() {
            Received::Frame(f) => (f[4], decode_response(&f).unwrap()),
            other => panic!("expected a frame, got {other:?}"),
        }
    };

    // The old client's exact bytes are understood…
    let (ty, resp) = legacy_call(&golden_ping);
    assert_eq!(resp, Response::Pong);
    assert!(ty <= 9, "a legacy request must get a legacy frame type");

    let (ty, resp) = legacy_call(&golden_batch);
    let Response::Estimates(answer) = resp else {
        panic!("expected estimates, got {resp:?}");
    };
    assert_eq!(answer.values, vec![8.0, 1.0]);
    assert_eq!(answer.rung, None);
    assert!(ty <= 9, "…and answered in frame types it can decode");

    let (ty, resp) = legacy_call(&golden_stats);
    let Response::Stats(stats) = resp else {
        panic!("expected stats, got {resp:?}");
    };
    assert_eq!(stats.column, "price");
    assert_eq!(stats.n, 16);
    assert!(ty <= 9, "legacy stats stay in the legacy frame");

    // And the new client sending no header emits those same bytes: the
    // upgrade is invisible until a header is actually used.
    assert_eq!(encode_request(&Request::Ping), golden_ping);
    assert_eq!(
        encode_request_with(&RequestHeader::default(), &Request::Ping),
        golden_ping
    );
    drop(pool);
}

// ---------------------------------------------------------------------------
// The overload storm: the tentpole proof

#[test]
fn overload_storm_sheds_fairly_degrades_loudly_and_never_wedges_updates() {
    let pool = MaintainedPool::new(1);
    let col = exact_column(&pool, "c", &[1i64; 16]);
    let clock = ManualClock::new();
    let server = Server::new(ServeConfig {
        tenant_burst: Some(4),
        tenant_refill_ms: 10,
        max_rebuild_lag: Some(4),
        clock: Arc::new(clock.clone()),
        ..ServeConfig::default()
    });
    server.register(col);

    // Four reader tenants at identical offered load. Two opt into
    // degradation; two don't. One of each pair runs over a faulted
    // transport (delayed frames for a degrader, dropped request frames
    // for a refuser), because storms arrive on bad networks.
    let degrade = [true, true, false, false];
    let mut sessions: Vec<MemTransport> = Vec::new();
    for (i, _) in degrade.iter().enumerate() {
        let (client_end, server_end) = MemTransport::pair();
        let server = server.clone();
        let faults = match i {
            1 => vec![
                TransportFault::Delay { frames: 2 },
                TransportFault::Clean,
                TransportFault::Clean,
                TransportFault::Delay { frames: 1 },
            ],
            3 => vec![
                TransportFault::Clean,
                TransportFault::Clean,
                TransportFault::Clean,
                TransportFault::Drop,
            ],
            _ => vec![],
        };
        std::thread::spawn(move || {
            let mut t = FaultyTransport::with_recv_faults(server_end, vec![], faults);
            server.handle_transport(&mut t);
        });
        sessions.push(client_end);
    }
    let mut writer = mem_session(&server);

    let q = RangeQuery::new(0, 15).unwrap();
    const ROUNDS: usize = 20;
    // Capacity per tenant over the storm: 4 burst + 1 refill per round
    // (10 ticks at refill_ms=10) = 24 admissions. Offered: 2 per round =
    // 40 — a sustained 2x overload.
    let mut answered = [0u64; 4];
    let mut degraded = [0u64; 4];
    let mut refused = [0u64; 4];
    let mut lost = [0u64; 4];
    let mut updates_applied = 0u64;

    for round in 0..ROUNDS {
        for (i, t) in sessions.iter_mut().enumerate() {
            let h = header(Some(60_000), &format!("tenant-{i}"), degrade[i]);
            for _ in 0..2 {
                t.send(&encode_request_with(&h, &batch("c", vec![q])))
                    .unwrap();
                // A dropped request frame never reaches the server; the
                // short timeout stands in for the client giving up.
                match t.recv(Some(Duration::from_secs(5))) {
                    Ok(Received::Frame(f)) => match decode_response(&f).unwrap() {
                        Response::Estimates(answer) => {
                            answered[i] += 1;
                            // ZERO SILENT STALENESS: any answer not
                            // computed fresh within the lag bound must
                            // carry its rung and a non-primary source
                            // (or be a stamped cache hit).
                            match answer.rung {
                                None => {
                                    assert!(
                                        answer.lag <= 4,
                                        "un-stamped answer at lag {} breaches the bound",
                                        answer.lag
                                    );
                                    assert_eq!(answer.source, AnswerSource::Primary);
                                }
                                Some(DegradeRung::CacheHit) => {
                                    degraded[i] += 1;
                                    assert!(answer.cached.iter().all(|&c| c));
                                }
                                Some(DegradeRung::LastGood) => {
                                    degraded[i] += 1;
                                    assert_eq!(
                                        answer.source,
                                        AnswerSource::FallbackGeneration {
                                            generation: answer.generation
                                        }
                                    );
                                    assert!(answer.lag > 4, "LastGood implies real staleness");
                                }
                                Some(DegradeRung::Naive) => {
                                    degraded[i] += 1;
                                    assert_eq!(answer.source, AnswerSource::FallbackNaive);
                                }
                            }
                        }
                        Response::Error(SynopticError::ServerOverloaded { .. }) => {
                            refused[i] += 1;
                        }
                        other => panic!("unexpected response in storm: {other:?}"),
                    },
                    Ok(Received::TimedOut) => lost[i] += 1,
                    other => panic!("storm connection died: {other:?}"),
                }
            }
        }
        // THE STORM NEVER WEDGES UPDATES: one write lands every round,
        // from its own tenant bucket, no matter how hard readers storm.
        let wh = header(Some(60_000), "writer", false);
        let resp = call_with(
            &mut writer,
            &wh,
            &Request::Update {
                column: "c".to_string(),
                deltas: vec![(round as u64 % 16, 1)],
            },
        );
        let Response::Updated { applied, .. } = resp else {
            panic!("round {round}: update wedged by the storm: {resp:?}");
        };
        updates_applied += applied;
        clock.advance(10);
    }

    assert_eq!(updates_applied, ROUNDS as u64, "every update landed");
    for i in 0..4 {
        assert_eq!(
            answered[i] + refused[i] + lost[i],
            2 * ROUNDS as u64,
            "tenant {i}: every offered request is accounted for"
        );
    }
    // After round ~5 the lag bound (4) is breached and never recovers
    // (Manual rebuilds): degraders MUST have taken the ladder.
    assert!(degraded[0] > 0 && degraded[1] > 0, "{degraded:?}");
    assert_eq!(
        degraded[2] + degraded[3],
        0,
        "no degrade_ok, no degraded answers"
    );
    // PER-TENANT FAIRNESS OF SHED TRAFFIC: tenants offering identical
    // load are shed within 2x of each other, transport faults included.
    // (Like compares with like: degraders pay tokens for degraded
    // answers, refusers are lag-refused for free, so the two classes
    // shed at different — but internally fair — rates.)
    let fair = |a: u64, b: u64| {
        let (lo, hi) = (a.min(b).max(1), a.max(b));
        assert!(
            hi <= 2 * lo,
            "shed counts {a} vs {b} breach the 2x fairness bound"
        );
    };
    fair(refused[0], refused[1]);
    fair(refused[2] + lost[2], refused[3] + lost[3]);
    fair(answered[0], answered[1]);

    // The meters saw the storm: tenants tracked, degradations counted,
    // latency percentiles alive.
    let Response::Stats(stats) = call_with(
        &mut writer,
        &header(None, "writer", false),
        &Request::Stats {
            column: "c".to_string(),
        },
    ) else {
        panic!("stats must answer after the storm");
    };
    assert_eq!(stats.tenants, 5, "4 reader tenants + the writer");
    assert_eq!(stats.degraded, degraded.iter().sum::<u64>());
    assert!(stats.refused >= refused.iter().sum::<u64>());
    assert!(stats.update_p99_us > 0, "update latencies were recorded");
    assert_eq!(stats.updates, ROUNDS as u64);
    drop(pool);
}
