//! Property and protocol tests for the reactor serving loop.
//!
//! The tentpole claim of the reactor rewrite is that **sharding changed
//! nothing observable**: per-worker shard sketches folding into the
//! published serving state on query/checkpoint/stream-end land in
//! checkpoint bytes **bit-identical** to a single-threaded replay of the
//! concatenated kept updates — for both hash backends, both
//! [`ServePolicy`] values, any worker-pool size, and with load shedding
//! (`BUSY` refusals) happening along the way.  Linearity licenses the
//! claim (wrapping `i64` counters add exactly mod 2⁶⁴, so the multiset
//! of increments determines the counters regardless of which shard
//! absorbed what); the proptest here enforces it over real loopback sockets.
//!
//! Also covered, over the reactor path specifically: command lines split
//! across readiness events, wire frames split mid-frame across writes,
//! oversized command lines, interleaved queries and ingest streams
//! pipelined on one connection, and the deterministic `BUSY` shed reply.

mod common;

use common::*;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use zerolaw::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole bit-exactness claim: N loopback clients through the
    /// reactor — a random subset dying mid-stream, every server first
    /// driven to its connection cap so at least one `BUSY` shed happens —
    /// land the serving state in checkpoint bytes identical to the
    /// single-threaded concat replay of the kept updates, under both hash
    /// backends, both policies, and varying worker-pool sizes.
    #[test]
    fn sharded_serving_equals_concat_replay_under_load_shedding(
        raw in prop::collection::vec(
            (prop::collection::vec((0..DOMAIN, -20i64..21), 1..80), 0u64..1_000, 0u64..10_000),
            1..5,
        ),
        workers in 1usize..4,
    ) {
        const MAX_CONNECTIONS: usize = 2;
        let specs = client_specs(&raw);
        for backend in BACKENDS {
            for policy in POLICIES {
                let (single, expect_durable) = replay(proto(backend), &specs, policy);
                let expect_bytes = single.to_checkpoint_bytes().expect("save reference");

                let sheds = Arc::new(AtomicU64::new(0));
                let sheds_in_observer = Arc::clone(&sheds);
                let config = ServeConfig::new()
                    .with_policy(policy)
                    .with_checkpoint_every(37)
                    .with_workers(workers)
                    .with_max_connections(MAX_CONNECTIONS)
                    .with_observer(move |event| {
                        if matches!(event, ServeEvent::ConnectionShed { .. }) {
                            sheds_in_observer.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                let ((verdicts, (est_bits, count)), summary, server) =
                    with_server(proto(backend), config, |addr| {
                        // Force a deterministic shed: fill every connection
                        // slot, then watch one more connection get the typed
                        // refusal.
                        let holders: Vec<TcpStream> =
                            (0..MAX_CONNECTIONS).map(|_| holder(addr)).collect();
                        let shed = TcpStream::connect(addr).expect("connect");
                        let mut line = String::new();
                        BufReader::new(shed).read_line(&mut line).expect("read");
                        assert_eq!(
                            Response::parse(&line),
                            Ok(Response::Busy(MAX_CONNECTIONS as u64)),
                            "a connection past the cap must get the typed refusal"
                        );
                        drop(holders);

                        // The client fleet; contention past the cap resolves
                        // through BUSY-and-retry inside run_client.
                        let verdicts: Vec<Response> = std::thread::scope(|clients| {
                            let handles: Vec<_> = specs
                                .iter()
                                .map(|(updates, cut)| {
                                    let bytes = encode_client(updates, *cut);
                                    clients.spawn(move || run_client(addr, &bytes, cut.is_none()))
                                })
                                .collect();
                            handles.into_iter().map(|h| h.join().expect("client")).collect()
                        });
                        (verdicts, query_and_quit(addr))
                    });

                for ((_, cut), verdict) in specs.iter().zip(&verdicts) {
                    match cut {
                        None => prop_assert!(
                            matches!(verdict, Response::Ok(_)),
                            "complete stream must be acknowledged, got {:?}", verdict
                        ),
                        Some(_) => prop_assert!(
                            matches!(verdict, Response::Err(_)),
                            "truncated stream must be refused, got {:?}", verdict
                        ),
                    }
                }
                prop_assert_eq!(count, expect_durable);
                prop_assert_eq!(
                    est_bits, single.estimate().to_bits(),
                    "EST must answer from exactly the reference state"
                );
                prop_assert!(summary.clean_shutdown);
                let (completed, failed, discarded) = expected_stream_stats(&specs, policy);
                prop_assert_eq!(summary.stats.streams_completed, completed);
                prop_assert_eq!(summary.stats.streams_failed, failed);
                prop_assert_eq!(summary.stats.updates_discarded, discarded);
                prop_assert!(
                    sheds.load(Ordering::Relaxed) >= 1,
                    "the forced shed must be observed"
                );

                let snapshot = server.coordinator().snapshot().expect("snapshot");
                prop_assert_eq!(snapshot.durable_count(), expect_durable);
                prop_assert_eq!(
                    snapshot.state_bytes(),
                    expect_bytes.as_slice(),
                    "{:?}/{:?}/{} workers: sharded serving state must equal \
                     the single-threaded concat replay bit for bit",
                    policy, backend, workers
                );
            }
        }
    }
}

/// A command line that arrives in two readiness events ("ES", pause, "T\n")
/// must parse exactly like one write — and the connection stays usable.
#[test]
fn command_split_across_readiness_events_parses_whole() {
    let ((), summary, _server) =
        with_server(proto(HashBackend::Polynomial), ServeConfig::new(), |addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));

            stream.write_all(b"ES").expect("first half");
            std::thread::sleep(Duration::from_millis(30));
            stream.write_all(b"T\n").expect("second half");
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert!(
                matches!(Response::parse(&line), Ok(Response::Est { .. })),
                "split EST must answer: {line:?}"
            );

            // Same connection, next request: COUNT split byte by byte.
            for b in b"COUNT\n" {
                stream.write_all(&[*b]).expect("byte");
            }
            line.clear();
            reader.read_line(&mut line).expect("read");
            assert_eq!(Response::parse(&line), Ok(Response::Count(0)));

            writeln!(stream, "QUIT").expect("send");
            line.clear();
            reader.read_line(&mut line).expect("read");
            assert_eq!(Response::parse(&line), Ok(Response::Bye));
        });
    assert!(summary.clean_shutdown);
}

/// A framed wire stream dribbled out in arbitrary small chunks — cutting
/// headers, frame headers and update payloads mid-field — decodes to the
/// same acknowledged stream as one contiguous write.
#[test]
fn wire_stream_split_mid_frame_decodes_whole() {
    let updates: Vec<Update> = (0..50u64)
        .map(|i| Update::new(i % DOMAIN, 3 - i as i64))
        .collect();
    let bytes = encode_client(&updates, None);
    let (verdict, summary, server) =
        with_server(proto(HashBackend::Polynomial), ServeConfig::new(), |addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            for chunk in bytes.chunks(7) {
                stream.write_all(chunk).expect("chunk");
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut line = String::new();
            BufReader::new(stream.try_clone().expect("clone"))
                .read_line(&mut line)
                .expect("read");
            let verdict = Response::parse(&line).expect("parse");
            drop(stream);
            query_and_quit(addr);
            verdict
        });
    assert_eq!(verdict, Response::Ok(updates.len() as u64));
    assert!(summary.clean_shutdown);
    let mut single = proto(HashBackend::Polynomial);
    for &u in &updates {
        single.update(u);
    }
    assert_eq!(
        server.estimate().to_bits(),
        single.estimate().to_bits(),
        "dribbled ingest must land on the single-shot state"
    );
}

/// Garbage that never newline-terminates is rejected with a typed error
/// once it exceeds the command-line bound, and the connection is closed —
/// not buffered forever.
#[test]
fn oversized_command_line_is_rejected_and_closed() {
    let ((), summary, _server) =
        with_server(proto(HashBackend::Polynomial), ServeConfig::new(), |addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&[b'X'; 300]).expect("garbage");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            match Response::parse(&line) {
                Ok(Response::Err(reason)) => {
                    assert!(reason.contains("too long"), "reason: {reason:?}")
                }
                other => panic!("expected ERR, got {other:?}"),
            }
            line.clear();
            let n = reader.read_line(&mut line).expect("read");
            assert_eq!(n, 0, "the connection must be closed after the rejection");
            drop(stream);
            query_and_quit(addr);
        });
    assert!(summary.clean_shutdown);
}

/// One connection, everything pipelined in a single write: a query, a full
/// ingest stream, another query, a second stream, QUIT.  The reactor must
/// preserve request boundaries (the decoder stops consuming at each END
/// frame) and answer in order.
#[test]
fn interleaved_queries_and_ingest_pipeline_on_one_connection() {
    let first: Vec<Update> = (0..40u64).map(|i| Update::new(i % DOMAIN, 2)).collect();
    let second: Vec<Update> = (0..25u64)
        .map(|i| Update::new((i * 3) % DOMAIN, -1))
        .collect();
    let mut wire = Vec::new();
    wire.extend_from_slice(b"EST\n");
    wire.extend_from_slice(&encode_client(&first, None));
    wire.extend_from_slice(b"COUNT\n");
    wire.extend_from_slice(&encode_client(&second, None));
    wire.extend_from_slice(b"QUIT\n");

    let (lines, summary, server) =
        with_server(proto(HashBackend::Polynomial), ServeConfig::new(), |addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&wire).expect("pipelined write");
            let mut reader = BufReader::new(stream);
            let mut lines = Vec::new();
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).expect("read") == 0 {
                    break;
                }
                lines.push(Response::parse(&line).expect("parse"));
            }
            lines
        });
    let total = (first.len() + second.len()) as u64;
    assert!(
        matches!(lines[0], Response::Est { .. }),
        "first reply answers the leading EST: {lines:?}"
    );
    assert_eq!(lines[1], Response::Ok(first.len() as u64));
    assert_eq!(lines[2], Response::Count(first.len() as u64));
    assert_eq!(lines[3], Response::Ok(total));
    assert_eq!(lines[4], Response::Bye);
    assert_eq!(lines.len(), 5);
    assert!(summary.clean_shutdown);
    assert_eq!(server.durable_count(), total);
    assert_eq!(summary.stats.streams_completed, 2);
}

/// The shed reply is deterministic: with every slot provably occupied, the
/// next connection reads exactly `BUSY <cap>` and nothing is ingested.
#[test]
fn connection_past_the_cap_reads_busy_deterministically() {
    let sheds = Arc::new(AtomicU64::new(0));
    let sheds_in_observer = Arc::clone(&sheds);
    let config = ServeConfig::new()
        .with_max_connections(1)
        .with_observer(move |event| {
            if matches!(event, ServeEvent::ConnectionShed { .. }) {
                sheds_in_observer.fetch_add(1, Ordering::Relaxed);
            }
        });
    let sheds_in_body = Arc::clone(&sheds);
    let ((), summary, server) = with_server(proto(HashBackend::Polynomial), config, |addr| {
        let occupant = holder(addr);
        for _ in 0..3 {
            let shed = TcpStream::connect(addr).expect("connect");
            let mut line = String::new();
            BufReader::new(shed).read_line(&mut line).expect("read");
            assert_eq!(Response::parse(&line), Ok(Response::Busy(1)));
        }
        // A received BUSY line means its shed was fully processed, so the
        // count is exact here; the retrying shutdown query below may race
        // the reaping of `occupant` and shed a few more times.
        assert_eq!(sheds_in_body.load(Ordering::Relaxed), 3);
        drop(occupant);
        query_and_quit(addr);
    });
    assert!(summary.clean_shutdown);
    assert!(sheds.load(Ordering::Relaxed) >= 3);
    assert_eq!(server.durable_count(), 0);
    assert_eq!(summary.stats.streams_failed, 0);
}

/// The wrapping contract at the server: counters are exact mod 2⁶⁴, so a
/// framed stream whose per-item totals overflow `i64` — `(i, i64::MAX)`
/// then `(i, 1)`, and `i64::MIN` deltas — is acknowledged `OK` like any
/// other stream, and its `EST` bits and checkpoint bytes equal a
/// per-update replay, under both hash backends and both policies.
#[test]
fn overflowing_deltas_wrap_to_per_update_replay() {
    let mut updates = vec![
        Update::new(7, i64::MAX),
        Update::new(7, 1),
        Update::new(3, i64::MIN),
        Update::new(3, -1),
        Update::new(5, i64::MIN),
        Update::new(5, i64::MIN),
        Update::new(9, i64::MAX),
        Update::new(9, i64::MAX),
        Update::new(9, 2),
    ];
    updates.extend((0..200u64).map(|i| Update::new(i % DOMAIN, 1 - (i as i64 % 3))));
    for backend in BACKENDS {
        for policy in POLICIES {
            let mut single = proto(backend);
            for &u in &updates {
                single.update(u);
            }
            let config = ServeConfig::new().with_policy(policy).with_observer(|_| {});
            let ((verdict, (est_bits, count)), summary, server) =
                with_server(proto(backend), config, |addr| {
                    let verdict = run_client(addr, &encode_client(&updates, None), true);
                    (verdict, query_and_quit(addr))
                });
            let n = updates.len() as u64;
            assert_eq!(verdict, Response::Ok(n), "{policy:?}/{backend:?}");
            assert_eq!(count, n);
            assert_eq!(
                est_bits,
                single.estimate().to_bits(),
                "{policy:?}/{backend:?}: EST must answer the per-update replay bits"
            );
            assert_eq!(
                server
                    .coordinator()
                    .snapshot()
                    .expect("snapshot")
                    .state_bytes(),
                single.to_checkpoint_bytes().expect("save").as_slice(),
                "{policy:?}/{backend:?}: served bytes must equal the per-update replay"
            );
            assert!(summary.clean_shutdown);
            assert_eq!(summary.stats.streams_completed, 1);
            assert_eq!(summary.stats.streams_failed, 0);
        }
    }
}
