//! Property tests for the serving layer's multi-client fan-in.
//!
//! The acceptance contract of the server's fan-in is *merge-order
//! invariance*: client streams served over loopback — in any client
//! order, with any mix of partially-failed streams, under either
//! [`ServePolicy`], from any number of concurrent connections — must land
//! the serving state in checkpoint bytes **bit-identical** to a
//! single-threaded replay of exactly the kept updates, with exact
//! `streams_completed` / `streams_failed` / `updates_discarded` counters.
//! Linearity licenses the claim (wrapping `i64` counters add exactly mod
//! 2⁶⁴, so merging is commutative and associative to the bit) and these
//! tests enforce it for both hash backends.
//!
//! Also covered: the parked-state fan-in path (checkpoint bytes fold
//! identically to live sketches), the server's decode-time rejection of a
//! client stream declaring the wrong domain, and a stalled client that
//! must not wedge a clean shutdown.

mod common;

use common::*;
use proptest::prelude::*;
use std::time::Duration;
use zerolaw::prelude::*;

/// Deterministic Fisher–Yates from a seed (the proptest shim has no
/// permutation strategy).
fn shuffle(order: &mut [usize], seed: u64) {
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((state >> 33) as usize) % (i + 1);
        order.swap(i, j);
    }
}

/// Check a client's verdict: `OK` for a complete stream, a truncation
/// `ERR` for one that died before its end-of-stream frame.
fn verdict_matches(verdict: &Response, cut: Option<usize>) -> bool {
    match (cut, verdict) {
        (None, Response::Ok(_)) => true,
        (Some(_), Response::Err(reason)) => reason.contains("end-of-stream"),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Serve clients one at a time in a random permutation, with a random
    /// subset dying mid-stream: the serving state's checkpoint bytes equal
    /// the single-threaded replay of the kept updates, for both policies
    /// and both backends — and the canonical client order used by the
    /// reference shows the fold order never matters.
    #[test]
    fn fan_in_is_permutation_and_failure_invariant(
        raw in prop::collection::vec(
            (prop::collection::vec((0..DOMAIN, -20i64..21), 1..120), 0u64..1_000, 0u64..10_000),
            1..5,
        ),
        perm_seed in 0u64..u64::MAX,
    ) {
        let specs = client_specs(&raw);
        let mut order: Vec<usize> = (0..specs.len()).collect();
        shuffle(&mut order, perm_seed);

        for backend in BACKENDS {
            for policy in POLICIES {
                let (single, expect_durable) = replay(proto(backend), &specs, policy);
                let expect_bytes = single.to_checkpoint_bytes().expect("save reference");

                let config = ServeConfig::new()
                    .with_policy(policy)
                    .with_checkpoint_every(37)
                    .with_observer(|_| {});
                let ((verdicts, (est_bits, count)), summary, server) =
                    with_server(proto(backend), config, |addr| {
                        // One client at a time: each verdict arrives after
                        // the server resolved that stream, so the server
                        // folds the clients in exactly this order.
                        let verdicts: Vec<Response> = order
                            .iter()
                            .map(|&i| {
                                let (updates, cut) = &specs[i];
                                run_client(addr, &encode_client(updates, *cut), cut.is_none())
                            })
                            .collect();
                        (verdicts, query_and_quit(addr))
                    });

                for (&i, verdict) in order.iter().zip(&verdicts) {
                    prop_assert!(
                        verdict_matches(verdict, specs[i].1),
                        "client {} (cut {:?}) got {:?}: completion must track the \
                         end-of-stream frame, and a cut stream must fail as truncation",
                        i, specs[i].1, verdict
                    );
                }
                prop_assert_eq!(count, expect_durable);
                prop_assert_eq!(est_bits, single.estimate().to_bits());
                prop_assert!(summary.clean_shutdown);
                let (completed, failed, discarded) = expected_stream_stats(&specs, policy);
                prop_assert_eq!(summary.stats.streams_completed, completed);
                prop_assert_eq!(summary.stats.streams_failed, failed);
                prop_assert_eq!(summary.stats.updates_discarded, discarded);

                let snapshot = server.coordinator().snapshot().expect("snapshot");
                prop_assert_eq!(snapshot.durable_count(), expect_durable);
                prop_assert_eq!(
                    snapshot.state_bytes(),
                    expect_bytes.as_slice(),
                    "client order {:?} under {:?}/{:?} must be bit-identical to the reference",
                    &order, policy, backend
                );
            }
        }
    }

    /// A client state that traveled as checkpoint bytes (ParkedState) folds
    /// exactly like the live sketch it was parked from.
    #[test]
    fn parked_state_fan_in_equals_live_fan_in(
        raw in prop::collection::vec(
            (prop::collection::vec((0..DOMAIN, -20i64..21), 1..150), 0u64..1, 0u64..1),
            1..4,
        ),
    ) {
        let specs = client_specs(&raw);
        for backend in BACKENDS {
            let prototype = proto(backend);
            let live = MergeCoordinator::new(prototype.clone(), 0, 1_000, None, None)
                .expect("config");
            let parked = MergeCoordinator::new(prototype.clone(), 0, 1_000, None, None)
                .expect("config");

            for (updates, _) in &specs {
                let mut client = prototype.clone();
                for &u in updates {
                    client.update(u);
                }
                assert!(matches!(
                    live.fold(&client, updates.len() as u64).expect("fold"),
                    FoldOutcome::Merged { .. }
                ));
                let bytes = ParkedState::park(&client, updates.len() as u64).expect("park");
                assert!(matches!(
                    parked.fold_parked(&bytes).expect("fold parked"),
                    FoldOutcome::Merged { .. }
                ));
            }

            prop_assert_eq!(live.durable_count(), parked.durable_count());
            let live_snapshot = live.snapshot().expect("snapshot");
            let parked_snapshot = parked.snapshot().expect("snapshot");
            prop_assert_eq!(
                live_snapshot.state_bytes(),
                parked_snapshot.state_bytes(),
                "backend {:?}: parked bytes must fold exactly like live sketches",
                backend
            );
        }
    }
}

/// True concurrency: six client streams released together by a barrier
/// over loopback still land bit-identically on the single-threaded replay
/// — the fold workers' shards and the coordinator lock serialize folds,
/// linearity makes their interleaving irrelevant.  Each stream is longer
/// than twice the reactor's dispatch threshold (1024 decoded updates),
/// framed 128 updates at a time and written in small paced chunks, so it
/// reaches its fold worker as several messages; the odd-indexed clients
/// die after 1500 updates, past the first dispatch.
#[test]
fn concurrent_thread_fan_in_is_bit_identical() {
    const CLIENTS: usize = 6;
    const UPDATES: u64 = 2_600;
    const CUT: usize = 1_500;
    for backend in BACKENDS {
        for policy in POLICIES {
            let specs: Vec<ClientSpec> = (0..CLIENTS)
                .map(|c| {
                    let updates: Vec<Update> = (0..UPDATES)
                        .map(|i| Update::new((i * (c as u64 + 3)) % DOMAIN, 1 - (i as i64 % 3)))
                        .collect();
                    (updates, (c % 2 == 1).then_some(CUT))
                })
                .collect();
            let (single, expect_durable) = replay(proto(backend), &specs, policy);

            let config = ServeConfig::new()
                .with_policy(policy)
                .with_checkpoint_every(64)
                .with_observer(|_| {});
            let ((verdicts, (est_bits, count)), summary, server) =
                with_server(proto(backend), config, |addr| {
                    let barrier = std::sync::Barrier::new(CLIENTS);
                    let verdicts: Vec<Response> = std::thread::scope(|clients| {
                        let handles: Vec<_> = specs
                            .iter()
                            .map(|(updates, cut)| {
                                let barrier = &barrier;
                                clients.spawn(move || {
                                    let sent = &updates[..cut.unwrap_or(updates.len())];
                                    let bytes = encode_frames(sent, 128, cut.is_none());
                                    barrier.wait();
                                    run_client_chunked(
                                        addr,
                                        &bytes,
                                        cut.is_none(),
                                        4 * 1024,
                                        Duration::from_millis(1),
                                    )
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("client"))
                            .collect()
                    });
                    (verdicts, query_and_quit(addr))
                });

            for ((_, cut), verdict) in specs.iter().zip(&verdicts) {
                assert!(verdict_matches(verdict, *cut), "cut {cut:?}: {verdict:?}");
            }
            assert_eq!(count, expect_durable);
            assert_eq!(est_bits, single.estimate().to_bits());
            assert_eq!(
                server
                    .coordinator()
                    .snapshot()
                    .expect("snapshot")
                    .state_bytes(),
                single.to_checkpoint_bytes().expect("save").as_slice(),
                "{policy:?}/{backend:?}: concurrent fan-in must equal the single-threaded replay"
            );
            assert!(summary.clean_shutdown);
            let (completed, failed, discarded) = expected_stream_stats(&specs, policy);
            assert_eq!(summary.stats.streams_completed, completed);
            assert_eq!(summary.stats.streams_failed, failed);
            assert_eq!(summary.stats.updates_discarded, discarded);
        }
    }
}

/// Satellite regression: a stream declaring a different domain than the
/// server serves is rejected at decode — a typed error on the reply
/// channel, nothing applied to the serving state.
#[test]
fn server_rejects_wrong_domain_at_decode() {
    use std::io::{BufRead, BufReader, BufWriter};
    use std::net::TcpStream;

    let ((), summary, server) =
        with_server(proto(HashBackend::Polynomial), ServeConfig::new(), |addr| {
            // Declare domain 32 to a server serving 64.
            let stream = TcpStream::connect(addr).expect("connect");
            let mut read_half = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = FrameWriter::new(BufWriter::new(stream), 32).expect("header");
            writer.write_update(Update::insert(1)).expect("write");
            writer.finish().expect("finish");
            let mut line = String::new();
            read_half.read_line(&mut line).expect("reply");
            match Response::parse(&line).expect("parse") {
                Response::Err(reason) => {
                    assert!(
                        reason.contains("declares domain 32") && reason.contains("64"),
                        "reply must name both domains: {reason:?}"
                    );
                }
                other => panic!("expected ERR, got {other:?}"),
            }
            let (_, count) = query_and_quit(addr);
            assert_eq!(count, 0, "nothing may reach the state");
        });
    assert_eq!(server.durable_count(), 0);
    assert!(summary.clean_shutdown);
    assert_eq!(summary.stats.streams_completed, 0);
}

/// A client that connects and then sends nothing must not wedge the clean
/// shutdown: the read timeout releases its connection slot, `QUIT` drains,
/// and `serve` returns with the final snapshot written.
#[test]
fn stalled_client_cannot_hang_clean_shutdown() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let config = ServeConfig::new().with_client_read_timeout(Some(Duration::from_millis(100)));
    let (stalled, summary, _server) = with_server(proto(HashBackend::Polynomial), config, |addr| {
        // The stall: a connection that never sends a byte.  Hold it open
        // across the whole shutdown sequence.
        let stalled = TcpStream::connect(addr).expect("connect stalled client");

        let mut quit = TcpStream::connect(addr).expect("connect");
        writeln!(quit, "QUIT").expect("send");
        let mut bye = String::new();
        BufReader::new(quit).read_line(&mut bye).expect("read");
        assert_eq!(Response::parse(&bye).expect("parse"), Response::Bye);
        // Without the timeout the server thread's join (inside
        // `with_server`) would block forever on the stalled connection.
        stalled
    });
    assert!(summary.clean_shutdown);
    drop(stalled);
}
