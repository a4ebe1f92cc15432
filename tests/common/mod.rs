//! Helpers shared by the serving-layer suites (`serve_fan_in`,
//! `serve_reactor`, `serve_registry`): the served sketch, client stream
//! encoding, the failure-policy model, proptest client specs, the
//! single-threaded reference replay and the loopback client.  The merge-law
//! suites share [`deal_and_merge`], clone-and-merge ingestion without a
//! server, and the wire suite shares the stream encoding.
//!
//! Each suite uses a different subset, so unused items are expected.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use zerolaw::prelude::*;
use zerolaw::streams::wire::encode_updates;

pub const DOMAIN: u64 = 64;
pub const BACKENDS: [HashBackend; 2] = [HashBackend::Polynomial, HashBackend::Tabulation];
pub const POLICIES: [ServePolicy; 2] = [ServePolicy::DiscardPartial, ServePolicy::MergeCompleted];

/// The served configuration: one seed, both hash backends.
pub fn config(backend: HashBackend) -> GSumConfig {
    GSumConfig::with_space_budget(DOMAIN, 0.25, 64, 11).with_hash_backend(backend)
}

/// The served single-function sketch.
pub fn proto(backend: HashBackend) -> OnePassGSumSketch<PowerFunction> {
    OnePassGSumSketch::new(PowerFunction::new(2.0), &config(backend))
}

/// Encode one client stream.  `truncate_at: Some(k)` emits the first `k`
/// updates in complete frames and then just stops — no end-of-stream
/// frame, the wire shape of a producer crash.
pub fn encode_client(updates: &[Update], truncate_at: Option<usize>) -> Vec<u8> {
    match truncate_at {
        None => encode_updates(DOMAIN, updates).expect("encode"),
        Some(k) => encode_frames(&updates[..k], 16, false),
    }
}

/// Encode `updates` in frames of `frame_updates` each, followed by the
/// end-of-stream frame only when `finish` is set.
pub fn encode_frames(updates: &[Update], frame_updates: usize, finish: bool) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut writer = FrameWriter::new(&mut buf, DOMAIN)
        .expect("header")
        .with_frame_updates(frame_updates)
        .expect("frame size");
    writer.write_batch(updates).expect("encode");
    if finish {
        writer.finish().expect("finish");
    } else {
        writer.flush_frame().expect("flush");
        drop(writer); // no finish(): the stream is truncated
    }
    buf
}

/// What the policy keeps of a client stream: everything, the decoded
/// prefix, or nothing.
pub fn kept(updates: &[Update], cut: Option<usize>, policy: ServePolicy) -> &[Update] {
    match (cut, policy) {
        (None, _) => updates,
        (Some(k), ServePolicy::MergeCompleted) => &updates[..k],
        (Some(_), ServePolicy::DiscardPartial) => &[],
    }
}

/// One client: its updates and, for a client that dies mid-stream, how
/// many of them it sent before dying.
pub type ClientSpec = (Vec<Update>, Option<usize>);

/// The raw tuple a proptest strategy generates per client:
/// (item, delta) pairs, a die roll deciding failure, and the cut fraction.
pub type RawClient = (Vec<(u64, i64)>, u64, u64);

/// Decode the raw proptest tuples into per-client (updates, failure cut).
pub fn client_specs(raw: &[RawClient]) -> Vec<ClientSpec> {
    raw.iter()
        .map(|(pairs, fail_die, cut_frac)| {
            let updates: Vec<Update> = pairs.iter().map(|&(i, d)| Update::new(i, d)).collect();
            // Roughly a third of the clients die mid-stream, at an
            // arbitrary completed-frame boundary.
            let cut = (fail_die % 3 == 0).then(|| (*cut_frac as usize * updates.len()) / 10_000);
            (updates, cut)
        })
        .collect()
}

/// Clone-and-merge ingestion: deal `updates` to `workers` clones of
/// `prototype` in `batch`-update batches, round-robin, then merge the clones
/// in order.  Linearity says the result is the single-stream state.
pub fn deal_and_merge<S: MergeableSketch + Clone>(
    updates: impl IntoIterator<Item = Update>,
    prototype: &S,
    workers: usize,
    batch: usize,
) -> S {
    let mut states = vec![prototype.clone(); workers];
    let mut buf = Vec::with_capacity(batch);
    let mut next = 0;
    for u in updates {
        buf.push(u);
        if buf.len() == batch {
            states[next].update_batch(&buf);
            buf.clear();
            next = (next + 1) % workers;
        }
    }
    states[next].update_batch(&buf);
    let mut states = states.into_iter();
    let mut merged = states.next().expect("at least one worker");
    for other in states {
        merged.merge(&other).expect("clones of one prototype merge");
    }
    merged
}

/// Single-threaded reference: one sketch absorbing every client's kept
/// updates one at a time, in canonical client order, plus the durable
/// count.  Any fold order the server uses must land on these bytes.
pub fn replay<S: StreamSink>(mut single: S, specs: &[ClientSpec], policy: ServePolicy) -> (S, u64) {
    let mut durable = 0u64;
    for (updates, cut) in specs {
        let keep = kept(updates, *cut, policy);
        for &u in keep {
            single.update(u);
        }
        durable += keep.len() as u64;
    }
    (single, durable)
}

/// The exact stream counters a server must report after serving `specs`
/// under `policy`: `(completed, failed, discarded)`.
pub fn expected_stream_stats(specs: &[ClientSpec], policy: ServePolicy) -> (u64, u64, u64) {
    let failed = specs.iter().filter(|(_, cut)| cut.is_some()).count() as u64;
    let discarded = match policy {
        ServePolicy::DiscardPartial => specs.iter().filter_map(|(_, c)| *c).map(|c| c as u64).sum(),
        ServePolicy::MergeCompleted => 0,
    };
    (specs.len() as u64 - failed, failed, discarded)
}

/// Boot a server around `prototype` on a loopback port, run `body` against
/// its address while `serve` runs on another thread, and return the body's
/// output, the serve summary (the body must end the serve loop, e.g. with
/// `QUIT`) and the server, for snapshots after shutdown.
///
/// The serve thread is unscoped, so a panic in `body` unwinds past it at
/// once: a body that panicked never sent the `QUIT` that would end the
/// serve loop, and joining the thread would turn a failed test into a hung
/// one.
pub fn with_server<S: ServableSketch + 'static, T>(
    prototype: S,
    config: ServeConfig,
    body: impl FnOnce(SocketAddr) -> T,
) -> (T, ServeSummary, GsumServer<S>) {
    let server = Arc::new(GsumServer::boot(prototype, config, None).expect("boot"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let serving = Arc::clone(&server);
    let handle = std::thread::spawn(move || serving.serve(listener).expect("serve"));
    let out = body(addr);
    let summary = handle.join().expect("server thread");
    let server = Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("the joined serve thread still holds the server"));
    (out, summary, server)
}

/// Send one framed client stream and return the server's verdict,
/// retrying whenever the connection was load-shed (a `BUSY` reply — or a
/// reset that wiped it) instead of served.
pub fn run_client(addr: SocketAddr, bytes: &[u8], complete: bool) -> Response {
    run_client_chunked(addr, bytes, complete, bytes.len().max(1), Duration::ZERO)
}

/// [`run_client`], writing the stream `chunk` bytes at a time with `pause`
/// between writes — so the server reads it across several readiness
/// events instead of one.
pub fn run_client_chunked(
    addr: SocketAddr,
    bytes: &[u8],
    complete: bool,
    chunk: usize,
    pause: Duration,
) -> Response {
    for _ in 0..2_000 {
        let retry = || std::thread::sleep(Duration::from_millis(2));
        let Ok(mut stream) = TcpStream::connect(addr) else {
            retry();
            continue;
        };
        // On a shed connection the server has already hung up; the writes
        // then fail or land in the void, and the read below settles it.
        for part in bytes.chunks(chunk) {
            if stream.write_all(part).is_err() {
                break;
            }
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
        if !complete {
            // A truncated producer "crashes": half-close the write side so
            // the server sees EOF mid-stream, then collect the verdict.
            let _ = stream.shutdown(Shutdown::Write);
        }
        let mut line = String::new();
        match BufReader::new(&stream).read_line(&mut line) {
            Ok(n) if n > 0 => {}
            // EOF or reset: the shed path's RST can wipe the BUSY line.
            _ => {
                retry();
                continue;
            }
        }
        match Response::parse(&line) {
            Ok(Response::Busy(_)) => retry(),
            Ok(resp) => return resp,
            Err(_) => retry(),
        }
    }
    panic!("client never got a verdict from the server");
}

/// Open a connection, confirm the server registered it (an answered `EST`
/// proves it occupies a connection slot), and keep it open.
pub fn holder(addr: SocketAddr) -> TcpStream {
    for _ in 0..2_000 {
        let retry = || std::thread::sleep(Duration::from_millis(2));
        let Ok(mut stream) = TcpStream::connect(addr) else {
            retry();
            continue;
        };
        // A shed connection is closed with our `EST` unread, so the server
        // answers it with an RST that can beat the `BUSY` line to us: a
        // failed write or read here is a shed, like `BUSY` itself.
        let mut line = String::new();
        let answered =
            writeln!(stream, "EST").is_ok() && BufReader::new(&stream).read_line(&mut line).is_ok();
        if !answered {
            retry();
            continue;
        }
        match Response::parse(&line) {
            Ok(Response::Est { .. }) => return stream,
            Ok(Response::Busy(_)) | Err(_) => retry(),
            Ok(other) => panic!("unexpected holder reply {other:?}"),
        }
    }
    panic!("holder connection never registered");
}

/// Run `EST`, `COUNT`, `QUIT` over one persistent connection, retrying the
/// connect while lingering client slots drain.  Returns the `EST` bits and
/// the `COUNT`.
pub fn query_and_quit(addr: SocketAddr) -> (u64, u64) {
    let stream = holder(addr); // the answered EST proves we hold a slot
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;

    writeln!(stream, "EST").expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let Ok(Response::Est { bits }) = Response::parse(&line) else {
        panic!("expected EST reply, got {line:?}");
    };

    writeln!(stream, "COUNT").expect("send");
    line.clear();
    reader.read_line(&mut line).expect("read");
    let Ok(Response::Count(count)) = Response::parse(&line) else {
        panic!("expected COUNT reply, got {line:?}");
    };

    writeln!(stream, "QUIT").expect("send");
    line.clear();
    reader.read_line(&mut line).expect("read");
    assert_eq!(Response::parse(&line), Ok(Response::Bye));
    (bits, count)
}
