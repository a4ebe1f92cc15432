//! The server under test and the load generator that drives it.
//!
//! Each workload boots a real `GsumServer` on a loopback listener and
//! drives it with at most two client threads, each on one persistent
//! connection in a closed loop.  Every operation is recorded with its
//! send and reply times; the end-to-end metrics and the correctness gate are computed
//! from these records after the timed window.

use crate::trace::Trace;
use gsum_serve::{GsumServer, Response, ServeConfig, ServeSummary, SketchRegistry};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A server serving on its own thread.
pub struct Served {
    pub addr: SocketAddr,
    handle: JoinHandle<Result<ServeSummary, gsum_serve::ServeError>>,
}

/// Boot a server around `registry` (restoring from `checkpoint` when it
/// holds an envelope), bind a loopback listener and start serving.  The
/// server's `ServeEvent`s are counted in `events` instead of printed.
pub fn boot(
    registry: SketchRegistry,
    config: ServeConfig,
    checkpoint: PathBuf,
    events: &Arc<AtomicU64>,
) -> Served {
    let events = Arc::clone(events);
    let config = config.with_observer(move |_| {
        events.fetch_add(1, Ordering::Relaxed);
    });
    let server = GsumServer::boot(registry, config, Some(checkpoint)).expect("server boots");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("listener address");
    let handle = std::thread::spawn(move || server.serve(listener));
    Served { addr, handle }
}

impl Served {
    /// `QUIT` the server (in-flight streams drain, the final snapshot is
    /// published) and join its thread.
    pub fn quit(self) -> ServeSummary {
        let mut client = Client::connect(self.addr).expect("connect for QUIT");
        let bye = client.command("QUIT").expect("QUIT is answered");
        assert_eq!(bye, Response::Bye, "QUIT is acknowledged");
        drop(client);
        self.handle
            .join()
            .expect("server thread does not panic")
            .expect("server shuts down cleanly")
    }
}

/// One persistent client connection.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // One request is one write; Nagle would hold a short command line
        // until the peer's delayed ACK.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            stream,
            reader,
            line: String::new(),
        })
    }

    /// Send one command line and read its reply.
    pub fn command(&mut self, command: &str) -> io::Result<Response> {
        self.request(format!("{command}\n").as_bytes())
    }

    /// Send `bytes` (a command line or a framed stream) and read the reply.
    pub fn request(&mut self, bytes: &[u8]) -> io::Result<Response> {
        self.stream.write_all(bytes)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::parse(&self.line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// What an operation asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `EST` (`None`, the default function) or `EST <function>`.
    Est(Option<usize>),
    Count,
    /// A framed stream of pool entry `i`.
    Stream(usize),
}

/// One operation, timed in seconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    pub sent: f64,
    pub done: f64,
    /// The reply, or `None` when the connection dropped.
    pub reply: Option<Response>,
}

impl Op {
    /// Send to reply, in seconds.
    pub fn latency(&self) -> f64 {
        self.done - self.sent
    }

    /// Whether the server answered as the protocol promises: `OK` for a
    /// stream, `EST` / `COUNT` for a query.  `ERR`, `BUSY` and a dropped
    /// connection are failures.
    pub fn ok(&self) -> bool {
        matches!(
            (self.kind, &self.reply),
            (OpKind::Stream(_), Some(Response::Ok(_)))
                | (OpKind::Est(_), Some(Response::Est { .. }))
                | (OpKind::Count, Some(Response::Count(_)))
        )
    }
}

/// The wire form of an operation.
pub fn request_bytes<'a>(
    kind: OpKind,
    names: &[String],
    pool: &'a [crate::inputs::Chunk],
) -> std::borrow::Cow<'a, [u8]> {
    match kind {
        OpKind::Est(None) => b"EST\n".as_slice().into(),
        OpKind::Est(Some(f)) => format!("EST {}\n", names[f]).into_bytes().into(),
        OpKind::Count => b"COUNT\n".as_slice().into(),
        OpKind::Stream(i) => pool[i].bytes.as_slice().into(),
    }
}

/// The query workloads' command cycle: bare `EST`, `EST <f>` for every
/// registered function, then `COUNT`.
pub fn query_cycle(functions: usize) -> Vec<OpKind> {
    std::iter::once(OpKind::Est(None))
        .chain((0..functions).map(|f| OpKind::Est(Some(f))))
        .chain(std::iter::once(OpKind::Count))
        .collect()
}

/// Drives one connection through a sequence of operations.
pub struct Driver<'a> {
    pub addr: SocketAddr,
    pub origin: Instant,
    pub names: &'a [String],
    pub pool: &'a [crate::inputs::Chunk],
    /// A span around every round trip (`None`: tracing off).
    pub trace: Option<Trace>,
    client: Option<Client>,
    pub ops: Vec<Op>,
}

impl<'a> Driver<'a> {
    pub fn new(
        addr: SocketAddr,
        origin: Instant,
        names: &'a [String],
        pool: &'a [crate::inputs::Chunk],
        trace: Option<Trace>,
    ) -> Self {
        Self {
            addr,
            origin,
            names,
            pool,
            trace,
            client: None,
            ops: Vec::new(),
        }
    }

    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Send one operation and wait for its reply.  A dropped connection is
    /// recorded and the next operation reconnects.
    pub fn run(&mut self, kind: OpKind) {
        let index = self.ops.len();
        let bytes = request_bytes(kind, self.names, self.pool);
        let sent = self.now();
        let span = self
            .trace
            .as_mut()
            .map(|trace| trace.open(span_name(kind), None, index as u64));
        let reply = match self.client.as_mut() {
            Some(client) => client.request(&bytes),
            None => Client::connect(self.addr).and_then(|mut client| {
                let reply = client.request(&bytes);
                self.client = Some(client);
                reply
            }),
        };
        if let (Some(id), Some(trace)) = (span, self.trace.as_mut()) {
            trace.close(id);
        }
        let done = self.now();
        let reply = match reply {
            Ok(reply) => {
                if matches!(reply, Response::Err(_) | Response::Busy(_)) {
                    // The server closes a connection after these.
                    self.client = None;
                }
                Some(reply)
            }
            Err(_) => {
                self.client = None;
                None
            }
        };
        self.ops.push(Op {
            kind,
            sent,
            done,
            reply,
        });
    }
}

fn span_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Est(_) => "client.est",
        OpKind::Count => "client.count",
        OpKind::Stream(_) => "client.stream",
    }
}

/// The closed loop: the next operation goes out when the previous reply
/// arrives, until `seconds` have passed.
pub fn closed_loop(driver: &mut Driver<'_>, seconds: f64, mut next: impl FnMut(usize) -> OpKind) {
    while driver.now() < seconds {
        let kind = next(driver.ops.len());
        driver.run(kind);
    }
}
