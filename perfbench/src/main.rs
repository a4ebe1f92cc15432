//! The repository's end-to-end benchmark: a real `GsumServer` on loopback,
//! driven by this process, answers checked against in-process replicas.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|query> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The served state is a `SketchRegistry` with `x^2`, `min(x, 100)` and
//! `(2+sin ln(1+x))x^2` on one substrate
//! (`GSumConfig::with_space_budget(domain, 0.2, 512, 11)`, 2 fold
//! workers, hint cap 512), fed turnstile Zipf(1.2) streams with 10%
//! deletions.  The streams come from `--seed`; the sketch's own seed is
//! fixed configuration, so every input seed meets the same level layout.
//!
//! Workloads (why each exists):
//!
//! * `ingest` — the write path.  Domain 2^16; two connections each send
//!   framed streams of 16 Ki updates back to back in a closed loop,
//!   cycling a 32-stream pool; `DiscardPartial`; a snapshot every 2^20
//!   merged updates.  The wide domain gives few repeats per dispatch
//!   batch, so per-key hashing dominates rather than coalescing.  An
//!   operation is one stream, timed from its first byte to its `OK`.
//! * `query` — the read path.  The server boots from an envelope holding
//!   a 1 Mi-update preload at domain 2^12 (levels 0–2 hold more items
//!   than the hint cap, deeper levels fewer); one connection cycles `EST`,
//!   `EST <f>` for each function and `COUNT` in a closed loop; no writes.
//!
//! Gated end-to-end metrics, on both workloads: `setup_s` (the median
//! of [`SETUP_REPS`] set-ups, half before and half after the timed
//! window), `ops_per_s`, `p50_ms` and `p90_ms` (each the median over
//! [`WINDOWS`] sub-windows), `state_kib` (the published envelope's state,
//! the paper's space measure) and `server_heap_peak_mib` (the most heap
//! the server held at once from its boot through the final replies, as
//! the benchmark's allocator counts it; see `alloc`).
//!
//! Output: a human-readable table, a `facts` JSON line (host, seed, input
//! descriptors), and as the last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (from spans written to
//! `.bench_run/`) with `--trace 1`.  Any wrong answer exits non-zero
//! without a result.
//!
//! Seeds: tune on any seed; check a claimed gain on the held-out seed
//! 7919 as well.

mod alloc;
mod check;
mod drive;
mod inputs;
mod layers;
mod stats;
mod trace;

use drive::{boot, closed_loop, query_cycle, Client, Driver, Op, OpKind};
use gsum_serve::{CheckpointEnvelope, Response, ServeConfig, ServePolicy};
use inputs::{Inputs, LABELS, STREAM_UPDATES};
use stats::{median, quantile};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use trace::Trace;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Preloaded updates of the `query` state.
const PRELOAD: usize = 1 << 20;
/// Set-ups per run (odd); `setup_s` is their median.
const SETUP_REPS: usize = 601;
/// Merged updates between snapshots.
const CHECKPOINT_EVERY: usize = 1 << 20;
const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Ingest,
    Query,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "ingest" => Some(Self::Ingest),
            "query" => Some(Self::Query),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Ingest => "ingest",
            Self::Query => "query",
        }
    }

    fn inputs(self, seed: u64) -> Inputs {
        match self {
            Self::Ingest => Inputs::generate(1 << 16, seed, 0, 32),
            Self::Query => Inputs::generate(1 << 12, seed, PRELOAD, 0),
        }
    }

    fn config(self) -> ServeConfig {
        ServeConfig::new()
            .with_policy(ServePolicy::DiscardPartial)
            .with_workers(WORKERS)
            .with_checkpoint_every(CHECKPOINT_EVERY)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    alloc::harness_thread();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = PathBuf::from(".bench_run");
    let dir = run_dir.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let code = run(&args, &dir, &run_dir);
    let _ = std::fs::remove_dir_all(&dir);
    std::process::exit(code);
}

/// Everything one timed window produced.
struct Measured {
    setup_s: Vec<f64>,
    /// The most heap the server held at once, from its boot through the
    /// final replies, in MiB.
    server_heap_peak_mib: f64,
    ops: Vec<Op>,
    finals: Vec<Op>,
    acks: Vec<u64>,
    envelope: PathBuf,
    trace: Trace,
    events: u64,
}

fn run(args: &Args, dir: &Path, run_dir: &Path) -> i32 {
    let w = args.workload;
    let inputs = w.inputs(args.seed);
    let names = inputs::prototype(inputs.domain).function_names();
    let mut m = measure(args, &inputs, &names, dir);

    let state = inputs.replica_after(&m.acks);
    let verdict = check::check(
        &inputs,
        &names,
        &m.ops,
        &m.finals,
        &m.acks,
        &state,
        &m.envelope,
    );
    let facts = layers::facts(&inputs, &m.acks, &state, &names);

    // Host and input facts go with every result.
    println!(
        "facts {{\"workload\":\"{}\",\"seed\":{},\"commit\":\"{}\",\"nproc\":{},\"avx512\":{},\"domain\":{},\"distinct_items\":{},\"distinct_frac\":{},\"routed_per_level\":{:?},\"levels_saturated\":{},\"bytes_per_update\":{},\"verified_replies\":{},\"serve_events\":{}}}",
        w.name(),
        args.seed,
        stats::git_commit(),
        stats::nproc(),
        stats::avx512(),
        inputs.domain,
        facts.distinct_items,
        facts.distinct_frac,
        facts.routed,
        facts.levels_saturated,
        facts.bytes_per_update,
        verdict.verified,
        m.events,
    );
    if !verdict.failures.is_empty() {
        for failure in &verdict.failures {
            eprintln!("perfbench: wrong answer: {failure}");
        }
        return 1;
    }

    let exact = inputs.frequencies_after(&m.acks);
    let rel_err: Vec<f64> = inputs::functions()
        .iter()
        .zip(&names)
        .map(|(g, name)| {
            let truth = inputs::exact_gsum(g, &exact);
            let estimate = state.estimate_for(name).expect("registered function");
            (estimate - truth).abs() / truth
        })
        .collect();

    let attempted = m.ops.len() + m.finals.len();
    let failed = m.ops.iter().chain(&m.finals).filter(|op| !op.ok()).count();
    print_classes(&m.ops, failed as f64 / attempted as f64, &rel_err);

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let mut trace = std::mem::replace(&mut m.trace, Trace::new(Instant::now()));
        let figures = layers::replay(&mut trace, &inputs, &state, &names, &facts, dir);
        let trace_path = run_dir.join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
        if let Err(e) = trace.write(&trace_path) {
            eprintln!("perfbench: cannot write {}: {e}", trace_path.display());
        }
        for (name, a) in trace.aggregates() {
            println!(
                "span {name:<34} count {:>7} total {:>12.3} ms self {:>12.3} ms",
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6
            );
        }
        per_layer(&m, &figures, &rel_err)
    } else {
        let e2e = EndToEnd::of(&m.ops, args.seconds);
        println!(
            "setup  p10 {:.6} s  p50 {:.6} s  p90 {:.6} s over {} set-ups",
            quantile(&m.setup_s, 0.1),
            median(&m.setup_s),
            quantile(&m.setup_s, 0.9),
            m.setup_s.len()
        );
        vec![
            ("setup_s".into(), median(&m.setup_s), "s"),
            ("ops_per_s".into(), e2e.ops_per_s, "1/s"),
            ("p50_ms".into(), e2e.p50_ms, "ms"),
            ("p90_ms".into(), e2e.p90_ms, "ms"),
            ("state_kib".into(), state_kib(&m.envelope), "KiB"),
            ("server_heap_peak_mib".into(), m.server_heap_peak_mib, "MiB"),
        ]
    };
    for (name, value, unit) in &metrics {
        println!("metric {name:<40} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    0
}

/// JSON has no infinities or NaN; a metric that cannot be measured reads
/// as the largest finite number, which fails any bound.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn state_kib(envelope: &Path) -> f64 {
    CheckpointEnvelope::load(envelope)
        .ok()
        .flatten()
        .map_or(f64::NAN, |env| env.state_bytes().len() as f64 / 1024.0)
}

/// Boot (several times, for `setup_s`), run the timed window, take the
/// final replies and shut the server down.
fn measure(args: &Args, inputs: &Inputs, names: &[String], dir: &Path) -> Measured {
    let w = args.workload;
    let events = Arc::new(AtomicU64::new(0));
    let preloaded = dir.join("preload.ckpt");
    if let Some((updates, replica)) = &inputs.preload {
        CheckpointEnvelope::park(updates.len() as u64, replica)
            .expect("preload serializes")
            .save_atomic(&preloaded)
            .expect("preload envelope is written");
    }

    // Every set-up boots a fresh server from a fresh copy of the envelope.
    // Half of them run before the timed window and half after it, so
    // their median spans the run rather than one moment of the host; the
    // one just before the window serves it, and the heap peak is taken
    // from its boot on.
    let set_up = |envelope: &Path| {
        if inputs.preload.is_some() {
            std::fs::copy(&preloaded, envelope).expect("copy the preload envelope");
        } else {
            let _ = std::fs::remove_file(envelope);
        }
        let start = Instant::now();
        let server = alloc::serving(|| {
            boot(
                inputs::prototype(inputs.domain),
                w.config(),
                envelope.to_path_buf(),
                &events,
            )
        });
        if inputs.preload.is_some() {
            let mut client = Client::connect(server.addr).expect("connect for warm-up");
            let warm = client.command("EST").expect("warm-up query answered");
            assert!(
                matches!(warm, Response::Est { .. }),
                "warm-up EST: {warm:?}"
            );
        }
        (start.elapsed().as_secs_f64(), server)
    };
    let spare = dir.join("spare.ckpt");
    let spare_set_ups = |setup_s: &mut Vec<f64>| {
        for _ in 0..SETUP_REPS / 2 {
            let (secs, server) = set_up(&spare);
            setup_s.push(secs);
            server.quit();
        }
    };
    let mut setup_s = Vec::new();
    spare_set_ups(&mut setup_s);
    let envelope = dir.join("served.ckpt");
    let heap_base = alloc::reset_peak();
    let (secs, served) = set_up(&envelope);
    setup_s.push(secs);
    let addr = served.addr;

    let origin = Instant::now();
    let seconds = args.seconds;
    let traced = || args.trace.then(|| Trace::new(origin));
    let pool = &inputs.pool;
    let drivers: Vec<Driver<'_>> = match w {
        Workload::Ingest => std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|c| {
                    let mut d = Driver::new(addr, origin, names, pool, traced());
                    s.spawn(move || {
                        alloc::harness_thread();
                        closed_loop(&mut d, seconds, |k| {
                            OpKind::Stream((c + 2 * k) % pool.len())
                        });
                        d
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        }),
        Workload::Query => {
            let cycle = query_cycle(names.len());
            let mut d = Driver::new(addr, origin, names, pool, traced());
            closed_loop(&mut d, seconds, |i| cycle[i % cycle.len()]);
            vec![d]
        }
    };

    let mut ops = Vec::new();
    let mut trace = Trace::new(origin);
    for d in drivers {
        ops.extend(d.ops);
        if let Some(t) = d.trace {
            trace.absorb(t);
        }
    }
    let mut acks = vec![0u64; inputs.pool.len()];
    for op in &ops {
        if let (OpKind::Stream(i), true) = (op.kind, op.ok()) {
            acks[i] += 1;
        }
    }

    // Final replies, outside the timed window.
    let mut finals = Driver::new(addr, origin, names, pool, None);
    for kind in query_cycle(names.len()) {
        finals.run(kind);
    }
    let server_heap_peak_mib = (alloc::peak() - heap_base) as f64 / (1 << 20) as f64;
    served.quit();
    spare_set_ups(&mut setup_s);

    Measured {
        setup_s,
        server_heap_peak_mib,
        ops,
        finals: finals.ops,
        acks,
        envelope,
        trace,
        events: events.load(Ordering::Relaxed),
    }
}

/// Sub-windows of the timed window.  Each gated rate and percentile is the
/// median over them, so a slow spell confined to a few windows (a busy
/// neighbour on a shared host comes and goes within seconds) does not
/// move it.  In a 40-second run of `ingest` or `query` every window holds
/// over 900 operations at the parent's rates, ninety beyond the 90th
/// percentile.
const WINDOWS: usize = 10;

/// A failed operation misses every latency limit.
fn latency_ms(op: &Op) -> f64 {
    if op.ok() {
        op.latency() * 1e3
    } else {
        f64::INFINITY
    }
}

/// The gated end-to-end figures, each a median over [`WINDOWS`]: the
/// operations sent in a window, completed per second from the window's
/// start until the last of them was answered, and their median and
/// 90th-percentile latency.  The 99th percentile is printed per class but
/// not gated: on a shared host it moves by a quarter between runs of
/// identical code.
struct EndToEnd {
    ops_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
}

impl EndToEnd {
    fn of(ops: &[Op], seconds: f64) -> Self {
        let width = seconds / WINDOWS as f64;
        let (mut rate, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
        for w in 0..WINDOWS {
            let start = w as f64 * width;
            let sent: Vec<&Op> = ops
                .iter()
                .filter(|op| op.sent >= start && op.sent < start + width)
                .collect();
            let drained = sent.iter().map(|op| op.done).fold(start, f64::max);
            let completed = sent.iter().filter(|op| op.ok()).count();
            rate.push(completed as f64 / (drained - start));
            let latency: Vec<f64> = sent.iter().map(|op| latency_ms(op)).collect();
            p50.push(quantile(&latency, 0.5));
            p90.push(quantile(&latency, 0.9));
        }
        Self {
            ops_per_s: median(&rate),
            p50_ms: median(&p50),
            p90_ms: median(&p90),
        }
    }
}

/// Whole-window figures per operation class, for the human-readable
/// table: what each class of user saw on this workload.
fn print_classes(ops: &[Op], failed_frac: f64, rel_err: &[f64]) {
    let pick = |f: &dyn Fn(&Op) -> bool| -> Vec<f64> {
        ops.iter().filter(|op| f(op)).map(latency_ms).collect()
    };
    let wall = ops.iter().map(|op| op.done).fold(0.0, f64::max);
    let ok = |f: &dyn Fn(&Op) -> bool| ops.iter().filter(|op| op.ok() && f(op)).count() as f64;
    let is_stream = |op: &Op| matches!(op.kind, OpKind::Stream(_));
    let mut rows = Vec::new();
    let mut push = |name: &str, samples: &[f64], scale: f64, unit: &'static str| {
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            rows.push((
                format!("{name}_{tag}_{unit} ({} samples)", samples.len()),
                quantile(samples, q) * scale,
                unit,
            ));
        }
    };
    push("ack", &pick(&is_stream), 1.0, "ms");
    push(
        "est",
        &pick(&|op| matches!(op.kind, OpKind::Est(_))),
        1.0,
        "ms",
    );
    push("count", &pick(&|op| op.kind == OpKind::Count), 1e3, "us");
    rows.push((
        "ingest_upd_per_s".into(),
        ok(&is_stream) * STREAM_UPDATES as f64 / wall,
        "upd/s",
    ));
    rows.push(("query_per_s".into(), ok(&|op| !is_stream(op)) / wall, "1/s"));
    rows.push(("ops_failed_frac".into(), failed_frac, "ratio"));
    rows.push((
        "rel_err".into(),
        rel_err.iter().copied().fold(0.0, f64::max),
        "ratio",
    ));
    for (name, value, unit) in rows {
        println!("class  {name:<40} {value:>16.6} {unit}");
    }
}

/// The `--trace 1` metrics.
fn per_layer(
    m: &Measured,
    figures: &layers::LayerFigures,
    rel_err: &[f64],
) -> Vec<(String, f64, &'static str)> {
    let mut rows = figures.rows.clone();
    for (label, err) in LABELS.iter().zip(rel_err) {
        rows.push((format!("serve.registry.rel_err.{label}"), *err, "ratio"));
    }
    // EST round trips: the timed window's, or the final replies when the
    // window sent none.
    let est_rtt_us = |ops: &[Op]| -> Vec<f64> {
        ops.iter()
            .filter(|op| op.ok() && matches!(op.kind, OpKind::Est(_)))
            .map(|op| op.latency() * 1e6)
            .collect()
    };
    let mut rtt = est_rtt_us(&m.ops);
    if rtt.is_empty() {
        rtt = est_rtt_us(&m.finals);
    }
    let rtt_us = median(&rtt);
    rows.push((
        "serve.reactor.est_residual_us".into(),
        rtt_us - figures.registry_us,
        "us",
    ));
    rows.push((
        "trace.unexplained_frac".into(),
        figures.registry_self_us / rtt_us,
        "ratio",
    ));
    rows
}
