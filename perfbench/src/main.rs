//! perfbench: the privmdr pipeline benchmark (collect → publish → serve).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload with one load-generating thread in a
//! closed loop: inputs are built from the seed, the workload is set up
//! several times, warmed up, and then timed over one window of
//! `--seconds`. `--trace 1` then replays the iterations of the window's
//! first `REPLAY_S` seconds with spans on and reports per-layer figures
//! instead of end-to-end ones. After the audit and gate, set-up repeats
//! a few more times so `setup_s` samples both ends of the run.
//! The last line of standard output is the JSON result; the exit code is
//! non-zero when the correctness gate fails.

mod multi_tenant;
mod serve_high_lambda;
mod stats;
mod stream_ingest;
mod trace;
mod workload;

use stats::{highest_supported, throughput, Samples};
use std::fmt::Write as _;
use std::time::Instant;
use trace::{self_times, Ctx, Layer, LAYERS};
use workload::{Recorder, Telemetry, Workload};

const USAGE: &str =
    "usage: perfbench --workload <stream_ingest|serve_high_lambda|multi_tenant_cached> \
--seed <n> --seconds <s> --trace <0|1>";

/// Where the traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_out";

/// Set-up repetitions before the warm-up; the last one's state is what
/// the loop runs on.
const SETUP_REPS_BEFORE: usize = 5;

/// After the gate, set-ups repeat (their state is discarded) until at
/// least `SETUP_REPS_AFTER` more ran and `SETUP_AFTER_S` seconds passed.
/// `setup_s` is the median of every repetition, so it samples both ends of
/// the run rather than the moments after the process started.
const SETUP_REPS_AFTER: usize = 8;
const SETUP_AFTER_S: f64 = 1.5;

/// The traced run replays the iterations of at most this many seconds of
/// the measured window, and compares its wall time with theirs.
const REPLAY_S: f64 = 6.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn make_workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "stream_ingest" => Box::new(stream_ingest::StreamIngest::new(seed)),
        "serve_high_lambda" => Box::new(serve_high_lambda::ServeHighLambda::new(seed)),
        "multi_tenant_cached" => Box::new(multi_tenant::MultiTenant::new(seed)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Feeds one malformed session frame through the call accounting and
/// checks the failure counter moved.
fn selftest() -> Result<(), String> {
    let mut ctx = Ctx::new();
    let node = privmdr_protocol::ServedNode::new(0, 1);
    let malformed = bytes::Bytes::from(vec![0x5E, 1, 1]);
    let answered = ctx.call(Layer::Route, 0, || {
        node.handle_frame(&mut malformed.clone())
    });
    let c = ctx.counters.layer(Layer::Route);
    if answered.is_none() && c.calls == 1 && c.failed == 1 && ctx.errors.len() == 1 {
        Ok(())
    } else {
        Err("self-test: a malformed frame did not move the failure counter".into())
    }
}

/// How long a loop runs.
enum Budget {
    Seconds(f64),
    Iterations(u64),
}

struct Window {
    iterations: u64,
    work: u64,
    /// Wall time minus the benchmark-side checks the loop excluded.
    wall_s: f64,
    /// Iterations and wall time of the window's first `REPLAY_S` seconds.
    head: (u64, f64),
}

fn run_loop(
    w: &mut dyn Workload,
    ctx: &mut Ctx,
    rec: &mut Recorder,
    next: &mut u64,
    budget: Budget,
) -> Window {
    let excluded = ctx.excluded;
    let start = Instant::now();
    let elapsed = |ctx: &Ctx| start.elapsed() - (ctx.excluded - excluded);
    let (mut iterations, mut work) = (0u64, 0u64);
    let mut head = None;
    loop {
        let now = elapsed(ctx).as_secs_f64();
        if head.is_none() && now >= REPLAY_S {
            head = Some((iterations, now));
        }
        let done = match budget {
            Budget::Seconds(s) => now >= s,
            Budget::Iterations(n) => iterations >= n,
        };
        if done {
            break;
        }
        let span = ctx.tracer.enter(Layer::Bench, *next);
        work += w.step(*next, ctx, rec);
        ctx.tracer.exit(span);
        *next += 1;
        iterations += 1;
    }
    let wall_s = elapsed(ctx).as_secs_f64();
    Window {
        iterations,
        work,
        wall_s,
        head: head.unwrap_or((iterations, wall_s)),
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// An ordered list of `(name, value, unit)` metrics.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// Prints a latency summary: median, the highest supported percentile,
/// and the sample count.
fn print_latency(name: &str, s: &Samples) {
    let mut line = format!("{name:<22} n={:<7}", s.len());
    if let Some(p50) = s.percentile(500) {
        let _ = write!(line, " p50={p50:.4} ms");
    }
    if let Some(p) = highest_supported(s.len()).filter(|&p| p > 500) {
        let v = s.percentile(p).expect("supported");
        let _ = write!(line, " p{}={v:.4} ms", p as f64 / 10.0);
    }
    println!("{line}");
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let backend = privmdr_util::hash::kernel_backend().name();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# nproc: {nproc}");
    println!("# support kernel backend: {backend}");
    println!("# estimator backend: {backend}");
    selftest()?;

    let t = Instant::now();
    let mut w = make_workload(&args.workload, args.seed)?;
    println!(
        "# inputs built in {:.2} s (not timed)",
        t.elapsed().as_secs_f64()
    );

    let mut ctx = Ctx::new();
    let mut rec = Recorder::default();
    let mut setup = Samples::default();
    for rep in 0..SETUP_REPS_BEFORE {
        let traced = args.trace && rep + 1 == SETUP_REPS_BEFORE;
        if traced {
            ctx.tracer.start();
        }
        let span = ctx.tracer.enter(Layer::Bench, rep as u64);
        let s = w.setup(rep, &mut ctx, &mut rec);
        ctx.tracer.exit(span);
        if traced {
            ctx.tracer.stop();
        }
        setup.push(s?);
    }

    let mut next = 0u64;
    let warmup = Budget::Seconds(w.warmup_s());
    let warm = run_loop(w.as_mut(), &mut ctx, &mut rec, &mut next, warmup);
    rec.frame_ms.clear();
    rec.freshness_ms.clear();
    let win = run_loop(
        w.as_mut(),
        &mut ctx,
        &mut rec,
        &mut next,
        Budget::Seconds(args.seconds),
    );
    println!(
        "# warm-up {:.2} s ({} iterations); window {:.3} s ({} iterations, {} work items)",
        warm.wall_s, warm.iterations, win.wall_s, win.iterations, win.work
    );

    let mut traced = None;
    if args.trace {
        let before = w.telemetry();
        ctx.tracer.start();
        let replay = run_loop(
            w.as_mut(),
            &mut ctx,
            &mut rec,
            &mut next,
            Budget::Iterations(win.head.0),
        );
        ctx.tracer.stop();
        let tele = w.telemetry().since(&before);
        traced = Some((replay, tele, w.layer_probes(&mut ctx)));
    }

    let mae = w.finish(&mut ctx);
    let after = Instant::now();
    let mut discarded = Recorder::default();
    let mut rep = SETUP_REPS_BEFORE;
    while rep < SETUP_REPS_BEFORE + SETUP_REPS_AFTER
        || after.elapsed().as_secs_f64() < SETUP_AFTER_S
    {
        setup.push(w.setup(rep, &mut ctx, &mut discarded)?);
        rep += 1;
    }
    let rss = peak_rss_mb()?;

    let attempted = ctx.counters.attempted();
    let failed = ctx.counters.failed();
    println!("# calls per layer (attempted / failed):");
    for layer in LAYERS {
        let c = ctx.counters.layer(layer);
        if c.calls > 0 {
            println!("#   {:<10} {:>10} / {}", layer.name(), c.calls, c.failed);
        }
    }
    print_latency("frame_ms", &rec.frame_ms);
    print_latency("freshness_ms", &rec.freshness_ms);

    let mut e2e = Metrics::default();
    e2e.add("setup_s", setup.median(), "s");
    e2e.add("ops_per_s", throughput(win.work, win.wall_s), "1/s");
    e2e.add(
        "frame_ms_p50",
        rec.frame_ms.require("frame_ms_p50", 500)?,
        "ms",
    );
    e2e.add(
        "frame_ms_p99",
        rec.frame_ms.require("frame_ms_p99", 990)?,
        "ms",
    );
    e2e.add(
        "freshness_ms_p50",
        rec.freshness_ms.require("freshness_ms_p50", 500)?,
        "ms",
    );
    e2e.add("mae", mae, "fraction");
    e2e.add("peak_rss_mb", rss, "MB");
    println!("setup repetitions      n={}", setup.len());
    for (name, value, unit) in &e2e.0 {
        println!("{name:<22} {value:.6} {unit}");
    }
    println!(
        "failed_frac            {:.6} ({failed} of {attempted} calls)",
        failed as f64 / attempted.max(1) as f64
    );

    let metrics = match traced {
        None => e2e,
        Some((replay, tele, probes)) => {
            let m = per_layer(&ctx, &probes, &win, &replay, &tele);
            let path = format!("{TRACE_DIR}/trace-{}-{}.tsv", args.workload, args.seed);
            std::fs::create_dir_all(TRACE_DIR)
                .and_then(|()| std::fs::write(&path, ctx.tracer.to_tsv()))
                .map_err(|e| format!("writing {path}: {e}"))?;
            println!("# {} spans written to {path}", ctx.tracer.spans().len());
            m
        }
    };

    let correct = ctx.errors.is_empty() && failed == 0;
    for e in &ctx.errors {
        println!("# GATE FAILED: {e}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()?
    );
    Ok(correct)
}

/// The traced run's per-layer figures, printed as a table of self times.
fn per_layer(
    ctx: &Ctx,
    probes: &[(&'static str, f64)],
    win: &Window,
    replay: &Window,
    tele: &Telemetry,
) -> Metrics {
    let self_ns = self_times(ctx.tracer.spans());
    let wall_ns = ctx.tracer.wall().as_nanos() as f64;
    let busy = |l: Layer| self_ns[l as usize] as f64 / 1e9;
    let c = &ctx.traced;
    println!(
        "# traced self time per layer (traced wall {:.3} s):",
        wall_ns / 1e9
    );
    for layer in LAYERS {
        let n = c.layer(layer);
        let ns = self_ns[layer as usize] as f64;
        println!(
            "#   {:<10} self={:>9.4} s  share={:>5.1}%  calls={} failed={} items={} bytes={}",
            layer.name(),
            ns / 1e9,
            100.0 * ns / wall_ns,
            n.calls,
            n.failed,
            n.items,
            n.bytes
        );
    }
    let lookups = tele.cache_hits + tele.cache_misses;
    let mut m = Metrics::default();
    m.add(
        "client.reports",
        c.layer(Layer::Client).items as f64,
        "count",
    );
    m.add("client.busy_s", busy(Layer::Client), "s");
    m.add(
        "client.wire_bytes",
        c.layer(Layer::Client).bytes as f64,
        "bytes",
    );
    m.add(
        "collector.reports",
        c.layer(Layer::Collector).items as f64,
        "count",
    );
    m.add("collector.busy_s", busy(Layer::Collector), "s");
    m.add(
        "collector.failed",
        c.layer(Layer::Collector).failed as f64,
        "count",
    );
    m.add(
        "finalize.cuts",
        c.layer(Layer::Finalize).items as f64,
        "count",
    );
    m.add("finalize.busy_s", busy(Layer::Finalize), "s");
    m.add(
        "snapshot.bytes",
        c.layer(Layer::Snapshot).bytes as f64,
        "bytes",
    );
    m.add("snapshot.busy_s", busy(Layer::Snapshot), "s");
    m.add(
        "publish.count",
        c.layer(Layer::Publish).items as f64,
        "count",
    );
    m.add("publish.swaps", c.swaps as f64, "count");
    m.add("publish.busy_s", busy(Layer::Publish), "s");
    m.add("serve.frames", c.layer(Layer::Serve).items as f64, "count");
    m.add("serve.busy_s", busy(Layer::Serve), "s");
    m.add("estimator.wu_sweeps", tele.wu_sweeps as f64, "count");
    m.add(
        "estimator.lambda_ge3_queries",
        tele.lambda_ge3 as f64,
        "count",
    );
    for name in [
        "estimator.us_per_query_l3",
        "estimator.us_per_query_l4",
        "estimator.us_per_query_l5",
        "estimator.us_per_query_l6",
    ] {
        let v = probes.iter().find(|(n, _)| *n == name).map_or(0.0, |e| e.1);
        m.add(name, v, "us");
    }
    m.add("route.frames", c.layer(Layer::Route).items as f64, "count");
    m.add("route.busy_s", busy(Layer::Route), "s");
    m.add("cache.hits", tele.cache_hits as f64, "count");
    m.add("cache.misses", tele.cache_misses as f64, "count");
    m.add("cache.evictions", tele.cache_evictions as f64, "count");
    let hit_ratio = if lookups == 0 {
        0.0
    } else {
        tele.cache_hits as f64 / lookups as f64
    };
    m.add("cache.hit_ratio", hit_ratio, "fraction");
    m.add("bench.busy_s", busy(Layer::Bench), "s");
    m.add("calls.failed", c.failed() as f64, "count");
    let covered: u64 = self_ns.iter().sum();
    m.add("trace.coverage_frac", covered as f64 / wall_ns, "fraction");
    m.add(
        "trace.overhead_frac",
        replay.wall_s / win.head.1 - 1.0,
        "fraction",
    );
    for (name, value, unit) in &m.0 {
        println!("{name:<30} {value:.6} {unit}");
    }
    m
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn malformed_frame_moves_the_failure_counter() {
        selftest().unwrap();
    }

    #[test]
    fn parses_the_run_arguments() {
        let a = args(&[
            "--workload",
            "stream_ingest",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("stream_ingest", 7, 3.0, true)
        );
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(make_workload("nope", 1).is_err());
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.add("a", 1.5, "ms");
        m.add("b", 2.0, "1/s");
        assert_eq!(
            m.json().unwrap(),
            r#"{"a": {"value": 1.5, "unit": "ms"}, "b": {"value": 2, "unit": "1/s"}}"#
        );
        m.add("c", f64::NAN, "s");
        assert!(m.json().is_err());
    }
}
