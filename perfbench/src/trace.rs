//! Call accounting and in-memory spans around the program's public calls.
//!
//! Every timed call goes through [`Ctx::call`], which counts it as
//! attempted or failed for its layer. When the tracer is on, the call
//! also records a span (layer, start, end, parent, request id); spans stay
//! in memory and are written out once the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The program layers the benchmark times, named after the repository's
/// modules, plus the benchmark's own side of each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Benchmark-side work: frame selection, answer decoding and checks.
    Bench,
    /// `protocol::client`: `Client::report` and `Batch::encode`.
    Client,
    /// `protocol::stream`/`cursor`/`server` ingest and the support kernel.
    Collector,
    /// Finalize: `EpochCollector::cut_epoch` / `Collector::snapshot`.
    Finalize,
    /// `protocol::wire` snapshot codec (and the `0x5E` open envelope).
    Snapshot,
    /// `protocol::registry` publish / `open` frames / `QueryServer::new`.
    Publish,
    /// `protocol::serve` + `core::estimation`: `serve_frame`.
    Serve,
    /// `protocol::served` routes through the registry's answer cache.
    Route,
}

pub const LAYERS: [Layer; 8] = [
    Layer::Bench,
    Layer::Client,
    Layer::Collector,
    Layer::Finalize,
    Layer::Snapshot,
    Layer::Publish,
    Layer::Serve,
    Layer::Route,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Client => "client",
            Layer::Collector => "collector",
            Layer::Finalize => "finalize",
            Layer::Snapshot => "snapshot",
            Layer::Publish => "publish",
            Layer::Serve => "serve",
            Layer::Route => "route",
        }
    }
}

/// Per-layer call counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerCount {
    pub calls: u64,
    pub failed: u64,
    /// Work items the calls handled (reports, frames, cuts, ...).
    pub items: u64,
    /// Bytes the calls produced (wire frames, snapshot frames).
    pub bytes: u64,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub layers: [LayerCount; LAYERS.len()],
    /// Publishes that installed a new epoch.
    pub swaps: u64,
}

impl Counters {
    pub fn layer(&self, layer: Layer) -> &LayerCount {
        &self.layers[layer as usize]
    }

    pub fn layer_mut(&mut self, layer: Layer) -> &mut LayerCount {
        &mut self.layers[layer as usize]
    }

    pub fn attempted(&self) -> u64 {
        self.layers.iter().map(|c| c.calls).sum()
    }

    pub fn failed(&self) -> u64 {
        self.layers.iter().map(|c| c.failed).sum()
    }
}

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

/// Records spans while on; `enter` and `exit` are no-ops while off, so
/// the untraced run reads no clock for tracing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on_since: Option<Instant>,
    wall: Duration,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle of an open span (`None` while the tracer is off).
#[must_use]
pub struct SpanId(Option<u32>);

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            on_since: None,
            wall: Duration::ZERO,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on_since.is_some()
    }

    /// Starts a traced period.
    pub fn start(&mut self) {
        if self.on_since.is_none() {
            self.on_since = Some(Instant::now());
        }
    }

    /// Ends a traced period, adding it to the traced wall time.
    pub fn stop(&mut self) {
        if let Some(since) = self.on_since.take() {
            self.wall += since.elapsed();
        }
    }

    /// Wall time of every traced period so far.
    pub fn wall(&self) -> Duration {
        self.wall
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, layer: Layer, request: u64) -> SpanId {
        if !self.is_on() {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, span: SpanId) {
        if let Some(id) = span.0 {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close in stack order");
        }
    }

    /// The spans as tab-separated text, one per line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("layer\tstart_ns\tend_ns\tparent\trequest\n");
        for s in &self.spans {
            let parent = s.parent.map_or(-1, i64::from);
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                parent,
                s.request
            );
        }
        out
    }
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part of its interval its children cover. Overlapping children are
/// merged first, and a child reaching outside its parent only covers the
/// overlap, so every instant counts once.
pub fn self_times(spans: &[Span]) -> [u64; LAYERS.len()] {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = [0u64; LAYERS.len()];
    for (s, kids) in spans.iter().zip(&mut children) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        out[s.layer as usize] += dur - covered(kids, s.start_ns, s.end_ns);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Shared state of one benchmark run: call accounting, the tracer, time
/// spent on benchmark-side checks that the measured windows exclude, and
/// the first errors the program returned.
pub struct Ctx {
    /// Every call of the run.
    pub counters: Counters,
    /// Calls made while the tracer was on.
    pub traced: Counters,
    pub tracer: Tracer,
    pub excluded: Duration,
    pub errors: Vec<String>,
}

impl Ctx {
    pub fn new() -> Self {
        Ctx {
            counters: Counters::default(),
            traced: Counters::default(),
            tracer: Tracer::new(),
            excluded: Duration::ZERO,
            errors: Vec::new(),
        }
    }

    /// Times one public call of `layer`, counting it as attempted and, on
    /// `Err`, as failed. Returns the call's value on success.
    pub fn call<T, E: std::fmt::Display>(
        &mut self,
        layer: Layer,
        request: u64,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let span = self.tracer.enter(layer, request);
        let result = f();
        self.tracer.exit(span);
        let ok = result.is_ok();
        self.count(layer, |c| {
            c.calls += 1;
            c.failed += u64::from(!ok);
        });
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{} call failed: {e}", layer.name()));
                None
            }
        }
    }

    /// Applies `f` to the layer's counts of the run, and of the traced
    /// counts while the tracer is on.
    pub fn count(&mut self, layer: Layer, f: impl Fn(&mut LayerCount)) {
        f(self.counters.layer_mut(layer));
        if self.tracer.is_on() {
            f(self.traced.layer_mut(layer));
        }
    }

    pub fn count_swap(&mut self) {
        self.counters.swaps += 1;
        if self.tracer.is_on() {
            self.traced.swaps += 1;
        }
    }

    /// Records a failure that is not a program error (a wrong answer).
    pub fn fail(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Runs benchmark-side work whose time the measured windows exclude.
    pub fn exclude<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = f();
        self.excluded += t.elapsed();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(Layer::Bench, 0, 100, None),
            span(Layer::Client, 10, 40, Some(0)),
            span(Layer::Collector, 50, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[Layer::Bench as usize], 30);
        assert_eq!(t[Layer::Client as usize], 30);
        assert_eq!(t[Layer::Collector as usize], 40);
    }

    #[test]
    fn child_overlapping_its_parent_counts_once() {
        // The child starts inside its parent and ends after it.
        let spans = [
            span(Layer::Bench, 0, 100, None),
            span(Layer::Publish, 60, 150, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[Layer::Bench as usize], 60);
        assert_eq!(t[Layer::Publish as usize], 90);
        assert_eq!(t.iter().sum::<u64>(), 150, "union of both spans");
    }

    #[test]
    fn overlapping_children_are_merged() {
        let spans = [
            span(Layer::Bench, 0, 100, None),
            span(Layer::Serve, 10, 40, Some(0)),
            span(Layer::Route, 30, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)[Layer::Bench as usize], 50);
    }

    #[test]
    fn nested_spans_follow_the_stack() {
        let mut tr = Tracer::new();
        let off = tr.enter(Layer::Bench, 1);
        tr.exit(off);
        assert!(tr.spans().is_empty(), "no spans while off");
        tr.start();
        let outer = tr.enter(Layer::Bench, 7);
        let inner = tr.enter(Layer::Serve, 7);
        tr.exit(inner);
        tr.exit(outer);
        tr.stop();
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(tr.to_tsv().lines().count() == 3);
    }

    #[test]
    fn calls_count_attempts_and_failures() {
        let mut ctx = Ctx::new();
        assert_eq!(ctx.call(Layer::Serve, 0, || Ok::<_, String>(3)), Some(3));
        assert_eq!(ctx.call(Layer::Serve, 1, || Err::<u8, _>("bad")), None);
        let c = ctx.counters.layer(Layer::Serve);
        assert_eq!((c.calls, c.failed), (2, 1));
        assert_eq!(ctx.traced, Counters::default(), "tracer was off");
        assert_eq!(ctx.errors.len(), 1);
    }
}
