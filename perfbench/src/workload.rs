//! What the three workloads share: the paper's default schema, input
//! builders, the answer checks and the audit against exact truth.

use crate::trace::Ctx;
use bytes::{Bytes, BytesMut};
use privmdr_core::{EstimatorTelemetry, MechanismConfig};
use privmdr_data::{Dataset, DatasetSpec};
use privmdr_protocol::{AnswerBatch, Batch, ClientFactory, QueryBatch, SessionPlan};
use privmdr_query::workload::{true_answers, WorkloadBuilder};
use privmdr_query::RangeQuery;
use privmdr_util::par::{par_map, split_chunks};
use privmdr_util::rng::{derive_rng, derive_seed};

/// Attributes (the paper's default d).
pub const D: usize = 6;
/// Attribute domain (the paper's default c).
pub const C: usize = 64;
/// Privacy budget.
pub const EPSILON: f64 = 1.0;
/// Correlation of the `Normal` synthetic dataset (the CLI's default).
pub const RHO: f64 = 0.8;
/// Queries per request frame.
pub const FRAME_QUERIES: usize = 1024;
/// Reports per client wire frame.
pub const FRAME_REPORTS: usize = 8192;
/// How far a full-domain answer may sit from 1. Post-processing makes
/// every grid sum to 1, so only rounding separates them.
pub const FULL_DOMAIN_TOL: f64 = 1e-6;

/// One benchmark workload: set-up repetitions, closed-loop iterations,
/// and the audit and gate once the measured windows are over.
pub trait Workload {
    /// Seconds of untimed iterations before the measured window.
    fn warmup_s(&self) -> f64;

    /// One set-up repetition from the generated inputs to the first
    /// answerable state; returns the program time it took, in seconds.
    /// The last repetition before the warm-up is what the loop runs on;
    /// repetitions after the gate are timed and their state discarded.
    fn setup(&mut self, rep: usize, ctx: &mut Ctx, rec: &mut Recorder) -> Result<f64, String>;

    /// One closed-loop iteration; returns the work it completed
    /// (reports or queries).
    fn step(&mut self, i: u64, ctx: &mut Ctx, rec: &mut Recorder) -> u64;

    /// The audit and the correctness gate, after the windows. Returns the
    /// audit's mean absolute error; failures go to `ctx.fail`.
    fn finish(&mut self, ctx: &mut Ctx) -> f64;

    /// Cumulative counters the program keeps: estimator telemetry and
    /// answer-cache statistics.
    fn telemetry(&self) -> Telemetry;

    /// Extra per-layer figures the traced run measures after its replay.
    fn layer_probes(&mut self, _ctx: &mut Ctx) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Latency samples the loop records, in milliseconds.
#[derive(Debug, Default)]
pub struct Recorder {
    pub frame_ms: crate::stats::Samples,
    pub freshness_ms: crate::stats::Samples,
}

#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Telemetry {
    pub wu_sweeps: u64,
    pub lambda_ge3: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
}

impl Telemetry {
    /// The estimator part of a model's telemetry.
    pub fn estimator(t: Option<EstimatorTelemetry>) -> Telemetry {
        let Some(t) = t else {
            return Telemetry::default();
        };
        Telemetry {
            wu_sweeps: t.wu_sweeps,
            lambda_ge3: t
                .lambda_counts
                .iter()
                .filter(|&&(l, _)| l >= 3)
                .map(|&(_, n)| n)
                .sum(),
            ..Telemetry::default()
        }
    }

    pub fn add(&mut self, other: &Telemetry) {
        self.wu_sweeps += other.wu_sweeps;
        self.lambda_ge3 += other.lambda_ge3;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Telemetry) -> Telemetry {
        Telemetry {
            wu_sweeps: self.wu_sweeps - before.wu_sweeps,
            lambda_ge3: self.lambda_ge3 - before.lambda_ge3,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            cache_evictions: self.cache_evictions - before.cache_evictions,
        }
    }
}

/// The session plan every workload collects under: OLH/HDG over the
/// default schema, sized for `n` users.
pub fn plan(n: usize, seed: u64) -> SessionPlan {
    SessionPlan::new(n, D, C, EPSILON, derive_seed(seed, &[0x91A4]))
        .expect("the default schema is a valid plan")
}

/// The finalize settings `EpochCollector` uses for a plan, so one-shot
/// and epoch snapshots are comparable.
pub fn config(plan: &SessionPlan) -> MechanismConfig {
    MechanismConfig::default()
        .with_approach(plan.approach)
        .with_oracle(plan.oracle)
}

pub fn dataset(rows: usize, seed: u64) -> Dataset {
    DatasetSpec::Normal { rho: RHO }.generate(rows, D, C, derive_seed(seed, &[0xDA7A]))
}

/// Client reports for `count` users starting at `uid_start` (user `u`
/// holds row `u mod rows`), framed into `Batch` frames. Used to build
/// inputs before any clock starts.
pub fn report_stream(
    plan: &SessionPlan,
    ds: &Dataset,
    uid_start: u64,
    count: usize,
    seed: u64,
) -> Bytes {
    let factory = ClientFactory::new(plan).expect("plan oracles build");
    let mut rng = derive_rng(seed, &[0x2E90, uid_start]);
    let mut buf = BytesMut::new();
    let mut pending = Vec::with_capacity(FRAME_REPORTS);
    for uid in uid_start..uid_start + count as u64 {
        let row = ds.row((uid % ds.len() as u64) as usize);
        pending.push(
            factory
                .client(uid)
                .report(row, &mut rng)
                .expect("rows fit the plan"),
        );
        if pending.len() == FRAME_REPORTS {
            Batch::new(std::mem::take(&mut pending)).encode(&mut buf);
        }
    }
    if !pending.is_empty() {
        Batch::new(pending).encode(&mut buf);
    }
    buf.freeze()
}

/// `count` random queries of dimension `lambda` and volume 0.5 per
/// attribute, deterministic in `(seed, label)`.
pub fn queries(seed: u64, label: u64, lambda: usize, count: usize) -> Vec<RangeQuery> {
    WorkloadBuilder::new(D, C, derive_seed(seed, &[0x0E, label])).random(lambda, 0.5, count)
}

pub fn query_frame(queries: Vec<RangeQuery>) -> Bytes {
    QueryBatch::new(C, queries).to_bytes()
}

/// The query covering the whole domain of two attributes; its true
/// answer is exactly 1.
pub fn full_domain() -> RangeQuery {
    RangeQuery::from_triples(&[(0, 0, C - 1), (1, 0, C - 1)], C).expect("valid query")
}

/// Decodes an answer frame and checks it holds `expected` finite answers.
/// This is benchmark-side work inside the loop.
pub fn check_answers(ctx: &mut Ctx, response: &Bytes, expected: usize) {
    let verdict = match AnswerBatch::decode(&mut response.clone()) {
        Ok(batch) if batch.answers.len() != expected => Err(format!(
            "answer frame holds {} answers for {expected} queries",
            batch.answers.len()
        )),
        Ok(batch) => match batch.answers.iter().find(|a| !a.is_finite()) {
            Some(bad) => Err(format!("non-finite answer {bad}")),
            None => Ok(()),
        },
        Err(e) => Err(format!("undecodable answer frame: {e}")),
    };
    if let Err(msg) = verdict {
        ctx.fail(msg);
    }
}

/// A fixed audit set (its last query is [`full_domain`]) with its exact
/// answers on `ds`.
pub struct Audit {
    pub queries: Vec<RangeQuery>,
    pub truth: Vec<f64>,
}

impl Audit {
    /// `counts[l]` random queries of dimension `l + 1`, plus the
    /// full-domain query.
    pub fn new(ds: &Dataset, seed: u64, counts: &[usize]) -> Audit {
        let mut queries = Vec::new();
        for (i, &n) in counts.iter().enumerate() {
            queries.extend(self::queries(seed, 0xA0D1, i + 1, n));
        }
        queries.push(full_domain());
        // Scanning every record for λ ≠ 2 dominates input building, so the
        // truth is computed on every core.
        let chunks = split_chunks(&queries, queries.len().div_ceil(16));
        let truth = par_map(&chunks, |chunk| true_answers(ds, chunk)).concat();
        Audit { queries, truth }
    }

    /// Mean absolute error of `answers` (excluding the full-domain
    /// query), after checking every answer is finite and the full-domain
    /// answer is 1 within [`FULL_DOMAIN_TOL`].
    pub fn score(&self, ctx: &mut Ctx, what: &str, answers: &[f64]) -> f64 {
        assert_eq!(answers.len(), self.queries.len());
        if let Some(bad) = answers.iter().find(|a| !a.is_finite()) {
            ctx.fail(format!("{what}: non-finite audit answer {bad}"));
        }
        let full = answers[answers.len() - 1];
        if (full - 1.0).abs() > FULL_DOMAIN_TOL {
            ctx.fail(format!(
                "{what}: full-domain answer {full} is more than {FULL_DOMAIN_TOL} from 1"
            ));
        }
        let n = answers.len() - 1;
        answers[..n]
            .iter()
            .zip(&self.truth[..n])
            .map(|(a, t)| (a - t).abs())
            .sum::<f64>()
            / n as f64
    }
}
