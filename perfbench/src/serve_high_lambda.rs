//! `serve_high_lambda`: the estimator. One tenant, no cache, one shard;
//! `QueryServer::serve_frame` answers pre-built 1024-query frames of
//! λ = 3..6, where every query runs Weighted Update (Alg. 2). Every
//! `REPUBLISH_EVERY` frames the epoch's snapshot frame arrives again and
//! is restored into a fresh server, which gives the freshness samples.

use crate::stats::Samples;
use crate::trace::{Ctx, Layer};
use crate::workload::{
    check_answers, config, dataset, plan, queries, query_frame, report_stream, Audit, Recorder,
    Telemetry, Workload, FRAME_QUERIES,
};
use bytes::Bytes;
use privmdr_protocol::{decode_snapshot, snapshot_to_bytes, Collector, QueryServer, SessionPlan};
use std::time::Instant;

/// Users whose reports the model is fitted from.
const USERS: usize = 1 << 20;
/// Queries of each λ per frame. Per-query cost grows about 3× per λ
/// step, so 19:6:2:1 gives every λ a similar share of serve time, and
/// every frame has the same mix.
const LAMBDA_MIX: [(usize, usize); 4] = [(3, 695), (4, 219), (5, 73), (6, 37)];
/// Distinct pre-built frames.
const FRAMES: usize = 16;
/// Frames between two restores of the epoch snapshot.
const REPUBLISH_EVERY: u64 = 256;
/// Minimum time spent timing each λ in the traced run's probes.
const PROBE_SECONDS: f64 = 0.1;

pub struct ServeHighLambda {
    plan: SessionPlan,
    reports: Bytes,
    frames: Vec<Bytes>,
    /// One single-λ frame per λ of the mix, for the traced probes.
    lambda_frames: Vec<Bytes>,
    audit: Audit,
    /// The epoch's encoded snapshot, as published at set-up.
    snapshot: Bytes,
    server: Option<QueryServer>,
    /// Estimator telemetry of servers already replaced.
    retired: Telemetry,
}

impl ServeHighLambda {
    pub fn new(seed: u64) -> Self {
        assert_eq!(LAMBDA_MIX.iter().map(|m| m.1).sum::<usize>(), FRAME_QUERIES);
        let plan = plan(USERS, seed);
        let ds = dataset(USERS, seed);
        let reports = report_stream(&plan, &ds, 0, USERS, seed);
        let frames = (0..FRAMES as u64)
            .map(|f| {
                let mixed = LAMBDA_MIX
                    .iter()
                    .flat_map(|&(lambda, n)| queries(seed, f, lambda, n))
                    .collect();
                query_frame(mixed)
            })
            .collect();
        let lambda_frames = LAMBDA_MIX
            .iter()
            .map(|&(lambda, _)| query_frame(queries(seed, FRAMES as u64, lambda, FRAME_QUERIES)))
            .collect();
        // λ ≥ 3 truth scans every record (about 9 ms per query here).
        let audit = Audit::new(&ds, seed, &[0, 300, 150, 80, 40, 30]);
        ServeHighLambda {
            plan,
            reports,
            frames,
            lambda_frames,
            audit,
            snapshot: Bytes::new(),
            server: None,
            retired: Telemetry::default(),
        }
    }

    fn serve(&self, i: u64, frame: &Bytes, ctx: &mut Ctx) -> Option<Bytes> {
        let server = self.server.as_ref().expect("set up before serving");
        let response = ctx.call(Layer::Serve, i, || {
            server.serve_frame(&mut frame.clone(), 1)
        });
        ctx.count(Layer::Serve, |c| c.items += 1);
        response
    }

    /// Restores the epoch snapshot into a fresh server, replacing the
    /// current one.
    fn restore(&mut self, i: u64, ctx: &mut Ctx) -> Option<()> {
        let bytes = &self.snapshot;
        let restored = ctx.call(Layer::Snapshot, i, || decode_snapshot(&mut bytes.clone()))?;
        ctx.count(Layer::Snapshot, |c| c.bytes += bytes.len() as u64);
        let server = ctx.call(Layer::Publish, i, || QueryServer::new(&restored))?;
        ctx.count(Layer::Publish, |c| c.items += 1);
        if let Some(old) = self.server.replace(server) {
            self.retired
                .add(&Telemetry::estimator(old.estimator_telemetry()));
        }
        Some(())
    }
}

impl Workload for ServeHighLambda {
    fn warmup_s(&self) -> f64 {
        2.0
    }

    /// Collects the reports, finalizes, encodes the snapshot frame and
    /// restores it into the server.
    fn setup(&mut self, rep: usize, ctx: &mut Ctx, _rec: &mut Recorder) -> Result<f64, String> {
        let req = rep as u64;
        let failed = || "serve_high_lambda set-up failed".to_string();
        let start = Instant::now();
        let mut collector = ctx
            .call(Layer::Collector, req, || Collector::new(self.plan.clone()))
            .ok_or_else(failed)?;
        let n = ctx
            .call(Layer::Collector, req, || {
                collector.ingest_stream(self.reports.clone())
            })
            .ok_or_else(failed)?;
        ctx.count(Layer::Collector, |c| c.items += n as u64);
        let snap = ctx
            .call(Layer::Finalize, req, || {
                collector.snapshot(config(&self.plan))
            })
            .ok_or_else(failed)?;
        ctx.count(Layer::Finalize, |c| c.items += 1);
        self.snapshot = ctx
            .call(Layer::Snapshot, req, || {
                Ok::<_, String>(snapshot_to_bytes(&snap))
            })
            .ok_or_else(failed)?;
        self.restore(req, ctx).ok_or_else(failed)?;
        Ok(start.elapsed().as_secs_f64())
    }

    fn step(&mut self, i: u64, ctx: &mut Ctx, rec: &mut Recorder) -> u64 {
        let sent = Instant::now();
        let restored = i > 0 && i.is_multiple_of(REPUBLISH_EVERY) && self.restore(i, ctx).is_some();
        let start = Instant::now();
        let response = self.serve(i, &self.frames[i as usize % FRAMES], ctx);
        let done = Instant::now();
        rec.frame_ms.push((done - start).as_secs_f64() * 1e3);
        if restored {
            rec.freshness_ms.push((done - sent).as_secs_f64() * 1e3);
        }
        match response {
            Some(response) => {
                check_answers(ctx, &response, FRAME_QUERIES);
                FRAME_QUERIES as u64
            }
            None => 0,
        }
    }

    fn finish(&mut self, ctx: &mut Ctx) -> f64 {
        let server = self.server.as_ref().expect("set up before the audit");
        let answers = server.answer_workload(&self.audit.queries, 1);
        self.audit.score(ctx, "serve_high_lambda model", &answers)
    }

    fn telemetry(&self) -> Telemetry {
        let mut t = self.retired;
        t.add(&Telemetry::estimator(
            self.server.as_ref().and_then(|s| s.estimator_telemetry()),
        ));
        t
    }

    /// Serve time per query of each λ alone: the median over repeated
    /// single-λ frames.
    fn layer_probes(&mut self, ctx: &mut Ctx) -> Vec<(&'static str, f64)> {
        let names = [
            "estimator.us_per_query_l3",
            "estimator.us_per_query_l4",
            "estimator.us_per_query_l5",
            "estimator.us_per_query_l6",
        ];
        let mut out = Vec::new();
        for (name, frame) in names.into_iter().zip(&self.lambda_frames) {
            let mut per_query_us = Samples::default();
            let start = Instant::now();
            while per_query_us.len() < 3 || start.elapsed().as_secs_f64() < PROBE_SECONDS {
                let t = Instant::now();
                let Some(response) = self.serve(u64::MAX, frame, ctx) else {
                    break;
                };
                per_query_us.push(t.elapsed().as_secs_f64() * 1e6 / FRAME_QUERIES as f64);
                check_answers(ctx, &response, FRAME_QUERIES);
            }
            out.push((name, per_query_us.median()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_fills_a_frame_with_equal_time_shares() {
        assert_eq!(LAMBDA_MIX.iter().map(|m| m.1).sum::<usize>(), FRAME_QUERIES);
        // Per-query cost triples per λ step; each λ's share stays within 2×.
        let shares: Vec<f64> = LAMBDA_MIX
            .iter()
            .map(|&(l, n)| n as f64 * 3f64.powi(l as i32 - 3))
            .collect();
        let (lo, hi) = shares
            .iter()
            .fold((f64::MAX, 0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        assert!(hi / lo < 2.0, "{shares:?}");
    }
}
