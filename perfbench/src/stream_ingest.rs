//! `stream_ingest`: the write path. Clients randomize pre-generated rows
//! into `Batch` frames that feed an `EpochCollector`; every `EPOCH`
//! reports the epoch is cut, round-tripped through the snapshot codec,
//! published to a `SnapshotRegistry`, and probed with one query frame.

use crate::trace::{Ctx, Layer};
use crate::workload::{
    check_answers, config, dataset, plan, queries, query_frame, Audit, Recorder, Telemetry,
    Workload, FRAME_QUERIES, FRAME_REPORTS,
};
use bytes::{Bytes, BytesMut};
use privmdr_data::Dataset;
use privmdr_protocol::{
    decode_snapshot, snapshot_to_bytes, Batch, ClientFactory, Collector, EpochCollector,
    ProtocolError, SessionPlan, SnapshotRegistry,
};
use privmdr_util::rng::derive_rng;
use rand::rngs::StdRng;
use std::time::{Duration, Instant};

/// Users the plan is sized for (sets the grid granularities).
const USERS: usize = 1 << 20;
/// Reports per epoch; also the number of distinct rows, so every epoch
/// reports each row exactly once.
const EPOCH: usize = 1 << 18;
/// Collector shards.
const SHARDS: usize = 1;
/// The single tenant's session id.
const SESSION: u64 = 0;

/// One streaming deployment: client stream, epoch collector, registry,
/// and the one-shot collector the gate compares the last cut with.
struct Pipeline {
    factory: ClientFactory<'static>,
    rng: StdRng,
    next_uid: u64,
    epochs: EpochCollector,
    oneshot: Collector,
    registry: SnapshotRegistry,
}

pub struct StreamIngest {
    plan: &'static SessionPlan,
    rows: Dataset,
    probe: Bytes,
    audit: Audit,
    seed: u64,
    pipe: Option<Pipeline>,
    /// Audit error of each set-up's first published epoch.
    maes: Vec<f64>,
    estimator: Telemetry,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl StreamIngest {
    pub fn new(seed: u64) -> Self {
        // The plan lives for the whole run and clients borrow it.
        let plan: &'static SessionPlan = Box::leak(Box::new(plan(USERS, seed)));
        let rows = dataset(EPOCH, seed);
        let mut probe = queries(seed, 0x9B0, 1, FRAME_QUERIES / 4);
        probe.extend(queries(seed, 0x9B0, 2, FRAME_QUERIES - probe.len()));
        let audit = Audit::new(&rows, seed, &[200, 800]);
        StreamIngest {
            plan,
            rows,
            probe: query_frame(probe),
            audit,
            seed,
            pipe: None,
            maes: Vec::new(),
            estimator: Telemetry::default(),
        }
    }

    /// One client frame (`Client::report` ×8192, `Batch::encode`) into the
    /// epoch collector and the one-shot collector. Returns the reports
    /// counted and the time of the two timed calls.
    fn ingest_frame(&mut self, req: u64, ctx: &mut Ctx) -> Option<(u64, Duration)> {
        let pipe = self.pipe.as_mut().expect("pipeline set up");
        let rows = &self.rows;
        let t0 = Instant::now();
        let frame = ctx.call(Layer::Client, req, || {
            let mut reports = Vec::with_capacity(FRAME_REPORTS);
            for _ in 0..FRAME_REPORTS {
                let uid = pipe.next_uid;
                pipe.next_uid += 1;
                let row = rows.row((uid % EPOCH as u64) as usize);
                reports.push(pipe.factory.client(uid).report(row, &mut pipe.rng)?);
            }
            let mut buf = BytesMut::with_capacity(Batch::encoded_len(FRAME_REPORTS));
            Batch::new(reports).encode(&mut buf);
            Ok::<_, ProtocolError>(buf.freeze())
        });
        let client = t0.elapsed();
        let frame = frame?;
        ctx.count(Layer::Client, |c| {
            c.items += FRAME_REPORTS as u64;
            c.bytes += frame.len() as u64;
        });
        if let Err(e) = ctx.exclude(|| pipe.oneshot.ingest_stream(frame.clone())) {
            ctx.fail(format!("one-shot collector rejected a frame: {e}"));
        }
        let t1 = Instant::now();
        let ingested = ctx.call(Layer::Collector, req, || {
            pipe.epochs
                .ingest_stream_epochs(frame.clone(), SHARDS, u64::MAX, |_| {})
        });
        let busy = client + t1.elapsed();
        let n = ingested? as u64;
        ctx.count(Layer::Collector, |c| c.items += n);
        Some((n, busy))
    }

    /// One client frame through the collector and, when it completes an
    /// epoch, the cut → codec → publish → probe sequence. Returns the
    /// reports ingested and whether an epoch was published.
    fn frame(&mut self, req: u64, ctx: &mut Ctx, rec: &mut Recorder) -> (u64, bool) {
        let Some((n, busy)) = self.ingest_frame(req, ctx) else {
            return (0, false);
        };
        let counted = Instant::now();
        rec.frame_ms.push(ms(busy));
        let pipe = self.pipe.as_mut().expect("pipeline set up");
        if pipe.epochs.epoch_reports() < EPOCH as u64 {
            return (n, false);
        }

        let Some(cut) = ctx.call(Layer::Finalize, req, || pipe.epochs.cut_epoch()) else {
            return (n, false);
        };
        ctx.count(Layer::Finalize, |c| c.items += 1);
        let Some((snap, len)) = ctx.call(Layer::Snapshot, req, || {
            let bytes = snapshot_to_bytes(&cut.snapshot);
            decode_snapshot(&mut bytes.clone()).map(|s| (s, bytes.len()))
        }) else {
            return (n, false);
        };
        ctx.count(Layer::Snapshot, |c| c.bytes += len as u64);
        let Some(receipt) = ctx.call(Layer::Publish, req, || {
            pipe.registry.publish(SESSION, &snap)
        }) else {
            return (n, false);
        };
        ctx.count(Layer::Publish, |c| c.items += 1);
        if !receipt.swapped {
            ctx.fail(format!("epoch {} publish did not swap", cut.epoch));
        } else if !receipt.created {
            ctx.count_swap();
        }
        let tenant = pipe.registry.get(SESSION).expect("published session");
        let probe = &self.probe;
        let response = ctx.call(Layer::Serve, req, || {
            tenant.serve_frame(&mut probe.clone(), 1)
        });
        rec.freshness_ms.push(ms(counted.elapsed()));
        ctx.count(Layer::Serve, |c| c.items += 1);
        if let Some(response) = response {
            check_answers(ctx, &response, FRAME_QUERIES);
        }
        if ctx.tracer.is_on() {
            // Each epoch's server is new, so its telemetry is the probe's.
            let probe = Telemetry::estimator(tenant.current().server.estimator_telemetry());
            self.estimator.add(&probe);
        }
        (n, true)
    }
}

impl Workload for StreamIngest {
    fn warmup_s(&self) -> f64 {
        2.0
    }

    /// A fresh deployment streams until its first epoch is published.
    fn setup(&mut self, rep: usize, ctx: &mut Ctx, rec: &mut Recorder) -> Result<f64, String> {
        let failed = || "stream_ingest set-up failed".to_string();
        let excluded = ctx.excluded;
        let start = Instant::now();
        let plan = self.plan;
        let factory = ctx
            .call(Layer::Client, 0, || ClientFactory::new(plan))
            .ok_or_else(failed)?;
        let epochs = ctx
            .call(Layer::Collector, 0, || EpochCollector::new(plan.clone()))
            .ok_or_else(failed)?;
        let oneshot = ctx
            .exclude(|| Collector::new(plan.clone()))
            .map_err(|e| e.to_string())?;
        self.pipe = Some(Pipeline {
            factory,
            rng: derive_rng(self.seed, &[0x57, rep as u64]),
            next_uid: (rep as u64) << 32,
            epochs,
            oneshot,
            registry: SnapshotRegistry::new(0),
        });
        let mut published = false;
        for i in 0..EPOCH.div_ceil(FRAME_REPORTS) {
            published = self.frame(i as u64, ctx, rec).1;
        }
        if !published {
            return Err(failed());
        }
        let setup_s = (start.elapsed() - (ctx.excluded - excluded)).as_secs_f64();

        let pipe = self.pipe.as_ref().expect("just built");
        let server = &pipe
            .registry
            .get(SESSION)
            .expect("published")
            .current()
            .server;
        let answers = server.answer_workload(&self.audit.queries, 1);
        let mae = self.audit.score(ctx, "stream_ingest first epoch", &answers);
        self.maes.push(mae);
        Ok(setup_s)
    }

    fn step(&mut self, i: u64, ctx: &mut Ctx, rec: &mut Recorder) -> u64 {
        self.frame(i, ctx, rec).0
    }

    /// Seals the in-flight epoch and checks the cumulative snapshot is
    /// bit-identical to a one-shot `Collector::snapshot` of the same
    /// stream.
    fn finish(&mut self, ctx: &mut Ctx) -> f64 {
        // One more frame, so the last cut always seals a non-empty epoch.
        self.ingest_frame(u64::MAX, ctx);
        let pipe = self.pipe.as_mut().expect("set up before the gate");
        let config = config(self.plan);
        match (pipe.epochs.cut_epoch(), pipe.oneshot.snapshot(config)) {
            (Ok(cut), Ok(oneshot)) => {
                if cut.total_reports != pipe.oneshot.report_count() {
                    ctx.fail(format!(
                        "last cut covers {} reports, the one-shot collector {}",
                        cut.total_reports,
                        pipe.oneshot.report_count()
                    ));
                }
                if snapshot_to_bytes(&cut.snapshot) != snapshot_to_bytes(&oneshot) {
                    ctx.fail(format!(
                        "cumulative snapshot of epoch {} differs from the one-shot snapshot",
                        cut.epoch
                    ));
                }
            }
            (Err(e), _) | (_, Err(e)) => ctx.fail(format!("final snapshot failed: {e}")),
        }
        self.maes.iter().sum::<f64>() / self.maes.len() as f64
    }

    fn telemetry(&self) -> Telemetry {
        self.estimator
    }
}
