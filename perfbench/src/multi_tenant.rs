//! `multi_tenant_cached`: the cache and the registry, with writes beside
//! reads. Pre-built `0x5E` frames replay through `ServedNode::handle_frame`:
//! tenants re-ask a skewed pool of λ ∈ {1, 2} queries larger than their
//! cache, now and then scan the whole pool, and every `SWAP_EVERY` routes
//! one tenant hot-swaps to its other epoch.

use crate::trace::{Ctx, Layer};
use crate::workload::{
    check_answers, config, dataset, plan, report_stream, Audit, Recorder, Telemetry, Workload, C,
    D, FRAME_QUERIES,
};
use bytes::Bytes;
use privmdr_core::ModelSnapshot;
use privmdr_protocol::served::ServedEvent;
use privmdr_protocol::{
    decode_session_frame, session_open_to_bytes, session_route_to_bytes, Collector, QueryBatch,
    QueryServer, ServedNode, SessionFrame, SessionPlan,
};
use privmdr_query::workload::WorkloadBuilder;
use privmdr_query::RangeQuery;
use privmdr_util::rng::{derive_rng, derive_seed};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;
use std::time::Instant;

const TENANTS: usize = 4;
/// Distinct epochs per tenant; swaps alternate between them.
const EPOCHS: usize = 2;
/// Users behind each tenant epoch.
const USERS: usize = 1 << 19;
/// Answer-cache entries per tenant.
const CACHE_CAP: usize = 4096;
/// Distinct queries each tenant re-asks (four times the cache).
const POOL: usize = 4 * CACHE_CAP;
/// Zipf exponent of the query popularity.
const ZIPF_S: f64 = 1.1;
/// Pre-built route frames per tenant.
const FRAMES_PER_TENANT: usize = 32;
/// Every `SCAN_EVERY`-th frame draws uniformly from the pool instead of
/// by popularity, so mostly misses. These frames make up the latency tail
/// on purpose: 1 in 16 frames puts p99 inside them rather than on noise.
const SCAN_EVERY: usize = 16;
/// Routes between two hot-swaps.
const SWAP_EVERY: u64 = 256;
/// Serve shards (the production default: every core of a 2-CPU box).
const SHARDS: usize = 2;

pub struct MultiTenant {
    plan: SessionPlan,
    /// Client report streams, `[tenant][epoch]`.
    reports: Vec<Vec<Bytes>>,
    /// `0x5E` route frames, `[tenant][frame]`.
    routes: Vec<Vec<Bytes>>,
    audit: Audit,
    node: Option<ServedNode>,
    /// `0x5E` open frames built at set-up, `[tenant][epoch]`.
    opens: Vec<Vec<Bytes>>,
    snapshots: Vec<Vec<ModelSnapshot>>,
    live: [usize; TENANTS],
    /// When each tenant's pending swap was sent, until its first answer.
    swapped_at: [Option<Instant>; TENANTS],
    estimator: Telemetry,
}

/// The tenant's pool of distinct λ ∈ {1, 2} queries, in popularity order.
fn pool(seed: u64, tenant: usize) -> Vec<RangeQuery> {
    let wl = WorkloadBuilder::new(D, C, derive_seed(seed, &[0x9001, tenant as u64]));
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(POOL);
    let candidates = [0.25, 0.5, 0.75]
        .iter()
        .flat_map(|&omega| wl.random(1, omega, 400))
        .chain(
            [0.25, 0.375, 0.5, 0.625]
                .iter()
                .flat_map(|&omega| wl.random(2, omega, POOL / 2)),
        );
    for q in candidates {
        let mut key = Vec::new();
        q.write_canonical_key(&mut key);
        if seen.insert(key) {
            pool.push(q);
        }
    }
    pool.shuffle(&mut derive_rng(seed, &[0x9002, tenant as u64]));
    pool.truncate(POOL);
    assert_eq!(
        pool.len(),
        POOL,
        "the candidates hold enough distinct queries"
    );
    pool
}

/// Route frames of Zipf-distributed draws from the tenant's pool, with
/// a uniform scan frame every `SCAN_EVERY` frames.
fn route_frames(seed: u64, tenant: usize) -> Vec<Bytes> {
    let pool = pool(seed, tenant);
    let mut cdf: Vec<f64> = Vec::with_capacity(pool.len());
    let mut total = 0.0;
    for rank in 1..=pool.len() {
        total += (rank as f64).powf(-ZIPF_S);
        cdf.push(total);
    }
    let mut rng = derive_rng(seed, &[0x9003, tenant as u64]);
    (0..FRAMES_PER_TENANT)
        .map(|f| {
            let scan = f % SCAN_EVERY == SCAN_EVERY - 1;
            let queries = (0..FRAME_QUERIES)
                .map(|_| {
                    let i = if scan {
                        rng.random_range(0..pool.len())
                    } else {
                        let u = rng.random::<f64>() * total;
                        cdf.partition_point(|&c| c <= u).min(pool.len() - 1)
                    };
                    pool[i].clone()
                })
                .collect();
            session_route_to_bytes(tenant as u64, &QueryBatch::new(C, queries))
        })
        .collect()
}

impl MultiTenant {
    pub fn new(seed: u64) -> Self {
        let plan = plan(USERS, seed);
        let ds = dataset(USERS, seed);
        let reports = (0..TENANTS)
            .map(|t| {
                (0..EPOCHS)
                    .map(|e| {
                        let uid_start = ((t * EPOCHS + e) as u64) << 32;
                        report_stream(&plan, &ds, uid_start, USERS, seed)
                    })
                    .collect()
            })
            .collect();
        let routes = (0..TENANTS).map(|t| route_frames(seed, t)).collect();
        let audit = Audit::new(&ds, seed, &[200, 1000]);
        MultiTenant {
            plan,
            reports,
            routes,
            audit,
            node: None,
            opens: Vec::new(),
            snapshots: Vec::new(),
            live: [0; TENANTS],
            swapped_at: [None; TENANTS],
            estimator: Telemetry::default(),
        }
    }
}

impl Workload for MultiTenant {
    /// Long enough for the answer caches to fill.
    fn warmup_s(&self) -> f64 {
        3.0
    }

    /// Every tenant's epochs are collected, finalized and framed as
    /// `open`s; each tenant then opens its first epoch.
    fn setup(&mut self, rep: usize, ctx: &mut Ctx, _rec: &mut Recorder) -> Result<f64, String> {
        let failed = || "multi_tenant_cached set-up failed".to_string();
        let req = rep as u64;
        let start = Instant::now();
        let node = ServedNode::new(CACHE_CAP, SHARDS);
        let mut opens = Vec::with_capacity(TENANTS);
        let mut snapshots = Vec::with_capacity(TENANTS);
        for (t, streams) in self.reports.iter().enumerate() {
            let mut tenant_opens = Vec::with_capacity(EPOCHS);
            let mut tenant_snaps = Vec::with_capacity(EPOCHS);
            for stream in streams {
                let mut collector = ctx
                    .call(Layer::Collector, req, || Collector::new(self.plan.clone()))
                    .ok_or_else(failed)?;
                let n = ctx
                    .call(Layer::Collector, req, || {
                        collector.ingest_stream(stream.clone())
                    })
                    .ok_or_else(failed)?;
                ctx.count(Layer::Collector, |c| c.items += n as u64);
                let snap = ctx
                    .call(Layer::Finalize, req, || {
                        collector.snapshot(config(&self.plan))
                    })
                    .ok_or_else(failed)?;
                ctx.count(Layer::Finalize, |c| c.items += 1);
                let open = ctx
                    .call(Layer::Snapshot, req, || {
                        Ok::<_, String>(session_open_to_bytes(t as u64, &snap))
                    })
                    .ok_or_else(failed)?;
                ctx.count(Layer::Snapshot, |c| c.bytes += open.len() as u64);
                tenant_opens.push(open);
                tenant_snaps.push(snap);
            }
            opens.push(tenant_opens);
            snapshots.push(tenant_snaps);
        }
        for tenant_opens in &opens {
            match ctx.call(Layer::Publish, req, || {
                node.handle_frame(&mut tenant_opens[0].clone())
            }) {
                Some(ServedEvent::Opened(r)) if r.created => {}
                _ => return Err(failed()),
            }
            ctx.count(Layer::Publish, |c| c.items += 1);
        }
        let setup_s = start.elapsed().as_secs_f64();
        self.node = Some(node);
        self.opens = opens;
        self.snapshots = snapshots;
        self.live = [0; TENANTS];
        self.swapped_at = [None; TENANTS];
        Ok(setup_s)
    }

    fn step(&mut self, i: u64, ctx: &mut Ctx, rec: &mut Recorder) -> u64 {
        let node = self.node.as_ref().expect("set up before the loop");
        let swaps = i / SWAP_EVERY;
        if i > 0 && i.is_multiple_of(SWAP_EVERY) {
            let t = swaps as usize % TENANTS;
            let next = (self.live[t] + 1) % EPOCHS;
            let open = &self.opens[t][next];
            let sent = Instant::now();
            match ctx.call(Layer::Publish, i, || node.handle_frame(&mut open.clone())) {
                Some(ServedEvent::Opened(r)) if r.swapped => {
                    ctx.count_swap();
                    self.live[t] = next;
                    self.swapped_at[t] = Some(sent);
                }
                Some(_) => ctx.fail(format!("open of tenant {t} epoch {next} did not swap")),
                None => {}
            }
            ctx.count(Layer::Publish, |c| c.items += 1);
        }
        // Round-robin over tenants, shifted so the route right after a
        // swap goes to the tenant that swapped.
        let t = (i + swaps) as usize % TENANTS;
        let frame = &self.routes[t][(i as usize / TENANTS) % FRAMES_PER_TENANT];
        // Swaps reset a tenant's estimator telemetry, so the traced run
        // sums it per route.
        let estimator = || Telemetry::estimator(node.registry().estimator_telemetry_total());
        let before = ctx.tracer.is_on().then(estimator);
        let start = Instant::now();
        let event = ctx.call(Layer::Route, i, || node.handle_frame(&mut frame.clone()));
        rec.frame_ms.push(start.elapsed().as_secs_f64() * 1e3);
        ctx.count(Layer::Route, |c| c.items += 1);
        if let Some(before) = before {
            self.estimator.add(&estimator().since(&before));
        }
        match event {
            Some(ServedEvent::Answered { response, .. }) => {
                if let Some(sent) = self.swapped_at[t].take() {
                    rec.freshness_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                }
                check_answers(ctx, &response, FRAME_QUERIES);
                FRAME_QUERIES as u64
            }
            Some(ServedEvent::Opened(_)) => {
                ctx.fail("a route frame opened a session".into());
                0
            }
            None => 0,
        }
    }

    /// Audits every tenant epoch, and checks one sampled frame per tenant
    /// answers bit-identically through the cache and from a fresh
    /// uncached `QueryServer`.
    fn finish(&mut self, ctx: &mut Ctx) -> f64 {
        let node = self.node.as_ref().expect("set up before the gate");
        for t in 0..TENANTS {
            let route = &self.routes[t][0];
            let Ok(SessionFrame::Route { queries, .. }) = decode_session_frame(&mut route.clone())
            else {
                ctx.fail(format!("tenant {t}: sampled route frame does not decode"));
                continue;
            };
            let fresh = QueryServer::new(&self.snapshots[t][self.live[t]])
                .and_then(|s| s.serve_frame(&mut queries.to_bytes(), 1));
            // The second pass answers every query from the cache.
            for pass in 0..2 {
                let cached = node.handle_frame(&mut route.clone());
                match (&cached, &fresh) {
                    (Ok(ServedEvent::Answered { response, .. }), Ok(fresh))
                        if response == fresh => {}
                    _ => ctx.fail(format!(
                        "tenant {t}: cached answers (pass {pass}) differ from a fresh server"
                    )),
                }
            }
        }
        let mut total = 0.0;
        let mut models = 0;
        for (t, snaps) in self.snapshots.iter().enumerate() {
            for (e, snap) in snaps.iter().enumerate() {
                match QueryServer::new(snap) {
                    Ok(server) => {
                        let answers = server.answer_workload(&self.audit.queries, 1);
                        total += self
                            .audit
                            .score(ctx, &format!("tenant {t} epoch {e}"), &answers);
                        models += 1;
                    }
                    Err(e) => ctx.fail(format!("tenant {t}: snapshot does not restore: {e}")),
                }
            }
        }
        total / models.max(1) as f64
    }

    fn telemetry(&self) -> Telemetry {
        let mut t = self.estimator;
        if let Some(node) = &self.node {
            let cache = node.registry().cache_stats_total();
            t.cache_hits = cache.hits;
            t.cache_misses = cache.misses;
            t.cache_evictions = cache.evictions;
        }
        t
    }
}
