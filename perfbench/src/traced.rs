//! The traced serve run: per-layer figures, timed from outside.
//!
//! The stream is replayed over loopback against an in-process server
//! (set-up, warm-up and rounds as in the untraced run), then the first
//! timed round is replayed twice in-process, each pass starting from
//! fresh state and the same warm-up:
//!
//! * **pass A** drives two `ShardCore`s (one shared `CellStore`, like the
//!   server) and times `ShardCore::handle` per request — the shard's
//!   service time, which pairs with the same request's loopback latency;
//! * **pass B** is the benchmark's own replica of the shard's request
//!   path through the public layer calls — spec expansion, `EngineCache`,
//!   the allocators, `evaluate_with_engine` — with a span around each
//!   call. Its replies must equal pass A's bit for bit, so its spans
//!   decompose the same work.

use crate::gen::StreamShape;
use crate::outcome::Outcome;
use crate::serve::{self, serve_config, Checker, Inputs, Ready};
use crate::stats::{mean, quantile, ratio};
use crate::trace::{trace_path, Tracer};
use cdsf_core::{CoreError, ImPolicy};
use cdsf_events::remap;
use cdsf_ra::{
    CellStore, EngineCache, Lattice, LatticeScratch, LatticeSolution, Phi1Engine, RaError,
    RebuildMap, SimulatedAnnealing,
};
use cdsf_serve::protocol::{encode_line, read_line_into, InjectRequest, DRAIN_DEPTH_BUCKETS};
use cdsf_serve::{
    shard_of, Request, Response, ShardCore, ShardStats, StatsReply, SubmitRequest, TenantEvent,
    WorkloadSpec,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// The per-layer metrics every traced run prints, in order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.wait_ms_p50", "ms"),
    ("server.wait_ms_p99", "ms"),
    ("protocol.codec_us_per_request", "us"),
    ("protocol.reply_bytes_per_request", "bytes"),
    ("protocol.frames_per_flush", "count"),
    ("shard.service_us_p50", "us"),
    ("shard.service_ms_p99", "ms"),
    ("shard.busy_s", "s"),
    ("shard.spec_cache_hit_ratio", "ratio"),
    ("shard.alloc_cache_hit_ratio", "ratio"),
    ("shard.drain_depth_mean", "count"),
    ("engine_cache.hit_ratio", "ratio"),
    ("engine_cache.rebuilds", "count"),
    ("cell_store.hit_ratio", "ratio"),
    ("cell_store.evictions", "count"),
    ("cell_store.resident", "count"),
    ("engine.builds", "count"),
    ("engine.build_ms_mean", "ms"),
    ("pmf.cells_built", "count"),
    ("pmf.quotient_pulses", "count"),
    ("alloc.sa_runs", "count"),
    ("alloc.sa_ms_mean", "ms"),
    ("alloc.lattice_nodes", "count"),
    ("alloc.lattice_pruned", "count"),
    ("alloc.lattice_ms_p50", "ms"),
    ("alloc.lattice_ms_max", "ms"),
    ("alloc.fallbacks", "count"),
    ("robustness.evaluate_us_mean", "us"),
    ("ra.prob_over_one", "count"),
    ("ra.phi1_mean", "prob"),
    ("stage1.ms_per_analysis", "ms"),
    ("stage2.ms_per_analysis", "ms"),
    ("simulation.replicates_per_s", "1/s"),
    ("dls.chunks_per_run", "count"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("layer.spec_s", "s"),
    ("layer.engine_s", "s"),
    ("layer.alloc_s", "s"),
    ("layer.evaluate_s", "s"),
    ("layer.shard_other_s", "s"),
    ("trace.layer_sum_vs_busy", "ratio"),
    ("trace.latency_reconciled_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("category.default.request_share", "ratio"),
    ("category.default.service_share", "ratio"),
    ("category.sa.request_share", "ratio"),
    ("category.sa.service_share", "ratio"),
    ("category.lattice.request_share", "ratio"),
    ("category.lattice.service_share", "ratio"),
    ("category.inject.request_share", "ratio"),
    ("category.inject.service_share", "ratio"),
    ("category.snapshot.request_share", "ratio"),
    ("category.snapshot.service_share", "ratio"),
];

/// Fills `out` with every [`PER_LAYER`] metric, 0 where the workload has
/// no such layer.
pub fn emit(out: &mut Outcome, values: &HashMap<&'static str, f64>) {
    for &(name, unit) in PER_LAYER {
        out.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "undeclared per-layer metric {name}"
        );
    }
}

/// A request's category for the service-time breakdown.
fn category(req: &Request) -> &'static str {
    match req {
        Request::Submit(s) => match s.allocator.as_deref() {
            Some("sa") => "sa",
            Some("lattice") => "lattice",
            _ => "default",
        },
        Request::Inject(_) => "inject",
        _ => "snapshot",
    }
}

/// The comparable part of a Stage-I reply: engine key, groups, per-app
/// and joint φ₁ bits.
type Answer = (u64, Vec<(usize, u32)>, Vec<u64>, u64);

fn answer_of(resp: &Response) -> Option<Answer> {
    let (key, asg, per_app, joint) = match resp {
        Response::Submit(r) => (
            r.engine_key,
            &r.assignments,
            &r.per_app_phi1,
            r.verdict.phi1,
        ),
        Response::Inject(r) => (
            r.engine_key,
            &r.assignments,
            &r.per_app_phi1,
            r.verdict.phi1,
        ),
        _ => return None,
    };
    Some((
        key,
        asg.iter().map(|a| (a.proc_type, a.procs)).collect(),
        per_app.iter().map(|p| p.to_bits()).collect(),
        joint.to_bits(),
    ))
}

fn delta(after: &ShardStats, before: &ShardStats) -> ShardStats {
    let d = |a: u64, b: u64| a - b;
    ShardStats {
        submits: d(after.submits, before.submits),
        injects: d(after.injects, before.injects),
        alloc_fallbacks: d(after.alloc_fallbacks, before.alloc_fallbacks),
        spec_cache_hits: d(after.spec_cache_hits, before.spec_cache_hits),
        spec_cache_misses: d(after.spec_cache_misses, before.spec_cache_misses),
        alloc_cache_hits: d(after.alloc_cache_hits, before.alloc_cache_hits),
        alloc_cache_misses: d(after.alloc_cache_misses, before.alloc_cache_misses),
        drain_depths: after
            .drain_depths
            .iter()
            .zip(before.drain_depths.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a - b)
            .collect(),
        sa_multistart_runs: d(after.sa_multistart_runs, before.sa_multistart_runs),
        cache_hits: d(after.cache_hits, before.cache_hits),
        cache_misses: d(after.cache_misses, before.cache_misses),
        cache_rebuilds: d(after.cache_rebuilds, before.cache_rebuilds),
        builds: d(after.builds, before.builds),
        pool_tasks_run: d(after.pool_tasks_run, before.pool_tasks_run),
        pool_chunks_stolen: d(after.pool_chunks_stolen, before.pool_chunks_stolen),
        ..ShardStats::default()
    }
}

/// Pass A: `ShardCore::handle` per request, warm-up untimed.
struct PassA {
    replies: Vec<Response>,
    service_ms: Vec<f64>,
    round: ShardStats,
    store: cdsf_ra::CellStoreStats,
    store_before: cdsf_ra::CellStoreStats,
}

fn pass_a(stream: &[Request], warmup: usize) -> PassA {
    let cfg = serve_config();
    let store = Arc::new(CellStore::new(cfg.cell_store_capacity));
    let mut cores: Vec<ShardCore> = (0..cfg.shards)
        .map(|id| ShardCore::with_store(id, cfg.clone(), Arc::clone(&store)))
        .collect();
    let shard = |req: &Request| {
        shard_of(
            req.tenant().expect("stream requests name a tenant"),
            cfg.shards,
        )
    };
    for req in &stream[..warmup] {
        cores[shard(req)].handle(req);
    }
    let before: Vec<ShardStats> = cores.iter().map(ShardCore::stats).collect();
    let store_before = store.stats();
    let mut replies = Vec::with_capacity(stream.len());
    let mut service_ms = Vec::with_capacity(stream.len());
    for req in stream {
        let core = &mut cores[shard(req)];
        let t0 = Instant::now();
        let resp = core.handle(req);
        service_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        replies.push(resp);
    }
    let mut round = ShardStats::default();
    for (core, b) in cores.iter().zip(&before) {
        round.merge(&delta(&core.stats(), b));
    }
    PassA {
        replies,
        service_ms,
        round,
        store: store.stats(),
        store_before,
    }
}

struct AllocEntry {
    key: u64,
    deadline_bits: u64,
    allocator: String,
    groups: Vec<(usize, u32)>,
    per_app: Vec<f64>,
    joint: f64,
}

struct TenantMirror {
    allocator: String,
    deadline: f64,
    inputs: Arc<Inputs>,
}

/// The replica's allocation-result cache and allocator state.
struct Solver {
    allocs: VecDeque<AllocEntry>,
    front_cap: usize,
    scratch: LatticeScratch,
    threads: usize,
    lattice_nodes: u64,
    lattice_pruned: u64,
}

impl Solver {
    /// Allocation + evaluation on `engine`, or the cached outcome.
    fn solve(
        &mut self,
        engine: &Phi1Engine,
        inputs: &Inputs,
        allocator: &str,
        deadline: f64,
        tr: &mut Tracer,
        op: u64,
    ) -> Answer {
        let Solver {
            allocs,
            front_cap,
            scratch,
            threads,
            lattice_nodes,
            lattice_pruned,
        } = self;
        let threads = *threads;
        let deadline_bits = deadline.to_bits();
        if let Some(pos) = allocs.iter().position(|e| {
            e.key == inputs.key && e.deadline_bits == deadline_bits && e.allocator == allocator
        }) {
            let e = allocs.remove(pos).expect("position exists");
            let ans = (
                e.key,
                e.groups.clone(),
                e.per_app.iter().map(|p| p.to_bits()).collect(),
                e.joint.to_bits(),
            );
            allocs.push_front(e);
            return ans;
        }
        let (batch, platform) = (&inputs.batch, &inputs.platform);
        let primary = match allocator {
            "sa" => tr.span("alloc.sa", op, |_| {
                SimulatedAnnealing {
                    threads,
                    ..SimulatedAnnealing::default()
                }
                .allocate_multi_start(platform, engine, deadline)
                .map(|(a, _)| a)
                .map_err(|e| matches!(e, RaError::NoFeasibleAllocation))
            }),
            "lattice" => tr.span("alloc.lattice", op, |_| {
                let (sol, report) = Lattice::default()
                    .solve_with_engine(platform, engine, deadline, scratch)
                    .expect("generated specs pack");
                *lattice_nodes += report.counters.nodes;
                *lattice_pruned += report.counters.screen_pruned
                    + report.counters.confirm_pruned
                    + report.counters.capacity_pruned;
                Ok(sol.allocation().clone())
            }),
            name => tr.span("alloc.default", op, |_| {
                ImPolicy::by_name(name)
                    .expect("the stream names known allocators")
                    .allocate_with_engine(batch, platform, engine, deadline)
                    .map_err(|e| matches!(e, CoreError::Ra(RaError::NoFeasibleAllocation)))
            }),
        };
        let alloc = match primary {
            Ok(a) => a,
            Err(true) => tr.span("alloc.fallback", op, |_| {
                let (sol, _) = Lattice { threads }
                    .solve_with_engine(platform, engine, deadline, scratch)
                    .expect("generated specs pack");
                match sol {
                    LatticeSolution::Optimal { alloc, .. }
                    | LatticeSolution::Infeasible { alloc, .. } => alloc,
                }
            }),
            Err(false) => tr.span("alloc.fallback", op, |_| {
                ImPolicy::Naive
                    .allocate_with_engine(batch, platform, engine, deadline)
                    .expect("equal share packs")
            }),
        };
        let report = tr.span("robustness.evaluate", op, |_| {
            cdsf_ra::robustness::evaluate_with_engine(engine, batch, platform, &alloc, deadline)
                .expect("valid allocation")
        });
        let groups: Vec<(usize, u32)> = alloc
            .assignments()
            .iter()
            .map(|a| (a.proc_type.0, a.procs))
            .collect();
        let ans = (
            inputs.key,
            groups.clone(),
            report.per_app.iter().map(|p| p.to_bits()).collect(),
            report.joint.to_bits(),
        );
        allocs.push_front(AllocEntry {
            key: inputs.key,
            deadline_bits,
            allocator: allocator.to_string(),
            groups,
            per_app: report.per_app,
            joint: report.joint,
        });
        allocs.truncate(*front_cap);
        ans
    }
}

/// The benchmark's replica of one shard's request path, built from the
/// layers' public calls.
struct MirrorShard {
    cache: EngineCache,
    specs: VecDeque<(WorkloadSpec, Arc<Inputs>)>,
    tenants: HashMap<String, TenantMirror>,
    solver: Solver,
}

impl MirrorShard {
    fn new(store: Arc<CellStore>) -> Self {
        let cfg = serve_config();
        Self {
            cache: EngineCache::with_capacity_and_store(cfg.cache_capacity, store),
            specs: VecDeque::new(),
            tenants: HashMap::new(),
            solver: Solver {
                allocs: VecDeque::new(),
                // The shard sizes its front caches 4× its engine LRU.
                front_cap: (cfg.cache_capacity * 4).max(8),
                scratch: LatticeScratch::new(),
                threads: cfg.build_threads,
                lattice_nodes: 0,
                lattice_pruned: 0,
            },
        }
    }

    fn spec(&mut self, spec: &WorkloadSpec) -> Arc<Inputs> {
        if let Some(pos) = self.specs.iter().position(|(s, _)| s == spec) {
            let e = self.specs.remove(pos).expect("position exists");
            self.specs.push_front(e);
        } else {
            let (batch, platform) = spec.expand().expect("generated specs are in bounds");
            let key = cdsf_ra::inputs_key(&batch, &platform);
            self.specs.push_front((
                spec.clone(),
                Arc::new(Inputs {
                    batch,
                    platform,
                    key,
                }),
            ));
            self.specs.truncate(self.solver.front_cap);
        }
        Arc::clone(&self.specs[0].1)
    }

    fn submit(&mut self, s: &SubmitRequest, tr: &mut Tracer, op: u64) -> Answer {
        let allocator = s
            .allocator
            .clone()
            .unwrap_or_else(|| serve_config().default_allocator);
        let inputs = tr.span("spec.expand", op, |_| self.spec(&s.spec));
        let threads = self.solver.threads;
        let outcome = tr.span("engine_cache.get", op, |_| {
            self.cache
                .get_or_build_keyed(inputs.key, &inputs.batch, &inputs.platform, threads)
                .expect("valid inputs build")
        });
        let ans = self
            .solver
            .solve(outcome.engine, &inputs, &allocator, s.deadline, tr, op);
        self.tenants.insert(
            s.tenant.clone(),
            TenantMirror {
                allocator,
                deadline: s.deadline,
                inputs,
            },
        );
        ans
    }

    fn inject(&mut self, r: &InjectRequest, tr: &mut Tracer, op: u64) -> Answer {
        let state = self
            .tenants
            .get(&r.tenant)
            .expect("injects follow a submit");
        let (allocator, deadline, prev) = (
            state.allocator.clone(),
            state.deadline,
            Arc::clone(&state.inputs),
        );
        let inputs = tr.span("event.remap", op, |_| {
            let platform = match r.event {
                TenantEvent::Degrade { proc_type, factor } => {
                    remap::degraded_platform(&prev.platform, proc_type, factor)
                }
                TenantEvent::Drift { factor } => remap::drifted_platform(&prev.platform, factor),
                TenantEvent::Crash { .. } => unreachable!("the streams inject no crashes"),
            }
            .expect("generated events are in range");
            let batch = prev.batch.clone();
            let key = cdsf_ra::inputs_key(&batch, &platform);
            Arc::new(Inputs {
                batch,
                platform,
                key,
            })
        });
        let threads = self.solver.threads;
        let (apps, types) = remap::identity_maps(inputs.batch.len(), inputs.platform.num_types());
        let map = RebuildMap {
            apps: &apps,
            types: &types,
        };
        let outcome = tr.span("engine_cache.rebuild", op, |_| {
            self.cache
                .rebuild_keyed(prev.key, &inputs.batch, &inputs.platform, map, threads)
                .expect("valid inputs build")
        });
        let ans = self
            .solver
            .solve(outcome.engine, &inputs, &allocator, deadline, tr, op);
        self.tenants
            .get_mut(&r.tenant)
            .expect("checked above")
            .inputs = inputs;
        ans
    }

    fn snapshot(&mut self, tenant: &str, tr: &mut Tracer, op: u64) {
        let state = &self.tenants[tenant];
        tr.span("snapshot.capture", op, |_| {
            std::hint::black_box((state.inputs.batch.clone(), state.inputs.platform.clone()))
        });
    }
}

/// Pass B: the replica, warm-up untimed, one span per request with a
/// child span per layer call.
fn pass_b(
    stream: &[Request],
    warmup: usize,
    tr: &mut Tracer,
) -> (Vec<Option<Answer>>, u64, u64, f64) {
    let cfg = serve_config();
    let store = Arc::new(CellStore::new(cfg.cell_store_capacity));
    let mut shards: Vec<MirrorShard> = (0..cfg.shards)
        .map(|_| MirrorShard::new(Arc::clone(&store)))
        .collect();
    let mut run = |req: &Request, tr: &mut Tracer, op: u64| -> Option<Answer> {
        let shard = &mut shards[shard_of(
            req.tenant().expect("stream requests name a tenant"),
            cfg.shards,
        )];
        tr.span("shard.request", op, |tr| match req {
            Request::Submit(s) => Some(shard.submit(s, tr, op)),
            Request::Inject(r) => Some(shard.inject(r, tr, op)),
            Request::Snapshot { tenant } => {
                shard.snapshot(tenant, tr, op);
                None
            }
            _ => None,
        })
    };
    let mut warm = Tracer::default();
    for req in &stream[..warmup] {
        run(req, &mut warm, 0);
    }
    let t0 = Instant::now();
    let answers = stream
        .iter()
        .enumerate()
        .map(|(i, req)| run(req, tr, i as u64))
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let nodes = shards.iter().map(|s| s.solver.lattice_nodes).sum();
    let pruned = shards.iter().map(|s| s.solver.lattice_pruned).sum();
    (answers, nodes, pruned, wall_s)
}

/// Time to encode and decode every request line and reply line of the
/// round, per request.
fn codec_us_per_request(stream: &[Request], replies: &[Response]) -> f64 {
    let t0 = Instant::now();
    let mut buf = Vec::new();
    let mut line = String::new();
    for (req, resp) in stream.iter().zip(replies) {
        buf.clear();
        encode_line(&mut buf, req).expect("requests encode");
        let mut rd = buf.as_slice();
        let back = read_line_into::<Request, _>(&mut rd, &mut line).expect("in-memory read");
        std::hint::black_box(back.is_some());
        buf.clear();
        encode_line(&mut buf, resp).expect("replies encode");
        let mut rd = buf.as_slice();
        let back = read_line_into::<Response, _>(&mut rd, &mut line).expect("in-memory read");
        std::hint::black_box(back.is_some());
    }
    t0.elapsed().as_secs_f64() * 1e6 / stream.len() as f64
}

/// Cold builds of the stream's distinct specs against a fresh store,
/// with the cell and quotient-pulse counts computed from input sizes.
fn cold_builds(stream: &[Request], v: &mut HashMap<&'static str, f64>) {
    let mut seen = HashSet::new();
    let store = CellStore::new(serve_config().cell_store_capacity);
    let (mut ms, mut cells, mut pulses) = (Vec::new(), 0u64, 0u64);
    for req in stream {
        let Request::Submit(s) = req else { continue };
        if !seen.insert(s.spec.clone()) {
            continue;
        }
        let (batch, platform) = s.spec.expand().expect("generated specs are in bounds");
        let t0 = Instant::now();
        let engine = Phi1Engine::build_parallel_with_store(
            &batch,
            &platform,
            serve_config().build_threads,
            &store,
        );
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(engine.is_ok());
        let (c, p) = crate::dual::cell_counts(&batch, &platform);
        cells += c;
        pulses += p;
    }
    v.insert("engine.builds", ms.len() as f64);
    v.insert("engine.build_ms_mean", mean(&ms));
    v.insert("pmf.cells_built", cells as f64);
    v.insert("pmf.quotient_pulses", pulses as f64);
}

/// A traced serve run.
pub fn run(shape: &StreamShape, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    // The server's wait and codec figures need the loopback path.
    let Ready {
        mut transport,
        stream,
        warm,
        ..
    } = serve::set_up(shape, seed, true)?;
    let warmup = warm.replies.len();

    // Loopback rounds, with the server's counters around the first.
    let before: StatsReply = transport.stats()?;
    let mut rounds = vec![transport.replay(&stream)?];
    let after: StatsReply = transport.stats()?;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        rounds.push(transport.replay(&stream)?);
    }
    transport.finish()?;
    let first = &rounds[0];

    let mut checker = Checker::new(&stream);
    for round in &rounds {
        for (i, r) in round.replies.iter().enumerate() {
            checker.check(i, r, &mut out);
        }
    }
    out.attempted = rounds.iter().map(|r| r.replies.len() as u64).sum();
    out.failed = checker.failed;

    let a = pass_a(&stream, warmup);
    let mut tr = Tracer::default();
    let (answers, lattice_nodes, lattice_pruned, pass_b_s) = pass_b(&stream, warmup, &mut tr);

    // The in-process passes must answer exactly as the server did.
    let mut over_one = 0u64;
    for (i, ((loop_r, a_r), b)) in first
        .replies
        .iter()
        .zip(&a.replies)
        .zip(&answers)
        .enumerate()
    {
        let (la, aa) = (answer_of(loop_r), answer_of(a_r));
        if la != aa {
            out.error(format!(
                "request {i}: ShardCore replay answers differently from the server"
            ));
        } else if aa != *b {
            out.error(format!(
                "request {i}: the layer replica answers differently from ShardCore"
            ));
        }
        if let Some((_, _, per_app, _)) = &aa {
            over_one += u64::from(per_app.iter().any(|&p| f64::from_bits(p) > 1.0));
        }
    }

    let mut v: HashMap<&'static str, f64> = HashMap::new();
    let n = stream.len() as f64;
    let busy_s: f64 = a.service_ms.iter().sum::<f64>() / 1e3;
    let mut wait: Vec<f64> = first
        .lat_ms
        .iter()
        .zip(&a.service_ms)
        .map(|(l, s)| l - s)
        .collect();
    // A request reconciles when its loopback latency covers its
    // in-process service time within the stated tolerance.
    let reconciled = wait
        .iter()
        .zip(&a.service_ms)
        .filter(|(w, s)| **w >= -(0.25 * **s + 0.05))
        .count();
    wait.sort_by(f64::total_cmp);
    let mut service = a.service_ms.clone();
    service.sort_by(f64::total_cmp);
    v.insert("server.wait_ms_p50", quantile(&wait, 0.5));
    v.insert("server.wait_ms_p99", quantile(&wait, 0.99));
    v.insert("trace.latency_reconciled_share", reconciled as f64 / n);

    let codec = &after.codec;
    let (bytes, frames, flushes) = (
        codec.reply_bytes - before.codec.reply_bytes,
        codec.reply_frames - before.codec.reply_frames,
        codec.flushes - before.codec.flushes,
    );
    v.insert(
        "protocol.codec_us_per_request",
        codec_us_per_request(&stream, &first.replies),
    );
    v.insert(
        "protocol.reply_bytes_per_request",
        ratio(bytes as f64, frames as f64),
    );
    v.insert(
        "protocol.frames_per_flush",
        ratio(frames as f64, flushes as f64),
    );

    v.insert("shard.service_us_p50", 1e3 * quantile(&service, 0.5));
    v.insert("shard.service_ms_p99", quantile(&service, 0.99));
    v.insert("shard.busy_s", busy_s);
    let r = &a.round;
    v.insert(
        "shard.spec_cache_hit_ratio",
        ratio(
            r.spec_cache_hits as f64,
            (r.spec_cache_hits + r.spec_cache_misses) as f64,
        ),
    );
    v.insert(
        "shard.alloc_cache_hit_ratio",
        ratio(
            r.alloc_cache_hits as f64,
            (r.alloc_cache_hits + r.alloc_cache_misses) as f64,
        ),
    );
    let server_round = delta(&after.total, &before.total);
    let depths = &server_round.drain_depths;
    let batches: u64 = depths.iter().sum();
    // Bucket b holds depths in [2^b, 2^(b+1)); weigh each by its floor.
    let weighted: u64 = depths
        .iter()
        .take(DRAIN_DEPTH_BUCKETS)
        .enumerate()
        .map(|(b, c)| c << b)
        .sum();
    v.insert(
        "shard.drain_depth_mean",
        ratio(weighted as f64, batches as f64),
    );
    v.insert(
        "engine_cache.hit_ratio",
        ratio(
            r.cache_hits as f64,
            (r.cache_hits + r.cache_misses + r.cache_rebuilds) as f64,
        ),
    );
    v.insert("engine_cache.rebuilds", r.cache_rebuilds as f64);
    let (s, s0) = (&a.store, &a.store_before);
    v.insert(
        "cell_store.hit_ratio",
        ratio(
            (s.hits - s0.hits) as f64,
            (s.hits + s.misses - s0.hits - s0.misses) as f64,
        ),
    );
    v.insert("cell_store.evictions", (s.evictions - s0.evictions) as f64);
    v.insert("cell_store.resident", s.resident as f64);
    cold_builds(&stream, &mut v);

    v.insert("alloc.sa_runs", r.sa_multistart_runs as f64);
    v.insert("alloc.sa_ms_mean", mean(&tr.durations_ms("alloc.sa")));
    v.insert("alloc.lattice_nodes", lattice_nodes as f64);
    v.insert("alloc.lattice_pruned", lattice_pruned as f64);
    let mut lat_ms = tr.durations_ms("alloc.lattice");
    lat_ms.extend(tr.durations_ms("alloc.fallback"));
    lat_ms.sort_by(f64::total_cmp);
    v.insert(
        "alloc.lattice_ms_p50",
        if lat_ms.is_empty() {
            0.0
        } else {
            quantile(&lat_ms, 0.5)
        },
    );
    v.insert(
        "alloc.lattice_ms_max",
        lat_ms.last().copied().unwrap_or(0.0),
    );
    v.insert("alloc.fallbacks", r.alloc_fallbacks as f64);
    v.insert(
        "robustness.evaluate_us_mean",
        1e3 * mean(&tr.durations_ms("robustness.evaluate")),
    );
    v.insert("ra.prob_over_one", over_one as f64);
    v.insert(
        "ra.phi1_mean",
        checker.phi1_sum / checker.phi1_n.max(1) as f64,
    );
    v.insert("pool.tasks", r.pool_tasks_run as f64);
    v.insert("pool.steals", r.pool_chunks_stolen as f64);

    // Self times of pass B's spans, grouped by layer.
    let totals = tr.totals();
    let self_s = |names: &[&str]| {
        names
            .iter()
            .map(|n| totals.get(n).map_or(0.0, |t| t.1))
            .sum::<f64>()
    };
    let layers = [
        ("layer.spec_s", self_s(&["spec.expand"])),
        (
            "layer.engine_s",
            self_s(&["engine_cache.get", "engine_cache.rebuild"]),
        ),
        (
            "layer.alloc_s",
            self_s(&[
                "alloc.sa",
                "alloc.lattice",
                "alloc.default",
                "alloc.fallback",
            ]),
        ),
        ("layer.evaluate_s", self_s(&["robustness.evaluate"])),
        (
            "layer.shard_other_s",
            self_s(&["shard.request", "event.remap", "snapshot.capture"]),
        ),
    ];
    let layer_sum: f64 = layers.iter().map(|l| l.1).sum();
    for (name, s) in layers {
        v.insert(name, s);
    }
    v.insert("trace.layer_sum_vs_busy", ratio(layer_sum, busy_s));
    // What recording spans costs: pass B's wall time outside its
    // request spans, as a share of it.
    v.insert(
        "trace.overhead_share",
        ratio(
            pass_b_s - totals.get("shard.request").map_or(0.0, |t| t.0),
            pass_b_s,
        ),
    );

    for cat in ["default", "sa", "lattice", "inject", "snapshot"] {
        let (mut count, mut time) = (0usize, 0.0);
        for (req, s) in stream.iter().zip(&a.service_ms) {
            if category(req) == cat {
                count += 1;
                time += s;
            }
        }
        v.insert(
            declared(format!("category.{cat}.request_share")),
            count as f64 / n,
        );
        v.insert(
            declared(format!("category.{cat}.service_share")),
            ratio(time / 1e3, busy_s),
        );
    }
    emit(&mut out, &v);
    if let Err(e) = tr.write(&trace_path(
        if shape.catalog.is_some() {
            "serve-catalog"
        } else {
            "serve-mixed"
        },
        seed,
    )) {
        out.error(format!("writing the trace: {e}"));
    }
    Ok(out)
}

/// Maps a generated metric name onto its declared `'static` twin.
fn declared(name: String) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .expect("declared per-layer metric")
}
