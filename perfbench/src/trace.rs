//! The traced run: per-layer host time from spans the benchmark records
//! around its own calls into the system.
//!
//! The serving engine serves each batch exactly as in the untraced run,
//! inside one `serving` span. A second engine built from the same tuned
//! libraries then replays the batch single-threaded, so it sees the same
//! cache outcomes the serving workers saw:
//!
//! * `engine` spans around `Engine::try_plan_graph`, one operator at a
//!   time, whose `GraphRun` splits a fill into search and the rest;
//! * `cache` spans around `MikPoly::try_compile` after a hit;
//! * `search` spans around `try_polymerize` after a fill, which re-derive
//!   the fill's search counters;
//! * `sim` spans around `accel_sim::simulate` of each retained launch,
//!   with `simulate_profiled` on every fourth launch for the phase split.
//!
//! The serving layer's own time is its worker time minus the replayed
//! children. Coverage is the share of the traced phase's host time that
//! lies inside a span.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use accel_sim::{simulate, simulate_profiled, TimingMode};
use mikpoly::{
    default_patterns, try_polymerize, CacheOutcome, CacheStats, CompileBudget, Engine, MikPoly,
    Request, SearchStats,
};
use tensor_ir::Operator;

use crate::bench::{online_options, Batch, WORKERS};
use crate::check::Findings;
use crate::stats::{mean, percentile};
use crate::workload::Workload;

/// Profile every n-th re-simulated launch.
const PROFILE_EVERY: usize = 4;

#[derive(Default)]
pub struct Tracer {
    /// Σ span durations, ns.
    span_ns: f64,
    /// Σ wall of the traced phase outside the `serve` calls, ns.
    replay_wall_ns: f64,
    /// Σ wall of the traced `serve` calls, ns.
    serve_wall_ns: f64,
    pub requests: usize,
    /// Per replayed request: Σ `try_plan_graph` time, ns.
    plan_ns: Vec<f64>,
    pub hit_ns: Vec<f64>,
    /// Per fill: `try_compile` time minus the program's search time, ns.
    fill_overhead_ns: Vec<f64>,
    pub search_ns: Vec<f64>,
    evaluated: Vec<f64>,
    pruned: f64,
    evaluated_total: f64,
    budget_exhausted: Vec<f64>,
    escalations: Vec<f64>,
    refined: Vec<f64>,
    pub sim_ns: Vec<f64>,
    sim_tasks: f64,
    launches: usize,
    profiled_admission: f64,
    profiled_advance: f64,
    profiled_total: f64,
}

/// An engine over the serving engine's libraries and online options,
/// with a cache of its own.
pub fn replay_engine(w: &Workload, serving: &Engine) -> Engine {
    let machine = serving.machine().clone();
    let gemm = MikPoly::with_library(machine.clone(), serving.gemm_compiler().library().clone())
        .with_options(online_options(w));
    let conv = MikPoly::with_library(machine.clone(), serving.conv_compiler().library().clone());
    Engine::from_compilers(machine, Arc::new(gemm), Arc::new(conv))
}

impl Tracer {
    fn span<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        self.span_ns += ns;
        (out, ns)
    }

    /// Replays one request's operators through `engine`, touching each
    /// cached program exactly once more than the serving engine did on a
    /// hit and not at all on a fill, so a bounded cache evicts in the same
    /// order as the serving engine's.
    pub fn replay(&mut self, engine: &Engine, ops: &[(Operator, usize)], findings: &mut Findings) {
        let gemm = engine.gemm_compiler();
        let mut plans = Vec::with_capacity(ops.len());
        let mut plan_ns = 0.0;
        for (op, count) in ops {
            let (plan, ns) = self.span(|| {
                engine.try_plan_graph(std::iter::once((op, *count)), CompileBudget::default())
            });
            plan_ns += ns;
            let plan = match plan {
                Ok(plan) => plan,
                Err(e) => {
                    findings.fail(format!("replay of {op}: {e}"));
                    continue;
                }
            };
            if plan.run.compilations > 0 {
                self.fill_overhead_ns
                    .push(plan.run.compile_ns as f64 - plan.run.search_ns as f64);
                self.search_ns.push(plan.run.search_ns as f64);
                // The fill's counters, re-derived by the search alone.
                let options = gemm.options();
                let patterns = options
                    .patterns
                    .clone()
                    .unwrap_or_else(|| default_patterns(engine.machine()));
                let (run, _) = self.span(|| {
                    try_polymerize(
                        engine.machine(),
                        gemm.library(),
                        &op.gemm_view(),
                        *op,
                        &patterns,
                        options.cost_model,
                        options.prune,
                        &options.search,
                        None,
                    )
                });
                match run {
                    Ok(run) => self.record_search(&run.program.stats),
                    Err(e) => findings.fail(format!("search of {op}: {e}")),
                }
            } else if plan.run.cache_wait_ns == 0 {
                let (reply, ns) = self.span(|| gemm.try_compile(op, CompileBudget::default()));
                match reply {
                    Ok(reply) if reply.outcome == CacheOutcome::Hit => self.hit_ns.push(ns),
                    _ => findings.fail(format!("replay lookup of {op} after a hit missed")),
                }
            }
            plans.push(plan);
        }
        self.plan_ns.push(plan_ns);
        let machine = engine.machine();
        for plan in &plans {
            for op_plan in &plan.ops {
                for launch in std::iter::once(&op_plan.launch).chain(&op_plan.reduction) {
                    let (report, ns) =
                        self.span(|| simulate(machine, launch, TimingMode::Evaluate));
                    self.sim_ns.push(ns);
                    self.sim_tasks += report.grid_size as f64;
                    self.launches += 1;
                    if self.launches.is_multiple_of(PROFILE_EVERY) {
                        let ((_, profile), _) = self.span(|| {
                            black_box(simulate_profiled(machine, launch, TimingMode::Evaluate))
                        });
                        self.profiled_admission += profile.admission_ns as f64;
                        self.profiled_advance += profile.advance_ns as f64;
                        self.profiled_total += profile.attributed_ns() as f64;
                    }
                }
            }
        }
    }

    fn record_search(&mut self, stats: &SearchStats) {
        self.evaluated.push(stats.strategies_evaluated as f64);
        self.evaluated_total += stats.strategies_evaluated as f64;
        self.pruned += stats.strategies_pruned as f64;
        self.budget_exhausted.push(stats.budget_exhausted as f64);
        self.escalations.push(stats.escalations as f64);
        self.refined.push(f64::from(u8::from(stats.refined)));
    }

    /// Forgets the spans recorded so far (the replay engine's warm-up),
    /// keeping the fill samples.
    pub fn start_traced_phase(&mut self) {
        self.span_ns = 0.0;
        self.plan_ns.clear();
        self.hit_ns.clear();
        self.sim_ns.clear();
        self.sim_tasks = 0.0;
    }

    /// Records a traced batch: its `serve` span, then the replay.
    pub fn traced_batch(
        &mut self,
        engine: &Engine,
        requests: &[Request],
        batch: &Batch,
        findings: &mut Findings,
    ) {
        let serve_ns = batch.wall_s * 1e9;
        self.serve_wall_ns += serve_ns;
        self.span_ns += serve_ns;
        self.requests += requests.len();
        let start = Instant::now();
        for request in requests {
            self.replay(engine, &request.ops, findings);
        }
        self.replay_wall_ns += start.elapsed().as_nanos() as f64;
    }

    /// The per-layer metrics, in benchmark order.
    pub fn metrics(
        &self,
        tune_s: f64,
        cache: CacheStats,
        traced: &[Batch],
        untraced: &[Batch],
    ) -> Vec<(&'static str, f64, &'static str)> {
        let lookups = (cache.hits + cache.misses) as f64;
        let rps = |b: &[Batch]| crate::stats::median(&b.iter().map(Batch::rps).collect::<Vec<_>>());
        let over = |f: fn(&Batch) -> f64| mean(&traced.iter().map(f).collect::<Vec<_>>());
        // Worker time: what the serving layer held, comparable with the
        // single-threaded replay of its children.
        let host_ns_per_req = self.serve_wall_ns * WORKERS as f64 / self.requests as f64;
        let sim_total: f64 = self.sim_ns.iter().sum();
        vec![
            ("offline.tune_ms", tune_s * 1e3, "ms"),
            ("cache.lookups", lookups, "count"),
            (
                "cache.hit_ratio",
                cache.hits as f64 / lookups.max(1.0),
                "ratio",
            ),
            ("cache.fills", cache.computations as f64, "count"),
            ("cache.evictions", cache.evictions as f64, "count"),
            (
                "cache.coalesced_waits",
                cache.coalesced_waits as f64,
                "count",
            ),
            ("cache.hit_ns_p50", percentile(&self.hit_ns, 50.0), "ns"),
            (
                "cache.fill_overhead_ns_p50",
                percentile(&self.fill_overhead_ns, 50.0),
                "ns",
            ),
            ("search.ns_p50", percentile(&self.search_ns, 50.0), "ns"),
            ("search.ns_p99", percentile(&self.search_ns, 99.0), "ns"),
            ("search.evaluated_per_shape", mean(&self.evaluated), "count"),
            (
                "search.prune_ratio",
                self.pruned / (self.pruned + self.evaluated_total).max(1.0),
                "ratio",
            ),
            (
                "search.budget_exhausted",
                mean(&self.budget_exhausted),
                "count",
            ),
            ("search.escalations", mean(&self.escalations), "count"),
            ("search.refined", mean(&self.refined), "ratio"),
            ("engine.plan_ns_p50", percentile(&self.plan_ns, 50.0), "ns"),
            (
                "sim.ns_per_launch_p50",
                percentile(&self.sim_ns, 50.0),
                "ns",
            ),
            (
                "sim.tasks_per_host_s",
                self.sim_tasks / (sim_total / 1e9),
                "1/s",
            ),
            (
                "sim.admission_share",
                self.profiled_admission / self.profiled_total,
                "ratio",
            ),
            (
                "sim.advance_share",
                self.profiled_advance / self.profiled_total,
                "ratio",
            ),
            ("serving.host_ns_per_req", host_ns_per_req, "ns"),
            (
                "serving.self_ns_per_req",
                host_ns_per_req - mean(&self.plan_ns),
                "ns",
            ),
            ("serving.queue_us_mean", over(|b| b.queue_us_mean), "us"),
            ("serving.mean_batch", over(|b| b.mean_batch), "count"),
            ("serving.worker_util", over(|b| b.worker_util), "ratio"),
            ("serving.offered_rho", over(|b| b.offered_rho), "ratio"),
            (
                "trace.coverage",
                self.span_ns / (self.serve_wall_ns + self.replay_wall_ns),
                "ratio",
            ),
            ("trace.overhead", 1.0 - rps(traced) / rps(untraced), "ratio"),
        ]
    }
}

/// `after - before`, field by field, for the monotone counters.
pub fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        computations: after.computations - before.computations,
        coalesced_waits: after.coalesced_waits - before.coalesced_waits,
        direct_inserts: after.direct_inserts - before.direct_inserts,
        evictions: after.evictions - before.evictions,
        invalidations: after.invalidations - before.invalidations,
        entries: after.entries,
    }
}
