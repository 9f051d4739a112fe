//! Set-up, the serving loop and the `slo_rps` ladder, shared by the
//! untraced and the traced run.

use std::sync::Arc;
use std::time::Instant;

use accel_sim::{Cluster, Interconnect};
use mikpoly::serving::{BatchingOptions, TenantPolicy, TenantQuota};
use mikpoly::{
    Disposition, Engine, MikPoly, OfflineOptions, OnlineOptions, Request, RequestRecord,
    ServingOptions, ServingReport, ServingRuntime, TemplateKind,
};

use crate::check::{check_records, Findings, Ledger};
use crate::stats::{median, percentile};
use crate::workload::{mix, Traffic, Workload};

/// Set-ups per run; `setup_s` is their median. The first builds the
/// engine the run serves with; the rest run after the measurements, so
/// the samples are spread over the run.
const SETUP_REPEATS: usize = 3;

/// Serving worker threads (the host has 2 CPUs) and simulated devices.
pub const WORKERS: usize = 2;
pub const DEVICES: usize = 2;

/// The `slo_rps` ladder: rung `i` runs at `LADDER_BASE · LADDER_STEP^i`
/// times the workload's fixed rate.
const LADDER_BASE: f64 = 0.5;
const LADDER_STEP: f64 = 1.025;
const LADDER_RUNGS: usize = 96;

/// One set-up: the engine plus how long each part took.
pub struct Setup {
    pub engine: Arc<Engine>,
    /// Offline tuning of both templates, s.
    pub tune_s: f64,
    /// Tuning, engine construction and cache warm-up, s.
    pub total_s: f64,
}

pub fn online_options(w: &Workload) -> OnlineOptions {
    OnlineOptions {
        cache_capacity: w.cache_capacity(),
        ..OnlineOptions::default()
    }
}

/// Offline tuning at the paper's hyper-parameters, engine construction,
/// and program-cache warm-up.
pub fn setup(w: &Workload, seed: u64) -> Setup {
    let start = Instant::now();
    let machine = w.machine();
    let options = OfflineOptions::paper();
    let gemm = MikPoly::offline(machine.clone(), &options);
    let conv = MikPoly::offline(
        machine.clone(),
        &options.clone().with_template(TemplateKind::Conv),
    );
    let tune_s = start.elapsed().as_secs_f64();
    let gemm = Arc::new(gemm.with_options(online_options(w)));
    let engine = Arc::new(Engine::from_compilers(machine, gemm, Arc::new(conv)));
    engine.gemm_compiler().compile_many(&w.warmup_ops(seed));
    Setup {
        engine,
        tune_s,
        total_s: start.elapsed().as_secs_f64(),
    }
}

/// What one batch's `serve` call produced, reduced to the samples the
/// metrics need (the full report is dropped, so memory does not grow
/// with the number of batches a host manages to serve).
pub struct Batch {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests completed or degraded.
    pub served: usize,
    /// Host wall-clock of the `serve` call, s.
    pub wall_s: f64,
    /// Virtual queue + compile + device latency of each served request, µs.
    pub latency_us: Vec<f64>,
    /// Real compile-phase time of each served request, µs.
    pub compile_us: Vec<f64>,
    /// Simulated device time each served request cost: its own, or its
    /// share of the co-launch wave it ran in, µs.
    pub device_us: Vec<f64>,
    /// Mean virtual queueing of served requests, µs.
    pub queue_us_mean: f64,
    /// Mean co-launch wave size of served requests.
    pub mean_batch: f64,
    /// Mean worker utilization over the batch's makespan.
    pub worker_util: f64,
    /// Measured offered load: the busier of the worker pool and the device
    /// pool, as demand over capacity across the arrival window.
    pub offered_rho: f64,
}

impl Batch {
    fn summarize(requests: &[Request], report: &ServingReport, wall_s: f64) -> Self {
        let served: Vec<&RequestRecord> = report
            .records
            .iter()
            .filter(|r| {
                matches!(
                    r.disposition,
                    Disposition::Completed | Disposition::Degraded
                )
            })
            .collect();
        let first = requests.first().map_or(0.0, |r| r.arrival_ns);
        let last = requests.last().map_or(0.0, |r| r.arrival_ns);
        let window = (last - first).max(1.0);
        // A wave's device time is shared by its members.
        let share = |r: &RequestRecord| r.device_ns / r.batch_size.max(1) as f64;
        let device: f64 = report
            .records
            .iter()
            .filter(|r| r.executed())
            .map(share)
            .sum();
        let worker: f64 = report.workers.iter().map(|s| s.busy_ns).sum();
        let n = served.len().max(1) as f64;
        Batch {
            attempted: requests.len(),
            served: served.len(),
            wall_s,
            latency_us: served.iter().map(|r| r.timeline_total_ns() / 1e3).collect(),
            compile_us: served.iter().map(|r| r.compile.real_ns() / 1e3).collect(),
            device_us: served.iter().map(|r| share(r) / 1e3).collect(),
            queue_us_mean: served.iter().map(|r| r.queue_ns / 1e3).sum::<f64>() / n,
            mean_batch: served.iter().map(|r| r.batch_size as f64).sum::<f64>() / n,
            worker_util: report.workers.iter().map(|s| s.utilization).sum::<f64>()
                / report.workers.len().max(1) as f64,
            offered_rho: (device / (DEVICES as f64 * window))
                .max(worker / (WORKERS as f64 * window)),
        }
    }

    /// Requests per host-second of the `serve` call.
    pub fn rps(&self) -> f64 {
        self.attempted as f64 / self.wall_s
    }
}

/// Attempted and served requests across batches.
pub fn totals(batches: &[Batch]) -> (usize, usize) {
    (
        batches.iter().map(|b| b.attempted).sum(),
        batches.iter().map(|b| b.served).sum(),
    )
}

/// All samples of one per-request quantity across batches.
pub fn pooled(batches: &[Batch], samples: impl Fn(&Batch) -> &[f64]) -> Vec<f64> {
    batches
        .iter()
        .flat_map(|b| samples(b).iter().copied())
        .collect()
}

/// One run of a workload: its engine, serving runtime, and checks.
pub struct Bench {
    pub w: Workload,
    pub seed: u64,
    pub first: Setup,
    runtime: ServingRuntime,
    pub ledger: Ledger,
    pub findings: Findings,
}

impl Bench {
    pub fn new(w: Workload, seed: u64) -> Self {
        let first = setup(&w, seed);
        let cluster = Cluster::new(w.machine(), DEVICES, Interconnect::nvlink3());
        let mut options = ServingOptions::default();
        if w.traffic == Traffic::Burst {
            options.batching = Some(BatchingOptions::default());
            options.tenancy = Some(TenantPolicy::new(vec![
                TenantQuota::new(1, 256),
                TenantQuota::new(2, 256).with_weight(2.0),
            ]));
        }
        let runtime =
            ServingRuntime::new(Arc::clone(&first.engine), cluster, WORKERS).with_options(options);
        Self {
            w,
            seed,
            first,
            runtime,
            ledger: Ledger::default(),
            findings: Findings::default(),
        }
    }

    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.first.engine)
    }

    /// Serves one batch and checks its records and programs.
    pub fn serve(&mut self, requests: &[Request]) -> Batch {
        let start = Instant::now();
        let report = self.runtime.serve(requests);
        let wall_s = start.elapsed().as_secs_f64();
        check_records(requests, &report, &mut self.findings);
        self.ledger
            .absorb(&self.first.engine, requests, &mut self.findings);
        Batch::summarize(requests, &report, wall_s)
    }

    /// Serves batches `0..` of the stream at the fixed rate until
    /// `seconds` have passed (at least four batches). `each` sees every
    /// batch's index and requests after its `serve` call.
    pub fn timed_loop(
        &mut self,
        seconds: f64,
        mut each: impl FnMut(usize, &[Request], &Batch),
    ) -> Vec<Batch> {
        let start = Instant::now();
        let mut batches = Vec::new();
        while batches.len() < 4 || start.elapsed().as_secs_f64() < seconds {
            let index = batches.len();
            let requests = self.w.batch(self.seed, index, 1.0);
            let batch = self.serve(&requests);
            each(index, &requests, &batch);
            batches.push(batch);
        }
        batches
    }

    /// The highest ladder rate at which the virtual p99 stays within the
    /// workload's limit with nothing shed or failed, found by bisection.
    /// Warm workloads replay one fixed stream scaled to each rung; cold
    /// ones take fresh shapes for every rung. Returns (rate, rung,
    /// samples per rung).
    pub fn slo_rps(&mut self) -> (f64, usize, usize) {
        let ladder_seed = mix(self.seed, 0x5107);
        let per_rung = self.w.ladder_requests.div_ceil(self.w.batch);
        let mut next = 0usize;
        let mut samples = 0usize;
        let mut passes = |rung: usize| {
            let scale = LADDER_BASE * LADDER_STEP.powi(rung as i32);
            let batches: Vec<Batch> = (0..per_rung)
                .map(|i| {
                    let index = if self.w.is_cold() {
                        next += 1;
                        next
                    } else {
                        i
                    };
                    let requests = self.w.batch(ladder_seed, index, scale);
                    self.serve(&requests)
                })
                .collect();
            let (attempted, served) = totals(&batches);
            let latency = pooled(&batches, |b| &b.latency_us);
            samples = latency.len();
            served == attempted && percentile(&latency, 99.0) <= self.w.slo_p99_us
        };
        // Bisection assumes the lowest rung passes and the highest fails,
        // and checks either only if the search ends next to it.
        let (mut lo, mut hi) = (0, LADDER_RUNGS - 1);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if passes(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let rung = if hi == LADDER_RUNGS - 1 && passes(hi) {
            hi
        } else if lo == 0 && !passes(0) {
            eprintln!(
                "perfbench: {} misses its p99 limit at the lowest rung",
                self.w.name
            );
            0
        } else {
            lo
        };
        let rate = 1e9 / self.w.mean_gap_ns * LADDER_BASE * LADDER_STEP.powi(rung as i32);
        (rate, rung, samples)
    }

    /// Repeats the set-up until there are `SETUP_REPEATS` samples and
    /// returns the median total and tuning times, s.
    pub fn setup_medians(&self) -> (f64, f64) {
        let (mut totals, mut tunes) = (vec![self.first.total_s], vec![self.first.tune_s]);
        for _ in 1..SETUP_REPEATS {
            let again = setup(&self.w, self.seed);
            totals.push(again.total_s);
            tunes.push(again.tune_s);
        }
        (median(&totals), median(&tunes))
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
