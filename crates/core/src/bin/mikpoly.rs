//! `mikpoly` — command-line front end for the compiler.
//!
//! ```text
//! mikpoly gemm M N K [--machine a100|h100|910a|a100-cc] [--oracle] [--split-k]
//! mikpoly conv N C H W OC KH KW STRIDE PAD [--machine ...] [--winograd]
//! mikpoly library [--machine ...]            # show the tuned kernel library
//! mikpoly serve [--workers N] [--devices N] [--requests N]
//!               [--utilization F] [--seed N] [--deadline-us N] [--machine ...]
//!               [--tenants N] [--batch-window-us N] [--max-batch N]
//!               [--trace-out trace.json] [--metrics-out metrics.txt]
//!               [--blackbox-out blackbox.json]
//!               [--snapshot-dir DIR] [--snapshot-interval-ms N]
//!               [--drain-after-us N]
//! mikpoly stats [serve flags] [--json]       # telemetered serve + metrics table
//! mikpoly health [--requests N] [--workers N] [--seed N] [--fault-rate F]
//!               [--deadline-us N] [--compile-budget-us N] [--json] [--machine ...]
//! mikpoly trace-stats trace.json             # validate/summarize a trace file
//! mikpoly chaos [--requests N] [--workers N] [--seed N] [--fault-rate F]
//!               [--stall-ns N] [--queue-capacity N] [--deadline-us N]
//!               [--compile-budget-us N] [--machine ...]
//! mikpoly cache-bench [--threads N] [--ops N] [--keys N]
//!               [--restart-entries N] [--restart-budget-ms N] [--machine ...]
//! ```
//!
//! Runs the offline stage (cached in-process), polymerizes the requested
//! operator, prints the chosen program as restructured online loops, and
//! times it on the simulated machine. `serve` instead drives the
//! concurrent serving runtime: a Poisson stream of transformer-layer GEMM
//! requests with random sequence lengths, served by a worker pool over a
//! simulated device pool, reporting tail latency, its decomposition, and
//! program-cache behaviour. With `--trace-out` / `--metrics-out` the run
//! is telemetered and exports a Chrome trace-event file (loadable in
//! Perfetto) and a Prometheus-style metrics snapshot; with
//! `--blackbox-out` the stream is additionally evaluated against the
//! default SLO policy and, on violation, a black-box dump (SLO report +
//! every retained flight-recorder chain) is written for offline triage.
//! With `--snapshot-dir` the serve restores whatever warm-state
//! generation the directory holds before taking traffic (salvaging torn
//! bundles, quarantining damage), snapshots the caches live in the
//! background every `--snapshot-interval-ms`, and ends with a graceful
//! drain that persists a final generation and prints the drain report;
//! `--drain-after-us` pins a deterministic virtual drain point, shedding
//! later arrivals as `draining`.
//! `stats` runs the same stream and prints the metrics registry as an
//! aligned table (`--json` for the machine-readable snapshot); `health`
//! runs a fixed-seed stream, evaluates windowed SLIs and multi-window
//! burn rates, prints the health snapshot, and self-validates that the
//! snapshot's disposition counts equal the serving report's.
//! `trace-stats` parses a previously exported trace and reports event
//! counts (the CI smoke test uses it to prove the JSON is well-formed).
//! `chaos` replays a request stream under a deterministic fault plan
//! (device faults, search stalls, compile panics, cache corruption) plus
//! admission control, prints the disposition table, and exits non-zero if
//! any request lacks exactly one terminal disposition — the CI chaos
//! smoke.

use std::sync::Arc;

use accel_sim::{Cluster, FaultPlan, Interconnect, MachineModel};
use mikpoly::serving::poisson_arrivals;
use mikpoly::telemetry::{render_blackbox, SloPolicy, Telemetry};
use mikpoly::{
    encode_bundle, BatchingOptions, BreakerPolicy, CompiledProgram, Disposition, Engine, MikPoly,
    OfflineOptions, OnlineOptions, PatternId, Region, Request, ServingOptions, ServingReport,
    ServingRuntime, ShardedCache, Snapshotter, TemplateKind, TenantPolicy, TenantQuota,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tensor_ir::{Conv2dShape, GemmShape, Operator};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage("");
    }
    let machine = match flag_value(&args, "--machine").unwrap_or("a100") {
        "a100" => MachineModel::a100(),
        "h100" => MachineModel::h100(),
        "910a" | "ascend" | "npu" => MachineModel::ascend910a(),
        "a100-cc" | "cuda-cores" => MachineModel::a100_cuda_cores(),
        other => usage(&format!("unknown machine '{other}'")),
    };

    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let dim = |i: usize| -> usize {
        positional
            .get(i)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage("expected a positive integer dimension"))
    };

    match positional.first().map(|s| s.as_str()) {
        Some("gemm") if positional.len() == 4 => {
            let op = Operator::gemm(GemmShape::new(dim(1), dim(2), dim(3)));
            run(machine, TemplateKind::Gemm, op, &args);
        }
        Some("conv") if positional.len() == 10 => {
            let shape = Conv2dShape::new(
                dim(1),
                dim(2),
                dim(3),
                dim(4),
                dim(5),
                dim(6),
                dim(7),
                dim(8),
                dim(9),
            );
            let (op, template) = if has_flag(&args, "--winograd") {
                (Operator::conv2d_winograd(shape), TemplateKind::Gemm)
            } else {
                (Operator::conv2d(shape), TemplateKind::Conv)
            };
            run(machine, template, op, &args);
        }
        Some("serve") => {
            serve(machine, &args, ServeMode::Report);
        }
        Some("stats") => {
            serve(machine, &args, ServeMode::Stats);
        }
        Some("health") => {
            health(machine, &args);
        }
        Some("chaos") => {
            chaos(machine, &args);
        }
        Some("cache-bench") => {
            cache_bench(machine, &args);
        }
        Some("trace-stats") => {
            let path = positional
                .get(1)
                .map(|s| s.as_str())
                .unwrap_or_else(|| usage("trace-stats needs a trace file path"));
            trace_stats(path);
        }
        Some("library") => {
            let compiler = build(machine, TemplateKind::Gemm, &args);
            println!(
                "micro-kernel library for {} ({} kernels):",
                compiler.machine(),
                compiler.library().kernels.len()
            );
            for t in &compiler.library().kernels {
                println!(
                    "  {:<28} score {:.3}  steady {:.2} TFLOPS  g(64) = {:.2} us",
                    t.kernel.to_string(),
                    t.score,
                    t.steady_tflops,
                    t.perf.predict(64) / 1e3
                );
            }
        }
        _ => usage("unrecognized command"),
    }
}

fn build(machine: MachineModel, template: TemplateKind, args: &[String]) -> MikPoly {
    eprintln!("offline: tuning micro-kernels for {} ...", machine.name);
    let t0 = std::time::Instant::now();
    let compiler = MikPoly::offline(machine, &OfflineOptions::paper().with_template(template))
        .with_options(OnlineOptions {
            split_k: has_flag(args, "--split-k"),
            ..OnlineOptions::default()
        });
    eprintln!(
        "offline: {} kernels in {:.1?}\n",
        compiler.library().kernels.len(),
        t0.elapsed()
    );
    compiler
}

fn run(machine: MachineModel, template: TemplateKind, op: Operator, args: &[String]) {
    let compiler = build(machine, template, args);
    if has_flag(args, "--oracle") {
        let oracle = compiler.compile_oracle(&op);
        let report = compiler.simulate(&oracle.program);
        println!(
            "oracle ({} candidates simulated in {:.1?}):\n{}",
            oracle.candidates, oracle.search, oracle.program
        );
        println!(
            "device time: {:.1} us ({:.1} TFLOPS)",
            report.time_us(),
            report.tflops()
        );
        return;
    }
    let result = compiler.run(&op);
    println!("{}", result.program);
    println!(
        "polymerized in {:.1} us ({} strategies evaluated, {} pruned)",
        result.compile_ns as f64 / 1e3,
        result.program.stats.strategies_evaluated,
        result.program.stats.strategies_pruned
    );
    println!(
        "device time: {:.1} us ({:.1} TFLOPS, sm_efficiency {:.1}%, grid {})",
        result.report.time_us(),
        result.report.tflops(),
        result.report.sm_efficiency * 100.0,
        result.report.grid_size
    );
}

/// What `serve` prints at the end of the stream.
#[derive(Clone, Copy, PartialEq)]
enum ServeMode {
    /// The human latency/cache report (`mikpoly serve`).
    Report,
    /// The metrics registry as an aligned table (`mikpoly stats`).
    Stats,
}

/// Drives the serving runtime on a synthetic transformer-layer stream.
fn serve(machine: MachineModel, args: &[String], mode: ServeMode) {
    let workers: usize = parsed_flag(args, "--workers").unwrap_or(4);
    let devices: usize = parsed_flag(args, "--devices").unwrap_or(workers);
    let n_requests: usize = parsed_flag(args, "--requests").unwrap_or(96);
    let utilization: f64 = parsed_flag(args, "--utilization").unwrap_or(0.8);
    let seed: u64 = parsed_flag(args, "--seed").unwrap_or(42);
    if workers == 0 || devices == 0 || n_requests == 0 || utilization <= 0.0 {
        usage("serve needs positive --workers/--devices/--requests/--utilization");
    }
    let deadline_us: Option<f64> = parsed_flag(args, "--deadline-us");
    let tenants: u32 = parsed_flag(args, "--tenants").unwrap_or(1);
    let batch_window_us: Option<f64> = parsed_flag(args, "--batch-window-us");
    let max_batch: usize = parsed_flag(args, "--max-batch").unwrap_or(8);
    if tenants == 0 || max_batch == 0 || batch_window_us.is_some_and(|w| w < 0.0) {
        usage("serve needs positive --tenants/--max-batch and a non-negative --batch-window-us");
    }
    let trace_out = flag_value(args, "--trace-out");
    let metrics_out = flag_value(args, "--metrics-out");
    let blackbox_out = flag_value(args, "--blackbox-out");
    let snapshot_dir = flag_value(args, "--snapshot-dir");
    let snapshot_interval_ms: u64 = parsed_flag(args, "--snapshot-interval-ms").unwrap_or(200);
    let drain_after_us: Option<f64> = parsed_flag(args, "--drain-after-us");
    if snapshot_interval_ms == 0 || drain_after_us.is_some_and(|us| us < 0.0) {
        usage("serve needs a positive --snapshot-interval-ms and non-negative --drain-after-us");
    }
    let telemetry = if trace_out.is_some()
        || metrics_out.is_some()
        || blackbox_out.is_some()
        || mode == ServeMode::Stats
    {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    // A reduced library keeps the offline stage interactive; the online
    // path (the thing `serve` exercises) is identical.
    eprintln!("offline: tuning micro-kernels for {} ...", machine.name);
    let t0 = std::time::Instant::now();
    let engine = Arc::new(Engine::offline_with_telemetry(
        machine.clone(),
        &OfflineOptions::fast(),
        Arc::clone(&telemetry),
    ));
    eprintln!("offline: done in {:.1?}\n", t0.elapsed());

    // Warm restart: restore whatever generation the snapshot directory
    // holds (salvaging torn bundles, quarantining damage) before taking
    // traffic. An absent directory is a normal cold start.
    if let Some(dir) = snapshot_dir {
        let restore = engine.restore_program_caches(dir);
        eprintln!("{restore}");
    }

    // One request = the four GEMMs of a transformer encoder layer at a
    // random sequence length (quantized to 16, the serving bucket size).
    let layer = |len: usize| -> Vec<(Operator, usize)> {
        [(2304, 768), (768, 768), (3072, 768), (768, 3072)]
            .into_iter()
            .map(|(n, k)| (Operator::gemm(GemmShape::new(len, n, k)), 1))
            .collect()
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let lengths: Vec<usize> = (0..n_requests)
        .map(|_| 16 * rng.gen_range(2usize..=32))
        .collect();

    // Calibrate the arrival rate against the mean device time of a median
    // request so --utilization is load relative to pool capacity.
    let probe = engine
        .run_graph(layer(256).iter().map(|(op, c)| (op, *c)))
        .device_ns;
    let mean_gap_ns = probe / (utilization * workers.min(devices) as f64);
    let requests: Vec<Request> = poisson_arrivals(n_requests, mean_gap_ns, seed)
        .into_iter()
        .zip(&lengths)
        .enumerate()
        .map(|(id, (arrival_ns, &len))| Request {
            id,
            arrival_ns,
            ops: layer(len),
            deadline_ns: deadline_us.map(|us| arrival_ns + us * 1e3),
            tenant: id as u32 % tenants,
        })
        .collect();

    // Batching and tenancy are strictly opt-in: without the flags the
    // options below are the defaults and the solo policy runs.
    let options = ServingOptions {
        batching: batch_window_us.map(|us| BatchingOptions::new(us * 1e3, max_batch)),
        tenancy: (tenants > 1).then(|| {
            TenantPolicy::new(
                (0..tenants)
                    .map(|t| TenantQuota {
                        tenant: t,
                        weight: 1.0,
                        max_waiting: None,
                    })
                    .collect(),
            )
        }),
        ..ServingOptions::default()
    };
    let cluster = Cluster::new(machine, devices, Interconnect::nvlink3());
    let runtime = ServingRuntime::new(Arc::clone(&engine), cluster, workers).with_options(options);
    // A virtual drain point closes admission deterministically: requests
    // arriving at or after the point are shed as draining.
    if let Some(us) = drain_after_us {
        runtime.lifecycle().request_drain_at(us * 1e3);
    }
    // Live snapshotting runs beside the serve, persisting the warm caches
    // under shard read locks that serving lookups share.
    let snapshotter = snapshot_dir.map(|dir| {
        Snapshotter::start(
            Arc::clone(&engine),
            std::path::PathBuf::from(dir),
            std::time::Duration::from_millis(snapshot_interval_ms),
        )
    });
    let t1 = std::time::Instant::now();
    let report = runtime.serve(&requests);
    let wall = t1.elapsed();

    // Stop the snapshotter (it takes one final snapshot) before the drain
    // accounting, so saves stay single-writer.
    let snapshot_stats = snapshotter.map(Snapshotter::stop);
    let drain_report = (snapshot_dir.is_some() || drain_after_us.is_some())
        .then(|| runtime.drain(&report, snapshot_dir.map(std::path::Path::new)));

    match mode {
        ServeMode::Report => {
            let unique: std::collections::HashSet<usize> = lengths.iter().copied().collect();
            let s = report.latency_summary();
            println!(
                "served {n_requests} requests ({} unique lengths) with {workers} workers / {devices} devices at {:.0}% target load",
                unique.len(),
                utilization * 100.0
            );
            println!(
                "throughput: {:.0} req/s over a {:.2} ms stream (host wall clock {:.1?})\n",
                report.throughput_rps(),
                report.makespan_ns / 1e6,
                wall
            );
            println!(
                "latency      P50 {:>9.1} us   P95 {:>9.1} us   P99 {:>9.1} us   mean {:>9.1} us  (virtual)",
                s.total.p50_ns / 1e3,
                s.total.p95_ns / 1e3,
                s.total.p99_ns / 1e3,
                s.total.mean_ns / 1e3
            );
            println!(
                "decomposed   queue {:>7.1} us   compile {:>5.1} us ({}-clock)   device {:>6.1} us  (means)\n",
                s.queue.mean_ns / 1e3,
                s.compile.mean_ns / 1e3,
                s.compile.clock,
                s.device.mean_ns / 1e3
            );
            for w in &report.workers {
                println!(
                    "worker {}: {:>4} requests, {:>5.1}% utilized",
                    w.worker,
                    w.requests,
                    w.utilization * 100.0
                );
            }
            let c = report.cache;
            println!(
                "\nprogram cache: {} polymerizations for {} unique shapes; {} hits, {} coalesced waits ({:.1}% hit rate)",
                c.computations,
                c.entries,
                c.hits,
                c.coalesced_waits,
                c.hit_rate() * 100.0
            );
            if batch_window_us.is_some() {
                println!(
                    "batching: {:.2} mean wave size over executed requests",
                    report.mean_batch_size()
                );
            }
            if tenants > 1 {
                for t in report.tenant_stats() {
                    println!(
                        "tenant {}: {:>4} requests, {:>4} served, {:>3} shed, {:.0} req/s goodput",
                        t.tenant,
                        t.requests,
                        t.dispositions.served(),
                        t.dispositions.shed,
                        t.goodput_rps
                    );
                }
            }
        }
        ServeMode::Stats => {
            if has_flag(args, "--json") {
                println!("{}", telemetry.registry().render_json());
            } else {
                println!("{}", telemetry.registry().render_pretty());
            }
        }
    }

    if let Some(stats) = snapshot_stats {
        println!(
            "snapshot: {} live snapshot(s), {} error(s), last committed generation {}",
            stats.snapshots,
            stats.errors,
            stats
                .last_generation
                .map_or_else(|| "none".to_string(), |g| g.to_string())
        );
    }
    if let Some(drain) = &drain_report {
        println!("{drain}");
        if drain.dispositions.total() != n_requests {
            eprintln!(
                "drain: disposition invariant violated: {} dispositions for {n_requests} requests",
                drain.dispositions.total()
            );
            std::process::exit(1);
        }
    }

    if let Some(path) = metrics_out {
        let text = telemetry.registry().render_prometheus();
        std::fs::write(path, &text)
            .unwrap_or_else(|e| usage(&format!("cannot write metrics to '{path}': {e}")));
        eprintln!("metrics: wrote {} bytes to {path}", text.len());
    }
    if let Some(path) = blackbox_out {
        let slo = report.evaluate_slo(SloPolicy::default());
        if slo.violated {
            let chains = telemetry.recorder().snapshot();
            let json = render_blackbox(
                &slo,
                &chains,
                telemetry.recorder(),
                telemetry.dropped_spans(),
            );
            if let Err(e) = serde_json::from_str::<serde_json::Value>(&json) {
                eprintln!("blackbox: rendered dump is not valid JSON: {e}");
                std::process::exit(1);
            }
            std::fs::write(path, &json)
                .unwrap_or_else(|e| usage(&format!("cannot write blackbox to '{path}': {e}")));
            eprintln!(
                "blackbox: SLO violated; wrote {} bytes ({} retained chains) to {path}",
                json.len(),
                chains.len()
            );
        } else {
            eprintln!("blackbox: SLO healthy; no dump written to {path}");
        }
    }
    if let Some(path) = trace_out {
        let dropped = telemetry.dropped_spans();
        let json = telemetry.render_chrome_trace();
        std::fs::write(path, &json)
            .unwrap_or_else(|e| usage(&format!("cannot write trace to '{path}': {e}")));
        eprintln!(
            "trace: wrote {} bytes to {path} ({} spans dropped under buffer pressure); open in https://ui.perfetto.dev",
            json.len(),
            dropped
        );
    }
}

/// Replays a GEMM stream under a deterministic fault plan and admission
/// control, prints the disposition table, and exits non-zero when the
/// exhaustive-disposition invariant is violated. CI runs this with fixed
/// seeds as the chaos smoke.
fn chaos(machine: MachineModel, args: &[String]) {
    let n_requests: usize = parsed_flag(args, "--requests").unwrap_or(48);
    let workers: usize = parsed_flag(args, "--workers").unwrap_or(4);
    let seed: u64 = parsed_flag(args, "--seed").unwrap_or(7);
    let fault_rate: f64 = parsed_flag(args, "--fault-rate").unwrap_or(0.05);
    let stall_ns: u64 = parsed_flag(args, "--stall-ns").unwrap_or(200_000);
    let queue_capacity: Option<usize> = parsed_flag(args, "--queue-capacity");
    let deadline_us: Option<f64> = parsed_flag(args, "--deadline-us");
    let compile_budget_us: u64 = parsed_flag(args, "--compile-budget-us").unwrap_or(20_000);
    if n_requests == 0 || workers == 0 || !(0.0..=1.0).contains(&fault_rate) {
        usage("chaos needs positive --requests/--workers and --fault-rate in [0, 1]");
    }

    eprintln!("offline: tuning micro-kernels for {} ...", machine.name);
    let engine = Arc::new(Engine::offline(machine.clone(), &smoke_offline()));
    eprintln!("offline: done\n");

    // One injected-fault rate drives every fault dimension; the stall
    // dimension only participates when a stall duration is configured.
    let plan = FaultPlan {
        seed,
        device_fault_rate: fault_rate,
        search_stall_rate: if stall_ns > 0 { fault_rate * 4.0 } else { 0.0 }.min(1.0),
        search_stall_ns: stall_ns,
        cache_corrupt_rate: fault_rate * 2.0,
        compile_panic_rate: fault_rate * 2.0,
        panic_attempts: 2,
    };
    let options = ServingOptions {
        queue_capacity,
        compile_budget: Some(std::time::Duration::from_micros(compile_budget_us)),
        breaker: Some(BreakerPolicy::default()),
        fault_plan: Some(Arc::new(plan)),
        ..ServingOptions::default()
    };
    let requests = gemm_stream(n_requests, seed, deadline_us);

    let cluster = Cluster::new(machine, workers, Interconnect::nvlink3());
    let runtime = ServingRuntime::new(engine, cluster, workers).with_options(options);
    let report = serve_quietly(&runtime, &requests);

    // The invariant under chaos: every request terminates with exactly
    // one disposition, shed reasons appear iff the request was shed, and
    // shed requests consume no virtual resources.
    let counts = report.dispositions();
    let mut violations = 0usize;
    if report.records.len() != n_requests || counts.total() != n_requests {
        eprintln!(
            "invariant violated: {} records / {} dispositions for {n_requests} requests",
            report.records.len(),
            counts.total()
        );
        violations += 1;
    }
    for r in &report.records {
        if r.shed_reason.is_some() != (r.disposition == Disposition::Shed) {
            eprintln!(
                "invariant violated: request {} shed reason mismatch: {r:?}",
                r.id
            );
            violations += 1;
        }
        if r.disposition == Disposition::Shed && r.executed() {
            eprintln!(
                "invariant violated: shed request {} booked a device: {r:?}",
                r.id
            );
            violations += 1;
        }
    }

    let retried: u32 = report.records.iter().map(|r| r.retries).sum();
    println!("chaos: {n_requests} requests, {workers} workers, fault seed {seed}");
    println!("  completed  {:>6}", counts.completed);
    println!("  degraded   {:>6}", counts.degraded);
    println!("  shed       {:>6}", counts.shed);
    println!("  failed     {:>6}", counts.failed);
    println!(
        "  retries       {retried:>3}   breaker opens {:>3}",
        report.breaker_opens
    );
    println!(
        "  goodput {:.0} req/s of {:.0} req/s offered",
        report.goodput_rps(),
        report.throughput_rps()
    );
    if violations > 0 {
        eprintln!("chaos: {violations} invariant violation(s)");
        std::process::exit(1);
    }
    println!("chaos: disposition invariant holds");
}

/// Replays a fixed-seed GEMM stream through the serving runtime (with
/// admission control and, optionally, injected faults and deadlines),
/// evaluates it against the SLO policy, and prints the health snapshot —
/// a table by default, the snapshot JSON with `--json`. Self-validating:
/// the rendered JSON is parsed back and its disposition counts compared
/// field by field against [`mikpoly::ServingReport::dispositions`]; a
/// malformed snapshot or any mismatch exits non-zero, so CI can use this
/// as the observability smoke. An SLO violation alone does not fail the
/// command (an unhealthy service still has healthy telemetry).
fn health(machine: MachineModel, args: &[String]) {
    let n_requests: usize = parsed_flag(args, "--requests").unwrap_or(48);
    let workers: usize = parsed_flag(args, "--workers").unwrap_or(2);
    let seed: u64 = parsed_flag(args, "--seed").unwrap_or(7);
    let fault_rate: f64 = parsed_flag(args, "--fault-rate").unwrap_or(0.0);
    let deadline_us: Option<f64> = parsed_flag(args, "--deadline-us");
    let compile_budget_us: u64 = parsed_flag(args, "--compile-budget-us").unwrap_or(20_000);
    let json = has_flag(args, "--json");
    if n_requests == 0 || workers == 0 || !(0.0..=1.0).contains(&fault_rate) {
        usage("health needs positive --requests/--workers and --fault-rate in [0, 1]");
    }

    eprintln!("offline: tuning micro-kernels for {} ...", machine.name);
    let telemetry = Telemetry::enabled();
    let engine = Arc::new(Engine::offline_with_telemetry(
        machine.clone(),
        &smoke_offline(),
        Arc::clone(&telemetry),
    ));
    eprintln!("offline: done\n");

    let options = ServingOptions {
        queue_capacity: Some(8),
        compile_budget: Some(std::time::Duration::from_micros(compile_budget_us)),
        breaker: Some(BreakerPolicy::default()),
        fault_plan: (fault_rate > 0.0).then(|| {
            Arc::new(FaultPlan {
                seed,
                device_fault_rate: fault_rate,
                compile_panic_rate: fault_rate * 2.0,
                panic_attempts: 2,
                ..FaultPlan::none()
            })
        }),
        ..ServingOptions::default()
    };
    let requests = gemm_stream(n_requests, seed, deadline_us);

    let cluster = Cluster::new(machine, workers, Interconnect::nvlink3());
    let runtime = ServingRuntime::new(engine, cluster, workers).with_options(options);
    let report = serve_quietly(&runtime, &requests);

    let policy = SloPolicy {
        compile_p99_budget_ns: Some(compile_budget_us as f64 * 1e3),
        ..SloPolicy::default()
    };
    let slo = report.evaluate_slo(policy);
    let rendered = slo.render_json();

    // Self-validation: the snapshot must parse, and its disposition
    // counts must equal the serving report's exactly.
    let value: serde_json::Value = match serde_json::from_str(&rendered) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("health: snapshot is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    let counts = report.dispositions();
    let mut mismatches = 0usize;
    for (field, expected) in [
        ("completed", counts.completed),
        ("degraded", counts.degraded),
        ("shed", counts.shed),
        ("failed", counts.failed),
        ("total", counts.total()),
    ] {
        let got = value
            .get("dispositions")
            .and_then(|d| d.get(field))
            .and_then(|v| v.as_u64());
        if got != Some(expected as u64) {
            eprintln!(
                "health: snapshot dispositions.{field} = {got:?}, serving report says {expected}"
            );
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        eprintln!("health: {mismatches} disposition mismatch(es) between snapshot and report");
        std::process::exit(1);
    }

    if json {
        println!("{rendered}");
        return;
    }
    println!("health: {n_requests} requests, {workers} workers, seed {seed}");
    println!(
        "  dispositions  completed {} / degraded {} / shed {} / failed {}",
        counts.completed, counts.degraded, counts.shed, counts.failed
    );
    for (label, sli) in [
        ("overall", &slo.overall),
        ("short", &slo.short),
        ("long", &slo.long),
    ] {
        println!(
            "  {label:<8} goodput {:.3}  deadline-hit {:.3}  degraded {:.3}  ({} requests)",
            sli.goodput_ratio, sli.deadline_hit_rate, sli.degraded_fraction, sli.requests
        );
    }
    for rule in &slo.rules {
        println!(
            "  burn [{}] short {:.2} long {:.2} vs threshold {:.2} -> {}",
            rule.sli,
            rule.short_burn,
            rule.long_burn,
            rule.threshold,
            if rule.breached { "BREACHED" } else { "ok" }
        );
    }
    println!(
        "  compile p99 {:.1} us vs budget {:.1} us -> {}",
        slo.compile_p99_ns as f64 / 1e3,
        slo.compile_budget_ns.unwrap_or(0.0) / 1e3,
        if slo.compile_budget_breached {
            "BREACHED"
        } else {
            "ok"
        }
    );
    println!(
        "health: SLO {} (snapshot self-validated)",
        if slo.violated { "VIOLATED" } else { "holding" }
    );
}

/// The small offline stage the chaos, health and cache-bench smokes tune.
fn smoke_offline() -> OfflineOptions {
    let mut offline = OfflineOptions::fast();
    offline.n_gen = 4;
    offline
}

/// The fixed-seed request stream of the chaos and health smokes: eight
/// GEMM shapes in rotation at 30k req/s Poisson arrivals, each with an
/// optional relative deadline.
fn gemm_stream(n_requests: usize, seed: u64, deadline_us: Option<f64>) -> Vec<Request> {
    let shapes = [
        GemmShape::new(256, 256, 256),
        GemmShape::new(777, 512, 256),
        GemmShape::new(1111, 999, 512),
        GemmShape::new(64, 64, 64),
        GemmShape::new(320, 192, 128),
        GemmShape::new(511, 257, 96),
        GemmShape::new(900, 300, 300),
        GemmShape::new(128, 1024, 64),
    ];
    poisson_arrivals(n_requests, 30_000.0, seed)
        .into_iter()
        .enumerate()
        .map(|(id, arrival_ns)| {
            let r = Request::single(id, arrival_ns, Operator::gemm(shapes[id % shapes.len()]));
            match deadline_us {
                Some(us) => r.with_deadline(arrival_ns + us * 1e3),
                None => r,
            }
        })
        .collect()
}

/// Serves `requests` with the default panic hook silenced: injected
/// compile panics are caught at the worker boundary, and the hook's
/// backtrace spam would bury the report.
fn serve_quietly(runtime: &ServingRuntime, requests: &[Request]) -> ServingReport {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = runtime.serve(requests);
    std::panic::set_hook(prev_hook);
    report
}

/// Parses a Chrome trace-event file and prints per-phase event counts.
/// Exits non-zero when the file is not valid trace JSON, so CI can use it
/// as a structural check on `serve --trace-out` artifacts.
fn trace_stats(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read '{path}': {e}")));
    let value: serde_json::Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| usage(&format!("'{path}' is not valid JSON: {e:?}")));
    let events = value
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| usage(&format!("'{path}' has no traceEvents array")));

    let mut by_name: std::collections::BTreeMap<(String, String), usize> =
        std::collections::BTreeMap::new();
    let mut pids: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for event in events {
        let ph = event
            .get("ph")
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| usage(&format!("'{path}': event without a 'ph' field")));
        let name = event.get("name").and_then(|v| v.as_str()).unwrap_or("?");
        if let Some(pid) = event.get("pid").and_then(|v| v.as_u64()) {
            pids.insert(pid);
        }
        if ph == "M" {
            continue; // metadata (process/thread names)
        }
        *by_name
            .entry((name.to_string(), ph.to_string()))
            .or_default() += 1;
    }
    println!(
        "{path}: {} events across {} processes",
        events.len(),
        pids.len()
    );
    for ((name, ph), count) in &by_name {
        println!("  {ph}  {name:<28} {count:>6}");
    }
}

/// Zipfian sampler over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1/(r+1)^theta`, via binary search on the precomputed
/// CDF — the skewed hot-set-plus-churn-tail shape traffic of production
/// dynamic-shape serving.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }
}

/// Synthesizes `n` distinct single-region compiled programs from a real
/// micro-kernel library — structurally valid warm-restart payload without
/// paying `n` polymerization searches.
fn synthetic_programs(compiler: &MikPoly, n: usize) -> Vec<CompiledProgram> {
    let kernels: Vec<_> = compiler
        .library()
        .kernels
        .iter()
        .map(|t| t.kernel)
        .collect();
    assert!(!kernels.is_empty(), "library has no kernels");
    (0..n)
        .map(|i| {
            let shape = GemmShape::new(8 + i, 64 + (i % 64), 32 + (i % 32));
            let operator = Operator::gemm(shape);
            CompiledProgram {
                operator,
                view: operator.gemm_view(),
                pattern: PatternId(1),
                regions: vec![Region::new(
                    0,
                    shape.m,
                    0,
                    shape.n,
                    kernels[i % kernels.len()],
                )],
                split_k: 1,
                predicted_ns: 1_000.0 + i as f64,
                stats: Default::default(),
            }
        })
        .collect()
}

/// Zipf skew of the cache-bench key distribution.
const CACHE_BENCH_THETA: f64 = 1.05;
/// Seed of the cache-bench key streams.
const CACHE_BENCH_SEED: u64 = 42;
/// Hit-rate floor of the cache-bench stress.
const CACHE_BENCH_MIN_HIT_RATE: f64 = 0.3;

/// Stress-tests the program cache: a bounded `ShardedCache` (capacity a
/// quarter of the key space) under skewed (Zipfian) read-heavy traffic
/// from N threads, then a warm restart from a bundle file. Prints the
/// hit rate and the restart time, and exits non-zero if any cache
/// invariant is violated, the hit rate falls below the floor, the
/// restart loses programs, or it misses its budget — the CI cache smoke.
fn cache_bench(machine: MachineModel, args: &[String]) {
    let threads: usize = parsed_flag(args, "--threads").unwrap_or(4);
    let ops: usize = parsed_flag(args, "--ops").unwrap_or(200_000);
    let keys: usize = parsed_flag(args, "--keys").unwrap_or(4096);
    let restart_entries: usize = parsed_flag(args, "--restart-entries").unwrap_or(10_000);
    let restart_budget_ms: u64 = parsed_flag(args, "--restart-budget-ms").unwrap_or(1_000);
    if threads == 0 || ops == 0 || keys == 0 {
        usage("cache-bench needs positive --threads/--ops/--keys");
    }
    let capacity = (keys / 4).max(1);
    let mut violations = 0usize;
    let mut violation = |msg: String| {
        eprintln!("invariant violated: {msg}");
        violations += 1;
    };

    // Phase 1: Zipfian stress on a bounded cache. Every thread hammers
    // get_or_compute over the same skewed key distribution; the hot set
    // must stay resident (segmented LRU) while the tail churns through
    // the capacity bound.
    let zipf = Zipf::new(keys, CACHE_BENCH_THETA);
    let cache: ShardedCache<u64, u64> = ShardedCache::bounded(capacity);
    let per_thread = ops / threads;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (cache, zipf) = (&cache, &zipf);
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(
                    CACHE_BENCH_SEED ^ (t as u64).wrapping_mul(0x9E37_79B9),
                );
                for _ in 0..per_thread {
                    let k = zipf.sample(&mut rng) as u64;
                    let (v, _) = cache.get_or_compute(&k, || k.wrapping_mul(2));
                    assert_eq!(*v, k.wrapping_mul(2), "cache returned a wrong value");
                }
            });
        }
    });
    let total_ops = per_thread * threads;
    let stats = cache.stats();
    if let Err(e) = cache.check_invariants() {
        violation(format!("{threads}-thread stress: {e}"));
    }
    let lookups = stats.hits + stats.misses + stats.coalesced_waits;
    if lookups != total_ops as u64 {
        violation(format!(
            "hits {} + misses {} + coalesced {} != {total_ops} operations",
            stats.hits, stats.misses, stats.coalesced_waits
        ));
    }
    if stats.computations != stats.misses {
        violation(format!(
            "computations {} != misses {} with an infallible compute",
            stats.computations, stats.misses
        ));
    }
    if stats.evictions > stats.computations + stats.direct_inserts {
        violation(format!(
            "evictions {} exceed fills {} — double-counted eviction",
            stats.evictions,
            stats.computations + stats.direct_inserts
        ));
    }
    if stats.entries as usize > capacity {
        violation(format!(
            "{} entries exceed the capacity bound {capacity}",
            stats.entries
        ));
    }
    if stats.hit_rate() < CACHE_BENCH_MIN_HIT_RATE {
        violation(format!(
            "hit rate {:.3} under the {CACHE_BENCH_MIN_HIT_RATE} floor",
            stats.hit_rate()
        ));
    }
    println!(
        "stress: {total_ops} ops on {threads} threads, {keys} keys (theta {CACHE_BENCH_THETA}), capacity {capacity}, {} shards",
        mikpoly::cache::DEFAULT_SHARDS
    );
    println!(
        "  hit rate {:.3}  hits {}  misses {}  coalesced {}  evictions {}",
        stats.hit_rate(),
        stats.hits,
        stats.misses,
        stats.coalesced_waits,
        stats.evictions
    );

    // Phase 2: warm restart. Synthetic programs built from a real
    // library stand in for a production-sized compiled cache; loading
    // their bundle must restore every program within the budget.
    eprintln!("offline: tuning micro-kernels for {} ...", machine.name);
    let a = MikPoly::offline(machine, &smoke_offline());
    let programs = synthetic_programs(&a, restart_entries);
    let tag = std::process::id();
    let bin_path = std::env::temp_dir().join(format!("mikpoly-cache-bench-{tag}.mpac"));
    if let Err(e) = std::fs::write(&bin_path, encode_bundle(programs.iter())) {
        eprintln!("error: writing {}: {e}", bin_path.display());
        std::process::exit(1);
    }

    let t0 = std::time::Instant::now();
    match a.load_program_cache(&bin_path) {
        Ok(n) if n == restart_entries => {}
        Ok(n) => violation(format!(
            "binary load restored {n}/{restart_entries} programs"
        )),
        Err(e) => violation(format!("binary load failed: {e}")),
    }
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    if warm_ms > restart_budget_ms as f64 {
        violation(format!(
            "restart-to-warm {warm_ms:.1}ms over the {restart_budget_ms}ms budget"
        ));
    }
    println!("restart: {restart_entries} programs to warm in {warm_ms:.1}ms (binary bundle)");
    let _ = std::fs::remove_file(&bin_path);

    if violations > 0 {
        eprintln!("\ncache-bench: {violations} invariant violation(s)");
        std::process::exit(1);
    }
    println!("\ncache-bench: all invariants held");
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    flag_value(args, name).map(|v| {
        v.parse()
            .unwrap_or_else(|_| usage(&format!("bad value '{v}' for {name}")))
    })
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!("usage:");
    eprintln!("  mikpoly gemm M N K [--machine a100|h100|910a|a100-cc] [--oracle] [--split-k]");
    eprintln!("  mikpoly conv N C H W OC KH KW STRIDE PAD [--machine ...] [--winograd]");
    eprintln!("  mikpoly library [--machine ...]");
    eprintln!("  mikpoly serve [--workers N] [--devices N] [--requests N] [--utilization F] [--seed N] [--deadline-us N] [--machine ...]");
    eprintln!("                [--trace-out trace.json] [--metrics-out metrics.txt] [--blackbox-out blackbox.json]");
    eprintln!(
        "                [--snapshot-dir DIR] [--snapshot-interval-ms N] [--drain-after-us N]"
    );
    eprintln!("  mikpoly stats [serve flags] [--json]  # telemetered serve + metrics table/JSON");
    eprintln!("  mikpoly health [--requests N] [--workers N] [--seed N] [--fault-rate F] [--deadline-us N]");
    eprintln!("                [--compile-budget-us N] [--json] [--machine ...]");
    eprintln!("  mikpoly trace-stats trace.json     # validate/summarize a trace file");
    eprintln!(
        "  mikpoly chaos [--requests N] [--workers N] [--seed N] [--fault-rate F] [--stall-ns N]"
    );
    eprintln!("                [--queue-capacity N] [--deadline-us N] [--compile-budget-us N] [--machine ...]");
    eprintln!("  mikpoly cache-bench [--threads N] [--ops N] [--keys N] [--restart-entries N]");
    eprintln!("                [--restart-budget-ms N] [--machine ...]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
