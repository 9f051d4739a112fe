//! `mikpoly` — command-line front end for the compiler and its serving
//! runtime.
//!
//! ```text
//! mikpoly gemm M N K                        # polymerize and time one GEMM
//! mikpoly conv N C H W OC KH KW STRIDE PAD  # ... one convolution
//! mikpoly library                           # show the tuned kernel library
//! mikpoly serve | stats | chaos | health    # one serving run, four presets
//! mikpoly trace-stats trace.json            # validate/summarize a trace file
//! mikpoly cache-bench                       # program-cache stress + restart gate
//! ```
//!
//! [`COMMANDS`] holds every subcommand's usage line: its operands and the
//! flags it reads, with their defaults. `mikpoly` with no arguments prints
//! it. The one parser reads the same table: it overlays the user's flags
//! on the defaults, and rejects a flag the subcommand does not read, a
//! flag without its value and a malformed value. Every rejection prints
//! `error: ...` and the usage, and exits 2.
//!
//! `gemm` and `conv` run the offline stage, polymerize the operator,
//! print the chosen program as restructured online loops, and time it on
//! the simulated machine.
//!
//! `serve`, `stats`, `chaos` and `health` are presets of one serving run:
//! each resolves its flags into a [`ServeSpec`], and [`ServeSpec::run`]
//! builds the engine, the request stream, the cluster and the runtime,
//! serves the stream, and prints the preset's output.
//! - `serve`: a Poisson stream of transformer encoder layers (four GEMMs
//!   at a random sequence length) at `--utilization` of the pool's
//!   capacity. Prints tail latency, its decomposition and program-cache
//!   behaviour. `--trace-out` / `--metrics-out` export a Chrome
//!   trace-event file (loadable in Perfetto) and a Prometheus-style
//!   metrics snapshot. `--blackbox-out` evaluates the default SLO policy
//!   and, on violation, writes a black-box dump: the SLO report, every
//!   retained flight-recorder chain, and under `spec` the command line of
//!   the run with every flag at its value. `--snapshot-dir` restores the
//!   warm-state generation the directory holds before taking traffic
//!   (salvaging torn bundles, quarantining damage), snapshots the caches
//!   live every `--snapshot-interval-ms`, and ends with a graceful drain
//!   that persists a final generation; `--drain-after-us` pins a
//!   deterministic virtual drain point, shedding later arrivals as
//!   `draining`.
//! - `stats`: the same run, telemetered; prints the metrics registry as
//!   an aligned table (`--json` for the machine-readable snapshot).
//! - `chaos`: eight GEMM shapes in rotation under a deterministic fault
//!   plan (device faults, search stalls, compile panics, cache
//!   corruption) and admission control; prints the disposition table.
//! - `health`: the same GEMM stream behind a bounded queue, with optional
//!   faults; evaluates windowed SLIs and multi-window burn rates, prints
//!   the health snapshot, and self-validates that the snapshot's
//!   disposition counts equal the serving report's.
//!
//! After every serving run the disposition invariant is checked: one
//! record and one disposition per request, a shed reason iff the request
//! was shed, and no shed request on a device. A violation exits 1.
//!
//! `trace-stats` parses a previously exported trace and reports event
//! counts (the CI smoke test uses it to prove the JSON is well-formed).

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The flags of `serve`; `stats` reads them and `--json`.
macro_rules! serve_flags {
    () => {
        "[--machine M=a100] [--workers N=4] [--devices N=--workers] [--requests N=96]
                [--utilization F=0.8] [--seed K=42] [--deadline-us US] [--tenants N=1]
                [--batch-window-us US] [--max-batch N=8] [--snapshot-dir DIR]
                [--snapshot-interval-ms N=200] [--drain-after-us US] [--trace-out PATH]
                [--metrics-out PATH] [--blackbox-out PATH]"
    };
}

/// Every subcommand's usage, as the usage text prints it: its name, its
/// operands, and each flag it reads as `[--name]` (a switch),
/// `[--name KIND]` (unset by default) or `[--name KIND=default]`, where a
/// default naming another flag takes that flag's value. The parser reads
/// the flags from here and checks each value against its kind.
const COMMANDS: [&str; 9] = [
    "gemm M N K [--machine M=a100] [--oracle] [--split-k]",
    "conv N C H W OC KH KW STRIDE PAD [--machine M=a100] [--oracle] [--split-k] [--winograd]",
    "library [--machine M=a100] [--split-k]",
    concat!("serve ", serve_flags!()),
    concat!("stats ", serve_flags!(), " [--json]"),
    "chaos [--machine M=a100] [--requests N=48] [--workers N=4] [--seed K=7]
                [--fault-rate P=0.05] [--stall-ns K=200000] [--queue-capacity K]
                [--deadline-us US] [--compile-budget-us K=20000]",
    "health [--machine M=a100] [--requests N=48] [--workers N=2] [--seed K=7]
                [--fault-rate P=0] [--deadline-us US] [--compile-budget-us K=20000] [--json]",
    "trace-stats trace.json",
    "cache-bench [--machine M=a100] [--threads N=4] [--ops N=200000] [--keys N=4096]
                [--restart-entries K=10000] [--restart-budget-ms K=1000]",
];

/// Whether `value` is of the `kind` a flag takes; the usage text explains
/// the kinds.
fn valid(kind: &str, value: &str) -> bool {
    let (int, real) = (value.parse::<u64>(), value.parse::<f64>());
    match kind {
        "N" => int.is_ok_and(|n| n > 0),
        "K" => int.is_ok(),
        "F" => real.is_ok_and(|f| f > 0.0),
        "US" => real.is_ok_and(|f| f >= 0.0),
        "P" => real.is_ok_and(|p| (0.0..=1.0).contains(&p)),
        "M" => machine(value).is_some(),
        _ => !value.starts_with("--"),
    }
}

fn machine(name: &str) -> Option<MachineModel> {
    Some(match name {
        "a100" => MachineModel::a100(),
        "h100" => MachineModel::h100(),
        "910a" | "ascend" | "npu" => MachineModel::ascend910a(),
        "a100-cc" | "cuda-cores" => MachineModel::a100_cuda_cores(),
        _ => return None,
    })
}

/// The flags a usage lists, as (name, kind, default); a switch has no
/// kind, an unset flag no default.
fn flags(usage: &'static str) -> impl Iterator<Item = (&'static str, &'static str, &'static str)> {
    usage.split('[').skip(1).map(|flag| {
        let flag = flag.trim_end().trim_end_matches(']');
        let (name, value) = flag.split_once(' ').unwrap_or((flag, ""));
        let (kind, default) = value.split_once('=').unwrap_or((value, ""));
        (name, kind, default)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage("");
    }
    if let Err(e) = Invocation::parse(&args).and_then(|inv| run(&inv)) {
        usage(&e);
    }
}

/// Runs a parsed command line. An `Err` rejects the command line; it is
/// returned before any work starts.
fn run(inv: &Invocation) -> Result<(), String> {
    match inv.name {
        "gemm" | "conv" => compile(inv)?,
        "library" => library(inv),
        "trace-stats" => trace_stats(&inv.operands[0]),
        "cache-bench" => cache_bench(inv)?,
        "serve" | "stats" | "chaos" | "health" => ServeSpec::resolve(inv)?.run(),
        other => unreachable!("COMMANDS has no subcommand '{other}'"),
    }
    Ok(())
}

/// A parsed command line: the subcommand, its operands, and every flag
/// it reads that is set, by the user or by its default.
struct Invocation {
    name: &'static str,
    usage: &'static str,
    operands: Vec<String>,
    values: HashMap<&'static str, String>,
}

impl Invocation {
    fn parse(args: &[String]) -> Result<Self, String> {
        let command = args.first().map_or("", String::as_str);
        let named = |u: &&str| u.split(' ').next() == Some(command);
        let usage = COMMANDS.into_iter().find(named);
        let usage = usage.ok_or("unrecognized command")?;
        let mut head = usage.split_whitespace().take_while(|w| !w.starts_with('['));
        let (name, wanted) = (head.next().unwrap_or_default(), head.count());
        let (mut operands, mut values) = (Vec::new(), HashMap::new());
        let mut rest = args[1..].iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            let Some((flag, kind, _)) = flags(usage).find(|f| f.0 == arg) else {
                if arg.starts_with("--") {
                    return Err(format!("{name} does not take {arg}"));
                }
                operands.push(arg.to_string());
                continue;
            };
            let value = match kind {
                "" => Some(""),
                _ => rest.next().filter(|v| valid(kind, v)),
            };
            let value = value.ok_or_else(|| format!("{flag} needs a {kind} value"))?;
            values.insert(flag, value.to_string());
        }
        for (flag, _, default) in flags(usage).filter(|f| !f.2.is_empty()) {
            let default = values.get(default).map_or(default, String::as_str);
            let default = default.to_string();
            values.entry(flag).or_insert(default);
        }
        if operands.len() != wanted {
            return Err(format!("{name} takes {wanted} operand(s)"));
        }
        Ok(Self {
            name,
            usage,
            operands,
            values,
        })
    }

    /// The parsed value of `flag`; `None` when it is unset or the
    /// subcommand does not read it.
    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let parse = |v: &String| v.parse().map_err(|_| format!("bad value '{v}' for {flag}"));
        self.values.get(flag).map(parse).transpose()
    }

    /// The parsed value of a flag with a default.
    fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.get(flag)?
            .ok_or(format!("{} has no {flag}", self.name))
    }

    fn switch(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    fn machine(&self) -> MachineModel {
        machine(&self.values["--machine"]).expect("the parser checks the machine")
    }

    /// The command line that parses back to this invocation, with every
    /// set flag at its value, quoted for a POSIX shell.
    fn line(&self) -> String {
        let mut words = vec!["mikpoly".to_string(), self.name.to_string()];
        words.extend(self.operands.iter().map(|o| shell_word(o)));
        for (flag, kind, _) in flags(self.usage) {
            if let Some(value) = self.values.get(flag) {
                words.push(flag.to_string());
                words.extend((!kind.is_empty()).then(|| shell_word(value)));
            }
        }
        words.join(" ")
    }
}

/// `word` as one POSIX shell word, single-quoted where it needs quoting.
fn shell_word(word: &str) -> String {
    let plain = |c: char| c.is_ascii_alphanumeric() || "-_./:=,+".contains(c);
    if !word.is_empty() && word.chars().all(plain) {
        word.to_string()
    } else {
        format!("'{}'", word.replace('\'', r"'\''"))
    }
}

/// The operator `gemm` or `conv` names, with the template it compiles to.
fn operator(inv: &Invocation) -> Result<(TemplateKind, Operator), String> {
    let d: Result<Vec<usize>, _> = inv.operands.iter().map(|d| d.parse()).collect();
    let d = d.map_err(|_| "expected integer dimensions")?;
    // Every extent is positive; only a convolution's padding (its ninth
    // operand) may be 0.
    if d.iter().take(8).any(|&extent| extent == 0) {
        return Err("dimensions must be positive".into());
    }
    if inv.name == "gemm" {
        let shape = GemmShape::new(d[0], d[1], d[2]);
        return Ok((TemplateKind::Gemm, Operator::gemm(shape)));
    }
    let shape = Conv2dShape::try_new(d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7], d[8])?;
    Ok(match inv.switch("--winograd") {
        true => (TemplateKind::Gemm, Operator::conv2d_winograd(shape)),
        false => (TemplateKind::Conv, Operator::conv2d(shape)),
    })
}

fn build(machine: MachineModel, template: TemplateKind, split_k: bool) -> MikPoly {
    eprintln!("offline: tuning micro-kernels for {} ...", machine.name);
    let t0 = Instant::now();
    let options = OnlineOptions {
        split_k,
        ..OnlineOptions::default()
    };
    let offline = OfflineOptions::paper().with_template(template);
    let compiler = MikPoly::offline(machine, &offline).with_options(options);
    let (kernels, elapsed) = (compiler.library().kernels.len(), t0.elapsed());
    eprintln!("offline: {kernels} kernels in {elapsed:.1?}\n");
    compiler
}

fn compile(inv: &Invocation) -> Result<(), String> {
    let (template, op) = operator(inv)?;
    let compiler = build(inv.machine(), template, inv.switch("--split-k"));
    if inv.switch("--oracle") {
        let oracle = compiler.compile_oracle(&op);
        let report = compiler.simulate(&oracle.program);
        let (candidates, search, program) = (oracle.candidates, oracle.search, oracle.program);
        println!("oracle ({candidates} candidates simulated in {search:.1?}):\n{program}");
        let (time, tflops) = (report.time_us(), report.tflops());
        println!("device time: {time:.1} us ({tflops:.1} TFLOPS)");
        return Ok(());
    }
    let result = compiler.run(&op);
    let (program, report) = (&result.program, &result.report);
    let compile_us = result.compile_ns as f64 / 1e3;
    println!("{program}");
    println!(
        "polymerized in {compile_us:.1} us ({} strategies evaluated, {} pruned)",
        program.stats.strategies_evaluated, program.stats.strategies_pruned
    );
    let (time, tflops, grid) = (report.time_us(), report.tflops(), report.grid_size);
    let sm = report.sm_efficiency * 100.0;
    println!("device time: {time:.1} us ({tflops:.1} TFLOPS, sm_efficiency {sm:.1}%, grid {grid})");
    Ok(())
}

fn library(inv: &Invocation) {
    let compiler = build(inv.machine(), TemplateKind::Gemm, inv.switch("--split-k"));
    let kernels = &compiler.library().kernels;
    println!(
        "micro-kernel library for {} ({} kernels):",
        compiler.machine(),
        kernels.len()
    );
    for t in kernels {
        let (kernel, g64) = (t.kernel.to_string(), t.perf.predict(64) / 1e3);
        let (score, tflops) = (t.score, t.steady_tflops);
        println!("  {kernel:<28} score {score:.3}  steady {tflops:.2} TFLOPS  g(64) = {g64:.2} us");
    }
}

/// What a serving run prints at the end of its stream.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Output {
    /// The latency/cache report (`serve`).
    Report,
    /// The metrics registry (`stats`).
    Registry,
    /// The disposition table (`chaos`).
    Chaos,
    /// The self-validated SLO health snapshot (`health`).
    Health,
}

/// The request stream of a serving run; arrivals are Poisson.
#[derive(Debug)]
enum Stream {
    /// One request is the four GEMMs of a transformer encoder layer at a
    /// random sequence length (quantized to 16, the serving bucket size),
    /// at an arrival rate that makes `utilization` the load relative to
    /// the pool's capacity.
    BertLayers { utilization: f64 },
    /// Eight GEMM shapes in rotation at 30k req/s.
    GemmRotation,
}

/// One serving run, fully resolved: everything [`ServeSpec::run`] builds
/// and prints is a function of these fields.
#[derive(Debug)]
struct ServeSpec {
    /// The command line of the run, every flag at its value.
    line: String,
    output: Output,
    json: bool,
    machine: MachineModel,
    offline: OfflineOptions,
    telemetry: bool,
    stream: Stream,
    requests: usize,
    seed: u64,
    deadline_us: Option<f64>,
    tenants: u32,
    workers: usize,
    devices: usize,
    options: ServingOptions,
    /// Warm-state directory, snapshotted live every `snapshot_interval`.
    snapshot_dir: Option<PathBuf>,
    snapshot_interval: Duration,
    drain_after_us: Option<f64>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    blackbox_out: Option<String>,
}

impl ServeSpec {
    /// Resolves a serving preset's flags; a flag the preset does not read
    /// leaves its feature off.
    fn resolve(inv: &Invocation) -> Result<Self, String> {
        let output = match inv.name {
            "serve" => Output::Report,
            "stats" => Output::Registry,
            "chaos" => Output::Chaos,
            _ => Output::Health,
        };
        // chaos and health are the fault-tolerance smokes: a GEMM stream on
        // a small library, behind a circuit breaker.
        let chaos = output == Output::Chaos;
        let smoke = chaos || output == Output::Health;
        let (seed, workers) = (inv.value("--seed")?, inv.value("--workers")?);
        let rate: f64 = inv.get("--fault-rate")?.unwrap_or(0.0);
        let stall_ns = inv.get("--stall-ns")?.unwrap_or(0);
        // One injected-fault rate drives every fault dimension; the stall
        // dimension only participates when a stall duration is configured.
        let plan = Arc::new(FaultPlan {
            seed,
            device_fault_rate: rate,
            search_stall_rate: if stall_ns > 0 {
                (rate * 4.0).min(1.0)
            } else {
                0.0
            },
            search_stall_ns: stall_ns,
            cache_corrupt_rate: if chaos { rate * 2.0 } else { 0.0 },
            compile_panic_rate: rate * 2.0,
            panic_attempts: 2,
        });
        let tenants = inv.get("--tenants")?.unwrap_or(1);
        let quota = |tenant| TenantQuota {
            tenant,
            weight: 1.0,
            max_waiting: None,
        };
        let max_batch = inv.get("--max-batch")?.unwrap_or(1);
        let exports = ["--trace-out", "--metrics-out", "--blackbox-out"];
        let exports = exports.map(|f| inv.values.get(f).cloned());
        // Telemetry is on for the registry and the health snapshot, and
        // wherever there is something to export.
        let telemetry = matches!(output, Output::Registry | Output::Health)
            || exports.iter().any(Option::is_some);
        let [trace_out, metrics_out, blackbox_out] = exports;
        let interval_ms = inv.get("--snapshot-interval-ms")?.unwrap_or(0);
        Ok(Self {
            line: inv.line(),
            output,
            json: inv.switch("--json"),
            machine: inv.machine(),
            offline: match smoke {
                true => smoke_offline(),
                false => OfflineOptions::fast(),
            },
            telemetry,
            stream: match smoke {
                true => Stream::GemmRotation,
                false => Stream::BertLayers {
                    utilization: inv.value("--utilization")?,
                },
            },
            requests: inv.value("--requests")?,
            seed,
            deadline_us: inv.get("--deadline-us")?,
            tenants,
            workers,
            devices: inv.get("--devices")?.unwrap_or(workers),
            options: ServingOptions {
                queue_capacity: match output {
                    Output::Health => Some(8),
                    _ => inv.get("--queue-capacity")?,
                },
                compile_budget: inv.get("--compile-budget-us")?.map(Duration::from_micros),
                breaker: smoke.then(BreakerPolicy::default),
                fault_plan: match output {
                    Output::Chaos => Some(plan),
                    Output::Health => (rate > 0.0).then_some(plan),
                    _ => None,
                },
                batching: inv
                    .get("--batch-window-us")?
                    .map(|us: f64| BatchingOptions::new(us * 1e3, max_batch)),
                tenancy: (tenants > 1)
                    .then(|| TenantPolicy::new((0..tenants).map(quota).collect())),
                ..ServingOptions::default()
            },
            snapshot_dir: inv.get("--snapshot-dir")?,
            snapshot_interval: Duration::from_millis(interval_ms),
            drain_after_us: inv.get("--drain-after-us")?,
            trace_out,
            metrics_out,
            blackbox_out,
        })
    }

    /// The request stream, each request with its relative deadline and
    /// its tenant (round-robin).
    fn stream(&self, engine: &Engine) -> Vec<Request> {
        let (mean_gap_ns, ops): (f64, Vec<_>) = match self.stream {
            Stream::BertLayers { utilization } => {
                let mut rng = SmallRng::seed_from_u64(self.seed);
                let ops = (0..self.requests)
                    .map(|_| bert_layer(16 * rng.gen_range(2usize..=32)))
                    .collect();
                // Calibrate against the device time of a median request.
                let probe = engine.run_graph(bert_layer(256).iter().map(|(op, c)| (op, *c)));
                let capacity = utilization * self.workers.min(self.devices) as f64;
                (probe.device_ns / capacity, ops)
            }
            Stream::GemmRotation => {
                let gemm = |(m, n, k)| vec![(Operator::gemm(GemmShape::new(m, n, k)), 1)];
                let ops = GEMM_ROTATION.into_iter().cycle().map(gemm);
                (30_000.0, ops.take(self.requests).collect())
            }
        };
        poisson_arrivals(self.requests, mean_gap_ns, self.seed)
            .into_iter()
            .zip(ops)
            .enumerate()
            .map(|(id, (arrival_ns, ops))| Request {
                id,
                arrival_ns,
                ops,
                deadline_ns: self.deadline_us.map(|us| arrival_ns + us * 1e3),
                tenant: id as u32 % self.tenants,
            })
            .collect()
    }

    /// Builds the engine, the stream, the cluster and the runtime, serves
    /// the stream, prints the output and writes the exports. Exits 1 when
    /// the disposition invariant is violated.
    fn run(&self) {
        let telemetry = match self.telemetry {
            true => Telemetry::enabled(),
            false => Telemetry::disabled(),
        };
        let (machine, t0) = (&self.machine, Instant::now());
        eprintln!("offline: tuning micro-kernels for {} ...", machine.name);
        let engine =
            Engine::offline_with_telemetry(machine.clone(), &self.offline, telemetry.clone());
        let engine = Arc::new(engine);
        eprintln!("offline: done in {:.1?}\n", t0.elapsed());

        // Warm restart: restore whatever generation the snapshot directory
        // holds before taking traffic. An absent directory is a cold start.
        let dir = self.snapshot_dir.as_deref();
        if let Some(dir) = dir {
            eprintln!("{}", engine.restore_program_caches(dir));
        }
        let requests = self.stream(&engine);
        let cluster = Cluster::new(machine.clone(), self.devices, Interconnect::nvlink3());
        let runtime = ServingRuntime::new(Arc::clone(&engine), cluster, self.workers)
            .with_options(self.options.clone());
        // A virtual drain point closes admission deterministically: requests
        // arriving at or after the point are shed as draining.
        if let Some(us) = self.drain_after_us {
            runtime.lifecycle().request_drain_at(us * 1e3);
        }
        // Live snapshotting runs beside the serve, persisting the warm
        // caches under shard read locks that serving lookups share.
        let snapshot =
            |dir: &Path| Snapshotter::start(engine.clone(), dir.into(), self.snapshot_interval);
        let snapshotter = dir.map(snapshot);
        let t1 = Instant::now();
        let report = match self.options.fault_plan {
            Some(_) => serve_quietly(&runtime, &requests),
            None => runtime.serve(&requests),
        };
        let wall = t1.elapsed();
        // Stop the snapshotter (it takes one final snapshot) before the
        // drain accounting, so saves stay single-writer.
        let snapshot_stats = snapshotter.map(Snapshotter::stop);
        let drain =
            (dir.is_some() || self.drain_after_us.is_some()).then(|| runtime.drain(&report, dir));
        let violations = disposition_violations(&report, self.requests);

        match self.output {
            Output::Report => self.print_report(&report, &requests, wall),
            Output::Registry if self.json => println!("{}", telemetry.registry().render_json()),
            Output::Registry => println!("{}", telemetry.registry().render_pretty()),
            Output::Chaos => self.print_chaos(&report, violations),
            Output::Health => self.print_health(&report),
        }
        if let Some(stats) = snapshot_stats {
            let (n, errors) = (stats.snapshots, stats.errors);
            let last = stats
                .last_generation
                .map_or("none".into(), |g| g.to_string());
            println!("snapshot: {n} live snapshot(s), {errors} error(s), last committed generation {last}");
        }
        if let Some(drain) = &drain {
            println!("{drain}");
        }
        self.export(&telemetry, &report);
        if violations > 0 {
            eprintln!("{violations} disposition invariant violation(s)");
            std::process::exit(1);
        }
    }

    fn print_report(&self, report: &ServingReport, requests: &[Request], wall: Duration) {
        let Stream::BertLayers { utilization } = self.stream else {
            unreachable!("the report preset serves encoder layers")
        };
        let (workers, devices) = (self.workers, self.devices);
        let lengths: HashSet<Operator> = requests.iter().map(|r| r.ops[0].0).collect();
        let (n, unique, load) = (requests.len(), lengths.len(), utilization * 100.0);
        println!("served {n} requests ({unique} unique lengths) with {workers} workers / {devices} devices at {load:.0}% target load");
        let (rps, stream_ms) = (report.throughput_rps(), report.makespan_ns / 1e6);
        println!(
            "throughput: {rps:.0} req/s over a {stream_ms:.2} ms stream (host wall clock {wall:.1?})\n"
        );
        let (s, us) = (report.latency_summary(), |ns: f64| ns / 1e3);
        let (t, clock) = (&s.total, s.compile.clock);
        let [p50, p95, p99, mean] = [t.p50_ns, t.p95_ns, t.p99_ns, t.mean_ns].map(us);
        println!("latency      P50 {p50:>9.1} us   P95 {p95:>9.1} us   P99 {p99:>9.1} us   mean {mean:>9.1} us  (virtual)");
        let [queue, compile, device] = [&s.queue, &s.compile, &s.device].map(|d| us(d.mean_ns));
        println!("decomposed   queue {queue:>7.1} us   compile {compile:>5.1} us ({clock}-clock)   device {device:>6.1} us  (means)\n");
        for w in &report.workers {
            let (id, n, util) = (w.worker, w.requests, w.utilization * 100.0);
            println!("worker {id}: {n:>4} requests, {util:>5.1}% utilized");
        }
        let (c, rate) = (report.cache, report.cache.hit_rate() * 100.0);
        let (fills, shapes, hits, waits) = (c.computations, c.entries, c.hits, c.coalesced_waits);
        println!("\nprogram cache: {fills} polymerizations for {shapes} unique shapes; {hits} hits, {waits} coalesced waits ({rate:.1}% hit rate)");
        if self.options.batching.is_some() {
            let mean = report.mean_batch_size();
            println!("batching: {mean:.2} mean wave size over executed requests");
        }
        for t in report.tenant_stats().iter().filter(|_| self.tenants > 1) {
            let (served, shed) = (t.dispositions.served(), t.dispositions.shed);
            println!(
                "tenant {}: {:>4} requests, {served:>4} served, {shed:>3} shed, {:.0} req/s goodput",
                t.tenant, t.requests, t.goodput_rps
            );
        }
    }

    fn print_chaos(&self, report: &ServingReport, violations: usize) {
        let (requests, workers, seed) = (self.requests, self.workers, self.seed);
        let (c, opens) = (report.dispositions(), report.breaker_opens);
        let retried: u32 = report.records.iter().map(|r| r.retries).sum();
        let (goodput, offered) = (report.goodput_rps(), report.throughput_rps());
        println!("chaos: {requests} requests, {workers} workers, fault seed {seed}");
        println!("  completed  {:>6}", c.completed);
        println!("  degraded   {:>6}", c.degraded);
        println!("  shed       {:>6}", c.shed);
        println!("  failed     {:>6}", c.failed);
        println!("  retries       {retried:>3}   breaker opens {opens:>3}");
        println!("  goodput {goodput:.0} req/s of {offered:.0} req/s offered");
        if violations == 0 {
            println!("chaos: disposition invariant holds");
        }
    }

    /// The default SLO policy with the compile budget as its compile-p99
    /// budget.
    fn health_policy(&self) -> SloPolicy {
        SloPolicy {
            compile_p99_budget_ns: self.options.compile_budget.map(|b| b.as_nanos() as f64),
            ..SloPolicy::default()
        }
    }

    /// Evaluates the stream against the health policy and prints the
    /// snapshot: a table, or the snapshot JSON with `--json`.
    /// Self-validating: the rendered JSON is parsed back and its
    /// disposition counts compared against the serving report's; a
    /// malformed snapshot or any mismatch exits 1. An SLO violation alone
    /// does not fail the command (an unhealthy service still has healthy
    /// telemetry).
    fn print_health(&self, report: &ServingReport) {
        let slo = report.evaluate_slo(self.health_policy());
        let rendered = slo.render_json();
        let counts = report.dispositions();
        let expected = serde_json::json!({
            "completed": counts.completed,
            "degraded": counts.degraded,
            "shed": counts.shed,
            "failed": counts.failed,
            "total": counts.total(),
        });
        let snapshot = serde_json::from_str::<serde_json::Value>(&rendered);
        let got = snapshot.as_ref().map(|v| v.get("dispositions"));
        if !matches!(got, Ok(Some(d)) if *d == expected) {
            eprintln!("health: snapshot dispositions {got:?}, serving report {expected:?}");
            std::process::exit(1);
        }

        if self.json {
            println!("{rendered}");
            return;
        }
        let (requests, workers, seed) = (self.requests, self.workers, self.seed);
        println!("health: {requests} requests, {workers} workers, seed {seed}");
        println!(
            "  dispositions  completed {} / degraded {} / shed {} / failed {}",
            counts.completed, counts.degraded, counts.shed, counts.failed
        );
        let slis = [
            ("overall", slo.overall),
            ("short", slo.short),
            ("long", slo.long),
        ];
        for (label, sli) in slis {
            println!(
                "  {label:<8} goodput {:.3}  deadline-hit {:.3}  degraded {:.3}  ({} requests)",
                sli.goodput_ratio, sli.deadline_hit_rate, sli.degraded_fraction, sli.requests
            );
        }
        let verdict = |breached| if breached { "BREACHED" } else { "ok" };
        for r in &slo.rules {
            let verdict = verdict(r.breached);
            println!(
                "  burn [{}] short {:.2} long {:.2} vs threshold {:.2} -> {verdict}",
                r.sli, r.short_burn, r.long_burn, r.threshold
            );
        }
        let p99 = slo.compile_p99_ns as f64 / 1e3;
        let budget = slo.compile_budget_ns.unwrap_or(0.0) / 1e3;
        let verdict = verdict(slo.compile_budget_breached);
        println!("  compile p99 {p99:.1} us vs budget {budget:.1} us -> {verdict}");
        let state = if slo.violated { "VIOLATED" } else { "holding" };
        println!("health: SLO {state} (snapshot self-validated)");
    }

    /// Writes the metrics snapshot, the blackbox dump (on an SLO
    /// violation) and the Chrome trace the spec names.
    fn export(&self, telemetry: &Telemetry, report: &ServingReport) {
        let write = |path: &str, what: &str, text: &str| {
            std::fs::write(path, text)
                .unwrap_or_else(|e| usage(&format!("cannot write {what} to '{path}': {e}")));
        };
        if let Some(path) = &self.metrics_out {
            let text = telemetry.registry().render_prometheus();
            write(path, "metrics", &text);
            eprintln!("metrics: wrote {} bytes to {path}", text.len());
        }
        if let Some(path) = &self.blackbox_out {
            let slo = report.evaluate_slo(SloPolicy::default());
            if slo.violated {
                let (recorder, chains) = (telemetry.recorder(), telemetry.recorder().snapshot());
                let dump = render_blackbox(&slo, &chains, recorder, telemetry.dropped_spans());
                let json = with_spec(&dump, &self.line);
                let (bytes, retained) = (json.len(), chains.len());
                if let Err(e) = serde_json::from_str::<serde_json::Value>(&json) {
                    eprintln!("blackbox: rendered dump is not valid JSON: {e}");
                    std::process::exit(1);
                }
                write(path, "blackbox", &json);
                eprintln!("blackbox: SLO violated; wrote {bytes} bytes ({retained} retained chains) to {path}");
            } else {
                eprintln!("blackbox: SLO healthy; no dump written to {path}");
            }
        }
        if let Some(path) = &self.trace_out {
            let dropped = telemetry.dropped_spans();
            let json = telemetry.render_chrome_trace();
            write(path, "trace", &json);
            let bytes = json.len();
            eprintln!("trace: wrote {bytes} bytes to {path} ({dropped} spans dropped under buffer pressure); open in https://ui.perfetto.dev");
        }
    }
}

/// `blackbox` (a JSON object) with `line` as its first field, `spec`.
fn with_spec(blackbox: &str, line: &str) -> String {
    let spec = serde_json::to_string(line).expect("a string serializes");
    format!("{{\"spec\":{spec},{}", &blackbox[1..])
}

/// Counts (and prints) the violations of the disposition invariant:
/// every request terminates with exactly one disposition, shed reasons
/// appear iff the request was shed, and shed requests consume no virtual
/// resources.
fn disposition_violations(report: &ServingReport, requests: usize) -> usize {
    let (records, total) = (report.records.len(), report.dispositions().total());
    let mut violations = Vec::new();
    if records != requests || total != requests {
        violations.push(format!(
            "{records} records / {total} dispositions for {requests} requests"
        ));
    }
    for r in &report.records {
        let shed = r.disposition == Disposition::Shed;
        if r.shed_reason.is_some() != shed {
            violations.push(format!("request {} shed reason mismatch: {r:?}", r.id));
        }
        if shed && r.executed() {
            violations.push(format!("shed request {} booked a device: {r:?}", r.id));
        }
    }
    for violation in &violations {
        eprintln!("invariant violated: {violation}");
    }
    violations.len()
}

/// The four GEMMs of a transformer encoder layer at sequence length `len`.
fn bert_layer(len: usize) -> Vec<(Operator, usize)> {
    [(2304, 768), (768, 768), (3072, 768), (768, 3072)]
        .into_iter()
        .map(|(n, k)| (Operator::gemm(GemmShape::new(len, n, k)), 1))
        .collect()
}

/// The `(m, n, k)` of the chaos and health smokes' GEMM stream.
const GEMM_ROTATION: [(usize, usize, usize); 8] = [
    (256, 256, 256),
    (777, 512, 256),
    (1111, 999, 512),
    (64, 64, 64),
    (320, 192, 128),
    (511, 257, 96),
    (900, 300, 300),
    (128, 1024, 64),
];

/// The small offline stage the chaos, health and cache-bench smokes tune.
fn smoke_offline() -> OfflineOptions {
    let mut offline = OfflineOptions::fast();
    offline.n_gen = 4;
    offline
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
fn cache_bench(inv: &Invocation) -> Result<(), String> {
    let machine = inv.machine();
    let threads: usize = inv.value("--threads")?;
    let ops: usize = inv.value("--ops")?;
    let keys: usize = inv.value("--keys")?;
    let restart_entries: usize = inv.value("--restart-entries")?;
    let restart_budget_ms: u64 = inv.value("--restart-budget-ms")?;
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

    // The timed window covers the file read as well as the load.
    let t0 = std::time::Instant::now();
    match std::fs::read(&bin_path).and_then(|bytes| a.load_program_cache_bytes(&bytes)) {
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
    Ok(())
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!("usage (defaults after '='; N > 0 and K >= 0 are integers, F > 0 and US >= 0 reals,");
    eprintln!("       P is in [0, 1], M is a100, h100, 910a or a100-cc):");
    for command in COMMANDS {
        eprintln!("  mikpoly {command}");
    }
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse(line: &str) -> Result<Invocation, String> {
        Invocation::parse(&args(line))
    }

    fn spec_of(args: &[String]) -> ServeSpec {
        let inv = Invocation::parse(args).expect("the command line parses");
        ServeSpec::resolve(&inv).expect("the flags resolve")
    }

    fn spec(line: &str) -> ServeSpec {
        spec_of(&args(line))
    }

    fn assert_same(a: &ServeSpec, b: &ServeSpec) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Splits `line` into words as a POSIX shell does, for the quoting
    /// [`shell_word`] produces.
    fn shell_split(line: &str) -> Vec<String> {
        let (mut words, mut word, mut quoted) = (Vec::new(), None::<String>, false);
        let mut chars = line.chars();
        while let Some(c) = chars.next() {
            match c {
                '\'' => {
                    quoted = !quoted;
                    word.get_or_insert_with(String::new);
                }
                '\\' if !quoted => word.get_or_insert_with(String::new).extend(chars.next()),
                ' ' if !quoted => words.extend(word.take()),
                c => word.get_or_insert_with(String::new).push(c),
            }
        }
        words.extend(word);
        words
    }

    fn smoke_library() -> OfflineOptions {
        OfflineOptions {
            n_gen: 4,
            ..OfflineOptions::fast()
        }
    }

    #[test]
    fn flag_values_are_not_operands() {
        let inv = parse("gemm 128 128 128 --machine h100").expect("gemm parses");
        assert_eq!(inv.machine(), MachineModel::h100());
        let gemm = Operator::gemm(GemmShape::new(128, 128, 128));
        assert_eq!(operator(&inv), Ok((TemplateKind::Gemm, gemm)));
        assert!(!inv.switch("--oracle") && !inv.switch("--split-k"));

        let inv = parse("gemm --machine 910a 256 --oracle 64 32").expect("gemm parses");
        assert_eq!(inv.machine(), MachineModel::ascend910a());
        let gemm = Operator::gemm(GemmShape::new(256, 64, 32));
        assert_eq!(operator(&inv), Ok((TemplateKind::Gemm, gemm)));
        assert!(inv.switch("--oracle"));
    }

    #[test]
    fn conv_takes_a_machine_and_winograd() {
        let inv = parse("conv 1 64 56 56 64 3 3 1 1 --machine 910a --winograd").expect("parses");
        assert_eq!(inv.machine(), MachineModel::ascend910a());
        let shape = Conv2dShape::new(1, 64, 56, 56, 64, 3, 3, 1, 1);
        let winograd = Operator::conv2d_winograd(shape);
        assert_eq!(operator(&inv), Ok((TemplateKind::Gemm, winograd)));
        let inv = parse("conv 1 64 56 56 64 3 3 1 0").expect("conv parses");
        let direct = Operator::conv2d(Conv2dShape::new(1, 64, 56, 56, 64, 3, 3, 1, 0));
        assert_eq!(operator(&inv), Ok((TemplateKind::Conv, direct)));
    }

    #[test]
    fn unread_valueless_and_malformed_flags_are_rejected() {
        for line in [
            "serve --utilisation 0.5",
            "chaos --request 5",
            "serve --seed",
            "serve --seed abc",
            "serve --seed -1",
            "chaos --seed --workers 2",
            "serve --trace-out --workers",
            "serve --json",
            "health --queue-capacity 4",
            "trace-stats t.json --machine a100",
            "serve --machine tpu",
            "serve --workers 0",
            "stats --batch-window-us -1",
            "chaos --fault-rate 1.5",
            "cache-bench --threads 0",
            "gemm 1 2",
            "trace-stats",
            "frobnicate",
            "--machine h100 gemm 1 2 3",
        ] {
            assert!(parse(line).is_err(), "'{line}' parsed");
        }
        let error = |line| parse(line).err().expect("rejected");
        assert_eq!(error("serve --seed abc"), "--seed needs a K value");
        assert_eq!(error("serve --seed"), "--seed needs a K value");
        assert_eq!(
            error("serve --utilisation 0.5"),
            "serve does not take --utilisation"
        );
        assert_eq!(error("gemm 1 2"), "gemm takes 3 operand(s)");
        for line in ["gemm 1 2 x", "gemm 0 16 16", "conv 1 0 8 8 4 3 3 1 1"] {
            let inv = parse(line).expect("operands are checked by the operator");
            assert!(operator(&inv).is_err(), "'{line}' made an operator");
        }
    }

    #[test]
    fn a_filter_larger_than_the_padded_input_is_rejected() {
        let inv = parse("conv 1 1 2 2 1 5 5 1 0").expect("operands are checked by the operator");
        assert_eq!(
            operator(&inv).err().as_deref(),
            Some("padded input must be at least as large as the filter")
        );
        // Padding that makes room for the filter is fine.
        let inv = parse("conv 1 1 2 2 1 5 5 1 2").expect("conv parses");
        assert!(operator(&inv).is_ok());
    }

    #[test]
    fn a_conv_whose_extents_overflow_is_rejected() {
        // Padding whose double wraps to 2, and an implicit-GEMM M of 2^64.
        for line in [
            "conv 1 1 2 2 1 5 5 1 9223372036854775810",
            "conv 4294967296 1 4294967296 1 1 1 1 1 0",
        ] {
            let inv = parse(line).expect("operands are checked by the operator");
            assert_eq!(
                operator(&inv).err().as_deref(),
                Some("convolution extents overflow usize"),
                "{line}"
            );
        }
    }

    fn serve_preset() -> ServeSpec {
        ServeSpec {
            line:
                "mikpoly serve --machine a100 --workers 4 --devices 4 --requests 96 \
                   --utilization 0.8 --seed 42 --tenants 1 --max-batch 8 --snapshot-interval-ms 200"
                    .into(),
            output: Output::Report,
            json: false,
            machine: MachineModel::a100(),
            offline: OfflineOptions::fast(),
            telemetry: false,
            stream: Stream::BertLayers { utilization: 0.8 },
            requests: 96,
            seed: 42,
            deadline_us: None,
            tenants: 1,
            workers: 4,
            devices: 4,
            options: ServingOptions::default(),
            snapshot_dir: None,
            snapshot_interval: Duration::from_millis(200),
            drain_after_us: None,
            trace_out: None,
            metrics_out: None,
            blackbox_out: None,
        }
    }

    #[test]
    fn serve_and_stats_presets_resolve_to_the_old_serve_spec() {
        assert_same(&spec("serve"), &serve_preset());
        let stats = ServeSpec {
            line: serve_preset()
                .line
                .replace("mikpoly serve", "mikpoly stats"),
            output: Output::Registry,
            telemetry: true,
            ..serve_preset()
        };
        assert_same(&spec("stats"), &stats);
        // Telemetry is on iff there is an export path (or the registry is
        // the output).
        for export in ["--trace-out", "--metrics-out", "--blackbox-out"] {
            assert!(spec(&format!("serve {export} x")).telemetry, "{export}");
        }
        assert_eq!(spec("serve --workers 3").devices, 3);
        assert_eq!(spec("serve --workers 3 --devices 5").devices, 5);
    }

    #[test]
    fn the_chaos_preset_resolves_to_the_old_chaos_spec() {
        let r = 0.05;
        let chaos = ServeSpec {
            line: "mikpoly chaos --machine a100 --requests 48 --workers 4 --seed 7 \
                   --fault-rate 0.05 --stall-ns 200000 --compile-budget-us 20000"
                .into(),
            output: Output::Chaos,
            offline: smoke_library(),
            stream: Stream::GemmRotation,
            requests: 48,
            seed: 7,
            options: ServingOptions {
                compile_budget: Some(Duration::from_millis(20)),
                breaker: Some(BreakerPolicy::default()),
                fault_plan: Some(Arc::new(FaultPlan {
                    seed: 7,
                    device_fault_rate: r,
                    search_stall_rate: (4.0 * r).min(1.0),
                    search_stall_ns: 200_000,
                    cache_corrupt_rate: 2.0 * r,
                    compile_panic_rate: 2.0 * r,
                    panic_attempts: 2,
                })),
                ..ServingOptions::default()
            },
            snapshot_interval: Duration::ZERO,
            ..serve_preset()
        };
        assert_same(&spec("chaos"), &chaos);
        let plan = |line: &str| spec(line).options.fault_plan.expect("chaos injects faults");
        assert_eq!(plan("chaos --fault-rate 0.5").search_stall_rate, 1.0);
        assert_eq!(plan("chaos --stall-ns 0").search_stall_rate, 0.0);
        assert_eq!(plan("chaos --fault-rate 0").device_fault_rate, 0.0);
    }

    #[test]
    fn the_health_preset_resolves_to_the_old_health_spec() {
        let health = ServeSpec {
            line: "mikpoly health --machine a100 --requests 48 --workers 2 --seed 7 \
                   --fault-rate 0 --compile-budget-us 20000"
                .into(),
            output: Output::Health,
            offline: smoke_library(),
            telemetry: true,
            stream: Stream::GemmRotation,
            requests: 48,
            seed: 7,
            workers: 2,
            devices: 2,
            options: ServingOptions {
                queue_capacity: Some(8),
                compile_budget: Some(Duration::from_millis(20)),
                breaker: Some(BreakerPolicy::default()),
                ..ServingOptions::default()
            },
            snapshot_interval: Duration::ZERO,
            ..serve_preset()
        };
        assert_same(&spec("health"), &health);
        assert_eq!(health.health_policy().compile_p99_budget_ns, Some(20e6));
        let faulty = spec("health --fault-rate 0.1");
        let plan = FaultPlan {
            seed: 7,
            device_fault_rate: 0.1,
            compile_panic_rate: 2.0 * 0.1,
            panic_attempts: 2,
            ..FaultPlan::none()
        };
        assert_eq!(faulty.options.fault_plan.as_deref(), Some(&plan));
    }

    #[test]
    fn streams_are_the_old_builders_streams() {
        let engine = Engine::offline(MachineModel::a100(), &smoke_library());
        // Serve: the arrival gap is calibrated from the layer(256) probe.
        let serve = spec("serve --requests 12 --deadline-us 50 --tenants 3");
        let probe = engine
            .run_graph(bert_layer(256).iter().map(|(op, c)| (op, *c)))
            .device_ns;
        let arrivals = poisson_arrivals(12, probe / (0.8 * 4.0), 42);
        let mut rng = SmallRng::seed_from_u64(42);
        let requests = serve.stream(&engine);
        assert_eq!(requests.len(), 12);
        for (r, arrival_ns) in requests.iter().zip(arrivals) {
            assert_eq!(r.arrival_ns, arrival_ns);
            assert_eq!(r.ops, bert_layer(16 * rng.gen_range(2usize..=32)));
            assert_eq!(r.deadline_ns, Some(arrival_ns + 50e3));
            assert_eq!(r.tenant, r.id as u32 % 3);
        }
        // Chaos and health: eight GEMM shapes in rotation at 30k req/s.
        let chaos = spec("chaos --requests 10");
        let arrivals = poisson_arrivals(10, 30_000.0, 7);
        for (r, arrival_ns) in chaos.stream(&engine).iter().zip(arrivals) {
            let (m, n, k) = GEMM_ROTATION[r.id % 8];
            let expected =
                Request::single(r.id, arrival_ns, Operator::gemm(GemmShape::new(m, n, k)));
            assert_eq!(format!("{r:?}"), format!("{expected:?}"));
        }
    }

    #[test]
    fn the_spec_line_parses_back_to_the_same_spec() {
        for line in [
            "serve --workers 3 --devices 2 --requests 17 --utilization 0.5 --seed 9 \
             --deadline-us 250.5 --tenants 2 --batch-window-us 40 --max-batch 3 --machine h100",
            "stats --json --trace-out t.json --metrics-out m.txt --snapshot-dir warm \
             --snapshot-interval-ms 50 --drain-after-us 400",
            "chaos --requests 20 --workers 3 --seed 11 --fault-rate 0.1 --stall-ns 0 \
             --queue-capacity 8 --deadline-us 5000 --compile-budget-us 900 --machine 910a",
            "health --requests 32 --workers 3 --seed 5 --fault-rate 0.2 --deadline-us 700 \
             --compile-budget-us 10 --json",
        ] {
            let first = spec(line);
            let words = shell_split(&first.line);
            assert_eq!(words[0], "mikpoly");
            assert_same(&spec_of(&words[1..]), &first);
        }

        // A value that needs quoting survives the line and the dump's JSON.
        let path = r#"dump dir/it's a "box"\.json"#;
        let mut quoted = args("serve --deadline-us 1 --blackbox-out");
        quoted.push(path.into());
        let first = spec_of(&quoted);
        let words = shell_split(&first.line);
        assert!(words.iter().any(|w| w == path), "{words:?}");
        assert_same(&spec_of(&words[1..]), &first);
        let dump = with_spec(r#"{"slo":{"violated":true},"chains":[]}"#, &first.line);
        let value: serde_json::Value = serde_json::from_str(&dump).expect("the dump is JSON");
        assert_eq!(
            value.get("spec").and_then(|v| v.as_str()),
            Some(first.line.as_str())
        );
        assert!(value.get("chains").is_some());
    }
}
