//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload (see `README.md`) with inputs made from the
//! seed, checks every output, and prints as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! line before it carries the run's stamp and sample counts. Exits 1 when
//! a check fails and 2 on a usage error.

mod bench;
mod check;
mod stats;
mod trace;
mod workload;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use mikpoly::{CacheStats, CompileBudget, Engine, Request};

use crate::bench::{pooled, totals, Batch, Bench};
use crate::stats::{geomean, mean, median, percentile};
use crate::trace::{cache_delta, replay_engine, Tracer};
use crate::workload::{find, Workload, WORKLOADS};

/// On the warm workloads every n-th request of each batch times the hit
/// path, so the samples span the run; each is timed as `HIT_PATH_LOOPS`
/// back-to-back passes, `HIT_PATH_REPEATS` times, and the fastest is
/// kept, since contention from other processes only ever adds time.
const HIT_PATH_STRIDE: usize = 8;
const HIT_PATH_LOOPS: usize = 4;
const HIT_PATH_REPEATS: usize = 3;
/// `peak_rss_mb` is read after this many batches of the timed loop, so it
/// does not depend on how many batches the host managed to serve.
const RSS_AFTER_BATCHES: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(find(&value).ok_or(format!(
                    "unknown workload '{value}' (one of {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

type Metric = (&'static str, f64, &'static str);

/// A run's outcome before printing.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: usize,
    served: usize,
    /// Extra facts for the stamp line, as `"key": value` JSON fragments.
    detail: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut bench = Bench::new(args.workload, args.seed);
    let outcome = if args.trace {
        traced_run(&mut bench, args.seconds)
    } else {
        end_to_end_run(&mut bench, args.seconds)
    };
    let findings = &mut bench.findings;
    if outcome.served != outcome.attempted {
        findings.fail(format!(
            "{} of {} requests not served",
            outcome.attempted - outcome.served,
            outcome.attempted
        ));
    }
    // An end-to-end metric is always measured; a per-layer one is not
    // when its layer did no work on the workload (no hits on a cold one).
    let unmeasured: Vec<&str> = outcome
        .metrics
        .iter()
        .filter(|(_, value, _)| !value.is_finite())
        .map(|(name, _, _)| *name)
        .collect();
    if !args.trace {
        for name in &unmeasured {
            findings.fail(format!("metric {name} has no samples"));
        }
    }
    let mut detail = vec![
        format!("\"workload\": \"{}\"", args.workload.name),
        format!("\"seed\": {}", args.seed),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"host_cpus\": {}", host_cpus()),
        format!("\"git_rev\": \"{}\"", git_rev()),
        format!(
            "\"build_profile\": \"{}\"",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
        ),
        format!("\"problems\": {}", findings.problems.len()),
        format!("\"unmeasured\": {unmeasured:?}"),
        format!("\"programs_checked\": {}", bench.ledger.checked.len()),
    ];
    detail.extend(outcome.detail);
    println!("{{\"detail\": {{{}}}}}", detail.join(", "));
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        findings.ok(),
        outcome.attempted,
        outcome.attempted - outcome.served.min(outcome.attempted),
        metrics.join(", ")
    );
    if findings.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// only; `unknown` outside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.len() >= 12 && rev.chars().all(|c| c.is_ascii_hexdigit()) {
        rev[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

fn end_to_end_run(bench: &mut Bench, seconds: f64) -> Outcome {
    let engine = bench.engine();
    let warm = !bench.w.is_cold();
    let mut peak_rss_mb = f64::NAN;
    // The runtime records a cache hit's compile phase as 0; where every
    // lookup hits, the benchmark times that hit path itself.
    let mut hit_us = Vec::new();
    let batches = bench.timed_loop(seconds, |index, requests, _| {
        if index + 1 == RSS_AFTER_BATCHES {
            peak_rss_mb = bench::peak_rss_mb();
        }
        if warm {
            hit_us.extend(hit_path_us(
                &engine,
                requests.iter().step_by(HIT_PATH_STRIDE),
            ));
        }
    });
    let (attempted, served) = totals(&batches);
    let latency = pooled(&batches, |b| &b.latency_us);
    let rps: Vec<f64> = batches.iter().map(Batch::rps).collect();
    let (slo_rps, slo_rung, slo_samples) = bench.slo_rps();
    let executed = bench.ledger.execute_sample(bench.seed, &mut bench.findings);
    let (setup_s, _) = bench.setup_medians();
    let compile_us = if warm {
        hit_us
    } else {
        pooled(&batches, |b| &b.compile_us)
    };
    Outcome {
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("req_per_host_s", median(&rps), "1/s"),
            ("latency_p50_us", percentile(&latency, 50.0), "us"),
            ("latency_p99_us", percentile(&latency, 99.0), "us"),
            ("slo_rps", slo_rps, "1/s"),
            ("compile_p50_us", percentile(&compile_us, 50.0), "us"),
            ("compile_p99_us", percentile(&compile_us, 99.0), "us"),
            (
                "device_us_geomean",
                geomean(&pooled(&batches, |b| &b.device_us)),
                "us",
            ),
            ("served_ratio", served as f64 / attempted as f64, "ratio"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        attempted,
        served,
        detail: vec![
            format!("\"batches\": {}", batches.len()),
            format!("\"latency_samples\": {}", latency.len()),
            format!("\"compile_samples\": {}", compile_us.len()),
            format!(
                "\"offered_rho\": {}",
                mean(&batches.iter().map(|b| b.offered_rho).collect::<Vec<_>>())
            ),
            format!("\"slo_rung\": {slo_rung}"),
            format!("\"slo_samples\": {slo_samples}"),
            format!("\"programs_executed\": {executed}"),
        ],
    }
}

/// Host time of the compile phase of each request when every lookup
/// hits: `try_compile` over the request's GEMMs, µs.
fn hit_path_us<'a>(engine: &Engine, requests: impl Iterator<Item = &'a Request>) -> Vec<f64> {
    requests
        .map(|request| {
            (0..HIT_PATH_REPEATS)
                .map(|_| {
                    let start = Instant::now();
                    for _ in 0..HIT_PATH_LOOPS {
                        for (op, _) in &request.ops {
                            let reply = engine
                                .gemm_compiler()
                                .try_compile(op, CompileBudget::default());
                            black_box(reply.is_ok());
                        }
                    }
                    start.elapsed().as_nanos() as f64 / 1e3 / HIT_PATH_LOOPS as f64
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn traced_run(bench: &mut Bench, seconds: f64) -> Outcome {
    let engine = bench.engine();
    let replay = replay_engine(&bench.w, &engine);
    let mut tracer = Tracer::default();
    // The replay engine's warm-up is the set-up's, one operator at a time:
    // on the warm workloads these are the only fills.
    for op in bench.w.warmup_ops(bench.seed) {
        tracer.replay(&replay, &[(op, 1)], &mut bench.findings);
    }
    tracer.start_traced_phase();
    // Odd batches are traced, even ones not, so both sample the same
    // stretch of the run.
    let mut cache = CacheStats::default();
    let mut last = engine.gemm_compiler().cache_stats();
    let mut replay_findings = check::Findings::default();
    let batches = bench.timed_loop(seconds, |index, requests, batch| {
        let now = engine.gemm_compiler().cache_stats();
        if index % 2 == 1 {
            cache = cache.merged(cache_delta(now, last));
            tracer.traced_batch(&replay, requests, batch, &mut replay_findings);
        }
        last = now;
    });
    bench.findings.problems.extend(replay_findings.problems);
    let executed = bench.ledger.execute_sample(bench.seed, &mut bench.findings);
    let (_, tune_s) = bench.setup_medians();
    let (attempted, served) = totals(&batches);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for (index, batch) in batches.into_iter().enumerate() {
        if index % 2 == 1 {
            traced.push(batch);
        } else {
            untraced.push(batch);
        }
    }
    Outcome {
        metrics: tracer.metrics(tune_s, cache, &traced, &untraced),
        attempted,
        served,
        detail: vec![
            format!("\"untraced_batches\": {}", untraced.len()),
            format!("\"traced_batches\": {}", traced.len()),
            format!("\"replayed_requests\": {}", tracer.requests),
            format!("\"fills_sampled\": {}", tracer.search_ns.len()),
            format!("\"hits_sampled\": {}", tracer.hit_ns.len()),
            format!("\"launches_simulated\": {}", tracer.sim_ns.len()),
            format!("\"programs_executed\": {executed}"),
        ],
    }
}
