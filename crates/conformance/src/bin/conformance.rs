//! Conformance CLI: the fuzz smoke stage and the cost-model-fidelity gate
//! that `scripts/ci.sh` runs.
//!
//! ```text
//! conformance fuzz [--seed N] [--cases N] [--corpus PATH] [--machines gpu,npu]
//! conformance gate --corpus PATH [--threshold F] [--cap N] [--out PATH]
//!                  [--cost-model full|wave-only|pipe-only]
//! conformance crash [--seed N] [--flips N] [--fuzz-blobs N]
//! ```
//!
//! `fuzz` replays the regression corpus, then runs seeded random cases;
//! any failure is shrunk, appended to the corpus (when given), and fails
//! the process. `gate` measures the oracle gap over the pinned corpus and
//! fails when the p95 exceeds the threshold. `crash` runs the durable
//! warm-state crash matrix: every-offset truncation, seeded bit flips,
//! arbitrary bytes and checksummed hostile records must never panic the
//! loader, and salvage must recover exactly the valid record prefix.

use std::process::ExitCode;

use mikpoly::{CostModelKind, OnlineOptions};
use mikpoly_conformance::{
    append_to_corpus, crash_run, default_case_count, fuzz_run, load_corpus, run_gate,
    ConformanceEnv, CrashConfig, FuzzConfig, GateConfig, MachineKind,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: conformance fuzz [--seed N] [--cases N] [--corpus PATH] [--machines gpu,npu]\n\
         \x20      conformance gate --corpus PATH [--threshold F] [--cap N] [--out PATH]\n\
         \x20                       [--cost-model full|wave-only|pipe-only]\n\
         \x20      conformance crash [--seed N] [--flips N] [--fuzz-blobs N]"
    );
    ExitCode::from(2)
}

/// Pulls `--flag value` pairs out of `args` into a key/value list.
fn parse_flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("--{name} requires a value"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

fn find<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn parse_machines(spec: &str) -> Result<Vec<MachineKind>, String> {
    spec.split(',')
        .map(|m| match m.trim() {
            "gpu" => Ok(MachineKind::Gpu),
            "npu" => Ok(MachineKind::Npu),
            other => Err(format!("unknown machine {other} (expected gpu or npu)")),
        })
        .collect()
}

fn fuzz_cmd(flags: &[(String, String)]) -> Result<ExitCode, String> {
    let mut config = FuzzConfig {
        cases: default_case_count(),
        ..FuzzConfig::default()
    };
    if let Some(seed) = find(flags, "seed") {
        config.seed = seed.parse().map_err(|_| format!("bad --seed {seed}"))?;
    }
    if let Some(cases) = find(flags, "cases") {
        config.cases = cases.parse().map_err(|_| format!("bad --cases {cases}"))?;
    }
    if let Some(machines) = find(flags, "machines") {
        config.machines = parse_machines(machines)?;
    }
    let corpus_path = find(flags, "corpus");
    let corpus = match corpus_path {
        Some(path) => load_corpus(path).map_err(|e| format!("corpus {path}: {e}"))?,
        None => Vec::new(),
    };

    let env = ConformanceEnv::fast();
    let report = fuzz_run(&env, &config, &corpus);
    println!(
        "fuzz: {} cases ({} corpus replays), seed {:#x}: {} failure(s), {} shrink step(s)",
        report.cases_run,
        report.corpus_replayed,
        config.seed,
        report.failures.len(),
        report.shrink_steps
    );
    for failure in &report.failures {
        eprintln!("FAIL {} — {}", failure.case, failure.reason);
        if let Some(path) = corpus_path {
            append_to_corpus(path, &failure.case)
                .map_err(|e| format!("appending to corpus {path}: {e}"))?;
        }
    }
    Ok(if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn gate_cmd(flags: &[(String, String)]) -> Result<ExitCode, String> {
    let corpus_path = find(flags, "corpus").ok_or("gate requires --corpus PATH")?;
    let corpus = load_corpus(corpus_path).map_err(|e| format!("corpus {corpus_path}: {e}"))?;
    if corpus.is_empty() {
        return Err(format!("corpus {corpus_path} is empty or missing"));
    }
    let mut config = GateConfig::default();
    if let Some(t) = find(flags, "threshold") {
        config.threshold_p95 = t.parse().map_err(|_| format!("bad --threshold {t}"))?;
    }
    if let Some(cap) = find(flags, "cap") {
        config.candidate_cap = cap.parse().map_err(|_| format!("bad --cap {cap}"))?;
    }
    // `--cost-model wave-only|pipe-only` deliberately cripples the model
    // — the way to demonstrate (and debug) what the gate would catch.
    let cost_model = match find(flags, "cost-model") {
        None | Some("full") => CostModelKind::Full,
        Some("wave-only") => CostModelKind::WaveOnly,
        Some("pipe-only") => CostModelKind::PipeOnly,
        Some(other) => return Err(format!("unknown --cost-model {other}")),
    };

    // The gate judges the cost model's picks, so it runs against the
    // standard (richer) micro-kernel library — a starved library would
    // blame the model for gaps that are really missing kernels.
    let env = ConformanceEnv::standard().with_online_options(OnlineOptions {
        cost_model,
        ..OnlineOptions::default()
    });
    let outcome = run_gate(&env, &corpus, &config);
    println!(
        "gate: {} shapes, gap p50 {:.4} p95 {:.4} max {:.4} (threshold p95 <= {:.2}, {} truncated) — {}",
        outcome.summary.count,
        outcome.summary.p50,
        outcome.summary.p95,
        outcome.summary.max,
        outcome.threshold_p95,
        outcome.summary.truncated,
        if outcome.passed { "PASS" } else { "FAIL" }
    );
    if let Some(out) = find(flags, "out") {
        let json = serde_json::to_string_pretty(&outcome).map_err(|e| e.to_string())?;
        std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
    }
    Ok(if outcome.passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn crash_cmd(flags: &[(String, String)]) -> Result<ExitCode, String> {
    let mut config = CrashConfig::default();
    if let Some(seed) = find(flags, "seed") {
        config.seed = seed.parse().map_err(|_| format!("bad --seed {seed}"))?;
    }
    if let Some(flips) = find(flags, "flips") {
        config.flips = flips.parse().map_err(|_| format!("bad --flips {flips}"))?;
    }
    if let Some(blobs) = find(flags, "fuzz-blobs") {
        config.fuzz_blobs = blobs
            .parse()
            .map_err(|_| format!("bad --fuzz-blobs {blobs}"))?;
    }
    // A panicking loader is a *finding* here, not a crash: silence the
    // default hook so a violating trial reports one line instead of a
    // backtrace per offset.
    std::panic::set_hook(Box::new(|_| {}));
    let env = ConformanceEnv::fast();
    let report = crash_run(&env, &config);
    let _ = std::panic::take_hook();
    println!(
        "crash: seed {:#x}: {} truncation offsets, {} bit flips, {} fuzz blobs: {} violation(s)",
        config.seed,
        report.truncations,
        report.flips,
        report.fuzz_blobs,
        report.violations.len()
    );
    for violation in &report.violations {
        eprintln!("FAIL {violation}");
    }
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match command.as_str() {
        "fuzz" => fuzz_cmd(&flags),
        "gate" => gate_cmd(&flags),
        "crash" => crash_cmd(&flags),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
