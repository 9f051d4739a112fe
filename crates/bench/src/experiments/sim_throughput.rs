//! Extension: simulator throughput gate — the event-driven core against
//! the frozen reference loop.
//!
//! PR 8 rebuilt the scheduler's hot loop around indexed admission and
//! cached completion events, with the old loop kept (behind the
//! `reference-sim` feature) as the bit-identity oracle. This experiment
//! is the standing performance gate for that rebuild: it times both
//! cores on the same workloads, writes `results/sim-throughput.json`,
//! and fails the run if the fast core's throughput falls below either
//!
//! * the **relative gate** — at least [`MIN_SPEEDUP`]x the reference
//!   loop measured in the same process, or
//! * the **absolute floor** — [`MIN_TASKS_PER_SEC`] simulated tasks per
//!   host second, 10x the ~1.4M tasks/s the pre-rebuild scan loop
//!   profiled at.
//!
//! Both gates apply only to full-fidelity runs (`stride == 1`): quick
//! runs shrink the workloads below the regime where fixed per-launch
//! costs amortize, so they report but do not gate.
//!
//! Every run, quick or full, also gates the simulator's self-profile:
//! one [`simulate_profiled`] pass per full-scale workload, outside the
//! timed repetitions, must attribute its wall time to the loop's phases
//! within [`COVERAGE_TOLERANCE`]. The lap timer is relayed, never reset,
//! so a larger gap means a phase of the hot loop escaped instrumentation.
//! Quick runs profile at full scale too: a call's few fixed microseconds
//! outside the timer would put the quick grids at only 0.98-0.99.

use std::time::Instant;

use accel_sim::{
    simulate, simulate_profiled, simulate_reference, Launch, MachineModel, TaskGroup, TaskShape,
    TaskSpec, TimingMode,
};

use crate::setup::Harness;
use crate::Report;

/// Relative gate: fast core vs the reference loop, same process, same
/// workloads, best-of-N for both.
const MIN_SPEEDUP: f64 = 10.0;

/// Absolute floor in simulated tasks per host second — 10x the
/// pre-rebuild scan-loop baseline (~1.4M tasks/s).
const MIN_TASKS_PER_SEC: f64 = 14_000_000.0;

/// Largest allowed gap between the profiled phases' summed attribution
/// and the profiled pass's wall time, as a fraction of the wall time.
const COVERAGE_TOLERANCE: f64 = 0.02;

/// Grid scale of the full-fidelity workloads.
const FULL_SCALE: usize = 64;

fn spec(um: usize, un: usize, uk: usize, warps: usize, t: usize) -> TaskSpec {
    TaskSpec::new(TaskShape::gemm_tile_f16(um, un, uk), warps, t)
}

fn workloads(m: &MachineModel, scale: usize) -> Vec<(&'static str, Launch)> {
    // Full waves plus a tail, deeply co-resident small tiles, and mixed
    // groups, at grids large enough that per-launch fixed costs amortize
    // and the measurement reflects steady-state task flow.
    vec![
        (
            "full-waves-plus-tail",
            Launch::grid(spec(256, 128, 32, 8, 64), scale * m.num_pes + 1),
        ),
        (
            "co-resident-small-tiles",
            Launch::grid(spec(64, 64, 64, 4, 32), 2 * scale * m.num_pes),
        ),
        (
            "mixed-groups",
            Launch::from_groups(vec![
                TaskGroup::new(spec(256, 128, 32, 8, 64), scale * 96),
                TaskGroup::new(spec(64, 64, 64, 4, 32), scale * 256),
            ]),
        ),
    ]
}

/// Best-of-N wall time (ns) for one closure; N - warmups timed runs,
/// minimum taken, so a stray scheduler preemption cannot fail the gate.
fn best_of(reps: usize, warmups: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for i in 0..reps {
        let t = Instant::now();
        f();
        let ns = t.elapsed().as_nanos() as u64;
        if i >= warmups {
            best = best.min(ns);
        }
    }
    best.max(1)
}

/// Summed per-phase attribution over summed wall time of one profiled
/// pass per full-scale workload.
fn attribution_coverage(m: &MachineModel) -> f64 {
    let (mut wall_ns, mut attributed_ns) = (0u64, 0u64);
    for (_, launch) in workloads(m, FULL_SCALE) {
        let wall = Instant::now();
        let (_, profile) = simulate_profiled(m, &launch, TimingMode::Evaluate);
        wall_ns += wall.elapsed().as_nanos() as u64;
        attributed_ns += profile.attributed_ns();
    }
    attributed_ns as f64 / wall_ns.max(1) as f64
}

/// Runs the throughput gate and writes `results/sim-throughput.json`.
pub fn run(h: &Harness) -> Vec<Report> {
    let m = h.gpu();
    let full = h.config.stride == 1;
    let scale = if full { FULL_SCALE } else { 8 };
    let reps = if full { 7 } else { 3 };
    let warmups = if full { 2 } else { 1 };
    let cases = workloads(&m, scale);

    let mut report = Report::new(
        "sim-throughput",
        "event core vs reference loop throughput (extension)",
        &[
            "workload",
            "tasks",
            "fast (us)",
            "reference (us)",
            "fast (Mtasks/s)",
            "speedup",
        ],
    );

    let mut rows_json = Vec::new();
    let mut total_tasks = 0u64;
    let mut fast_total_ns = 0u64;
    let mut ref_total_ns = 0u64;
    for (name, launch) in &cases {
        // Identical results are the equivalence suite's job; here the
        // reports are consumed only to keep the calls from being
        // optimized away.
        let fast_ns = best_of(reps, warmups, || {
            std::hint::black_box(simulate(&m, launch, TimingMode::Evaluate));
        });
        let ref_ns = best_of(reps, warmups, || {
            std::hint::black_box(simulate_reference(&m, launch, TimingMode::Evaluate));
        });
        let tasks = launch.grid_size() as u64;
        total_tasks += tasks;
        fast_total_ns += fast_ns;
        ref_total_ns += ref_ns;
        let fast_tps = tasks as f64 / (fast_ns as f64 / 1e9);
        report.push_row(vec![
            (*name).to_string(),
            tasks.to_string(),
            format!("{:.1}", fast_ns as f64 / 1e3),
            format!("{:.1}", ref_ns as f64 / 1e3),
            format!("{:.2}", fast_tps / 1e6),
            format!("{:.1}x", ref_ns as f64 / fast_ns as f64),
        ]);
        rows_json.push(serde_json::json!({
            "workload": *name,
            "tasks": tasks,
            "fast_ns": fast_ns,
            "reference_ns": ref_ns,
            "fast_tasks_per_sec": fast_tps,
            "speedup": ref_ns as f64 / fast_ns as f64,
        }));
    }

    let fast_tps = total_tasks as f64 / (fast_total_ns as f64 / 1e9);
    let ref_tps = total_tasks as f64 / (ref_total_ns as f64 / 1e9);
    let speedup = ref_total_ns as f64 / fast_total_ns as f64;
    let coverage = attribution_coverage(&m);
    report.headline("fast core, simulated tasks per host second", fast_tps);
    report.headline("reference loop, simulated tasks per host second", ref_tps);
    report.headline(
        format!("speedup over reference (gate >= {MIN_SPEEDUP}x on full runs)").as_str(),
        speedup,
    );
    report.headline(
        "profiled attribution coverage of wall time (gate 0.98..1.02)",
        coverage,
    );

    let artifact = serde_json::json!({
        "machine": m.name,
        "host_cpus": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "build_profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "repetitions": reps,
        "warmups": warmups,
        "gated": full,
        "min_speedup": MIN_SPEEDUP,
        "min_tasks_per_sec": MIN_TASKS_PER_SEC,
        "tasks": total_tasks,
        "fast_tasks_per_sec": fast_tps,
        "reference_tasks_per_sec": ref_tps,
        "speedup": speedup,
        "attribution_coverage": coverage,
        "coverage_tolerance": COVERAGE_TOLERANCE,
        "cases": rows_json,
    });
    h.write_artifact("sim-throughput.json", &artifact);

    assert!(
        (coverage - 1.0).abs() < COVERAGE_TOLERANCE,
        "per-phase attribution covers {:.1}% of wall time (must be within {:.0}%)",
        coverage * 100.0,
        COVERAGE_TOLERANCE * 100.0
    );
    if full {
        assert!(
            speedup >= MIN_SPEEDUP,
            "fast core is only {speedup:.1}x the reference loop (gate {MIN_SPEEDUP}x)"
        );
        assert!(
            fast_tps >= MIN_TASKS_PER_SEC,
            "fast core throughput {fast_tps:.0} tasks/s is below the committed floor {MIN_TASKS_PER_SEC:.0}"
        );
    }
    vec![report]
}
