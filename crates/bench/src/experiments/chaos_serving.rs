//! Fault-tolerance extension: serving throughput under injected faults.
//!
//! Replays one fixed Poisson GEMM stream through the serving runtime
//! twice — fault-free and with a 1% transient device-fault rate — with
//! warmed program caches, so the two virtual timelines differ only in the
//! injected faults and their bounded retry backoff. The headline is the
//! goodput ratio (faulty / clean), the robustness gate's floor: retries
//! are paid in virtual backoff, never in dropped requests, so the ratio
//! must stay near 1. Emits `results/chaos-serving.json` with both runs'
//! disposition tables for the CI gate and future PRs to compare against.

use std::sync::Arc;

use accel_sim::{Cluster, FaultPlan, Interconnect};
use mikpoly::serving::poisson_arrivals;
use mikpoly::{Engine, Request, ServingRuntime, TemplateKind};
use tensor_ir::{GemmShape, Operator};

use crate::setup::Harness;
use crate::Report;

/// Seed of the arrival process and the fault schedule (fixed so the
/// artifact is comparable across commits).
const STREAM_SEED: u64 = 0x0C4A05;

/// The injected transient device-fault rate of the faulty run.
const FAULT_RATE: f64 = 0.01;

/// The shape population: a mix of aligned and ragged GEMMs so retries
/// land on heterogeneous device times.
fn shapes() -> Vec<GemmShape> {
    vec![
        GemmShape::new(256, 256, 256),
        GemmShape::new(777, 512, 256),
        GemmShape::new(1111, 999, 512),
        GemmShape::new(64, 64, 64),
        GemmShape::new(320, 192, 128),
        GemmShape::new(511, 257, 96),
        GemmShape::new(900, 300, 300),
        GemmShape::new(128, 1024, 64),
    ]
}

/// Runs the fault-tolerance serving study and writes
/// `results/chaos-serving.json`.
pub fn run(h: &Harness) -> Vec<Report> {
    let gpu = h.gpu();
    let n_requests = if h.config.stride > 1 { 40 } else { 120 };
    let shapes = shapes();
    let requests: Vec<Request> = poisson_arrivals(n_requests, 10_000.0, STREAM_SEED)
        .into_iter()
        .enumerate()
        .map(|(id, t)| Request::single(id, t, Operator::gemm(shapes[id % shapes.len()])))
        .collect();

    let serve = |device_fault_rate: f64| {
        let engine = Arc::new(Engine::from_compilers(
            gpu.clone(),
            h.compiler(&gpu, TemplateKind::Gemm),
            h.compiler(&gpu, TemplateKind::Conv),
        ));
        // Warm the program cache: the compared timelines are then
        // compile-free, isolating the injected faults' retry cost.
        for s in &shapes {
            engine.run_operator(&Operator::gemm(*s));
        }
        let cluster = Cluster::new(gpu.clone(), 2, Interconnect::nvlink3());
        let mut options = mikpoly::ServingOptions::default();
        if device_fault_rate > 0.0 {
            options.fault_plan = Some(Arc::new(FaultPlan {
                seed: STREAM_SEED,
                device_fault_rate,
                ..FaultPlan::none()
            }));
        }
        ServingRuntime::new(engine, cluster, 2)
            .with_options(options)
            .serve(&requests)
    };

    let clean = serve(0.0);
    let faulty = serve(FAULT_RATE);
    let ratio = faulty.goodput_rps() / clean.goodput_rps();
    let retried: u32 = faulty.records.iter().map(|r| r.retries).sum();

    let mut report = Report::new(
        "chaos-serving",
        "Serving goodput under a 1% transient device-fault rate (extension)",
        &[
            "run",
            "completed",
            "degraded",
            "shed",
            "failed",
            "retries",
            "goodput (req/s)",
        ],
    );
    for (name, r) in [("fault-free", &clean), ("1% device faults", &faulty)] {
        let c = r.dispositions();
        let run_retries: u32 = r.records.iter().map(|rec| rec.retries).sum();
        report.push_row(vec![
            name.to_string(),
            c.completed.to_string(),
            c.degraded.to_string(),
            c.shed.to_string(),
            c.failed.to_string(),
            run_retries.to_string(),
            format!("{:.0}", r.goodput_rps()),
        ]);
    }
    report.headline("goodput ratio, 1% faults / fault-free (floor 0.9)", ratio);
    report.headline("device retries absorbed", f64::from(retried));

    let disposition_json = |r: &mikpoly::ServingReport| {
        let c = r.dispositions();
        serde_json::json!({
            "completed": c.completed,
            "degraded": c.degraded,
            "shed": c.shed,
            "failed": c.failed,
            "retries": r.records.iter().map(|rec| rec.retries).sum::<u32>(),
            "goodput_rps": r.goodput_rps(),
            "throughput_rps": r.throughput_rps(),
        })
    };
    let artifact = serde_json::json!({
        "stream_seed": STREAM_SEED,
        "requests": n_requests,
        "fault_rate": FAULT_RATE,
        "goodput_ratio": ratio,
        "ratio_floor": 0.9,
        "clean": disposition_json(&clean),
        "faulty": disposition_json(&faulty),
    });
    h.write_artifact("chaos-serving.json", &artifact);
    vec![report]
}
