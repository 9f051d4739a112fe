//! Soak tier: sustained serving load over the event-driven simulator
//! core under a fault cocktail.
//!
//! Where `serving_chaos.rs` probes each failure path once, this test
//! keeps the runtime serving until a configured number of *simulated
//! device tasks* has flowed through the fast scheduler core, and holds
//! two invariants for the whole run:
//!
//! * **exhaustive disposition** (PR 5): every request ends in exactly
//!   one [`Disposition`], with a shed reason if and only if it was shed;
//! * **chain retention** (PR 7): every anomalous request (Shed or
//!   Failed) keeps a flight-recorder chain whose error matches the
//!   record's terminal label.
//!
//! The task budget is environment-tunable so CI stays fast while the
//! same binary can run a real soak:
//!
//! ```text
//! SIM_SOAK_TASKS=1000000 cargo test --release --test serving_soak
//! ```
//!
//! The default (no variable) is a small smoke budget; any unparsable
//! value falls back to the default rather than failing the run.

use std::sync::Arc;
use std::time::Duration;

use mikpoly_suite::accel_sim::{Cluster, FaultPlan, Interconnect, MachineModel};
use mikpoly_suite::mikpoly::{
    poisson_arrivals, Disposition, Engine, OfflineOptions, Request, ServingOptions, ServingRuntime,
};
use mikpoly_suite::tensor_ir::{GemmShape, Operator};

/// Simulated-task budget: `SIM_SOAK_TASKS` if set and parsable, else a
/// CI-sized smoke budget.
fn task_budget() -> u64 {
    std::env::var("SIM_SOAK_TASKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40_000)
}

fn shapes() -> Vec<GemmShape> {
    // A mix of wave-aligned, tail-heavy, and split-K-prone shapes so the
    // soak exercises homogeneous batch admission, tail waves, and
    // chained reduction launches.
    vec![
        GemmShape::new(1111, 999, 512),
        GemmShape::new(256, 256, 256),
        GemmShape::new(777, 512, 256),
        GemmShape::new(900, 300, 300),
        GemmShape::new(64, 64, 512),
        GemmShape::new(128, 1024, 64),
        GemmShape::new(511, 257, 96),
        GemmShape::new(320, 192, 128),
    ]
}

#[test]
fn soak_preserves_disposition_and_chain_retention_invariants() {
    let mut o = OfflineOptions::fast();
    o.n_gen = 4;
    let engine = Arc::new(Engine::offline(MachineModel::a100(), &o));
    let shapes = shapes();

    // Tasks each shape pushes through the simulator per executed
    // request: the device launch plus any split-K reduction launch.
    let tasks_per_shape: Vec<u64> = shapes
        .iter()
        .map(|&s| {
            let compiler = engine.gemm_compiler();
            let program = compiler.compile(&Operator::gemm(s));
            let mut tasks = compiler.launch_for(&program).grid_size() as u64;
            if let Some(reduction) = program.reduction_launch() {
                tasks += reduction.grid_size() as u64;
            }
            tasks
        })
        .collect();

    let cluster = Cluster::new(engine.machine().clone(), 2, Interconnect::nvlink3());
    let telemetry = mikpoly_suite::mikpoly::telemetry::Telemetry::enabled();
    let plan = FaultPlan {
        seed: 0x50A7,
        device_fault_rate: 0.02,
        search_stall_rate: 0.05,
        search_stall_ns: 100_000,
        cache_corrupt_rate: 0.05,
        compile_panic_rate: 0.03,
        panic_attempts: 2,
    };
    let runtime = ServingRuntime::new(Arc::clone(&engine), cluster, 4)
        .with_telemetry(Arc::clone(&telemetry))
        .with_options(ServingOptions {
            queue_capacity: Some(16),
            compile_budget: Some(Duration::from_millis(50)),
            breaker: true,
            fault_plan: Some(Arc::new(plan)),
            ..ServingOptions::default()
        });

    let budget = task_budget();
    let batch_size = 64usize;
    let mut simulated_tasks = 0u64;
    let mut total_requests = 0usize;
    let mut total_anomalous = 0usize;
    let mut batch = 0u64;
    while simulated_tasks < budget {
        // Globally unique request ids so flight-recorder lookups across
        // batches can never alias.
        let base = total_requests;
        let requests: Vec<Request> = poisson_arrivals(batch_size, 15_000.0, 0x50A7 + batch)
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let shape = shapes[(base + i) % shapes.len()];
                Request::single(base + i, t, Operator::gemm(shape))
            })
            .collect();
        let report = runtime.serve(&requests);

        // PR 5 invariant: exactly one disposition per request, shed
        // reason iff shed, shed requests execute nothing.
        assert_eq!(report.records.len(), requests.len());
        let counts = report.dispositions();
        assert_eq!(counts.total(), requests.len(), "batch {batch}: {counts:?}");
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.id, base + i, "records out of id order in batch {batch}");
            assert_eq!(
                r.shed_reason.is_some(),
                r.disposition == Disposition::Shed,
                "shed reason iff shed: {r:?}"
            );
            if r.disposition == Disposition::Shed {
                assert!(!r.executed(), "shed requests consume nothing: {r:?}");
            }
            if r.executed() {
                simulated_tasks += tasks_per_shape[r.id % shapes.len()] * u64::from(1 + r.retries);
            }
        }

        // PR 7 invariant: anomalous requests keep their chains, and the
        // chain's error reproduces the record's terminal label.
        let recorder = telemetry.recorder();
        for r in &report.records {
            if matches!(r.disposition, Disposition::Shed | Disposition::Failed) {
                total_anomalous += 1;
                let chain = recorder.find(r.id as u64).unwrap_or_else(|| {
                    panic!(
                        "no retained chain for anomalous request {} in batch {batch}",
                        r.id
                    )
                });
                assert!(
                    chain.chain.disposition.is_anomalous(),
                    "request {} retained with a healthy disposition",
                    r.id
                );
                let want = mikpoly_suite::mikpoly::serving::record_error_label(r);
                assert_eq!(
                    chain.chain.error.as_deref(),
                    want,
                    "chain error for request {} disagrees with its record",
                    r.id
                );
            }
        }

        total_requests += requests.len();
        batch += 1;
    }

    assert!(
        simulated_tasks >= budget,
        "soak ended early: {simulated_tasks} of {budget} tasks"
    );
    // The cocktail was live: across the whole soak something degraded,
    // retried, or shed — otherwise the invariants were never stressed.
    let snap = telemetry.registry().snapshot();
    let degraded = snap.counter("serving.degraded").unwrap_or(0);
    let retried = snap.counter("serving.retried").unwrap_or(0);
    let shed = snap.counter("serving.shed").unwrap_or(0);
    assert!(
        degraded + retried + shed > 0,
        "fault cocktail had no observable effect over {total_requests} requests"
    );
    // Counter fidelity holds across the accumulated run.
    assert_eq!(
        snap.counter("serving.requests"),
        Some(total_requests as u64)
    );
    let _ = total_anomalous; // tracked for the panic messages above
}
