//! Golden serving timeline: both dispatch policies (solo and batched)
//! replay fixed request streams to a committed per-request timeline,
//! bit for bit.
//!
//! The program cache is warmed before anything is served, so every
//! compile is a cache hit that costs exactly 0 ns and the virtual
//! timeline is a pure function of the stream, the serving options and
//! the simulated device times. The streams exercise two devices, one and
//! four workers, a bounded queue, deadlines (expired at arrival and
//! missed at dispatch), two tenant quotas and device-fault retries.
//!
//! The fixture (`tests/corpus/serving-timeline.golden`) holds one line
//! per request: case, id, worker, device, disposition, shed reason,
//! batch size, retries, and the `f64::to_bits` of `queue_ns`,
//! `device_ns` and `finish_ns`. After an intended timeline change,
//! regenerate it with
//! `MIKPOLY_BLESS=1 cargo test --release --test serving_timeline_golden`.

use std::fmt::Write as _;
use std::sync::Arc;

use mikpoly_suite::accel_sim::{Cluster, FaultPlan, Interconnect, MachineModel};
use mikpoly_suite::mikpoly::{
    poisson_arrivals, BatchingOptions, Disposition, Engine, OfflineOptions, Request, RequestRecord,
    ServingOptions, ServingRuntime, ShedReason, TenantPolicy, TenantQuota,
};
use mikpoly_suite::tensor_ir::{GemmShape, Operator};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/corpus/serving-timeline.golden"
);

fn shapes() -> [GemmShape; 4] {
    [
        GemmShape::new(64, 64, 64),
        GemmShape::new(128, 128, 64),
        GemmShape::new(256, 256, 256),
        GemmShape::new(96, 512, 128),
    ]
}

/// 64 requests from two tenants: tenant 1 sends two of every three.
/// Every fifth request's deadline passed before it arrived, and every
/// seventh must start within 3 µs of arriving.
fn stream() -> Vec<Request> {
    let shapes = shapes();
    poisson_arrivals(64, 8_000.0, 0x901D)
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let request = Request::single(i, t, Operator::gemm(shapes[i % shapes.len()]))
                .with_tenant(if i % 3 == 2 { 2 } else { 1 });
            if i % 5 == 4 {
                request.with_deadline(t - 1.0)
            } else if i % 7 == 6 {
                request.with_deadline(t + 3_000.0)
            } else {
                request
            }
        })
        .collect()
}

fn options(batched: bool) -> ServingOptions {
    ServingOptions {
        queue_capacity: Some(6),
        fault_plan: Some(Arc::new(FaultPlan {
            seed: 0x601D,
            device_fault_rate: 0.3,
            ..FaultPlan::none()
        })),
        batching: batched.then(|| BatchingOptions::new(20_000.0, 4)),
        tenancy: Some(TenantPolicy::new(vec![
            TenantQuota::new(1, 5),
            TenantQuota::new(2, 3).with_weight(2.0),
        ])),
        ..ServingOptions::default()
    }
}

fn slot(index: usize) -> String {
    if index == usize::MAX {
        "-".to_string()
    } else {
        index.to_string()
    }
}

fn render(case: &str, records: &[RequestRecord], out: &mut String) {
    for r in records {
        let shed = r.shed_reason.map_or("-", ShedReason::label);
        writeln!(
            out,
            "{case} {} {} {} {:?} {shed} {} {} {:016x} {:016x} {:016x}",
            r.id,
            slot(r.worker),
            slot(r.device),
            r.disposition,
            r.batch_size,
            r.retries,
            r.queue_ns.to_bits(),
            r.device_ns.to_bits(),
            r.finish_ns.to_bits(),
        )
        .expect("writing to a String cannot fail");
    }
}

/// Serves the stream under every (policy, worker count) case and renders
/// the fixture text, checking on the way that each record is
/// compile-free and that the cases reach every admission branch.
fn timeline() -> String {
    let mut o = OfflineOptions::fast();
    o.n_gen = 4;
    let engine = Arc::new(Engine::offline(MachineModel::a100(), &o));
    for shape in shapes() {
        engine.run_operator(&Operator::gemm(shape));
    }
    let requests = stream();
    let mut out = String::new();
    let mut seen: Vec<ShedReason> = Vec::new();
    let (mut retried, mut failed, mut waves) = (false, false, false);
    for (policy, batched) in [("solo", false), ("batched", true)] {
        for workers in [1usize, 4] {
            let cluster = Cluster::new(engine.machine().clone(), 2, Interconnect::nvlink3());
            let report = ServingRuntime::new(Arc::clone(&engine), cluster, workers)
                .with_options(options(batched))
                .serve(&requests);
            assert_eq!(report.records.len(), requests.len());
            for r in &report.records {
                assert_eq!(r.compile.real_ns(), 0.0, "warm cache: {r:?}");
                seen.extend(r.shed_reason);
                retried |= r.retries > 0;
                failed |= r.disposition == Disposition::Failed;
                waves |= r.batch_size > 1;
            }
            render(&format!("{policy}-w{workers}"), &report.records, &mut out);
        }
    }
    for reason in [
        ShedReason::DeadlineAtEnqueue,
        ShedReason::DeadlineAtDispatch,
        ShedReason::QueueFull,
        ShedReason::TenantThrottled,
    ] {
        assert!(seen.contains(&reason), "no case sheds as {reason:?}");
    }
    assert!(
        retried && failed && waves,
        "retries, failures and waves all occur"
    );
    out
}

#[test]
fn both_policies_replay_the_golden_timeline() {
    let actual = timeline();
    if std::env::var_os("MIKPOLY_BLESS").is_some() {
        std::fs::write(FIXTURE, &actual).expect("write the golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(FIXTURE).expect("read the golden fixture");
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "timeline diverges at fixture line {}", line + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "fixture length"
    );
}
