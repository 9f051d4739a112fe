//! Extension: batched serving — shape-bucketed continuous batching and
//! co-launch waves against solo dispatch, plus the multi-tenant
//! isolation gate.
//!
//! The `ext-serving` study drives the solo dispatcher near its
//! calibrated saturation point. This study overdrives it: small
//! transformer-projection GEMMs — the dynamic-shape regime the paper's
//! co-launch observation targets, where one request's grid cannot fill
//! the machine — arrive in bursts at 10x and 100x that rate, and the
//! batched dispatcher (workers released at compile-done, ready requests
//! bucketed by shape under a bounded batch-forming delay, buckets packed
//! into co-launch waves that never oversubscribe the machine's warp
//! slots) is compared against solo dispatch of the identical stream on
//! the identical warm engine. Two standing gates (the run exits non-zero
//! on violation, so `scripts/ci.sh` wires it as a smoke):
//!
//! * **goodput** — at every overdriven rate, batched goodput must be at
//!   least solo goodput, and batched P99 latency at most solo P99:
//!   merging identically-shaped bursts into waves recovers idle PEs, so
//!   overload drains strictly faster;
//! * **isolation** — with a [`TenantPolicy`] in force, a tenant flooding
//!   the queue is throttled against *its own* waiting-slot quota and a
//!   sparse victim tenant is served in full, with zero sheds. The
//!   admission layer is shared by both dispatchers; the scenario runs on
//!   the solo path, where device-backed workers make the wait queue (and
//!   therefore the quota) bite deterministically.
//!
//! The measurement is written to `results/batch-serving.json`.

use std::sync::Arc;

use accel_sim::{Cluster, Interconnect};
use mikpoly::serving::{BatchingOptions, TenantPolicy, TenantQuota};
use mikpoly::{
    Engine, Request, ServingOptions, ServingReport, ServingRuntime, ShedReason, TemplateKind,
};
use mikpoly_workloads::{bursty_traffic, TrafficEvent, LENGTH_PALETTE};
use tensor_ir::{GemmShape, Operator};

use crate::setup::Harness;
use crate::Report;

/// Overdrive multipliers relative to the calibrated solo saturation gap.
const RATES: [f64; 2] = [10.0, 100.0];

/// One request = the attention projections of a thin decode step at the
/// event's sequence length: small grids that leave most PEs idle, so
/// co-launch has headroom to recover.
fn layer_ops(len: usize) -> Vec<(Operator, usize)> {
    vec![
        (Operator::gemm(GemmShape::new(len, 256, 256)), 1),
        (Operator::gemm(GemmShape::new(len, 512, 256)), 1),
    ]
}

/// Maps traffic events onto projection-block requests.
fn requests_from(events: &[TrafficEvent]) -> Vec<Request> {
    events
        .iter()
        .enumerate()
        .map(|(id, e)| Request {
            id,
            arrival_ns: e.arrival_ns,
            ops: layer_ops(e.seq_len),
            deadline_ns: None,
            tenant: e.tenant,
        })
        .collect()
}

fn p99_ms(report: &ServingReport) -> f64 {
    report.latency_summary().total.p99_ns / 1e6
}

/// Runs the batched-serving study and its gates.
pub fn run(h: &Harness) -> Vec<Report> {
    let gpu = h.gpu();
    let n = if h.config.stride > 1 { 80 } else { 200 };
    let workers = 4;
    let devices = 2;

    let engine = Arc::new(Engine::from_compilers(
        gpu.clone(),
        h.compiler(&gpu, TemplateKind::Gemm),
        h.compiler(&gpu, TemplateKind::Conv),
    ));
    // Warm every palette shape once: all serving runs below hit the
    // program cache, so the solo/batched comparison is pure dispatch
    // policy, not compile noise — and the probe doubles as the
    // calibration for the saturation gap.
    let mut probe = 0.0f64;
    for &len in &LENGTH_PALETTE {
        let ops = layer_ops(len);
        probe += engine
            .run_graph(ops.iter().map(|(op, c)| (op, *c)))
            .device_ns;
    }
    let mean_device_ns = probe / LENGTH_PALETTE.len() as f64;
    // The gap at which the device pool sits near full utilization under
    // solo dispatch; RATES overdrive it from there.
    let saturation_gap_ns = mean_device_ns / devices as f64;

    let mut table = Report::new(
        "batch-serving",
        "Continuous batching + co-launch waves vs solo dispatch under overload (extension)",
        &[
            "rate",
            "mode",
            "goodput (req/s)",
            "P50 (ms)",
            "P99 (ms)",
            "makespan (ms)",
            "mean batch",
        ],
    );
    let mut rates_json = Vec::new();
    let mut worst_goodput_ratio = f64::INFINITY;
    let mut worst_p99_ratio = 0.0f64;
    for rate in RATES {
        let events = bursty_traffic(n, saturation_gap_ns / rate, 8, 2, 0xBA7C);
        let requests = requests_from(&events);
        let cluster = || Cluster::new(gpu.clone(), devices, Interconnect::nvlink3());
        let solo = ServingRuntime::new(Arc::clone(&engine), cluster(), workers).serve(&requests);
        let batched = ServingRuntime::new(Arc::clone(&engine), cluster(), workers)
            .with_options(ServingOptions {
                batching: Some(BatchingOptions::default()),
                ..ServingOptions::default()
            })
            .serve(&requests);
        for (mode, report) in [("solo", &solo), ("batched", &batched)] {
            let s = report.latency_summary();
            table.push_row(vec![
                format!("{rate:.0}x"),
                mode.to_string(),
                format!("{:.0}", report.goodput_rps()),
                format!("{:.2}", s.total.p50_ns / 1e6),
                format!("{:.2}", s.total.p99_ns / 1e6),
                format!("{:.2}", report.makespan_ns / 1e6),
                format!("{:.2}", report.mean_batch_size()),
            ]);
        }
        let goodput_ratio = batched.goodput_rps() / solo.goodput_rps();
        let p99_ratio = p99_ms(&batched) / p99_ms(&solo);
        worst_goodput_ratio = worst_goodput_ratio.min(goodput_ratio);
        worst_p99_ratio = worst_p99_ratio.max(p99_ratio);
        rates_json.push(serde_json::json!({
            "rate": rate,
            "requests": n,
            "solo": {
                "goodput_rps": solo.goodput_rps(),
                "p99_ms": p99_ms(&solo),
                "makespan_ms": solo.makespan_ns / 1e6,
            },
            "batched": {
                "goodput_rps": batched.goodput_rps(),
                "p99_ms": p99_ms(&batched),
                "makespan_ms": batched.makespan_ns / 1e6,
                "mean_batch_size": batched.mean_batch_size(),
            },
            "goodput_ratio": goodput_ratio,
            "p99_ratio": p99_ratio,
        }));
    }

    // Isolation scenario: tenant 1 floods simultaneous bursts far beyond
    // its waiting-slot quota while tenant 2 trickles well-spaced
    // requests. The victim must ride its reserved headroom to a full
    // serve; the flood must be shed as tenant-throttled, not as global
    // queue overflow (which would have taken the victim down with it).
    // Solo dispatch on one worker: device-backed service makes the wait
    // queue — and therefore the per-tenant quota — bite deterministically.
    let flood_n = n / 2;
    let mut events: Vec<TrafficEvent> = bursty_traffic(flood_n, saturation_gap_ns / 50.0, 8, 1, 3)
        .into_iter()
        .map(|e| TrafficEvent { tenant: 1, ..e })
        .collect();
    let victim_gap = 8.0 * mean_device_ns;
    for i in 0..12 {
        events.push(TrafficEvent {
            arrival_ns: i as f64 * victim_gap,
            tenant: 2,
            seq_len: LENGTH_PALETTE[i % LENGTH_PALETTE.len()],
        });
    }
    events.sort_by(|a, b| f64::total_cmp(&a.arrival_ns, &b.arrival_ns));
    let requests = requests_from(&events);
    let isolated = ServingRuntime::new(
        Arc::clone(&engine),
        Cluster::new(gpu.clone(), 1, Interconnect::nvlink3()),
        1,
    )
    .with_options(ServingOptions {
        queue_capacity: Some(16),
        tenancy: Some(TenantPolicy::new(vec![
            TenantQuota::new(1, 4),
            TenantQuota::new(2, 16).with_weight(2.0),
        ])),
        ..ServingOptions::default()
    })
    .serve(&requests);
    let throttled = isolated
        .records
        .iter()
        .filter(|r| r.shed_reason == Some(ShedReason::TenantThrottled))
        .count();
    let tenants = isolated.tenant_stats();
    let victim = tenants
        .iter()
        .find(|t| t.tenant == 2)
        .expect("victim tenant appears in the stats");
    table.headline(
        "worst batched/solo goodput ratio (gate >= 1.0)",
        worst_goodput_ratio,
    );
    table.headline(
        "worst batched/solo P99 ratio (gate <= 1.0)",
        worst_p99_ratio,
    );
    table.headline("flood requests shed as tenant-throttled", throttled as f64);
    table.headline(
        "victim tenant sheds (gate = 0)",
        victim.dispositions.shed as f64,
    );

    let artifact = serde_json::json!({
        "machine": gpu.name,
        "workers": workers,
        "devices": devices,
        "saturation_gap_ns": saturation_gap_ns,
        "rates": rates_json,
        "isolation": {
            "flood_requests": flood_n,
            "victim_requests": 12,
            "flood_throttled": throttled,
            "victim_served": victim.dispositions.served(),
            "victim_shed": victim.dispositions.shed,
        },
    });
    h.write_artifact("batch-serving.json", &artifact);

    // The standing gates. Deterministic virtual timelines on a warm
    // cache, so these hold in quick mode too — CI runs this experiment
    // as a bounded smoke.
    assert!(
        worst_goodput_ratio >= 1.0,
        "batched goodput fell below solo under overload: ratio {worst_goodput_ratio:.3}"
    );
    assert!(
        worst_p99_ratio <= 1.0,
        "batched P99 exceeded solo under overload: ratio {worst_p99_ratio:.3}"
    );
    assert_eq!(
        victim.dispositions.shed, 0,
        "tenant isolation violated: the victim tenant was shed {} times",
        victim.dispositions.shed
    );
    assert_eq!(
        victim.dispositions.served(),
        12,
        "victim tenant not fully served: {:?}",
        victim.dispositions
    );
    assert!(
        throttled > 0,
        "the flood was never tenant-throttled — the quota did not engage"
    );
    vec![table]
}
