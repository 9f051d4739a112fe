//! Extension: concurrent serving — tail latency and worker scaling.
//!
//! The paper motivates dynamic-shape compilation with serving scenarios
//! but evaluates isolated operators and single inferences. This study
//! drives the real concurrent path: K independent client streams issue
//! BERT forward passes with Poisson arrivals and random sentence lengths
//! into a shared [`mikpoly::Engine`], served by a worker-thread pool over
//! a simulated device pool. Three effects appear:
//!
//! * throughput improves with workers while the host is the bottleneck
//!   (the stream saturates a single worker), then flattens at the device
//!   pool's capacity;
//! * MikPoly's first-sight polymerization shows up as a compile component
//!   in the latency decomposition of early requests, then vanishes behind
//!   the program cache — and the sharded single-flight cache keeps the
//!   polymerization count at the number of *unique* shapes no matter how
//!   many workers race on the same cold length;
//! * queueing delay dominates the tail near saturation (M/G/m behaviour),
//!   so cache behaviour, not raw device speed, decides P99.

use std::collections::HashSet;
use std::sync::Arc;

use accel_sim::{Cluster, Interconnect};
use mikpoly::serving::poisson_arrivals;
use mikpoly::telemetry::Telemetry;
use mikpoly::{Engine, MikPoly, Request, ServingRuntime, TemplateKind};
use mikpoly_models::TransformerConfig;

use crate::setup::Harness;
use crate::Report;

/// Sentence lengths for one client, bucketed to 16 (the serving runtime's
/// shape-quantization granularity) so clients overlap on shapes.
fn client_lengths(count: usize, seed: u64) -> Vec<usize> {
    (0..count)
        .map(|i| {
            let u = accel_sim::hash_f64(seed, &[i as u64, 2]);
            16 * (1 + (u * 30.0) as usize)
        })
        .collect()
}

/// Merges K Poisson client streams into one arrival-stamped request list.
fn merged_stream(
    bert: &TransformerConfig,
    clients: usize,
    per_client: usize,
    mean_gap_ns: f64,
    seed: u64,
) -> Vec<Request> {
    let mut requests = Vec::new();
    for client in 0..clients {
        let client_seed = seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let arrivals = poisson_arrivals(per_client, mean_gap_ns, client_seed);
        for (arrival_ns, len) in arrivals
            .into_iter()
            .zip(client_lengths(per_client, client_seed))
        {
            requests.push(Request {
                id: 0, // assigned after the merge sort
                arrival_ns,
                ops: bert
                    .graph(1, len)
                    .ops
                    .iter()
                    .map(|op| (op.operator, op.count))
                    .collect(),
                deadline_ns: None,
                tenant: 0,
            });
        }
    }
    requests.sort_by(|a, b| f64::total_cmp(&a.arrival_ns, &b.arrival_ns));
    for (id, request) in requests.iter_mut().enumerate() {
        request.id = id;
    }
    requests
}

/// Runs the concurrent serving study.
pub fn run(h: &Harness) -> Vec<Report> {
    let gpu = h.gpu();
    let bert = TransformerConfig::bert_base();
    let devices = 8;
    let clients = 4;
    let per_client = if h.config.stride > 1 { 30 } else { 150 };

    // Calibrate arrivals so the pool at 8 workers sits near 80% load —
    // which leaves 1 worker heavily oversaturated. The same stream is
    // replayed at every worker count, so throughput differences are the
    // worker pool's doing alone.
    let probe_engine = Arc::new(Engine::from_compilers(
        gpu.clone(),
        h.compiler(&gpu, TemplateKind::Gemm),
        h.compiler(&gpu, TemplateKind::Conv),
    ));
    let probe = probe_engine
        .run_graph(
            bert.graph(1, 256)
                .ops
                .iter()
                .map(|op| (&op.operator, op.count)),
        )
        .device_ns;
    let total_rate = 0.8 * devices as f64 / probe; // requests per ns, pool-wide
    let mean_gap_ns = clients as f64 / total_rate;
    let requests = merged_stream(&bert, clients, per_client, mean_gap_ns, 0xBEEF);
    let unique_shapes: HashSet<_> = requests
        .iter()
        .flat_map(|r| r.ops.iter().map(|(op, _)| *op))
        .collect();

    let mut latency = Report::new(
        "ext-serving",
        "Concurrent BERT serving: tail latency vs worker count (extension)",
        &[
            "workers",
            "P50 (ms)",
            "P95 (ms)",
            "P99 (ms)",
            "mean queue (ms)",
            "mean compile (us)",
            "mean device (ms)",
            "throughput (req/s)",
        ],
    );
    let mut cache = Report::new(
        "ext-serving-cache",
        "Program-cache behaviour under concurrent serving (extension)",
        &[
            "workers",
            "polymerizations",
            "hits",
            "coalesced waits",
            "hit rate (%)",
        ],
    );

    let mut throughputs = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        // A fresh engine per worker count: every run starts cold, so the
        // compile component and the single-flight behaviour are comparable.
        let engine = Arc::new(Engine::from_compilers(
            gpu.clone(),
            h.compiler(&gpu, TemplateKind::Gemm),
            h.compiler(&gpu, TemplateKind::Conv),
        ));
        let cluster = Cluster::new(gpu.clone(), devices, Interconnect::nvlink3());
        let report = ServingRuntime::new(engine, cluster, workers).serve(&requests);
        let s = report.latency_summary();
        let rps = report.throughput_rps();
        throughputs.push((workers, rps));
        latency.push_row(vec![
            workers.to_string(),
            format!("{:.2}", s.total.p50_ns / 1e6),
            format!("{:.2}", s.total.p95_ns / 1e6),
            format!("{:.2}", s.total.p99_ns / 1e6),
            format!("{:.2}", s.queue.mean_ns / 1e6),
            format!("{:.1}", s.compile.mean_ns / 1e3),
            format!("{:.2}", s.device.mean_ns / 1e6),
            format!("{:.0}", rps),
        ]);
        let c = report.cache;
        cache.push_row(vec![
            workers.to_string(),
            c.computations.to_string(),
            c.hits.to_string(),
            c.coalesced_waits.to_string(),
            format!("{:.1}", c.hit_rate() * 100.0),
        ]);
        // Single flight: polymerizations never exceed the unique shapes in
        // the stream, no matter how many workers race on cold shapes.
        assert!(
            c.computations as usize <= unique_shapes.len(),
            "{} polymerizations for {} unique shapes with {workers} workers",
            c.computations,
            unique_shapes.len()
        );
    }

    let rps_at = |w: usize| {
        throughputs
            .iter()
            .find(|(workers, _)| *workers == w)
            .map(|(_, rps)| *rps)
            .expect("measured")
    };

    // Telemetered replay at 4 workers: the same stream with tracing and
    // the flight recorder on. The trace goes to results/ as a
    // Perfetto-loadable artifact, the registry must mirror the cache
    // report exactly, and the virtual-time throughput must match the
    // untraced run (telemetry observes the timeline; it must not shift
    // it).
    let telemetry = Telemetry::enabled();
    let traced_engine = Arc::new(Engine::from_compilers(
        gpu.clone(),
        Arc::new(
            MikPoly::with_library(gpu.clone(), h.library(&gpu, TemplateKind::Gemm))
                .with_telemetry(Arc::clone(&telemetry)),
        ),
        Arc::new(
            MikPoly::with_library(gpu.clone(), h.library(&gpu, TemplateKind::Conv))
                .with_telemetry(Arc::clone(&telemetry)),
        ),
    ));
    let cluster = Cluster::new(gpu.clone(), devices, Interconnect::nvlink3());
    let traced = ServingRuntime::new(traced_engine, cluster, 4).serve(&requests);
    let snap = telemetry.registry().snapshot();
    for (counter, expected) in [
        ("cache.hits", traced.cache.hits),
        ("cache.computations", traced.cache.computations),
        ("cache.coalesced_waits", traced.cache.coalesced_waits),
        ("serving.requests", requests.len() as u64),
    ] {
        assert_eq!(
            snap.counter(counter),
            Some(expected),
            "registry counter '{counter}' must equal the cache report"
        );
    }
    let traced_rps = traced.throughput_rps();
    // Recorder-overhead gate: with spans, metrics, and the flight
    // recorder all on, throughput must stay within 5% of the
    // telemetry-disabled run (it is virtual-time throughput, so any gap
    // means instrumentation leaked into the timeline).
    assert!(
        (traced_rps - rps_at(4)).abs() / rps_at(4) < 0.05,
        "telemetry shifted virtual-time throughput: {traced_rps:.0} vs {:.0} req/s",
        rps_at(4)
    );
    // Every histogram exemplar must resolve to a retained chain — the
    // recorder stamps exemplars only for chains it kept.
    let mut exemplar_count = 0usize;
    for (name, exemplars) in &snap.exemplars {
        for &(_, id) in exemplars {
            assert!(
                telemetry.recorder().find(id).is_some(),
                "exemplar id {id} on '{name}' does not resolve to a retained chain"
            );
            exemplar_count += 1;
        }
    }
    assert!(
        exemplar_count > 0,
        "serving histograms recorded no exemplars"
    );
    let _ = std::fs::create_dir_all(&h.config.results_dir);
    let trace_path = h.config.results_dir.join("ext-serving-trace.json");
    if let Err(e) = std::fs::write(&trace_path, telemetry.render_chrome_trace()) {
        eprintln!("ext-serving: cannot write {}: {e}", trace_path.display());
    }
    let metrics_path = h.config.results_dir.join("ext-serving-metrics.txt");
    if let Err(e) = std::fs::write(&metrics_path, telemetry.registry().render_prometheus()) {
        eprintln!("ext-serving: cannot write {}: {e}", metrics_path.display());
    }

    // Snapshot-while-serving gate: replay the same stream at 4 workers
    // with the background snapshotter persisting the warm caches at a
    // short interval. Snapshots read each cache shard under its read
    // lock and commit atomically on a separate thread, so the
    // virtual-time throughput must stay within 5% of the plain run — any
    // gap means snapshotting contended with the serving path.
    let snapshot_dir = h.config.results_dir.join("ext-serving-snapshots");
    let _ = std::fs::remove_dir_all(&snapshot_dir);
    let snap_engine = Arc::new(Engine::from_compilers(
        gpu.clone(),
        h.compiler(&gpu, TemplateKind::Gemm),
        h.compiler(&gpu, TemplateKind::Conv),
    ));
    let snapshotter = mikpoly::Snapshotter::start(
        Arc::clone(&snap_engine),
        snapshot_dir.clone(),
        std::time::Duration::from_millis(10),
    );
    let cluster = Cluster::new(gpu.clone(), devices, Interconnect::nvlink3());
    let snapshotted = ServingRuntime::new(snap_engine, cluster, 4).serve(&requests);
    let stats = snapshotter.stop();
    assert!(
        stats.snapshots >= 1 && stats.errors == 0,
        "snapshotter took {} snapshot(s) with {} error(s)",
        stats.snapshots,
        stats.errors
    );
    let snapshotted_rps = snapshotted.throughput_rps();
    assert!(
        (snapshotted_rps - rps_at(4)).abs() / rps_at(4) < 0.05,
        "live snapshotting shifted virtual-time throughput: {snapshotted_rps:.0} vs {:.0} req/s",
        rps_at(4)
    );
    // The committed generation must restore clean into a fresh engine
    // built on the same library.
    let restored_engine = Engine::from_compilers(
        gpu.clone(),
        h.compiler(&gpu, TemplateKind::Gemm),
        h.compiler(&gpu, TemplateKind::Conv),
    );
    let restore = restored_engine.restore_program_caches(&snapshot_dir);
    assert!(
        restore.clean() && restore.restored() > 0,
        "live snapshot did not restore clean: {restore}"
    );
    let _ = std::fs::remove_dir_all(&snapshot_dir);

    latency.headline(
        "throughput ratio, snapshotting / plain at 4 workers (gate 0.95..1.05)",
        snapshotted_rps / rps_at(4),
    );
    latency.headline(
        "programs restored from the live snapshot",
        restore.restored() as f64,
    );
    latency.headline(
        "throughput ratio, recorder+traced / untraced at 4 workers (gate 0.95..1.05)",
        traced_rps / rps_at(4),
    );
    latency.headline(
        "histogram exemplars resolved to retained chains",
        exemplar_count as f64,
    );
    latency.headline(
        "flight-recorder chains retained",
        telemetry.recorder().retained() as f64,
    );

    latency.headline(
        "throughput scaling, 1 -> 4 workers (saturated stream)",
        rps_at(4) / rps_at(1),
    );
    latency.headline("P99 at 4 workers (ms)", {
        // Recompute from the stored row to avoid re-serving.
        let row = &latency.rows[2];
        row[3].parse::<f64>().expect("P99 column")
    });
    cache.headline("unique shapes in stream", unique_shapes.len() as f64);
    vec![latency, cache]
}
