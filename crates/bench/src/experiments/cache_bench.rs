//! Program-cache benchmark: hit-path scaling, hit latency, and
//! restart-to-warm time.
//!
//! Map-bench style (fixed workloads, several implementations): drives
//! two Zipfian workloads — a steady-state **hit-path** phase where every
//! key is resident and every timed operation is a pure read, and a
//! **churn** phase whose cold tail keeps the capacity bound evicting —
//! through two cache implementations:
//!
//! * **sharded** — `mikpoly::ShardedCache`: per-shard `RwLock<HashMap>`
//!   maps mutated in place (a hit takes one shard read lock, a fill one
//!   O(1) insert under the write lock), a striped hit counter,
//!   single-flight fills, and segmented-LRU eviction driven by an exact
//!   ready count;
//! * **locked-fifo** — the original design, reconstructed here as the
//!   baseline: sharded `RwLock<HashMap>` hits with a shared hit counter,
//!   a global `Mutex` FIFO order list, and an eviction loop that rescans
//!   every shard per iteration.
//!
//! Reported per thread count: aggregate throughput, scaling vs. one
//! thread, and the sharded/locked ratio. **Honesty note**: wall-clock
//! thread scaling is bounded by the host's core count — the artifact
//! records `host_cpus` so the scaling numbers are read against the
//! machine that produced them (on a 1- or 2-CPU host the implementation
//! comparison and the single-thread hit cost are the meaningful signals).
//! Also measured: per-hit latency percentiles on a fully warmed cache,
//! and restart-to-warm time for a 10k-program cache through the bundle
//! format (budget: 100 ms). Emits `results/cache-bench.json`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mikpoly::{
    encode_bundle, CompiledProgram, MikPoly, PatternId, Region, ShardedCache, TemplateKind,
};
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tensor_ir::{GemmShape, Operator};

use crate::setup::Harness;
use crate::Report;

const SEED: u64 = 0xCAC4E;

/// Zipfian sampler over ranks `0..n` (probability ∝ `1/(r+1)^theta`).
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

/// The workload's view of a cache: one get-or-fill operation.
trait BenchCache: Send + Sync {
    fn get_or_fill(&self, key: u64) -> u64;
}

impl BenchCache for ShardedCache<u64, u64> {
    fn get_or_fill(&self, key: u64) -> u64 {
        *self.get_or_compute(&key, || key.wrapping_mul(2)).0
    }
}

/// The original design, reconstructed faithfully as the measurement
/// baseline: `Arc`-held values behind sharded `RwLock<HashMap>`s, every
/// hit taking a shard read lock plus a `fetch_add` on a *shared*
/// (unstriped) hit counter; a capacity bound kept by a global `Mutex`
/// FIFO order list whose eviction loop re-scans every shard per
/// iteration — exactly the costs the rewrite removed. (The old design's
/// single-flight machinery is elided: both designs share it unchanged,
/// and with an inline fill closure it never engages single-threaded.)
struct LockedFifoCache {
    shards: Vec<RwLock<HashMap<u64, std::sync::Arc<u64>>>>,
    order: Mutex<VecDeque<u64>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl LockedFifoCache {
    fn new(capacity: usize) -> Self {
        Self {
            shards: (0..16).map(|_| RwLock::new(HashMap::new())).collect(),
            order: Mutex::new(VecDeque::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &RwLock<HashMap<u64, std::sync::Arc<u64>>> {
        // The old design selected shards by hashing the key with
        // `DefaultHasher`, same as the new one — keep that cost in.
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }
}

impl BenchCache for LockedFifoCache {
    fn get_or_fill(&self, key: u64) -> u64 {
        if let Some(v) = self.shard(key).read().get(&key) {
            let v = std::sync::Arc::clone(v);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = key.wrapping_mul(2);
        self.shard(key)
            .write()
            .insert(key, std::sync::Arc::new(value));
        let mut order = self.order.lock();
        order.push_back(key);
        // The old enforce_capacity: a full 16-shard scan per loop
        // iteration, all under the order lock.
        while self.len() > self.capacity {
            let Some(victim) = order.pop_front() else {
                break;
            };
            self.shard(victim).write().remove(&victim);
        }
        value
    }
}

/// Aggregate Zipfian throughput (ops/s) of `threads` threads over `ops`
/// total operations. `prewarm` keys are filled (single-threaded, outside
/// the timed region) before the clock starts; with the sampled key space
/// inside `prewarm` the timed run is a pure steady-state hit workload.
fn throughput(
    cache: &dyn BenchCache,
    zipf: &Zipf,
    threads: usize,
    ops: usize,
    prewarm: usize,
) -> f64 {
    for k in 0..prewarm as u64 {
        cache.get_or_fill(k);
    }
    let per_thread = ops / threads;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(SEED ^ (t as u64).wrapping_mul(0x9E37_79B9));
                for _ in 0..per_thread {
                    let k = zipf.sample(&mut rng) as u64;
                    assert_eq!(cache.get_or_fill(k), k.wrapping_mul(2));
                }
            });
        }
    });
    (per_thread * threads) as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Single-thread per-hit latency samples (ns) on a fully warmed cache:
/// every key is resident, so each sample is a pure hit-path traversal.
fn hit_latency_ns(cache: &dyn BenchCache, hot_keys: usize, samples: usize) -> Vec<f64> {
    for k in 0..hot_keys as u64 {
        cache.get_or_fill(k);
    }
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let k = rng.gen_range(0..hot_keys as u64);
        let t0 = Instant::now();
        let v = cache.get_or_fill(k);
        out.push(t0.elapsed().as_nanos() as f64);
        assert_eq!(v, k.wrapping_mul(2));
    }
    out
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Synthesizes `n` distinct single-region programs from a real library —
/// a production-sized warm-restart payload without `n` searches.
fn synthetic_programs(compiler: &MikPoly, n: usize) -> Vec<CompiledProgram> {
    let kernels: Vec<_> = compiler
        .library()
        .kernels
        .iter()
        .map(|t| t.kernel)
        .collect();
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

/// Runs the cache study and writes `results/cache-bench.json`.
pub fn run(h: &Harness) -> Vec<Report> {
    let quick = h.config.stride > 1;
    let keys = if quick { 1024 } else { 4096 };
    let capacity = keys / 4;
    let ops = if quick { 40_000 } else { 400_000 };
    let latency_samples = if quick { 20_000 } else { 100_000 };
    let restart_entries = if quick { 2_000 } else { 10_000 };
    let thread_counts = [1usize, 2, 4, 8];
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Phase 1 — steady-state hit path (the tentpole's target): the cache
    // is pre-warmed with a resident set inside capacity and every timed
    // operation is a hit, so the sweep isolates pure read-path cost.
    // Phase 2 — churn: Zipfian traffic over 4x capacity, so the tail
    // keeps the fill and eviction paths busy. A fresh cache per
    // (implementation, thread count, phase) keeps runs independent.
    let hot_zipf = Zipf::new(capacity, 1.05);
    let churn_zipf = Zipf::new(keys, 1.05);
    let mut hit_rows: Vec<(usize, f64, f64)> = Vec::new();
    let mut churn_rows: Vec<(usize, f64, f64)> = Vec::new();
    let mut churn_hit_rate = 0.0;
    for &threads in &thread_counts {
        let sharded: ShardedCache<u64, u64> = ShardedCache::bounded(capacity);
        let sh = throughput(&sharded, &hot_zipf, threads, ops, capacity);
        let locked = LockedFifoCache::new(capacity);
        let lk = throughput(&locked, &hot_zipf, threads, ops, capacity);
        hit_rows.push((threads, sh, lk));

        let sharded: ShardedCache<u64, u64> = ShardedCache::bounded(capacity);
        let sh = throughput(&sharded, &churn_zipf, threads, ops, 0);
        sharded
            .check_invariants()
            .unwrap_or_else(|e| panic!("cache invariant violated at {threads} threads: {e}"));
        churn_hit_rate = sharded.stats().hit_rate();
        let locked = LockedFifoCache::new(capacity);
        let lk = throughput(&locked, &churn_zipf, threads, ops, 0);
        churn_rows.push((threads, sh, lk));
    }
    let base_sh = hit_rows[0].1;
    let last = hit_rows[hit_rows.len() - 1];
    let scaling_8t = last.1 / base_sh;
    let vs_locked_8t = last.1 / last.2;

    // Hit-latency percentiles on warmed caches (hot set within capacity,
    // so every sampled op is a hit).
    let hot = capacity / 2;
    let sh_cache: ShardedCache<u64, u64> = ShardedCache::bounded(capacity);
    let mut sh_lat = hit_latency_ns(&sh_cache, hot, latency_samples);
    sh_lat.sort_by(|a, b| a.total_cmp(b));
    let lk_cache = LockedFifoCache::new(capacity);
    let mut lk_lat = hit_latency_ns(&lk_cache, hot, latency_samples);
    lk_lat.sort_by(|a, b| a.total_cmp(b));
    let sh_p50 = percentile(&sh_lat, 50.0);
    let sh_p99 = percentile(&sh_lat, 99.0);
    let lk_p99 = percentile(&lk_lat, 99.0);

    // Restart-to-warm: a synthetic production-sized cache through the
    // bundle format.
    let gpu = h.gpu();
    let warm_src = h.compiler(&gpu, TemplateKind::Gemm);
    let programs = synthetic_programs(&warm_src, restart_entries);
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let bin_path = dir.join(format!("mikpoly-bench-cache-{tag}.mpac"));
    std::fs::write(&bin_path, encode_bundle(programs.iter())).expect("write bundle");
    let loader = MikPoly::with_library(gpu, warm_src.library().clone());
    let t0 = Instant::now();
    let restored = loader.load_program_cache(&bin_path).expect("binary load");
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(restored, restart_entries, "binary bundle lost programs");

    let _ = std::fs::remove_file(&bin_path);

    let mut report = Report::new(
        "cache-bench",
        "Program-cache: sharded vs. locked-FIFO, Zipfian hit path and churn (extension)",
        &[
            "workload",
            "threads",
            "sharded (ops/s)",
            "locked-fifo (ops/s)",
            "sharded scaling",
            "vs locked",
        ],
    );
    for (label, rows) in [("hit-path", &hit_rows), ("churn", &churn_rows)] {
        let base = rows[0].1;
        for &(threads, sh, lk) in rows.iter() {
            report.push_row(vec![
                label.to_string(),
                threads.to_string(),
                format!("{sh:.0}"),
                format!("{lk:.0}"),
                format!("{:.2}x", sh / base),
                format!("{:.2}x", sh / lk),
            ]);
        }
    }
    report.headline(
        format!("hit-path 8-thread scaling ({host_cpus}-cpu host)"),
        scaling_8t,
    );
    report.headline(
        "hit-path sharded / locked-fifo throughput at 8 threads",
        vs_locked_8t,
    );
    report.headline("hit p99, sharded (ns)", sh_p99);
    report.headline(
        format!("restart-to-warm, {restart_entries} programs, binary (ms)"),
        warm_ms,
    );

    let artifact = serde_json::json!({
        "seed": SEED,
        "host_cpus": host_cpus,
        "workload": {
            "keys": keys,
            "capacity": capacity,
            "zipf_theta": 1.05,
            "ops_per_run": ops,
            "churn_hit_rate": churn_hit_rate,
        },
        "hit_path_throughput": hit_rows.iter().map(|(threads, sh, lk)| serde_json::json!({
            "threads": threads,
            "sharded_ops_per_s": sh,
            "locked_fifo_ops_per_s": lk,
            "sharded_scaling_vs_1t": sh / base_sh,
            "sharded_vs_locked": sh / lk,
        })).collect::<Vec<_>>(),
        "churn_throughput": churn_rows.iter().map(|(threads, sh, lk)| serde_json::json!({
            "threads": threads,
            "sharded_ops_per_s": sh,
            "locked_fifo_ops_per_s": lk,
            "sharded_scaling_vs_1t": sh / churn_rows[0].1,
            "sharded_vs_locked": sh / lk,
        })).collect::<Vec<_>>(),
        // Wall-clock scaling cannot exceed the host's parallelism; on a
        // host with fewer CPUs than threads the cross-implementation
        // ratio plus single-thread hit cost carry the comparison.
        "scaling_note": format!(
            "host has {host_cpus} cpu(s); ideal 8-thread scaling there is {:.1}x",
            (host_cpus.min(8)) as f64
        ),
        "hit_latency_ns": {
            "sharded_p50": sh_p50,
            "sharded_p99": sh_p99,
            "locked_fifo_p50": percentile(&lk_lat, 50.0),
            "locked_fifo_p99": lk_p99,
            "samples": latency_samples,
        },
        "restart_to_warm": {
            "binary_programs": restart_entries,
            "binary_ms": warm_ms,
            "binary_budget_ms": 100.0,
        },
    });
    let path = h.config.results_dir.join("cache-bench.json");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(
        &path,
        serde_json::to_string_pretty(&artifact).expect("json"),
    ) {
        Ok(()) => println!("   (artifact: {})", path.display()),
        Err(e) => eprintln!("   (artifact write failed: {e})"),
    }
    vec![report]
}
