//! The benchmark's workloads: fixed definitions plus request streams that
//! are pure functions of the seed.
//!
//! Every arrival schedule is open-loop in virtual time at a constant rate
//! written into the workload definition; nothing here is calibrated from
//! a host measurement. A run serves its stream in batches: batch `b` is
//! generated from `(seed, b)` alone, so a faster host serves more batches
//! of the same sequence, never a different one.

use accel_sim::{hash_f64, MachineModel};
use mikpoly::serving::poisson_arrivals;
use mikpoly::Request;
use mikpoly_workloads::{bursty_traffic, LENGTH_PALETTE};
use tensor_ir::{GemmShape, Operator};

/// Where a workload's request shapes come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// BERT-base encoder-layer GEMMs at length 16·U{2..32}, solo
    /// dispatch.
    WarmBert,
    /// BERT-base projection GEMMs, `gemms` per request, walked without
    /// repetition through lengths `1..=COLD_UNIVERSE` (see [`cold_shape`]),
    /// solo dispatch over a bounded cache.
    Cold { gemms: usize },
    /// Decode-step projection pairs over `LENGTH_PALETTE` in bursts, two
    /// tenants, batched dispatch with co-launch waves.
    Burst,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub traffic: Traffic,
    /// `true` for the Ascend 910A model, `false` for the A100.
    pub npu: bool,
    /// Mean virtual inter-arrival gap at the workload's fixed rate, ns.
    pub mean_gap_ns: f64,
    /// Requests per `serve` call.
    pub batch: usize,
    /// Virtual p99 limit of the `slo_rps` ladder, µs.
    pub slo_p99_us: f64,
    /// Requests served per ladder rung (whole batches, at least this).
    pub ladder_requests: usize,
}

/// Lengths the cold workloads walk through; with the 4 projections the
/// universe holds 32768 shapes, 16 times the cold cache bound.
pub const COLD_UNIVERSE: usize = 8192;

/// Program-cache bound of the cold workloads: a batch's shapes (at most
/// 1600) fit, so every program a batch served is still resident when it
/// is checked.
pub const COLD_CAPACITY: usize = 2048;

/// The projection GEMMs of a BERT-base encoder layer (hidden 768,
/// intermediate 3072) as (N, K): QKV, attention output, FFN up, FFN down.
const BERT_PROJECTIONS: [(usize, usize); 4] = [(2304, 768), (768, 768), (3072, 768), (768, 3072)];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "warm-bert",
        traffic: Traffic::WarmBert,
        npu: false,
        mean_gap_ns: 42_000.0,
        batch: 2000,
        slo_p99_us: 1_000.0,
        ladder_requests: 8000,
    },
    Workload {
        name: "cold-gpu",
        traffic: Traffic::Cold { gemms: 4 },
        npu: false,
        mean_gap_ns: 550_000.0,
        batch: 400,
        slo_p99_us: 4_000.0,
        ladder_requests: 1200,
    },
    Workload {
        name: "cold-npu",
        traffic: Traffic::Cold { gemms: 1 },
        npu: true,
        mean_gap_ns: 800_000.0,
        batch: 1000,
        slo_p99_us: 15_000.0,
        ladder_requests: 3000,
    },
    Workload {
        name: "burst-batched",
        traffic: Traffic::Burst,
        npu: false,
        mean_gap_ns: 9_000.0,
        batch: 2000,
        slo_p99_us: 1_000.0,
        ladder_requests: 16000,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64 finalizer: decorrelates derived seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The four projection GEMMs of one BERT-base encoder layer at sequence
/// length `len`.
pub fn bert_layer(len: usize) -> Vec<(Operator, usize)> {
    BERT_PROJECTIONS
        .into_iter()
        .map(|(n, k)| (Operator::gemm(GemmShape::new(len, n, k)), 1))
        .collect()
}

/// The thin decode-step projection pair of `burst-batched`.
pub fn decode_pair(len: usize) -> Vec<(Operator, usize)> {
    vec![
        (Operator::gemm(GemmShape::new(len, 256, 256)), 1),
        (Operator::gemm(GemmShape::new(len, 512, 256)), 1),
    ]
}

impl Workload {
    pub fn is_cold(&self) -> bool {
        matches!(self.traffic, Traffic::Cold { .. })
    }

    /// Program-cache bound; `None` keeps every program.
    pub fn cache_capacity(&self) -> Option<usize> {
        self.is_cold().then_some(COLD_CAPACITY)
    }

    pub fn machine(&self) -> MachineModel {
        if self.npu {
            MachineModel::ascend910a()
        } else {
            MachineModel::a100()
        }
    }

    /// Shapes the program cache is filled with during set-up: every shape
    /// of a warm workload; for a cold one, the first `COLD_CAPACITY`
    /// shapes of the walk, which the timed stream then never revisits
    /// within a cycle.
    pub fn warmup_ops(&self, seed: u64) -> Vec<Operator> {
        let requests: Vec<Vec<(Operator, usize)>> = match self.traffic {
            Traffic::WarmBert => (2..=32).map(|u| bert_layer(16 * u)).collect(),
            Traffic::Burst => LENGTH_PALETTE.iter().map(|&l| decode_pair(l)).collect(),
            Traffic::Cold { .. } => vec![(0..COLD_CAPACITY)
                .map(|s| (cold_shape(seed, s), 1))
                .collect()],
        };
        requests
            .into_iter()
            .flat_map(|ops| ops.into_iter().map(|(op, _)| op))
            .collect()
    }

    /// Batch `index` of the stream at `rate_scale` times the fixed rate.
    /// Arrivals restart at virtual time 0 in every batch.
    pub fn batch(&self, seed: u64, index: usize, rate_scale: f64) -> Vec<Request> {
        let n = self.batch;
        let batch_seed = mix(seed, index as u64 + 1);
        let gap = self.mean_gap_ns / rate_scale;
        match self.traffic {
            Traffic::WarmBert => poisson_arrivals(n, gap, batch_seed)
                .into_iter()
                .enumerate()
                .map(|(i, t)| {
                    let u = hash_f64(batch_seed, &[i as u64, 7]);
                    let len = 16 * (2 + (u * 31.0) as usize);
                    request(i, t, bert_layer(len), 0)
                })
                .collect(),
            Traffic::Cold { gemms } => {
                // Cold batches continue the walk past the set-up prefix.
                let first = COLD_CAPACITY + index * n * gemms;
                poisson_arrivals(n, gap, batch_seed)
                    .into_iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let shapes = first + i * gemms..first + (i + 1) * gemms;
                        let ops = shapes.map(|s| (cold_shape(seed, s), 1)).collect();
                        request(i, t, ops, 0)
                    })
                    .collect()
            }
            Traffic::Burst => bursty_traffic(n, gap, 8, 2, batch_seed)
                .into_iter()
                .enumerate()
                .map(|(i, e)| request(i, e.arrival_ns, decode_pair(e.seq_len), e.tenant + 1))
                .collect(),
        }
    }
}

fn request(id: usize, arrival_ns: f64, ops: Vec<(Operator, usize)>, tenant: u32) -> Request {
    Request {
        id,
        arrival_ns,
        ops,
        deadline_ns: None,
        tenant,
    }
}

/// The cold walk's `position`-th shape: the projections of one length in
/// turn, the lengths in a seeded order. Each cycle of `COLD_UNIVERSE`
/// lengths is an affine permutation of `1..=COLD_UNIVERSE` (an odd
/// multiplier is a unit modulo a power of two), so no shape repeats
/// within a cycle of `4 * COLD_UNIVERSE` positions.
pub fn cold_shape(seed: u64, position: usize) -> Operator {
    let (step, projection) = (position / 4, position % 4);
    let cycle = (step / COLD_UNIVERSE) as u64;
    let i = step % COLD_UNIVERSE;
    let a = (hash_f64(seed, &[cycle, 1]) * COLD_UNIVERSE as f64) as usize | 1;
    let b = (hash_f64(seed, &[cycle, 2]) * COLD_UNIVERSE as f64) as usize;
    let len = 1 + (a.wrapping_mul(i).wrapping_add(b)) % COLD_UNIVERSE;
    let (n, k) = BERT_PROJECTIONS[projection];
    Operator::gemm(GemmShape::new(len, n, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn shapes(requests: &[Request]) -> Vec<Operator> {
        requests
            .iter()
            .flat_map(|r| r.ops.iter().map(|(op, _)| *op))
            .collect()
    }

    #[test]
    fn same_seed_gives_an_identical_stream() {
        for w in WORKLOADS {
            for index in [0, 3] {
                let a = w.batch(42, index, 1.0);
                let b = w.batch(42, index, 1.0);
                assert_eq!(a.len(), w.batch);
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.arrival_ns.to_bits(), y.arrival_ns.to_bits(), "{}", w.name);
                    assert_eq!(x.ops, y.ops, "{}", w.name);
                    assert_eq!(x.tenant, y.tenant, "{}", w.name);
                }
                assert_ne!(shapes(&a), shapes(&w.batch(43, index, 1.0)), "{}", w.name);
            }
        }
    }

    #[test]
    fn warm_bert_has_exactly_124_distinct_shapes() {
        let w = find("warm-bert").expect("defined");
        let warm: HashSet<Operator> = w.warmup_ops(1).into_iter().collect();
        assert_eq!(warm.len(), 124);
        let served: HashSet<Operator> = (0..8).flat_map(|b| shapes(&w.batch(9, b, 1.0))).collect();
        assert_eq!(served, warm, "the stream uses exactly the warmed shapes");
    }

    #[test]
    fn cold_streams_never_repeat_a_shape() {
        for name in ["cold-gpu", "cold-npu"] {
            let w = find(name).expect("defined");
            let mut seen: HashSet<Operator> = w.warmup_ops(5).into_iter().collect();
            assert_eq!(
                seen.len(),
                COLD_CAPACITY,
                "the set-up prefix fills the cache"
            );
            let Traffic::Cold { gemms } = w.traffic else {
                unreachable!("{name} is cold")
            };
            let batches = (4 * COLD_UNIVERSE - COLD_CAPACITY) / (w.batch * gemms);
            assert!(batches >= 8, "{name}: {batches} batches per cycle");
            for b in 0..batches {
                for op in shapes(&w.batch(5, b, 1.0)) {
                    assert!(seen.insert(op), "{name}: {op} repeated in batch {b}");
                }
            }
        }
    }

    #[test]
    fn cold_work_is_stationary() {
        // Lengths are uniform over the universe in every stretch of the
        // walk, unlike a walk whose lengths grow along the run.
        let w = find("cold-gpu").expect("defined");
        let mean = |b: usize| {
            let r = w.batch(3, b, 1.0);
            r.iter()
                .map(|q| q.ops[0].0.gemm_view().shape.m as f64)
                .sum::<f64>()
                / r.len() as f64
        };
        let expected = (COLD_UNIVERSE + 1) as f64 / 2.0;
        for b in [0, 20, 60] {
            assert!(
                (mean(b) - expected).abs() < 0.2 * expected,
                "batch {b}: {}",
                mean(b)
            );
        }
    }

    #[test]
    fn rate_scale_only_compresses_arrivals() {
        let w = find("burst-batched").expect("defined");
        let base = w.batch(7, 0, 1.0);
        let fast = w.batch(7, 0, 2.0);
        for (a, b) in base.iter().zip(&fast) {
            assert_eq!(a.ops, b.ops);
            assert!(b.arrival_ns <= a.arrival_ns);
        }
    }
}
