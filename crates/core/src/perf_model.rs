//! Micro-kernel performance models (`g_predict`).
//!
//! For each micro-kernel `K̃`, the offline stage learns a piecewise-linear
//! function `g_predict(t)` estimating the cost of a pipelined task that runs
//! `t` instances of `K̃` on a single PE (Section 3.3). The coefficients are
//! learned from measurements at `t ∈ [1, n_pred]`; each linear segment is a
//! least-squares fit over the samples falling in its span, so measurement
//! noise is genuinely regressed away rather than memorized.

use serde::{Deserialize, Serialize};

/// One linear segment `cost(t) = intercept + slope * t` valid on
/// `[t_lo, t_hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Inclusive lower bound of the segment's validity.
    pub t_lo: usize,
    /// Inclusive upper bound of the segment's validity.
    pub t_hi: usize,
    /// Intercept in nanoseconds.
    pub intercept_ns: f64,
    /// Slope in nanoseconds per instance.
    pub slope_ns: f64,
}

impl Segment {
    fn eval(&self, t: f64) -> f64 {
        self.intercept_ns + self.slope_ns * t
    }
}

/// A piecewise-linear performance model for one micro-kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfModel {
    segments: Vec<Segment>,
}

impl PerfModel {
    /// Fits a piecewise-linear model to `(t, duration_ns)` samples.
    ///
    /// Samples are partitioned into `num_segments` spans that are roughly
    /// uniform in `log t` (matching the log-spaced sampling schedule of the
    /// offline stage), and each span gets an ordinary least-squares line.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two samples are provided or `num_segments` is
    /// zero.
    pub fn fit(samples: &[(usize, f64)], num_segments: usize) -> Self {
        assert!(samples.len() >= 2, "need at least two samples to fit");
        assert!(num_segments > 0, "need at least one segment");
        let mut samples: Vec<(usize, f64)> = samples.to_vec();
        samples.sort_by_key(|&(t, _)| t);
        samples.dedup_by_key(|&mut (t, _)| t);

        let num_segments = num_segments.min(samples.len() / 2).max(1);
        let t_min = samples.first().expect("nonempty").0 as f64;
        let t_max = samples.last().expect("nonempty").0 as f64;

        // Log-spaced span boundaries over [t_min, t_max].
        let log_lo = t_min.max(1.0).ln();
        let log_hi = t_max.max(t_min + 1.0).ln();
        let bound = |i: usize| -> f64 {
            (log_lo + (log_hi - log_lo) * i as f64 / num_segments as f64).exp()
        };

        let mut segments = Vec::with_capacity(num_segments);
        let mut start = 0usize;
        for seg in 0..num_segments {
            let hi_t = if seg + 1 == num_segments {
                f64::INFINITY
            } else {
                bound(seg + 1)
            };
            let mut end = start;
            while end < samples.len() && (samples[end].0 as f64) <= hi_t {
                end += 1;
            }
            // Make sure every segment gets at least two points and the final
            // segment swallows the tail.
            if seg + 1 == num_segments {
                end = samples.len();
            }
            if end - start < 2 {
                end = (start + 2).min(samples.len());
            }
            if end - start >= 2 {
                let span = &samples[start..end];
                let (intercept, slope) = least_squares(span);
                segments.push(Segment {
                    t_lo: span.first().expect("span nonempty").0,
                    t_hi: span.last().expect("span nonempty").0,
                    intercept_ns: intercept,
                    slope_ns: slope,
                });
                start = end;
            }
            if start >= samples.len() {
                break;
            }
        }
        assert!(!segments.is_empty(), "fit produced no segments");
        Self { segments }
    }

    /// `g_predict(t)`: predicted duration (ns) of a pipelined task running
    /// `t` instances on one PE. Extrapolates with the first/last segment
    /// outside the fitted range.
    ///
    /// # Panics
    ///
    /// Panics if `t` is zero.
    pub fn predict(&self, t: usize) -> f64 {
        assert!(t > 0, "a pipelined task runs at least one instance");
        let tf = t as f64;
        for seg in &self.segments {
            if t <= seg.t_hi {
                return seg.eval(tf).max(0.0);
            }
        }
        let last = self.segments.last().expect("segments nonempty");
        last.eval(tf).max(0.0)
    }

    /// The fitted segments (for inspection / serialization round-trips).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }
}

/// Ordinary least squares for `y = a + b x` over `(t, y)` samples.
fn least_squares(samples: &[(usize, f64)]) -> (f64, f64) {
    let n = samples.len() as f64;
    let sx: f64 = samples.iter().map(|&(t, _)| t as f64).sum();
    let sy: f64 = samples.iter().map(|&(_, y)| y).sum();
    let sxx: f64 = samples.iter().map(|&(t, _)| (t as f64) * (t as f64)).sum();
    let sxy: f64 = samples.iter().map(|&(t, y)| t as f64 * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return (sy / n, 0.0);
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    (intercept, slope)
}

/// The log-spaced sampling schedule the offline stage uses to learn
/// `g_predict`: `t = 1, 2, 3, 4, 6, 8, ...` up to `n_pred`.
pub fn sample_schedule(n_pred: usize) -> Vec<usize> {
    let mut ts = vec![1usize, 2, 3, 4];
    let mut t = 4usize;
    while t < n_pred {
        t = (t * 3 / 2).max(t + 1);
        ts.push(t.min(n_pred));
    }
    ts.dedup();
    ts.retain(|&v| v <= n_pred);
    ts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_affine_truth() {
        let truth = |t: usize| 500.0 + 12.5 * t as f64;
        let samples: Vec<(usize, f64)> = sample_schedule(1024)
            .iter()
            .map(|&t| (t, truth(t)))
            .collect();
        let model = PerfModel::fit(&samples, 4);
        for &t in &[1, 7, 64, 500, 1024, 4096] {
            let err = (model.predict(t) - truth(t)).abs() / truth(t);
            assert!(err < 0.01, "t={t}: err={err}");
        }
    }

    #[test]
    fn fit_regresses_away_noise() {
        // ±2% multiplicative noise, deterministic per t.
        let truth = |t: usize| 300.0 + 8.0 * t as f64;
        let noisy =
            |t: usize| truth(t) * (1.0 + 0.02 * if t.is_multiple_of(2) { 1.0 } else { -1.0 });
        let samples: Vec<(usize, f64)> = sample_schedule(2048)
            .iter()
            .map(|&t| (t, noisy(t)))
            .collect();
        let model = PerfModel::fit(&samples, 4);
        let pts: Vec<(usize, f64)> = (1..100).map(|t| (t * 20, truth(t * 20))).collect();
        let mean_relative_error = pts
            .iter()
            .map(|&(t, v)| (model.predict(t) - v).abs() / v)
            .sum::<f64>()
            / pts.len() as f64;
        assert!(mean_relative_error < 0.03);
    }

    #[test]
    fn predict_extrapolates_beyond_samples() {
        let samples: Vec<(usize, f64)> = (1..=32).map(|t| (t, 100.0 + 5.0 * t as f64)).collect();
        let model = PerfModel::fit(&samples, 2);
        let p = model.predict(1000);
        assert!((p - 5100.0).abs() / 5100.0 < 0.05);
    }

    #[test]
    fn predict_is_monotone_for_affine_truth() {
        let samples: Vec<(usize, f64)> = sample_schedule(512)
            .iter()
            .map(|&t| (t, 50.0 + 3.0 * t as f64))
            .collect();
        let model = PerfModel::fit(&samples, 4);
        let mut prev = 0.0;
        for t in 1..600 {
            let v = model.predict(t);
            assert!(v >= prev - 1e-6, "non-monotone at t={t}");
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn fit_rejects_single_sample() {
        let _ = PerfModel::fit(&[(1, 10.0)], 2);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn predict_rejects_zero() {
        let samples: Vec<(usize, f64)> = (1..=8).map(|t| (t, t as f64)).collect();
        let _ = PerfModel::fit(&samples, 1).predict(0);
    }

    #[test]
    fn schedule_is_log_spaced_and_bounded() {
        let s = sample_schedule(5120);
        assert_eq!(s[0], 1);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(*s.last().expect("nonempty") <= 5120);
        assert!(
            s.len() < 40,
            "schedule should stay cheap: {} points",
            s.len()
        );
    }

    #[test]
    fn segments_cover_sample_range() {
        let samples: Vec<(usize, f64)> = sample_schedule(256)
            .iter()
            .map(|&t| (t, 10.0 * t as f64))
            .collect();
        let model = PerfModel::fit(&samples, 3);
        assert_eq!(model.segments().first().expect("nonempty").t_lo, 1);
        assert_eq!(model.segments().last().expect("nonempty").t_hi, 256);
    }
}
