//! Windowed SLIs over the virtual timeline and multi-window burn-rate
//! SLO evaluation.
//!
//! The serving runtime produces a scheduling-independent virtual
//! timeline, so service-level indicators are computed over *virtual*
//! trailing windows rather than wall-clock ones: the same request
//! stream always yields the same SLO verdict, which keeps the `health`
//! subcommand and the CI smoke deterministic.
//!
//! Four SLIs are tracked:
//!
//! - **goodput ratio** — served (`Completed` + `Degraded`) over total;
//! - **deadline-hit rate** — among deadline-carrying requests, the
//!   fraction that finished by their deadline;
//! - **degraded fraction** — `Degraded` over total, held under a
//!   budgeted ceiling rather than a target floor;
//! - **compile p99 vs budget** — the real-clock compile latency tail
//!   against an optional budget.
//!
//! Ratio SLIs are evaluated with the classic multi-window burn-rate
//! rule: the error budget is `1 - target`, the burn rate is
//! `error_rate / error_budget`, and a rule only fires when **both** a
//! short and a long trailing window burn at or above the threshold —
//! the short window gives fast detection, the long window suppresses
//! blips (Google SRE workbook, ch. 5). A burn of 1.0 means the error
//! budget is being consumed exactly as fast as it accrues.
//!
//! The targets ([`GOODPUT_TARGET`], [`DEADLINE_TARGET`], the
//! [`DEGRADED_BUDGET`] ceiling), the windows ([`SHORT_WINDOW_NS`],
//! [`LONG_WINDOW_NS`]) and [`BURN_THRESHOLD`] are fixed; the one parameter
//! is the optional compile-p99 budget [`SloEngine::new`] takes.

use std::fmt::Write as _;

use crate::chrome::{push_json_number, push_json_string};
use crate::clock::Clock;
use crate::metrics::Histogram;
use crate::recorder::{render_chain_json, ChainDisposition, FlightRecorder, RetainedChain};

/// Target fraction of requests served (goodput SLI floor).
pub const GOODPUT_TARGET: f64 = 0.95;

/// Target fraction of deadline-carrying requests meeting their deadline.
pub const DEADLINE_TARGET: f64 = 0.95;

/// Ceiling on the fraction of requests served degraded.
pub const DEGRADED_BUDGET: f64 = 0.25;

/// Short trailing window on the virtual timeline, ns (100 ms).
pub const SHORT_WINDOW_NS: f64 = 1e8;

/// Long trailing window on the virtual timeline, ns (1 s).
pub const LONG_WINDOW_NS: f64 = 1e9;

/// Burn-rate threshold; a rule fires when both windows burn at or above
/// it.
pub const BURN_THRESHOLD: f64 = 1.0;

/// One request's contribution to the SLIs.
#[derive(Debug, Clone, Copy)]
pub struct SloObservation {
    /// Virtual-timeline completion timestamp.
    pub finish_ns: f64,
    /// Terminal disposition.
    pub disposition: ChainDisposition,
    /// `Some(met)` for deadline-carrying requests, `None` otherwise.
    pub deadline_met: Option<bool>,
    /// Real nanoseconds spent in the compile lane.
    pub compile_ns: f64,
}

/// Disposition counts, mirroring the serving runtime's
/// `DispositionCounts` field for field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispositionTally {
    /// Requests served at full fidelity.
    pub completed: u64,
    /// Requests served degraded.
    pub degraded: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests that failed.
    pub failed: u64,
}

impl DispositionTally {
    /// All requests.
    pub fn total(&self) -> u64 {
        self.completed + self.degraded + self.shed + self.failed
    }

    /// Requests that produced a result.
    pub fn served(&self) -> u64 {
        self.completed + self.degraded
    }
}

/// SLI values computed over one trailing window.
#[derive(Debug, Clone, Copy)]
pub struct WindowSli {
    /// Window length in virtual nanoseconds (`f64::INFINITY` for the
    /// whole run).
    pub window_ns: f64,
    /// Requests finishing inside the window.
    pub requests: u64,
    /// Served over total; `1.0` for an empty window.
    pub goodput_ratio: f64,
    /// Deadline hits over deadline-carrying requests; `1.0` when none
    /// carried a deadline.
    pub deadline_hit_rate: f64,
    /// Degraded over total; `0.0` for an empty window.
    pub degraded_fraction: f64,
}

/// One burn-rate rule's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct BurnRule {
    /// Which SLI the rule watches: `"goodput"`, `"deadline"`,
    /// `"degraded"`.
    pub sli: &'static str,
    /// The configured target (or budget ceiling for `degraded`).
    pub target: f64,
    /// Burn rate over the short window.
    pub short_burn: f64,
    /// Burn rate over the long window.
    pub long_burn: f64,
    /// Threshold both windows must reach.
    pub threshold: f64,
    /// Whether the rule fired.
    pub breached: bool,
}

/// The full SLO evaluation: per-window SLIs, burn rules, and the
/// compile-budget check.
#[derive(Debug, Clone)]
pub struct SloReport {
    /// Disposition counts over the whole run.
    pub dispositions: DispositionTally,
    /// SLIs over the whole run.
    pub overall: WindowSli,
    /// SLIs over the short trailing window.
    pub short: WindowSli,
    /// SLIs over the long trailing window.
    pub long: WindowSli,
    /// Real-clock compile p99 estimate in nanoseconds.
    pub compile_p99_ns: u64,
    /// The configured compile budget, if any.
    pub compile_budget_ns: Option<f64>,
    /// Whether compile p99 exceeded its budget.
    pub compile_budget_breached: bool,
    /// The multi-window burn-rate rules.
    pub rules: Vec<BurnRule>,
    /// Whether any rule fired (or the compile budget was breached).
    pub violated: bool,
}

impl SloReport {
    /// Renders the report as a JSON object (hand-written; this crate is
    /// dependency-free). Disposition counts appear under
    /// `"dispositions"` with the exact field names of the serving
    /// runtime's `DispositionCounts`.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        let d = &self.dispositions;
        let _ = write!(
            out,
            "\"dispositions\":{{\"completed\":{},\"degraded\":{},\"shed\":{},\"failed\":{},\"total\":{}}}",
            d.completed,
            d.degraded,
            d.shed,
            d.failed,
            d.total()
        );
        out.push_str(",\"slis\":{");
        push_window(&mut out, "overall", &self.overall);
        out.push(',');
        push_window(&mut out, "short", &self.short);
        out.push(',');
        push_window(&mut out, "long", &self.long);
        out.push('}');
        let _ = write!(out, ",\"compile\":{{\"p99_ns\":{}", self.compile_p99_ns);
        out.push_str(",\"budget_ns\":");
        match self.compile_budget_ns {
            Some(budget) => push_json_number(&mut out, budget),
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"breached\":{}}}", self.compile_budget_breached);
        out.push_str(",\"rules\":[");
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"sli\":");
            push_json_string(&mut out, rule.sli);
            out.push_str(",\"target\":");
            push_json_number(&mut out, rule.target);
            out.push_str(",\"short_burn\":");
            push_json_number(&mut out, rule.short_burn);
            out.push_str(",\"long_burn\":");
            push_json_number(&mut out, rule.long_burn);
            out.push_str(",\"threshold\":");
            push_json_number(&mut out, rule.threshold);
            let _ = write!(out, ",\"breached\":{}}}", rule.breached);
        }
        out.push(']');
        let _ = write!(out, ",\"violated\":{}", self.violated);
        out.push('}');
        out
    }
}

fn push_window(out: &mut String, name: &str, window: &WindowSli) {
    push_json_string(out, name);
    out.push_str(":{\"window_ns\":");
    if window.window_ns.is_finite() {
        push_json_number(out, window.window_ns);
    } else {
        out.push_str("null");
    }
    let _ = write!(out, ",\"requests\":{}", window.requests);
    out.push_str(",\"goodput_ratio\":");
    push_json_number(out, window.goodput_ratio);
    out.push_str(",\"deadline_hit_rate\":");
    push_json_number(out, window.deadline_hit_rate);
    out.push_str(",\"degraded_fraction\":");
    push_json_number(out, window.degraded_fraction);
    out.push('}');
}

/// Accumulates observations and evaluates them against the fixed
/// targets ([`GOODPUT_TARGET`], [`DEADLINE_TARGET`], [`DEGRADED_BUDGET`]),
/// windows and [`BURN_THRESHOLD`], plus an optional compile budget.
#[derive(Debug)]
pub struct SloEngine {
    compile_p99_budget_ns: Option<f64>,
    observations: Vec<SloObservation>,
    compile: Histogram,
}

impl SloEngine {
    /// Creates an engine for one evaluation pass; compile p99 is held to
    /// `compile_p99_budget_ns` (real-clock ns) when one is given.
    pub fn new(compile_p99_budget_ns: Option<f64>) -> Self {
        Self {
            compile_p99_budget_ns,
            observations: Vec::new(),
            compile: Histogram::new(Clock::Real),
        }
    }

    /// Feeds one finished request.
    pub fn observe(&mut self, observation: SloObservation) {
        self.compile.record_f64(observation.compile_ns);
        self.observations.push(observation);
    }

    /// Number of observations so far.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether no observations were fed.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Evaluates every rule over the whole run plus the short and long
    /// trailing windows ending at the latest finish timestamp.
    pub fn evaluate(&self) -> SloReport {
        let end = self
            .observations
            .iter()
            .map(|o| o.finish_ns)
            .fold(0.0_f64, f64::max);
        let overall = window_sli(&self.observations, f64::INFINITY, end);
        let short = window_sli(&self.observations, SHORT_WINDOW_NS, end);
        let long = window_sli(&self.observations, LONG_WINDOW_NS, end);

        let mut dispositions = DispositionTally::default();
        for o in &self.observations {
            match o.disposition {
                ChainDisposition::Completed => dispositions.completed += 1,
                ChainDisposition::Degraded => dispositions.degraded += 1,
                ChainDisposition::Shed => dispositions.shed += 1,
                ChainDisposition::Failed => dispositions.failed += 1,
            }
        }

        let rules = vec![
            burn_rule(
                "goodput",
                GOODPUT_TARGET,
                ratio_burn(short.goodput_ratio, GOODPUT_TARGET),
                ratio_burn(long.goodput_ratio, GOODPUT_TARGET),
            ),
            burn_rule(
                "deadline",
                DEADLINE_TARGET,
                ratio_burn(short.deadline_hit_rate, DEADLINE_TARGET),
                ratio_burn(long.deadline_hit_rate, DEADLINE_TARGET),
            ),
            burn_rule(
                "degraded",
                DEGRADED_BUDGET,
                budget_burn(short.degraded_fraction, DEGRADED_BUDGET),
                budget_burn(long.degraded_fraction, DEGRADED_BUDGET),
            ),
        ];

        let compile_p99_ns = self.compile.percentile_ns(0.99);
        let compile_budget_breached = self
            .compile_p99_budget_ns
            .is_some_and(|budget| compile_p99_ns as f64 > budget);
        let violated = compile_budget_breached || rules.iter().any(|r| r.breached);
        SloReport {
            dispositions,
            overall,
            short,
            long,
            compile_p99_ns,
            compile_budget_ns: self.compile_p99_budget_ns,
            compile_budget_breached,
            rules,
            violated,
        }
    }
}

fn window_sli(observations: &[SloObservation], window_ns: f64, end: f64) -> WindowSli {
    let cutoff = if window_ns.is_finite() {
        end - window_ns
    } else {
        f64::NEG_INFINITY
    };
    let mut total = 0u64;
    let mut served = 0u64;
    let mut degraded = 0u64;
    let mut with_deadline = 0u64;
    let mut deadline_hits = 0u64;
    for o in observations.iter().filter(|o| o.finish_ns >= cutoff) {
        total += 1;
        match o.disposition {
            ChainDisposition::Completed => served += 1,
            ChainDisposition::Degraded => {
                served += 1;
                degraded += 1;
            }
            ChainDisposition::Shed | ChainDisposition::Failed => {}
        }
        if let Some(met) = o.deadline_met {
            with_deadline += 1;
            if met {
                deadline_hits += 1;
            }
        }
    }
    WindowSli {
        window_ns,
        requests: total,
        goodput_ratio: if total == 0 {
            1.0
        } else {
            served as f64 / total as f64
        },
        deadline_hit_rate: if with_deadline == 0 {
            1.0
        } else {
            deadline_hits as f64 / with_deadline as f64
        },
        degraded_fraction: if total == 0 {
            0.0
        } else {
            degraded as f64 / total as f64
        },
    }
}

/// Burn rate for a floor-style SLI (`goodput`, `deadline`): error rate
/// over error budget.
fn ratio_burn(sli: f64, target: f64) -> f64 {
    let error_rate = (1.0 - sli).max(0.0);
    let budget = (1.0 - target).max(1e-9);
    error_rate / budget
}

/// Burn rate for a ceiling-style SLI (`degraded`): observed fraction
/// over the budgeted ceiling.
fn budget_burn(fraction: f64, ceiling: f64) -> f64 {
    fraction / ceiling.max(1e-9)
}

fn burn_rule(sli: &'static str, target: f64, short_burn: f64, long_burn: f64) -> BurnRule {
    BurnRule {
        sli,
        target,
        short_burn,
        long_burn,
        threshold: BURN_THRESHOLD,
        breached: short_burn >= BURN_THRESHOLD && long_burn >= BURN_THRESHOLD,
    }
}

/// Renders a blackbox dump: the SLO report, recorder health, and every
/// retained chain. Written by `serve --blackbox-out` when the SLO is
/// violated; see `docs/observability.md` for a reading guide.
pub fn render_blackbox(
    report: &SloReport,
    chains: &[RetainedChain],
    recorder: &FlightRecorder,
    spans_dropped: u64,
) -> String {
    let mut out = String::with_capacity(2048 + chains.len() * 256);
    out.push_str("{\"slo\":");
    out.push_str(&report.render_json());
    let _ = write!(out, ",\"spans_dropped\":{spans_dropped}");
    let _ = write!(
        out,
        ",\"recorder\":{{\"observed\":{},\"retained\":{},\"evicted\":{},\"resident\":{},\"approx_bytes\":{},\"rolling_p99_ns\":{}}}",
        recorder.observed(),
        recorder.retained(),
        recorder.evicted(),
        chains.len(),
        recorder.approx_bytes(),
        recorder.rolling_p99_ns()
    );
    out.push_str(",\"chains\":[");
    for (i, chain) in chains.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_chain_json(&mut out, chain);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observation(finish_ns: f64, disposition: ChainDisposition) -> SloObservation {
        SloObservation {
            finish_ns,
            disposition,
            deadline_met: None,
            compile_ns: 1000.0,
        }
    }

    #[test]
    fn empty_engine_is_healthy() {
        let engine = SloEngine::new(None);
        let report = engine.evaluate();
        assert!(!report.violated);
        assert_eq!(report.dispositions.total(), 0);
        assert_eq!(report.overall.goodput_ratio, 1.0);
    }

    #[test]
    fn healthy_stream_does_not_violate() {
        let mut engine = SloEngine::new(None);
        for i in 0..100 {
            engine.observe(observation(i as f64 * 1000.0, ChainDisposition::Completed));
        }
        let report = engine.evaluate();
        assert!(!report.violated, "all-completed stream must be healthy");
        assert!(report.rules.iter().all(|r| !r.breached));
        assert_eq!(report.dispositions.completed, 100);
    }

    #[test]
    fn mass_shedding_breaches_goodput_in_both_windows() {
        let mut engine = SloEngine::new(None);
        for i in 0..50 {
            let disposition = if i % 10 == 0 {
                ChainDisposition::Completed
            } else {
                ChainDisposition::Shed
            };
            engine.observe(observation(i as f64 * 1000.0, disposition));
        }
        let report = engine.evaluate();
        assert!(report.violated);
        let goodput = report
            .rules
            .iter()
            .find(|r| r.sli == "goodput")
            .expect("goodput rule present");
        assert!(goodput.breached);
        assert!(goodput.short_burn >= 1.0 && goodput.long_burn >= 1.0);
    }

    #[test]
    fn short_window_blip_alone_does_not_fire() {
        // 10_000 healthy finishes 1 ms apart, spread over 10x the long
        // window, then a burst of sheds inside the short window only.
        let mut engine = SloEngine::new(None);
        for i in 0..10_000 {
            engine.observe(observation(i as f64 * 1e6, ChainDisposition::Completed));
        }
        let end = 10_000.0 * 1e6;
        for i in 0..10 {
            engine.observe(observation(end + i as f64, ChainDisposition::Shed));
        }
        let report = engine.evaluate();
        let goodput = report
            .rules
            .iter()
            .find(|r| r.sli == "goodput")
            .expect("goodput rule present");
        assert!(goodput.short_burn >= 1.0, "short window sees the burst");
        assert!(goodput.long_burn < 1.0, "long window absorbs the blip");
        assert!(!goodput.breached, "multi-window rule suppresses blips");
    }

    #[test]
    fn deadline_misses_fire_the_deadline_rule() {
        let mut engine = SloEngine::new(None);
        for i in 0..20 {
            let mut o = observation(i as f64 * 1000.0, ChainDisposition::Completed);
            o.deadline_met = Some(i % 2 == 0);
            engine.observe(o);
        }
        let report = engine.evaluate();
        let deadline = report
            .rules
            .iter()
            .find(|r| r.sli == "deadline")
            .expect("deadline rule present");
        assert!(deadline.breached);
        assert_eq!(report.overall.deadline_hit_rate, 0.5);
    }

    #[test]
    fn compile_budget_breach_violates() {
        let mut engine = SloEngine::new(Some(10.0));
        let mut o = observation(1.0, ChainDisposition::Completed);
        o.compile_ns = 1e6;
        engine.observe(o);
        let report = engine.evaluate();
        assert!(report.compile_budget_breached);
        assert!(report.violated);
    }

    #[test]
    fn json_snapshot_has_exact_disposition_fields() {
        let mut engine = SloEngine::new(None);
        engine.observe(observation(1.0, ChainDisposition::Completed));
        engine.observe(observation(2.0, ChainDisposition::Degraded));
        engine.observe(observation(3.0, ChainDisposition::Shed));
        engine.observe(observation(4.0, ChainDisposition::Failed));
        let json = engine.evaluate().render_json();
        assert!(json.contains(
            "\"dispositions\":{\"completed\":1,\"degraded\":1,\"shed\":1,\"failed\":1,\"total\":4}"
        ));
        assert!(json.contains("\"rules\":["));
        assert!(json.contains("\"violated\":"));
    }
}
