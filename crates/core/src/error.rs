//! The typed error taxonomy of the fault-tolerant online path.
//!
//! Every fallible step of the serving pipeline — admission, online
//! polymerization, cache validation, device execution — reports one of
//! these variants instead of panicking, so the serving runtime can map
//! each failure to a disposition (degrade, retry, shed, fail) without
//! string-matching panic payloads. The infallible `compile`/`polymerize`
//! entry points remain for callers that configured no deadlines and no
//! fault injection; they are thin wrappers that treat any error as the
//! logic bug it would be in that configuration.

use tensor_ir::Operator;

/// Why an online compilation or serving step failed.
#[derive(Debug, Clone, PartialEq)]
pub enum MikPolyError {
    /// The compile deadline expired before the search produced any
    /// feasible strategy (with an incumbent in hand the search returns it
    /// instead of this error).
    DeadlineExceeded {
        /// The operator being compiled when the deadline hit.
        operator: Operator,
    },
    /// The micro-kernel library holds no kernel usable for this view —
    /// possible only with a foreign or truncated library.
    NoFeasibleStrategy {
        /// The operator with no feasible strategy.
        operator: Operator,
    },
    /// Device execution faulted and every retry faulted too.
    DeviceFault {
        /// Device index the request was bound to.
        device: usize,
        /// Execution attempts made (1 + retries).
        attempts: u32,
    },
    /// A cached program failed validation (corrupted entry) and the
    /// recompile after eviction was still invalid.
    CachePoisoned {
        /// The operator whose cache entry was poisoned.
        operator: Operator,
        /// Validation-and-recompile attempts made.
        attempts: u32,
    },
    /// Admission control rejected the request (bounded queue full).
    QueueRejected {
        /// Waiting requests at rejection time.
        depth: usize,
        /// The queue bound.
        capacity: usize,
    },
    /// A compilation panicked; the panic was isolated at the worker
    /// boundary and converted into this error.
    CompilePanicked {
        /// The panic payload, when it was a string.
        reason: String,
    },
    /// The compiled program produced a device launch the simulator
    /// rejected (warp cap, `M_local`, malformed static placement, or an
    /// admission deadlock). Reported as a value so a malformed launch
    /// cannot take a serving worker down outside its `catch_unwind`
    /// boundary.
    MalformedLaunch {
        /// The simulator's typed rejection.
        source: accel_sim::SimError,
    },
}

impl std::fmt::Display for MikPolyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MikPolyError::DeadlineExceeded { operator } => {
                write!(f, "compile deadline exceeded for {operator}")
            }
            MikPolyError::NoFeasibleStrategy { operator } => {
                write!(f, "no feasible polymerization strategy for {operator}")
            }
            MikPolyError::DeviceFault { device, attempts } => {
                write!(f, "device {device} faulted on all {attempts} attempts")
            }
            MikPolyError::CachePoisoned { operator, attempts } => write!(
                f,
                "cache entry for {operator} failed validation {attempts} times"
            ),
            MikPolyError::QueueRejected { depth, capacity } => {
                write!(f, "queue full ({depth} waiting, capacity {capacity})")
            }
            MikPolyError::CompilePanicked { reason } => {
                write!(f, "compilation panicked: {reason}")
            }
            MikPolyError::MalformedLaunch { source } => {
                write!(f, "malformed device launch: {source}")
            }
        }
    }
}

impl std::error::Error for MikPolyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MikPolyError::MalformedLaunch { source } => Some(source),
            _ => None,
        }
    }
}

/// Renders a `catch_unwind` payload as the human-readable reason it
/// usually carries (panics raised via `panic!("...")` are `String` or
/// `&str` payloads).
pub fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_ir::GemmShape;

    #[test]
    fn errors_display_their_context() {
        let op = Operator::gemm(GemmShape::new(3, 4, 5));
        let cases: Vec<(MikPolyError, &str)> = vec![
            (MikPolyError::DeadlineExceeded { operator: op }, "deadline"),
            (
                MikPolyError::NoFeasibleStrategy { operator: op },
                "feasible",
            ),
            (
                MikPolyError::DeviceFault {
                    device: 2,
                    attempts: 3,
                },
                "device 2",
            ),
            (
                MikPolyError::CachePoisoned {
                    operator: op,
                    attempts: 2,
                },
                "validation",
            ),
            (
                MikPolyError::QueueRejected {
                    depth: 8,
                    capacity: 8,
                },
                "queue full",
            ),
            (
                MikPolyError::CompilePanicked {
                    reason: "boom".into(),
                },
                "boom",
            ),
            (
                MikPolyError::MalformedLaunch {
                    source: accel_sim::SimError::Deadlock { pending: 3 },
                },
                "malformed device launch",
            ),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{text:?} missing {needle:?}");
            // All variants implement std::error::Error.
            let _: &dyn std::error::Error = &err;
        }
    }

    #[test]
    fn panic_reason_extracts_strings() {
        let caught =
            std::panic::catch_unwind(|| panic!("injected")).expect_err("closure must panic");
        assert_eq!(panic_reason(&*caught), "injected");
    }
}
