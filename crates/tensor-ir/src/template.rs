//! Two-stage program templates (Fig. 3 of the paper).
//!
//! A tiled program template `Q` for a tensor operator is split into
//! `Q_offline` — the innermost loops, sized to exploit `M_local`, which
//! together form the *micro-kernel template* `K̃` — and `Q_online` — the
//! surrounding loops, restructured at runtime by polymerization. The
//! rendering produced by [`TwoStageTemplate`]'s `Display` mirrors the
//! paper's figure:
//!
//! ```text
//! // online loops (polymerized at runtime)
//! for m1 in 0..ceil(M / uM):            // parallel
//!   for n1 in 0..ceil(N / uN):          // parallel
//!     for k1 in 0..ceil(K / uK):        // reduction, pipelined
//!       // offline loops (micro-kernel template K~)
//!       micro_kernel(uM, uN, uK)
//! ```

use serde::{Deserialize, Serialize};

/// An iteration axis of a GEMM-shaped operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Axis {
    /// Output rows (parallel).
    M,
    /// Output columns (parallel).
    N,
    /// Reduction depth (sequential, pipelined on one PE).
    K,
}

impl Axis {
    /// Whether iterations along this axis can execute in parallel on
    /// different PEs.
    pub fn is_parallel(self) -> bool {
        !matches!(self, Axis::K)
    }

    /// The conventional tile-parameter name (`uM`, `uN`, `uK`).
    pub fn tile_param(self) -> &'static str {
        match self {
            Axis::M => "uM",
            Axis::N => "uN",
            Axis::K => "uK",
        }
    }

    /// The conventional extent name (`M`, `N`, `K`).
    pub fn extent_name(self) -> &'static str {
        match self {
            Axis::M => "M",
            Axis::N => "N",
            Axis::K => "K",
        }
    }
}

/// The extent of a loop in a template.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Extent {
    /// Known at template-construction time.
    Static(usize),
    /// A runtime-determined dimension (dynamic shape), e.g. the sequence
    /// length in BERT.
    Dynamic(String),
    /// A tile-size parameter fixed per micro-kernel in the offline stage.
    TileParam(String),
}

impl std::fmt::Display for Extent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Extent::Static(v) => write!(f, "{v}"),
            Extent::Dynamic(name) => write!(f, "{name}*"),
            Extent::TileParam(name) => write!(f, "{name}"),
        }
    }
}

/// One loop of a template.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Loop {
    /// The axis this loop iterates.
    pub axis: Axis,
    /// Its extent.
    pub extent: Extent,
}

/// The micro-kernel template `K̃`: the offline loops of `Q`, parameterized
/// by tile sizes `(uM, uN, uK)` and optimized for `M_local`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicroKernelTemplate {
    /// The offline loops, innermost last.
    pub loops: Vec<Loop>,
}

impl MicroKernelTemplate {
    /// The GEMM micro-kernel template: `uM x uN x uK` offline loops.
    pub fn gemm() -> Self {
        Self {
            loops: [Axis::M, Axis::N, Axis::K]
                .into_iter()
                .map(|axis| Loop {
                    axis,
                    extent: Extent::TileParam(axis.tile_param().to_string()),
                })
                .collect(),
        }
    }

    /// The tile-parameter names, in loop order.
    pub fn params(&self) -> Vec<&str> {
        self.loops
            .iter()
            .filter_map(|l| match &l.extent {
                Extent::TileParam(name) => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }
}

impl std::fmt::Display for MicroKernelTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "micro_kernel(")?;
        for (i, l) in self.loops.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", l.extent)?;
        }
        write!(f, ")")
    }
}

/// A two-stage program template `Q = Q_online ∘ Q_offline`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TwoStageTemplate {
    /// Operator name (e.g. `"gemm"`).
    pub operator: String,
    /// The online loops, outermost first; restructured at runtime by
    /// polymerization.
    pub online: Vec<Loop>,
    /// The offline loops: the micro-kernel template.
    pub offline: MicroKernelTemplate,
}

impl TwoStageTemplate {
    /// The two-stage GEMM template of Fig. 3 with dynamic `M`, `N`, `K`.
    pub fn gemm() -> Self {
        Self {
            operator: "gemm".to_string(),
            online: [Axis::M, Axis::N, Axis::K]
                .into_iter()
                .map(|axis| Loop {
                    axis,
                    extent: Extent::Dynamic(axis.extent_name().to_string()),
                })
                .collect(),
            offline: MicroKernelTemplate::gemm(),
        }
    }
}

impl std::fmt::Display for TwoStageTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "// two-stage template: {}", self.operator)?;
        writeln!(f, "// online loops (polymerized at runtime)")?;
        let mut indent = String::new();
        for l in &self.online {
            let role = if l.axis.is_parallel() {
                "parallel"
            } else {
                "reduction, pipelined"
            };
            writeln!(
                f,
                "{indent}for {}1 in 0..ceil({} / {}):  // {role}",
                l.axis.extent_name().to_lowercase(),
                l.extent,
                l.axis.tile_param()
            )?;
            indent.push_str("  ");
        }
        writeln!(f, "{indent}// offline loops (micro-kernel template K~)")?;
        write!(f, "{indent}{}", self.offline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_template_has_three_dynamic_axes() {
        let t = TwoStageTemplate::gemm();
        let axes: Vec<Axis> = t.online.iter().map(|l| l.axis).collect();
        assert_eq!(axes, vec![Axis::M, Axis::N, Axis::K]);
        assert!(t
            .online
            .iter()
            .all(|l| matches!(l.extent, Extent::Dynamic(_))));
    }

    #[test]
    fn micro_kernel_params_in_order() {
        let k = MicroKernelTemplate::gemm();
        assert_eq!(k.params(), vec!["uM", "uN", "uK"]);
    }

    #[test]
    fn rendering_mentions_both_stages() {
        let s = TwoStageTemplate::gemm().to_string();
        assert!(s.contains("online loops"));
        assert!(s.contains("micro-kernel template"));
        assert!(s.contains("micro_kernel(uM, uN, uK)"));
        assert!(s.contains("reduction, pipelined"));
    }

    #[test]
    fn k_axis_is_not_parallel() {
        assert!(Axis::M.is_parallel());
        assert!(Axis::N.is_parallel());
        assert!(!Axis::K.is_parallel());
    }
}
