//! Dynamic-shape tensor operators.

use serde::{Deserialize, Serialize};

use crate::dtype::DType;
use crate::shape::{Conv2dShape, GemmShape};

/// A tensor operator whose shape becomes known at runtime.
///
/// Every operator the MikPoly pipeline optimizes reduces to a GEMM-shaped
/// iteration space via [`Operator::gemm_view`]: convolutions take the
/// implicit-GEMM (im2col) route the paper's implementation uses, and batched
/// GEMMs (attention) flatten the batch into the row dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operator {
    /// Plain matrix multiplication.
    Gemm {
        /// Problem shape.
        shape: GemmShape,
        /// Element type of the operands.
        dtype: DType,
    },
    /// Batched matrix multiplication (e.g. attention score/context GEMMs).
    BatchedGemm {
        /// Number of independent GEMMs.
        batch: usize,
        /// Per-instance problem shape.
        shape: GemmShape,
        /// Element type of the operands.
        dtype: DType,
    },
    /// 2-D convolution, lowered to implicit GEMM.
    Conv2d {
        /// Problem shape.
        shape: Conv2dShape,
        /// Element type of the operands.
        dtype: DType,
    },
    /// 2-D convolution through the Winograd `F(2x2, 3x3)` transform domain
    /// (extension; the paper's Section 7 future-work item). Only valid for
    /// unit-stride 3x3 filters.
    Conv2dWinograd {
        /// Problem shape.
        shape: Conv2dShape,
        /// Element type of the operands.
        dtype: DType,
    },
}

/// The GEMM-shaped view of an operator: the iteration space handed to the
/// polymerizer, plus the extra global-load traffic its data access pattern
/// incurs relative to a plain GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GemmView {
    /// Flattened `M x N x K` iteration space.
    pub shape: GemmShape,
    /// Element type.
    pub dtype: DType,
    /// Multiplier on operand load traffic (1.0 for GEMM; > 1 for the im2col
    /// gather of dense convolution filters).
    pub load_scale: f64,
}

impl Operator {
    /// An fp16 GEMM operator.
    pub fn gemm(shape: GemmShape) -> Self {
        Operator::Gemm {
            shape,
            dtype: DType::F16,
        }
    }

    /// An fp16 batched GEMM operator.
    pub fn batched_gemm(batch: usize, shape: GemmShape) -> Self {
        assert!(batch > 0, "batch must be positive");
        Operator::BatchedGemm {
            batch,
            shape,
            dtype: DType::F16,
        }
    }

    /// An fp16 convolution operator.
    pub fn conv2d(shape: Conv2dShape) -> Self {
        Operator::Conv2d {
            shape,
            dtype: DType::F16,
        }
    }

    /// An fp16 Winograd-path convolution operator.
    ///
    /// # Panics
    ///
    /// Panics where [`Operator::try_conv2d_winograd`] errs.
    pub fn conv2d_winograd(shape: Conv2dShape) -> Self {
        Self::try_conv2d_winograd(shape).unwrap_or_else(|e| panic!("{e}"))
    }

    /// An fp16 Winograd-path convolution operator, or why the shape has
    /// none.
    ///
    /// # Errors
    ///
    /// When the shape is not a unit-stride 3x3 convolution, or the
    /// transform-domain GEMM's `16 · batch · tiles` rows
    /// ([`crate::winograd_gemm_shape`]) overflow `usize`.
    pub fn try_conv2d_winograd(shape: Conv2dShape) -> Result<Self, String> {
        if !crate::winograd::winograd_applicable(&shape) {
            return Err(format!(
                "Winograd F(2x2, 3x3) requires a 3x3 filter with stride 1, got {shape}"
            ));
        }
        let (th, tw) = crate::winograd::tiles_per_image(&shape);
        let rows = th
            .checked_mul(tw)
            .and_then(|tiles| tiles.checked_mul(shape.batch))
            .and_then(|m| m.checked_mul(16));
        if rows.is_none() {
            return Err("Winograd transform-domain extents overflow usize".into());
        }
        Ok(Operator::Conv2dWinograd {
            shape,
            dtype: DType::F16,
        })
    }

    /// The element type of the operator's inputs.
    pub fn dtype(&self) -> DType {
        match *self {
            Operator::Gemm { dtype, .. }
            | Operator::BatchedGemm { dtype, .. }
            | Operator::Conv2d { dtype, .. }
            | Operator::Conv2dWinograd { dtype, .. } => dtype,
        }
    }

    /// Total floating-point work.
    pub fn flops(&self) -> f64 {
        match *self {
            Operator::Gemm { shape, .. } => shape.flops(),
            Operator::BatchedGemm { batch, shape, .. } => batch as f64 * shape.flops(),
            Operator::Conv2d { shape, .. } => shape.flops(),
            // The transform-domain GEMMs do 16/36 of the direct multiplies.
            Operator::Conv2dWinograd { shape, .. } => {
                crate::winograd::winograd_gemm_shape(&shape).flops()
            }
        }
    }

    /// The flattened GEMM iteration space the polymerizer optimizes.
    pub fn gemm_view(&self) -> GemmView {
        match *self {
            Operator::Gemm { shape, dtype } => GemmView {
                shape,
                dtype,
                load_scale: 1.0,
            },
            Operator::BatchedGemm {
                batch,
                shape,
                dtype,
            } => GemmView {
                shape: GemmShape::new(batch * shape.m, shape.n, shape.k),
                dtype,
                load_scale: 1.0,
            },
            Operator::Conv2d { shape, dtype } => GemmView {
                shape: shape.as_gemm(),
                dtype,
                load_scale: shape.gather_load_scale(),
            },
            Operator::Conv2dWinograd { shape, dtype } => GemmView {
                shape: crate::winograd::winograd_gemm_shape(&shape),
                dtype,
                // The 4x4 transform domain is 4x larger than the 2x2 output
                // tiles it produces, and patches overlap: the GEMM stage
                // reads roughly twice the traffic of an equal-FLOP plain
                // GEMM.
                load_scale: 2.0,
            },
        }
    }

    /// A short kind label ("gemm", "batched-gemm", "conv2d").
    pub fn kind(&self) -> &'static str {
        match self {
            Operator::Gemm { .. } => "gemm",
            Operator::BatchedGemm { .. } => "batched-gemm",
            Operator::Conv2d { .. } => "conv2d",
            Operator::Conv2dWinograd { .. } => "conv2d-winograd",
        }
    }
}

impl std::fmt::Display for Operator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Operator::Gemm { shape, dtype } => write!(f, "gemm{shape} {dtype}"),
            Operator::BatchedGemm {
                batch,
                shape,
                dtype,
            } => {
                write!(f, "bgemm[{batch}]{shape} {dtype}")
            }
            Operator::Conv2d { shape, dtype } => write!(f, "{shape} {dtype}"),
            Operator::Conv2dWinograd { shape, dtype } => {
                write!(f, "winograd-{shape} {dtype}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_view_of_gemm_is_identity() {
        let op = Operator::gemm(GemmShape::new(128, 256, 64));
        let v = op.gemm_view();
        assert_eq!(v.shape, GemmShape::new(128, 256, 64));
        assert_eq!(v.load_scale, 1.0);
    }

    #[test]
    fn batched_gemm_flattens_batch_into_rows() {
        let op = Operator::batched_gemm(12, GemmShape::new(128, 128, 64));
        assert_eq!(op.gemm_view().shape.m, 12 * 128);
        assert_eq!(op.flops(), 12.0 * 2.0 * 128.0 * 128.0 * 64.0);
    }

    #[test]
    fn conv_view_matches_im2col_dims() {
        let c = Conv2dShape::square(4, 64, 56, 128, 3, 1);
        let op = Operator::conv2d(c);
        assert_eq!(op.gemm_view().shape, c.as_gemm());
        assert!(op.gemm_view().load_scale > 1.0);
        assert_eq!(op.flops(), c.flops());
    }

    #[test]
    fn winograd_rejects_other_filters_and_overflowing_views() {
        let strided = Conv2dShape::new(1, 1, 8, 8, 1, 5, 5, 1, 0);
        let err = Operator::try_conv2d_winograd(strided).unwrap_err();
        assert!(err.starts_with("Winograd F(2x2, 3x3) requires"), "{err}");
        // 2^62 images of one tile each: 16 · batch wraps.
        let huge = Conv2dShape::new(1 << 62, 1, 1, 1, 1, 3, 3, 1, 1);
        assert_eq!(
            Operator::try_conv2d_winograd(huge).unwrap_err(),
            "Winograd transform-domain extents overflow usize"
        );
        let fine = Conv2dShape::square(2, 16, 14, 32, 3, 1);
        assert_eq!(
            Operator::try_conv2d_winograd(fine),
            Ok(Operator::conv2d_winograd(fine))
        );
    }

    #[test]
    fn kind_labels() {
        assert_eq!(Operator::gemm(GemmShape::new(1, 1, 1)).kind(), "gemm");
        assert_eq!(
            Operator::conv2d(Conv2dShape::square(1, 1, 8, 1, 1, 1)).kind(),
            "conv2d"
        );
    }

    #[test]
    fn display_is_compact() {
        let op = Operator::gemm(GemmShape::new(105, 1024, 12544));
        assert_eq!(op.to_string(), "gemm(105, 1024, 12544) f16");
    }
}
