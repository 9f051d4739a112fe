//! Operator shapes.

use serde::{Deserialize, Serialize};

/// The shape of a GEMM `C[M,N] += A[M,K] * B[K,N]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, PartialOrd, Ord)]
pub struct GemmShape {
    /// Rows of `A` and `C`.
    pub m: usize,
    /// Columns of `B` and `C`.
    pub n: usize,
    /// Reduction extent.
    pub k: usize,
}

impl GemmShape {
    /// Creates a GEMM shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        assert!(m > 0 && n > 0 && k > 0, "GEMM dimensions must be positive");
        Self { m, n, k }
    }

    /// Floating-point operations (multiply + add counted separately).
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }
}

impl std::fmt::Display for GemmShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {}, {})", self.m, self.n, self.k)
    }
}

/// The shape of a 2-D convolution in NCHW layout with an OIHW filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dShape {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Filter height.
    pub kernel_h: usize,
    /// Filter width.
    pub kernel_w: usize,
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dShape {
    /// Creates a convolution shape.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero, if the stride is zero, or if the
    /// padded input is smaller than the filter (see
    /// [`Conv2dShape::try_new`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        batch: usize,
        in_channels: usize,
        height: usize,
        width: usize,
        out_channels: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Self::try_new(
            batch,
            in_channels,
            height,
            width,
            out_channels,
            kernel_h,
            kernel_w,
            stride,
            padding,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a convolution shape, or names the constraint it violates.
    ///
    /// # Errors
    ///
    /// When any extent is zero, the stride is zero, the padded input is
    /// smaller than the filter, or the padded input, the implicit-GEMM
    /// view ([`Conv2dShape::as_gemm`]) or the squared stride
    /// ([`Conv2dShape::gather_load_scale`]) overflows `usize`.
    #[allow(clippy::too_many_arguments)]
    pub fn try_new(
        batch: usize,
        in_channels: usize,
        height: usize,
        width: usize,
        out_channels: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, &'static str> {
        const OVERFLOW: &str = "convolution extents overflow usize";
        if [batch, in_channels, height, width, out_channels].contains(&0) {
            return Err("convolution extents must be positive");
        }
        if [kernel_h, kernel_w, stride].contains(&0) {
            return Err("filter and stride must be positive");
        }
        let out = |len: usize, kernel: usize| -> Result<usize, &'static str> {
            let padded = padding
                .checked_mul(2)
                .and_then(|p| len.checked_add(p))
                .ok_or(OVERFLOW)?;
            let span = padded
                .checked_sub(kernel)
                .ok_or("padded input must be at least as large as the filter")?;
            Ok(span / stride + 1)
        };
        let (out_h, out_w) = (out(height, kernel_h)?, out(width, kernel_w)?);
        let m = batch.checked_mul(out_h).and_then(|m| m.checked_mul(out_w));
        let k = in_channels
            .checked_mul(kernel_h)
            .and_then(|k| k.checked_mul(kernel_w));
        if m.is_none() || k.is_none() || stride.checked_mul(stride).is_none() {
            return Err(OVERFLOW);
        }
        Ok(Self {
            batch,
            in_channels,
            height,
            width,
            out_channels,
            kernel_h,
            kernel_w,
            stride,
            padding,
        })
    }

    /// A square-filter convolution with "same"-style padding `k/2`.
    pub fn square(
        batch: usize,
        in_channels: usize,
        resolution: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
    ) -> Self {
        Self::new(
            batch,
            in_channels,
            resolution,
            resolution,
            out_channels,
            kernel,
            kernel,
            stride,
            kernel / 2,
        )
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.height + 2 * self.padding - self.kernel_h) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.width + 2 * self.padding - self.kernel_w) / self.stride + 1
    }

    /// The implicit-GEMM (im2col) view of this convolution:
    /// `M = batch * out_h * out_w`, `N = out_channels`,
    /// `K = in_channels * kernel_h * kernel_w`.
    pub fn as_gemm(&self) -> GemmShape {
        GemmShape::new(
            self.batch * self.out_h() * self.out_w(),
            self.out_channels,
            self.in_channels * self.kernel_h * self.kernel_w,
        )
    }

    /// Floating-point operations of the convolution.
    pub fn flops(&self) -> f64 {
        self.as_gemm().flops()
    }

    /// How much more input data the im2col gather touches than a plain GEMM
    /// operand of the same `M x K` extent would: overlapping receptive
    /// fields are re-read, but strided/pointwise filters read each input
    /// element at most once per covering filter tap.
    pub fn gather_load_scale(&self) -> f64 {
        let taps = (self.kernel_h * self.kernel_w) as f64;
        let stride2 = (self.stride * self.stride) as f64;
        // Fraction of filter taps that fall on distinct input elements.
        1.0 + 0.25 * ((taps / stride2).min(taps) - 1.0).max(0.0).sqrt()
    }
}

impl std::fmt::Display for Conv2dShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conv(n={}, c={}, {}x{}, oc={}, f={}x{}, s={}, p={})",
            self.batch,
            self.in_channels,
            self.height,
            self.width,
            self.out_channels,
            self.kernel_h,
            self.kernel_w,
            self.stride,
            self.padding
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_flops() {
        let s = GemmShape::new(4096, 1024, 4096);
        assert_eq!(s.flops(), 2.0 * 4096.0 * 1024.0 * 4096.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_gemm_dim_rejected() {
        let _ = GemmShape::new(0, 4, 4);
    }

    #[test]
    fn conv_output_dims() {
        // ResNet stem: 7x7/2 on 224x224 with pad 3 -> 112x112.
        let c = Conv2dShape::new(1, 3, 224, 224, 64, 7, 7, 2, 3);
        assert_eq!(c.out_h(), 112);
        assert_eq!(c.out_w(), 112);
    }

    #[test]
    fn try_new_rejects_overflow_instead_of_wrapping() {
        // A padding whose double wraps to a small number.
        assert_eq!(
            Conv2dShape::try_new(1, 1, 2, 2, 1, 5, 5, 1, usize::MAX / 2 + 2),
            Err("convolution extents overflow usize")
        );
        // A padded extent past usize::MAX.
        assert_eq!(
            Conv2dShape::try_new(1, 1, usize::MAX, 1, 1, 1, 1, 1, 1),
            Err("convolution extents overflow usize")
        );
        // An implicit-GEMM M of 2^64 that wraps to 0.
        assert_eq!(
            Conv2dShape::try_new(1 << 32, 1, 1 << 32, 1, 1, 1, 1, 1, 0),
            Err("convolution extents overflow usize")
        );
        // An implicit-GEMM K past usize::MAX.
        assert_eq!(
            Conv2dShape::try_new(1, usize::MAX / 2, 3, 3, 1, 3, 3, 1, 1),
            Err("convolution extents overflow usize")
        );
        // A stride whose square overflows.
        assert_eq!(
            Conv2dShape::try_new(1, 1, 8, 8, 1, 1, 1, 1 << 40, 0),
            Err("convolution extents overflow usize")
        );
        // The filter check still names itself, and the largest view that
        // fits is accepted.
        assert_eq!(
            Conv2dShape::try_new(1, 1, 2, 2, 1, 5, 5, 1, 0),
            Err("padded input must be at least as large as the filter")
        );
        let big = Conv2dShape::try_new(1 << 31, 1, 1 << 31, 1, 1, 1, 1, 1, 0).expect("fits");
        assert_eq!(big.as_gemm().m, 1 << 62);
    }

    #[test]
    fn conv_as_gemm_dims() {
        let c = Conv2dShape::new(2, 16, 16, 16, 32, 3, 3, 1, 1);
        let g = c.as_gemm();
        assert_eq!(g.m, 2 * 16 * 16);
        assert_eq!(g.n, 32);
        assert_eq!(g.k, 16 * 9);
    }

    #[test]
    fn pointwise_conv_has_no_gather_overhead() {
        let c = Conv2dShape::new(1, 64, 14, 14, 128, 1, 1, 1, 0);
        assert!((c.gather_load_scale() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dense_filters_pay_gather_overhead() {
        let c3 = Conv2dShape::square(1, 64, 56, 64, 3, 1);
        let c7 = Conv2dShape::square(1, 3, 224, 64, 7, 2);
        assert!(c3.gather_load_scale() > 1.0);
        assert!(c7.gather_load_scale() > c3.gather_load_scale() * 0.5);
    }

    #[test]
    #[should_panic(expected = "at least as large as the filter")]
    fn filter_larger_than_input_rejected() {
        let _ = Conv2dShape::new(1, 3, 4, 4, 8, 11, 11, 1, 0);
    }

    #[test]
    fn square_helper_uses_same_padding() {
        let c = Conv2dShape::square(1, 8, 32, 16, 3, 1);
        assert_eq!(c.padding, 1);
        assert_eq!(c.out_h(), 32);
    }
}
