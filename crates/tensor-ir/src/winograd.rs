//! Winograd `F(2x2, 3x3)` convolution — the paper's future-work item
//! ("we recognize the potential benefits of investigating other convolution
//! implementations, such as Winograd", Section 7), implemented here as an
//! extension.
//!
//! For a unit-stride 3x3 convolution, each 2x2 output tile is computed from
//! a 4x4 input patch with 16 multiplies instead of 36:
//!
//! ```text
//! Y = Aᵀ [ (G g Gᵀ) ⊙ (Bᵀ d B) ] A
//! ```
//!
//! with the classic transform matrices
//!
//! ```text
//! Bᵀ = [1  0 -1  0]      G = [ 1    0    0 ]     Aᵀ = [1 1  1  0]
//!      [0  1  1  0]          [ 1/2  1/2  1/2]          [0 1 -1 -1]
//!      [0 -1  1  0]          [ 1/2 -1/2  1/2]
//!      [0  1  0 -1]          [ 0    0    1 ]
//! ```
//!
//! Summing the element-wise products over input channels turns each of the
//! 16 transform-domain positions into an independent
//! `GEMM(tiles, out_channels, in_channels)` — which is how the Winograd
//! path feeds MikPoly's GEMM polymerizer.

use crate::shape::{Conv2dShape, GemmShape};
use crate::tensor::Tensor;

/// `Bᵀ d B` for a 4x4 patch `d` (input transform).
fn input_transform(d: &[[f32; 4]; 4]) -> [[f32; 4]; 4] {
    // Bᵀ d
    let mut tmp = [[0.0f32; 4]; 4];
    for j in 0..4 {
        tmp[0][j] = d[0][j] - d[2][j];
        tmp[1][j] = d[1][j] + d[2][j];
        tmp[2][j] = -d[1][j] + d[2][j];
        tmp[3][j] = d[1][j] - d[3][j];
    }
    // (Bᵀ d) B
    let mut out = [[0.0f32; 4]; 4];
    for i in 0..4 {
        out[i][0] = tmp[i][0] - tmp[i][2];
        out[i][1] = tmp[i][1] + tmp[i][2];
        out[i][2] = -tmp[i][1] + tmp[i][2];
        out[i][3] = tmp[i][1] - tmp[i][3];
    }
    out
}

/// `G g Gᵀ` for a 3x3 filter `g` (filter transform).
fn filter_transform(g: &[[f32; 3]; 3]) -> [[f32; 4]; 4] {
    // G g
    let mut tmp = [[0.0f32; 3]; 4];
    for j in 0..3 {
        tmp[0][j] = g[0][j];
        tmp[1][j] = 0.5 * (g[0][j] + g[1][j] + g[2][j]);
        tmp[2][j] = 0.5 * (g[0][j] - g[1][j] + g[2][j]);
        tmp[3][j] = g[2][j];
    }
    // (G g) Gᵀ
    let mut out = [[0.0f32; 4]; 4];
    for i in 0..4 {
        out[i][0] = tmp[i][0];
        out[i][1] = 0.5 * (tmp[i][0] + tmp[i][1] + tmp[i][2]);
        out[i][2] = 0.5 * (tmp[i][0] - tmp[i][1] + tmp[i][2]);
        out[i][3] = tmp[i][2];
    }
    out
}

/// `Aᵀ m A` for a 4x4 transform-domain accumulator (output transform).
fn output_transform(m: &[[f32; 4]; 4]) -> [[f32; 2]; 2] {
    let mut tmp = [[0.0f32; 4]; 2];
    for j in 0..4 {
        tmp[0][j] = m[0][j] + m[1][j] + m[2][j];
        tmp[1][j] = m[1][j] - m[2][j] - m[3][j];
    }
    let mut out = [[0.0f32; 2]; 2];
    for i in 0..2 {
        out[i][0] = tmp[i][0] + tmp[i][1] + tmp[i][2];
        out[i][1] = tmp[i][1] - tmp[i][2] - tmp[i][3];
    }
    out
}

/// Whether a convolution is eligible for the `F(2x2, 3x3)` path.
pub fn winograd_applicable(shape: &Conv2dShape) -> bool {
    shape.kernel_h == 3 && shape.kernel_w == 3 && shape.stride == 1
}

/// Number of 2x2 output tiles per image.
pub(crate) fn tiles_per_image(shape: &Conv2dShape) -> (usize, usize) {
    (shape.out_h().div_ceil(2), shape.out_w().div_ceil(2))
}

/// The transform-domain GEMM shape of the Winograd path: each of the 16
/// positions runs `GEMM(batch · tiles, out_channels, in_channels)`; the
/// flattened iteration space stacks them along `M`.
///
/// # Panics
///
/// Panics if the shape is not a unit-stride 3x3 convolution.
pub fn winograd_gemm_shape(shape: &Conv2dShape) -> GemmShape {
    assert!(
        winograd_applicable(shape),
        "Winograd F(2x2, 3x3) requires a 3x3 filter with stride 1, got {shape}"
    );
    let (th, tw) = tiles_per_image(shape);
    GemmShape::new(
        16 * shape.batch * th * tw,
        shape.out_channels,
        shape.in_channels,
    )
}

/// Reference Winograd `F(2x2, 3x3)` convolution in NCHW / OIHW layout.
///
/// Produces the same values as [`crate::reference_conv2d`] (up to fp32
/// rounding) via the transform-domain route: the test suite checks the
/// equivalence, which is what justifies routing Winograd through the GEMM
/// polymerizer.
///
/// # Panics
///
/// Panics if the shape is not a unit-stride 3x3 convolution or operands
/// mismatch.
pub fn winograd_conv2d(shape: Conv2dShape, input: &Tensor, filter: &Tensor) -> Tensor {
    assert!(
        winograd_applicable(&shape),
        "not a Winograd-eligible shape: {shape}"
    );

    assert_eq!(
        input.dims(),
        &[shape.batch, shape.in_channels, shape.height, shape.width],
        "input must be NCHW"
    );
    assert_eq!(
        filter.dims(),
        &[shape.out_channels, shape.in_channels, 3, 3],
        "filter must be OIHW 3x3"
    );
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let (th, tw) = tiles_per_image(&shape);
    let pad = shape.padding as isize;
    let in_data = input.as_slice();
    let f_data = filter.as_slice();

    // Pre-transform all filters: u[oc][ic] is a 4x4 matrix.
    let mut u = vec![[[0.0f32; 4]; 4]; shape.out_channels * shape.in_channels];
    for oc in 0..shape.out_channels {
        for ic in 0..shape.in_channels {
            let base = (oc * shape.in_channels + ic) * 9;
            let mut g = [[0.0f32; 3]; 3];
            for r in 0..3 {
                for c in 0..3 {
                    g[r][c] = f_data[base + r * 3 + c];
                }
            }
            u[oc * shape.in_channels + ic] = filter_transform(&g);
        }
    }

    let mut out = Tensor::zeros(&[shape.batch, shape.out_channels, oh, ow]);
    let out_data = out.as_mut_slice();
    let istride_c = shape.height * shape.width;
    let istride_n = shape.in_channels * istride_c;

    for n in 0..shape.batch {
        for ty in 0..th {
            for tx in 0..tw {
                // Input transforms for this tile across channels.
                let mut v = vec![[[0.0f32; 4]; 4]; shape.in_channels];
                for (ic, vc) in v.iter_mut().enumerate() {
                    let mut d = [[0.0f32; 4]; 4];
                    for (r, drow) in d.iter_mut().enumerate() {
                        for (c, dv) in drow.iter_mut().enumerate() {
                            let iy = (2 * ty + r) as isize - pad;
                            let ix = (2 * tx + c) as isize - pad;
                            *dv = if iy < 0
                                || iy >= shape.height as isize
                                || ix < 0
                                || ix >= shape.width as isize
                            {
                                0.0
                            } else {
                                in_data[n * istride_n
                                    + ic * istride_c
                                    + iy as usize * shape.width
                                    + ix as usize]
                            };
                        }
                    }
                    *vc = input_transform(&d);
                }
                for oc in 0..shape.out_channels {
                    // Transform-domain accumulation: 16 multiplies per
                    // input channel.
                    let mut m = [[0.0f32; 4]; 4];
                    for (ic, vc) in v.iter().enumerate() {
                        let uf = &u[oc * shape.in_channels + ic];
                        for r in 0..4 {
                            for c in 0..4 {
                                m[r][c] += uf[r][c] * vc[r][c];
                            }
                        }
                    }
                    let y = output_transform(&m);
                    for (r, yrow) in y.iter().enumerate() {
                        for (c, &yv) in yrow.iter().enumerate() {
                            let (oy, ox) = (2 * ty + r, 2 * tx + c);
                            if oy < oh && ox < ow {
                                out_data[((n * shape.out_channels + oc) * oh + oy) * ow + ox] = yv;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::reference_conv2d;

    #[test]
    fn winograd_matches_direct_convolution() {
        for (b, ic, hw, oc, pad) in [
            (1usize, 1usize, 8usize, 1usize, 1usize),
            (2, 3, 10, 4, 1),
            (1, 5, 7, 3, 0),
        ] {
            let shape = Conv2dShape::new(b, ic, hw, hw, oc, 3, 3, 1, pad);
            let input = Tensor::random(&[b, ic, hw, hw], 51);
            let filter = Tensor::random(&[oc, ic, 3, 3], 52);
            let direct = reference_conv2d(shape, &input, &filter);
            let wino = winograd_conv2d(shape, &input, &filter);
            assert!(
                wino.approx_eq(&direct, 1e-3),
                "{shape}: max diff {}",
                wino.max_abs_diff(&direct)
            );
        }
    }

    #[test]
    fn gemm_shape_counts_16_positions() {
        let shape = Conv2dShape::square(2, 64, 56, 128, 3, 1);
        let g = winograd_gemm_shape(&shape);
        // 56x56 output -> 28x28 tiles per image.
        assert_eq!(g.m, 16 * 2 * 28 * 28);
        assert_eq!(g.n, 128);
        assert_eq!(g.k, 64);
    }

    #[test]
    fn winograd_uses_2_25x_fewer_gemm_flops() {
        let shape = Conv2dShape::square(1, 64, 56, 64, 3, 1);
        let direct = shape.flops();
        let wino = winograd_gemm_shape(&shape).flops();
        let ratio = direct / wino;
        assert!((2.0..2.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn applicability_is_3x3_stride_1_only() {
        assert!(winograd_applicable(&Conv2dShape::square(1, 8, 16, 8, 3, 1)));
        assert!(!winograd_applicable(&Conv2dShape::square(
            1, 8, 16, 8, 3, 2
        )));
        assert!(!winograd_applicable(&Conv2dShape::square(
            1, 8, 16, 8, 5, 1
        )));
    }

    #[test]
    #[should_panic(expected = "Winograd F(2x2, 3x3) requires")]
    fn gemm_shape_rejects_ineligible_filters() {
        let _ = winograd_gemm_shape(&Conv2dShape::square(1, 8, 16, 8, 5, 1));
    }

    #[test]
    fn odd_output_sizes_are_handled_by_tile_clipping() {
        let shape = Conv2dShape::new(1, 2, 9, 9, 2, 3, 3, 1, 1);
        assert_eq!(shape.out_h(), 9); // odd
        let input = Tensor::random(&[1, 2, 9, 9], 61);
        let filter = Tensor::random(&[2, 2, 3, 3], 62);
        let direct = reference_conv2d(shape, &input, &filter);
        let wino = winograd_conv2d(shape, &input, &filter);
        assert!(wino.approx_eq(&direct, 1e-3));
    }
}
