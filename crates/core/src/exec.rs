//! Functional execution of compiled programs.
//!
//! The simulator only times a polymerized program; this module *computes*
//! it, tile by tile, exactly as the emitted regions prescribe — including
//! local padding (out-of-bounds operand reads see zero, out-of-bounds
//! writes are suppressed). Running a compiled program here and comparing
//! against [`tensor_ir::reference_gemm`] verifies that polymerization
//! produced a correct program for the runtime shape, the property DietCode
//! loses outside its declared ranges (Table 5's "invalid runs").

use tensor_ir::{filter_as_matrix, im2col, Conv2dShape, Operator, Tensor};

use crate::plan::CompiledProgram;

/// Executes a compiled GEMM program on `A [M,K]` and `B [K,N]`, returning
/// `C [M,N]`.
///
/// # Panics
///
/// Panics if the program is not a GEMM (or batched GEMM flattened to one),
/// if operand shapes do not match the program's view, or if the program's
/// regions do not exactly cover the output.
pub fn execute_gemm(program: &CompiledProgram, a: &Tensor, b: &Tensor) -> Tensor {
    let shape = program.view.shape;
    assert_eq!(a.dims(), &[shape.m, shape.k], "A must be M x K");
    assert_eq!(b.dims(), &[shape.k, shape.n], "B must be K x N");
    program
        .verify_coverage()
        .expect("compiled program must cover the output exactly");

    let mut c = Tensor::zeros(&[shape.m, shape.n]);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let c_data = c.as_mut_slice();
    let (kdim, ndim) = (shape.k, shape.n);

    for region in &program.regions {
        let kern = region.kernel;
        // Tile grid with local padding: tiles start on kernel boundaries
        // relative to the region origin; reads/writes are clipped to the
        // region (writes) and the operand extents (reads).
        let mut r0 = region.row0;
        while r0 < region.row1 {
            let r1 = (r0 + kern.um).min(region.row1);
            let mut c0 = region.col0;
            while c0 < region.col1 {
                let c1 = (c0 + kern.un).min(region.col1);
                // The pipelined task: iterate the reduction in uK slices.
                let mut k0 = 0usize;
                while k0 < kdim {
                    let k1 = (k0 + kern.uk).min(kdim);
                    for i in r0..r1 {
                        for p in k0..k1 {
                            let av = a_data[i * kdim + p];
                            if av == 0.0 {
                                continue;
                            }
                            let brow = &b_data[p * ndim + c0..p * ndim + c1];
                            let crow = &mut c_data[i * ndim + c0..i * ndim + c1];
                            for (cv, bv) in crow.iter_mut().zip(brow) {
                                *cv += av * bv;
                            }
                        }
                    }
                    k0 = k1;
                }
                c0 = c1;
            }
            r0 = r1;
        }
    }
    c
}

/// Executes a compiled convolution program on an NCHW `input` and OIHW
/// `filter`, returning the NCHW output.
///
/// The implicit-GEMM route of the paper: im2col the input, reshape the
/// filter, run the polymerized GEMM, fold the `[M, N]` result back to
/// `[batch, out_channels, out_h, out_w]`.
///
/// # Panics
///
/// Panics if the program's operator is not this convolution or operand
/// shapes mismatch.
pub fn execute_conv2d(program: &CompiledProgram, input: &Tensor, filter: &Tensor) -> Tensor {
    let shape = match program.operator {
        Operator::Conv2d { shape, .. } => shape,
        ref other => panic!("execute_conv2d requires a conv2d program, got {other}"),
    };
    let a = im2col(shape, input);
    let b = filter_as_matrix(shape, filter);
    let c = execute_gemm(program, &a, &b);
    fold_conv_output(shape, &c)
}

/// Rearranges the `[batch * out_h * out_w, out_channels]` GEMM output into
/// NCHW.
fn fold_conv_output(shape: Conv2dShape, c: &Tensor) -> Tensor {
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let n = shape.out_channels;
    let src = c.as_slice();
    let mut out = Tensor::zeros(&[shape.batch, shape.out_channels, oh, ow]);
    let dst = out.as_mut_slice();
    for b in 0..shape.batch {
        for oc in 0..n {
            for y in 0..oh {
                for x in 0..ow {
                    let row = (b * oh + y) * ow + x;
                    dst[((b * n + oc) * oh + y) * ow + x] = src[row * n + oc];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::try_polymerize;
    use crate::cost::CostModelKind;
    use crate::offline::{MicroKernelLibrary, OfflineOptions};
    use crate::pattern::gpu_patterns;
    use crate::search::SearchPolicy;
    use accel_sim::MachineModel;
    use tensor_ir::{reference_conv2d, reference_gemm, GemmShape};

    fn lib() -> (MachineModel, MicroKernelLibrary) {
        let m = MachineModel::a100();
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        (m.clone(), MicroKernelLibrary::generate(&m, &o))
    }

    fn compile(m: &MachineModel, l: &MicroKernelLibrary, op: Operator) -> CompiledProgram {
        try_polymerize(
            m,
            l,
            &op.gemm_view(),
            op,
            &gpu_patterns(),
            CostModelKind::Full,
            true,
            &SearchPolicy::default(),
            None,
        )
        .expect("search")
        .program
    }

    #[test]
    fn polymerized_gemm_matches_reference() {
        let (m, l) = lib();
        for &(mm, nn, kk) in &[(64, 64, 64), (100, 70, 33), (1, 130, 7), (257, 33, 96)] {
            let shape = GemmShape::new(mm, nn, kk);
            let prog = compile(&m, &l, Operator::gemm(shape));
            let a = Tensor::random(&[mm, kk], 1);
            let b = Tensor::random(&[kk, nn], 2);
            let got = execute_gemm(&prog, &a, &b);
            let want = reference_gemm(shape, &a, &b);
            mikpoly_conformance::assert_matches_reference(
                &got,
                &want,
                &format!("gemm ({mm},{nn},{kk})"),
            );
        }
    }

    #[test]
    fn polymerized_conv_matches_reference() {
        let (m, l) = lib();
        let shape = Conv2dShape::new(2, 5, 9, 9, 7, 3, 3, 1, 1);
        let prog = compile(&m, &l, Operator::conv2d(shape));
        let input = Tensor::random(&[2, 5, 9, 9], 3);
        let filter = Tensor::random(&[7, 5, 3, 3], 4);
        let got = execute_conv2d(&prog, &input, &filter);
        let want = reference_conv2d(shape, &input, &filter);
        mikpoly_conformance::assert_matches_reference(&got, &want, &format!("{shape}"));
    }

    #[test]
    #[should_panic(expected = "A must be M x K")]
    fn mismatched_operands_rejected() {
        let (m, l) = lib();
        let prog = compile(&m, &l, Operator::gemm(GemmShape::new(8, 8, 8)));
        let a = Tensor::zeros(&[4, 8]);
        let b = Tensor::zeros(&[8, 8]);
        let _ = execute_gemm(&prog, &a, &b);
    }

    #[test]
    #[should_panic(expected = "requires a conv2d program")]
    fn conv_executor_rejects_winograd_program() {
        // The Winograd path runs through the GEMM template and its own
        // transform-domain execution, not the im2col executor.
        let (m, l) = lib();
        let shape = Conv2dShape::new(1, 4, 8, 8, 4, 3, 3, 1, 1);
        let prog = compile(&m, &l, Operator::conv2d_winograd(shape));
        let t = Tensor::zeros(&[1, 4, 8, 8]);
        let f = Tensor::zeros(&[4, 4, 3, 3]);
        let _ = execute_conv2d(&prog, &t, &f);
    }

    #[test]
    #[should_panic(expected = "requires a conv2d program")]
    fn conv_executor_rejects_gemm_program() {
        let (m, l) = lib();
        let prog = compile(&m, &l, Operator::gemm(GemmShape::new(8, 8, 8)));
        let t = Tensor::zeros(&[1, 1, 4, 4]);
        let _ = execute_conv2d(&prog, &t, &t);
    }
}
