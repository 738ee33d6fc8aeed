//! The zero-copy stride-1 convolution is bit-identical to the route it
//! replaced: im2col into a column matrix, then the GEMM over
//! [`BSource::Cols`]. Both keep one chain per output element (`acc = 0`,
//! `acc += w·x` for ascending taps, padding zeros included, then bias, then
//! activation), so the comparison is exact equality, never a tolerance.
//!
//! Two levels:
//! * the GEMM operand itself ([`BSource::Conv`] over [`ops::pad_planes`]
//!   output) at every geometry, however small, and at several slab depths;
//! * the conv forward ([`ops::conv2d_fused_into`]) at geometries that take
//!   the GEMM route, at batch 1 and at a batch as wide as the pool, on pools
//!   of 1, 3 and 8 threads, with pre-packed and row-major weights.

use hpacml_tensor::gemm::{self, ASource, Act, BSource, Epilogue, PackedA, PaddedPlanes, KC, NR};
use hpacml_tensor::ops::{self, Conv2dGeom};
use hpacml_tensor::Tensor;
use proptest::prelude::*;
use proptest::TestCaseError;

const ACTS: [Option<Act>; 4] = [None, Some(Act::Relu), Some(Act::Tanh), Some(Act::Sigmoid)];

fn values(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect()
}

/// The route being replaced, sample by sample: im2col, then the GEMM over
/// the column matrix with row-major weights.
fn im2col_reference(
    input: &[f32],
    [n, c, h, w]: [usize; 4],
    weight: &[f32],
    f: usize,
    bias: &[f32],
    g: Conv2dGeom,
    act: Option<Act>,
) -> Vec<f32> {
    let (oh, ow) = g.out_hw(h, w);
    let (l, ckk) = (oh * ow, c * g.kernel.0 * g.kernel.1);
    let mut col = vec![0.0f32; ckk * l];
    let mut out = vec![0.0f32; n * f * l];
    for (x, y) in input
        .chunks_exact(c * h * w)
        .zip(out.chunks_exact_mut(f * l))
    {
        ops::im2col(x, c, h, w, g, &mut col);
        let epi = Epilogue::row_bias(bias).with_act(act);
        gemm::gemm_into(
            f,
            l,
            ckk,
            ASource::Rows(weight),
            BSource::Cols(&col),
            epi,
            y,
        );
    }
    out
}

/// Conv geometry: channels, filters (MR blocks and every 4/2/1
/// remainder), extents, kernel, pad.
fn geometry() -> impl Strategy<Value = (usize, usize, usize, usize, usize, u64)> {
    (
        1usize..6,
        1usize..20,
        1usize..40,
        1usize..40,
        1usize..6,
        any::<u64>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `BSource::Conv` against im2col + `BSource::Cols` at the GEMM level,
    /// for every geometry (GEMM-worthwhile or not), both weight layouts,
    /// every activation and slab depths from 1 tap up to `KC`.
    #[test]
    fn conv_operand_equals_im2col_columns((c, f, h, w, k, seed) in geometry(), pad in 0usize..3) {
        prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
        let g = Conv2dGeom::square(k, 1, pad);
        let (oh, ow) = g.out_hw(h, w);
        let (l, ckk) = (oh * ow, c * k * k);
        let input = values(c * h * w, seed);
        let weight = values(f * ckk, seed ^ 0x5EED);
        let bias = values(f, seed ^ 0xB1A5);
        let packed = PackedA::from_rows(&weight, f, ckk);
        let mut col = vec![0.0f32; ckk * l];
        ops::im2col(&input, c, h, w, g, &mut col);
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        // Stale non-zero slack: `pad_planes` must zero what it owns.
        let mut padded = vec![7.5f32; c * hp * wp + NR];
        ops::pad_planes(&input, c, h, w, g.pad, &mut padded);
        let planes = PaddedPlanes::new(&padded, c, hp, wp, g.kernel);
        prop_assert_eq!(planes.out_hw(), (oh, ow));
        prop_assert_eq!(planes.taps(), ckk);
        for act in ACTS {
            let epi = Epilogue::row_bias(&bias).with_act(act);
            let mut want = vec![0.0f32; f * l];
            gemm::gemm_into(f, l, ckk, ASource::Rows(&weight), BSource::Cols(&col), epi, &mut want);
            for a in [ASource::Rows(&weight), ASource::Packed(&packed)] {
                for kc in [1usize, 7, KC] {
                    let mut got = vec![f32::NAN; f * l];
                    gemm::gemm_into_kc(f, l, ckk, a, BSource::Conv(planes), epi, &mut got, kc);
                    prop_assert!(
                        got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "c={} f={} {}x{} k={} pad={} act={:?} kc={}", c, f, h, w, k, pad, act, kc
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The conv forward on the GEMM route, batch 1 and batch == pool width,
    /// pools of 1, 3 and 8 threads, packed and row-major weights; the
    /// activation rotates with the case. Channels are raised until the
    /// problem takes the GEMM route.
    #[test]
    fn conv_forward_equals_im2col_route((c, f, h, w, k, seed) in geometry(), pad in 0usize..3) {
        prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
        let g = Conv2dGeom::square(k, 1, pad);
        let (oh, ow) = g.out_hw(h, w);
        let l = oh * ow;
        prop_assume!(l >= 2 * NR);
        let c = c.max((gemm::PAR_FLOPS_MIN).div_ceil(f * k * k * l));
        prop_assert!(ops::conv_gemm_worthwhile(f, c * k * k, l));
        check_forward([c, h, w], f, g, ACTS[seed as usize % ACTS.len()], seed)?;
    }
}

/// Run the forward on every pool width, batch and weight layout and
/// compare with the im2col reference bit for bit.
fn check_forward(
    [c, h, w]: [usize; 3],
    f: usize,
    g: Conv2dGeom,
    act: Option<Act>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let ckk = c * g.kernel.0 * g.kernel.1;
    let weight = values(f * ckk, seed ^ 0x5EED);
    let bias = values(f, seed ^ 0xB1A5);
    let wt = Tensor::from_vec(weight.clone(), [f, c, g.kernel.0, g.kernel.1]).unwrap();
    let packed = PackedA::from_rows(&weight, f, ckk);
    for threads in [1usize, 3, 8] {
        let pool = hpacml_par::Pool::new(threads - 1);
        for n in [1, threads] {
            let dims = [n, c, h, w];
            let input = values(n * c * h * w, seed ^ n as u64);
            let x = Tensor::from_vec(input.clone(), dims).unwrap();
            let want = im2col_reference(&input, dims, &weight, f, &bias, g, act);
            for pw in [None, Some(&packed)] {
                let mut out = Tensor::zeros([0usize; 4]);
                hpacml_par::with_pool(&pool, || {
                    ops::conv2d_fused_into(&x, &wt, pw, &bias, g, act, &mut out).unwrap();
                });
                prop_assert!(
                    out.data().len() == want.len()
                        && out
                            .data()
                            .iter()
                            .zip(&want)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "c={} f={} {}x{} {:?} threads={} n={} act={:?} packed={}",
                    c,
                    f,
                    h,
                    w,
                    g,
                    threads,
                    n,
                    act,
                    pw.is_some()
                );
            }
        }
    }
    Ok(())
}

/// More taps than one cache slab (`c*kh*kw = 288 > KC`): the zero-copy
/// route walks two slabs and resumes each output's chain through `C`.
#[test]
fn taps_beyond_one_slab_resume_through_c() {
    let (c, k) = (32usize, 3usize);
    assert!(c * k * k > KC);
    let g = Conv2dGeom::square(k, 1, 1);
    for (f, h, w, act) in [
        (5usize, 12usize, 21usize, Some(Act::Tanh)),
        (9, 7, 40, None),
    ] {
        check_forward([c, h, w], f, g, act, 0xC0DE).unwrap();
    }
}
