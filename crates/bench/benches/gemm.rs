//! Criterion: the register-tiled GEMM subsystem at MLP-representative
//! shapes, and the stencil CNN's convolution with and without a column
//! matrix. Throughput is reported in elements/s where one "element" is one
//! FLOP (`2*m*n*k` per call), i.e. the numbers read directly as FLOP/s.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpacml_tensor::gemm::{self, ASource, BSource, PackedA, PackedB};
use hpacml_tensor::{ops, Act, Epilogue, Tensor};
use std::hint::black_box;

/// The w128 MLP's three layers at batch 1024, plus the 4-filter conv GEMM
/// shape of the CNN baseline (`out[f, oh*ow] = W[f, ckk] · col`).
const SHAPES: [(usize, usize, usize); 4] = [
    (1024, 6, 128),
    (1024, 128, 64),
    (1024, 64, 1),
    (4, 36, 1152),
];

fn mat(m: usize, n: usize, seed: u64) -> Tensor<f32> {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Tensor::from_shape_fn([m, n], |_| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    })
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");

    for &(m, k, n) in &SHAPES {
        let flops = 2 * m * n * k;
        let a = mat(m, k, 1);
        let bt = mat(n, k, 2);
        let bp = PackedB::from_transb(&bt).unwrap();
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.01).collect();
        let mut out = Tensor::<f32>::zeros([m, n]);
        group.throughput(Throughput::Elements(flops as u64));

        // Steady-state Linear kernel: pre-packed weights, bare epilogue.
        group.bench_function(BenchmarkId::new("packed", format!("{m}x{k}x{n}")), |b| {
            b.iter(|| {
                gemm::matmul_transb_packed_into(
                    black_box(&a),
                    black_box(&bp),
                    Epilogue::none(),
                    &mut out,
                )
                .unwrap();
                black_box(out.data());
            });
        });

        // Fused bias+activation epilogue on the same shape.
        group.bench_function(
            BenchmarkId::new("packed_bias_relu", format!("{m}x{k}x{n}")),
            |b| {
                b.iter(|| {
                    gemm::matmul_transb_packed_into(
                        black_box(&a),
                        black_box(&bp),
                        Epilogue::col_bias(&bias).with_act(Some(Act::Relu)),
                        &mut out,
                    )
                    .unwrap();
                    black_box(out.data());
                });
            },
        );
    }

    // The conv route: row-major A (weights) against an unpacked [k, n]
    // column matrix, the exact operand layout im2col produces.
    let (f, ckk, l) = (4usize, 36usize, 1152usize);
    let w = mat(f, ckk, 3);
    let pa = PackedA::from_rows(w.data(), f, ckk);
    let col = mat(ckk, l, 4);
    let bias = vec![0.1f32; f];
    let mut out = vec![0.0f32; f * l];
    group.throughput(Throughput::Elements((2 * f * ckk * l) as u64));
    group.bench_function(
        BenchmarkId::new("conv_cols_bias_tanh", format!("{f}x{ckk}x{l}")),
        |b| {
            b.iter(|| {
                gemm::gemm_into(
                    f,
                    l,
                    ckk,
                    ASource::Packed(&pa),
                    BSource::Cols(black_box(col.data())),
                    Epilogue::row_bias(&bias).with_act(Some(Act::Tanh)),
                    &mut out,
                );
                black_box(&out);
            });
        },
    );

    // What model load pays, once: packing the w128 layer's weight panels.
    let bt = mat(128, 6, 5);
    let mut packed = PackedB::from_transb(&bt).unwrap();
    group.throughput(Throughput::Elements((128 * 6) as u64));
    group.bench_function("pack_b_128x6", |b| {
        b.iter(|| {
            packed.pack_rows_into(black_box(bt.data()), 128, 6);
            black_box(&packed);
        });
    });

    group.finish();
}

/// The stencil CNN's convolution (4 → 4 channels, 3×3, pad 1, on a 32×64
/// grid, batch 1), two ways: im2col into a column matrix then the GEMM
/// over it — the route stride-1 convolutions used to take, built here from
/// the public pieces — and the forward the layer runs, which reads the
/// padded input planes in place. Same bits, different data movement.
fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv");
    let (ch, f, h, w) = (4usize, 4usize, 32usize, 64usize);
    let g = ops::Conv2dGeom::square(3, 1, 1);
    let (oh, ow) = g.out_hw(h, w);
    let (l, ckk) = (oh * ow, ch * 9);
    let x = mat(1, ch * h * w, 6).reshape([1, ch, h, w]).unwrap();
    let wt = mat(f, ckk, 7);
    let pa = PackedA::from_rows(wt.data(), f, ckk);
    let wt = wt.reshape([f, ch, 3, 3]).unwrap();
    let bias = vec![0.1f32; f];
    let epi = Epilogue::row_bias(&bias).with_act(Some(Act::Tanh));
    group.throughput(Throughput::Elements((2 * f * ckk * l) as u64));
    let shape = format!("{f}x{ch}x3x3_{h}x{w}");

    let mut col = vec![0.0f32; ckk * l];
    let mut out = vec![0.0f32; f * l];
    group.bench_function(BenchmarkId::new("im2col_gemm", &shape), |b| {
        b.iter(|| {
            ops::im2col(black_box(x.data()), ch, h, w, g, &mut col);
            gemm::gemm_into(
                f,
                l,
                ckk,
                ASource::Packed(&pa),
                BSource::Cols(&col),
                epi,
                &mut out,
            );
            black_box(&out);
        });
    });

    let mut y = Tensor::<f32>::zeros([1, f, oh, ow]);
    group.bench_function(BenchmarkId::new("conv2d_fused", &shape), |b| {
        b.iter(|| {
            ops::conv2d_fused_into(
                black_box(&x),
                &wt,
                Some(&pa),
                &bias,
                g,
                Some(Act::Tanh),
                &mut y,
            )
            .unwrap();
            black_box(y.data());
        });
    });
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_conv);
criterion_main!(benches);
