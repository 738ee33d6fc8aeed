//! Criterion: per-invocation overhead of reusing a compiled `Session` vs
//! building one per call on a small MLP region.
//!
//! Three rungs of the ladder, all running the *same* surrogate invocation
//! (gather → infer → scatter) on the same data:
//!
//! * `session_per_call_uncached` — `Region::clear_caches()` plus
//!   `Region::session` before every invocation: the bridge plans are
//!   recompiled, the model handle re-resolved and the assembly layout
//!   re-derived each time (the pre-compiled-pipeline world);
//! * `session_per_call_cached` — `Region::session` per call with warm
//!   caches: compiled state is fetched from the region's caches per call
//!   (hashing + per-call bookkeeping remain);
//! * `session_reuse` — a `Session` compiled once outside the loop: no
//!   lookups, steady-state allocation-free.
//!
//! The acceptance bar for the compiled pipeline is `session_reuse` beating
//! `session_per_call_uncached` by ≥ 2x per invocation; in practice the gap
//! is far larger because plan compilation dwarfs a small MLP's inference.

use criterion::{criterion_group, criterion_main, Criterion};
use hpacml_core::Region;
use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use std::hint::black_box;
use std::path::PathBuf;

const N: usize = 16; // sweep points per invocation (small: overhead-dominated)
const FEATURES: usize = 2;

fn model_path() -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-bench-session");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("small-mlp.hml");
    // ReLU keeps the inference floor tiny so the measurement exposes the
    // *invocation overhead* the compiled pipeline removes, not libm tanh.
    let spec = ModelSpec::mlp(FEATURES, &[16], 1, Activation::ReLU, 0.0);
    let mut model = spec.build(7).unwrap();
    hpacml_nn::serialize::save_model(&path, &spec, &mut model, None, None).unwrap();
    path
}

fn region(model: &std::path::Path) -> Region {
    Region::from_source(
        "bench-session",
        &format!(
            r#"
            #pragma approx tensor functor(rows: [i, 0:2] = ([2*i : 2*i+2]))
            #pragma approx tensor functor(single: [i, 0:1] = ([i]))
            #pragma approx tensor map(to: rows(x[0:N]))
            #pragma approx ml(infer) in(x) out(single(y[0:N])) model("{}")
            "#,
            model.display()
        ),
    )
    .unwrap()
}

fn bench_session_overhead(c: &mut Criterion) {
    let path = model_path();
    let region = region(&path);
    let binds = Bindings::new().with("N", N as i64);
    let x: Vec<f32> = (0..N * FEATURES).map(|k| (k as f32).sin() * 0.5).collect();
    let mut y = vec![0.0f32; N];
    let shapes: [(&str, &[usize]); 2] = [("x", &[N * FEATURES]), ("y", &[N])];

    let mut group = c.benchmark_group("session_overhead");

    group.bench_function("session_per_call_uncached", |b| {
        b.iter(|| {
            region.clear_caches();
            let session = region.session(&binds, &shapes, 1).unwrap();
            let mut out = session
                .invoke()
                .input("x", black_box(&x))
                .unwrap()
                .run(|| unreachable!())
                .unwrap();
            out.output("y", black_box(&mut y)).unwrap();
            out.finish().unwrap();
        });
    });

    group.bench_function("session_per_call_cached", |b| {
        b.iter(|| {
            let session = region.session(&binds, &shapes, 1).unwrap();
            let mut out = session
                .invoke()
                .input("x", black_box(&x))
                .unwrap()
                .run(|| unreachable!())
                .unwrap();
            out.output("y", black_box(&mut y)).unwrap();
            out.finish().unwrap();
        });
    });

    let session = region.session(&binds, &shapes, 1).unwrap();
    group.bench_function("session_reuse", |b| {
        b.iter(|| {
            let mut out = session
                .invoke()
                .input("x", black_box(&x))
                .unwrap()
                .run(|| unreachable!())
                .unwrap();
            out.output("y", black_box(&mut y)).unwrap();
            out.finish().unwrap();
        });
    });

    // The raw inference floor: subtract this from the rungs above to get the
    // pure invocation overhead each path adds.
    let saved = hpacml_nn::serialize::load_model(&path).unwrap();
    let mut ws = hpacml_nn::InferWorkspace::new();
    let x_t = hpacml_tensor::Tensor::from_vec(x.clone(), [N, FEATURES]).unwrap();
    group.bench_function("inference_floor", |b| {
        b.iter(|| {
            black_box(saved.infer_with(&mut ws, black_box(&x_t)).unwrap());
        });
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_session_overhead
}
criterion_main!(benches);
