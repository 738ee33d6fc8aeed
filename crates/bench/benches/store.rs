//! Criterion: h5lite `flush` and `open` of the stencil-shaped region db, the
//! store work that ends every episode of the `stencil` workload.
//!
//! The db is one region group holding `inputs/state` and `outputs/state`,
//! each 16 rows of a 4×32×64 f32 grid: 1 MiB of payload. `flush` is the full
//! crash-safe write (encode, temp file, `fsync`, rename, directory sync);
//! `open` reads the file back and verifies every checksum.

use criterion::{criterion_group, criterion_main, Criterion};
use hpacml_store::{DType, Group, H5File};
use std::hint::black_box;

const ROWS: usize = 16;
const GRID: [usize; 3] = [4, 32, 64];

fn stencil_db() -> Group {
    let numel: usize = GRID.iter().product();
    let mut root = Group::new();
    let region = root.group_mut("miniweather");
    for (k, kind) in ["inputs", "outputs"].into_iter().enumerate() {
        let rows: Vec<f32> = (0..ROWS * numel)
            .map(|i| ((i + k) as f32 * 0.001).sin())
            .collect();
        region
            .group_mut(kind)
            .dataset_mut("state", DType::F32, &GRID)
            .unwrap()
            .append_f32(&rows)
            .unwrap();
    }
    root
}

fn bench_store(c: &mut Criterion) {
    let dir = std::env::temp_dir().join("hpacml-bench-store");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stencil.h5");
    let mut file = H5File::create(&path);
    *file.root_mut() = stencil_db();
    file.flush().unwrap();

    let mut group = c.benchmark_group("store");
    group.bench_function("flush_stencil_1mib", |b| {
        b.iter(|| {
            file.root_mut();
            file.flush().unwrap();
        });
    });
    group.bench_function("open_stencil_1mib", |b| {
        b.iter(|| {
            let f = H5File::open(black_box(&path)).unwrap();
            assert!(f.recovery().is_none());
            black_box(f);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
