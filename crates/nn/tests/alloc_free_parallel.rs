//! Counting-allocator proof that the **parallel** forward path — the
//! work-stealing dispatch, per-thread pack and conv-staging scratch, and
//! both conv parallel routes — keeps the zero-allocation steady state.
//!
//! Unlike `alloc_free_compiled.rs` (thread-local counter, calling thread
//! only), the counter here sees **every pool participant**: an allocation
//! on any worker or on the caller while tracking is on fails the test. That
//! is the point — the dispatcher publishes jobs into preallocated slots and
//! every participant's scratch is warmed by the broadcast reserve, so after
//! warm-up no participant allocates. Threads outside the pool (the test
//! runner spawning and reporting other tests) are not counted: each
//! participant is marked by a broadcast before tracking starts.

use hpacml_nn::spec::{Activation, LayerSpec, ModelSpec};
use hpacml_nn::ForwardWorkspace;
use hpacml_par::{with_pool, Pool};
use hpacml_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::ThreadId;

struct CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on every participant of the pool under test. Const-initialised
    /// and drop-free, so reading it never allocates.
    static PARTICIPANT: Cell<bool> = const { Cell::new(false) };
}

/// Count an allocation if tracking is on and this thread is a participant.
fn count() {
    if TRACKING.load(Ordering::Relaxed) && PARTICIPANT.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: a pass-through `GlobalAlloc`: every method delegates to `System`
// under the caller's own contract; the side counters are lock-free statics
// that never allocate and never touch the layout.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout contract as `System.alloc`, to which this delegates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same ptr/layout contract as `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` via the method above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System.realloc`, to which this delegates.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held for each whole test. The counter is process-global, so a test
/// building its model while another one is tracking would be counted
/// against the other.
static SERIAL: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// Mark every participant of `pool` (its workers and the calling thread),
/// and check that the broadcast reached each one on a thread of its own.
fn mark_participants(pool: &Pool) {
    let threads: parking_lot::Mutex<Vec<ThreadId>> = parking_lot::Mutex::new(Vec::new());
    pool.broadcast(|_| {
        PARTICIPANT.with(|p| p.set(true));
        threads.lock().push(std::thread::current().id());
    });
    let threads = threads.into_inner();
    assert_eq!(
        threads.len(),
        pool.workers() + 1,
        "the broadcast must reach every worker and the caller"
    );
    for (i, t) in threads.iter().enumerate() {
        assert!(!threads[..i].contains(t), "two participants on one thread");
    }
}

/// Count allocations performed **on any pool participant** during `f`.
/// Call [`mark_participants`] first.
fn global_allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    TRACKING.store(true, Ordering::SeqCst);
    f();
    TRACKING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::Relaxed) - before
}

/// The bench MLP (w128 at batch 1024), forwarded on a 7-worker pool: the
/// row-parallel GEMM dispatch must be allocation-free on every thread.
#[test]
fn parallel_mlp_forward_is_globally_allocation_free() {
    let _serial = SERIAL.lock();
    let spec = ModelSpec::mlp(6, &[128, 64], 1, Activation::ReLU, 0.0);
    let mut model = spec.build(3).unwrap();
    hpacml_nn::compile_for_inference(&mut model);
    let x = Tensor::from_shape_fn([1024, 6], |ix| (ix[0] * 7 + ix[1]) as f32 * 0.001 - 0.5);
    let pool = Pool::new(7);
    mark_participants(&pool);
    with_pool(&pool, || {
        let mut ws = ForwardWorkspace::new();
        // Warm-up: arenas + broadcast scratch reserve + one full forward
        // (first dispatch touches every worker's thread-locals).
        ws.reserve(&model, x.dims()).unwrap();
        ws.forward(&model, &x).unwrap();
        let allocs = global_allocations_during(|| {
            for _ in 0..20 {
                ws.forward(&model, &x).unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "parallel MLP steady state must not allocate on any thread"
        );
    });
    let stats = pool.stats();
    assert!(stats.jobs > 0, "the forward must actually have dispatched");
}

fn cnn_spec() -> ModelSpec {
    ModelSpec::new(
        vec![4, 24, 48],
        vec![
            LayerSpec::Conv2d {
                in_ch: 4,
                out_ch: 4,
                kernel: 3,
                stride: 1,
                pad: 1,
            },
            LayerSpec::Tanh,
            LayerSpec::Conv2d {
                in_ch: 4,
                out_ch: 4,
                kernel: 3,
                stride: 2,
                pad: 1,
            },
            LayerSpec::ReLU,
        ],
    )
}

/// Batch 8 on a 7-worker pool saturates it → the sample-parallel conv
/// route, where every worker stages im2col in its own scratch. The
/// broadcast reserve must have warmed all of them.
#[test]
fn conv_sample_parallel_route_is_globally_allocation_free() {
    let _serial = SERIAL.lock();
    let mut model = cnn_spec().build(5).unwrap();
    hpacml_nn::compile_for_inference(&mut model);
    let x = Tensor::from_shape_fn([8, 4, 24, 48], |ix| {
        ((ix[0] + 1) * (ix[2] * 48 + ix[3])) as f32 * 0.002 - 0.4
    });
    let pool = Pool::new(7);
    mark_participants(&pool);
    with_pool(&pool, || {
        let mut ws = ForwardWorkspace::new();
        ws.reserve(&model, x.dims()).unwrap();
        ws.forward(&model, &x).unwrap();
        let allocs = global_allocations_during(|| {
            for _ in 0..10 {
                ws.forward(&model, &x).unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "sample-parallel conv steady state must not allocate on any thread"
        );
    });
}

/// Sixteen filters over 4 channels, stride 1 only: every conv takes the
/// zero-copy route, and with `f = 16` the batch-1 GEMM splits its filter
/// rows into stripes that pool workers run, all reading the caller's
/// padded planes. No thread may allocate, at batch 1 (row stripes) or
/// batch 8 (each worker pads into its own scratch).
#[test]
fn zero_copy_conv_route_is_globally_allocation_free() {
    let _serial = SERIAL.lock();
    let conv = |in_ch, out_ch| LayerSpec::Conv2d {
        in_ch,
        out_ch,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let spec = ModelSpec::new(
        vec![4, 24, 48],
        vec![conv(4, 16), LayerSpec::Tanh, conv(16, 4), LayerSpec::ReLU],
    );
    let mut model = spec.build(9).unwrap();
    hpacml_nn::compile_for_inference(&mut model);
    let pool = Pool::new(7);
    mark_participants(&pool);
    for batch in [1usize, 8] {
        let x = Tensor::from_shape_fn([batch, 4, 24, 48], |ix| {
            ((ix[0] + 2) * (ix[2] * 48 + ix[3])) as f32 * 0.001 - 0.3
        });
        with_pool(&pool, || {
            let mut ws = ForwardWorkspace::new();
            ws.reserve(&model, x.dims()).unwrap();
            ws.forward(&model, &x).unwrap();
            let allocs = global_allocations_during(|| {
                for _ in 0..10 {
                    ws.forward(&model, &x).unwrap();
                }
            });
            assert_eq!(
                allocs, 0,
                "zero-copy conv at batch {batch} must not allocate on any thread"
            );
        });
    }
    assert!(
        pool.stats().jobs > 0,
        "the row stripes must have dispatched"
    );
}

/// Batch 2 on a 7-worker pool starves the sample axis → the intra-sample
/// route (samples in turn on the caller, each GEMM row-parallel; the
/// stride-1 layer reads its padded planes in place, the stride-2 layer
/// stages im2col columns). Run it *uncompiled* so the weight also packs
/// into the per-thread A scratch each forward — the most
/// allocation-prone variant of the route.
#[test]
fn conv_intra_sample_route_is_globally_allocation_free() {
    let _serial = SERIAL.lock();
    let model = cnn_spec().build(7).unwrap(); // uncompiled: packs per forward
    let x = Tensor::from_shape_fn([2, 4, 24, 48], |ix| {
        ((ix[1] + 1) * (ix[2] * 48 + ix[3])) as f32 * 0.003 - 0.2
    });
    let pool = Pool::new(7);
    mark_participants(&pool);
    with_pool(&pool, || {
        let mut ws = ForwardWorkspace::new();
        ws.reserve(&model, x.dims()).unwrap();
        ws.forward(&model, &x).unwrap();
        let allocs = global_allocations_during(|| {
            for _ in 0..10 {
                ws.forward(&model, &x).unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "intra-sample conv steady state must not allocate on any thread"
        );
    });
}
