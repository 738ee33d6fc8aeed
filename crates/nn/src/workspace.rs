//! Zero-allocation inference workspaces.
//!
//! The steady state of a deployed surrogate is "the same network, the same
//! batch shape, millions of times". [`ForwardWorkspace`] owns a ping-pong
//! pair of activation tensors that are resized in place on every pass, so
//! after the first (warm-up) invocation a forward pass performs **no heap
//! allocation** in the activation path — each layer writes into the opposite
//! arena through [`crate::layer::Layer::forward_into`].
//!
//! [`InferWorkspace`] adds the normalization staging buffer a
//! [`SavedModel`](crate::serialize::SavedModel) needs for end-to-end
//! (raw-to-raw) inference. A process-wide per-thread instance backs the
//! allocating convenience APIs (`Sequential::forward`, `SavedModel::infer`)
//! so every caller benefits without holding a workspace themselves.

use crate::model::Sequential;
use crate::Result;
use hpacml_tensor::quant::Precision;
use hpacml_tensor::Tensor;
use std::cell::RefCell;

/// Ping-pong activation arena for pure forward passes.
#[derive(Default)]
pub struct ForwardWorkspace {
    ping: Tensor,
    pong: Tensor,
}

impl ForwardWorkspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `model` on `x`, returning a mutable reference to the output
    /// activation held inside the workspace. Steady-state allocation-free
    /// once both arenas have grown to the model's widest activation.
    pub fn forward<'a>(&'a mut self, model: &Sequential, x: &Tensor) -> Result<&'a mut Tensor> {
        self.forward_at(model, x, Precision::F32)
    }

    /// [`ForwardWorkspace::forward`] at a serving precision: layers with
    /// reduced-precision packs route through their quantized kernels;
    /// everything else (and `F32`) is the plain forward. Same arenas,
    /// same zero-allocation steady state.
    pub fn forward_at<'a>(
        &'a mut self,
        model: &Sequential,
        x: &Tensor,
        prec: Precision,
    ) -> Result<&'a mut Tensor> {
        let layers = model.layers();
        let Some(first) = layers.first() else {
            x.copy_into(&mut self.ping);
            return Ok(&mut self.ping);
        };
        // The first layer reads the caller's tensor directly — no staging
        // copy of the input batch on the hot path.
        first.forward_into_at(x, &mut self.ping, prec)?;
        let (mut cur, mut nxt) = (&mut self.ping, &mut self.pong);
        for layer in &layers[1..] {
            layer.forward_into_at(cur, nxt, prec)?;
            std::mem::swap(&mut cur, &mut nxt);
        }
        Ok(cur)
    }

    /// Capacity currently held by the two arenas, in elements — lets tests
    /// assert that repeated passes reuse storage instead of growing it.
    pub fn capacity_elems(&self) -> (usize, usize) {
        (self.ping.capacity(), self.pong.capacity())
    }

    /// Pre-size both activation arenas for `model` fed inputs of `in_dims`
    /// (batch dimension included), by walking the layers' static shape
    /// functions. After reserving for the *largest* batch a caller will use
    /// (e.g. a session's `max_batch`), forward passes at **any** smaller
    /// batch reuse the grown arenas — the zero-allocation guarantee of
    /// runtime-batched inference. Also pre-sizes the per-thread GEMM
    /// scratch (conv weight-pack blocks, weight panels for uncompiled
    /// `Linear`s, conv input staging) from the layers' scratch hints — on
    /// **every pool participant**, via `hpacml_par::broadcast`, so neither
    /// this thread's first forward nor a worker's first stolen sample
    /// allocates anything. Returns the widest activation element count, so
    /// callers that swap buffers with the arenas (the runtime's
    /// model-output hand-off) can size those to match.
    pub fn reserve(&mut self, model: &Sequential, in_dims: &[usize]) -> Result<usize> {
        let mut dims = in_dims.to_vec();
        let mut max_elems: usize = dims.iter().product();
        let mut max_rank = dims.len();
        let (mut a_elems, mut b_elems, mut col_elems) = (0usize, 0usize, 0usize);
        for layer in model.layers() {
            let (a, b, c) = layer.scratch_hint(&dims);
            a_elems = a_elems.max(a);
            b_elems = b_elems.max(b);
            col_elems = col_elems.max(c);
            dims = layer.out_dims(&dims)?;
            max_elems = max_elems.max(dims.iter().product());
            max_rank = max_rank.max(dims.len());
        }
        if a_elems > 0 || b_elems > 0 || col_elems > 0 {
            hpacml_par::broadcast(|_| {
                hpacml_tensor::gemm::reserve_scratch::<f32>(a_elems, b_elems, col_elems);
            });
        }
        // Reserve at the widest rank the pass will use, so the in-place
        // per-layer reshapes never regrow a shape vector either.
        let mut reserve_dims = vec![1usize; max_rank.max(1)];
        *reserve_dims.last_mut().expect("non-empty") = max_elems;
        if self.ping.capacity() < max_elems || self.ping.rank() < max_rank {
            self.ping.resize(&reserve_dims);
        }
        if self.pong.capacity() < max_elems || self.pong.rank() < max_rank {
            self.pong.resize(&reserve_dims);
        }
        Ok(max_elems)
    }
}

/// Workspace for end-to-end [`SavedModel`](crate::serialize::SavedModel)
/// inference: normalization staging plus the forward arena.
#[derive(Default)]
pub struct InferWorkspace {
    pub(crate) staged: Tensor,
    pub(crate) fw: ForwardWorkspace,
}

impl InferWorkspace {
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static THREAD_WS: RefCell<InferWorkspace> = RefCell::new(InferWorkspace::new());
}

/// Run `f` with this thread's shared inference workspace. The allocating
/// one-shot APIs route through this so repeated calls on one thread reuse
/// the same arenas.
pub(crate) fn with_thread_workspace<R>(f: impl FnOnce(&mut InferWorkspace) -> R) -> R {
    THREAD_WS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        // Reentrant call (e.g. inference from inside another forward's
        // instrumentation): fall back to a fresh workspace rather than
        // panicking on the RefCell.
        Err(_) => f(&mut InferWorkspace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Activation, LayerSpec, ModelSpec};

    #[test]
    fn workspace_forward_matches_allocating_forward() {
        let spec = ModelSpec::mlp(6, &[16, 8], 2, Activation::Tanh, 0.1);
        let model = spec.build(3).unwrap();
        let x = Tensor::from_shape_fn([5, 6], |ix| (ix[0] as f32 - ix[1] as f32) * 0.21);
        let reference = model.forward(&x).unwrap();
        let mut ws = ForwardWorkspace::new();
        for _ in 0..3 {
            let y = ws.forward(&model, &x).unwrap();
            assert_eq!(y.dims(), reference.dims());
            assert_eq!(y.data(), reference.data());
        }
    }

    #[test]
    fn workspace_forward_matches_on_cnn() {
        let spec = ModelSpec::new(
            vec![2, 8, 8],
            vec![
                LayerSpec::Conv2d {
                    in_ch: 2,
                    out_ch: 3,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                LayerSpec::ReLU,
                LayerSpec::MaxPool2d {
                    kernel: 2,
                    stride: 2,
                },
                LayerSpec::Flatten,
                LayerSpec::Linear {
                    in_features: 3 * 4 * 4,
                    out_features: 2,
                },
                LayerSpec::Sigmoid,
            ],
        );
        let model = spec.build(9).unwrap();
        let x = Tensor::from_shape_fn([2, 2, 8, 8], |ix| (ix[2] * 8 + ix[3]) as f32 * 0.013);
        let reference = model.forward(&x).unwrap();
        let mut ws = ForwardWorkspace::new();
        let y = ws.forward(&model, &x).unwrap();
        assert_eq!(y.data(), reference.data());
    }

    #[test]
    fn arenas_are_reused_across_batches() {
        let spec = ModelSpec::mlp(4, &[32], 1, Activation::ReLU, 0.0);
        let model = spec.build(1).unwrap();
        let mut ws = ForwardWorkspace::new();
        let big = Tensor::full([16, 4], 0.5f32);
        ws.forward(&model, &big).unwrap();
        let warm = ws.capacity_elems();
        // Smaller batch reuses the grown arenas; sizes shrink logically but
        // capacity is retained by Vec semantics (asserted indirectly: no
        // panic, outputs correct, and a repeat big batch needs no regrowth).
        let small = Tensor::full([2, 4], 0.5f32);
        let y_small = ws.forward(&model, &small).unwrap().clone();
        assert_eq!(y_small.dims(), &[2, 1]);
        ws.forward(&model, &big).unwrap();
        assert_eq!(ws.capacity_elems(), warm);
    }

    #[test]
    fn empty_model_is_identity() {
        let model = Sequential::new(vec![]);
        let x = Tensor::full([3, 2], 7.0f32);
        let mut ws = ForwardWorkspace::new();
        assert_eq!(ws.forward(&model, &x).unwrap().data(), x.data());
    }
}
