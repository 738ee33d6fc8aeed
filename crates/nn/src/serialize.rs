//! `.hml` model files — the reproduction's TorchScript.
//!
//! A saved model is self-contained: architecture spec, trained weights, and
//! the input/output normalizers fitted during training, so a deployed model
//! maps *raw application values* to *raw application values*. The HPAC-ML
//! runtime loads these by path (the `model("...")` clause).
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "HMLMODEL", version u8 = 2
//! prec    : u8 (v2+ only — Precision tag; v1 files are implicitly f32)
//! spec    : rank:u32, input_dims:u64*, n_layers:u32, layer*
//! layer   : tag:u8 + per-variant fields (u64 ints / f32 floats)
//! norm_in : present:u8 [axis:u8, len:u32, mean:f32*, std:f32*]
//! norm_out: same
//! weights : n:u32, { len:u64, f32* }*
//! ```
//!
//! Weights are always stored at full f32 precision; the precision byte
//! only records the *serving* target. The quantized packs are rebuilt
//! deterministically from the f32 weights at load/compile time (bf16
//! round-to-nearest-even and int8 abs-max scales are pure functions of
//! the weights), so a model file never bakes in quantization error twice
//! and older readers are only ever one byte away from compatibility.

use crate::data::{NormAxis, Normalizer};
use crate::fuse::PrecisionPolicy;
use crate::model::Sequential;
use crate::spec::{LayerSpec, ModelSpec};
use crate::workspace::{with_thread_workspace, InferWorkspace};
use crate::{NnError, Result};
use hpacml_store::codec::Reader;
use hpacml_tensor::quant::Precision;
use hpacml_tensor::Tensor;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"HMLMODEL";
const VERSION: u8 = 2;
/// The previous format version (no precision byte, implicitly f32) —
/// still accepted by [`load_model`].
const VERSION_V1: u8 = 1;

impl std::fmt::Debug for SavedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SavedModel")
            .field("spec", &self.spec.summary())
            .field("params", &self.param_count())
            .field("precision", &self.precision)
            .field("in_norm", &self.in_norm.is_some())
            .field("out_norm", &self.out_norm.is_some())
            .finish()
    }
}

/// A deserialized, inference-ready model.
pub struct SavedModel {
    pub spec: ModelSpec,
    pub model: Sequential,
    pub in_norm: Option<Normalizer>,
    pub out_norm: Option<Normalizer>,
    /// Serving precision target (the coarsest ladder rung this model was
    /// saved/quantized for). `F32` for v1 files and unquantized models.
    pub precision: Precision,
}

impl SavedModel {
    /// End-to-end inference on raw application-space data: normalize input,
    /// run the network, denormalize output.
    ///
    /// Routes through this thread's shared [`InferWorkspace`], so repeated
    /// calls reuse the activation arenas; only the returned output tensor is
    /// allocated. Hot loops that want the last allocation gone should hold a
    /// workspace and call [`SavedModel::infer_with`] directly.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        with_thread_workspace(|ws| Ok(self.infer_with(ws, x)?.clone()))
    }

    /// End-to-end inference into a caller-owned workspace. Steady-state
    /// allocation-free: normalization stages into `ws`, the forward pass
    /// ping-pongs inside `ws`, and denormalization happens in place on the
    /// returned output buffer.
    pub fn infer_with<'w>(&self, ws: &'w mut InferWorkspace, x: &Tensor) -> Result<&'w mut Tensor> {
        self.infer_with_at(ws, x, self.precision)
    }

    /// [`SavedModel::infer_with`] at an explicit serving precision —
    /// the hook the validation-driven demotion ladder uses to move
    /// between int8/bf16/f32 without touching the model. Layers missing
    /// a pack for `prec` serve the next finer one they have.
    pub fn infer_with_at<'w>(
        &self,
        ws: &'w mut InferWorkspace,
        x: &Tensor,
        prec: Precision,
    ) -> Result<&'w mut Tensor> {
        let y = match &self.in_norm {
            Some(n) => {
                n.transform_into(x, &mut ws.staged);
                ws.fw.forward_at(&self.model, &ws.staged, prec)?
            }
            None => ws.fw.forward_at(&self.model, x, prec)?,
        };
        if let Some(n) = &self.out_norm {
            n.inverse_in_place(y);
        }
        Ok(y)
    }

    /// Scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.spec.param_count()
    }

    /// Pre-size `ws` for inference on inputs of `in_dims` (batch dimension
    /// included): the normalization staging buffer, both forward arenas and
    /// the calling thread's per-layer GEMM scratch (weight-pack panels,
    /// conv input staging — see [`crate::ForwardWorkspace::reserve`] for the
    /// pool-worker caveat) grow once, so every later
    /// [`SavedModel::infer_with`] call at that batch — or any smaller one —
    /// performs zero heap allocation.
    /// Compiled sessions call this with their `max_batch` input shape at
    /// warm-up. Returns the widest activation element count (see
    /// [`crate::ForwardWorkspace::reserve`]).
    pub fn reserve_workspace(&self, ws: &mut InferWorkspace, in_dims: &[usize]) -> Result<usize> {
        let numel: usize = in_dims.iter().product();
        if self.in_norm.is_some() && ws.staged.capacity() < numel {
            ws.staged.resize(&[numel]);
        }
        ws.fw.reserve(&self.model, in_dims)
    }

    /// Compile the contained network for inference: drop inference-identity
    /// layers, fuse `Linear`/`Conv2d` → activation pairs into GEMM epilogues
    /// and pre-pack the (immutable) weights into panel layouts — see
    /// [`crate::fuse`]. Bit-preserving for inference; applied automatically
    /// by [`load_model`], so every model resolved through the engine runs
    /// the steady-state kernels. A compiled model is inference-only.
    pub fn compile(&mut self) -> crate::fuse::CompileInfo {
        crate::fuse::compile_for_inference_with(
            &mut self.model,
            &PrecisionPolicy {
                target: self.precision,
                ..Default::default()
            },
        )
    }

    /// Quantize the (already compiled) model for serving at `target`:
    /// builds reduced-precision weight packs on every layer that supports
    /// them and records the target as the model's serving precision.
    /// Returns the number of layers quantized. `F32` reverts the serving
    /// precision without touching existing packs.
    pub fn quantize(&mut self, target: Precision) -> usize {
        self.precision = target;
        if target == Precision::F32 {
            return 0;
        }
        let mut n = 0;
        for l in self.model.layers_mut().iter_mut() {
            if l.quantize(target) {
                n += 1;
            }
        }
        n
    }
}

/// Serialize a trained model (plus normalizers) to `path` at the default
/// f32 serving precision.
pub fn save_model(
    path: impl AsRef<Path>,
    spec: &ModelSpec,
    model: &mut Sequential,
    in_norm: Option<&Normalizer>,
    out_norm: Option<&Normalizer>,
) -> Result<()> {
    save_model_with_precision(path, spec, model, in_norm, out_norm, Precision::F32)
}

/// [`save_model`] with an explicit serving-precision target. Weights are
/// still stored at f32 (see the module docs); the byte only tells loaders
/// which ladder rung to quantize for.
pub fn save_model_with_precision(
    path: impl AsRef<Path>,
    spec: &ModelSpec,
    model: &mut Sequential,
    in_norm: Option<&Normalizer>,
    out_norm: Option<&Normalizer>,
    precision: Precision,
) -> Result<()> {
    let mut buf = MAGIC.to_vec();
    buf.push(VERSION);
    buf.push(precision.tag());
    encode_spec(&mut buf, spec);
    encode_norm(&mut buf, in_norm);
    encode_norm(&mut buf, out_norm);
    encode_weights(&mut buf, &model.export_weights());
    if let Some(dir) = path.as_ref().parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(&buf)?;
    f.flush()?;
    Ok(())
}

/// Load a `.hml` model from disk and rebuild the network with its weights.
pub fn load_model(path: impl AsRef<Path>) -> Result<SavedModel> {
    let mut raw = Vec::new();
    std::fs::File::open(path.as_ref())?.read_to_end(&mut raw)?;
    let mut buf = Reader::new(&raw);
    let (Ok(magic), Ok(version)) = (buf.bytes(MAGIC.len()), buf.u8()) else {
        return Err(NnError::Serialize("file too short".into()));
    };
    if magic != MAGIC {
        return Err(NnError::Serialize("not an .hml model (bad magic)".into()));
    }
    if version != VERSION && version != VERSION_V1 {
        return Err(NnError::Serialize(format!(
            "unsupported .hml version {version}"
        )));
    }
    // v1 files predate the precision byte and are implicitly f32.
    let precision = if version >= 2 {
        let tag = buf.u8()?;
        Precision::from_tag(tag)
            .ok_or_else(|| NnError::Serialize(format!("bad precision tag {tag}")))?
    } else {
        Precision::F32
    };
    let spec = decode_spec(&mut buf)?;
    let in_norm = decode_norm(&mut buf)?;
    let out_norm = decode_norm(&mut buf)?;
    // Every tensor carries at least its u64 length prefix.
    let weights = (0..buf.count_u32(8)?)
        .map(|_| buf.extent().and_then(|len| buf.f32s(len)))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    // The file holds every weight, so a spec that disagrees with them is
    // corrupt; checking before `build` keeps a damaged extent from sizing
    // an allocation.
    let stored: usize = weights.iter().map(Vec::len).sum();
    if spec.param_count() != stored {
        return Err(NnError::Serialize(format!(
            "spec has {} parameters, file stores {stored}",
            spec.param_count()
        )));
    }
    // Build with an arbitrary seed, then overwrite every parameter.
    let mut model = spec.build(0)?;
    model.import_weights(&weights)?;
    let mut saved = SavedModel {
        spec,
        model,
        in_norm,
        out_norm,
        precision,
    };
    // Models loaded from disk are inference models: compile once here
    // (fusion + weight pre-packing + quantization at the recorded
    // serving precision) so every forward pass downstream — engine cache
    // hits, compiled sessions, batched invokes — runs the steady-state
    // kernels without ever repacking.
    saved.compile();
    Ok(saved)
}

fn put_u64s(buf: &mut Vec<u8>, vals: &[usize]) {
    for v in vals {
        buf.extend_from_slice(&(*v as u64).to_le_bytes());
    }
}

fn put_f32s(buf: &mut Vec<u8>, vals: &[f32]) {
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn encode_spec(buf: &mut Vec<u8>, spec: &ModelSpec) {
    buf.extend_from_slice(&(spec.input_shape.len() as u32).to_le_bytes());
    put_u64s(buf, &spec.input_shape);
    buf.extend_from_slice(&(spec.layers.len() as u32).to_le_bytes());
    for l in &spec.layers {
        match *l {
            LayerSpec::Linear {
                in_features,
                out_features,
            } => {
                buf.push(0);
                put_u64s(buf, &[in_features, out_features]);
            }
            LayerSpec::ReLU => buf.push(1),
            LayerSpec::Tanh => buf.push(2),
            LayerSpec::Sigmoid => buf.push(3),
            LayerSpec::Dropout { p } => {
                buf.push(4);
                put_f32s(buf, &[p]);
            }
            LayerSpec::Flatten => buf.push(5),
            LayerSpec::Conv2d {
                in_ch,
                out_ch,
                kernel,
                stride,
                pad,
            } => {
                buf.push(6);
                put_u64s(buf, &[in_ch, out_ch, kernel, stride, pad]);
            }
            LayerSpec::MaxPool2d { kernel, stride } => {
                buf.push(7);
                put_u64s(buf, &[kernel, stride]);
            }
        }
    }
}

fn decode_spec(buf: &mut Reader) -> Result<ModelSpec> {
    let rank = buf.count_u32(8)?;
    if rank > 8 {
        return Err(NnError::Serialize(format!("implausible input rank {rank}")));
    }
    let input_shape = (0..rank)
        .map(|_| buf.extent())
        .collect::<std::result::Result<_, _>>()?;
    // Every layer carries at least its tag byte.
    let layers = (0..buf.count_u32(1)?)
        .map(|_| {
            Ok(match buf.u8()? {
                0 => LayerSpec::Linear {
                    in_features: buf.extent()?,
                    out_features: buf.extent()?,
                },
                1 => LayerSpec::ReLU,
                2 => LayerSpec::Tanh,
                3 => LayerSpec::Sigmoid,
                4 => LayerSpec::Dropout { p: buf.f32()? },
                5 => LayerSpec::Flatten,
                6 => LayerSpec::Conv2d {
                    in_ch: buf.extent()?,
                    out_ch: buf.extent()?,
                    kernel: buf.extent()?,
                    stride: buf.extent()?,
                    pad: buf.extent()?,
                },
                7 => LayerSpec::MaxPool2d {
                    kernel: buf.extent()?,
                    stride: buf.extent()?,
                },
                other => return Err(NnError::Serialize(format!("bad layer tag {other}"))),
            })
        })
        .collect::<Result<_>>()?;
    Ok(ModelSpec::new(input_shape, layers))
}

fn encode_norm(buf: &mut Vec<u8>, norm: Option<&Normalizer>) {
    match norm {
        None => buf.push(0),
        Some(n) => {
            buf.push(1);
            buf.push(n.axis.tag());
            buf.extend_from_slice(&(n.mean.len() as u32).to_le_bytes());
            put_f32s(buf, &n.mean);
            put_f32s(buf, &n.std);
        }
    }
}

fn decode_norm(buf: &mut Reader) -> Result<Option<Normalizer>> {
    match buf.u8()? {
        0 => Ok(None),
        1 => {
            let axis = NormAxis::from_tag(buf.u8()?)?;
            // A mean and a std per entry.
            let len = buf.count_u32(8)?;
            let mean = buf.f32s(len)?;
            let std = buf.f32s(len)?;
            Ok(Some(Normalizer { axis, mean, std }))
        }
        other => Err(NnError::Serialize(format!("bad normalizer tag {other}"))),
    }
}

fn encode_weights(buf: &mut Vec<u8>, weights: &[Vec<f32>]) {
    buf.extend_from_slice(&(weights.len() as u32).to_le_bytes());
    for w in weights {
        buf.extend_from_slice(&(w.len() as u64).to_le_bytes());
        put_f32s(buf, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Activation;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hpacml-nn-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn mlp_roundtrip_preserves_predictions() {
        let spec = ModelSpec::mlp(3, &[16, 8], 2, Activation::Tanh, 0.2);
        let mut model = spec.build(5).unwrap();
        let x = Tensor::from_shape_fn([4, 3], |ix| (ix[0] as f32 - ix[1] as f32) * 0.3);
        let before = model.forward(&x).unwrap();

        let in_norm = Normalizer::fit(&x, NormAxis::PerFeature).unwrap();
        let path = tmp("mlp.hml");
        save_model(&path, &spec, &mut model, Some(&in_norm), None).unwrap();

        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.spec, spec);
        assert_eq!(loaded.param_count(), spec.param_count());
        assert_eq!(loaded.in_norm, Some(in_norm.clone()));
        assert_eq!(loaded.out_norm, None);
        // Raw forward (no norm) must match exactly.
        let after = loaded.model.forward(&x).unwrap();
        assert_eq!(before.data(), after.data());
        // infer() applies the input normalizer.
        let normed = loaded.model.forward(&in_norm.transform(&x)).unwrap();
        assert_eq!(loaded.infer(&x).unwrap().data(), normed.data());
    }

    #[test]
    fn cnn_roundtrip() {
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
            ],
        );
        let mut model = spec.build(9).unwrap();
        let x = Tensor::from_shape_fn([2, 2, 8, 8], |ix| (ix[2] * 8 + ix[3]) as f32 * 0.01);
        let before = model.forward(&x).unwrap();
        let path = tmp("cnn.hml");
        save_model(&path, &spec, &mut model, None, None).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.model.forward(&x).unwrap().data(), before.data());
    }

    #[test]
    fn output_norm_applied_on_infer() {
        let spec = ModelSpec::mlp(1, &[], 1, Activation::ReLU, 0.0);
        let mut model = spec.build(1).unwrap();
        let out_norm = Normalizer {
            axis: NormAxis::PerFeature,
            mean: vec![100.0],
            std: vec![10.0],
        };
        let path = tmp("outnorm.hml");
        save_model(&path, &spec, &mut model, None, Some(&out_norm)).unwrap();
        let loaded = load_model(&path).unwrap();
        let x = Tensor::full([1, 1], 0.5f32);
        let raw = loaded.model.forward(&x).unwrap().data()[0];
        let scaled = loaded.infer(&x).unwrap().data()[0];
        assert!((scaled - (raw * 10.0 + 100.0)).abs() < 1e-5);
    }

    #[test]
    fn v1_files_still_load_as_f32() {
        // Hand-write a v-previous (version 1) byte stream with the same
        // private encoders: no precision byte, implicitly f32. Models
        // saved before the version bump must keep loading bit-for-bit.
        let spec = ModelSpec::mlp(3, &[8], 1, Activation::Tanh, 0.0);
        let mut model = spec.build(6).unwrap();
        let x = Tensor::from_shape_fn([4, 3], |ix| (ix[0] as f32 - ix[1] as f32) * 0.11);
        let before = model.forward(&x).unwrap();

        let mut buf = MAGIC.to_vec();
        buf.push(VERSION_V1);
        encode_spec(&mut buf, &spec);
        encode_norm(&mut buf, None);
        encode_norm(&mut buf, None);
        encode_weights(&mut buf, &model.export_weights());
        let path = tmp("v1_compat.hml");
        std::fs::write(&path, &buf).unwrap();

        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.precision, Precision::F32);
        assert_eq!(loaded.model.forward(&x).unwrap().data(), before.data());
    }

    #[test]
    fn precision_tag_round_trips_and_quantizes_on_load() {
        let spec = ModelSpec::mlp(4, &[16], 2, Activation::Tanh, 0.0);
        let mut model = spec.build(8).unwrap();
        let path = tmp("int8.hml");
        save_model_with_precision(&path, &spec, &mut model, None, None, Precision::Int8).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.precision, Precision::Int8);

        let x = Tensor::from_shape_fn([5, 4], |ix| (ix[0] * 4 + ix[1]) as f32 * 0.07 - 0.5);
        let mut ws = InferWorkspace::new();
        // The model's default serving route is its recorded precision...
        let qy = loaded.infer_with(&mut ws, &x).unwrap().clone();
        let qy2 = loaded
            .infer_with_at(&mut ws, &x, Precision::Int8)
            .unwrap()
            .clone();
        assert_eq!(qy.data(), qy2.data());
        // ...and every finer ladder rung is available and close to f32.
        let by = loaded
            .infer_with_at(&mut ws, &x, Precision::Bf16)
            .unwrap()
            .clone();
        let fy = loaded
            .infer_with_at(&mut ws, &x, Precision::F32)
            .unwrap()
            .clone();
        for ((q, b), f) in qy.data().iter().zip(by.data()).zip(fy.data()) {
            assert!((q - f).abs() < 0.1, "int8 drifted: {q} vs {f}");
            assert!((b - f).abs() < 0.05, "bf16 drifted: {b} vs {f}");
        }
    }

    #[test]
    fn bad_precision_tag_rejected() {
        let spec = ModelSpec::mlp(2, &[4], 1, Activation::ReLU, 0.0);
        let mut model = spec.build(2).unwrap();
        let path = tmp("badprec.hml");
        save_model(&path, &spec, &mut model, None, None).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] = 0xEE; // the v2 precision byte
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_model(&path),
            Err(NnError::Serialize(msg)) if msg.contains("precision tag")
        ));
    }

    #[test]
    fn corrupt_files_rejected() {
        let path = tmp("bad.hml");
        std::fs::write(&path, b"NOTMODEL").unwrap();
        assert!(load_model(&path).is_err());
        std::fs::write(&path, b"HM").unwrap();
        assert!(load_model(&path).is_err());
        // Truncated real model.
        let spec = ModelSpec::mlp(2, &[4], 1, Activation::ReLU, 0.0);
        let mut model = spec.build(2).unwrap();
        let good = tmp("good.hml");
        save_model(&good, &spec, &mut model, None, None).unwrap();
        let bytes = std::fs::read(&good).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
        assert!(load_model(&path).is_err());
    }
}
