//! Adversarial-input properties for the `.hml` codec: truncations and byte
//! overwrites of valid model files must never panic or abort `load_model`.
//! Every outcome is either a loaded model or a typed `NnError`. Covers an
//! f32 v2 CNN, an int8 v2 MLP and a v1 MLP. Deterministic: proptest's RNG
//! plus fixed model seeds, no wall clock.

use hpacml_nn::data::{NormAxis, Normalizer};
use hpacml_nn::serialize::{load_model, save_model_with_precision, SavedModel};
use hpacml_nn::spec::{Activation, LayerSpec, ModelSpec};
use hpacml_nn::NnError;
use hpacml_tensor::{Precision, Tensor};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-nn-prop-corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn save(tag: &str, spec: &ModelSpec, norms: [Option<&Normalizer>; 2], prec: Precision) -> Vec<u8> {
    let mut model = spec.build(17).unwrap();
    // Tests run in parallel and all rebuild these models: one file each.
    let thread = std::thread::current().id();
    let path = tmp(&format!("clean-{tag}-{thread:?}.hml"));
    save_model_with_precision(&path, spec, &mut model, norms[0], norms[1], prec).unwrap();
    std::fs::read(&path).unwrap()
}

/// f32 v2 CNN touching every layer tag, with both normalizers.
fn cnn_f32() -> Vec<u8> {
    let spec = ModelSpec::new(
        vec![1, 4, 4],
        vec![
            LayerSpec::Conv2d {
                in_ch: 1,
                out_ch: 2,
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
            LayerSpec::Dropout { p: 0.1 },
            LayerSpec::Linear {
                in_features: 8,
                out_features: 3,
            },
            LayerSpec::Tanh,
            LayerSpec::Linear {
                in_features: 3,
                out_features: 1,
            },
            LayerSpec::Sigmoid,
        ],
    );
    let x = Tensor::from_shape_fn([2, 1, 4, 4], |ix| (ix[0] * 16 + ix[2] * 4 + ix[3]) as f32);
    let y = Tensor::from_shape_fn([3, 1], |ix| ix[0] as f32 + 0.5);
    let in_norm = Normalizer::fit(&x, NormAxis::PerChannel).unwrap();
    let out_norm = Normalizer::fit(&y, NormAxis::PerFeature).unwrap();
    save(
        "cnn",
        &spec,
        [Some(&in_norm), Some(&out_norm)],
        Precision::F32,
    )
}

fn mlp_spec() -> ModelSpec {
    ModelSpec::mlp(3, &[5], 2, Activation::ReLU, 0.0)
}

/// int8 v2 MLP with a global input normalizer.
fn mlp_int8() -> Vec<u8> {
    let x = Tensor::from_shape_fn([4, 3], |ix| (ix[0] * 3 + ix[1]) as f32 * 0.5);
    let in_norm = Normalizer::fit(&x, NormAxis::Global).unwrap();
    save("int8", &mlp_spec(), [Some(&in_norm), None], Precision::Int8)
}

/// v1 MLP: a v1 file is a v2 f32 file without the precision byte.
fn mlp_v1() -> Vec<u8> {
    let mut bytes = save("v1src", &mlp_spec(), [None, None], Precision::F32);
    bytes[8] = 1;
    bytes.remove(9);
    bytes
}

fn models() -> [(&'static str, Vec<u8>); 3] {
    [("cnn", cnn_f32()), ("int8", mlp_int8()), ("v1", mlp_v1())]
}

fn load(bytes: &[u8], tag: &str) -> Result<SavedModel, NnError> {
    let path = tmp(&format!("attack-{tag}.hml"));
    std::fs::write(&path, bytes).unwrap();
    load_model(&path)
}

/// The invariant under attack: load returns, with a model or a typed error.
fn load_is_sane(bytes: &[u8], tag: &str) {
    match load(bytes, tag) {
        Ok(_)
        | Err(
            NnError::Serialize(_)
            | NnError::BadSpec(_)
            | NnError::Tensor(_)
            | NnError::Io(_)
            | NnError::Train(_),
        ) => {}
    }
}

/// Byte offset of the weight-tensor count in an MLP file saved by `save`.
fn weight_count_offset(bytes: &[u8]) -> usize {
    let weights = mlp_spec().build(17).unwrap().export_weights();
    let payload: usize = weights.iter().map(|w| 8 + 4 * w.len()).sum();
    bytes.len() - payload - 4
}

#[test]
fn clean_models_load() {
    for (tag, bytes) in models() {
        let m = load(&bytes, &format!("clean-{tag}")).unwrap();
        let want = if tag == "int8" {
            Precision::Int8
        } else {
            Precision::F32
        };
        assert_eq!(m.precision, want, "{tag}");
    }
}

/// A cut anywhere, from an empty file to one byte short, is a typed
/// serialization error: nothing in the format is optional.
#[test]
fn every_truncation_is_a_serialize_error() {
    for (tag, bytes) in models() {
        for cut in 0..bytes.len() {
            let got = load(&bytes[..cut], &format!("trunc-{tag}"));
            assert!(
                matches!(got, Err(NnError::Serialize(_))),
                "{tag} cut at {cut}: {got:?}"
            );
        }
    }
}

/// Every byte position set to each boundary value loads or fails typed.
#[test]
fn every_single_byte_overwrite_is_sane() {
    for (tag, clean) in models() {
        for at in 0..clean.len() {
            for value in [0x00, 0x01, 0x7f, 0x80, 0xff] {
                let mut bytes = clean.clone();
                bytes[at] = value;
                load_is_sane(&bytes, &format!("sweep-{tag}"));
            }
        }
    }
}

#[test]
fn weight_count_u32_max_is_a_serialize_error() {
    let (_, mut bytes) = models().into_iter().nth(2).unwrap();
    let at = weight_count_offset(&bytes);
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        load(&bytes, "weight-count"),
        Err(NnError::Serialize(_))
    ));
}

#[test]
fn tensor_length_2_pow_62_is_a_serialize_error() {
    let (_, mut bytes) = models().into_iter().nth(2).unwrap();
    let at = weight_count_offset(&bytes) + 4;
    bytes[at..at + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
    assert!(matches!(
        load(&bytes, "tensor-len"),
        Err(NnError::Serialize(_))
    ));
}

#[test]
fn layer_count_u32_max_is_a_serialize_error() {
    let (_, mut bytes) = models().into_iter().nth(2).unwrap();
    // v1 header: magic (8), version (1), rank (4), one input dim (8).
    let at = 8 + 1 + 4 + 8;
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        load(&bytes, "layer-count"),
        Err(NnError::Serialize(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One byte anywhere set to any value: load or a typed error.
    #[test]
    fn seeded_byte_overwrite_never_panics(
        which in 0usize..3,
        at_permille in 0u32..1000,
        value in any::<u8>(),
    ) {
        let (tag, mut bytes) = models().into_iter().nth(which).unwrap();
        let at = (bytes.len() as u64 * u64::from(at_permille) / 1000) as usize;
        bytes[at] = value;
        load_is_sane(&bytes, &format!("overwrite-{tag}"));
    }

    /// A run of seeded garbage over any stretch, truncated or not.
    #[test]
    fn seeded_burst_overwrite_never_panics(
        which in 0usize..3,
        start_permille in 0u32..1000,
        burst in proptest::collection::vec(any::<u8>(), 1..24),
        keep_permille in 0u32..=1000,
    ) {
        let (tag, mut bytes) = models().into_iter().nth(which).unwrap();
        let start = (bytes.len() as u64 * u64::from(start_permille) / 1000) as usize;
        let end = (start + burst.len()).min(bytes.len());
        bytes[start..end].copy_from_slice(&burst[..end - start]);
        let keep = (bytes.len() as u64 * u64::from(keep_permille) / 1000) as usize;
        load_is_sane(&bytes[..keep], &format!("burst-{tag}"));
    }
}
