//! Byte-for-byte pins of the `.hml` encoder. Models built from fixed seeds
//! must serialize to exactly the recorded FNV-1a 64 digests at every
//! serving precision. A round-trip test cannot see an encoder change that
//! its decoder mirrors; these digests can.

use hpacml_faults::fnv1a64;
use hpacml_nn::data::{NormAxis, Normalizer};
use hpacml_nn::serialize::save_model_with_precision;
use hpacml_nn::spec::{LayerSpec, ModelSpec};
use hpacml_tensor::{Precision, Tensor};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-nn-golden");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// One model touching every layer tag and both normalizer slots.
fn encode(prec: Precision, tag: &str) -> Vec<u8> {
    let spec = ModelSpec::new(
        vec![2, 6, 6],
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
            LayerSpec::Dropout { p: 0.25 },
            LayerSpec::Linear {
                in_features: 27,
                out_features: 5,
            },
            LayerSpec::Tanh,
            LayerSpec::Linear {
                in_features: 5,
                out_features: 4,
            },
            LayerSpec::Sigmoid,
            LayerSpec::Linear {
                in_features: 4,
                out_features: 2,
            },
        ],
    );
    let mut model = spec.build(0x5eed).unwrap();
    let x = Tensor::from_shape_fn([3, 2, 6, 6], |ix| {
        ((ix[0] * 31 + ix[1] * 7 + ix[2] * 3 + ix[3]) % 13) as f32 * 0.25 - 1.5
    });
    let y = Tensor::from_shape_fn([5, 2], |ix| (ix[0] * 2 + ix[1]) as f32 * 1.5 + 10.0);
    let in_norm = Normalizer::fit(&x, NormAxis::PerChannel).unwrap();
    let out_norm = Normalizer::fit(&y, NormAxis::PerFeature).unwrap();
    let path = tmp(&format!("golden-{tag}.hml"));
    save_model_with_precision(
        &path,
        &spec,
        &mut model,
        Some(&in_norm),
        Some(&out_norm),
        prec,
    )
    .unwrap();
    std::fs::read(&path).unwrap()
}

fn assert_digest(prec: Precision, tag: &str, want: u64) {
    let bytes = encode(prec, tag);
    let got = fnv1a64(&bytes);
    assert_eq!(
        got,
        want,
        "{tag} .hml encoding changed: {} bytes, digest {got:#018x}",
        bytes.len()
    );
}

#[test]
fn f32_model_bytes_are_pinned() {
    assert_digest(Precision::F32, "f32", 0xaabc_39b7_3aa4_4bed);
}

#[test]
fn bf16_model_bytes_are_pinned() {
    assert_digest(Precision::Bf16, "bf16", 0x7a73_51bc_5e56_2976);
}

#[test]
fn int8_model_bytes_are_pinned() {
    assert_digest(Precision::Int8, "int8", 0x939f_5e33_4776_758f);
}
