//! Byte-for-byte pin of the h5lite v2 encoder: a tree built from fixed
//! values must flush to exactly the recorded FNV-1a 64 digest. A round-trip
//! test cannot see an encoder change that its decoder mirrors; this can.

use hpacml_faults::fnv1a64;
use hpacml_store::{Attr, DType, H5File};

#[test]
fn v2_file_bytes_are_pinned() {
    let dir = std::env::temp_dir().join("hpacml-store-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.h5lite");
    let mut f = H5File::create(&path);
    let root = f.root_mut();
    root.set_attr("app", Attr::Str("héllo/wörld".into()));
    root.set_attr("seed", Attr::Int(-42));
    let region = root.group_mut("region");
    region.set_attr("mean", Attr::Float(1.25));
    region
        .dataset_mut("inputs", DType::F32, &[2, 3])
        .unwrap()
        .append_f32(&(0..12).map(|i| i as f32 * 0.5 - 2.0).collect::<Vec<_>>())
        .unwrap();
    region
        .dataset_mut("times", DType::F64, &[])
        .unwrap()
        .append_f64(&[100.0, 110.5, 90.25])
        .unwrap();
    region
        .dataset_mut("ids", DType::I64, &[2])
        .unwrap()
        .append_i64(&[-1, i64::MAX, 7, 0])
        .unwrap();
    region.dataset_mut("empty", DType::F32, &[4]).unwrap();
    region.group_mut("nested").set_attr("depth", Attr::Int(2));
    f.flush().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let got = fnv1a64(&bytes);
    assert_eq!(
        got,
        0x0199_47fc_3f3c_bd52,
        "h5lite v2 encoding changed: {} bytes, digest {got:#018x}",
        bytes.len()
    );
}
