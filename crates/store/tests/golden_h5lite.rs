//! Byte-for-byte pins of the h5lite formats. A tree built from fixed values
//! must flush to exactly the recorded v3 FNV-1a 64 digest: a round-trip
//! test cannot see an encoder change that its decoder mirrors; this can.
//! v2 is read-only now, so its pin is the other way round: the committed
//! bytes the v2 encoder wrote for the same tree must still decode to it.

use hpacml_faults::fnv1a64;
use hpacml_store::{Attr, DType, Group, H5File};
use std::path::PathBuf;

/// The exact file the last v2 encoder wrote for [`golden_tree`].
const V2_FILE: &[u8] = include_bytes!("fixtures/golden_v2.h5lite");

const V3_DIGEST: u64 = 0x54b6_ac63_5ab2_c1ec;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-store-golden");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn golden_tree() -> Group {
    let mut root = Group::new();
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
    root
}

#[test]
fn v2_file_bytes_are_pinned() {
    assert_eq!(&V2_FILE[..8], b"H5LITE02");
    assert_eq!(
        fnv1a64(V2_FILE),
        0x0199_47fc_3f3c_bd52,
        "v2 fixture changed"
    );
    let path = tmp("golden-v2.h5lite");
    std::fs::write(&path, V2_FILE).unwrap();
    let f = H5File::open(&path).unwrap();
    assert!(f.recovery().is_none(), "{:?}", f.recovery());
    assert_eq!(f.root(), &golden_tree());
}

#[test]
fn v3_file_bytes_are_pinned() {
    let path = tmp("golden-v3.h5lite");
    let mut f = H5File::create(&path);
    *f.root_mut() = golden_tree();
    f.flush().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[..8], b"H5LITE03");
    let got = fnv1a64(&bytes);
    assert_eq!(
        got,
        V3_DIGEST,
        "h5lite v3 encoding changed: {} bytes, digest {got:#018x}",
        bytes.len()
    );
    let f = H5File::open(&path).unwrap();
    assert!(f.recovery().is_none());
    assert_eq!(f.root(), &golden_tree());
}

/// The first flush of an opened v2 file rewrites it as exactly the v3 bytes.
#[test]
fn v2_file_reflushes_as_v3() {
    let path = tmp("golden-v2-reflush.h5lite");
    std::fs::write(&path, V2_FILE).unwrap();
    let mut f = H5File::open(&path).unwrap();
    f.root_mut();
    f.flush().unwrap();
    assert_eq!(fnv1a64(&std::fs::read(&path).unwrap()), V3_DIGEST);
}
