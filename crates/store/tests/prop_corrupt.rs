//! Adversarial-input properties for the h5lite codec: arbitrary truncations
//! and byte flips of a valid db file must never panic `H5File::open` — every
//! outcome is either a typed `StoreError` or a *consistent* recovery (all
//! surviving datasets fully readable, damage described by the
//! `RecoveryReport`). Covers checksummed v3 files, the committed v2 fixture
//! and legacy v1 files, whose strict decoder sees every flip because nothing
//! checksums it first. Deterministic: proptest's RNG plus fixed payload
//! generators, no wall clock.

use hpacml_faults::fnv1a64;
use hpacml_store::{Attr, DType, Group, H5File, Node, StoreError};
use proptest::prelude::*;
use std::path::PathBuf;

/// The exact file the last v2 encoder wrote for the golden tree.
const V2_FILE: &[u8] = include_bytes!("fixtures/golden_v2.h5lite");

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-store-prop-corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A small but structurally rich tree: nested groups, all three dtypes,
/// attrs — enough shape that corruption can land anywhere interesting.
fn rich_tree(rows: usize) -> Group {
    let mut root = Group::new();
    root.set_attr("app", Attr::Str("chaos".into()));
    root.set_attr("version", Attr::Int(2));
    for r in 0..2 {
        let region = root.group_mut(&format!("region{r}"));
        region.set_attr("mean", Attr::Float(0.5 + r as f64));
        let d = region.dataset_mut("inputs", DType::F32, &[3]).unwrap();
        d.append_f32(
            &(0..rows * 3)
                .map(|i| i as f32 * 0.5 - 1.0)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let d = region.dataset_mut("times", DType::F64, &[]).unwrap();
        d.append_f64(&(0..rows).map(|i| 100.0 + i as f64).collect::<Vec<_>>())
            .unwrap();
        let d = region.dataset_mut("ids", DType::I64, &[]).unwrap();
        d.append_i64(&(0..rows as i64).collect::<Vec<_>>()).unwrap();
    }
    root
}

/// Serialize `rich_tree(rows)` to disk and return the clean bytes.
fn clean_bytes(tag: &str, rows: usize) -> Vec<u8> {
    let path = tmp(&format!("clean-{tag}-{rows}.h5lite"));
    let mut f = H5File::create(&path);
    *f.root_mut() = rich_tree(rows);
    f.flush().unwrap();
    std::fs::read(&path).unwrap()
}

/// Legacy v1 encoding of a group: no block framing, no checksums.
fn encode_v1(buf: &mut Vec<u8>, g: &Group) {
    fn put_str(buf: &mut Vec<u8>, s: &str) {
        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    }
    buf.extend_from_slice(&(g.attrs().count() as u32).to_le_bytes());
    for (name, attr) in g.attrs() {
        put_str(buf, name);
        match attr {
            Attr::Int(v) => {
                buf.push(0);
                buf.extend_from_slice(&v.to_le_bytes());
            }
            Attr::Float(v) => {
                buf.push(1);
                buf.extend_from_slice(&v.to_le_bytes());
            }
            Attr::Str(v) => {
                buf.push(2);
                put_str(buf, v);
            }
        }
    }
    buf.extend_from_slice(&(g.child_names().count() as u32).to_le_bytes());
    for name in g.child_names() {
        put_str(buf, name);
        match g.child(name).unwrap() {
            Node::Group(child) => {
                buf.push(0);
                encode_v1(buf, child);
            }
            Node::Dataset(d) => {
                let raw: Vec<u8> = match d.dtype() {
                    DType::F32 => d
                        .read_f32()
                        .unwrap()
                        .iter()
                        .flat_map(|v| v.to_le_bytes())
                        .collect(),
                    DType::F64 => d
                        .read_f64()
                        .unwrap()
                        .iter()
                        .flat_map(|v| v.to_le_bytes())
                        .collect(),
                    DType::I64 => d
                        .read_i64()
                        .unwrap()
                        .iter()
                        .flat_map(|v| v.to_le_bytes())
                        .collect(),
                };
                let tag = match d.dtype() {
                    DType::F32 => 0u8,
                    DType::F64 => 1,
                    DType::I64 => 2,
                };
                buf.extend_from_slice(&[1, tag]);
                buf.extend_from_slice(&(d.inner_shape().len() as u32).to_le_bytes());
                for dim in d.inner_shape() {
                    buf.extend_from_slice(&(*dim as u64).to_le_bytes());
                }
                buf.extend_from_slice(&(d.rows() as u64).to_le_bytes());
                buf.extend_from_slice(&(raw.len() as u64).to_le_bytes());
                buf.extend_from_slice(&raw);
            }
        }
    }
}

/// `rich_tree(rows)` as a legacy v1 file.
fn v1_bytes(rows: usize) -> Vec<u8> {
    let mut buf = b"H5LITE01".to_vec();
    encode_v1(&mut buf, &rich_tree(rows));
    buf
}

/// Every dataset in a recovered tree must be fully readable — recovery is
/// only "consistent" if nothing half-parsed survives.
fn assert_consistent(g: &Group, path: &str) {
    for name in g.child_names() {
        let full = format!("{path}/{name}");
        if let Ok(child) = g.group(name) {
            assert_consistent(child, &full);
        } else {
            let d = g
                .dataset(name)
                .unwrap_or_else(|_| panic!("child {full} neither group nor dataset"));
            let ok = match d.dtype() {
                DType::F32 => d.read_f32().is_ok(),
                DType::F64 => d.read_f64().is_ok(),
                DType::I64 => d.read_i64().is_ok(),
            };
            assert!(ok, "surviving dataset {full} must read cleanly");
            assert_eq!(d.shape()[0], d.rows(), "shape/rows disagree at {full}");
        }
    }
}

/// The single invariant under attack: open never panics, and returns either
/// a typed error or a consistent tree.
fn open_is_sane(bytes: &[u8], tag: &str) {
    let path = tmp(&format!("attack-{tag}.h5lite"));
    std::fs::write(&path, bytes).unwrap();
    match H5File::open(&path) {
        Ok(f) => assert_consistent(f.root(), ""),
        Err(
            StoreError::BadMagic
            | StoreError::Corrupt(_)
            | StoreError::Io(_)
            | StoreError::ShapeMismatch(_)
            | StoreError::TypeMismatch { .. }
            | StoreError::NotFound(_),
        ) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cutting the file anywhere — including inside the magic, a block
    /// header, or a payload — recovers to a readable prefix or fails typed.
    #[test]
    fn arbitrary_truncation_never_panics(
        rows in 1usize..5,
        cut_permille in 0u32..1000,
    ) {
        let clean = clean_bytes("trunc", rows);
        let cut = (clean.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        open_is_sane(&clean[..cut], &format!("trunc-{rows}-{cut_permille}"));
    }

    /// Flipping any byte — magic, length, checksum, tag or payload — drops
    /// at most the damaged subtree, never panics, never half-parses.
    #[test]
    fn arbitrary_byte_flip_never_panics(
        rows in 1usize..5,
        at_permille in 0u32..1000,
        mask in 1u8..=255,
    ) {
        let mut bytes = clean_bytes("flip", rows);
        let at = (bytes.len() as u64 * u64::from(at_permille) / 1000) as usize;
        let at = at.min(bytes.len() - 1);
        bytes[at] ^= mask;
        open_is_sane(&bytes, &format!("flip-{rows}-{at_permille}-{mask}"));
    }

    /// Multiple simultaneous flips (a torn sector's worth of damage).
    #[test]
    fn burst_damage_never_panics(
        rows in 1usize..5,
        start_permille in 0u32..1000,
        burst in 1usize..48,
        mask in 1u8..=255,
    ) {
        let mut bytes = clean_bytes("burst", rows);
        let start = (bytes.len() as u64 * u64::from(start_permille) / 1000) as usize;
        let start = start.min(bytes.len() - 1);
        let end = (start + burst).min(bytes.len());
        for b in &mut bytes[start..end] {
            *b ^= mask;
        }
        open_is_sane(&bytes, &format!("burst-{rows}-{start_permille}-{burst}-{mask}"));
    }

    /// Pure garbage of arbitrary length is rejected or (if it accidentally
    /// passes the magic) recovered, never a panic.
    #[test]
    fn random_bytes_never_panic(garbage in proptest::collection::vec(any::<u8>(), 0..512)) {
        open_is_sane(&garbage, "garbage");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any cut of the v2 fixture recovers to a readable prefix or fails
    /// typed.
    #[test]
    fn v2_truncation_never_panics(cut_permille in 0u32..1000) {
        let cut = (V2_FILE.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        open_is_sane(&V2_FILE[..cut], &format!("v2trunc-{cut_permille}"));
    }

    /// Any flipped byte of the v2 fixture drops at most the damaged subtree.
    #[test]
    fn v2_byte_flip_never_panics(at in 0usize..V2_FILE.len(), mask in 1u8..=255) {
        let mut bytes = V2_FILE.to_vec();
        bytes[at] ^= mask;
        open_is_sane(&bytes, &format!("v2flip-{at}-{mask}"));
    }

    /// A torn sector's worth of flips over the v2 fixture.
    #[test]
    fn v2_burst_damage_never_panics(
        start in 0usize..V2_FILE.len(),
        burst in 1usize..48,
        mask in 1u8..=255,
    ) {
        let mut bytes = V2_FILE.to_vec();
        let end = (start + burst).min(bytes.len());
        for b in &mut bytes[start..end] {
            *b ^= mask;
        }
        open_is_sane(&bytes, &format!("v2burst-{start}-{burst}-{mask}"));
    }
}

/// Every single-bit flip of a small v3 file is caught: the open fails typed
/// or reports a recovery, and never comes back clean with other content.
/// A byte no checksum covered would show up here as a clean open.
#[test]
fn every_v3_bit_flip_is_detected() {
    let clean = clean_bytes("exhaustive", 1);
    for at in 0..clean.len() {
        for bit in 0..8 {
            let mut bytes = clean.clone();
            bytes[at] ^= 1 << bit;
            let path = tmp("exhaustive-flip.h5lite");
            std::fs::write(&path, &bytes).unwrap();
            match H5File::open(&path) {
                Ok(f) => {
                    assert!(
                        f.recovery().is_some(),
                        "flip of bit {bit} at byte {at} opened clean"
                    );
                    assert_consistent(f.root(), "");
                }
                Err(StoreError::BadMagic | StoreError::Corrupt(_)) => {}
                Err(e) => panic!("flip of bit {bit} at byte {at}: {e}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A flipped byte anywhere in a v1 file fails typed or opens a
    /// consistent tree.
    #[test]
    fn v1_byte_flip_never_panics(
        rows in 1usize..5,
        at_permille in 0u32..1000,
        mask in 1u8..=255,
    ) {
        let mut bytes = v1_bytes(rows);
        let at = (bytes.len() as u64 * u64::from(at_permille) / 1000) as usize;
        bytes[at] ^= mask;
        open_is_sane(&bytes, &format!("v1flip-{rows}-{at_permille}-{mask}"));
    }

    /// A run of seeded garbage over a v1 file.
    #[test]
    fn v1_burst_overwrite_never_panics(
        rows in 1usize..5,
        start_permille in 0u32..1000,
        burst in proptest::collection::vec(any::<u8>(), 1..48),
    ) {
        let mut bytes = v1_bytes(rows);
        let start = (bytes.len() as u64 * u64::from(start_permille) / 1000) as usize;
        let end = (start + burst.len()).min(bytes.len());
        bytes[start..end].copy_from_slice(&burst[..end - start]);
        open_is_sane(&bytes, &format!("v1burst-{rows}-{start_permille}"));
    }
}

/// The hand-built v1 file is the tree it encodes, and every cut of it is a
/// typed error: v1 has no checksums, so it never guesses at a prefix.
#[test]
fn v1_opens_and_every_truncation_is_typed() {
    let bytes = v1_bytes(2);
    let path = tmp("v1-clean.h5lite");
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(H5File::open(&path).unwrap().root(), &rich_tree(2));
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let got = H5File::open(&path);
        assert!(
            matches!(got, Err(StoreError::BadMagic | StoreError::Corrupt(_))),
            "cut at {cut}: {got:?}"
        );
    }
}

/// Inner dims `[2^32, 2^32]` overflow the element count; with 1 row and a
/// 4-byte payload they must not wrap into a "consistent" dataset.
#[test]
fn v1_dims_overflowing_usize_are_corrupt() {
    let mut buf = b"H5LITE01".to_vec();
    buf.extend_from_slice(&0u32.to_le_bytes()); // no attrs
    buf.extend_from_slice(&1u32.to_le_bytes()); // one child
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.extend_from_slice(b"d");
    buf.extend_from_slice(&[1, 0]); // dataset, f32
    buf.extend_from_slice(&2u32.to_le_bytes());
    buf.extend_from_slice(&(1u64 << 32).to_le_bytes());
    buf.extend_from_slice(&(1u64 << 32).to_le_bytes());
    buf.extend_from_slice(&1u64.to_le_bytes()); // rows
    buf.extend_from_slice(&4u64.to_le_bytes()); // payload length
    buf.extend_from_slice(&1.0f32.to_le_bytes());
    let path = tmp("v1-dims-overflow.h5lite");
    std::fs::write(&path, &buf).unwrap();
    assert!(matches!(H5File::open(&path), Err(StoreError::Corrupt(_))));
}

/// Deterministic end-to-end: corrupt the tail, recover, and check the
/// survivors round-trip bit-exactly against the original payload.
#[test]
fn recovered_rows_are_bit_exact() {
    let clean = clean_bytes("bitexact", 4);
    let path = tmp("bitexact.h5lite");
    // Cut deep enough to lose region1 but keep region0 intact.
    std::fs::write(&path, &clean[..clean.len() * 3 / 5]).unwrap();
    let f = H5File::open(&path).unwrap();
    let report = f.recovery().expect("cut file must report");
    assert!(report.truncated);
    let region0 = f.root().group("region0").expect("prefix region survives");
    let want: Vec<f32> = (0..12).map(|i| i as f32 * 0.5 - 1.0).collect();
    assert_eq!(region0.dataset("inputs").unwrap().read_f32().unwrap(), want);
    assert_eq!(
        region0.dataset("ids").unwrap().read_i64().unwrap(),
        vec![0, 1, 2, 3]
    );
}

/// Nesting depth of the hand-built deep files: far past the decoders'
/// 64-level cap, and deep enough that one stack frame per level overflows
/// a 2 MiB test-thread stack.
const DEEP: usize = 10_000;

/// `levels` empty groups below the root, each the only child `g` of the
/// one above: `g/g/…/g`.
fn chain_path(levels: usize) -> String {
    vec!["g"; levels].join("/")
}

/// How many groups hang below `root` along the `g` chain.
fn chain_depth(root: &Group) -> usize {
    let mut depth = 0;
    let mut g = root;
    while let Ok(child) = g.group("g") {
        depth += 1;
        g = child;
    }
    depth
}

/// A v1 file whose root holds a chain of `levels` nested empty groups.
fn deep_v1(levels: usize) -> Vec<u8> {
    let mut buf = b"H5LITE01".to_vec();
    for _ in 0..levels {
        buf.extend_from_slice(&0u32.to_le_bytes()); // no attrs
        buf.extend_from_slice(&1u32.to_le_bytes()); // one child
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(b"g");
        buf.push(0); // a group
    }
    buf.extend_from_slice(&[0; 8]); // innermost: no attrs, no children
    buf
}

/// The same chain as a v2 file. Block lengths are always right; checksums
/// are real when `checksums` is set and zero otherwise, in which case every
/// level decodes through salvage.
fn deep_v2(levels: usize, checksums: bool) -> Vec<u8> {
    fn put_block(buf: &mut Vec<u8>, body: &[u8], checksums: bool) {
        let cksum = if checksums { fnv1a64(body) } else { 0 };
        buf.extend_from_slice(&(body.len() as u64).to_le_bytes());
        buf.extend_from_slice(&cksum.to_le_bytes());
        buf.extend_from_slice(body);
    }
    let mut body = vec![0u8; 8]; // innermost: no attrs, no children
    for _ in 0..levels {
        let mut outer = Vec::with_capacity(body.len() + 30);
        outer.extend_from_slice(&0u32.to_le_bytes());
        outer.extend_from_slice(&1u32.to_le_bytes());
        outer.extend_from_slice(&1u32.to_le_bytes());
        outer.extend_from_slice(b"g");
        outer.push(0);
        put_block(&mut outer, &body, checksums);
        body = outer;
    }
    let mut file = b"H5LITE02".to_vec();
    put_block(&mut file, &body, checksums);
    file
}

/// v1 decodes a chain of exactly 64 nested groups and rejects 65 — and
/// 10^4 — as `Corrupt` instead of recursing once per level.
#[test]
fn v1_group_nesting_is_capped() {
    let path = tmp("v1-deep-64.h5lite");
    std::fs::write(&path, deep_v1(64)).unwrap();
    assert_eq!(chain_depth(H5File::open(&path).unwrap().root()), 64);
    for levels in [65, DEEP] {
        let path = tmp(&format!("v1-deep-{levels}.h5lite"));
        std::fs::write(&path, deep_v1(levels)).unwrap();
        assert!(
            matches!(H5File::open(&path), Err(StoreError::Corrupt(_))),
            "{levels} nested groups"
        );
    }
}

/// The same chain as a v3 file, built in O(levels): each level's body is
/// its own 30 bytes followed by the body of the level below, and its
/// checksum covers only those 30 bytes. Checksums are real when `checksums`
/// is set and zero otherwise.
fn deep_v3(levels: usize, checksums: bool) -> Vec<u8> {
    let cksum = |bytes: &[u8]| if checksums { fnv1a64(bytes) } else { 0 };
    let innermost = [0u8; 8]; // no attrs, no children
    let (mut len, mut sum) = (innermost.len() as u64, cksum(&innermost));
    let mut own = Vec::with_capacity(levels);
    for _ in 0..levels {
        let mut g = Vec::with_capacity(30);
        g.extend_from_slice(&0u32.to_le_bytes());
        g.extend_from_slice(&1u32.to_le_bytes());
        g.extend_from_slice(&1u32.to_le_bytes());
        g.extend_from_slice(b"g");
        g.push(0);
        g.extend_from_slice(&len.to_le_bytes());
        g.extend_from_slice(&sum.to_le_bytes());
        len += g.len() as u64;
        sum = cksum(&g);
        own.push(g);
    }
    let mut file = b"H5LITE03".to_vec();
    file.extend_from_slice(&len.to_le_bytes());
    file.extend_from_slice(&sum.to_le_bytes());
    for g in own.iter().rev() {
        file.extend_from_slice(g);
    }
    file.extend_from_slice(&innermost);
    file
}

/// Open a hand-built chain of `levels` groups and check the depth cap: the
/// first 64 levels are kept and the group below them is reported dropped,
/// whether the checksums hold or every level is salvaged.
fn assert_nesting_capped(file: Vec<u8>, tag: &str, levels: usize, checksums: bool) {
    let path = tmp(&format!("{tag}-deep-{levels}-{checksums}.h5lite"));
    std::fs::write(&path, file).unwrap();
    let f = H5File::open(&path).unwrap();
    assert_eq!(
        chain_depth(f.root()),
        levels.min(64),
        "{tag}: {levels} levels"
    );
    if levels == 64 {
        assert!(f.recovery().is_none(), "64 levels are within the cap");
        return;
    }
    let report = f.recovery().expect("a dropped subtree is reported");
    assert_eq!(
        report.dropped,
        vec![chain_path(65)],
        "{tag}: {levels} levels"
    );
    assert!(!report.truncated);
    assert_eq!(report.salvaged.len(), if checksums { 0 } else { 65 });
}

/// v2 caps nesting at 64 levels whether the checksums hold (65 levels) or
/// every level is salvaged (10^4 levels).
#[test]
fn v2_group_nesting_is_capped() {
    for (levels, checksums) in [(64, true), (65, true), (DEEP, false)] {
        assert_nesting_capped(deep_v2(levels, checksums), "v2", levels, checksums);
    }
}

/// v3 caps nesting the same way. Its checksums cover a group's own bytes
/// only, so even the 10^4-level chain can carry real ones.
#[test]
fn v3_group_nesting_is_capped() {
    for (levels, checksums) in [(64, true), (65, true), (DEEP, true), (DEEP, false)] {
        assert_nesting_capped(deep_v3(levels, checksums), "v3", levels, checksums);
    }
}
