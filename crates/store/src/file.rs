//! Single-file binary codec for an h5lite tree, crash-safe since format v2.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   : 8 bytes  = b"H5LITE02"
//! root    : block<group>
//! block<T>: len:u64, cksum:u64 (FNV-1a 64 of the len payload bytes), T
//! group   : n_attrs:u32, { name:str, tag:u8, value }*,
//!           n_children:u32, { name:str, kind:u8, block<payload> }*
//! kind    : 0 = group, 1 = dataset
//! dataset : dtype:u8, rank:u32, inner_dims:u64*, rows:u64,
//!           payload_len:u64, raw bytes
//! str     : len:u32, utf-8 bytes
//! ```
//!
//! Every group/dataset block is length-prefixed and checksummed, so
//! [`H5File::open`] can tell *exactly* which subtree a byte flip or a torn
//! write damaged: a corrupt dataset is dropped, a corrupt group is salvaged
//! child-by-child, and a truncated tail recovers to the last consistent
//! prefix. Anything dropped is reported — loudly — via [`RecoveryReport`]
//! instead of failing the open or silently mis-parsing.
//!
//! Writes are crash-safe: serialize to `<path>.h5lite.tmp`, `fsync`, then
//! atomically rename over the destination (plus a best-effort directory
//! sync), so a crash mid-flush leaves either the old file or the new file,
//! never a torn hybrid.
//!
//! Legacy v1 files (`b"H5LITE01"`, no checksums) still open with the strict
//! v1 decoder; the first flush rewrites them as v2.

use crate::codec::{put_str, Reader};
use crate::dataset::{DType, Dataset};
use crate::group::{Attr, Group, Node};
use crate::{Result, StoreError};
use hpacml_faults::{fault_point, fnv1a64};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC_V1: &[u8; 8] = b"H5LITE01";
const MAGIC_V2: &[u8; 8] = b"H5LITE02";

/// Deepest group nesting the decoders follow, counted in groups below the
/// root (the same bound as a dataset's rank). The decoders recurse once
/// per level and an empty nested group costs a few dozen bytes, so without
/// a cap a small crafted file overflows the stack.
const MAX_GROUP_DEPTH: usize = 64;

/// What [`H5File::open`] had to do to rescue a damaged file. Present only
/// when something was actually dropped or cut short; a clean open carries
/// no report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `/`-joined paths of children dropped because their block checksum
    /// failed (and, for datasets, could not be trusted).
    pub dropped: Vec<String>,
    /// `/`-joined paths of groups whose payload failed its checksum but
    /// were salvaged child-by-child (surviving children were kept).
    pub salvaged: Vec<String>,
    /// The file ended mid-record; everything after the cut was lost.
    pub truncated: bool,
}

impl RecoveryReport {
    fn is_clean(&self) -> bool {
        self.dropped.is_empty() && self.salvaged.is_empty() && !self.truncated
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered (truncated tail: {}, dropped: [{}], salvaged groups: [{}])",
            if self.truncated { "yes" } else { "no" },
            self.dropped.join(", "),
            self.salvaged.join(", "),
        )
    }
}

/// An h5lite file: an in-memory group tree bound to a path, persisted on
/// [`H5File::flush`] (and on drop, best-effort).
#[derive(Debug)]
pub struct H5File {
    path: PathBuf,
    root: Group,
    dirty: bool,
    recovery: Option<RecoveryReport>,
}

impl H5File {
    /// Create a new, empty file (truncating any existing one on flush).
    pub fn create(path: impl Into<PathBuf>) -> Self {
        H5File {
            path: path.into(),
            root: Group::new(),
            dirty: true,
            recovery: None,
        }
    }

    /// Open and parse an existing file.
    ///
    /// A damaged v2 file does not fail the open: corrupted or truncated
    /// blocks are dropped and the surviving prefix is returned, with the
    /// damage described by [`H5File::recovery`] (and echoed to stderr so
    /// the rescue is never silent).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        fault_point!("store.open");
        let mut f = std::fs::File::open(path.as_ref())?;
        let mut raw = Vec::new();
        f.read_to_end(&mut raw)?;
        let mut buf = Reader::new(&raw);
        let magic = buf.bytes(8).map_err(|_| StoreError::BadMagic)?;
        let (root, recovery) = if magic == MAGIC_V2 {
            let mut report = RecoveryReport::default();
            let root = decode_root_v2(&mut buf, &mut report);
            if report.is_clean() {
                (root, None)
            } else {
                eprintln!("hpacml-store: {}: {report}", path.as_ref().display());
                (root, Some(report))
            }
        } else if magic == MAGIC_V1 {
            (decode_group_v1(&mut buf, 0)?, None)
        } else {
            return Err(StoreError::BadMagic);
        };
        // A non-clean recovery means the in-memory tree is a *repaired*
        // prefix of what is on disk. Mark the file dirty so the repair is
        // flushed (on drop at the latest); otherwise every later `open`
        // re-pays the recovery scan and re-reports against the same
        // corrupt tail.
        let dirty = recovery.is_some();
        Ok(H5File {
            path: path.as_ref().to_path_buf(),
            root,
            dirty,
            recovery,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn root(&self) -> &Group {
        &self.root
    }

    pub fn root_mut(&mut self) -> &mut Group {
        self.dirty = true;
        &mut self.root
    }

    /// The recovery the last [`H5File::open`] had to perform, if any.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Total dataset payload bytes (Table III's "Collected Data Size").
    pub fn size_bytes(&self) -> usize {
        self.root.size_bytes()
    }

    /// Serialize and write the tree to `self.path` crash-safely: temp file,
    /// `fsync`, atomic rename (plus a best-effort directory sync).
    pub fn flush(&mut self) -> Result<()> {
        fault_point!("store.flush");
        let mut buf = MAGIC_V2.to_vec();
        let mut body = Vec::new();
        encode_group(&mut body, &self.root);
        put_block(&mut buf, &body);
        let tmp = self.path.with_extension("h5lite.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            fault_point!("store.flush.write");
            f.write_all(&buf)?;
            fault_point!("store.flush.sync");
            f.sync_all()?;
        }
        fault_point!("store.flush.rename");
        std::fs::rename(&tmp, &self.path)?;
        // Directory sync makes the rename itself durable. Best-effort: some
        // filesystems refuse fsync on a directory handle, and the data file
        // is already safe either way (old or new, never torn).
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        self.dirty = false;
        Ok(())
    }
}

impl Drop for H5File {
    fn drop(&mut self) {
        if self.dirty && self.flush().is_err() {
            // No Result channel out of drop; the owner (e.g. Region) counts
            // flush failures explicitly before dropping. Stay loud anyway.
            eprintln!(
                "hpacml-store: {}: flush on drop failed; latest appends lost",
                self.path.display()
            );
        }
    }
}

fn encode_attr(buf: &mut Vec<u8>, name: &str, attr: &Attr) {
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
        Attr::Str(s) => {
            buf.push(2);
            put_str(buf, s);
        }
    }
}

fn decode_attr(buf: &mut Reader) -> Result<(String, Attr)> {
    let name = buf.str()?;
    let attr = match buf.u8()? {
        0 => Attr::Int(buf.i64()?),
        1 => Attr::Float(buf.f64()?),
        2 => Attr::Str(buf.str()?),
        t => return Err(StoreError::Corrupt(format!("bad attr tag {t}"))),
    };
    Ok((name, attr))
}

fn encode_dataset(buf: &mut Vec<u8>, d: &Dataset) {
    buf.push(d.dtype().tag());
    buf.extend_from_slice(&(d.inner_shape().len() as u32).to_le_bytes());
    for dim in d.inner_shape() {
        buf.extend_from_slice(&(*dim as u64).to_le_bytes());
    }
    buf.extend_from_slice(&(d.rows() as u64).to_le_bytes());
    buf.extend_from_slice(&(d.raw().len() as u64).to_le_bytes());
    buf.extend_from_slice(d.raw());
}

fn decode_dataset(buf: &mut Reader) -> Result<Dataset> {
    let dtype = DType::from_tag(buf.u8()?)?;
    let rank = buf.count_u32(8)?;
    if rank > 64 {
        return Err(StoreError::Corrupt(format!(
            "implausible dataset rank {rank}"
        )));
    }
    let inner = (0..rank)
        .map(|_| buf.extent())
        .collect::<std::result::Result<_, _>>()?;
    let rows = buf.extent()?;
    let len = buf.extent()?;
    let data = buf.bytes(len)?.to_vec();
    Dataset::from_parts(dtype, inner, rows, data)
}

/// Append `body` as a length-prefixed, checksummed block.
fn put_block(buf: &mut Vec<u8>, body: &[u8]) {
    buf.extend_from_slice(&(body.len() as u64).to_le_bytes());
    buf.extend_from_slice(&fnv1a64(body).to_le_bytes());
    buf.extend_from_slice(body);
}

fn encode_group(buf: &mut Vec<u8>, g: &Group) {
    buf.extend_from_slice(&(g.attrs_map().len() as u32).to_le_bytes());
    for (name, attr) in g.attrs_map() {
        encode_attr(buf, name, attr);
    }
    buf.extend_from_slice(&(g.children().len() as u32).to_le_bytes());
    for (name, node) in g.children() {
        put_str(buf, name);
        let mut body = Vec::new();
        match node {
            Node::Group(child) => {
                buf.push(0);
                encode_group(&mut body, child);
            }
            Node::Dataset(d) => {
                buf.push(1);
                encode_dataset(&mut body, d);
            }
        }
        put_block(buf, &body);
    }
}

fn child_path(path: &str, name: &str) -> String {
    if path.is_empty() {
        name.to_string()
    } else {
        format!("{path}/{name}")
    }
}

/// Decode the checksummed root block. The root itself is a block, so even
/// damage at the very top degrades to salvage, never to a parse error.
fn decode_root_v2(buf: &mut Reader, report: &mut RecoveryReport) -> Group {
    let (Ok(len), Ok(cksum)) = (buf.extent(), buf.u64()) else {
        report.truncated = true;
        return Group::new();
    };
    let body = match buf.bytes(len) {
        Ok(body) => {
            if fnv1a64(body) != cksum {
                report.salvaged.push("/".to_string());
            }
            body
        }
        Err(_) => {
            report.truncated = true;
            buf.rest()
        }
    };
    decode_group_v2(Reader::new(body), "", 0, report)
}

/// Lenient v2 group decoder: returns every child that survives its own
/// checksum, records the rest in `report`, and never fails. When the
/// enclosing block's checksum matched, this decodes the full group exactly
/// as written. `depth` counts the groups between the root and this one;
/// child groups past [`MAX_GROUP_DEPTH`] are dropped unread.
fn decode_group_v2(
    mut buf: Reader,
    path: &str,
    depth: usize,
    report: &mut RecoveryReport,
) -> Group {
    let mut g = Group::new();
    let Ok(n_attrs) = buf.u32() else {
        report.truncated = true;
        return g;
    };
    for _ in 0..n_attrs {
        let Ok((name, attr)) = decode_attr(&mut buf) else {
            report.truncated = true;
            return g;
        };
        g.set_attr(name, attr);
    }
    let Ok(n_children) = buf.u32() else {
        report.truncated = true;
        return g;
    };
    for _ in 0..n_children {
        let header = buf.str().and_then(|name| {
            let kind = buf.u8()?;
            let len = buf.extent()?;
            let cksum = buf.u64()?;
            Ok((name, kind, len, cksum))
        });
        let Ok((name, kind, len, cksum)) = header else {
            report.truncated = true;
            return g;
        };
        let full = child_path(path, &name);
        if kind == 0 && depth == MAX_GROUP_DEPTH {
            report.dropped.push(full);
            if buf.bytes(len).is_err() {
                report.truncated = true;
                return g;
            }
            continue;
        }
        let Ok(body) = buf.bytes(len) else {
            // Truncated tail: salvage what the cut left of a group child;
            // a cut dataset payload cannot be trusted row-by-row, drop it.
            report.truncated = true;
            if kind == 0 {
                let child = decode_group_v2(Reader::new(buf.rest()), &full, depth + 1, report);
                g.insert_child(name, Node::Group(child));
            } else {
                report.dropped.push(full);
            }
            return g;
        };
        let sound = fnv1a64(body) == cksum;
        match kind {
            0 => {
                if !sound {
                    report.salvaged.push(full.clone());
                }
                let child = decode_group_v2(Reader::new(body), &full, depth + 1, report);
                g.insert_child(name, Node::Group(child));
            }
            1 if sound => match decode_dataset(&mut Reader::new(body)) {
                Ok(d) => {
                    g.insert_child(name, Node::Dataset(d));
                }
                Err(_) => report.dropped.push(full),
            },
            _ => report.dropped.push(full),
        }
    }
    g
}

/// Strict legacy decoder for v1 files (no per-block framing, no checksums).
/// `depth` counts the groups between the root and this one; nesting past
/// [`MAX_GROUP_DEPTH`] is `Corrupt`.
fn decode_group_v1(buf: &mut Reader, depth: usize) -> Result<Group> {
    let mut g = Group::new();
    for _ in 0..buf.u32()? {
        let (name, attr) = decode_attr(buf)?;
        g.set_attr(name, attr);
    }
    for _ in 0..buf.u32()? {
        let name = buf.str()?;
        match buf.u8()? {
            0 if depth == MAX_GROUP_DEPTH => {
                return Err(StoreError::Corrupt(format!(
                    "groups nested deeper than {MAX_GROUP_DEPTH}"
                )))
            }
            0 => {
                let child = decode_group_v1(buf, depth + 1)?;
                g.insert_child(name, Node::Group(child));
            }
            1 => {
                let d = decode_dataset(buf)?;
                g.insert_child(name, Node::Dataset(d));
            }
            t => return Err(StoreError::Corrupt(format!("bad node kind {t}"))),
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hpacml-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_tree() -> Group {
        let mut root = Group::new();
        root.set_attr("created_by", Attr::Str("hpacml".into()));
        let region = root.group_mut("stencil_region");
        region.set_attr("invocations", Attr::Int(3));
        region.set_attr("mean_time", Attr::Float(1.25));
        region
            .dataset_mut("inputs", DType::F32, &[2, 5])
            .unwrap()
            .append_f32(&(0..30).map(|i| i as f32).collect::<Vec<_>>())
            .unwrap();
        region
            .dataset_mut("outputs", DType::F32, &[2, 1])
            .unwrap()
            .append_f32(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
            .unwrap();
        region
            .dataset_mut("region_time_ns", DType::F64, &[])
            .unwrap()
            .append_f64(&[100.0, 110.0, 90.0])
            .unwrap();
        root
    }

    #[test]
    fn roundtrip_through_disk() {
        let path = tmp("roundtrip.h5lite");
        {
            let mut f = H5File::create(&path);
            *f.root_mut() = sample_tree();
            f.flush().unwrap();
        }
        let f = H5File::open(&path).unwrap();
        assert!(f.recovery().is_none());
        assert_eq!(f.root(), &sample_tree());
        let region = f.root().group("stencil_region").unwrap();
        assert_eq!(region.dataset("inputs").unwrap().rows(), 3);
        assert_eq!(region.dataset("inputs").unwrap().shape(), vec![3, 2, 5]);
        assert_eq!(
            region
                .dataset("region_time_ns")
                .unwrap()
                .read_f64()
                .unwrap(),
            vec![100.0, 110.0, 90.0]
        );
    }

    #[test]
    fn drop_flushes_dirty_file() {
        let path = tmp("dropflush.h5lite");
        {
            let mut f = H5File::create(&path);
            f.root_mut()
                .dataset_mut("d", DType::I64, &[])
                .unwrap()
                .append_i64(&[7])
                .unwrap();
            // no explicit flush
        }
        let f = H5File::open(&path).unwrap();
        assert_eq!(f.root().dataset("d").unwrap().read_i64().unwrap(), vec![7]);
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic.h5lite");
        std::fs::write(&path, b"NOTAFILE....").unwrap();
        assert!(matches!(H5File::open(&path), Err(StoreError::BadMagic)));
    }

    #[test]
    fn truncated_v1_file_rejected() {
        // Legacy files keep the strict contract: no checksums means no safe
        // recovery, so a cut v1 file is an error, not a guess.
        let path = tmp("trunc_v1.h5lite");
        let mut raw = Vec::from(*MAGIC_V1);
        raw.push(0x05); // truncated attr count
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(H5File::open(&path), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn truncated_tail_recovers_to_prefix() {
        let path = tmp("trunc.h5lite");
        {
            let mut f = H5File::create(&path);
            *f.root_mut() = sample_tree();
            f.flush().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let f = H5File::open(&path).unwrap();
        let report = f.recovery().expect("cut file must report recovery");
        assert!(report.truncated);
        // The cut hits the tail of the region group: earlier datasets
        // survive bit-exactly, the damaged one is dropped and named.
        let region = f.root().group("stencil_region").unwrap();
        assert_eq!(
            region.dataset("inputs").unwrap().read_f32().unwrap(),
            (0..30).map(|i| i as f32).collect::<Vec<_>>()
        );
        assert!(report
            .dropped
            .iter()
            .any(|p| p.starts_with("stencil_region/")));
    }

    #[test]
    fn flipped_dataset_byte_drops_only_that_dataset() {
        let path = tmp("flip.h5lite");
        {
            let mut f = H5File::create(&path);
            *f.root_mut() = sample_tree();
            f.flush().unwrap();
        }
        let clean = std::fs::read(&path).unwrap();
        // Locate the "inputs" payload (0.0, 1.0, 2.0 ... as f32 LE) and
        // flip a byte in the middle of it.
        let needle: Vec<u8> = [2.0f32, 3.0, 4.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let at = clean
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("payload present");
        let mut bytes = clean.clone();
        bytes[at + 2] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let f = H5File::open(&path).unwrap();
        let report = f.recovery().expect("flip must report recovery");
        assert!(report
            .dropped
            .contains(&"stencil_region/inputs".to_string()));
        assert!(!report.truncated);
        // Siblings after the damaged block still load bit-exactly.
        let region = f.root().group("stencil_region").unwrap();
        assert!(region.dataset("inputs").is_err());
        assert_eq!(
            region.dataset("outputs").unwrap().read_f32().unwrap(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
        assert_eq!(region.attrs_map().len(), 2);
    }

    #[test]
    fn recovered_file_reflushes_clean() {
        let path = tmp("reflush.h5lite");
        {
            let mut f = H5File::create(&path);
            *f.root_mut() = sample_tree();
            f.flush().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        {
            let mut f = H5File::open(&path).unwrap();
            assert!(f.recovery().is_some());
            f.root_mut(); // dirty → drop reflushes the survivors
        }
        let f = H5File::open(&path).unwrap();
        assert!(f.recovery().is_none(), "re-flushed file must be clean");
    }

    #[test]
    fn recovery_persists_without_further_writes() {
        // Opening a damaged file repairs it in memory; that repair must be
        // flushed even if the caller never touches the tree, so the next
        // open does not re-pay recovery against the same corrupt tail.
        let path = tmp("recover_persist.h5lite");
        {
            let mut f = H5File::create(&path);
            *f.root_mut() = sample_tree();
            f.flush().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        {
            let f = H5File::open(&path).unwrap();
            assert!(f.recovery().is_some());
            // Dropped untouched: the recovery itself marks the file dirty.
        }
        let f = H5File::open(&path).unwrap();
        assert!(
            f.recovery().is_none(),
            "repair must persist on drop without explicit writes"
        );
        // Surviving rows are intact across the reflush.
        let region = f.root().group("stencil_region").unwrap();
        assert_eq!(
            region.dataset("inputs").unwrap().read_f32().unwrap(),
            (0..30).map(|i| i as f32).collect::<Vec<_>>()
        );
        assert_eq!(region.attr("invocations"), Some(&Attr::Int(3)));
    }

    #[test]
    fn size_bytes_reports_payload() {
        let mut f = H5File::create(tmp("size.h5lite"));
        *f.root_mut() = sample_tree();
        assert_eq!(f.size_bytes(), 30 * 4 + 6 * 4 + 3 * 8);
        f.flush().unwrap();
    }

    #[test]
    fn empty_file_roundtrip() {
        let path = tmp("empty.h5lite");
        H5File::create(&path).flush().unwrap();
        let f = H5File::open(&path).unwrap();
        assert_eq!(f.root().child_names().count(), 0);
    }
}
