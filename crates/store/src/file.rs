//! Single-file binary codec for an h5lite tree: format v3, crash-safe and
//! checksummed so that every byte after the root header is hashed exactly
//! once.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   : 8 bytes  = b"H5LITE03"
//! root    : block<group>
//! block<T>: len:u64, cksum:u64, T (len bytes)
//! group   : n_attrs:u32, { name:str, tag:u8, value }*,
//!           n_children:u32, { name:str, kind:u8, block<payload> }*
//! kind    : 0 = group, 1 = dataset
//! dataset : dtype:u8, rank:u32, inner_dims:u64*, rows:u64,
//!           payload_len:u64, raw bytes
//! str     : len:u32, utf-8 bytes
//! ```
//!
//! Every checksum is FNV-1a 64. What a block's checksum covers:
//!
//! | block   | v3 (written)                                | v2 (read only)         |
//! |---------|---------------------------------------------|------------------------|
//! | dataset | the dataset body                            | the dataset body       |
//! | group   | its own bytes: `n_attrs`, attrs, `n_children` and each child's `name, kind, len, cksum` — not the child bodies | the whole group body, child blocks included |
//!
//! In v3 a payload byte sits under its dataset's checksum alone, so a flush
//! and an open each hash it once; v2's nested checksums hashed it once per
//! enclosing group. [`H5File::open`] still verifies every block's own
//! checksum, so it can tell *exactly* which subtree a byte flip or a torn
//! write damaged: a corrupt dataset is dropped, a group whose own bytes
//! fail is salvaged child-by-child, and a truncated tail recovers to the
//! last consistent prefix. Anything dropped is reported — loudly — via
//! [`RecoveryReport`] instead of failing the open or silently mis-parsing.
//!
//! Writes are crash-safe: serialize to `<path>.tmp` (the full file name
//! plus `.tmp`, so `run.h5` and `run.dat` never share one), `fsync`, then
//! atomically rename over the destination (plus a best-effort directory
//! sync), so a crash mid-flush leaves either the old file or the new file,
//! never a torn hybrid.
//!
//! Legacy files still open: v2 (`b"H5LITE02"`) through the same lenient
//! decoder as v3, v1 (`b"H5LITE01"`, no checksums) through the strict v1
//! decoder. The first flush rewrites either as v3.

use crate::codec::{put_str, Reader};
use crate::dataset::{DType, Dataset};
use crate::group::{Attr, Group, Node};
use crate::{Result, StoreError};
use hpacml_faults::{fault_point, fnv1a64, Fnv1a64};
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC_V1: &[u8; 8] = b"H5LITE01";
const MAGIC_V2: &[u8; 8] = b"H5LITE02";
const MAGIC_V3: &[u8; 8] = b"H5LITE03";

/// Bytes a flush reserves beyond the dataset payloads for the magic, the
/// block headers, names and attrs. Framing past it costs one regrowth.
const FRAMING_RESERVE: usize = 4096;

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
    /// A damaged v2 or v3 file does not fail the open: corrupted or truncated
    /// blocks are dropped and the surviving prefix is returned, with the
    /// damage described by [`H5File::recovery`] (and echoed to stderr so
    /// the rescue is never silent).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        fault_point!("store.open");
        let raw = std::fs::read(path.as_ref())?;
        let mut buf = Reader::new(&raw);
        let magic = buf.bytes(8).map_err(|_| StoreError::BadMagic)?;
        let (root, recovery) = if magic == MAGIC_V1 {
            (decode_group_v1(&mut buf, 0)?, None)
        } else {
            let cover = if magic == MAGIC_V3 {
                GroupCover::Framing
            } else if magic == MAGIC_V2 {
                GroupCover::Body
            } else {
                return Err(StoreError::BadMagic);
            };
            let mut report = RecoveryReport::default();
            let root = decode_root(&mut buf, cover, &mut report);
            if report.is_clean() {
                (root, None)
            } else {
                eprintln!("hpacml-store: {}: {report}", path.as_ref().display());
                (root, Some(report))
            }
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
        let mut buf = Vec::with_capacity(8 + self.size_bytes() + FRAMING_RESERVE);
        buf.extend_from_slice(MAGIC_V3);
        encode_block(&mut buf, |buf| encode_group(buf, &self.root));
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
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

/// Encode `d`'s body at the end of `buf` and return its checksum.
fn encode_dataset(buf: &mut Vec<u8>, d: &Dataset) -> u64 {
    let start = buf.len();
    buf.push(d.dtype().tag());
    buf.extend_from_slice(&(d.inner_shape().len() as u32).to_le_bytes());
    for dim in d.inner_shape() {
        buf.extend_from_slice(&(*dim as u64).to_le_bytes());
    }
    buf.extend_from_slice(&(d.rows() as u64).to_le_bytes());
    buf.extend_from_slice(&(d.raw().len() as u64).to_le_bytes());
    buf.extend_from_slice(d.raw());
    fnv1a64(&buf[start..])
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

/// Append a block in place: reserve its `len, cksum` header, let `body`
/// encode the payload after it and return the payload's checksum, then
/// back-patch the header. Returns the header's offset in `buf`.
fn encode_block(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>) -> u64) -> usize {
    let at = buf.len();
    buf.extend_from_slice(&[0; 16]);
    let cksum = body(buf);
    let len = (buf.len() - at - 16) as u64;
    buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    buf[at + 8..at + 16].copy_from_slice(&cksum.to_le_bytes());
    at
}

/// Encode `g`'s body at the end of `buf` and return its v3 checksum: the
/// group's own bytes stream through one FNV state, run by run, and each
/// child body between two runs is left to the child's own checksum.
fn encode_group(buf: &mut Vec<u8>, g: &Group) -> u64 {
    let mut hash = Fnv1a64::default();
    // Start of the group bytes not yet hashed.
    let mut run = buf.len();
    buf.extend_from_slice(&(g.attrs_map().len() as u32).to_le_bytes());
    for (name, attr) in g.attrs_map() {
        encode_attr(buf, name, attr);
    }
    buf.extend_from_slice(&(g.children().len() as u32).to_le_bytes());
    for (name, node) in g.children() {
        put_str(buf, name);
        let header = match node {
            Node::Group(child) => {
                buf.push(0);
                encode_block(buf, |buf| encode_group(buf, child))
            }
            Node::Dataset(d) => {
                buf.push(1);
                encode_block(buf, |buf| encode_dataset(buf, d))
            }
        };
        hash.write(&buf[run..header + 16]);
        run = buf.len();
    }
    hash.write(&buf[run..]);
    hash.finish()
}

fn child_path(path: &str, name: &str) -> String {
    if path.is_empty() {
        name.to_string()
    } else {
        format!("{path}/{name}")
    }
}

/// What a group block's checksum covers; the one thing v2 and v3 decode
/// differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupCover {
    /// v2: the whole group body, child blocks included.
    Body,
    /// v3: the group's own bytes — attrs and child headers, not child bodies.
    Framing,
}

/// Decode the checksummed root block. The root itself is a block, so even
/// damage at the very top degrades to salvage, never to a parse error.
fn decode_root(buf: &mut Reader, cover: GroupCover, report: &mut RecoveryReport) -> Group {
    let (Ok(len), Ok(cksum)) = (buf.extent(), buf.u64()) else {
        report.truncated = true;
        return Group::new();
    };
    match buf.bytes(len) {
        Ok(body) => decode_group(body, Some(cksum), "", 0, cover, report),
        Err(_) => {
            report.truncated = true;
            decode_group(buf.rest(), None, "", 0, cover, report)
        }
    }
}

/// Lenient v2/v3 group decoder: returns every child that survives its own
/// checksum, records the rest in `report`, and never fails. `cksum` is the
/// group block's checksum, `None` when the file was cut inside the block
/// and there is nothing whole to check. A group that fails its own check
/// is reported as salvaged, in pre-order before anything found below it.
/// When every check passes, this decodes the full group exactly as written.
/// `depth` counts the groups between the root and this one; child groups
/// past [`MAX_GROUP_DEPTH`] are dropped unread.
fn decode_group(
    body: &[u8],
    cksum: Option<u64>,
    path: &str,
    depth: usize,
    cover: GroupCover,
    report: &mut RecoveryReport,
) -> Group {
    let slot = report.salvaged.len();
    let mut g = Group::new();
    let framing = decode_group_body(body, &mut g, path, depth, cover, report);
    if framing.is_none() {
        report.truncated = true;
    }
    let sound = match (cover, cksum) {
        (_, None) => true,
        (GroupCover::Body, Some(c)) => fnv1a64(body) == c,
        (GroupCover::Framing, Some(c)) => framing == Some(c),
    };
    if !sound {
        let label = if path.is_empty() { "/" } else { path };
        report.salvaged.insert(slot, label.to_string());
    }
    g
}

/// Decode a group body into `g`. Returns the FNV-1a 64 of the group's own
/// bytes — every byte of `body` outside a child block, so bytes trailing
/// the last child count too — or `None` if the body ended mid-record.
fn decode_group_body(
    body: &[u8],
    g: &mut Group,
    path: &str,
    depth: usize,
    cover: GroupCover,
    report: &mut RecoveryReport,
) -> Option<u64> {
    let mut buf = Reader::new(body);
    let mut hash = Fnv1a64::default();
    // Start of the group bytes not yet hashed.
    let mut run = 0;
    for _ in 0..buf.u32().ok()? {
        let (name, attr) = decode_attr(&mut buf).ok()?;
        g.set_attr(name, attr);
    }
    for _ in 0..buf.u32().ok()? {
        let name = buf.str().ok()?;
        let (kind, len, cksum) = (buf.u8().ok()?, buf.extent().ok()?, buf.u64().ok()?);
        hash.write(&body[run..buf.pos()]);
        let full = child_path(path, &name);
        if kind == 0 && depth == MAX_GROUP_DEPTH {
            report.dropped.push(full);
            buf.bytes(len).ok()?;
            run = buf.pos();
            continue;
        }
        let Ok(child) = buf.bytes(len) else {
            // Truncated tail: salvage what the cut left of a group child;
            // a cut dataset payload cannot be trusted row-by-row, drop it.
            if kind == 0 {
                let child = decode_group(buf.rest(), None, &full, depth + 1, cover, report);
                g.insert_child(name, Node::Group(child));
            } else {
                report.dropped.push(full);
            }
            return None;
        };
        run = buf.pos();
        match kind {
            0 => {
                let child = decode_group(child, Some(cksum), &full, depth + 1, cover, report);
                g.insert_child(name, Node::Group(child));
            }
            1 if fnv1a64(child) == cksum => match decode_dataset(&mut Reader::new(child)) {
                Ok(d) => {
                    g.insert_child(name, Node::Dataset(d));
                }
                Err(_) => report.dropped.push(full),
            },
            _ => report.dropped.push(full),
        }
    }
    hash.write(&body[run..]);
    Some(hash.finish())
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
        assert_eq!(report.dropped, vec!["stencil_region/inputs".to_string()]);
        // A payload byte sits under its dataset's checksum only, so no
        // ancestor group is salvaged.
        assert!(report.salvaged.is_empty(), "{report}");
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
    fn flipped_group_attr_salvages_only_that_group() {
        let path = tmp("flip_attr.h5lite");
        {
            let mut f = H5File::create(&path);
            *f.root_mut() = sample_tree();
            f.flush().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // The value of `stencil_region`'s `mean_time` attr (1.25 as f64 LE).
        let needle = 1.25f64.to_le_bytes();
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("attr present");
        bytes[at + 3] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let f = H5File::open(&path).unwrap();
        let report = f.recovery().expect("flip must report recovery");
        assert_eq!(report.salvaged, vec!["stencil_region".to_string()]);
        assert!(report.dropped.is_empty(), "{report}");
        assert!(!report.truncated);
        let want = sample_tree();
        let want = want.group("stencil_region").unwrap();
        let got = f.root().group("stencil_region").unwrap();
        assert_eq!(got.children(), want.children(), "children bit-exact");
        assert_eq!(got.attr("invocations"), Some(&Attr::Int(3)));
        assert_ne!(got.attr("mean_time"), want.attr("mean_time"));
        assert_eq!(f.root().attrs_map(), sample_tree().attrs_map());
    }

    #[test]
    fn unhashed_bytes_in_a_group_body_salvage_it() {
        // Bytes appended to the root body are under no checksum; lengthening
        // the root block over them must not open clean.
        let path = tmp("trailing.h5lite");
        {
            let mut f = H5File::create(&path);
            *f.root_mut() = sample_tree();
            f.flush().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        bytes[8..16].copy_from_slice(&(len + 4).to_le_bytes());
        bytes.extend_from_slice(&[0; 4]);
        std::fs::write(&path, &bytes).unwrap();
        let f = H5File::open(&path).unwrap();
        let report = f.recovery().expect("trailing bytes must report");
        assert_eq!(report.salvaged, vec!["/".to_string()]);
        assert_eq!(f.root(), &sample_tree());
    }

    #[test]
    fn sibling_files_flush_through_their_own_temp_files() {
        // `x.h5` and `x.dat` share a stem; each must stage through its own
        // temp file, or concurrent flushes cross their trees. A barrier
        // starts both flushes of a round together, so neither thread may
        // stop early: each counts its bad rounds instead.
        const ROUNDS: i64 = 100;
        let dir = tmp("siblings");
        std::fs::create_dir_all(&dir).unwrap();
        let round_start = std::sync::Barrier::new(2);
        let flusher = |name: &'static str| {
            let mut f = H5File::create(dir.join(name));
            let mut bad = 0;
            for round in 0..ROUNDS {
                f.root_mut().set_attr("file", Attr::Str(name.into()));
                f.root_mut().set_attr("round", Attr::Int(round));
                round_start.wait();
                let own = f.flush().is_ok()
                    && H5File::open(f.path()).is_ok_and(|back| back.root() == f.root());
                bad += usize::from(!own);
            }
            bad
        };
        let (h5, dat) = std::thread::scope(|s| {
            let h5 = s.spawn(|| flusher("x.h5"));
            let dat = s.spawn(|| flusher("x.dat"));
            (h5.join().unwrap(), dat.join().unwrap())
        });
        assert_eq!((h5, dat), (0, 0), "bad rounds of {ROUNDS}");
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
