//! Host fingerprint recorded with every result, and the results log.
//!
//! Two results are comparable only when their fingerprints match: the
//! compare script flags a pair whose `id`s differ instead of comparing it.
//! The `id` hashes the host fields only; the commit and the db directory
//! are recorded beside it, since they differ between the two sides of
//! every comparison.

use std::io::Write;
use std::path::Path;

pub struct Fingerprint {
    /// Fields that identify the host (hashed into the `id`).
    host: Vec<(&'static str, String)>,
    /// Fields recorded beside the host ones.
    run: Vec<(&'static str, String)>,
}

impl Fingerprint {
    /// `{"id": .., "<field>": .., ...}`.
    pub fn json(&self) -> String {
        let mut parts = vec![format!("\"id\": \"{:016x}\"", self.id())];
        parts.extend(
            self.host
                .iter()
                .chain(&self.run)
                .map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v))),
        );
        format!("{{{}}}", parts.join(", "))
    }

    pub fn summary(&self) -> String {
        let parts: Vec<String> = self
            .host
            .iter()
            .chain(&self.run)
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("[{:016x}] {}", self.id(), parts.join(" "))
    }

    /// FNV-1a over the host fields, so a differing host shows at a glance.
    fn id(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (k, v) in &self.host {
            for b in k.bytes().chain(v.bytes()).chain([0u8]) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

pub fn collect(db_dir: &Path) -> Fingerprint {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let db_dir = std::env::current_dir()
        .map(|cwd| cwd.join(db_dir))
        .unwrap_or_else(|_| db_dir.to_path_buf());
    let host = vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu_model()),
        ("l2", cache_size(2)),
        ("l3", cache_size(3)),
        (
            "hpacml_threads",
            std::env::var("HPACML_THREADS").unwrap_or_default(),
        ),
        ("rustc", rustc_version()),
        ("db_fs", fs_type(&db_dir)),
    ];
    let run = vec![
        ("commit", git_commit()),
        ("db_dir", db_dir.display().to_string()),
    ];
    Fingerprint { host, run }
}

/// Append one line to `.bench_out/results.jsonl`.
pub fn append_log(line: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(crate::common::OUT_DIR)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(Path::new(crate::common::OUT_DIR).join("results.jsonl"))?;
    writeln!(f, "{line}")
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of cpu0's unified or data cache at `level`, as sysfs prints it.
fn cache_size(level: u32) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |p: &Path| std::fs::read_to_string(p).map(|s| s.trim().to_string());
    for idx in 0..8 {
        let dir = base.join(format!("index{idx}"));
        let (Ok(lvl), Ok(kind)) = (read(&dir.join("level")), read(&dir.join("type"))) else {
            continue;
        };
        if lvl == level.to_string() && kind != "Instruction" {
            return read(&dir.join("size")).unwrap_or_else(|_| "unknown".into());
        }
    }
    "none".into()
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory;
/// `none` in a checkout without git metadata.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "none".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|packed| {
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix).
fn fs_type(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_, point, kind) = (it.next()?, it.next()?, it.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}
