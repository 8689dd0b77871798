//! Machine facts printed with every report, so a number is never read
//! apart from the machine and source it came from.

use std::path::Path;
use std::process::Command;

/// `rustc --version`, or why it is unknown.
pub fn rustc() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (rustc --version failed)".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The git revision when run from a git checkout; otherwise an FNV-1a
/// digest of the sources the benchmark builds, so two reports can
/// still be told apart.
pub fn revision() -> String {
    if Path::new(".git").exists() {
        if let Some(out) = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
        {
            return format!("git {}", String::from_utf8_lossy(&out.stdout).trim());
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!(
        "not a git checkout; source digest fnv1a64:{hash:016x} over {} files",
        files.len()
    )
}

fn collect(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, files);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml")
        ) {
            files.push(path);
        }
    }
}

/// The filesystem type and device holding `path`, from `/proc/mounts`
/// (longest mount point that prefixes the canonical path).
pub fn filesystem(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown (path not found)".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown (/proc/mounts unreadable)".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt)
                .then(|| (mnt.len(), format!("{fs} on {dev} mounted at {mnt}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, desc)| desc)
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
