//! Scratch directories inside the checkout, removed when dropped.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// Where the benchmark keeps files between runs: trace exports only.
pub const ROOT: &str = ".bench_scratch";

static NEXT: AtomicU32 = AtomicU32::new(0);

/// A fresh directory under [`ROOT`] in the working directory.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::current_dir()
            .map_err(|e| format!("no working directory: {e}"))?
            .join(ROOT)
            .join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where a traced run leaves its span log; kept after the run.
pub fn trace_path(name: &str) -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(ROOT)
        .join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir.join(format!("{name}.jsonl")))
}
