//! Repository-hygiene checks.
//!
//! A stray `src/crates/` tree once shipped inside `psp-kernels` (a debug
//! artifact from a mis-pasted path). Nothing referenced it, so the build
//! never noticed. This test walks every crate's `src/` and fails if such a
//! nested tree reappears; CI additionally greps for it.
//!
//! Library code also must not read the process environment: a behaviour
//! switch belongs in an explicit argument or config, where callers and
//! tests can see it. Only binaries (`src/bin/`) may read `std::env`.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR of the root `psp` package IS the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn walk(dir: &Path, hits: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "crates")
                && path
                    .parent()
                    .and_then(|p| p.file_name())
                    .is_some_and(|n| n == "src")
            {
                hits.push(path);
            } else {
                walk(&path, hits);
            }
        }
    }
}

#[test]
fn no_nested_src_crates_directories() {
    let root = workspace_root();
    let mut hits = Vec::new();
    walk(&root.join("src"), &mut hits);
    walk(&root.join("crates"), &mut hits);
    walk(&root.join("vendor"), &mut hits);
    assert!(
        hits.is_empty(),
        "stray src/crates/ trees (debug artifacts?): {hits:?}"
    );
}

/// Every `.rs` file under `dir`, skipping `src/bin/` trees.
fn library_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if !(path.ends_with("bin") && dir.ends_with("src")) {
                library_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_library_reads_the_environment() {
    let root = workspace_root();
    let mut files = Vec::new();
    library_sources(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap().flatten() {
        library_sources(&krate.path().join("src"), &mut files);
    }
    assert!(files.len() > 50, "walked only {} files", files.len());
    let mut hits = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        for (i, line) in text.lines().enumerate() {
            let code = line.trim_start();
            if !code.starts_with("//") && code.contains("env::") {
                hits.push(format!("{}:{}: {code}", file.display(), i + 1));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "library code reads the environment:\n{}",
        hits.join("\n")
    );
}
