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
//!
//! Nor may library code keep process-global mutable state (static atomics,
//! locks, lazily initialised statics, `static mut`): one caller's run must
//! never see another's. Counters live in the run's own result or in
//! per-thread cells.
//!
//! `unsafe` code stays where a benchmark shows it pays: the decoded
//! simulator's steady-state loops. Nowhere else may open an `unsafe` block
//! or declare an `unsafe` fn, impl or trait.

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
    assert!(
        hits.is_empty(),
        "stray src/crates/ trees (debug artifacts?): {hits:?}"
    );
}

/// Every `.rs` file under `dir`, skipping `src/bin/` trees unless
/// `with_bins`.
fn rust_sources(dir: &Path, with_bins: bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if with_bins || !(path.ends_with("bin") && dir.ends_with("src")) {
                rust_sources(&path, with_bins, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `file:line: code` for every non-comment line of `files` that `bad` flags.
fn lines_matching(files: &[PathBuf], bad: impl Fn(&Path, &str) -> bool) -> Vec<String> {
    assert!(files.len() > 50, "walked only {} files", files.len());
    let mut hits = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).unwrap();
        for (i, line) in text.lines().enumerate() {
            let code = line.trim_start();
            if !code.starts_with("//") && bad(file, code) {
                hits.push(format!("{}:{}: {code}", file.display(), i + 1));
            }
        }
    }
    hits
}

/// [`lines_matching`] over the root package's and every crate's library
/// sources.
fn library_lines_matching(bad: impl Fn(&str) -> bool) -> Vec<String> {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_sources(&root.join("src"), false, &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap().flatten() {
        rust_sources(&krate.path().join("src"), false, &mut files);
    }
    lines_matching(&files, |_, code| bad(code))
}

#[test]
fn no_library_reads_the_environment() {
    let hits = library_lines_matching(|code| code.contains("env::"));
    assert!(
        hits.is_empty(),
        "library code reads the environment:\n{}",
        hits.join("\n")
    );
}

#[test]
fn no_process_global_state_in_libraries() {
    let hits = library_lines_matching(|code| {
        let is_static = ["static ", "pub static ", "pub(crate) static "]
            .iter()
            .any(|p| code.starts_with(p));
        (is_static && code.contains("Atomic"))
            || code.contains("static mut ")
            || ["Mutex", "RwLock", "OnceLock", "LazyLock"]
                .iter()
                .any(|t| code.contains(t))
    });
    assert!(
        hits.is_empty(),
        "process-global state in library code:\n{}",
        hits.join("\n")
    );
}

/// Whether `code` opens an `unsafe` block or declares an `unsafe` item. An
/// identifier that merely starts with the word (`unsafe_load`) does not.
fn opens_unsafe(code: &str) -> bool {
    code.match_indices("unsafe").any(|(i, w)| {
        let before = code[..i].chars().next_back();
        let after = code[i + w.len()..].trim_start();
        !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
            && ["{", "fn ", "impl", "trait ", "extern "]
                .iter()
                .any(|k| after.starts_with(k))
    })
}

#[test]
fn no_unsafe_outside_the_decoded_engine() {
    // The decoded simulator's steady-state loops index without bounds
    // checks because it measurably pays (see the `decode.rs` module doc).
    let allowed = Path::new("crates/psp-sim/src/decode.rs");
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples", "crates"] {
        rust_sources(&root.join(dir), true, &mut files);
    }
    let hits = lines_matching(&files, |file, code| {
        !file.ends_with(allowed) && opens_unsafe(code)
    });
    assert!(
        hits.is_empty(),
        "unsafe code outside {}:\n{}",
        allowed.display(),
        hits.join("\n")
    );
    // The detector must still see the engine's own unsafe blocks.
    let kept = lines_matching(&files, |file, code| {
        file.ends_with(allowed) && opens_unsafe(code)
    });
    assert!(!kept.is_empty(), "no unsafe found in {}", allowed.display());
}
