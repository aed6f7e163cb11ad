//! Workspace rules that rustc and clippy cannot state on their own.
//!
//! Clippy enforces the rules themselves once a crate root opts in (see
//! `clippy.toml` and the `cfg_attr` lines below); these tests make sure
//! every crate root opts in, that every observer hook is emitted, and
//! that the estimator service stays free of shared mutable state. They
//! read source files as plain text, so a rule here is a string search,
//! not a parse.

use std::fs;
use std::path::{Path, PathBuf};

/// `#![forbid(unsafe_code)]` and the panic lints, in every crate root.
const EVERY_ROOT: [&str; 2] = [
    "#![forbid(unsafe_code)]",
    "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
     clippy::unreachable, clippy::todo, clippy::unimplemented))]",
];
/// The crates whose public API must be fully documented.
const DOCUMENTED: [&str; 8] = [
    "sim", "core", "workload", "cluster", "stats", "repro", "service", "classad",
];
/// The crates that may not compare floats with `==` outside tests
/// (`classad/src/value.rs` opts out: ClassAd `==` is exact by spec).
const NO_FLOAT_EQ: [&str; 6] = ["sim", "core", "cluster", "workload", "service", "classad"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The source with comment lines dropped and all whitespace removed, so
/// a rustfmt reflow does not matter and a commented-out attribute does
/// not count.
fn squeezed(source: &str) -> String {
    source
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .flat_map(str::chars)
        .filter(|c| !c.is_whitespace())
        .collect()
}

fn has_attr(source: &str, attr: &str) -> bool {
    squeezed(source).contains(&squeezed(attr))
}

/// Every library root: each directory under `crates/`, plus the facade.
fn lib_roots() -> Vec<(String, PathBuf)> {
    let mut roots: Vec<(String, PathBuf)> = fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry is readable").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .map(|dir| {
            let name = dir
                .file_name()
                .expect("named")
                .to_string_lossy()
                .into_owned();
            (name, dir.join("src/lib.rs"))
        })
        .collect();
    roots.sort();
    roots.push(("resmatch".to_string(), root().join("src/lib.rs")));
    roots
}

#[test]
fn every_crate_root_opts_into_the_workspace_lints() {
    let roots = lib_roots();
    for name in DOCUMENTED.iter().chain(&NO_FLOAT_EQ) {
        assert!(
            roots.iter().any(|(n, _)| n == name),
            "crates/{name} is named by a rule here but does not exist"
        );
    }
    let mut missing = Vec::new();
    for (name, path) in &roots {
        let source = read(path);
        let mut required: Vec<&str> = EVERY_ROOT.to_vec();
        if DOCUMENTED.contains(&name.as_str()) {
            required.push("#![deny(missing_docs)]");
        }
        if NO_FLOAT_EQ.contains(&name.as_str()) {
            required.push("#![cfg_attr(not(test), deny(clippy::float_cmp))]");
        }
        for attr in required {
            if !has_attr(&source, attr) {
                missing.push(format!("{}: {attr}", path.display()));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "crate roots lack:\n{}",
        missing.join("\n")
    );
}

/// The `fn on_*` names declared inside `trait <name>`'s body.
fn hooks(observer: &str, name: &str) -> Vec<String> {
    let start = observer
        .find(&format!("pub trait {name}"))
        .unwrap_or_else(|| panic!("observer.rs declares {name}"));
    let open = start + observer[start..].find('{').expect("trait body");
    let mut depth = 0usize;
    let mut end = open;
    for (i, c) in observer[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            end = open + i;
            break;
        }
    }
    observer[open..end]
        .split("fn on_")
        .skip(1)
        .map(|rest| {
            let ident: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            format!("on_{ident}")
        })
        .collect()
}

#[test]
fn every_observer_hook_has_an_emission_site() {
    let sim = root().join("crates/sim/src");
    let observer = read(&sim.join("observer.rs"));
    let mut dead = Vec::new();
    for (tr, emitter) in [
        ("SimObserver", "engine.rs"),
        ("SweepObserver", "experiment.rs"),
    ] {
        let source = read(&sim.join(emitter));
        let code = source.split("#[cfg(test)]").next().unwrap_or_default();
        let hooks = hooks(&observer, tr);
        assert!(!hooks.is_empty(), "{tr} declares no on_* hooks");
        for hook in hooks {
            if !code.contains(&format!(".{hook}(")) {
                dead.push(format!("{tr}::{hook} (never called in {emitter})"));
            }
        }
    }
    assert!(
        dead.is_empty(),
        "observer hooks without an emission site:\n{}",
        dead.join("\n")
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("entry is readable").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

#[test]
fn the_service_holds_no_shared_mutable_state() {
    // Shards run one per thread with no synchronization; these are the
    // ways state could be shared between them or with other threads.
    const BANNED: [&str; 8] = [
        "static mut",
        "Mutex",
        "RwLock",
        "Cell",
        "Atomic",
        "thread_local",
        "OnceLock",
        "LazyLock",
    ];
    let mut hits = Vec::new();
    for path in rust_files(&root().join("crates/service/src")) {
        for (n, line) in read(&path).lines().enumerate() {
            let code = line.split("//").next().unwrap_or_default();
            for word in BANNED.iter().filter(|w| code.contains(*w)) {
                hits.push(format!("{}:{}: {word}", path.display(), n + 1));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "shared mutable state in the service:\n{}",
        hits.join("\n")
    );
}
