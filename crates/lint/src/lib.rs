//! dbcopilot-lint: a hand-rolled static analyzer for this workspace's
//! invariants.
//!
//! With no crates.io access there is no clippy plugin, miri, or loom — so
//! the invariants the codebase actually relies on (bit-identical results
//! at any `DBC_THREADS`, a serving path that never panics a worker, a
//! declared lock-order ranking) are enforced by this crate instead. It is
//! deliberately dependency-free: a string/comment-aware lexer
//! ([`lexer`]), a token-stream rule engine ([`rules`]), and a walker over
//! `crates/` + `src/` + `vendor/serde_json/src` that emits `file:line`
//! diagnostics.
//!
//! Suppression is per-line: `// dbc-lint: allow(<rule>)` followed by a
//! justification. Trailing pragmas apply to their own line, standalone
//! pragmas to the next line. A pragma without a justification is itself
//! a diagnostic — the point is an auditable record of *why* each
//! exception is safe.

pub mod lexer;
pub mod public_items;
pub mod rules;

use rules::Scope;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates under the bit-identical determinism contract (results and
/// `DBC1` bytes must not depend on iteration order, wall clock, or
/// thread count).
pub const DETERMINISTIC_CRATES: &[&str] =
    &["core", "nn", "graph", "retrieval", "synth", "sqlengine", "eval"];

/// Crates whose arithmetic routes and trains: their transcendentals are
/// the first-party `dbcopilot_nn::math` functions, never the platform libm.
const NUMERIC_CRATES: &[&str] = &["core", "nn"];

/// Crates on the serving request path (a panic kills a worker).
pub const SERVING_CRATES: &[&str] = &["http", "serve"];

/// The one vendored tree that is linted, as serving code: every request
/// body, `/admin/publish` spec and bundle JSON section is parsed by it.
const VENDORED_SERVING_SRC: &str = "vendor/serde_json/src";

/// One `file:line` diagnostic.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub path: PathBuf,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path.display(), self.line, self.rule, self.message)
    }
}

/// Classify a workspace-relative path (`/`-separated). `None` means the
/// file is out of scope: vendored code other than `vendor/serde_json/src`,
/// build output, tests, benches, examples, or lint fixtures.
pub fn scope_for(rel: &str) -> Option<Scope> {
    if !rel.ends_with(".rs") {
        return None;
    }
    if rel.strip_prefix(VENDORED_SERVING_SRC).is_some_and(|tail| tail.starts_with('/')) {
        return Some(Scope { serving: true, ..Scope::default() });
    }
    let skip_dirs = ["vendor/", "target/", "tests/", "benches/", "examples/", "fixtures/", ".git/"];
    for dir in skip_dirs {
        if rel.starts_with(dir) || rel.contains(&format!("/{dir}")) {
            return None;
        }
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        let (krate, tail) = rest.split_once('/')?;
        if !tail.starts_with("src/") && tail != "src" && !tail.starts_with("src.") {
            // build.rs etc. — still lintable, but only src trees carry
            // the crate-scoped invariants.
            return Some(Scope::default());
        }
        return Some(Scope {
            deterministic: DETERMINISTIC_CRATES.contains(&krate),
            serving: SERVING_CRATES.contains(&krate),
            runtime: krate == "runtime",
            numeric: NUMERIC_CRATES.contains(&krate),
        });
    }
    if rel.starts_with("src/") {
        return Some(Scope::default());
    }
    None
}

/// Lint one source string under a scope. This is the seam the fixture
/// tests drive directly.
pub fn lint_source(source: &str, scope: Scope) -> Vec<rules::Finding> {
    rules::check(&lexer::lex(source), scope)
}

/// Lint every in-scope file under `root` (the workspace checkout).
/// Diagnostics come back sorted by path then line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["crates", "src", VENDORED_SERVING_SRC] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, LINT_SKIP_DIRS, &mut files)?;
        }
    }
    files.sort();
    let mut diags: Vec<Diagnostic> = Vec::new();
    for file in files {
        let rel = match file.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        let Some(scope) = scope_for(&rel) else { continue };
        let source = fs::read_to_string(&file)?;
        for f in lint_source(&source, scope) {
            diags.push(Diagnostic {
                path: PathBuf::from(&rel),
                line: f.line,
                rule: f.rule,
                message: f.message,
            });
        }
    }
    Ok(diags)
}

/// Directories the lint walk does not descend into (see [`scope_for`]).
const LINT_SKIP_DIRS: &[&str] =
    &["target", "vendor", "tests", "benches", "examples", "fixtures", ".git"];

fn collect_rs_files(dir: &Path, skip: &[&str], out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if skip.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(&path, skip, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_classification() {
        let det = scope_for("crates/core/src/lib.rs").unwrap();
        assert!(det.deterministic && !det.serving && !det.runtime && det.numeric);
        assert!(scope_for("crates/nn/src/math.rs").unwrap().numeric);
        assert!(!scope_for("crates/synth/src/questioner.rs").unwrap().numeric);
        let srv = scope_for("crates/http/src/server.rs").unwrap();
        assert!(srv.serving && !srv.deterministic && !srv.numeric);
        let rt = scope_for("crates/runtime/src/pool.rs").unwrap();
        assert!(rt.runtime);
        assert!(scope_for("vendor/rand/src/lib.rs").is_none());
        let json = scope_for("vendor/serde_json/src/lib.rs").unwrap();
        assert!(json.serving && !json.deterministic && !json.runtime);
        assert!(scope_for("vendor/serde_json/tests/x.rs").is_none());
        assert!(scope_for("crates/core/tests/determinism.rs").is_none());
        assert!(scope_for("crates/lint/tests/fixtures/bad.rs").is_none());
        assert!(scope_for("crates/eval/benches/routing.rs").is_none());
        assert!(scope_for("crates/core/src/codec.rs").is_some());
        assert!(scope_for("README.md").is_none());
    }

    #[test]
    fn lint_source_flags_and_suppresses() {
        let scope = Scope { deterministic: true, ..Scope::default() };
        let bad = "fn f(m: HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\n";
        let findings = lint_source(bad, scope);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, rules::HASHMAP_ITER_ORDER);

        let ok = "fn f(m: HashMap<u32, u32>) -> Vec<u32> {\n\
                  // dbc-lint: allow(hashmap-iter-order): keys are sorted by the caller below\n\
                  m.keys().copied().collect() }\n";
        assert!(lint_source(ok, scope).is_empty());
    }

    #[test]
    fn libm_calls_are_findings_only_in_numeric_crates() {
        let src = "fn f(x: f32) -> f32 { x.exp() }\n";
        let numeric = Scope { numeric: true, ..Scope::default() };
        assert_eq!(lint_source(src, numeric).len(), 1);
        assert!(lint_source(src, Scope { deterministic: true, ..Scope::default() }).is_empty());
    }

    #[test]
    fn unjustified_pragma_is_a_diagnostic() {
        let scope = Scope::default();
        let src = "// dbc-lint: allow(no-raw-spawn)\nfn f() { spawn(worker); }\n";
        let findings = lint_source(src, scope);
        // the pragma complaint AND the un-suppressed spawn finding
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.rule == rules::PRAGMA));
        assert!(findings.iter().any(|f| f.rule == rules::NO_RAW_SPAWN));
    }
}
