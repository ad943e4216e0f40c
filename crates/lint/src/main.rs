//! CLI: `cargo run -p dbcopilot-lint -- [--deny-all | --public-items] [ROOT]`
//!
//! Walks `crates/` + `src/` + `vendor/serde_json/src` under ROOT (default:
//! the workspace root this binary was built from, falling back to the
//! current directory), prints
//! `file:line: [rule] message` diagnostics, and exits nonzero when any
//! are found. `--deny-all` is accepted for CI readability; diagnostics
//! are always denials — the flag exists so the CI invocation documents
//! its intent. `--public-items` prints a report instead — the count and
//! list of `pub` items no other file names (see
//! [`dbcopilot_lint::public_items`]) — and always exits 0.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut deny_all = false;
    let mut public_items = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny-all" => deny_all = true,
            "--public-items" => public_items = true,
            "--help" | "-h" => {
                println!("usage: dbcopilot-lint [--deny-all | --public-items] [ROOT]");
                println!("  checks workspace invariants; exits 1 on findings, 2 on I/O errors");
                println!("  --public-items: report `pub` items no other file names; exits 0");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("dbc-lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
            other => root = Some(PathBuf::from(other)),
        }
    }
    let root = root.unwrap_or_else(default_root);
    let walk_failed = |e: std::io::Error| {
        eprintln!("dbc-lint: failed to walk {}: {e}", root.display());
        ExitCode::from(2)
    };
    if public_items {
        return match dbcopilot_lint::public_items::unreferenced_pub_items(&root) {
            Ok(items) => {
                println!("{} unreferenced pub items", items.len());
                items.iter().for_each(|item| println!("{item}"));
                ExitCode::SUCCESS
            }
            Err(e) => walk_failed(e),
        };
    }
    let diags = match dbcopilot_lint::lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => return walk_failed(e),
    };
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        eprintln!("dbc-lint: clean ({})", root.display());
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "dbc-lint: {} finding{} ({})",
            diags.len(),
            if diags.len() == 1 { "" } else { "s" },
            if deny_all { "denied" } else { "denied; see ARCHITECTURE.md#invariants" }
        );
        ExitCode::FAILURE
    }
}

/// The workspace root: prefer the manifest dir baked in at compile time
/// (two levels above `crates/lint`), fall back to the current directory.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}
