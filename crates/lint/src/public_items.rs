//! `--public-items`: the `pub` items nothing outside their own file names.
//!
//! A *report*, not a rule (no pragma, no denial): every `pub
//! fn|struct|enum|trait|type|const` declared under `crates/*/src` or `src/`
//! whose name appears as an identifier token in no other file of `crates/
//! src/ tests/ examples/ exp_perf/src`. It is what a PR that deletes a
//! caller runs to see what the deletion orphaned, and the count CI holds to
//! a budget. Matching is by name, so a `pub fn new` is "referenced" by any
//! other `new`: the report under-reports, it never accuses a used item.

use std::collections::HashMap;
use std::fs;
use std::path::Path;

use crate::lexer::{lex, Tok, TokKind};

const ITEM_KINDS: [&str; 6] = ["fn", "struct", "enum", "trait", "type", "const"];

/// One `pub` item no other file refers to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PubItem {
    /// Workspace-relative path of the defining file.
    pub path: String,
    pub line: u32,
    /// `fn`, `struct`, `enum`, `trait`, `type` or `const`.
    pub kind: &'static str,
    pub name: String,
}

impl std::fmt::Display for PubItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: pub {} {}", self.path, self.line, self.kind, self.name)
    }
}

/// The fully-`pub` items `tokens` declares, as `(line, kind, name)`.
/// `pub(crate)` and friends are not public.
fn declared(tokens: &[Tok]) -> Vec<(u32, &'static str, &str)> {
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !tok.is_ident("pub") {
            continue;
        }
        // `const`/`unsafe`/`async` in front of `fn` qualify it; `pub const
        // NAME` is itself an item.
        let mut at = i + 1;
        while tokens.get(at).is_some_and(|t| ["const", "unsafe", "async"].contains(&&*t.text))
            && tokens.get(at + 1).is_some_and(|t| t.is_ident("fn") || t.is_ident("unsafe"))
        {
            at += 1;
        }
        let (Some(kind), Some(name)) = (tokens.get(at), tokens.get(at + 1)) else { continue };
        if let Some(kind) = ITEM_KINDS.iter().find(|k| kind.is_ident(k)) {
            if name.kind == TokKind::Ident {
                out.push((tok.line, *kind, name.text.as_str()));
            }
        }
    }
    out
}

/// The report over in-memory sources, as `(relative path, source, declares)`:
/// items of the files with `declares` set whose name occurs in no *other*
/// file. Sorted by path, then line. This is the seam the fixture test drives.
pub fn unreferenced_in(files: &[(String, String, bool)]) -> Vec<PubItem> {
    let lexed: Vec<Vec<Tok>> = files.iter().map(|(_, source, _)| lex(source).tokens).collect();
    // Identifier → the one file using it, or `None` once a second one does.
    let mut users: HashMap<&str, Option<usize>> = HashMap::new();
    for (file, tokens) in lexed.iter().enumerate() {
        for tok in tokens.iter().filter(|t| t.kind == TokKind::Ident) {
            users
                .entry(&tok.text)
                .and_modify(|u| *u = u.filter(|&f| f == file))
                .or_insert(Some(file));
        }
    }
    let mut out = Vec::new();
    for (file, ((path, _, declares), tokens)) in files.iter().zip(&lexed).enumerate() {
        if !declares {
            continue;
        }
        for (line, kind, name) in declared(tokens) {
            if users.get(name) == Some(&Some(file)) {
                out.push(PubItem { path: path.clone(), line, kind, name: name.to_string() });
            }
        }
    }
    out.sort();
    out
}

/// The report for the checkout at `root`.
pub fn unreferenced_pub_items(root: &Path) -> std::io::Result<Vec<PubItem>> {
    let mut paths = Vec::new();
    for top in ["crates", "src", "tests", "examples", "exp_perf/src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            crate::collect_rs_files(&dir, &["target", "vendor", "fixtures", ".git"], &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let Ok(rel) = path.strip_prefix(root) else { continue };
        let rel = rel.to_string_lossy().replace('\\', "/");
        let declares = crate::scope_for(&rel).is_some();
        files.push((rel, fs::read_to_string(&path)?, declares));
    }
    Ok(unreferenced_in(&files))
}
