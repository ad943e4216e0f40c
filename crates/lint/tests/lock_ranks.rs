//! The linter's `LOCK_RANKS` table mirrors `dbcopilot_runtime::lock_rank`
//! by hand. This test reads the runtime's source, takes every
//! `pub const NAME: u16 = RANK;` inside `pub mod lock_rank { … }`, and
//! requires the two lists to name the same locks (the linter spells a
//! lock by its field name, the runtime by the upper-case constant) at the
//! same ranks — so a lock added to one side and not the other fails this
//! test.

use dbcopilot_lint::lexer::{lex, Tok, TokKind};
use dbcopilot_lint::rules::LOCK_RANKS;

const ORDERED_RS: &str = include_str!("../../runtime/src/ordered.rs");

/// `(lower-cased constant name, rank)` for every constant of the
/// runtime's `lock_rank` module, in declaration order.
fn runtime_ranks(source: &str) -> Vec<(String, u16)> {
    let toks: Vec<Tok> = lex(source).tokens;
    let start = toks
        .windows(3)
        .position(|w| w[0].is_ident("mod") && w[1].is_ident("lock_rank") && w[2].is_punct('{'))
        .expect("ordered.rs declares `mod lock_rank {`")
        + 3;
    let mut depth = 1;
    let mut out = Vec::new();
    let mut i = start;
    while depth > 0 {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
        } else if t.is_ident("const") {
            // const NAME : u16 = RANK ;
            let name = &toks[i + 1];
            let ty = &toks[i + 3];
            let rank = &toks[i + 5];
            assert_eq!(name.kind, TokKind::Ident, "line {}: constant name", name.line);
            assert!(ty.is_ident("u16"), "line {}: a rank is a u16", ty.line);
            assert_eq!(rank.kind, TokKind::Num, "line {}: a rank is a literal", rank.line);
            let rank: u16 = rank.text.replace('_', "").parse().expect("decimal rank literal");
            out.push((name.text.to_ascii_lowercase(), rank));
            i += 6;
            continue;
        }
        i += 1;
    }
    out
}

#[test]
fn lint_lock_ranks_mirror_the_runtime_ranking() {
    let runtime = runtime_ranks(ORDERED_RS);
    assert!(!runtime.is_empty(), "found no ranks in lock_rank");
    let lint: Vec<(String, u16)> = LOCK_RANKS.iter().map(|&(n, r)| (n.to_string(), r)).collect();
    assert_eq!(
        lint, runtime,
        "crates/lint/src/rules.rs LOCK_RANKS must list the locks of \
         dbcopilot_runtime::lock_rank, in the same order, at the same ranks"
    );
}

#[test]
fn the_rank_reader_sees_every_constant_and_only_those() {
    let source = "pub mod other { pub const X: u16 = 1; }\n\
                  pub mod lock_rank {\n\
                      /// doc\n\
                      pub const FIRST: u16 = 10;\n\
                      pub const SECOND_ONE: u16 = 2_0;\n\
                  }\n\
                  pub const AFTER: u16 = 99;";
    assert_eq!(runtime_ranks(source), [("first".to_string(), 10), ("second_one".to_string(), 20)]);
}
