//! Property tests for the analyzer's lexer: content inside strings, raw
//! strings, char literals, and (nested) block comments must never be
//! misclassified as code. Each case assembles a function from randomly
//! chosen hazard payloads, each wrapped in a randomly chosen inert
//! context, with a marker statement after every wrapper — so a lexer
//! that either leaks a hazard *out* of an inert region or swallows code
//! *after* one (unterminated-literal bugs) fails the property.

use proptest::prelude::*;

use dbcopilot_lint::lexer::{lex, TokKind};
use dbcopilot_lint::lint_source;
use dbcopilot_lint::rules::Scope;

/// Snippets that would each trigger a rule if lexed as code. None
/// contain `*/`, `/*`, `#`, or a newline, so every wrapper below can
/// hold any of them verbatim.
const HAZARDS: &[&str] = &[
    "x.unwrap()",
    "value.expect(\"msg\")",
    "panic!(\"boom\")",
    "HashMap::new().keys()",
    "seen: HashSet<u32> and seen.iter()",
    "Instant::now() and SystemTime::now()",
    "std::thread::spawn(|| loop {})",
    "cache.lock(); slots.lock();",
    "for (k, v) in &counts {}",
    "buf[0] + row[i]",
];

/// Identifiers that only occur inside HAZARDS — seeing one as an `Ident`
/// token means literal/comment content leaked into the token stream.
const HAZARD_IDENTS: &[&str] = &[
    "unwrap",
    "expect",
    "panic",
    "HashMap",
    "HashSet",
    "Instant",
    "SystemTime",
    "spawn",
    "lock",
    "counts",
    "buf",
];

/// Wrap `payload` in a randomly chosen inert context. Variants 0/1 are
/// comments, 2/3 are string literals (escaped and raw), 4 ignores the
/// payload and emits a char literal holding a hazardous character.
fn wrap_inert(state: &mut u64, payload: &str) -> String {
    match proptest::next_state(state) % 5 {
        0 => format!("// {payload}\n"),
        1 => format!("/* outer /* nested {payload} */ still a comment */\n"),
        2 => {
            let escaped = payload.replace('\\', "\\\\").replace('"', "\\\"");
            format!("let _s = \"{escaped}\";\n")
        }
        3 => {
            let hashes = "#".repeat(1 + (proptest::next_state(state) % 3) as usize);
            format!("let _r = r{hashes}\"{payload}\"{hashes};\n")
        }
        _ => {
            const CHARS: &[&str] = &["'['", "'{'", "'*'", "'/'", "'\"'", "'\\''", "'\\\\'"];
            let c = CHARS[(proptest::next_state(state) % CHARS.len() as u64) as usize];
            format!("let _c = {c};\n")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inert_regions_never_leak_tokens_or_findings(seed in 0u64..1_000_000) {
        let mut state = seed;
        let segments = 3 + (proptest::next_state(&mut state) % 6) as usize;
        let mut src = String::from("pub fn generated() {\n");
        // Quoted pragma text must not register as a pragma either.
        src.push_str("/* dbc-lint: allow(no-raw-spawn): block comments carry no pragmas */\n");
        src.push_str("let _p = \"dbc-lint: allow(lock-order): quoted, inert\";\n");
        let mut markers = Vec::new();
        for i in 0..segments {
            let pick = (proptest::next_state(&mut state) % HAZARDS.len() as u64) as usize;
            src.push_str(&wrap_inert(&mut state, HAZARDS[pick]));
            let marker = format!("seg{i}");
            src.push_str(&format!("let {marker} = {i};\n"));
            markers.push(marker);
        }
        src.push_str("}\n");

        let lexed = lex(&src);
        prop_assert!(
            lexed.errors.is_empty(),
            "seed {}: lexer errors {:?} in:\n{}", seed, lexed.errors, src
        );
        prop_assert!(
            lexed.pragmas.is_empty(),
            "seed {}: quoted/commented pragma text registered as a pragma in:\n{}", seed, src
        );
        for t in &lexed.tokens {
            if t.kind == TokKind::Ident {
                prop_assert!(
                    !HAZARD_IDENTS.contains(&t.text.as_str()),
                    "seed {}: hazard `{}` leaked out of an inert region (line {}) in:\n{}",
                    seed, t.text, t.line, src
                );
            }
        }
        // Every marker after a wrapper must survive as exactly one Ident:
        // an unterminated-literal bug would swallow the rest of the file.
        for m in &markers {
            let count = lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokKind::Ident && t.text == *m)
                .count();
            prop_assert!(
                count == 1,
                "seed {}: marker `{}` appears {} times (want 1) in:\n{}", seed, m, count, src
            );
        }
        // And the full analyzer, under every rule family at once, must
        // find nothing to complain about.
        let scope = Scope { deterministic: true, serving: true, runtime: false, numeric: true };
        let findings = lint_source(&src, scope);
        prop_assert!(
            findings.is_empty(),
            "seed {}: findings {:?} from inert-only source:\n{}", seed, findings, src
        );
    }
}
