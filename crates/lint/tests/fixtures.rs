//! The analyzer's fixture corpus: every `bad_*` fixture must trigger
//! exactly the rule it was written to demonstrate (and nothing else),
//! and every `good_*` fixture must come back clean. The fixtures live as
//! real `.rs` files under `tests/fixtures/` — `scope_for` excludes that
//! directory, so the corpus never pollutes the workspace lint run — and
//! are pulled in with `include_str!` so each one is checked here exactly
//! as it sits on disk.

use dbcopilot_lint::lint_source;
use dbcopilot_lint::rules::{self, Scope};

const DETERMINISTIC: Scope =
    Scope { deterministic: true, serving: false, runtime: false, numeric: false };
const SERVING: Scope =
    Scope { deterministic: false, serving: true, runtime: false, numeric: false };
const DEFAULT: Scope =
    Scope { deterministic: false, serving: false, runtime: false, numeric: false };
const NUMERIC: Scope = Scope { deterministic: true, serving: false, runtime: false, numeric: true };

struct Fixture {
    file: &'static str,
    source: &'static str,
    scope: Scope,
    /// The exact multiset of rule names expected, sorted. Empty = clean.
    expect: &'static [&'static str],
}

macro_rules! fixture {
    ($file:literal, $scope:expr, $expect:expr) => {
        Fixture {
            file: $file,
            source: include_str!(concat!("fixtures/", $file)),
            scope: $scope,
            expect: $expect,
        }
    };
}

const FIXTURES: &[Fixture] = &[
    // hashmap-iter-order
    fixture!("bad_hashmap_iter.rs", DETERMINISTIC, &[rules::HASHMAP_ITER_ORDER]),
    fixture!("bad_hashmap_for.rs", DETERMINISTIC, &[rules::HASHMAP_ITER_ORDER]),
    fixture!("bad_hashset_collect.rs", DETERMINISTIC, &[rules::HASHMAP_ITER_ORDER]),
    fixture!("good_hashmap_lookup.rs", DETERMINISTIC, &[]),
    fixture!("good_btreemap_iter.rs", DETERMINISTIC, &[]),
    // panic-free-serving
    fixture!("bad_serving_unwrap.rs", SERVING, &[rules::PANIC_FREE_SERVING]),
    fixture!("bad_serving_panic.rs", SERVING, &[rules::PANIC_FREE_SERVING]),
    fixture!("bad_serving_index.rs", SERVING, &[rules::PANIC_FREE_SERVING]),
    fixture!("good_serving_errors.rs", SERVING, &[]),
    // ...as the vendored JSON reader, linted as serving code, had and has it
    fixture!(
        "bad_serving_cursor.rs",
        SERVING,
        &[rules::PANIC_FREE_SERVING, rules::PANIC_FREE_SERVING]
    ),
    fixture!("good_serving_cursor.rs", SERVING, &[]),
    // no-raw-spawn
    fixture!("bad_raw_spawn.rs", DEFAULT, &[rules::NO_RAW_SPAWN]),
    fixture!("good_spawn_in_tests.rs", DEFAULT, &[]),
    // no-wallclock-determinism
    fixture!("bad_wallclock.rs", DETERMINISTIC, &[rules::NO_WALLCLOCK]),
    // lock-order
    fixture!("bad_lock_inversion.rs", DEFAULT, &[rules::LOCK_ORDER]),
    fixture!("bad_lock_unranked.rs", DEFAULT, &[rules::LOCK_ORDER]),
    fixture!("good_lock_ascending.rs", DEFAULT, &[]),
    // transposed-operand
    fixture!(
        "bad_transposed_operand.rs",
        DEFAULT,
        &[rules::TRANSPOSED_OPERAND, rules::TRANSPOSED_OPERAND]
    ),
    fixture!("good_matmul_nt.rs", DEFAULT, &[]),
    // libm-call
    fixture!("bad_libm_sigmoid.rs", NUMERIC, &[rules::LIBM_CALL]),
    fixture!("bad_libm_log_softmax.rs", NUMERIC, &[rules::LIBM_CALL, rules::LIBM_CALL]),
    fixture!("bad_libm_path.rs", NUMERIC, &[rules::LIBM_CALL]),
    fixture!("good_first_party_math.rs", NUMERIC, &[]),
    // pragmas
    fixture!("good_pragma_justified.rs", SERVING, &[]),
    fixture!("bad_pragma_unjustified.rs", SERVING, &[rules::PANIC_FREE_SERVING, rules::PRAGMA]),
    fixture!("bad_pragma_unknown_rule.rs", DEFAULT, &[rules::PRAGMA]),
    // lexer inertness
    fixture!(
        "good_inert_text.rs",
        Scope { deterministic: true, serving: true, runtime: false, numeric: true },
        &[]
    ),
];

#[test]
fn every_fixture_triggers_exactly_its_rules() {
    let mut failures = Vec::new();
    for fx in FIXTURES {
        let findings = lint_source(fx.source, fx.scope);
        let mut got: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        got.sort_unstable();
        if got != fx.expect {
            failures.push(format!(
                "{}: expected rules {:?}, got {:?}\n  findings: {:#?}",
                fx.file, fx.expect, got, findings
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn bad_fixtures_report_usable_line_numbers() {
    for fx in FIXTURES.iter().filter(|f| !f.expect.is_empty()) {
        let lines = fx.source.lines().count() as u32;
        for f in lint_source(fx.source, fx.scope) {
            assert!(
                f.line >= 1 && f.line <= lines,
                "{}: finding line {} outside the file (1..={lines})",
                fx.file,
                f.line
            );
        }
    }
}

#[test]
fn corpus_names_match_expectations() {
    // A `bad_` fixture with an empty expectation (or a `good_` one with
    // findings expected) is a corpus bug — catch it at the table level.
    for fx in FIXTURES {
        if fx.file.starts_with("bad_") {
            assert!(!fx.expect.is_empty(), "{} is named bad_* but expects no findings", fx.file);
        } else {
            assert!(
                fx.file.starts_with("good_") && fx.expect.is_empty(),
                "{} must be named bad_*/good_* consistently with its expectation",
                fx.file
            );
        }
    }
}

#[test]
fn public_items_reports_the_orphan_and_not_the_referenced_item() {
    let file =
        |name: &str, source: &str, declares| (name.to_string(), source.to_string(), declares);
    let found = dbcopilot_lint::public_items::unreferenced_in(&[
        file("crates/x/src/def.rs", include_str!("fixtures/pub_items_def.rs"), true),
        file("tests/use.rs", include_str!("fixtures/pub_items_use.rs"), false),
    ]);
    let found: Vec<String> = found.iter().map(ToString::to_string).collect();
    assert_eq!(
        found,
        [
            "crates/x/src/def.rs:11: pub fn orphaned_item",
            "crates/x/src/def.rs:17: pub const ORPHANED_LIMIT",
        ]
    );
}
