//! The rule engine: workspace invariants checked over the token stream.
//!
//! Each rule encodes a contract this codebase actually relies on (see the
//! "Invariants" section of ARCHITECTURE.md). Rules are token-level
//! heuristics, deliberately over-approximate: a site that is provably
//! fine suppresses the finding with a justified
//! `// dbc-lint: allow(<rule>)` pragma, which doubles as in-tree
//! documentation of *why* the site is fine.

use crate::lexer::{Lexed, Tok, TokKind};

/// `HashMap`/`HashSet` iteration in a deterministic crate: iteration
/// order is arbitrary and can leak into results or `DBC1` bytes. Use
/// `BTreeMap`/`BTreeSet` or sort explicitly.
pub const HASHMAP_ITER_ORDER: &str = "hashmap-iter-order";
/// `unwrap`/`expect`/`panic!`-family/slice-indexing in the serving
/// crates: a panic in the request path kills a worker's connection.
pub const PANIC_FREE_SERVING: &str = "panic-free-serving";
/// `spawn(...)` outside `dbcopilot-runtime`: ad-hoc threads bypass the
/// pool's determinism, drain, and panic-containment contracts.
pub const NO_RAW_SPAWN: &str = "no-raw-spawn";
/// `Instant`/`SystemTime` in a deterministic crate: wall-clock reads make
/// results machine- and run-dependent.
pub const NO_WALLCLOCK: &str = "no-wallclock-determinism";
/// A lock acquisition that is unranked, or nests against the declared
/// ranking: inversions deadlock under contention.
pub const LOCK_ORDER: &str = "lock-order";
/// `x.matmul(&y.transpose())` / `x.transpose().matmul(..)`: a transpose
/// built per product. `Tensor::matmul_nt` and the tape's `add_tn` form the
/// same sums, in the same order, from the untransposed operand.
pub const TRANSPOSED_OPERAND: &str = "transposed-operand";
/// A platform-libm transcendental (`.exp()`, `.ln()`, `.tanh()`, …,
/// `.powf(`, or a `f32::exp`-style path) in a crate that routes or trains:
/// libm's bits differ between platforms and its calls do not vectorise.
/// `dbcopilot_nn::math` has the first-party functions. A method of another
/// type with a libm name is called with arguments (`tape.tanh(x)`) or by
/// its path (`Tensor::tanh(&t)`).
pub const LIBM_CALL: &str = "libm-call";
/// Meta-rule for the pragmas themselves: malformed, unknown-rule, or
/// justification-free pragmas. Not suppressible.
pub const PRAGMA: &str = "pragma";

/// Every enforceable rule, in diagnostic order.
pub const ALL_RULES: &[&str] = &[
    HASHMAP_ITER_ORDER,
    PANIC_FREE_SERVING,
    NO_RAW_SPAWN,
    NO_WALLCLOCK,
    LOCK_ORDER,
    TRANSPOSED_OPERAND,
    LIBM_CALL,
];

/// The declared lock-order ranking. Mirrors
/// `dbcopilot_runtime::lock_rank` — every first-party `Mutex`/
/// `OrderedMutex` field is listed here by name, and nested acquisitions
/// must follow strictly ascending ranks. A lock this table does not know
/// is itself a finding: new locks must declare a rank in both places.
pub const LOCK_RANKS: &[(&str, u16)] = &[
    ("receiver", 10),
    ("slots", 20),
    ("panic", 21),
    ("pending", 22),
    ("cache", 30),
    ("current", 31),
    ("job", 40),
    ("memo", 50),
];

fn rank_of(name: &str) -> Option<u16> {
    LOCK_RANKS.iter().find(|(n, _)| *n == name).map(|&(_, r)| r)
}

/// Which rule families apply to a file, derived from its workspace path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scope {
    /// Crate participates in the bit-identical determinism contract
    /// (core/nn/graph/retrieval/synth/sqlengine/eval).
    pub deterministic: bool,
    /// Crate is on the serving request path (http/serve).
    pub serving: bool,
    /// The file is inside `dbcopilot-runtime` (owns thread spawning).
    pub runtime: bool,
    /// Crate computes the router's arithmetic (nn/core): transcendentals
    /// go through `dbcopilot_nn::math`, never the platform libm.
    pub numeric: bool,
}

/// One rule violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
}

/// Run every applicable rule over a lexed file and apply pragma
/// suppression. Findings come back sorted by line.
pub fn check(lexed: &Lexed, scope: Scope) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let test_mask = test_region_mask(toks);
    let mut findings: Vec<Finding> = Vec::new();

    if scope.deterministic {
        hashmap_iter_order(toks, &test_mask, &mut findings);
        wallclock(toks, &test_mask, &mut findings);
    }
    if scope.serving {
        panic_free(toks, &test_mask, &mut findings);
    }
    if !scope.runtime {
        raw_spawn(toks, &test_mask, &mut findings);
    }
    lock_order(toks, &test_mask, &mut findings);
    transposed_operand(toks, &test_mask, &mut findings);
    if scope.numeric {
        libm_call(toks, &test_mask, &mut findings);
    }

    apply_pragmas(lexed, &mut findings);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Remove findings covered by a well-formed pragma; surface pragma
/// problems (malformed, unknown rule, missing justification) as findings
/// of the `pragma` meta-rule.
fn apply_pragmas(lexed: &Lexed, findings: &mut Vec<Finding>) {
    for (line, message) in &lexed.errors {
        findings.push(Finding { rule: PRAGMA, line: *line, message: message.clone() });
    }
    for pragma in &lexed.pragmas {
        for rule in &pragma.rules {
            if !ALL_RULES.contains(&rule.as_str()) {
                findings.push(Finding {
                    rule: PRAGMA,
                    line: pragma.line,
                    message: format!("pragma allows unknown rule `{rule}`"),
                });
            }
        }
        if pragma.justification.len() < 8 {
            findings.push(Finding {
                rule: PRAGMA,
                line: pragma.line,
                message: format!(
                    "pragma allow({}) lacks a justification — say why the site is safe",
                    pragma.rules.join(", ")
                ),
            });
            continue; // an unjustified pragma suppresses nothing
        }
        // A trailing pragma covers its own line. A standalone pragma
        // covers the next line *with code* — justifications often wrap
        // onto continuation comment lines, which must not eat the target.
        let target = if pragma.trailing {
            pragma.line
        } else {
            lexed
                .tokens
                .iter()
                .map(|t| t.line)
                .filter(|&l| l > pragma.line)
                .min()
                .unwrap_or(pragma.line + 1)
        };
        findings.retain(|f| !(f.line == target && pragma.rules.iter().any(|r| r == f.rule)));
    }
}

// -------------------------------------------------------------------
// test-region masking
// -------------------------------------------------------------------

/// `mask[i] == true` ⇒ token `i` belongs to a `#[cfg(test)]` module or a
/// `#[test]`/`#[should_panic]`-attributed item and is exempt from rules.
fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let close = match matching(toks, i + 1, '[', ']') {
                Some(c) => c,
                None => break,
            };
            let attr = &toks[i + 1..close];
            let is_test_attr = attr.iter().any(|t| t.is_ident("test"))
                || attr.iter().any(|t| t.is_ident("should_panic"));
            if is_test_attr {
                // Mask the attribute, any further attributes, and the item
                // they decorate (to its closing brace or terminating `;`).
                let mut j = close + 1;
                while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
                    match matching(toks, j + 1, '[', ']') {
                        Some(c) => j = c + 1,
                        None => break,
                    }
                }
                let end = item_end(toks, j);
                for m in mask.iter_mut().take(end.min(toks.len())).skip(i) {
                    *m = true;
                }
                i = end;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index one past the end of the item starting at `start`: through the
/// matching `}` of its first brace, or through a `;` that arrives first.
fn item_end(toks: &[Tok], start: usize) -> usize {
    let mut i = start;
    while i < toks.len() {
        if toks[i].is_punct('{') {
            return matching(toks, i, '{', '}').map_or(toks.len(), |c| c + 1);
        }
        if toks[i].is_punct(';') {
            return i + 1;
        }
        i += 1;
    }
    toks.len()
}

/// Index of the token closing the bracket opened at `open`.
fn matching(toks: &[Tok], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

// -------------------------------------------------------------------
// hashmap-iter-order
// -------------------------------------------------------------------

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
    "intersection",
    "union",
    "difference",
    "symmetric_difference",
];

fn hashmap_iter_order(toks: &[Tok], test: &[bool], out: &mut Vec<Finding>) {
    let names = hash_container_names(toks);
    if names.is_empty() {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if test[i] {
            continue;
        }
        // `name.iter()` / `self.field.keys()` / ...
        if t.kind == TokKind::Ident
            && ITER_METHODS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks[i - 2].kind == TokKind::Ident
            && names.contains(&toks[i - 2].text)
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push(Finding {
                rule: HASHMAP_ITER_ORDER,
                line: t.line,
                message: format!(
                    "iterating hash container `{}` (`.{}()`): order is arbitrary and can leak \
                     into results — use BTreeMap/BTreeSet or sort explicitly",
                    toks[i - 2].text,
                    t.text
                ),
            });
        }
        // `for pat in <expr mentioning a hash container> {`
        if t.is_ident("for") {
            let mut j = i + 1;
            let mut found_in = None;
            while j < toks.len() && j < i + 40 {
                if toks[j].is_ident("in") {
                    found_in = Some(j);
                    break;
                }
                if toks[j].is_punct('{') || toks[j].is_punct(';') {
                    break; // not a for-loop header after all
                }
                j += 1;
            }
            let Some(in_at) = found_in else { continue };
            let mut k = in_at + 1;
            let mut depth = 0i32;
            while k < toks.len() {
                let tk = &toks[k];
                if depth == 0 && tk.is_punct('{') {
                    break;
                }
                match () {
                    _ if tk.is_punct('(') || tk.is_punct('[') => depth += 1,
                    _ if tk.is_punct(')') || tk.is_punct(']') => depth -= 1,
                    _ => {}
                }
                if tk.kind == TokKind::Ident && names.contains(&tk.text) {
                    out.push(Finding {
                        rule: HASHMAP_ITER_ORDER,
                        line: tk.line,
                        message: format!(
                            "for-loop over hash container `{}`: iteration order is arbitrary \
                             and can leak into results — use BTreeMap/BTreeSet or sort \
                             explicitly",
                            tk.text
                        ),
                    });
                    break;
                }
                k += 1;
            }
        }
    }
}

/// Identifiers bound to `HashMap`/`HashSet` in this file: via a type
/// annotation (`name: HashMap<..>`, struct fields and params included),
/// an initializer (`name = HashMap::new()`), or a turbofish collect
/// (`let name = ...collect::<HashMap<..>>()`).
fn hash_container_names(toks: &[Tok]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk left over the path prefix: `std :: collections ::`.
        let mut j = i;
        while j >= 2
            && toks[j - 1].is_punct(':')
            && toks[j - 2].is_punct(':')
            && j >= 3
            && toks[j - 3].kind == TokKind::Ident
        {
            j -= 3;
        }
        if j == 0 {
            continue;
        }
        let prev = &toks[j - 1];
        // `name : HashMap` (single colon = annotation, not a `::` path).
        if prev.is_punct(':')
            && j >= 2
            && !toks[j - 2].is_punct(':')
            && toks[j - 2].kind == TokKind::Ident
        {
            push_unique(&mut names, &toks[j - 2].text);
            continue;
        }
        // `name = HashMap::...`
        if prev.is_punct('=') && j >= 2 && toks[j - 2].kind == TokKind::Ident {
            push_unique(&mut names, &toks[j - 2].text);
            continue;
        }
        // `let name = it.collect::<HashMap<..>>()`
        if prev.is_punct('<') {
            if let Some(name) = collect_binding(toks, j) {
                push_unique(&mut names, &name);
            }
        }
    }
    names
}

/// For `... < HashMap` at index `lt_hashmap`, walk back past
/// `collect :: <` to the `let [mut] name =` that binds the result.
fn collect_binding(toks: &[Tok], hashmap_at: usize) -> Option<String> {
    // toks[hashmap_at - 1] is '<'; expect `collect :: <`
    let mut j = hashmap_at.checked_sub(2)?;
    if !(toks[j].is_punct(':') && j >= 1 && toks[j - 1].is_punct(':')) {
        return None;
    }
    j = j.checked_sub(2)?;
    if !toks[j].is_ident("collect") {
        return None;
    }
    // Walk back to the start of the statement, looking for `let [mut] X =`.
    let mut k = j;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return None;
        }
        if t.is_ident("let") {
            let name_at =
                if toks.get(k + 1).is_some_and(|t| t.is_ident("mut")) { k + 2 } else { k + 1 };
            let name = toks.get(name_at)?;
            if name.kind == TokKind::Ident {
                return Some(name.text.clone());
            }
            return None;
        }
    }
    None
}

fn push_unique(names: &mut Vec<String>, name: &str) {
    if !names.iter().any(|n| n == name) {
        names.push(name.to_string());
    }
}

// -------------------------------------------------------------------
// panic-free-serving
// -------------------------------------------------------------------

/// Keywords that may legitimately precede `[` without indexing anything.
const KEYWORDS_BEFORE_BRACKET: &[&str] =
    &["let", "in", "return", "match", "if", "else", "mut", "ref", "move", "as", "break", "dyn"];

const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

fn panic_free(toks: &[Tok], test: &[bool], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if test[i] {
            continue;
        }
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push(Finding {
                rule: PANIC_FREE_SERVING,
                line: t.line,
                message: format!(
                    "`.{}()` in a serving crate: a panic here kills the request's worker — \
                     return a typed error mapped to an HTTP status instead",
                    t.text
                ),
            });
        }
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(Finding {
                rule: PANIC_FREE_SERVING,
                line: t.line,
                message: format!(
                    "`{}!` in a serving crate: the request path must degrade to a typed \
                     error, never panic a worker",
                    t.text
                ),
            });
        }
        // Slice/array indexing: `expr[...]` panics out of bounds.
        if t.is_punct('[') && i >= 1 {
            let prev = &toks[i - 1];
            let indexes = match prev.kind {
                TokKind::Ident => !KEYWORDS_BEFORE_BRACKET.contains(&prev.text.as_str()),
                TokKind::Punct => prev.is_punct(')') || prev.is_punct(']') || prev.is_punct('?'),
                _ => false,
            };
            if indexes {
                out.push(Finding {
                    rule: PANIC_FREE_SERVING,
                    line: t.line,
                    message: "slice/array indexing in a serving crate panics out of bounds — \
                              use `.get()` and handle the miss"
                        .into(),
                });
            }
        }
    }
}

// -------------------------------------------------------------------
// no-raw-spawn
// -------------------------------------------------------------------

fn raw_spawn(toks: &[Tok], test: &[bool], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if test[i] {
            continue;
        }
        if t.is_ident("spawn") && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            out.push(Finding {
                rule: NO_RAW_SPAWN,
                line: t.line,
                message: "raw `spawn(...)` outside dbcopilot-runtime: route work through \
                          WorkerPool/pooled_map so determinism, drain and panic containment \
                          hold"
                    .into(),
            });
        }
    }
}

// -------------------------------------------------------------------
// no-wallclock-determinism
// -------------------------------------------------------------------

fn wallclock(toks: &[Tok], test: &[bool], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if test[i] {
            continue;
        }
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            out.push(Finding {
                rule: NO_WALLCLOCK,
                line: t.line,
                message: format!(
                    "`{}` in a deterministic crate: wall-clock reads make results run- and \
                     machine-dependent",
                    t.text
                ),
            });
        }
    }
}

// -------------------------------------------------------------------
// transposed-operand
// -------------------------------------------------------------------

fn transposed_operand(toks: &[Tok], test: &[bool], out: &mut Vec<Finding>) {
    // `. name (` starting at `at`, and the same closed at once: `. name ( )`.
    let method = |at: usize, name: &str| {
        toks.get(at).is_some_and(|t| t.is_punct('.'))
            && toks.get(at + 1).is_some_and(|t| t.is_ident(name))
            && toks.get(at + 2).is_some_and(|t| t.is_punct('('))
    };
    let transpose_at =
        |at: usize| method(at, "transpose") && toks.get(at + 3).is_some_and(|t| t.is_punct(')'));
    for i in (0..toks.len()).filter(|&i| !test[i] && method(i, "matmul")) {
        // `.matmul(& … .transpose())`: the argument is one borrowed
        // expression ending in the transpose call.
        let by_ref = toks.get(i + 3).is_some_and(|t| t.is_punct('&'));
        let right = matching(toks, i + 2, '(', ')')
            .is_some_and(|close| by_ref && close >= 4 && transpose_at(close - 4));
        // `… .transpose().matmul(`
        let left = i >= 4 && transpose_at(i - 4);
        if left || right {
            out.push(Finding {
                rule: TRANSPOSED_OPERAND,
                line: toks[i + 1].line,
                message: format!(
                    "matmul with a freshly transposed {} operand: use `matmul_nt` (or the \
                     tape's `add_tn`), which sums in the same order without the copy",
                    if left { "left" } else { "right" }
                ),
            });
        }
    }
}

// -------------------------------------------------------------------
// libm-call
// -------------------------------------------------------------------

/// The float methods that call libm; all but `powf` take no argument.
const LIBM_FUNCTIONS: &[&str] =
    &["exp", "exp_m1", "ln", "ln_1p", "log2", "log10", "tanh", "powf", "sin", "cos"];

fn libm_call(toks: &[Tok], test: &[bool], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate().skip(1) {
        if test[i] || t.kind != TokKind::Ident || !LIBM_FUNCTIONS.contains(&t.text.as_str()) {
            continue;
        }
        // `x.exp()`, `x.powf(` — or the path `f32::exp` / `f64::exp`,
        // called or passed.
        let arity_fits = t.is_ident("powf") || toks.get(i + 2).is_some_and(|n| n.is_punct(')'));
        let method = toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && arity_fits;
        let path = i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && (toks[i - 3].is_ident("f32") || toks[i - 3].is_ident("f64"));
        if method || path {
            out.push(Finding {
                rule: LIBM_CALL,
                line: t.line,
                message: format!(
                    "`{}` calls the platform libm: its bits differ between libms and the call \
                     does not vectorise — use `dbcopilot_nn::math`",
                    t.text
                ),
            });
        }
    }
}

// -------------------------------------------------------------------
// lock-order
// -------------------------------------------------------------------

#[derive(Debug)]
struct Guard {
    name: String,
    rank: Option<u16>,
    /// Brace depth at acquisition (guard dies when depth drops below).
    depth: i32,
    /// `Some(var)` when bound via `let var = ...lock...`, killable by
    /// `drop(var)`. `None` = temporary, dies at `;` `,` `{` `}`.
    bound: Option<String>,
}

fn lock_order(toks: &[Tok], test: &[bool], out: &mut Vec<Finding>) {
    let mut held: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate() {
        if test[i] {
            continue;
        }
        if t.is_ident("fn") {
            held.clear();
            continue;
        }
        if t.is_punct('{') {
            depth += 1;
            // Temporaries die at a block boundary: the common shape is
            // `if x.lock().is_ok() { ... }` where the guard does not
            // meaningfully outlive the condition for our purposes.
            held.retain(|g| g.bound.is_some());
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            held.retain(|g| g.depth <= depth);
            continue;
        }
        if t.is_punct(';') || t.is_punct(',') {
            held.retain(|g| g.bound.is_some() || g.depth < depth);
            continue;
        }
        // `drop(var)` releases a bound guard early.
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
            && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            let var = &toks[i + 2].text;
            held.retain(|g| g.bound.as_deref() != Some(var.as_str()));
            continue;
        }
        // A lock acquisition: `recv.lock()` or `lock(&recv)`-style helper.
        if t.is_ident("lock") || t.is_ident("lock_ignore_poison") {
            if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                continue;
            }
            // `fn lock(...)` is a definition, not an acquisition.
            if i >= 1 && toks[i - 1].is_ident("fn") {
                continue;
            }
            let name = if i >= 2 && toks[i - 1].is_punct('.') {
                // method call: receiver is the ident before the dot
                (toks[i - 2].kind == TokKind::Ident).then(|| toks[i - 2].text.clone())
            } else {
                // helper call: last ident inside the parens
                helper_arg_name(toks, i + 1)
            };
            let Some(name) = name else { continue };
            let rank = rank_of(&name);
            if rank.is_none() {
                out.push(Finding {
                    rule: LOCK_ORDER,
                    line: t.line,
                    message: format!(
                        "lock `{name}` has no declared rank — add it to the lock-order \
                         ranking (dbcopilot_runtime::lock_rank and the linter's LOCK_RANKS)"
                    ),
                });
            }
            for g in &held {
                match (g.rank, rank) {
                    (Some(held_rank), Some(new_rank)) if new_rank <= held_rank => {
                        out.push(Finding {
                            rule: LOCK_ORDER,
                            line: t.line,
                            message: format!(
                                "lock `{}` (rank {}) acquired while holding `{}` (rank {}): \
                                 nested acquisitions must follow strictly ascending ranks",
                                name, new_rank, g.name, held_rank
                            ),
                        });
                    }
                    (Some(_), Some(_)) => {}
                    _ => {
                        out.push(Finding {
                            rule: LOCK_ORDER,
                            line: t.line,
                            message: format!(
                                "nested lock acquisition `{}` while holding `{}` with \
                                 undeclared rank(s) — rank both locks",
                                name, g.name
                            ),
                        });
                    }
                }
            }
            let bound = let_binding_of(toks, i);
            held.push(Guard { name, rank, depth, bound });
        }
    }
}

/// For a helper-style `lock( ... )` starting at the paren `open`, the last
/// identifier before the matching close paren (`lock(&self.current)` →
/// `current`).
fn helper_arg_name(toks: &[Tok], open: usize) -> Option<String> {
    let close = matching(toks, open, '(', ')')?;
    toks[open + 1..close].iter().rev().find(|t| t.kind == TokKind::Ident).map(|t| t.text.clone())
}

/// If the statement containing token `at` starts with `let [mut] name =`
/// (a *simple* binding — `if let`/`while let` and destructuring patterns
/// don't produce a droppable named guard), the bound name.
fn let_binding_of(toks: &[Tok], at: usize) -> Option<String> {
    let mut k = at;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return None;
        }
        if t.is_ident("let") {
            if k >= 1 && (toks[k - 1].is_ident("if") || toks[k - 1].is_ident("while")) {
                return None;
            }
            let name_at =
                if toks.get(k + 1).is_some_and(|t| t.is_ident("mut")) { k + 2 } else { k + 1 };
            let name = toks.get(name_at)?;
            if name.kind != TokKind::Ident {
                return None;
            }
            // the next token must make this a simple binding, not a pattern
            let after = toks.get(name_at + 1)?;
            return (after.is_punct('=') || after.is_punct(':')).then(|| name.text.clone());
        }
    }
    None
}
