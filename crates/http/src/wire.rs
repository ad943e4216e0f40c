//! The JSON wire format: request/response bodies for every endpoint, and
//! the mapping from the typed [`AskError`] taxonomy onto HTTP status codes.
//!
//! | pipeline stage failure  | status | meaning on the wire                     |
//! |-------------------------|--------|-----------------------------------------|
//! | [`AskError::Routing`]   | 404    | no candidate schema for the question     |
//! | [`AskError::Prompt`]    | 410    | routed candidates no longer resolve (stale router) |
//! | [`AskError::Generation`]| 422    | question could not be grounded into SQL  |
//! | [`AskError::Execution`] | 500    | every generated SQL failed to execute    |
//!
//! Every error body has one stable shape:
//! `{"error": {"stage": "...", "status": N, "message": "...", ...detail}}`
//! — protocol-level failures use stage `"protocol"`, admission-control
//! rejections stage `"admission"`, handler panics stage `"panic"`.
//!
//! The two bodies every request pays for — a `POST /route` ranking and a
//! successful `POST /ask` answer — are *streamed*: appended straight into
//! one pre-sized `String` through `serde_json`'s `write_str` / `write_f64` /
//! `write_u64` primitives, with no intermediate [`Value`]. The rare bodies
//! (errors, `/stats`, `/healthz`, publish) build a small [`Value`] with
//! `obj` and `render` it by reference. Both ways are the same bytes for
//! the same content, because `serde_json::write_value` is itself written on
//! those primitives (one escaping routine, one number routine), and the
//! tests below hold each streamed body against the tree it replaced for
//! arbitrary outcomes. A body is therefore a pure function of its outcome —
//! which is what lets `exp_quality table5` assert HTTP-served answers equal
//! direct `ask` results byte for byte.

use serde::Value;
use serde_json::{write_bool, write_f64, write_i64, write_str, write_u64};

use dbcopilot_retrieval::RoutingResult;
use dbcopilot_serve::{AskError, AskOutcome, AskReport, ServiceStats};

/// Shorthand: an object value from `(key, value)` pairs.
pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(text: impl Into<String>) -> Value {
    Value::String(text.into())
}

/// Serialize a wire value (by reference — rendering cannot fail).
pub(crate) fn render(value: &Value) -> String {
    let mut out = String::new();
    serde_json::write_value(&mut out, value);
    out
}

/// Append `items` as a JSON array, each element written by `element`.
fn array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut element: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        element(out, item);
    }
    out.push(']');
}

fn strings(out: &mut String, items: &[String]) {
    array(out, items, |out, text| write_str(out, text));
}

/// The request body for `POST /ask` and `POST /route`.
pub fn question_body(question: &str) -> String {
    let mut out = String::with_capacity(question.len() + 16);
    out.push_str("{\"question\":");
    write_str(&mut out, question);
    out.push('}');
    out
}

/// Extract the `"question"` string from a request body, or describe why it
/// is unusable (the message lands in a 400 response).
pub fn parse_question(body: &[u8]) -> Result<String, String> {
    let value: Value =
        serde_json::from_slice(body).map_err(|e| format!("body is not valid JSON: {e}"))?;
    match value.get("question") {
        Some(Value::String(q)) => Ok(q.clone()),
        Some(_) => Err("\"question\" must be a string".into()),
        None => Err("body must be a JSON object with a \"question\" field".into()),
    }
}

/// One stable error-body shape for every failure the edge reports.
pub fn error_body(stage: &str, status: u16, message: &str, detail: Vec<(&str, Value)>) -> String {
    let mut fields =
        vec![("stage", s(stage)), ("status", Value::UInt(status as u64)), ("message", s(message))];
    fields.extend(detail);
    render(&obj(vec![("error", obj(fields))]))
}

/// Status code for a typed pipeline failure.
pub fn ask_status(error: &AskError) -> u16 {
    match error {
        AskError::Routing(_) => 404,
        AskError::Prompt(_) => 410,
        AskError::Generation(_) => 422,
        AskError::Execution(_) => 500,
        _ => 500,
    }
}

fn sql_value(out: &mut String, v: &dbcopilot_sqlengine::Value) {
    use dbcopilot_sqlengine::Value as V;
    match v {
        V::Null => out.push_str("null"),
        V::Int(n) => write_i64(out, *n),
        V::Float(f) => write_f64(out, *f),
        V::Text(t) => write_str(out, t),
        V::Bool(b) => write_bool(out, *b),
    }
}

fn report_body(report: &AskReport) -> String {
    let answer = &report.answer;
    let cells: usize = answer.result.rows.iter().map(Vec::len).sum();
    let mut out = String::with_capacity(
        256 + report.question.len()
            + answer.sql.len()
            + 16 * answer.result.columns.len()
            + 12 * cells,
    );
    out.push_str("{\"question\":");
    write_str(&mut out, &report.question);
    out.push_str(",\"schema\":{\"database\":");
    write_str(&mut out, &answer.schema.database);
    out.push_str(",\"tables\":");
    strings(&mut out, &answer.schema.tables);
    out.push_str("},\"sql\":");
    write_str(&mut out, &answer.sql);
    out.push_str(",\"result\":{\"columns\":");
    strings(&mut out, &answer.result.columns);
    out.push_str(",\"rows\":");
    array(&mut out, &answer.result.rows, |out, row| array(out, row, sql_value));
    out.push_str("},\"recovered_errors\":");
    array(&mut out, &answer.recovered_errors, |out, e| write_str(out, &e.to_string()));
    out.push_str(",\"chosen\":");
    write_u64(&mut out, report.chosen as u64);
    out.push_str(",\"candidates\":");
    write_u64(&mut out, report.candidates.len() as u64);
    out.push_str(",\"recovered\":");
    write_bool(&mut out, report.recovered());
    out.push('}');
    out
}

fn ask_error_body(error: &AskError) -> String {
    let status = ask_status(error);
    let detail: Vec<(&str, Value)> = match error {
        AskError::Routing(e) => vec![("question", s(e.question.clone()))],
        AskError::Prompt(e) => vec![("candidates", Value::UInt(e.candidates as u64))],
        AskError::Generation(e) => vec![("candidates", Value::UInt(e.candidates as u64))],
        AskError::Execution(e) => vec![
            ("attempts", Value::UInt(e.attempts.len() as u64)),
            ("last_error", s(e.last.to_string())),
        ],
        _ => Vec::new(),
    };
    error_body(error.stage(), status, &error.to_string(), detail)
}

/// `(status, body)` for a `POST /ask` outcome. Timings are deliberately
/// excluded: the body is a pure function of the outcome, so served and
/// direct answers compare byte for byte.
pub fn ask_response(outcome: &AskOutcome) -> (u16, String) {
    match outcome {
        Ok(report) => (200, report_body(report)),
        Err(error) => (ask_status(error), ask_error_body(error)),
    }
}

/// `(status, body)` for a `POST /route` result.
pub fn route_response(question: &str, routing: &RoutingResult) -> (u16, String) {
    // Punctuation and keys are 33 / 44 bytes a row; a score is ~20 digits.
    let names: usize = routing.databases.iter().map(|(db, _)| db.len()).sum::<usize>()
        + routing.tables.iter().map(|(db, table, _)| db.len() + table.len()).sum::<usize>();
    let mut out = String::with_capacity(
        64 + question.len() + names + 56 * routing.databases.len() + 68 * routing.tables.len(),
    );
    out.push_str("{\"question\":");
    write_str(&mut out, question);
    out.push_str(",\"databases\":");
    array(&mut out, &routing.databases, |out, (db, score)| {
        out.push_str("{\"database\":");
        write_str(out, db);
        out.push_str(",\"score\":");
        write_f64(out, f64::from(*score));
        out.push('}');
    });
    out.push_str(",\"tables\":");
    array(&mut out, &routing.tables, |out, (db, table, score)| {
        out.push_str("{\"database\":");
        write_str(out, db);
        out.push_str(",\"table\":");
        write_str(out, table);
        out.push_str(",\"score\":");
        write_f64(out, f64::from(*score));
        out.push('}');
    });
    out.push('}');
    (200, out)
}

/// Serving counters of one backing service, for `/stats`.
pub fn service_stats_value(stats: &ServiceStats) -> Value {
    let hits = stats.cache_hits as f64;
    let lookups = (stats.cache_hits + stats.cache_misses).max(1) as f64;
    obj(vec![
        ("cache_hits", Value::UInt(stats.cache_hits)),
        ("cache_misses", Value::UInt(stats.cache_misses)),
        ("cache_hit_rate", Value::Float(hits / lookups)),
        ("cached", Value::UInt(stats.cached as u64)),
        ("batches", Value::UInt(stats.batches)),
        ("computed", Value::UInt(stats.computed)),
        ("max_batch_observed", Value::UInt(stats.max_batch_observed)),
        ("queue_depth", Value::UInt(stats.queue_depth)),
        ("generation", Value::UInt(stats.generation)),
        (
            "shards",
            Value::Array(
                stats
                    .shards
                    .iter()
                    .map(|sh| {
                        obj(vec![
                            ("databases", Value::UInt(sh.databases as u64)),
                            ("loaded", Value::Bool(sh.loaded)),
                            ("routes", Value::UInt(sh.routes)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcopilot_graph::QuerySchema;
    use dbcopilot_serve::{
        Answer, ExecutionError, PromptError, RoutingError, ScoredCandidate, StageTimings,
    };
    use dbcopilot_sqlengine::{EngineError, ResultSet};
    use proptest::prelude::*;

    // -----------------------------------------------------------------
    // The `Value`-tree renderers the streamed bodies replaced, kept as
    // oracles: same keys in the same order, rendered by `serde_json`.
    // -----------------------------------------------------------------

    fn strings_tree(items: &[String]) -> Value {
        Value::Array(items.iter().map(|t| s(t.clone())).collect())
    }

    fn sql_value_tree(v: &dbcopilot_sqlengine::Value) -> Value {
        use dbcopilot_sqlengine::Value as V;
        match v {
            V::Null => Value::Null,
            V::Int(n) => Value::Int(*n),
            V::Float(f) => Value::Float(*f),
            V::Text(t) => s(t.clone()),
            V::Bool(b) => Value::Bool(*b),
        }
    }

    fn report_tree(report: &AskReport) -> Value {
        let answer = &report.answer;
        let rows = answer
            .result
            .rows
            .iter()
            .map(|row| Value::Array(row.iter().map(sql_value_tree).collect()))
            .collect();
        obj(vec![
            ("question", s(report.question.clone())),
            (
                "schema",
                obj(vec![
                    ("database", s(answer.schema.database.clone())),
                    ("tables", strings_tree(&answer.schema.tables)),
                ]),
            ),
            ("sql", s(answer.sql.clone())),
            (
                "result",
                obj(vec![
                    ("columns", strings_tree(&answer.result.columns)),
                    ("rows", Value::Array(rows)),
                ]),
            ),
            (
                "recovered_errors",
                Value::Array(answer.recovered_errors.iter().map(|e| s(e.to_string())).collect()),
            ),
            ("chosen", Value::UInt(report.chosen as u64)),
            ("candidates", Value::UInt(report.candidates.len() as u64)),
            ("recovered", Value::Bool(report.recovered())),
        ])
    }

    fn route_tree(question: &str, routing: &RoutingResult) -> Value {
        let databases = routing
            .databases
            .iter()
            .map(|(db, score)| {
                obj(vec![("database", s(db.clone())), ("score", Value::Float(*score as f64))])
            })
            .collect();
        let tables = routing
            .tables
            .iter()
            .map(|(db, table, score)| {
                obj(vec![
                    ("database", s(db.clone())),
                    ("table", s(table.clone())),
                    ("score", Value::Float(*score as f64)),
                ])
            })
            .collect();
        obj(vec![
            ("question", s(question)),
            ("databases", Value::Array(databases)),
            ("tables", Value::Array(tables)),
        ])
    }

    // -----------------------------------------------------------------
    // Arbitrary outcomes from one sampled seed (the vendored proptest
    // binds one value per case).
    // -----------------------------------------------------------------

    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            proptest::next_state(&mut self.0)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            *from.get(self.below(from.len())).expect("non-empty pool")
        }

        /// Names with every escape class: quote, backslash, named and
        /// `\u00XX` controls, DEL, multi-byte UTF-8 — and plain text, so the
        /// no-escape fast path and clean runs between escapes both occur.
        fn text(&mut self) -> String {
            const POOL: [&str; 16] = [
                "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "日本", "😀", "a",
                "Z", "_", " ", "singer",
            ];
            (0..self.below(7)).map(|_| self.pick(&POOL)).collect()
        }

        fn vec<T>(&mut self, max: usize, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
            (0..self.below(max + 1)).map(|_| item(self)).collect()
        }

        fn score(&mut self) -> f32 {
            const EDGES: [f32; 10] = [
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                -0.0,
                0.0,
                1e-45, // subnormal
                -1.1e-39,
                1e20,
                f32::MAX,
                -0.25,
            ];
            if self.below(3) == 0 {
                self.pick(&EDGES)
            } else {
                f32::from_bits(self.next() as u32)
            }
        }

        fn sql_value(&mut self) -> dbcopilot_sqlengine::Value {
            use dbcopilot_sqlengine::Value as V;
            match self.below(6) {
                0 => V::Null,
                1 => V::Int(self.next() as i64),
                2 => V::Float(f64::from_bits(self.next())),
                3 => V::Float(f64::from(self.score())),
                4 => V::Text(self.text()),
                _ => V::Bool(self.below(2) == 0),
            }
        }

        fn engine_error(&mut self) -> EngineError {
            match self.below(4) {
                0 => EngineError::Parse { message: self.text() },
                1 => EngineError::UnknownTable { table: self.text() },
                2 => EngineError::ScalarSubquery { rows: self.below(9), cols: self.below(9) },
                _ => EngineError::WrongDatabase { expected: self.text(), got: self.text() },
            }
        }

        fn routing(&mut self) -> RoutingResult {
            RoutingResult {
                tables: self.vec(6, |g| (g.text(), g.text(), g.score())),
                databases: self.vec(4, |g| (g.text(), g.score())),
            }
        }

        fn report(&mut self) -> AskReport {
            let schema = QuerySchema::new(self.text(), self.vec(3, Self::text));
            let width = self.below(4);
            AskReport {
                question: self.text(),
                answer: Answer {
                    schema: schema.clone(),
                    sql: self.text(),
                    result: ResultSet {
                        columns: self.vec(3, Self::text),
                        rows: self.vec(4, |g| (0..width).map(|_| g.sql_value()).collect()),
                    },
                    recovered_errors: self.vec(2, Self::engine_error),
                },
                candidates: self
                    .vec(3, |g| ScoredCandidate { schema: schema.clone(), logp: g.score() }),
                chosen: self.below(3),
                attempts: Vec::new(),
                timings: StageTimings::default(),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn streamed_bodies_equal_the_tree_they_replaced(seed in 0u64..u64::MAX) {
            let mut g = Gen(seed);
            let (question, routing) = (g.text(), g.routing());
            let (status, body) = route_response(&question, &routing);
            prop_assert_eq!(status, 200);
            prop_assert_eq!(&body, &serde_json::to_string(&route_tree(&question, &routing)).unwrap());

            let report = g.report();
            let tree = serde_json::to_string(&report_tree(&report)).unwrap();
            prop_assert_eq!(&ask_response(&Ok(report)).1, &tree);

            let tree = serde_json::to_string(&obj(vec![("question", s(question.clone()))])).unwrap();
            prop_assert_eq!(&question_body(&question), &tree);
        }
    }

    #[test]
    fn streamed_bodies_spell_the_edge_cases_as_the_tree_did() {
        let routing = RoutingResult {
            tables: Vec::new(),
            databases: vec![
                ("a\"b\\c\u{1}".into(), f32::NAN),
                ("é".into(), f32::NEG_INFINITY),
                ("z".into(), -0.0),
                ("s".into(), 1e-45),
                ("b".into(), 1e20),
            ],
        };
        let (_, body) = route_response("q\n", &routing);
        assert_eq!(
            body,
            concat!(
                r#"{"question":"q\n","databases":["#,
                r#"{"database":"a\"b\\c\u0001","score":null},"#,
                r#"{"database":"é","score":null},"#,
                r#"{"database":"z","score":-0},"#,
                r#"{"database":"s","score":0.000000000000000000000000000000000000000000001401298464324817},"#,
                r#"{"database":"b","score":100000002004087730000}"#,
                r#"],"tables":[]}"#
            )
        );
        assert_eq!(body, render(&route_tree("q\n", &routing)));
    }

    fn report() -> AskReport {
        AskReport {
            question: "how many cities?".into(),
            answer: Answer {
                schema: QuerySchema::new("world", vec!["city".into()]),
                sql: "SELECT COUNT(*) FROM city".into(),
                result: ResultSet {
                    columns: vec!["COUNT(*)".into()],
                    rows: vec![vec![dbcopilot_sqlengine::Value::Int(7)]],
                },
                recovered_errors: vec![EngineError::Parse { message: "earlier try".into() }],
            },
            candidates: vec![ScoredCandidate {
                schema: QuerySchema::new("world", vec!["city".into()]),
                logp: -0.25,
            }],
            chosen: 0,
            attempts: Vec::new(),
            timings: StageTimings::default(),
        }
    }

    #[test]
    fn ask_success_body_is_stable_and_complete() {
        let (status, body) = ask_response(&Ok(report()));
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("sql").and_then(Value::as_str), Some("SELECT COUNT(*) FROM city"));
        assert_eq!(
            v.get("schema").and_then(|s| s.get("database")).and_then(Value::as_str),
            Some("world")
        );
        let rows = v.get("result").and_then(|r| r.get("rows")).and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(body.contains("\"recovered_errors\":[\"parse error: earlier try\"]"), "{body}");
        // byte-stable: the same outcome renders identically every time
        assert_eq!(body, ask_response(&Ok(report())).1);
    }

    #[test]
    fn ask_errors_map_stage_to_status() {
        let cases: Vec<(AskError, u16)> = vec![
            (AskError::Routing(RoutingError { question: "q".into() }), 404),
            (AskError::Prompt(PromptError { candidates: 3 }), 410),
            (
                AskError::Execution(ExecutionError {
                    attempts: Vec::new(),
                    last: EngineError::Eval { message: "div by zero".into() },
                }),
                500,
            ),
        ];
        for (error, expected) in cases {
            let (status, body) = ask_response(&Err(error.clone()));
            assert_eq!(status, expected, "{error}");
            let v: Value = serde_json::from_str(&body).unwrap();
            let e = v.get("error").expect("structured error body");
            assert_eq!(e.get("stage").and_then(Value::as_str), Some(error.stage()));
            // The parser reads non-negative numbers back as Int.
            let status_value = e.get("status").expect("status field");
            assert!(
                matches!(status_value, Value::Int(n) if *n == expected as i64),
                "status {status_value:?}"
            );
        }
    }

    #[test]
    fn question_bodies_round_trip_and_reject_junk() {
        let body = question_body("what's \"up\"?\n");
        assert_eq!(parse_question(body.as_bytes()).unwrap(), "what's \"up\"?\n");
        assert!(parse_question(b"{").unwrap_err().contains("not valid JSON"));
        assert!(parse_question(b"{\"q\":1}").unwrap_err().contains("question"));
        assert!(parse_question(b"{\"question\":42}").unwrap_err().contains("string"));
    }
}
