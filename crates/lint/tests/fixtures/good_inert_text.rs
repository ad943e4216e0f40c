//! Fixture (deterministic + serving + numeric scope): every hazard below lives in
//! a string, raw string, char literal, or comment — all inert to the
//! analyzer. Must be clean.

/* A block comment /* with nesting */ mentioning counts.iter() and
   slots.lock() followed by cache.lock() stays invisible. */

// Prose about panic!("...") and .unwrap() and Instant::now() is fine too,
// as is x.exp() or f32::tanh in a comment.

pub fn literals() -> (String, &'static str, char) {
    let s = "panic!(\"nope\") .unwrap() buf[0] spawn( Instant::now()".to_string();
    let raw = r#"for (k, v) in &counts { } HashMap::new().keys()"#;
    let c = '[';
    let _quote = '\'';
    let _escaped = "a \\\" quoted \" string with spawn( inside";
    let _pragma_text = "dbc-lint: allow(lock-order) quoted, not a pragma";
    let _libm = "(v - max).exp() and f64::ln";
    (s, raw.to_string().leak(), c)
}
