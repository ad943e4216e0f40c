//! Input-size ladder for `wire::parse_question` — the numbers in
//! `BENCH_24.json`'s `work` block. One JSON string of 80 B … 1000 KiB per
//! rung; the reader is linear when the per-byte column is flat. Run by hand
//! on two commits to compare them; CI runs it but compares no time.
//!
//! ```sh
//! cargo run --release --example parse_ladder
//! ```

use std::hint::black_box;
use std::time::Instant;

use dbcopilot::http::wire::{parse_question, question_body};

fn main() {
    println!("{:>10} {:>14} {:>10}", "body_bytes", "parse_us", "ns_per_byte");
    for bytes in [80, 1 << 10, 16 << 10, 64 << 10, 256 << 10, 1000 << 10] {
        let body = question_body(&"a".repeat(bytes - question_body("").len()));
        // About 4 MB of input per rung, at least one pass.
        let passes = ((4 << 20) / bytes).max(1);
        let start = Instant::now();
        for _ in 0..passes {
            black_box(parse_question(black_box(body.as_bytes())).expect("own body parses"));
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / passes as f64;
        println!("{:>10} {:>14.3} {:>10.2}", body.len(), us, us * 1e3 / body.len() as f64);
    }
}
