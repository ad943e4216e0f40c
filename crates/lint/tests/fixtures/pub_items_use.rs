//! `--public-items` fixture: the other file. Its own `pub` item is not
//! reported because the test marks this file reference-only, the way
//! `tests/`, `examples/` and `exp_perf/src` are.

pub fn caller() -> u32 {
    // orphaned_item in a comment is not a reference
    referenced_item() + "orphaned_item".len() as u32
}
