//! `--public-items` fixture: the declaring file. `referenced_item` is named
//! by `pub_items_use.rs`; `orphaned_item` only here — in a call, a doc
//! comment and a string, of which only the call is a token, and it is in
//! this very file.

pub fn referenced_item() -> u32 {
    orphaned_item() + 1
}

/// Call `orphaned_item()` for "orphaned_item".
pub const fn orphaned_item() -> u32 {
    41
}

pub(crate) fn not_public_at_all() {}

pub const ORPHANED_LIMIT: u32 = 7;
