//! Output vocabulary of the schema router: word pieces of schema-element
//! names plus special symbols.
//!
//! The router decodes schemata token-by-token (paper Figure 4): element
//! names are sequences of word pieces ("singer_in_concert" → `singer`,
//! `in`, `concert`), elements are separated by [`SEP`] and the sequence
//! terminates with [`EOS`].

use std::collections::BTreeMap;

use dbcopilot_graph::SchemaGraph;

/// Symbol id type (indexes the decoder embedding tables).
pub type Sym = u32;

/// Beginning-of-sequence (decoder's first input).
pub const BOS: Sym = 0;
/// Element separator.
pub const SEP: Sym = 1;
/// End of sequence.
pub const EOS: Sym = 2;
/// First piece id.
pub const FIRST_PIECE: Sym = 3;

/// Piece vocabulary. Derived data: [`PieceVocab::build`] is the only way to
/// make one, so a router's vocabulary always spells its graph's names.
#[derive(Debug, Clone)]
pub struct PieceVocab {
    pieces: Vec<String>,
    by_text: BTreeMap<String, Sym>,
}

/// Split a schema identifier into lowercase word pieces.
pub fn split_name(name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in name.chars() {
        if c.is_alphanumeric() {
            cur.push(c.to_ascii_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

impl PieceVocab {
    /// Collect every piece of every database and table name in the graph.
    pub fn build(graph: &SchemaGraph) -> Self {
        let mut v = PieceVocab { pieces: Vec::new(), by_text: BTreeMap::new() };
        let add = |name: &str, v: &mut PieceVocab| {
            for p in split_name(name) {
                if !v.by_text.contains_key(&p) {
                    let id = FIRST_PIECE + v.pieces.len() as Sym;
                    v.by_text.insert(p.clone(), id);
                    v.pieces.push(p);
                }
            }
        };
        for db in graph.database_nodes() {
            add(graph.name(db), &mut v);
            for t in graph.tables_of(db) {
                add(graph.name(t), &mut v);
            }
        }
        v
    }

    /// Total symbol count including specials.
    pub fn len(&self) -> usize {
        FIRST_PIECE as usize + self.pieces.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }

    /// Piece id by text.
    pub fn id_of(&self, piece: &str) -> Option<Sym> {
        self.by_text.get(piece).copied()
    }

    /// Piece text of a symbol (None for specials).
    pub fn text_of(&self, sym: Sym) -> Option<&str> {
        if sym < FIRST_PIECE {
            return None;
        }
        self.pieces.get((sym - FIRST_PIECE) as usize).map(String::as_str)
    }

    /// Encode an element name into piece ids; `None` if any piece is
    /// out-of-vocabulary.
    pub fn encode_name(&self, name: &str) -> Option<Vec<Sym>> {
        split_name(name).iter().map(|p| self.id_of(p)).collect()
    }

    /// Human-readable rendering of a symbol sequence (diagnostics).
    pub fn render(&self, seq: &[Sym]) -> String {
        let mut out = String::new();
        for &s in seq {
            match s {
                BOS => out.push_str("<bos>"),
                SEP => out.push_str(" | "),
                EOS => out.push_str(" <eos>"),
                p => {
                    if !out.is_empty() && !out.ends_with("| ") {
                        out.push(' ');
                    }
                    out.push_str(self.text_of(p).unwrap_or("?"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcopilot_sqlengine::{Collection, DataType, DatabaseSchema, TableSchema};

    fn graph() -> SchemaGraph {
        let mut c = Collection::new();
        let mut db = DatabaseSchema::new("concert_singer");
        db.add_table(TableSchema::new("singer").column("id", DataType::Int));
        db.add_table(TableSchema::new("singer_in_concert").column("id", DataType::Int));
        c.add_database(db);
        SchemaGraph::build(&c)
    }

    #[test]
    fn split_name_on_underscores() {
        assert_eq!(split_name("singer_in_concert"), vec!["singer", "in", "concert"]);
        assert_eq!(split_name("tv_show2"), vec!["tv", "show2"]);
    }

    #[test]
    fn build_collects_unique_pieces() {
        let v = PieceVocab::build(&graph());
        // pieces: concert, singer, in — deduplicated
        assert_eq!(v.len(), FIRST_PIECE as usize + 3);
        assert!(v.id_of("singer").is_some());
        assert!(v.id_of("in").is_some());
        assert!(v.id_of("zorgon").is_none());
    }

    #[test]
    fn encode_name_roundtrip() {
        let v = PieceVocab::build(&graph());
        let ids = v.encode_name("singer_in_concert").unwrap();
        assert_eq!(ids.len(), 3);
        let texts: Vec<&str> = ids.iter().map(|&i| v.text_of(i).unwrap()).collect();
        assert_eq!(texts, vec!["singer", "in", "concert"]);
        assert!(v.encode_name("unknown_table").is_none());
    }

    #[test]
    fn specials_have_no_text() {
        let v = PieceVocab::build(&graph());
        assert!(v.text_of(BOS).is_none());
        assert!(v.text_of(SEP).is_none());
        assert!(v.text_of(EOS).is_none());
    }

    #[test]
    fn render_readable() {
        let v = PieceVocab::build(&graph());
        let mut seq = v.encode_name("concert_singer").unwrap();
        seq.push(SEP);
        seq.extend(v.encode_name("singer").unwrap());
        seq.push(EOS);
        let s = v.render(&seq);
        assert!(s.contains("concert singer"));
        assert!(s.contains(" | "));
    }
}
