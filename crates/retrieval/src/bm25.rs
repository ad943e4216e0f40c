//! Okapi BM25 over an inverted index (the paper's sparse baseline).

use std::collections::{BTreeMap, HashMap};

use crate::targets::{RoutingResult, SchemaRouter, TargetId, TargetSet};
use crate::text::tokenize;

/// BM25 parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Params {
    pub k1: f32,
    pub b: f32,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// An inverted index with BM25 scoring.
pub struct Bm25Index {
    targets: TargetSet,
    params: Bm25Params,
    /// term → postings `(doc, term_frequency)`.
    postings: HashMap<String, Vec<(TargetId, u32)>>,
    doc_len: Vec<u32>,
    avg_len: f32,
    label: String,
}

impl Bm25Index {
    /// Build the index over a target set.
    pub fn build(targets: TargetSet, params: Bm25Params) -> Self {
        Self::build_labeled(targets, params, "BM25")
    }

    /// Build with a custom display label (e.g. "BM25 (ft)").
    pub fn build_labeled(targets: TargetSet, params: Bm25Params, label: &str) -> Self {
        // Tokenization and term counting dominate the build: run them
        // data-parallel per document, then fold the postings serially in
        // document order so every term's postings list stays sorted by
        // document id (exactly as the serial build produced it).
        let per_doc: Vec<(u32, Vec<(String, u32)>)> =
            dbcopilot_runtime::pooled_map(&targets.targets, |_, t| {
                let toks = tokenize(&t.text);
                let mut tf: BTreeMap<&str, u32> = BTreeMap::new();
                for tok in &toks {
                    *tf.entry(tok.as_str()).or_insert(0) += 1;
                }
                // BTreeMap iteration is term-sorted, so the per-doc term
                // list (and everything folded from it) is order-stable.
                let tf: Vec<(String, u32)> =
                    tf.into_iter().map(|(t, f)| (t.to_string(), f)).collect();
                (toks.len() as u32, tf)
            });
        let mut postings: HashMap<String, Vec<(TargetId, u32)>> = HashMap::new();
        let mut doc_len = Vec::with_capacity(targets.len());
        for (id, (len, tf)) in per_doc.into_iter().enumerate() {
            doc_len.push(len);
            for (term, f) in tf {
                postings.entry(term).or_default().push((id, f));
            }
        }
        let avg_len = if doc_len.is_empty() {
            0.0
        } else {
            doc_len.iter().sum::<u32>() as f32 / doc_len.len() as f32
        };
        Bm25Index { targets, params, postings, doc_len, avg_len, label: label.to_string() }
    }

    pub fn num_docs(&self) -> usize {
        self.targets.len()
    }

    /// Index disk footprint in bytes (Table 5 "Disk"): term bytes plus 8
    /// bytes per posting plus 4 per document length — i.e. a binary
    /// encoding, matching the `DBC1` accounting the learned methods use.
    pub fn size_bytes(&self) -> usize {
        let mut sz = self.doc_len.len() * 4;
        // dbc-lint: allow(hashmap-iter-order): a commutative sum over all
        // entries — the fold's order cannot reach the result. `postings`
        // stays a HashMap for O(1) term lookup in the search hot path.
        for (term, posts) in &self.postings {
            sz += term.len() + posts.len() * 8;
        }
        sz
    }

    /// Score all documents for a query, returning the top `k`.
    pub fn search(&self, query: &str, k: usize) -> Vec<(TargetId, f32)> {
        let n = self.num_docs() as f32;
        // BTreeMap: score accumulation *and* the final collect stay in
        // doc-id order, independent of hasher state.
        let mut scores: BTreeMap<TargetId, f32> = BTreeMap::new();
        for term in tokenize(query) {
            let Some(posts) = self.postings.get(&term) else { continue };
            let df = posts.len() as f32;
            let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
            for &(doc, tf) in posts {
                let tf = tf as f32;
                let dl = self.doc_len[doc] as f32;
                let denom =
                    tf + self.params.k1 * (1.0 - self.params.b + self.params.b * dl / self.avg_len);
                let s = idf * tf * (self.params.k1 + 1.0) / denom;
                *scores.entry(doc).or_insert(0.0) += s;
            }
        }
        let mut ranked: Vec<(TargetId, f32)> = scores.into_iter().collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        ranked.truncate(k);
        ranked
    }

    pub fn targets(&self) -> &TargetSet {
        &self.targets
    }
}

impl SchemaRouter for Bm25Index {
    fn name(&self) -> &str {
        &self.label
    }

    fn route(&self, question: &str, top_tables: usize) -> RoutingResult {
        let ranked = self.search(question, top_tables);
        RoutingResult::from_ranked(&self.targets, &ranked)
    }
}

/// Grid-search `k1`/`b` on labeled data (the paper's "fine-tuned BM25"):
/// maximizes table recall@k of the gold tables over the training questions.
///
/// Every grid point builds and evaluates its own index, so the search runs
/// data-parallel over the grid; the winner is picked serially in grid order
/// (first strict improvement), matching the serial search exactly.
pub fn tune_bm25(
    targets: &TargetSet,
    train: &[(String, Vec<(String, String)>)],
    k: usize,
) -> Bm25Params {
    let k1_grid = [0.6f32, 0.9, 1.2, 1.6, 2.0];
    let b_grid = [0.3f32, 0.5, 0.75, 0.9];
    let grid: Vec<Bm25Params> =
        k1_grid.iter().flat_map(|&k1| b_grid.iter().map(move |&b| Bm25Params { k1, b })).collect();
    let recalls = dbcopilot_runtime::pooled_map(&grid, |_, &params| {
        let idx = Bm25Index::build(targets.clone(), params);
        let mut recall_sum = 0.0;
        for (q, gold) in train {
            let got = idx.search(q, k);
            let hits = gold
                .iter()
                .filter(|(gd, gt)| {
                    got.iter().any(|&(id, _)| {
                        let t = targets.get(id);
                        t.database.eq_ignore_ascii_case(gd) && t.table.eq_ignore_ascii_case(gt)
                    })
                })
                .count();
            recall_sum += hits as f32 / gold.len().max(1) as f32;
        }
        recall_sum / train.len().max(1) as f32
    });
    let mut best = (Bm25Params::default(), -1.0f32);
    for (&params, r) in grid.iter().zip(recalls) {
        if r > best.1 {
            best = (params, r);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets::Target;

    fn targets() -> TargetSet {
        TargetSet {
            targets: vec![
                Target {
                    database: "world".into(),
                    table: "country".into(),
                    text: "country code name continent region".into(),
                },
                Target {
                    database: "world".into(),
                    table: "countrylanguage".into(),
                    text: "countrylanguage countrycode language official".into(),
                },
                Target {
                    database: "concert_singer".into(),
                    table: "singer".into(),
                    text: "singer singer id name age country".into(),
                },
            ],
        }
    }

    #[test]
    fn exact_term_match_ranks_first() {
        let idx = Bm25Index::build(targets(), Bm25Params::default());
        let r = idx.search("language spoken", 10);
        assert!(!r.is_empty());
        assert_eq!(idx.targets().get(r[0].0).table, "countrylanguage");
    }

    #[test]
    fn no_match_returns_empty() {
        let idx = Bm25Index::build(targets(), Bm25Params::default());
        assert!(idx.search("zorgon blaster", 10).is_empty());
    }

    #[test]
    fn rare_terms_outweigh_common() {
        let idx = Bm25Index::build(targets(), Bm25Params::default());
        // "country" appears in several docs; "age" only in singer
        let r = idx.search("age of country", 10);
        assert_eq!(idx.targets().get(r[0].0).table, "singer");
    }

    #[test]
    fn route_aggregates_to_databases() {
        let idx = Bm25Index::build(targets(), Bm25Params::default());
        let r = idx.route("official language of country", 10);
        assert_eq!(r.database_names()[0], "world");
    }

    #[test]
    fn top_k_truncates() {
        let idx = Bm25Index::build(targets(), Bm25Params::default());
        let r = idx.search("country name", 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn tuning_returns_grid_point() {
        let ts = targets();
        let train = vec![
            (
                "which language is spoken".to_string(),
                vec![("world".to_string(), "countrylanguage".to_string())],
            ),
            (
                "age of singers".to_string(),
                vec![("concert_singer".to_string(), "singer".to_string())],
            ),
        ];
        let p = tune_bm25(&ts, &train, 5);
        assert!([0.6, 0.9, 1.2, 1.6, 2.0].contains(&p.k1));
        assert!([0.3, 0.5, 0.75, 0.9].contains(&p.b));
    }

    #[test]
    fn size_bytes_positive() {
        let idx = Bm25Index::build(targets(), Bm25Params::default());
        assert!(idx.size_bytes() > 0);
    }
}
