//! CRUSH baseline (Kothyari et al., 2023): LLM schema hallucination +
//! collective retrieval + relationship-aware reranking.
//!
//! The original instructs GPT to "hallucinate" a minimal schema for the
//! question, retrieves candidates for each hallucinated element, and reranks
//! the union using inter-element relationships. Offline substitution: the
//! hallucinator maps question phrases to plausible schema tokens using
//! general synonym knowledge (the lexicon — standing in for the LLM's world
//! knowledge), which is exactly the vocabulary-bridging role the LLM plays.
//! Retrieval stays per-element and relations enter only through post-hoc
//! reranking — the structural limitation the paper contrasts with
//! DBCopilot's joint retrieval.

use std::collections::BTreeMap;

use dbcopilot_graph::SchemaGraph;
use dbcopilot_synth::Lexicon;

use crate::targets::{RoutingResult, SchemaRouter, TargetId, TargetSet};
use crate::text::tokenize;

/// The simulated LLM hallucinator: question → schema-element strings.
pub struct Hallucinator {
    lex: Lexicon,
    /// Probability of hallucinating a wrong (random) concept per segment —
    /// the failure mode the CRUSH paper itself reports for GPT schema
    /// hallucination.
    pub noise: f64,
    seed: u64,
}

impl Default for Hallucinator {
    fn default() -> Self {
        Self::new()
    }
}

impl Hallucinator {
    pub fn new() -> Self {
        Hallucinator { lex: Lexicon::new(), noise: 0.3, seed: 0xc7 }
    }

    /// Produce hallucinated schema segments for a question: canonicalized
    /// content words plus their raw forms.
    pub fn hallucinate(&self, question: &str) -> Vec<String> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(crate::text::fnv1a(question) ^ self.seed);
        let tokens = tokenize(question);
        let mut segments = Vec::new();
        // multi-word synonym resolution: try trigrams, bigrams, unigrams
        let mut i = 0;
        while i < tokens.len() {
            let mut matched = false;
            for n in (1..=3usize).rev() {
                if i + n > tokens.len() {
                    continue;
                }
                let phrase = tokens[i..i + n].join(" ");
                if let Some(canon) = self.lex.canonical_of(&phrase) {
                    segments.push(canon.replace('_', " "));
                    i += n;
                    matched = true;
                    break;
                }
                // singular fallback for plural entity mentions
                if n == 1 {
                    let singular = singularize(&phrase);
                    if let Some(canon) = self.lex.canonical_of(&singular) {
                        segments.push(canon.replace('_', " "));
                        i += 1;
                        matched = true;
                        break;
                    }
                }
            }
            if !matched {
                i += 1;
            }
        }
        // Hallucination noise: some segments come out as plausible but
        // wrong concepts.
        for seg in segments.iter_mut() {
            if rng.gen_bool(self.noise) {
                let e = &dbcopilot_synth::lexicon::ENTITIES
                    [rng.gen_range(0..dbcopilot_synth::lexicon::ENTITIES.len())];
                *seg = e.name.replace('_', " ");
            }
        }
        segments.dedup();
        if segments.is_empty() {
            // the LLM always emits something — fall back to the raw question
            segments.push(question.to_string());
        }
        segments
    }
}

pub use dbcopilot_synth::lexicon::singularize;

/// CRUSH wrapper over any base retriever.
pub struct Crush<R> {
    hallucinator: Hallucinator,
    inner: R,
    graph: SchemaGraph,
    label: String,
}

/// Relation-rerank bonus weight.
const RERANK_LAMBDA: f32 = 0.15;

/// The subset of retriever behavior CRUSH needs (per-segment search).
pub trait SegmentSearch {
    fn search_segment(&self, segment: &str, k: usize) -> Vec<(TargetId, f32)>;
    fn target_set(&self) -> &TargetSet;
}

impl SegmentSearch for crate::bm25::Bm25Index {
    fn search_segment(&self, segment: &str, k: usize) -> Vec<(TargetId, f32)> {
        self.search(segment, k)
    }

    fn target_set(&self) -> &TargetSet {
        self.targets()
    }
}

impl SegmentSearch for crate::dense::DenseRetriever {
    fn search_segment(&self, segment: &str, k: usize) -> Vec<(TargetId, f32)> {
        self.search(segment, k)
    }

    fn target_set(&self) -> &TargetSet {
        self.targets()
    }
}

impl<R: SegmentSearch> Crush<R> {
    pub fn new(inner: R, graph: SchemaGraph, label: &str) -> Self {
        Crush { hallucinator: Hallucinator::new(), inner, graph, label: label.to_string() }
    }
}

impl<R: SegmentSearch> SchemaRouter for Crush<R> {
    fn name(&self) -> &str {
        &self.label
    }

    fn route(&self, question: &str, top_tables: usize) -> RoutingResult {
        let segments = self.hallucinator.hallucinate(question);
        // Collective retrieval: max-normalized score sum over segments.
        // BTreeMap keeps every downstream step (candidate scan, rerank,
        // final collect) in doc-id order, independent of hasher state.
        let mut combined: BTreeMap<TargetId, f32> = BTreeMap::new();
        for seg in &segments {
            let hits = self.inner.search_segment(seg, 50);
            let max = hits.first().map(|&(_, s)| s).unwrap_or(1.0).max(1e-6);
            for (id, s) in hits {
                *combined.entry(id).or_insert(0.0) += s / max;
            }
        }
        // Also retrieve with the whole question so segment misses degrade
        // gracefully (CRUSH unions the raw-query results too).
        for (id, s) in self.inner.search_segment(question, 50) {
            let e = combined.entry(id).or_insert(0.0);
            *e += 0.5 * s / (s.abs().max(1e-6));
        }

        // Relationship-aware rerank: bonus per graph edge to another
        // candidate table.
        let targets = self.inner.target_set();
        let candidate_nodes: BTreeMap<TargetId, dbcopilot_graph::NodeId> = combined
            .keys()
            .filter_map(|&id| {
                let t = targets.get(id);
                self.graph.table_node(&t.database, &t.table).map(|n| (id, n))
            })
            .collect();
        let node_set: std::collections::BTreeSet<dbcopilot_graph::NodeId> =
            candidate_nodes.values().copied().collect();
        let mut ranked: Vec<(TargetId, f32)> = combined
            .into_iter()
            .map(|(id, score)| {
                let bonus = candidate_nodes
                    .get(&id)
                    .map(|n| {
                        self.graph
                            .related_tables(*n)
                            .iter()
                            .filter(|r| node_set.contains(r))
                            .count() as f32
                    })
                    .unwrap_or(0.0);
                (id, score + RERANK_LAMBDA * bonus)
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        ranked.truncate(top_tables);
        RoutingResult::from_ranked(targets, &ranked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bm25::{Bm25Index, Bm25Params};
    use dbcopilot_sqlengine::{Collection, DataType, DatabaseSchema, TableSchema};

    fn collection() -> Collection {
        let mut c = Collection::new();
        let mut world = DatabaseSchema::new("world");
        world.add_table(
            TableSchema::new("country")
                .column("code", DataType::Text)
                .column("name", DataType::Text)
                .primary(0),
        );
        world.add_table(
            TableSchema::new("countrylanguage")
                .column("countrycode", DataType::Text)
                .column("language", DataType::Text)
                .foreign("countrycode", "country", "code"),
        );
        let mut car = DatabaseSchema::new("car");
        car.add_table(
            TableSchema::new("continents")
                .column("contid", DataType::Int)
                .column("continent", DataType::Text),
        );
        c.add_database(world);
        c.add_database(car);
        c
    }

    fn router() -> Crush<Bm25Index> {
        let coll = collection();
        let targets = TargetSet::from_collection(&coll);
        let idx = Bm25Index::build(targets, Bm25Params::default());
        let graph = SchemaGraph::build(&coll);
        Crush::new(idx, graph, "CRUSH_BM25")
    }

    #[test]
    fn hallucinator_canonicalizes_synonyms() {
        let h = Hallucinator::new();
        let segs = h.hallucinate("What is the homeland of each vocalist?");
        assert!(segs.contains(&"country".to_string()), "{segs:?}");
        assert!(segs.contains(&"singer".to_string()), "{segs:?}");
    }

    #[test]
    fn hallucinator_handles_plurals() {
        let h = Hallucinator::new();
        let segs = h.hallucinate("how many cities are there");
        assert!(segs.contains(&"city".to_string()), "{segs:?}");
    }

    #[test]
    fn relation_rerank_prefers_connected_tables() {
        let r = router();
        let result = r.route("Which language is spoken in each country?", 10);
        // country & countrylanguage are PF-related, so world should outrank car
        assert_eq!(result.database_names()[0], "world");
        let tops = result.top_tables(2);
        assert!(tops.contains(&("world", "countrylanguage")));
        assert!(tops.contains(&("world", "country")));
    }

    #[test]
    fn empty_hallucination_falls_back_to_question() {
        let h = Hallucinator::new();
        let segs = h.hallucinate("xyzzy plugh");
        assert_eq!(segs.len(), 1);
    }
}
