//! Dense retrieval: a hashed bag-of-words text encoder trained
//! contrastively (InfoNCE with in-batch negatives).
//!
//! Two baselines share this machinery (paper §4.1.3):
//!
//! * **SXFMR** — a *generic* sentence encoder (the paper uses
//!   `all-mpnet-base-v2`). Offline analog: the encoder is contrastively
//!   pre-trained on general paraphrase pairs (synonym ↔ canonical phrase),
//!   giving it semantic-match ability without any corpus-specific training.
//! * **DTR** — the same architecture fine-tuned on (question, table-text)
//!   pairs, like the dense table retriever of Herzig et al. (2021).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use dbcopilot_nn::{AdamW, Embedding, ParamStore, Tape, Tensor};

use crate::targets::{RoutingResult, SchemaRouter, TargetSet};
use crate::text::hashed_features;

/// Encoder and training hyper-parameters.
#[derive(Debug, Clone)]
pub struct EncoderConfig {
    pub dim: usize,
    pub buckets: usize,
    pub lr: f32,
    pub epochs: usize,
    pub batch: usize,
    /// Softmax temperature for InfoNCE (logits are divided by this).
    pub temperature: f32,
    pub seed: u64,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            dim: 48,
            buckets: 1 << 13,
            lr: 5e-3,
            epochs: 6,
            batch: 16,
            temperature: 0.1,
            seed: 0x5e,
        }
    }
}

/// A bag-of-hashed-words text encoder.
pub struct TextEncoder {
    store: ParamStore,
    emb: Embedding,
    cfg: EncoderConfig,
}

impl TextEncoder {
    pub fn new(cfg: EncoderConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = dbcopilot_nn::init::seeded_rng(cfg.seed);
        let emb = Embedding::new(&mut store, "enc", cfg.buckets, cfg.dim, &mut rng);
        TextEncoder { store, emb, cfg }
    }

    /// Embed text to an L2-normalized vector `[1, dim]`.
    pub fn embed(&self, text: &str) -> Tensor {
        let feats = hashed_features(text, self.cfg.buckets);
        let bag = self.emb.infer_bag(&self.store, &feats);
        let n = bag.norm().max(1e-8);
        bag.scale(1.0 / n)
    }

    /// Exact binary-serialized model size in bytes (what the encoder would
    /// occupy on disk in the `DBC1` codec — the same accounting the router
    /// uses, so Table 5's "Disk" column compares like with like).
    pub fn size_bytes(&self) -> usize {
        dbcopilot_nn::codec::encoded_store_len(&self.store)
    }

    /// Contrastive training on positive text pairs with in-batch negatives.
    /// Returns the mean loss of the final epoch.
    ///
    /// Feature hashing (tokenization-heavy) is precomputed data-parallel
    /// over the whole pair list and reused every epoch; the per-batch tape
    /// stays serial because InfoNCE couples all in-batch examples through
    /// the shared similarity matrix.
    pub fn train_pairs(&mut self, pairs: &[(String, String)]) -> f32 {
        assert!(!pairs.is_empty(), "no training pairs");
        let cfg = self.cfg.clone();
        let feats: Vec<(Vec<usize>, Vec<usize>)> =
            dbcopilot_runtime::pooled_map(pairs, |_, (q, d)| {
                (hashed_features(q, cfg.buckets), hashed_features(d, cfg.buckets))
            });
        let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(7));
        let mut opt = AdamW::new(cfg.lr);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        let mut last_epoch_loss = 0.0;
        for _epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(cfg.batch) {
                if chunk.len() < 2 {
                    continue; // in-batch negatives need ≥2 pairs
                }
                let mut tape = Tape::new();
                let mut qs = Vec::with_capacity(chunk.len());
                let mut ds = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    let (qf, df) = &feats[i];
                    let qv = self.emb.forward_bag(&mut tape, &self.store, qf);
                    let dv = self.emb.forward_bag(&mut tape, &self.store, df);
                    qs.push(tape.l2_normalize(qv));
                    ds.push(tape.l2_normalize(dv));
                }
                let qm = tape.stack_rows(&qs);
                let dm = tape.stack_rows(&ds);
                let sims = tape.matmul_nt(qm, dm);
                let logits = tape.scale(sims, 1.0 / cfg.temperature);
                let targets: Vec<usize> = (0..chunk.len()).collect();
                let loss = tape.cross_entropy_rows(logits, &targets);
                epoch_loss += tape.value(loss).get(0, 0);
                batches += 1;
                tape.backward(loss);
                tape.collect_grads(&mut self.store);
                self.store.clip_grad_norm(5.0);
                opt.step(&mut self.store);
            }
            last_epoch_loss = epoch_loss / batches.max(1) as f32;
        }
        last_epoch_loss
    }
}

/// A dense retriever: encoder + encoded target matrix.
pub struct DenseRetriever {
    encoder: TextEncoder,
    targets: TargetSet,
    /// `[num_targets, dim]` normalized document vectors.
    doc_matrix: Tensor,
    label: String,
}

impl DenseRetriever {
    /// Encode and index all targets (embedding runs data-parallel; rows are
    /// assembled in target order).
    pub fn index(encoder: TextEncoder, targets: TargetSet, label: &str) -> Self {
        let dim = encoder.cfg.dim;
        let rows = dbcopilot_runtime::pooled_map(&targets.targets, |_, t| encoder.embed(&t.text));
        let mut data = Vec::with_capacity(targets.len() * dim);
        for v in &rows {
            data.extend_from_slice(v.as_slice());
        }
        let doc_matrix = Tensor::from_vec(targets.len(), dim, data);
        DenseRetriever { encoder, targets, doc_matrix, label: label.to_string() }
    }

    /// Cosine-similarity search.
    pub fn search(&self, query: &str, k: usize) -> Vec<(usize, f32)> {
        let q = self.encoder.embed(query);
        let scores = self.doc_matrix.matmul_nt(&q); // [n,1]
        let mut ranked: Vec<(usize, f32)> =
            (0..self.targets.len()).map(|i| (i, scores.get(i, 0))).collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked.truncate(k);
        ranked
    }

    pub fn targets(&self) -> &TargetSet {
        &self.targets
    }

    /// Index + model disk footprint in bytes: the binary-serialized encoder
    /// plus the document matrix at 4 raw bytes per `f32`.
    pub fn size_bytes(&self) -> usize {
        self.encoder.size_bytes() + self.doc_matrix.len() * 4
    }
}

impl SchemaRouter for DenseRetriever {
    fn name(&self) -> &str {
        &self.label
    }

    fn route(&self, question: &str, top_tables: usize) -> RoutingResult {
        let ranked = self.search(question, top_tables);
        RoutingResult::from_ranked(&self.targets, &ranked)
    }
}

/// Generic paraphrase pairs from the lexicon — the SXFMR "pre-training"
/// corpus: every surface form of every concept is paired with every other
/// surface form of the same concept.
pub fn generic_paraphrase_pairs() -> Vec<(String, String)> {
    let lex = dbcopilot_synth::Lexicon::new();
    let mut pairs = Vec::new();
    let mut add_all = |surfaces: Vec<String>| {
        for i in 0..surfaces.len() {
            for j in 0..surfaces.len() {
                if i != j {
                    pairs.push((surfaces[i].clone(), surfaces[j].clone()));
                }
            }
        }
    };
    for e in dbcopilot_synth::lexicon::ENTITIES {
        add_all(lex.entity_surfaces(e.name));
    }
    for a in dbcopilot_synth::lexicon::ATTRIBUTES {
        add_all(lex.attr_surfaces(a.name));
    }
    pairs
}

/// Build the SXFMR baseline: generic paraphrase pre-training, then index.
pub fn build_sxfmr(targets: TargetSet, cfg: EncoderConfig) -> DenseRetriever {
    let mut enc = TextEncoder::new(cfg);
    let pairs = generic_paraphrase_pairs();
    enc.train_pairs(&pairs);
    DenseRetriever::index(enc, targets, "SXFMR")
}

/// Build the DTR baseline: fine-tune on (question, gold-table-text) pairs
/// (synthetic data, consistent with DBCopilot's training).
pub fn build_dtr(
    targets: TargetSet,
    train: &[(String, Vec<(String, String)>)],
    cfg: EncoderConfig,
) -> DenseRetriever {
    let mut enc = TextEncoder::new(cfg);
    // Start from generic paraphrase knowledge, as DTR starts from a PLM.
    enc.train_pairs(&generic_paraphrase_pairs());
    // Fine-tune: one pair per (question, gold table).
    let mut pairs = Vec::new();
    for (q, gold) in train {
        for (db, table) in gold {
            if let Some(t) = targets.targets.iter().find(|t| {
                t.database.eq_ignore_ascii_case(db) && t.table.eq_ignore_ascii_case(table)
            }) {
                pairs.push((q.clone(), t.text.clone()));
            }
        }
    }
    if !pairs.is_empty() {
        enc.train_pairs(&pairs);
    }
    DenseRetriever::index(enc, targets, "DTR")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets::Target;

    fn tiny_targets() -> TargetSet {
        TargetSet {
            targets: vec![
                Target {
                    database: "world".into(),
                    table: "country".into(),
                    text: "country code name continent".into(),
                },
                Target {
                    database: "concert_singer".into(),
                    table: "singer".into(),
                    text: "singer name age genre".into(),
                },
                Target {
                    database: "cinema".into(),
                    table: "movie".into(),
                    text: "movie title year rating".into(),
                },
            ],
        }
    }

    fn fast_cfg() -> EncoderConfig {
        EncoderConfig { dim: 24, buckets: 1 << 10, epochs: 4, batch: 8, ..Default::default() }
    }

    #[test]
    fn untrained_encoder_is_normalized() {
        let enc = TextEncoder::new(fast_cfg());
        let v = enc.embed("hello world");
        assert!((v.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn contrastive_training_reduces_loss() {
        let mut enc = TextEncoder::new(fast_cfg());
        let pairs: Vec<(String, String)> = vec![
            ("vocalist", "singer"),
            ("film", "movie"),
            ("nation", "country"),
            ("automobile", "car"),
            ("pupil", "student"),
            ("teacher", "instructor"),
            ("city", "town"),
            ("ship", "vessel"),
        ]
        .into_iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
        let first = {
            let mut fresh = TextEncoder::new(fast_cfg());
            let mut one_epoch = fast_cfg();
            one_epoch.epochs = 1;
            fresh.cfg = one_epoch;
            fresh.train_pairs(&pairs)
        };
        let last = enc.train_pairs(&pairs);
        assert!(last < first, "loss should fall: first={first} last={last}");
    }

    #[test]
    fn trained_encoder_aligns_synonyms() {
        let mut enc = TextEncoder::new(fast_cfg());
        let pairs: Vec<(String, String)> = (0..20)
            .flat_map(|_| {
                vec![
                    ("vocalist".to_string(), "singer".to_string()),
                    ("film director".to_string(), "movie maker".to_string()),
                    ("nation".to_string(), "country".to_string()),
                ]
            })
            .collect();
        enc.train_pairs(&pairs);
        let v_syn = enc.embed("vocalist");
        let v_canon = enc.embed("singer");
        let v_other = enc.embed("country");
        assert!(v_syn.cosine(&v_canon) > v_syn.cosine(&v_other));
    }

    #[test]
    fn dense_retriever_ranks_lexical_match_first() {
        let enc = {
            let mut e = TextEncoder::new(fast_cfg());
            // identity training so same-word matching works
            let pairs: Vec<(String, String)> =
                tiny_targets().targets.iter().map(|t| (t.text.clone(), t.text.clone())).collect();
            let reps: Vec<(String, String)> = (0..10).flat_map(|_| pairs.clone()).collect();
            e.train_pairs(&reps);
            e
        };
        let r = DenseRetriever::index(enc, tiny_targets(), "test");
        let ranked = r.search("age of singer", 3);
        assert_eq!(r.targets().get(ranked[0].0).table, "singer");
    }

    #[test]
    fn sxfmr_handles_synonym_queries() {
        let r = build_sxfmr(tiny_targets(), fast_cfg());
        let ranked = r.search("recording artist age", 3);
        assert_eq!(r.targets().get(ranked[0].0).table, "singer", "synonym should hit singer");
    }

    #[test]
    fn generic_pairs_nonempty_and_symmetric() {
        let pairs = generic_paraphrase_pairs();
        assert!(pairs.len() > 100);
        assert!(pairs.iter().any(|(a, b)| a == "vocalist" && b == "singer"));
        assert!(pairs.iter().any(|(a, b)| a == "singer" && b == "vocalist"));
    }
}
