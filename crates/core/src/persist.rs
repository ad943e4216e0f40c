//! Router persistence and incremental schema update.
//!
//! The paper's §6 ("Dynamic Schema Update") notes that real collections
//! evolve and asks for cheaper adaptation than full retraining. This module
//! provides both halves:
//!
//! * one byte-level save/load pair per bundle kind, so a trained router
//!   (weights, graph, config) serves without retraining:
//!   [`router_to_vec`]/[`load_router_slice`] for a monolithic router (and
//!   each shard's payload), [`sharded_router_to_vec`]/
//!   [`load_sharded_router_bytes`] for the sharded tier. Files are
//!   `std::fs::{read, write}` away;
//! * [`extend_router`] — register new databases and *fine-tune* on
//!   synthesized questions for the new schemata only, reusing the existing
//!   weights (new word pieces get fresh embedding rows).
//!
//! The on-disk form is a `DBC1` binary container (see
//! [`dbcopilot_nn::codec`]): one section per bundle component, with the
//! weight section storing raw `f32` bits so a save→load round trip is
//! bit-exact. Every load validates magic, version, parameter names and
//! tensor shapes against the config and fails with a typed [`PersistError`]
//! in release builds — corruption is never a `debug_assert!`.

use std::collections::BTreeSet;
use std::sync::Arc;

use dbcopilot_graph::SchemaGraph;
use dbcopilot_nn::codec::{self, Section};
pub use dbcopilot_nn::serialize::PersistError;
use dbcopilot_nn::ParamStore;
use dbcopilot_nn::Tensor;
use dbcopilot_sqlengine::Collection;
use dbcopilot_synth::Questioner;

use crate::decode::ConstraintTables;
use crate::model::{RouterConfig, RouterModel};
use crate::router::DbcRouter;
use crate::shard::{shard_of, ShardSlot, ShardedRouter};
use crate::train::{train_with_tables, SerializationMode, TrainExample, TrainStats};
use crate::vocab::PieceVocab;

/// Router hyper-parameter section (JSON payload).
const SEC_CONFIG: [u8; 4] = *b"RCFG";
/// Schema-graph section (JSON payload).
const SEC_GRAPH: [u8; 4] = *b"GRPH";
/// Sharded-bundle manifest section: shard count, per-shard database names
/// and `(offset, len)` ranges into the `SBDL` payload, the calibration
/// probes, then the per-shard backgrounds.
const SEC_SHARDS: [u8; 4] = *b"SHRD";
/// Concatenated per-shard router bundles (each itself a full `DBC1`
/// container; empty shards contribute zero bytes).
const SEC_SHARD_BUNDLES: [u8; 4] = *b"SBDL";

/// Encode a router as a `DBC1` binary bundle of what cannot be derived:
/// config, graph and f32 weights. Weight bits are preserved exactly; the
/// config and graph sections are JSON payloads (they hold no weights and are
/// dwarfed by the parameter section). The vocabulary is rebuilt from the
/// graph on load, and i8 weights are frozen from the f32 ones on
/// `set_precision(I8)`.
pub fn router_to_vec(router: &DbcRouter) -> Result<Vec<u8>, PersistError> {
    Ok(codec::encode_container(&[
        Section::new(SEC_CONFIG, serde_json::to_vec(&router.model.cfg)?),
        Section::new(SEC_GRAPH, serde_json::to_vec(&router.graph)?),
        Section::new(codec::SEC_PARAMS, codec::encode_store_section(&router.model.store)),
    ]))
}

/// Deserialize a router from a byte buffer. Sections with other tags are
/// skipped unread.
pub fn load_router_slice(bytes: &[u8]) -> Result<DbcRouter, PersistError> {
    let sections = codec::decode_container(bytes)?;
    // A sharded manifest is a different artifact kind, not a broken
    // monolithic bundle: refuse it with a pointer to the right loader
    // instead of failing on a "missing" GRPH section.
    if codec::find_section(&sections, SEC_SHARDS)?.is_some() {
        return Err(PersistError::Corrupt(
            "sharded (SHRD) router bundle: load it with load_sharded_router_bytes".to_string(),
        ));
    }
    let cfg: RouterConfig =
        serde_json::from_slice(&codec::require_section(&sections, SEC_CONFIG)?.bytes)?;
    let graph: SchemaGraph =
        serde_json::from_slice(&codec::require_section(&sections, SEC_GRAPH)?.bytes)?;
    let store =
        codec::decode_store_section(&codec::require_section(&sections, codec::SEC_PARAMS)?.bytes)?;

    // A graph whose own indices disagree is a broken bundle, not an index
    // out of range in the vocabulary and table builds that walk it below.
    graph.validate().map_err(|why| PersistError::Corrupt(format!("graph: {why}")))?;
    let vocab = PieceVocab::build(&graph);
    // `cfg` is untrusted JSON and `RouterModel::new` allocates and
    // random-initialises every tensor it implies, so it is held against the
    // decoded store — whose size the bytes present have already proven —
    // *before* anything is built from it. The layer structs hold ParamIds
    // bound during `new`, so a store that differed in names, order or shapes
    // would have those ids silently address the wrong tensors; the
    // embedding rows must number exactly the graph's vocabulary.
    validate_config(&cfg, vocab.len(), &store)?;
    let mut model = RouterModel::new(cfg, vocab.len());
    model.store = store;
    let tables = ConstraintTables::build(&graph, &vocab);
    Ok(DbcRouter::assemble(model, vocab, graph, tables))
}

// ---------------------------------------------------------------------
// sharded bundles
// ---------------------------------------------------------------------

/// Encode a sharded router as one `DBC1` container: a `SHRD` manifest
/// (shard count, per-shard database names and byte ranges, the calibration
/// probes, per-shard backgrounds), the tier's `RCFG` config, and an `SBDL`
/// payload holding each shard's own complete router bundle back to back.
///
/// Shards that were loaded lazily and never decoded are *spliced through as
/// raw bytes* — re-saving a 64-shard bundle after a one-shard
/// [`ShardedRouter::extend`] re-encodes only the shards that were actually
/// touched.
pub fn sharded_router_to_vec(router: &ShardedRouter) -> Result<Vec<u8>, PersistError> {
    let slots = router.slots();
    let mut blob: Vec<u8> = Vec::new();
    let mut manifest: Vec<u8> = Vec::new();
    manifest.extend_from_slice(&u32::try_from(slots.len()).expect("shard count").to_le_bytes());
    for slot in slots {
        let names = slot.db_names();
        manifest.extend_from_slice(&u32::try_from(names.len()).expect("db count").to_le_bytes());
        for name in names {
            manifest
                .extend_from_slice(&u32::try_from(name.len()).expect("name length").to_le_bytes());
            manifest.extend_from_slice(name.as_bytes());
        }
        let offset = blob.len() as u64;
        match slot.raw_bytes() {
            Some(raw) => blob.extend_from_slice(raw),
            None => {
                if let Some(shard_router) = slot.router() {
                    blob.extend_from_slice(&router_to_vec(shard_router)?);
                }
            }
        }
        manifest.extend_from_slice(&offset.to_le_bytes());
        manifest.extend_from_slice(&(blob.len() as u64 - offset).to_le_bytes());
    }
    // The tier's shared calibration probe questions. Persisted so that a
    // lazily-loaded or extended tier keeps scoring every shard against the
    // *same* background question distribution it was fit with.
    let probes = router.probes();
    manifest.extend_from_slice(&u32::try_from(probes.len()).expect("probe count").to_le_bytes());
    for q in probes {
        manifest.extend_from_slice(&u32::try_from(q.len()).expect("probe length").to_le_bytes());
        manifest.extend_from_slice(q.as_bytes());
    }
    // Each shard's calibration background (a flag, then one `f32` per
    // database name; the flag is set exactly for the non-empty shards of a
    // multi-shard tier), so the first route after a load decodes weights
    // and nothing else.
    for slot in slots {
        let background = slot.background();
        manifest.push(u8::from(!background.is_empty()));
        for score in background {
            manifest.extend_from_slice(&score.to_le_bytes());
        }
    }
    let sections = vec![
        Section::new(SEC_SHARDS, manifest),
        Section::new(SEC_CONFIG, serde_json::to_vec(router.config())?),
        Section::new(SEC_SHARD_BUNDLES, blob),
    ];
    Ok(codec::encode_container(&sections))
}

/// Manifest entry parsed eagerly at load time.
struct ShardManifestEntry {
    names: Vec<String>,
    offset: usize,
    len: usize,
    background: Vec<f32>,
}

/// Load a sharded router from an owned byte buffer.
///
/// The manifest, config, and every shard's container *framing* are
/// validated eagerly (magic, version, section table, byte ranges), but a
/// shard's weights are only decoded on first touch — the buffer is kept
/// alive behind an `Arc` and each shard holds its byte range into it, so a
/// 64-shard bundle starts serving after decoding exactly the shards the
/// traffic reaches.
///
/// The manifest must partition the database names the way [`shard_of`]
/// does (each name once, in the shard it hashes to), carry the calibration
/// probes, and carry a background for exactly the non-empty shards of a
/// multi-shard tier; anything else is [`PersistError::Corrupt`].
///
/// Pre-manifest bundles — monolithic `DBC1` containers — load as a 1-shard
/// tier, so every artifact written by [`router_to_vec`] keeps loading here
/// (back compat is covered both ways: see also the `SHRD` rejection in
/// [`load_router_slice`]).
pub fn load_sharded_router_bytes(bytes: Vec<u8>) -> Result<ShardedRouter, PersistError> {
    let parsed: Option<(Vec<ShardManifestEntry>, RouterConfig, usize, Vec<String>)> = {
        let sections = codec::decode_container(&bytes)?;
        match codec::find_section(&sections, SEC_SHARDS)? {
            None => None,
            Some(manifest_sec) => {
                let cfg: RouterConfig =
                    serde_json::from_slice(&codec::require_section(&sections, SEC_CONFIG)?.bytes)?;
                let blob = &codec::require_section(&sections, SEC_SHARD_BUNDLES)?.bytes;
                // Section payloads are borrowed straight out of `bytes`, so
                // the blob's position inside the file is the pointer delta.
                let blob_base = blob.as_ptr() as usize - bytes.as_ptr() as usize;
                let mut r = codec::Reader::new(&manifest_sec.bytes);
                // Every count below is checked against the bytes that are
                // left before anything is sized by it: a bundle arrives over
                // `/admin/publish`, and a crafted count must fail as
                // truncation, not abort the process in `with_capacity`.
                // (Smallest shard entry: a name count and an 8 + 8 byte range.)
                let count = r.take_count("shard count", 4 + 8 + 8)?;
                if count == 0 {
                    return Err(PersistError::Corrupt(
                        "sharded bundle declares zero shards".to_string(),
                    ));
                }
                let mut entries = Vec::with_capacity(count);
                // `merge_routing` relies on the shards partitioning the
                // names, and `shard_of_db` on `shard_of` placing them.
                let mut seen = BTreeSet::new();
                for shard in 0..count {
                    let n_names = r.take_count("shard database count", 4)?;
                    let mut names = Vec::with_capacity(n_names);
                    for _ in 0..n_names {
                        let len = r.take_u32("database name length")? as usize;
                        let raw = r.take_bytes(len, "database name")?;
                        let name = std::str::from_utf8(raw).map_err(|_| {
                            PersistError::Corrupt(format!(
                                "shard {shard} database name is not UTF-8"
                            ))
                        })?;
                        let owner = shard_of(name, count);
                        if owner != shard {
                            return Err(PersistError::Corrupt(format!(
                                "database {name:?} is listed in shard {shard}, \
                                 but belongs to shard {owner}"
                            )));
                        }
                        if !seen.insert(name) {
                            return Err(PersistError::Corrupt(format!(
                                "database {name:?} is listed twice"
                            )));
                        }
                        names.push(name.to_string());
                    }
                    let offset = r.take_u64("shard offset")? as usize;
                    let len = r.take_u64("shard length")? as usize;
                    let end =
                        offset.checked_add(len).filter(|&e| e <= blob.len()).ok_or_else(|| {
                            PersistError::Corrupt(format!(
                                "shard {shard} range {offset}+{len} exceeds payload of {} bytes",
                                blob.len()
                            ))
                        })?;
                    if names.is_empty() != (len == 0) {
                        return Err(PersistError::Corrupt(format!(
                            "shard {shard} is inconsistent: {} databases, {len} payload bytes",
                            names.len()
                        )));
                    }
                    if len > 0 {
                        // Cheap eager check: the shard's own container must
                        // frame correctly (magic, version, section table).
                        // Weight decoding stays deferred.
                        codec::decode_container(&blob[offset..end])?;
                    }
                    entries.push(ShardManifestEntry { names, offset, len, background: Vec::new() });
                }
                let n_probes = r.take_count("probe count", 4)?;
                let mut probes = Vec::with_capacity(n_probes);
                for i in 0..n_probes {
                    let len = r.take_u32("probe length")? as usize;
                    let raw = r.take_bytes(len, "probe question")?;
                    let q = std::str::from_utf8(raw).map_err(|_| {
                        PersistError::Corrupt(format!("probe question {i} is not UTF-8"))
                    })?;
                    probes.push(q.to_string());
                }
                // The length of a background is its shard's name count — a
                // field of any other size leaves bytes over or runs out of
                // them below.
                for (shard, entry) in entries.iter_mut().enumerate() {
                    let flag = r.take_array::<1>("background flag")?[0];
                    let want = u8::from(count > 1 && !entry.names.is_empty());
                    if flag != want {
                        return Err(PersistError::Corrupt(format!(
                            "shard {shard} background flag is {flag}, expected {want}"
                        )));
                    }
                    if flag == 1 {
                        entry.background = r.take_f32s(entry.names.len(), "shard background")?;
                    }
                }
                r.expect_end()?;
                Some((entries, cfg, blob_base, probes))
            }
        }
    };
    match parsed {
        None => Ok(ShardedRouter::from_monolith(load_router_slice(&bytes)?)),
        Some((entries, cfg, blob_base, probes)) => {
            let bundle = Arc::new(bytes);
            let slots = entries
                .into_iter()
                .map(|e| {
                    Arc::new(ShardSlot::lazy(
                        e.names,
                        Arc::clone(&bundle),
                        blob_base + e.offset,
                        e.len,
                        e.background,
                    ))
                })
                .collect();
            Ok(ShardedRouter::from_parts(slots, cfg, probes))
        }
    }
}

/// Widest beam (and most beam groups) a loaded config may ask for. Both
/// size a vector on every route; the paper decodes with 10.
const MAX_DECODE_WIDTH: usize = 4096;

/// Verify that `loaded` is the layout `cfg` and `vocab_size` imply — same
/// parameter count, names, registration order, shapes, and a consistent
/// name table — and that the decode widths are ones a route can allocate.
fn validate_config(
    cfg: &RouterConfig,
    vocab_size: usize,
    loaded: &ParamStore,
) -> Result<(), PersistError> {
    if cfg.beams > MAX_DECODE_WIDTH || cfg.beam_groups > MAX_DECODE_WIDTH {
        return Err(PersistError::Corrupt(format!(
            "config asks for {} beams in {} groups, at most {MAX_DECODE_WIDTH} are supported",
            cfg.beams, cfg.beam_groups
        )));
    }
    let expected = RouterModel::param_shapes(cfg, vocab_size).ok_or_else(|| {
        PersistError::Corrupt(format!("config dim {} + hidden {} overflows", cfg.dim, cfg.hidden))
    })?;
    if loaded.len() != expected.len() {
        return Err(PersistError::Corrupt(format!(
            "parameter count mismatch: file has {}, config implies {}",
            loaded.len(),
            expected.len()
        )));
    }
    for (i, ((ename, eshape), (lname, lvalue))) in
        expected.into_iter().zip(loaded.iter_values()).enumerate()
    {
        if ename != lname {
            return Err(PersistError::Corrupt(format!(
                "parameter {i} is {lname:?}, expected {ename:?}"
            )));
        }
        if eshape != lvalue.shape() {
            return Err(PersistError::Corrupt(format!(
                "parameter {lname:?} has shape {:?}, config implies {eshape:?}",
                lvalue.shape(),
            )));
        }
        if !loaded.id_of(lname).is_some_and(|id| std::ptr::eq(loaded.value(id), lvalue)) {
            return Err(PersistError::Corrupt(format!(
                "parameter name table is inconsistent for {lname:?}"
            )));
        }
    }
    Ok(())
}

/// Rejection-sampling attempts allowed per requested example before
/// [`extend_router`] bails with whatever it has gathered. A new database
/// that is a `1/r` fraction of the graph needs ~`r` attempts per accepted
/// sample, so 64 covers realistic update batches while bounding the
/// pathological case (one tiny database added to a huge graph) to a finite,
/// fast scan instead of a near-forever spin.
const EXTEND_ATTEMPTS_PER_EXAMPLE: usize = 64;
/// Attempt floor so tiny requests still get a fair number of draws.
const EXTEND_MIN_ATTEMPTS: usize = 4096;

fn extend_attempt_budget(target: usize) -> usize {
    target.saturating_mul(EXTEND_ATTEMPTS_PER_EXAMPLE).max(EXTEND_MIN_ATTEMPTS)
}

/// Incrementally extend a trained router with new databases.
///
/// Rebuilds the graph/vocabulary over the grown collection, transplants the
/// existing weights (old pieces keep their embeddings; new pieces are
/// freshly initialized), synthesizes training questions for the *new*
/// schemata only, and fine-tunes for `epochs`.
///
/// Sampling is rejection-based over the whole grown graph and capped: if
/// the new (or old, for replay) databases are so rare that the attempt
/// budget runs out, fine-tuning proceeds with the examples gathered so far
/// rather than spinning indefinitely.
pub fn extend_router(
    router: &DbcRouter,
    grown: &Collection,
    meta: &dbcopilot_synth::CorpusMeta,
    questioner: &Questioner,
    pairs_for_new: usize,
    epochs: usize,
) -> Result<(DbcRouter, TrainStats), PersistError> {
    let new_graph = SchemaGraph::build(grown);
    let new_vocab = PieceVocab::build(&new_graph);
    let mut cfg = router.model.cfg.clone();
    cfg.epochs = epochs;

    let mut model = RouterModel::new(cfg.clone(), new_vocab.len());
    transplant(&router.model, &router.vocab, &mut model, &new_vocab);

    // Synthesize data only for databases absent from the old graph.
    let old_dbs: std::collections::HashSet<String> =
        router.graph.database_nodes().iter().map(|&d| router.graph.name(d).to_string()).collect();
    let new_db_names: Vec<String> =
        grown.databases.keys().filter(|d| !old_dbs.contains(*d)).cloned().collect();
    let mut examples: Vec<TrainExample> = Vec::new();
    {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(cfg.seed.wrapping_add(4242));
        let walk_cfg = dbcopilot_graph::WalkConfig::default();
        let mut attempts = extend_attempt_budget(pairs_for_new);
        while examples.len() < pairs_for_new && !new_db_names.is_empty() && attempts > 0 {
            attempts -= 1;
            let schema = dbcopilot_graph::sample_schema(&new_graph, &walk_cfg, &mut rng);
            if !new_db_names.contains(&schema.database) {
                continue;
            }
            let (entities, attrs) = dbcopilot_synth::schema_tokens(meta, &schema);
            let question = questioner.generate(&entities, &attrs, &mut rng);
            examples.push(TrainExample { question, schema });
        }
        // Replay: fine-tuning only on the new schemata catastrophically
        // forgets the old ones (the incremental-DSI problem the paper's §6
        // alludes to). Interleave an equal share of synthesized examples
        // for the existing databases.
        let replay_target = examples.len();
        let mut replayed = 0;
        let mut attempts = extend_attempt_budget(replay_target);
        while replayed < replay_target && attempts > 0 {
            attempts -= 1;
            let schema = dbcopilot_graph::sample_schema(&new_graph, &walk_cfg, &mut rng);
            if new_db_names.contains(&schema.database) {
                continue;
            }
            let (entities, attrs) = dbcopilot_synth::schema_tokens(meta, &schema);
            let question = questioner.generate(&entities, &attrs, &mut rng);
            examples.push(TrainExample { question, schema });
            replayed += 1;
        }
    }
    let tables = ConstraintTables::build(&new_graph, &new_vocab);
    let stats = if examples.is_empty() {
        TrainStats { epoch_losses: Vec::new(), examples: 0 }
    } else {
        let mode = SerializationMode::Dfs;
        train_with_tables(&mut model, &new_graph, &new_vocab, &tables, &examples, mode)
    };
    Ok((DbcRouter::assemble(model, new_vocab, new_graph, tables), stats))
}

/// Copy weights from the old model into the new one: encoder verbatim,
/// decoder/output embedding rows mapped by piece text.
fn transplant(
    old: &RouterModel,
    old_vocab: &PieceVocab,
    new: &mut RouterModel,
    new_vocab: &PieceVocab,
) {
    // encoder tables share shapes (buckets/hidden unchanged)
    for name in [
        "q_emb.weight",
        "q_proj.w",
        "q_proj.b",
        "gru.wz",
        "gru.uz",
        "gru.bz",
        "gru.wr",
        "gru.ur",
        "gru.br",
        "gru.wh",
        "gru.uh",
        "gru.bh",
    ] {
        if let (Some(o), Some(n)) = (old.store.id_of(name), new.store.id_of(name)) {
            *new.store.value_mut(n) = old.store.value(o).clone();
        }
    }
    // specials + shared pieces of the decoder tables
    for (table, dim_src) in
        [("dec_emb.weight", old.dec_emb.weight), ("out_emb.weight", old.out_emb.weight)]
    {
        let Some(nid) = new.store.id_of(table) else { continue };
        let src = old.store.value(dim_src).clone();
        let cols = src.cols();
        let mut dst: Tensor = new.store.value(nid).clone();
        for sym in 0..crate::vocab::FIRST_PIECE {
            copy_row(&src, sym as usize, &mut dst, sym as usize, cols);
        }
        for new_sym in crate::vocab::FIRST_PIECE..(new_vocab.len() as u32) {
            if let Some(text) = new_vocab.text_of(new_sym) {
                if let Some(old_sym) = old_vocab.id_of(text) {
                    copy_row(&src, old_sym as usize, &mut dst, new_sym as usize, cols);
                }
            }
        }
        *new.store.value_mut(nid) = dst;
    }
}

fn copy_row(src: &Tensor, src_row: usize, dst: &mut Tensor, dst_row: usize, cols: usize) {
    let data = src.row(src_row).to_vec();
    let buf = dst.as_mut_slice();
    buf[dst_row * cols..(dst_row + 1) * cols].copy_from_slice(&data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RouterConfig;
    use crate::train::TrainExample;
    use dbcopilot_graph::QuerySchema;
    use dbcopilot_sqlengine::{DataType, DatabaseSchema, TableSchema};

    fn collection(extra: bool) -> Collection {
        let mut c = Collection::new();
        for (db, tables) in
            [("concert_singer", vec!["singer", "concert"]), ("world", vec!["country", "city"])]
        {
            let mut d = DatabaseSchema::new(db);
            for t in tables {
                d.add_table(TableSchema::new(t).column("id", DataType::Int).primary(0));
            }
            c.add_database(d);
        }
        if extra {
            let mut d = DatabaseSchema::new("library");
            for t in ["book", "author"] {
                d.add_table(TableSchema::new(t).column("id", DataType::Int).primary(0));
            }
            c.add_database(d);
        }
        c
    }

    fn examples() -> Vec<TrainExample> {
        (0..12)
            .flat_map(|_| {
                vec![
                    TrainExample {
                        question: "how many vocalists".into(),
                        schema: QuerySchema::new("concert_singer", vec!["singer".into()]),
                    },
                    TrainExample {
                        question: "population of towns".into(),
                        schema: QuerySchema::new("world", vec!["city".into()]),
                    },
                ]
            })
            .collect()
    }

    fn trained_router() -> DbcRouter {
        let graph = SchemaGraph::build(&collection(false));
        let mut cfg = RouterConfig::tiny();
        cfg.epochs = 15;
        let (router, _) = DbcRouter::fit(graph, &examples(), cfg, SerializationMode::Dfs);
        router
    }

    /// `router`'s bundle with its weight section swapped for `store`.
    fn bundle_with_store(router: &DbcRouter, store: &ParamStore) -> Vec<u8> {
        codec::encode_container(&[
            Section::new(SEC_CONFIG, serde_json::to_vec(&router.model.cfg).unwrap()),
            Section::new(SEC_GRAPH, serde_json::to_vec(&router.graph).unwrap()),
            Section::new(codec::SEC_PARAMS, codec::encode_store_section(store)),
        ])
    }

    #[test]
    fn save_load_roundtrip_preserves_routing_and_bits() {
        let router = trained_router();
        let before = router.best_schema("how many vocalists").unwrap();

        let loaded = load_router_slice(&router_to_vec(&router).unwrap()).unwrap();
        let after = loaded.best_schema("how many vocalists").unwrap();
        assert!(before.same_as(&after), "{before} vs {after}");
        // bit-exact weights, not merely approximately equal
        for ((an, av), (bn, bv)) in
            router.model.store.iter_values().zip(loaded.model.store.iter_values())
        {
            assert_eq!(an, bn);
            for (x, y) in av.as_slice().iter().zip(bv.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{an} drifted");
            }
        }
    }

    #[test]
    fn bundle_bytes_are_reproducible() {
        // Enough names that two hash-ordered maps would almost surely
        // disagree: the `GRPH` section serializes name maps and must not
        // depend on their iteration order.
        let mut c = Collection::new();
        for i in 0..12 {
            let mut d = DatabaseSchema::new(format!("db_{i}"));
            for t in ["alpha", "beta", "gamma"] {
                d.add_table(TableSchema::new(t).column("id", DataType::Int).primary(0));
            }
            c.add_database(d);
        }
        let examples = [TrainExample {
            question: "how many alphas".into(),
            schema: QuerySchema::new("db_3", vec!["alpha".into()]),
        }];
        let bundle = || {
            let mut cfg = RouterConfig::tiny();
            cfg.epochs = 1;
            let (router, _) =
                DbcRouter::fit(SchemaGraph::build(&c), &examples, cfg, SerializationMode::Dfs);
            router_to_vec(&router).unwrap()
        };
        assert!(bundle() == bundle(), "two saves of the same router differ");
    }

    /// Every candidate of `router.route_schemata` for `questions`: database,
    /// tables and the `logp` bits.
    fn candidate_bits(router: &DbcRouter, questions: &[&str]) -> Vec<(String, Vec<String>, u32)> {
        questions
            .iter()
            .flat_map(|q| router.route_schemata(q))
            .map(|d| (d.schema.database, d.schema.tables, d.logp.to_bits()))
            .collect()
    }

    /// A vocabulary's pieces in id order.
    fn pieces(vocab: &PieceVocab) -> Vec<&str> {
        (0..vocab.len() as u32).filter_map(|sym| vocab.text_of(sym)).collect()
    }

    /// The tags of a bundle's sections, in order.
    fn tags(bundle: &[u8]) -> Vec<[u8; 4]> {
        codec::decode_container(bundle).unwrap().iter().map(|s| s.tag).collect()
    }

    #[test]
    fn a_reload_rebuilds_the_saved_vocabulary_piece_for_piece() {
        let mut routers = vec![Arc::new(trained_router())];
        routers.extend(sharded_tier().slots().iter().filter_map(|s| s.router().cloned()));
        let questioner = Questioner::train(
            &[dbcopilot_synth::TrainPair {
                entities: vec!["book".into()],
                attrs: vec![],
                question: "list the volumes".into(),
            }],
            &dbcopilot_synth::QuestionerConfig::default(),
        );
        let meta = dbcopilot_synth::CorpusMeta::default();
        let (extended, _) =
            extend_router(&routers[0], &collection(true), &meta, &questioner, 12, 1).unwrap();
        assert!(extended.vocab.id_of("library").is_some());
        routers.push(Arc::new(extended));
        assert_eq!(routers.len(), 1 + 3 + 1, "a monolith, three non-empty shards, an extend");
        for router in &routers {
            let bundle = router_to_vec(router).unwrap();
            assert_eq!(tags(&bundle), [SEC_CONFIG, SEC_GRAPH, codec::SEC_PARAMS]);
            let loaded = load_router_slice(&bundle).unwrap();
            assert_eq!(pieces(&loaded.vocab), pieces(&router.vocab));
        }
    }

    #[test]
    fn a_router_saved_at_i8_refreezes_to_the_same_routes() {
        use dbcopilot_retrieval::{PrecisionSwitch, RoutePrecision};
        let mut router = trained_router();
        router.set_precision(RoutePrecision::I8);
        let want = candidate_bits(&router, &QUESTIONS);

        let buf = router_to_vec(&router).unwrap();
        assert_eq!(buf.len(), router.size_bytes());
        let mut loaded = load_router_slice(&buf).unwrap();
        assert!(loaded.model.quant.is_none(), "i8 weights are not persisted");
        loaded.set_precision(RoutePrecision::I8);
        let frozen = |r: &DbcRouter| r.model.quant.as_ref().unwrap().store().clone();
        assert_eq!(frozen(&loaded), frozen(&router));
        assert_eq!(candidate_bits(&loaded, &QUESTIONS), want);
    }

    #[test]
    fn garbage_under_the_retired_vocb_and_qnt8_tags_is_never_read() {
        use dbcopilot_retrieval::{PrecisionSwitch, RoutePrecision};
        let router = trained_router();
        let clean = router_to_vec(&router).unwrap();
        let mut sections = codec::decode_container(&clean).unwrap();
        sections.insert(1, Section::new(*b"VOCB", b"{not json".to_vec()));
        sections.push(Section::new(*b"QNT8", vec![0xff; 13]));
        let noisy = codec::encode_container(&sections);
        for precision in [RoutePrecision::F32, RoutePrecision::I8] {
            let [mut a, mut b] = [&clean, &noisy].map(|bytes| load_router_slice(bytes).unwrap());
            a.set_precision(precision);
            b.set_precision(precision);
            assert_eq!(candidate_bits(&b, &QUESTIONS), candidate_bits(&a, &QUESTIONS));
        }
    }

    #[test]
    fn nan_weight_survives_save_load_bit_exactly() {
        let mut router = trained_router();
        let id = router.model.store.id_of("q_proj.b").unwrap();
        let nan = f32::from_bits(0x7fc0_1234);
        router.model.store.value_mut(id).set(0, 0, nan);
        router.model.store.value_mut(id).set(0, 1, f32::NEG_INFINITY);

        let loaded = load_router_slice(&router_to_vec(&router).unwrap()).unwrap();
        let lid = loaded.model.store.id_of("q_proj.b").unwrap();
        assert_eq!(loaded.model.store.value(lid).get(0, 0).to_bits(), nan.to_bits());
        assert_eq!(loaded.model.store.value(lid).get(0, 1), f32::NEG_INFINITY);
    }

    #[test]
    fn truncated_and_corrupted_files_fail_loudly() {
        let buf = router_to_vec(&trained_router()).unwrap();

        // every possible truncation point returns Err — no panic, and no
        // debug-only check (this test runs in release CI too)
        for cut in [0, 3, 7, 64, buf.len() / 2, buf.len() - 1] {
            assert!(load_router_slice(&buf[..cut]).is_err(), "prefix {cut} must fail");
        }
        // wrong magic
        let mut bad = buf.clone();
        bad[..4].copy_from_slice(b"ELF\x7f");
        assert!(matches!(load_router_slice(&bad), Err(PersistError::BadMagic { .. })));
        // wrong version
        let mut bad = buf.clone();
        bad[4..6].copy_from_slice(&9u16.to_le_bytes());
        assert!(matches!(
            load_router_slice(&bad),
            Err(PersistError::UnsupportedVersion { found: 9, supported: 1 })
        ));
        // JSON is not a bundle format: `{`-leading input is a wrong magic
        // for both loaders, not a decode attempt
        let json = br#"{"store": {}, "vocab": {}, "graph": {}, "cfg": {}}"#;
        assert!(matches!(load_router_slice(json), Err(PersistError::BadMagic { .. })));
        assert!(matches!(
            load_sharded_router_bytes(json.to_vec()),
            Err(PersistError::BadMagic { .. })
        ));
    }

    #[test]
    fn renamed_parameter_is_corrupt_not_debug_assert() {
        let router = trained_router();
        let mut store = ParamStore::new();
        for (name, value) in router.model.store.iter_values() {
            store.add(if name == "q_emb.weight" { "q_emb.wrong0" } else { name }, value.clone());
        }
        match load_router_slice(&bundle_with_store(&router, &store)) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("q_emb"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn wrong_shape_is_corrupt() {
        let router = trained_router();
        // craft a binary bundle whose store section holds a mis-shaped tensor
        let mut store = ParamStore::new();
        for (name, value) in router.model.store.iter_values() {
            if name == "q_proj.w" {
                store.add(name, Tensor::zeros(1, 1));
            } else {
                store.add(name, value.clone());
            }
        }
        match load_router_slice(&bundle_with_store(&router, &store)) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("q_proj.w"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// `bundle` with its `RCFG` section rewritten by `edit`.
    fn with_config(bundle: &[u8], edit: impl FnOnce(&mut RouterConfig)) -> Vec<u8> {
        let mut sections = codec::decode_container(bundle).unwrap();
        let section = sections.iter_mut().find(|s| s.tag == SEC_CONFIG).expect("RCFG section");
        let mut cfg: RouterConfig = serde_json::from_slice(&section.bytes).unwrap();
        edit(&mut cfg);
        *section.bytes.to_mut() = serde_json::to_vec(&cfg).unwrap();
        codec::encode_container(&sections)
    }

    #[test]
    fn hostile_config_is_corrupt_not_an_aborting_allocation() {
        let good = router_to_vec(&trained_router()).unwrap();
        // (what the refusal must name, the edit). `RouterModel::new` would
        // allocate and initialise whatever these imply — 256 TB for the
        // first — so none may reach it.
        type Edit = fn(&mut RouterConfig);
        let cases: [(&str, Edit); 7] = [
            ("q_emb.weight", |c| c.buckets = 4_000_000_000_000),
            ("q_proj.w", |c| c.hidden = 900_000),
            // dim × buckets wraps `usize`
            ("q_emb.weight", |c| (c.dim, c.buckets) = (1 << 40, 1 << 40)),
            ("dim 18446744073709551615 + hidden", |c| c.dim = usize::MAX),
            // merely inconsistent with the weights
            ("q_proj.w", |c| c.hidden += 1),
            // size nothing at load, but a vector on every route
            ("4000000000000 beams", |c| c.beams = 4_000_000_000_000),
            ("in 4000000000000 groups", |c| c.beam_groups = 4_000_000_000_000),
        ];
        for (what, edit) in cases {
            let hostile = with_config(&good, edit);
            match load_router_slice(&hostile) {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }

            // The same bytes as the second shard of a `SHRD` bundle, which
            // is what `/admin/publish` takes.
            let msg = second_shard_refusal(&good, &hostile);
            assert!(msg.contains("corrupt file") && msg.contains(what), "{what}: {msg}");
        }
    }

    /// Publish `hostile` as the second shard of a `SHRD` bundle whose first
    /// shard is `good`: the manifest and the framing are sound, so the load
    /// succeeds and the refusal surfaces at that shard's first touch — on a
    /// thread that survives it. Returns the refusal's message.
    fn second_shard_refusal(good: &[u8], hostile: &[u8]) -> String {
        let blob = Arc::new([good, hostile].concat());
        // `shard_of` puts `concert_singer` in shard 0 of 2 and `world` in 1.
        let slot = |name: &str, offset, len| {
            Arc::new(ShardSlot::lazy(vec![name.into()], Arc::clone(&blob), offset, len, vec![0.0]))
        };
        let tier = ShardedRouter::from_parts(
            vec![slot("concert_singer", 0, good.len()), slot("world", good.len(), hostile.len())],
            RouterConfig::tiny(),
            Vec::new(),
        );
        let loaded = load_sharded_router_bytes(sharded_router_to_vec(&tier).unwrap())
            .expect("manifest and shard framing are intact");
        assert!(loaded.shard_router(0).is_some(), "the sound shard decodes");
        let touched = std::thread::scope(|s| s.spawn(|| loaded.shard_router(1)).join());
        let panic = touched.expect_err("the hostile shard must not decode");
        panic.downcast_ref::<String>().expect("a formatted PersistError").clone()
    }

    /// `bundle` with `from` replaced by `to` in its `GRPH` JSON.
    fn with_graph_text(bundle: &[u8], from: &str, to: &str) -> Vec<u8> {
        let mut sections = codec::decode_container(bundle).unwrap();
        let graph = sections.iter_mut().find(|s| s.tag == SEC_GRAPH).expect("GRPH section");
        let json = String::from_utf8(graph.bytes.to_vec()).unwrap();
        assert!(json.contains(from), "{from} is not in {json}");
        *graph.bytes.to_mut() = json.replace(from, to).into_bytes();
        codec::encode_container(&sections)
    }

    #[test]
    fn graph_whose_vocabulary_disagrees_with_the_embeddings_is_corrupt_not_a_panic() {
        use dbcopilot_retrieval::SchemaRouter;
        let good = router_to_vec(&trained_router()).unwrap();
        // The vocabulary rebuilt from the graph has one symbol more (a new
        // piece beside `city`), or one fewer (`city` gone, `world` already
        // held), than `PARM` has embedding rows. The node and its name-map
        // key are renamed alike, so the graph itself is consistent.
        for to in ["city_hall", "world"] {
            let hostile = with_graph_text(&good, "city\"", &format!("{to}\""));
            let what = "parameter \"dec_emb.weight\" has shape";
            match load_router_slice(&hostile) {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains(what), "{to}: {msg}"),
                other => panic!("{to}: expected Corrupt, got {other:?}"),
            }
            let msg = second_shard_refusal(&good, &hostile);
            assert!(msg.contains("corrupt file") && msg.contains(what), "{to}: {msg}");
        }

        // A new piece in the place of the one it replaces, and pieces the
        // vocabulary already holds, renamed in the node and in the
        // `"world\u001fcity"` name-map key alike: the bundle is
        // self-consistent, so it loads and routes within its own graph.
        for to in ["citadel", "world_city"] {
            let renamed = with_graph_text(&good, "city\"", &format!("{to}\""));
            let loaded = load_router_slice(&renamed).expect("a self-consistent rename loads");
            let graph = &loaded.graph;
            assert!(graph.table_node("world", to).is_some());
            assert!(!loaded.route_schemata(QUESTIONS[1]).is_empty(), "{to} routes nothing");
            for q in QUESTIONS {
                for d in loaded.route_schemata(q) {
                    for t in &d.schema.tables {
                        assert!(graph.table_node(&d.schema.database, t).is_some(), "{q}: {t}");
                    }
                }
                for (db, t, _) in loaded.route(q, 10).tables {
                    assert!(graph.table_node(&db, &t).is_some(), "{q}: {db}.{t}");
                }
            }
        }
    }

    #[test]
    fn graph_with_inconsistent_indices_is_corrupt_not_an_index_out_of_range() {
        let good = router_to_vec(&trained_router()).unwrap();
        // (what the refusal must name, `GRPH` text, its hostile replacement)
        let cases = [
            // the root, and what hangs off it
            ("node 0 is not the root", r#""kind":"Root""#, r#""kind":"Database""#),
            ("root edge to node 5, which is not a database", r#"[4,"#, r#"[5,"#),
            // an edge to a node that does not exist
            ("edge 4 -> 60 leaves the 7 nodes", r#"[6,"Inclusion"]"#, r#"[60,"Inclusion"]"#),
            // one adjacency list short
            ("6 adjacency lists for 7 nodes", r#",[],[]],"db_by_name""#, r#",[]],"db_by_name""#),
            // a table owned by a table
            (
                "table node 5 belongs to non-database node 3",
                r#"{"database":4}"#,
                r#"{"database":3}"#,
            ),
            // name maps pointing past the nodes
            ("database \"world\" is node 40", r#"["world",4]"#, r#"["world",40]"#),
            ("is node 50, not a table", r#"country",5]"#, r#"country",50]"#),
            // a node renamed under a name-map key that still says the old name
            (
                r#"table key "world\u{1f}city" indexes node"#,
                r#"{"name":"city""#,
                r#"{"name":"citadel""#,
            ),
        ];
        for (what, from, to) in cases {
            let hostile = with_graph_text(&good, from, to);

            match load_router_slice(&hostile) {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
            let msg = second_shard_refusal(&good, &hostile);
            assert!(msg.contains("corrupt file") && msg.contains(what), "{what}: {msg}");
        }
    }

    // -----------------------------------------------------------------
    // sharded manifests: the persisted calibration background, and counts
    // nobody may allocate by
    // -----------------------------------------------------------------

    const QUESTIONS: [&str; 4] =
        ["how many vocalists", "population of towns", "list the volumes", "who wrote the book"];

    /// Four shards over three databases: calibrated, with an empty shard.
    fn sharded_tier() -> ShardedRouter {
        let mut examples = examples();
        examples.extend((0..12).map(|_| TrainExample {
            question: "list the volumes".into(),
            schema: QuerySchema::new("library", vec!["book".into()]),
        }));
        let mut cfg = RouterConfig::tiny();
        cfg.epochs = 5;
        let (tier, _) =
            ShardedRouter::fit(&collection(true), &examples, cfg, SerializationMode::Dfs, 4);
        assert!(tier.slots().iter().filter(|s| !s.db_names().is_empty()).count() > 1);
        tier
    }

    type RoutingBits = (Vec<(String, String, u32)>, Vec<(String, u32)>);

    fn routing_bits(tier: &ShardedRouter) -> Vec<RoutingBits> {
        use dbcopilot_retrieval::SchemaRouter;
        QUESTIONS
            .iter()
            .map(|q| {
                let r = tier.route(q, 10);
                (
                    r.tables.into_iter().map(|(d, t, s)| (d, t, s.to_bits())).collect(),
                    r.databases.into_iter().map(|(d, s)| (d, s.to_bits())).collect(),
                )
            })
            .collect()
    }

    /// Each shard's background bits; `None` where it has none.
    fn background_bits(tier: &ShardedRouter) -> Vec<Option<Vec<u32>>> {
        tier.slots()
            .iter()
            .map(|slot| {
                let background = slot.background();
                (!background.is_empty()).then(|| background.iter().map(|x| x.to_bits()).collect())
            })
            .collect()
    }

    /// `bundle` with its `SHRD` manifest rewritten by `edit`.
    fn with_manifest(bundle: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut sections = codec::decode_container(bundle).unwrap();
        let manifest = sections.iter_mut().find(|s| s.tag == SEC_SHARDS).expect("SHRD section");
        edit(manifest.bytes.to_mut());
        codec::encode_container(&sections)
    }

    /// Bytes the trailing background field takes in `tier`'s manifest.
    fn background_field_len(tier: &ShardedRouter) -> usize {
        tier.slots().iter().map(|s| 1 + 4 * s.background().len()).sum()
    }

    /// Bytes the probe field before it takes.
    fn probe_field_len(tier: &ShardedRouter) -> usize {
        4 + tier.probes().iter().map(|q| 4 + q.len()).sum::<usize>()
    }

    #[test]
    fn fitted_tier_persists_its_background_and_a_reload_walks_nothing() {
        let fitted = sharded_tier();
        let want_background = background_bits(&fitted);
        for (slot, background) in fitted.slots().iter().zip(&want_background) {
            // Computed by the fit, for exactly the shards that can route.
            assert_eq!(
                background.as_ref().map(Vec::len),
                slot.router().map(|_| slot.db_names().len())
            );
        }
        let want = routing_bits(&fitted);

        let loaded = load_sharded_router_bytes(sharded_router_to_vec(&fitted).unwrap()).unwrap();
        // Pre-filled from the manifest while nothing is decoded yet: there
        // is no router that could have walked a name, and the first route
        // finds the cell full.
        assert_eq!(loaded.loaded_shards(), 0);
        assert_eq!(background_bits(&loaded), want_background);
        assert_eq!(routing_bits(&loaded), want, "scores drifted through the bundle");
    }

    #[test]
    fn manifests_breaking_the_partition_or_calibration_rules_are_corrupt() {
        let fitted = sharded_tier();
        let bundle = sharded_router_to_vec(&fitted).unwrap();
        let (probe_len, background_len) = (probe_field_len(&fitted), background_field_len(&fitted));
        // Where each shard's background flag sits, counted from the end.
        let mut flag_from_end = Vec::new();
        let mut left = background_len;
        for slot in fitted.slots() {
            flag_from_end.push(left);
            left -= 1 + 4 * slot.background().len();
        }
        let full = fitted.slots().iter().position(|s| !s.db_names().is_empty()).unwrap();
        let empty = fitted.slots().iter().position(|s| s.db_names().is_empty()).unwrap();
        let set_flag = |shard: usize, flag: u8| {
            with_manifest(&bundle, |m| {
                let at = m.len() - flag_from_end[shard];
                m[at] = flag;
            })
        };
        // A 1-shard tier's manifest ends in its one, clear, flag.
        let one_shard = sharded_router_to_vec(&ShardedRouter::from_monolith(trained_router()));
        let one_shard = with_manifest(&one_shard.unwrap(), |m| *m.last_mut().unwrap() = 1);
        // Hand-made manifests whose names fail before anything else is read.
        let named = |names: &[&[&str]]| {
            let mut m = u32::try_from(names.len()).unwrap().to_le_bytes().to_vec();
            for shard in names {
                m.extend(u32::try_from(shard.len()).unwrap().to_le_bytes());
                for name in *shard {
                    m.extend(u32::try_from(name.len()).unwrap().to_le_bytes());
                    m.extend(name.as_bytes());
                }
            }
            // Room for the shard count's 20-bytes-per-shard check.
            m.extend([0u8; 40]);
            with_manifest(&bundle, |manifest| *manifest = m)
        };
        assert_eq!((shard_of("concert_singer", 2), shard_of("world", 2)), (0, 1));
        // (what the refusal must name, the bundle)
        let cases: Vec<(String, Vec<u8>)> = vec![
            (
                "\"world\" is listed in shard 0, but belongs to shard 1".into(),
                named(&[&["concert_singer", "world"], &[]]),
            ),
            ("\"world\" is listed twice".into(), named(&[&["world", "world"]])),
            (
                "probe count needs 4 bytes".into(),
                with_manifest(&bundle, |m| m.truncate(m.len() - probe_len - background_len)),
            ),
            (
                "background flag needs 1 bytes".into(),
                with_manifest(&bundle, |m| m.truncate(m.len() - background_len)),
            ),
            (format!("shard {full} background flag is 0, expected 1"), set_flag(full, 0)),
            (format!("shard {empty} background flag is 1, expected 0"), set_flag(empty, 1)),
            ("shard 0 background flag is 1, expected 0".into(), one_shard),
        ];
        // On a default-stack thread, as every pool worker is.
        let verdicts = std::thread::spawn(move || {
            cases
                .into_iter()
                .map(|(what, bytes)| (what, load_sharded_router_bytes(bytes)))
                .collect::<Vec<_>>()
        })
        .join()
        .expect("a hostile manifest must not take the thread down");
        for (what, verdict) in verdicts {
            match verdict {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains(&what), "{what}: {msg}"),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn extend_computes_the_background_of_the_retrained_shard_only() {
        let fitted = sharded_tier();
        let mut grown = collection(true);
        let mut d = DatabaseSchema::new("aquarium");
        for t in ["tank", "fish"] {
            d.add_table(TableSchema::new(t).column("id", DataType::Int).primary(0));
        }
        grown.add_database(d);
        let questioner = Questioner::train(
            &[dbcopilot_synth::TrainPair {
                entities: vec!["fish".into()],
                attrs: vec![],
                question: "how many fish live in the tank".into(),
            }],
            &dbcopilot_synth::QuestionerConfig::default(),
        );
        let meta = dbcopilot_synth::CorpusMeta::default();
        let (extended, retrained) = fitted.extend(&grown, &meta, &questioner, 24, 2).unwrap();
        let owner = fitted.shard_of_db("aquarium");
        assert_eq!(retrained.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![owner]);
        for (s, (old, new)) in fitted.slots().iter().zip(extended.slots()).enumerate() {
            if s == owner {
                // Computed by the extend.
                assert_eq!(new.background().len(), new.db_names().len());
            } else {
                // The very same slot, background and all.
                assert!(Arc::ptr_eq(old, new), "shard {s} was rebuilt");
            }
        }
    }

    #[test]
    fn hostile_manifest_counts_are_corrupt_not_an_aborting_allocation() {
        let fitted = sharded_tier();
        let bundle = sharded_router_to_vec(&fitted).unwrap();
        let max = u32::MAX.to_le_bytes();
        // (what the refusal must name, the bundle)
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("shard count of 4294967295", with_manifest(&bundle, |m| *m = max.to_vec())),
            (
                // one shard; the range bytes are there, the names are not
                "shard database count of 4294967295",
                with_manifest(&bundle, |m| {
                    *m = [&1u32.to_le_bytes()[..], &max, &[0u8; 16]].concat()
                }),
            ),
            (
                // one empty shard, then the probe count
                "probe count of 4294967295",
                with_manifest(&bundle, |m| {
                    *m = [&1u32.to_le_bytes()[..], &0u32.to_le_bytes(), &[0u8; 16], &max].concat()
                }),
            ),
            // a background sized for another name count: one float short, one long
            ("shard background needs", with_manifest(&bundle, |m| m.truncate(m.len() - 4))),
            ("4 trailing bytes", with_manifest(&bundle, |m| m.extend([0u8; 4]))),
        ];
        // On a default-stack thread, as every pool worker is.
        let verdicts = std::thread::spawn(move || {
            cases
                .into_iter()
                .map(|(what, bytes)| (what, load_sharded_router_bytes(bytes)))
                .collect::<Vec<_>>()
        })
        .join()
        .expect("a hostile manifest must not take the thread down");
        for (what, verdict) in verdicts {
            match verdict {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn extend_preserves_old_knowledge_and_reaches_new_dbs() {
        let router = trained_router();

        // grow the collection with `library` and fine-tune on synthesized
        // questions for it only
        let grown = collection(true);
        let meta = dbcopilot_synth::CorpusMeta::default(); // no entity metadata: falls back to identifier splits
        let questioner = Questioner::train(
            &[dbcopilot_synth::TrainPair {
                entities: vec!["book".into()],
                attrs: vec![],
                question: "list the volumes".into(),
            }],
            &dbcopilot_synth::QuestionerConfig::default(),
        );
        let (extended, stats) = extend_router(&router, &grown, &meta, &questioner, 60, 10).unwrap();
        assert!(stats.examples > 0);
        // old knowledge survives transplantation + fine-tuning on new dbs
        let old = extended.best_schema("how many vocalists").unwrap();
        assert_eq!(old.database, "concert_singer", "old routing lost: {old}");
        // the new database is reachable (valid schemata decodable)
        let cands = extended.route_schemata("list the books volumes");
        assert!(
            cands.iter().any(|c| c.schema.database == "library"),
            "library unreachable: {cands:?}"
        );
    }

    #[test]
    fn extend_bails_instead_of_spinning_when_replay_is_unsatisfiable() {
        // The grown collection drops every old database, so the replay loop
        // can never accept a sample — before the attempt cap this spun
        // forever. Now it must return promptly with the examples gathered.
        let router = trained_router();
        let mut grown = Collection::new();
        let mut d = DatabaseSchema::new("library");
        for t in ["book", "author"] {
            d.add_table(TableSchema::new(t).column("id", DataType::Int).primary(0));
        }
        grown.add_database(d);

        let meta = dbcopilot_synth::CorpusMeta::default();
        let questioner = Questioner::train(
            &[dbcopilot_synth::TrainPair {
                entities: vec!["book".into()],
                attrs: vec![],
                question: "list the volumes".into(),
            }],
            &dbcopilot_synth::QuestionerConfig::default(),
        );
        let (extended, stats) = extend_router(&router, &grown, &meta, &questioner, 6, 1).unwrap();
        assert!(stats.examples >= 6, "new-db examples still gathered: {}", stats.examples);
        assert!(extended.graph.database_node("library").is_some());
    }
}
