//! `dbcopilot-core` — the paper's primary contribution: a compact
//! generative-retrieval ("differentiable search index") schema router with
//! graph-constrained diverse beam search.
//!
//! * [`vocab`] — word-piece output vocabulary over schema element names;
//! * [`model`] — the encoder–decoder network ([`model::RouterModel`]);
//! * [`decode`] — Figure 4: dynamic prefix-tree constrained decoding +
//!   diverse beam search, with candidate merging;
//! * [`train`] — Figure 2: random-walk schema sampling + reverse question
//!   generation + teacher-forced training (with the serialization and data
//!   ablations of Table 7);
//! * [`qmodel`] — the frozen i8 twin of the model backing the
//!   `RoutePrecision::I8` scoring path;
//! * [`router`] — the high-level [`router::DbcRouter`] API, implementing the
//!   shared `SchemaRouter` trait used by every method in the evaluation.
//!
//! ```
//! use dbcopilot_core::{DbcRouter, RouterConfig};
//! use dbcopilot_graph::SchemaGraph;
//! use dbcopilot_sqlengine::{Collection, DataType, DatabaseSchema, TableSchema};
//!
//! let mut collection = Collection::new();
//! let mut db = DatabaseSchema::new("concert_singer");
//! db.add_table(TableSchema::new("singer").column("id", DataType::Int).primary(0));
//! collection.add_database(db);
//!
//! // Even an untrained router decodes only valid schemata — the graph
//! // constraint guarantees it ("fit" the real thing with DbcRouter::fit).
//! let router = DbcRouter::untrained(SchemaGraph::build(&collection), RouterConfig::tiny());
//! let candidates = router.route_schemata("how many singers are there");
//! assert!(!candidates.is_empty());
//! assert_eq!(candidates[0].schema.database, "concert_singer");
//! ```

pub mod decode;
pub mod model;
pub mod persist;
pub mod qmodel;
pub mod router;
pub mod shard;
pub mod train;
pub mod vocab;

pub use dbcopilot_retrieval::{PrecisionSwitch, RoutePrecision};

pub use decode::{
    beam_search, merge_candidates, Constrainer, ConstraintTables, DecodeOptions, DecodedSchema,
};
pub use model::{RouterConfig, RouterModel};
pub use persist::{
    extend_router, load_router_slice, load_sharded_router_bytes, router_to_vec,
    sharded_router_to_vec, PersistError,
};
pub use qmodel::QuantRouterModel;
pub use router::DbcRouter;
pub use shard::{shard_of, ShardedRouter};
pub use train::{
    examples_from_instances, synthesize_training_data, train_router, SerializationMode,
    TrainExample, TrainStats,
};
pub use vocab::{PieceVocab, Sym, BOS, EOS, SEP};
