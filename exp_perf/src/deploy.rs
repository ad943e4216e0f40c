//! The fixed deployment every workload runs against, built from source
//! data to a bound socket with each stage timed from outside.
//!
//! Nothing here depends on `--seed`: the driver compares runs made with
//! different seeds, so the seed may move the load but not the program
//! under it. The corpus and both trained tiers are a constant of the
//! benchmark; the seed picks which questions are asked, in which order.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dbcopilot::core::{
    load_sharded_router_bytes, sharded_router_to_vec, DbcRouter, PersistError, PrecisionSwitch,
    RoutePrecision, RouterConfig, SerializationMode, ShardedRouter,
};
use dbcopilot::graph::SchemaGraph;
use dbcopilot::graph::{augment_graph_with_joinable, joinable::DEFAULT_JACCARD_THRESHOLD};
use dbcopilot::http::{Dispatcher, HttpConfig, HttpServer, ServiceApp};
use dbcopilot::nl2sql::LlmConfig;
use dbcopilot::retrieval::{RoutingResult, SchemaRouter};
use dbcopilot::serve::{AskOutcome, AskService, RouterService, ServiceConfig, ServiceStats};
use dbcopilot::sqlengine::{DataType, DatabaseSchema, PreparedDb, TableSchema};
use dbcopilot::synth::{
    build_spider_like, questioner_pairs, Corpus, CorpusSizes, Questioner, QuestionerConfig,
};
use dbcopilot::{AskOptions, DbCopilot};

use crate::names::Metrics;

/// Seed of the corpus generator: part of the deployment, not of the load.
pub const CORPUS_SEED: u64 = 6;
pub const DATABASES: usize = 16;
pub const TRAIN_N: usize = 600;
pub const TEST_N: usize = 8192;
pub const SYNTH_PAIRS: usize = 1000;
pub const EPOCHS: usize = 5;
pub const SHARDS: usize = 4;
/// LRU entries of each serving front.
pub const CACHE_CAPACITY: usize = 512;
/// `top_tables` of the routing front (the `ServiceConfig` default).
pub const TOP_TABLES: usize = 100;
/// Synthetic pairs and epochs `extend` spends on tier B's one new database.
const EXTEND_PAIRS: usize = 48;
const EXTEND_EPOCHS: usize = 2;

pub fn ask_options() -> AskOptions {
    AskOptions::new().top_k(3).repair_attempts(1)
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig::new().cache_capacity(CACHE_CAPACITY)
}

pub type App = ServiceApp<DbCopilot, ShardedRouter>;

/// The standard deployment behind a shared handle, so the benchmark can
/// read the services' public counters while the server owns the app.
struct SharedApp(Arc<App>);

impl Dispatcher for SharedApp {
    fn ask(&self, question: &str) -> Arc<AskOutcome> {
        self.0.ask(question)
    }
    fn route(&self, question: &str) -> Option<Arc<RoutingResult>> {
        Dispatcher::route(&*self.0, question)
    }
    fn stats(&self) -> Vec<(&'static str, ServiceStats)> {
        self.0.stats()
    }
    fn generation(&self) -> u64 {
        self.0.generation()
    }
    fn publish(&self, spec: &serde::Value) -> Result<u64, String> {
        self.0.publish(spec)
    }
}

/// Which of the two bundles a publish installs: A is the fitted 4-shard
/// tier, B is A extended by one database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    A,
    B,
}

impl Tier {
    pub fn name(self) -> &'static str {
        match self {
            Tier::A => "a",
            Tier::B => "b",
        }
    }

    pub fn other(self) -> Tier {
        match self {
            Tier::A => Tier::B,
            Tier::B => Tier::A,
        }
    }
}

pub struct Deployment {
    pub corpus: Corpus,
    pub copilot: Arc<DbCopilot>,
    pub bundle_a: Arc<Vec<u8>>,
    pub bundle_b: Arc<Vec<u8>>,
    pub app: Arc<App>,
    pub server: HttpServer,
}

/// A freshly loaded (lazy) tier from a saved bundle; the loader takes the
/// bytes by value.
fn load_bundle(bytes: &[u8]) -> Result<ShardedRouter, PersistError> {
    load_sharded_router_bytes(bytes.to_vec())
}

impl Deployment {
    /// What a publish of `tier` installs.
    pub fn load_tier(&self, tier: Tier) -> ShardedRouter {
        let bytes = match tier {
            Tier::A => &self.bundle_a,
            Tier::B => &self.bundle_b,
        };
        load_bundle(bytes).expect("own bundle loads")
    }
}

/// Seconds `f` took, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Build the whole deployment, recording each stage's `*_s`/`*_ms` metric
/// into `stages`. Returns the deployment and the wall time of the build.
pub fn build(workers: usize, stages: &mut Metrics) -> (Deployment, f64) {
    let start = Instant::now();
    let (secs, corpus) = timed(|| {
        let sizes = CorpusSizes { num_databases: DATABASES, train_n: TRAIN_N, test_n: TEST_N };
        build_spider_like(&sizes, CORPUS_SEED)
    });
    stages.set("synth.build_corpus_s", secs);

    let (secs, graph) = timed(|| {
        let mut graph = SchemaGraph::build(&corpus.collection);
        augment_graph_with_joinable(&mut graph, &corpus.store, DEFAULT_JACCARD_THRESHOLD);
        graph
    });
    stages.set("graph.build_s", secs);

    let (secs, questioner) =
        timed(|| Questioner::train(&questioner_pairs(&corpus), &QuestionerConfig::default()));
    stages.set("synth.questioner_train_s", secs);

    let (secs, examples) = timed(|| {
        dbcopilot::core::synthesize_training_data(
            &graph,
            &corpus.meta,
            &questioner,
            SYNTH_PAIRS,
            CORPUS_SEED.wrapping_add(31),
        )
    });
    stages.set("core.synthesize_s", secs);

    let cfg = RouterConfig { epochs: EPOCHS, ..RouterConfig::default() };
    let (secs, (mut router, _)) =
        timed(|| DbcRouter::fit(graph, &examples, cfg.clone(), SerializationMode::Dfs));
    stages.set("core.fit_monolith_s", secs);

    let (secs, (fitted, _)) = timed(|| {
        ShardedRouter::fit(&corpus.collection, &examples, cfg, SerializationMode::Dfs, SHARDS)
    });
    stages.set("core.fit_sharded_s", secs);

    let (secs, extended) = timed(|| {
        let mut grown = corpus.collection.clone();
        let mut db = DatabaseSchema::new("telemetry_hub");
        db.add_table(TableSchema::new("sensor").column("id", DataType::Int).primary(0));
        db.add_table(TableSchema::new("reading").column("id", DataType::Int).primary(0));
        grown.add_database(db);
        fitted
            .extend(&grown, &corpus.meta, &questioner, EXTEND_PAIRS, EXTEND_EPOCHS)
            .expect("shard-local extend")
            .0
    });
    stages.set("core.extend_s", secs);

    let (secs, ()) = timed(|| router.set_precision(RoutePrecision::I8));
    stages.set("core.quant_freeze_ms", secs * 1e3);

    let (secs, bundle_a) = timed(|| sharded_router_to_vec(&fitted).expect("save tier A"));
    stages.set("core.bundle_save_ms", secs * 1e3);
    stages.set("core.bundle_bytes", bundle_a.len() as f64);
    let bundle_b = sharded_router_to_vec(&extended).expect("save tier B");
    drop((fitted, extended));

    // The served tier is the one a production process would have: loaded
    // lazily from the saved bundle, then touched once so that serving
    // starts with every shard decoded and calibrated.
    let (secs, tier_a) = timed(|| load_bundle(&bundle_a).expect("load tier A"));
    stages.set("core.bundle_load_ms", secs * 1e3);
    let (secs, _) = timed(|| black_box(tier_a.route(&corpus.test[0].question, TOP_TABLES)));
    stages.set("core.first_touch_ms", secs * 1e3);

    let (secs, ()) = timed(|| {
        for db in corpus.store.databases.values() {
            black_box(PreparedDb::prepare(db));
        }
    });
    stages.set("sqlengine.prepare_all_ms", secs * 1e3);

    let copilot = DbCopilot::from_parts(
        router,
        LlmConfig::default(),
        corpus.collection.clone(),
        corpus.store.clone(),
    )
    .into_shared();
    let (bundle_a, bundle_b) = (Arc::new(bundle_a), Arc::new(bundle_b));
    let (secs, (app, server)) = timed(|| {
        let (a, b) = (Arc::clone(&bundle_a), Arc::clone(&bundle_b));
        let app = ServiceApp::new(
            AskService::new(Arc::clone(&copilot), ask_options(), service_config()),
            RouterService::new(Arc::new(tier_a), service_config()),
        )
        .with_publisher(move |spec| {
            let bytes = match spec.get("tier").and_then(|t| t.as_str()) {
                Some("a") => &a,
                Some("b") => &b,
                _ => return Err("publish body must name tier \"a\" or \"b\"".to_string()),
            };
            load_bundle(bytes).map(Arc::new).map_err(|e| e.to_string())
        });
        let app = Arc::new(app);
        let server = HttpServer::bind(
            "127.0.0.1:0",
            SharedApp(Arc::clone(&app)),
            HttpConfig::new().workers(workers),
        )
        .expect("bind a loopback socket");
        (app, server)
    });
    stages.set("http.bind_ms", secs * 1e3);

    let deployment = Deployment { corpus, copilot, bundle_a, bundle_b, app, server };
    (deployment, start.elapsed().as_secs_f64())
}
