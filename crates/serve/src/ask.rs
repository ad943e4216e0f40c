//! [`AskService`] — end-to-end serving: the cache fronts *answers*, not
//! just routes.
//!
//! `RouterService` accelerates stage 1 of the pipeline; `AskService` puts
//! the whole question→SQL→result path behind the same machinery (LRU
//! cache on normalized question text, dispatcher micro-batching with
//! in-flight dedup, persistent-pool fan-out). Because a pipeline ask is a
//! pure function of the question — the fallback loop, repair prompts and
//! the mock LLM are all seeded — cached and deduplicated answers are
//! bit-identical to direct [`QueryPipeline::ask_with`] calls, errors
//! included: a question that fails deterministically is served its typed
//! [`AskError`](crate::AskError) from the cache instead of re-running the
//! failing pipeline.

use std::sync::Arc;

use crate::pipeline::{AskOptions, AskOutcome, QueryPipeline};
use crate::service::{Backend, Engine, ServiceConfig, ServiceStats};

pub(crate) struct AskBackend<P> {
    pipeline: Arc<P>,
    opts: AskOptions,
}

impl<P: QueryPipeline + 'static> Backend for AskBackend<P> {
    type Out = AskOutcome;

    fn compute(&self, question: &str) -> AskOutcome {
        self.pipeline.ask_with(question, &self.opts)
    }

    fn thread_label() -> &'static str {
        "dbc-ask-dispatch"
    }
}

/// A concurrent serving front over a shared end-to-end pipeline.
///
/// Every ask is served with the same [`AskOptions`] (fixed at
/// construction — cache entries must all mean the same computation).
/// Dropping the service is a graceful shutdown: queued requests are
/// answered, then the dispatcher joins.
pub struct AskService<P: QueryPipeline + 'static> {
    engine: Engine<AskBackend<P>>,
}

impl<P: QueryPipeline + 'static> AskService<P> {
    /// Serve an already-shared pipeline.
    pub fn new(pipeline: Arc<P>, opts: AskOptions, cfg: ServiceConfig) -> Self {
        let backend = AskBackend { pipeline, opts };
        AskService { engine: Engine::new(backend, cfg) }
    }

    /// Take ownership of a pipeline and serve it.
    pub fn from_pipeline(pipeline: P, opts: AskOptions, cfg: ServiceConfig) -> Self {
        Self::new(Arc::new(pipeline), opts, cfg)
    }

    /// The served pipeline.
    pub fn pipeline(&self) -> &Arc<P> {
        &self.engine.backend().pipeline
    }

    /// The options every served ask runs with.
    pub fn options(&self) -> &AskOptions {
        &self.engine.backend().opts
    }

    /// Answer one question end to end: cache fast path, micro-batched
    /// with concurrent misses, computed on the pool, cached (success or
    /// typed failure alike). Blocks until the outcome is available.
    pub fn ask(&self, question: &str) -> Arc<AskOutcome> {
        self.engine.submit(question)
    }

    /// Answer a slice of questions synchronously (no dispatcher, no flush
    /// wait), deduplicated and computed on the pool per 16-question
    /// window. Outcomes come back in question order; the whole call is
    /// deterministic — ideal for evaluation loops.
    pub fn ask_many(&self, questions: &[String]) -> Vec<Arc<AskOutcome>> {
        self.engine.submit_many(questions)
    }

    /// Pre-seed the cache by asking `questions` before traffic arrives.
    pub fn warm(&self, questions: &[String]) {
        let _ = self.ask_many(questions);
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServiceStats {
        self.engine.stats()
    }
}
