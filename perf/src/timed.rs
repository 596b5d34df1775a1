//! `TimedService`: spans around the calls the library makes into the text
//! service.
//!
//! `ExecContext::new` and `MultiExecutor::new` take a `&dyn TextService`,
//! so the harness can hand them this wrapper and see, from outside, how
//! much of a join method's wall time is spent inside the text layer. The
//! wrapper is passive: every method delegates, nothing is cached, and the
//! inner service's ledger is the only ledger (`tests` below pin results and
//! every `Usage` field with and without it).
//!
//! A sharded inner service is still reachable through `as_sharded`; the
//! per-shard legs the executor drives through that downcast go straight to
//! the inner server and are *not* spanned here.

use std::rc::Rc;

use textjoin_text::batch::BatchResult;
use textjoin_text::doc::{DocId, Document, ShortDoc, TextSchema};
use textjoin_text::expr::SearchExpr;
use textjoin_text::server::{CostConstants, PartialRetrieveError, SearchResult, TextError, Usage};
use textjoin_text::service::TextService;
use textjoin_text::shard::ShardedTextServer;
use textjoin_text::stats::VocabularyStats;

use crate::span::Tracer;

/// Span names for one backend flavour.
struct Names {
    search: &'static str,
    search_str: &'static str,
    probe: &'static str,
    retrieve: &'static str,
    retrieve_all: &'static str,
    search_batch: &'static str,
    export_stats: &'static str,
    reconstruct_short: &'static str,
}

const SINGLE: Names = Names {
    search: "text.search",
    search_str: "text.search_str",
    probe: "text.probe",
    retrieve: "text.retrieve",
    retrieve_all: "text.retrieve_all",
    search_batch: "text.search_batch",
    export_stats: "text.export_stats",
    reconstruct_short: "text.reconstruct_short",
};

const SHARDED: Names = Names {
    search: "text.shard.search",
    search_str: "text.shard.search_str",
    probe: "text.shard.probe",
    retrieve: "text.shard.retrieve",
    retrieve_all: "text.shard.retrieve_all",
    search_batch: "text.shard.search_batch",
    export_stats: "text.shard.export_stats",
    reconstruct_short: "text.shard.reconstruct_short",
};

/// A [`TextService`] that records a span around every metered operation
/// of the service it wraps.
pub struct TimedService<'a> {
    inner: &'a dyn TextService,
    tracer: &'a Tracer,
    names: &'static Names,
}

impl<'a> TimedService<'a> {
    /// Wraps `inner`; spans are named `text.shard.*` when it is sharded
    /// and `text.*` otherwise.
    pub fn new(inner: &'a dyn TextService, tracer: &'a Tracer) -> Self {
        let names = if inner.as_sharded().is_some() {
            &SHARDED
        } else {
            &SINGLE
        };
        Self {
            inner,
            tracer,
            names,
        }
    }
}

impl TextService for TimedService<'_> {
    fn schema(&self) -> &TextSchema {
        self.inner.schema()
    }

    fn doc_count(&self) -> usize {
        self.inner.doc_count()
    }

    fn max_terms(&self) -> usize {
        self.inner.max_terms()
    }

    fn constants(&self) -> CostConstants {
        self.inner.constants()
    }

    fn usage(&self) -> Usage {
        self.inner.usage()
    }

    fn reset_usage(&self) {
        self.inner.reset_usage()
    }

    fn charge_backoff(&self, seconds: f64) {
        self.inner.charge_backoff(seconds)
    }

    fn search(&self, expr: &SearchExpr) -> Result<SearchResult, TextError> {
        self.tracer
            .time(self.names.search, || self.inner.search(expr))
    }

    fn search_str(&self, query: &str) -> Result<SearchResult, TextError> {
        self.tracer
            .time(self.names.search_str, || self.inner.search_str(query))
    }

    fn probe(&self, expr: &SearchExpr) -> Result<Vec<DocId>, TextError> {
        self.tracer
            .time(self.names.probe, || self.inner.probe(expr))
    }

    fn retrieve(&self, id: DocId) -> Result<Document, TextError> {
        self.tracer
            .time(self.names.retrieve, || self.inner.retrieve(id))
    }

    fn retrieve_all(&self, ids: &[DocId]) -> Result<Vec<Document>, Box<PartialRetrieveError>> {
        self.tracer
            .time(self.names.retrieve_all, || self.inner.retrieve_all(ids))
    }

    fn search_batch(&self, exprs: &[SearchExpr]) -> Result<BatchResult, TextError> {
        self.tracer
            .time(self.names.search_batch, || self.inner.search_batch(exprs))
    }

    fn export_stats(&self) -> VocabularyStats {
        self.tracer
            .time(self.names.export_stats, || self.inner.export_stats())
    }

    fn reconstruct_short(&self, id: DocId) -> Option<ShortDoc> {
        self.tracer.time(self.names.reconstruct_short, || {
            self.inner.reconstruct_short(id)
        })
    }

    fn as_sharded(&self) -> Option<&ShardedTextServer> {
        self.inner.as_sharded()
    }

    fn recorder(&self) -> Option<Rc<textjoin_obs::Recorder>> {
        self.inner.recorder()
    }

    fn topology_epoch(&self) -> u64 {
        self.inner.topology_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_core::cost::params::CostParams;
    use textjoin_core::exec::{canonical_rows, execute_single};
    use textjoin_core::methods::probe::ProbeSchedule;
    use textjoin_core::methods::ExecContext;
    use textjoin_core::optimizer::single::enumerate_methods;
    use textjoin_core::query::prepare;
    use textjoin_workload::paper;
    use textjoin_workload::world::{World, WorldSpec};

    fn world() -> World {
        World::generate(WorldSpec {
            background_docs: 300,
            students: 80,
            projects: 20,
            ..WorldSpec::default()
        })
    }

    /// Runs every applicable method of Q1–Q4 against `server`, returning
    /// `(label, rows, method usage delta)` per cell and the final ledger.
    fn grid(w: &World, server: &dyn TextService) -> (Vec<(String, Vec<String>, Usage)>, Usage) {
        server.reset_usage();
        let params = CostParams::mercury(server.doc_count() as f64);
        let mut cells = Vec::new();
        for q in [paper::q1(w), paper::q2(w), paper::q3(w), paper::q4(w)] {
            let p = prepare(&q, &w.catalog, server.schema()).unwrap();
            let stats = p.statistics_from_export(&server.export_stats(), server.schema());
            for cand in enumerate_methods(&params, &stats, p.projection, false) {
                let ctx = ExecContext::new(server);
                let out = execute_single(&ctx, &p, &cand, ProbeSchedule::ProbeFirst).unwrap();
                cells.push((
                    cand.label.clone(),
                    canonical_rows(&out.table),
                    out.report.text,
                ));
            }
        }
        (cells, server.usage())
    }

    fn assert_passive(w: &World, server: &dyn TextService) {
        let (plain_cells, plain_usage) = grid(w, server);
        let tracer = Tracer::on();
        let timed = TimedService::new(server, &tracer);
        let (timed_cells, timed_usage) = grid(w, &timed);
        // `Usage` is `PartialEq` over every field, floats included.
        assert_eq!(plain_usage, timed_usage);
        assert_eq!(plain_cells, timed_cells);
        assert!(plain_usage.invocations > 0);
        assert!(!tracer.spans().is_empty(), "the wrapper saw the calls");
        // All five methods were exercised.
        let kinds: Vec<&str> = plain_cells.iter().map(|c| c.0.as_str()).collect();
        for label in ["TS", "RTP", "SJ+RTP", "P1+TS", "P1+RTP"] {
            assert!(kinds.contains(&label), "{label} missing from {kinds:?}");
        }
    }

    #[test]
    fn passive_over_a_single_server() {
        let w = world();
        assert_passive(&w, &w.server);
    }

    #[test]
    fn passive_over_a_sharded_server() {
        let w = world();
        let sharded = ShardedTextServer::replicated(w.server.collection(), 3, 2, 0x5AD);
        assert_passive(&w, &sharded);
        let tracer = Tracer::on();
        let timed = TimedService::new(&sharded, &tracer);
        assert!(timed.as_sharded().is_some(), "the downcast is delegated");
        assert_eq!(timed.topology_epoch(), sharded.topology_epoch());
        timed.export_stats();
        assert_eq!(tracer.spans()[0].name, "text.shard.export_stats");
    }
}
