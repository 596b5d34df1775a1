//! `single_join`: the paper's Table 2 as wall time, plus the planner.
//!
//! A plain `TextServer` over a scale-3 world (≈6.4k documents), no
//! recorder. A round runs, for each of Q1–Q4, the whole single-join
//! pipeline — `prepare` → `export_stats` → `statistics_from_export` →
//! `enumerate_methods` / `choose_method` → `execute_single` for every
//! applicable method (TS, RTP, SJ/SJ+RTP, P+TS, P+RTP: 18 cells) — and
//! then a planner block: probe-column search at k = 4, 8, 12 and
//! `plan_query` over chain queries of n = 2…6 relations.
//!
//! `core.methods`, `rel` string matching and `text` share the work here
//! (the traced run reports the split through `TimedService`), and the
//! text calls are thousands of *small* instantiated searches rather than
//! `text_search`'s few large ones: a per-`ForeignJoin` template compile or
//! a transport collapse shows here and not on `text_search`.

use std::rc::Rc;
use std::time::{Duration, Instant};

use rand::seq::SliceRandom;
use rand::Rng;
use textjoin_core::cost::formulas::cost_p_ts;
use textjoin_core::cost::params::{CostParams, JoinStatistics, PredStats};
use textjoin_core::exec::execute_single;
use textjoin_core::methods::probe::ProbeSchedule;
use textjoin_core::methods::{ExecContext, MethodOutcome, Projection};
use textjoin_core::optimizer::multi::{estimate_nodes, plan_query, ExecutionSpace, PlannerInput};
use textjoin_core::optimizer::plan::{ForeignSpec, MultiJoinQuery, RelJoinPred, RelSpec};
use textjoin_core::optimizer::single::{
    choose_method, enumerate_methods, optimal_probe_bounded, optimal_probe_exhaustive,
    MethodCandidate, MethodKind,
};
use textjoin_core::query::{prepare, PreparedQuery, SingleJoinQuery};
use textjoin_obs::{
    FanoutSink, JsonlSink, Monitor, MonitorConfig, NoopSink, Recorder, RingSink, Sink,
};
use textjoin_rel::catalog::Catalog;
use textjoin_rel::expr::{CmpOp, Pred};
use textjoin_rel::join::{hash_join, nested_loop_join};
use textjoin_rel::ops::filter;
use textjoin_rel::schema::RelSchema;
use textjoin_rel::strmatch::{contains_term, like};
use textjoin_rel::table::Table;
use textjoin_rel::tuple;
use textjoin_rel::value::ValueType;
use textjoin_text::doc::{DocId, Document, TextSchema};
use textjoin_text::index::Collection;
use textjoin_text::server::TextServer;
use textjoin_text::service::TextService;
use textjoin_workload::paper;
use textjoin_workload::world::World;

use super::{
    fold, generate, p50, rng, table_checksum, RoundOutcome, Size, Workload, FNV, MS,
    PINNED_WORLD_SEED, US,
};
use crate::metrics::Values;
use crate::oracle;
use crate::span::{total_ns, Span, Tracer, OUTSIDE_ROUNDS, ROUND};
use crate::stats::median;
use crate::timed::TimedService;

/// World scale (multiples of the default world).
const SCALE: usize = 3;

/// Probe-column search sizes.
const PROBE_KS: [usize; 3] = [4, 8, 12];

/// Chain-query relation counts.
const CHAIN_NS: std::ops::RangeInclusive<usize> = 2..=6;

/// Span (and, with `_ms`, metric) name of a method cell.
fn cell_name(kind: MethodKind, q: usize) -> &'static str {
    const NAMES: [[&str; 4]; 5] = [
        [
            "core.methods.ts.q1",
            "core.methods.ts.q2",
            "core.methods.ts.q3",
            "core.methods.ts.q4",
        ],
        [
            "core.methods.rtp.q1",
            "core.methods.rtp.q2",
            "core.methods.rtp.q3",
            "core.methods.rtp.q4",
        ],
        [
            "core.methods.sj.q1",
            "core.methods.sj.q2",
            "core.methods.sj.q3",
            "core.methods.sj.q4",
        ],
        [
            "core.methods.p_ts.q1",
            "core.methods.p_ts.q2",
            "core.methods.p_ts.q3",
            "core.methods.p_ts.q4",
        ],
        [
            "core.methods.p_rtp.q1",
            "core.methods.p_rtp.q2",
            "core.methods.p_rtp.q3",
            "core.methods.p_rtp.q4",
        ],
    ];
    NAMES[kind_index(kind)][q]
}

/// Row of a method in per-method tables.
fn kind_index(kind: MethodKind) -> usize {
    match kind {
        MethodKind::Ts => 0,
        MethodKind::Rtp => 1,
        MethodKind::Sj => 2,
        MethodKind::PTs => 3,
        MethodKind::PRtp => 4,
    }
}

/// The probing methods always probe on predicate 0 — the paper's probe
/// column for Q3 (`project.name`) and Q4 (`student.advisor`) — whatever
/// the optimizer would pick. Its pick flips with the world's statistics
/// (Q4 P+RTP costs 5 ms probing on `name`, 30 ms on `advisor`), and a cell
/// that is P1 on one seed and P2 on the next is two measurements under
/// one name.
fn pin_probe_column(cand: &MethodCandidate) -> MethodCandidate {
    let mut cand = cand.clone();
    if matches!(cand.kind, MethodKind::PTs | MethodKind::PRtp) {
        cand.probe_cols = vec![0];
    }
    cand
}

/// An n-relation chain query over its own small catalog and server: what
/// `plan_query` is timed on.
struct Chain {
    n: usize,
    input: PlannerInput,
}

/// The workload state.
pub struct SingleJoin {
    world: World,
    queries: Vec<SingleJoinQuery>,
    params: CostParams,
    probe_stats: Vec<JoinStatistics>,
    chains: Vec<Chain>,
    /// RTP comparisons of the last round (exact count).
    comparisons: u64,
}

fn stats_with_k(k: usize) -> JoinStatistics {
    JoinStatistics {
        n: 10_000.0,
        n_k: 10_000.0,
        preds: (0..k)
            .map(|i| {
                PredStats::simple(
                    0.05 + 0.07 * i as f64,
                    1.0 + i as f64,
                    10.0 * (i + 1) as f64,
                )
            })
            .collect(),
        sel_fanout: 100_000.0,
        sel_postings: 0.0,
        sel_terms: 0,
        needs_long: false,
        short_form_sufficient: true,
    }
}

fn chain(n: usize, seed: u64) -> Chain {
    let mut rng = rng(seed, 40 + n as u64);
    let schema = TextSchema::bibliographic();
    let au = schema
        .field_by_name("author")
        .expect("bibliographic schema has author");
    let mut coll = Collection::new(schema);
    for i in 0..50 {
        coll.add_document(Document::new().with(au, format!("Author{i}")));
    }
    let server = TextServer::new(coll);
    let mut catalog = Catalog::new();
    let mut relations = Vec::new();
    let mut rel_joins = Vec::new();
    for r in 0..n {
        let rs = RelSchema::from_columns(vec![("name", ValueType::Str), ("key", ValueType::Str)]);
        let mut t = Table::new(format!("r{r}"), rs);
        for _ in 0..40 {
            t.push(tuple![
                format!("Author{}", rng.gen_range(0..50)),
                format!("k{}", rng.gen_range(0..8))
            ]);
        }
        catalog.register(t);
        relations.push(RelSpec {
            name: format!("r{r}"),
            local_pred: Pred::True,
        });
        if r > 0 {
            rel_joins.push(RelJoinPred {
                left_rel: r - 1,
                left_col: "key".into(),
                op: CmpOp::Eq,
                right_rel: r,
                right_col: "key".into(),
            });
        }
    }
    let query = MultiJoinQuery {
        relations,
        rel_joins,
        selections: vec![],
        foreign: vec![ForeignSpec {
            rel: 0,
            column: "name".into(),
            field: "author".into(),
        }],
        projection: Projection::Full,
    };
    let params = CostParams::mercury(server.doc_count() as f64);
    let input = PlannerInput::gather(
        &query,
        &catalog,
        &server.export_stats(),
        server.collection().schema(),
        params,
    )
    .expect("chain query gathers");
    Chain { n, input }
}

impl SingleJoin {
    /// Generates the world, the four paper queries, and the planner inputs.
    pub fn setup(seed: u64, size: Size, t: &Tracer) -> Self {
        let scale = match size {
            Size::Full => SCALE,
            Size::Smoke => 1,
        };
        let world = generate(PINNED_WORLD_SEED, scale, t);
        let mut queries = vec![
            paper::q1(&world),
            paper::q2(&world),
            paper::q3(&world),
            paper::q4(&world),
        ];
        // The four pipelines are independent; the seed picks their order.
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.shuffle(&mut rng(seed, 2));
        queries = order.iter().map(|&i| queries[i].clone()).collect();
        let params = CostParams::mercury(world.server.doc_count() as f64);
        Self {
            world,
            queries,
            params,
            probe_stats: PROBE_KS.iter().map(|&k| stats_with_k(k)).collect(),
            chains: CHAIN_NS.map(|n| chain(n, seed)).collect(),
            comparisons: 0,
        }
    }

    /// Which paper query (0 = Q1) `q` is, whatever the shuffled order.
    fn paper_index(q: &SingleJoinQuery) -> usize {
        match (
            q.relation.as_str(),
            q.selections.first().map(|s| s.0.as_str()),
        ) {
            ("student", Some("belief update")) => 0,
            ("student", Some(_)) => 1,
            ("project", _) => 2,
            _ => 3,
        }
    }

    /// Prepares `q` and costs its candidate methods, under spans.
    fn plan(
        &self,
        q: &SingleJoinQuery,
        server: &dyn TextService,
        t: &Tracer,
    ) -> (PreparedQuery, Vec<MethodCandidate>, Option<MethodCandidate>) {
        let schema = server.schema();
        let p = t
            .time("core.query.prepare", || {
                prepare(q, &self.world.catalog, schema)
            })
            .expect("paper queries prepare");
        let export = server.export_stats();
        let stats = t.time("core.query.statistics", || {
            p.statistics_from_export(&export, schema)
        });
        let cands = t.time("core.optimizer.enumerate_methods", || {
            enumerate_methods(&self.params, &stats, p.projection, false)
        });
        let chosen = t.time("core.optimizer.choose_method", || {
            choose_method(&self.params, &stats, p.projection)
        });
        (p, cands, chosen)
    }

    /// The join half of a round against `server`: every applicable method
    /// on every query. `each` sees every outcome.
    fn grid(
        &self,
        server: &dyn TextService,
        t: &Tracer,
        mut each: impl FnMut(usize, &PreparedQuery, &MethodCandidate, Option<MethodOutcome>),
    ) {
        for q in &self.queries {
            let qi = Self::paper_index(q);
            let (p, cands, chosen) = self.plan(q, server, t);
            debug_assert_eq!(
                chosen.as_ref().map(|c| c.kind),
                cands.first().map(|c| c.kind)
            );
            for cand in &cands {
                let cand = &pin_probe_column(cand);
                let ctx = ExecContext::new(server);
                let out = t
                    .time(cell_name(cand.kind, qi), || {
                        execute_single(&ctx, &p, cand, ProbeSchedule::ProbeFirst)
                    })
                    .ok();
                each(qi, &p, cand, out);
            }
        }
    }

    /// The planner half of a round. Returns `(operations, checksum)`.
    fn planner_block(&self, t: &Tracer) -> (u64, u64) {
        const BOUNDED: [&str; 3] = [
            "core.optimizer.probe_bounded_k4",
            "core.optimizer.probe_bounded_k8",
            "core.optimizer.probe_bounded_k12",
        ];
        const EXHAUSTIVE: [&str; 3] = [
            "core.optimizer.probe_exhaustive_k4",
            "core.optimizer.probe_exhaustive_k8",
            "core.optimizer.probe_exhaustive_k12",
        ];
        const PRL: [&str; 5] = [
            "core.optimizer.plan_prl_n2",
            "core.optimizer.plan_prl_n3",
            "core.optimizer.plan_prl_n4",
            "core.optimizer.plan_prl_n5",
            "core.optimizer.plan_prl_n6",
        ];
        const LEFT_DEEP: [&str; 5] = [
            "core.optimizer.plan_leftdeep_n2",
            "core.optimizer.plan_leftdeep_n3",
            "core.optimizer.plan_leftdeep_n4",
            "core.optimizer.plan_leftdeep_n5",
            "core.optimizer.plan_leftdeep_n6",
        ];
        let (mut ops, mut sum) = (0u64, FNV);
        let p = CostParams::mercury(100_000.0);
        for (i, s) in self.probe_stats.iter().enumerate() {
            let b = t.time(BOUNDED[i], || optimal_probe_bounded(&p, s, cost_p_ts));
            let e = t.time(EXHAUSTIVE[i], || optimal_probe_exhaustive(&p, s, cost_p_ts));
            for cols in [b, e].into_iter().flatten().map(|(cols, _)| cols) {
                sum = cols.iter().fold(sum, |h, &c| fold(h, c as u64));
            }
            ops += 2;
        }
        for (i, c) in self.chains.iter().enumerate() {
            let prl = t.time(PRL[i], || plan_query(&c.input, ExecutionSpace::Prl));
            let ld = t.time(LEFT_DEEP[i], || {
                plan_query(&c.input, ExecutionSpace::LeftDeep)
            });
            ops += 2;
            for planned in [&prl, &ld].into_iter().flatten() {
                sum = fold(sum, planned.est_cost.to_bits());
            }
            if let (Some(planned), true) = (&prl, c.n == *CHAIN_NS.end()) {
                let nodes = t.time("core.optimizer.estimate_nodes", || {
                    estimate_nodes(&c.input, &planned.plan)
                });
                sum = fold(sum, nodes.len() as u64);
                ops += 1;
            }
        }
        (ops, sum)
    }

    fn run(&mut self, t: &Tracer) -> RoundOutcome {
        let timed;
        let server: &dyn TextService = if t.enabled() {
            timed = TimedService::new(&self.world.server, t);
            &timed
        } else {
            &self.world.server
        };
        let mut out = RoundOutcome {
            attempted: 0,
            failed: 0,
            checksum: FNV,
            sim_cost: 0.0,
        };
        let mut comparisons = 0u64;
        self.grid(server, t, |_, _, _, outcome| {
            out.attempted += 1;
            match outcome {
                Some(o) => {
                    out.sim_cost += o.report.total_cost();
                    comparisons += o.report.rtp_comparisons;
                    out.checksum = fold(out.checksum, table_checksum(&o.table));
                }
                None => out.failed += 1,
            }
        });
        self.comparisons = comparisons;
        let (ops, sum) = self.planner_block(t);
        out.attempted += ops;
        out.checksum = fold(out.checksum, sum);
        out
    }

    /// The method grid alone, `reps` times, with `rec` attached to the
    /// server: median wall time of one grid pass, ns.
    fn timed_grid(&self, rec: Option<Rc<Recorder>>, reps: usize) -> f64 {
        let server = &self.world.server;
        server.set_recorder(rec);
        let off = Tracer::off();
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            server.reset_usage();
            let start = Instant::now();
            self.grid(server, &off, |_, _, _, out| {
                std::hint::black_box(out);
            });
            samples.push(start.elapsed().as_nanos() as f64);
        }
        server.set_recorder(None);
        median(&samples)
    }

    /// `obs.overhead_ratio.*`: the method grid with each recorder
    /// attached ÷ the grid with none, interleaved so drift cancels.
    fn overhead_probe(&self, budget: Duration, out: &mut Values) {
        type Variant = (&'static str, fn() -> Rc<Recorder>);
        let variants: [Variant; 4] = [
            ("obs.overhead_ratio.noop", || {
                Recorder::new(Rc::new(NoopSink))
            }),
            ("obs.overhead_ratio.ring", || {
                Recorder::new(Rc::new(RingSink::unbounded()))
            }),
            ("obs.overhead_ratio.jsonl", || {
                Recorder::new(Rc::new(JsonlSink::new()))
            }),
            ("obs.overhead_ratio.jsonl_monitor", || {
                let sinks: Vec<Rc<dyn Sink>> = vec![
                    Rc::new(JsonlSink::new()),
                    Rc::new(Monitor::new(MonitorConfig::new(60.0))),
                ];
                Recorder::new(Rc::new(FanoutSink::new(sinks)))
            }),
        ];
        let deadline = Instant::now() + budget;
        let mut base = Vec::new();
        let mut with: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
        // At least three interleaved passes, then as many as the budget
        // allows.
        while base.len() < 3 || (Instant::now() < deadline && base.len() < 15) {
            base.push(self.timed_grid(None, 1));
            for (samples, (_, make)) in with.iter_mut().zip(&variants) {
                // A fresh recorder per pass: sinks must not grow across
                // passes.
                samples.push(self.timed_grid(Some(make()), 1));
            }
        }
        let base = median(&base);
        for (samples, (name, _)) in with.iter().zip(&variants) {
            out.set(name, median(samples) / base);
        }
    }

    /// `rel.*`: the relational operators on this world's tables. Returns
    /// the string-match calls and the nested-loop pairs one pass makes.
    fn rel_probe(&self, t: &Tracer) -> (f64, f64) {
        let student = self
            .world
            .catalog
            .table("student")
            .expect("world has student");
        let faculty = self
            .world
            .catalog
            .table("faculty")
            .expect("world has faculty");
        let project = self
            .world
            .catalog
            .table("project")
            .expect("world has project");
        let coll = self.world.server.collection();
        let au = coll
            .schema()
            .field_by_name("author")
            .expect("schema has author");
        let names: Vec<&str> = student
            .iter()
            .filter_map(|r| r.get(student.col("name")).as_str())
            .take(64)
            .collect();
        let authors: Vec<&str> = (0..coll.doc_count().min(256))
            .filter_map(|d| coll.document(DocId(d as u32)))
            .flat_map(|d| d.values(au).iter().map(String::as_str))
            .collect();
        for _ in 0..9 {
            t.time("rel.strmatch", || {
                let mut hits = 0u32;
                for a in &authors {
                    for n in &names {
                        hits += u32::from(contains_term(a, n)) + u32::from(like(a, "%an%"));
                    }
                }
                std::hint::black_box(hits)
            });
            let ne = Pred::CmpCols {
                left: student.col("dept"),
                op: CmpOp::Ne,
                right: textjoin_rel::schema::ColId(student.schema().len() + faculty.col("dept").0),
            };
            t.time("rel.nested_loop", || {
                std::hint::black_box(nested_loop_join(student, faculty, &ne))
            });
            t.time("rel.hash_join", || {
                std::hint::black_box(hash_join(
                    project,
                    student,
                    project.col("member"),
                    student.col("name"),
                    &Pred::True,
                ))
            });
            let senior_ai = Pred::and(vec![
                Pred::eq(student.col("area"), "AI"),
                Pred::gt(student.col("year"), 3i64),
            ]);
            t.time("rel.filter", || {
                std::hint::black_box(filter(student, &senior_ai))
            });
        }
        // `contains_term` and `like`, once each per (author value, name).
        (
            (2 * authors.len() * names.len()) as f64,
            (student.len() * faculty.len()) as f64,
        )
    }
}

impl Workload for SingleJoin {
    fn prepare(&mut self) {
        self.world.server.reset_usage();
    }

    fn round(&mut self, t: &Tracer) -> RoundOutcome {
        self.run(t)
    }

    fn verify(&mut self) -> Result<RoundOutcome, String> {
        // Every cell against the brute-force oracle, hence against every
        // other method on the same query.
        let coll = self.world.server.collection();
        let mut expected: Vec<Option<Vec<String>>> = vec![None; 4];
        let mut err: Option<String> = None;
        let mut kinds_seen = [0usize; 5];
        self.world.server.reset_usage();
        self.grid(
            &self.world.server,
            &Tracer::off(),
            |qi, p, cand, outcome| {
                if err.is_some() {
                    return;
                }
                let fj = p.foreign_join();
                let want = expected[qi]
                    .get_or_insert_with(|| oracle::join_shape(&fj, &oracle::join_pairs(&fj, coll)));
                match outcome {
                    None => {
                        err = Some(format!(
                            "single_join: Q{} {} returned Err",
                            qi + 1,
                            cand.label
                        ))
                    }
                    Some(o) => {
                        let got = oracle::method_shape(&fj, &o.table);
                        if &got != want {
                            err = Some(format!(
                                "single_join: Q{} {} produced {} rows, the oracle {}",
                                qi + 1,
                                cand.label,
                                got.len(),
                                want.len()
                            ));
                        }
                        // A method's cost must decompose into server charges
                        // plus c_a × comparisons.
                        let booked = o.report.text.total_cost() + o.report.rtp_cost;
                        if (booked - o.report.total_cost()).abs() > 1e-9 {
                            err = Some(format!(
                                "single_join: Q{} {} cost does not decompose",
                                qi + 1,
                                cand.label
                            ));
                        }
                    }
                }
                kinds_seen[kind_index(cand.kind)] += 1;
            },
        );
        if let Some(e) = err {
            return Err(e);
        }
        if kinds_seen.contains(&0) {
            return Err(format!("single_join: a method never ran: {kinds_seen:?}"));
        }
        if expected.iter().flatten().all(Vec::is_empty) {
            return Err("single_join: every query is empty — the world is broken".into());
        }
        // Theorem 5.3: the bounded probe search finds the exhaustive optimum.
        let p = CostParams::mercury(100_000.0);
        for s in &self.probe_stats {
            let b = optimal_probe_bounded(&p, s, cost_p_ts).map(|(c, _)| c);
            let e = optimal_probe_exhaustive(&p, s, cost_p_ts).map(|(c, _)| c);
            if b != e {
                return Err(format!(
                    "single_join: bounded probe set {b:?} != exhaustive {e:?}"
                ));
            }
        }
        // PrL subsumes left-deep, so it can never plan worse.
        for c in &self.chains {
            let prl = plan_query(&c.input, ExecutionSpace::Prl).map(|p| p.est_cost);
            let ld = plan_query(&c.input, ExecutionSpace::LeftDeep).map(|p| p.est_cost);
            match (prl, ld) {
                (Some(a), Some(b)) if a <= b + 1e-9 => {}
                other => return Err(format!("single_join: chain n={} plans {other:?}", c.n)),
            }
        }
        self.prepare();
        Ok(self.run(&Tracer::off()))
    }

    fn layer_metrics(&mut self, t: &Tracer, spans: &[Span], budget: Duration, out: &mut Values) {
        let rounds = spans.iter().filter(|s| s.name == ROUND).count().max(1) as f64;
        let in_rounds: Vec<Span> = spans
            .iter()
            .filter(|s| s.round != OUTSIDE_ROUNDS)
            .cloned()
            .collect();
        for m in crate::metrics::PER_LAYER {
            if let Some(span) = m
                .name
                .strip_suffix("_ms")
                .filter(|n| n.starts_with("core.methods."))
            {
                out.set(m.name, p50(spans, span, MS));
            }
        }
        let cells_ns = total_ns(&in_rounds, "core.methods.") as f64;
        if cells_ns > 0.0 {
            out.set(
                "core.methods.text_share",
                total_ns(&in_rounds, "text.") as f64 / cells_ns,
            );
        }
        out.set("core.methods.comparisons", self.comparisons as f64);
        let usage = self.world.server.usage();
        out.set("text.postings_processed", usage.postings_processed as f64);
        let calls = in_rounds
            .iter()
            .filter(|s| s.name.starts_with("text."))
            .count();
        out.set("text.calls", calls as f64 / rounds);
        let text_s = total_ns(&in_rounds, "text.") as f64 / 1e9;
        if text_s > 0.0 {
            out.set(
                "text.postings_per_s",
                usage.postings_processed as f64 * rounds / text_s,
            );
        }
        for (metric, span) in [
            (
                "core.optimizer.choose_method_us",
                "core.optimizer.choose_method",
            ),
            (
                "core.optimizer.probe_bounded_k12_us",
                "core.optimizer.probe_bounded_k12",
            ),
            (
                "core.optimizer.probe_exhaustive_k12_us",
                "core.optimizer.probe_exhaustive_k12",
            ),
            (
                "core.optimizer.plan_prl_n3_us",
                "core.optimizer.plan_prl_n3",
            ),
            (
                "core.optimizer.plan_prl_n6_us",
                "core.optimizer.plan_prl_n6",
            ),
            (
                "core.optimizer.plan_leftdeep_n6_us",
                "core.optimizer.plan_leftdeep_n6",
            ),
            (
                "core.optimizer.estimate_nodes_us",
                "core.optimizer.estimate_nodes",
            ),
        ] {
            out.set(metric, p50(spans, span, US));
        }

        t.set_round(OUTSIDE_ROUNDS);
        let (strmatch_calls, pairs) = self.rel_probe(t);
        let probes = t.spans();
        out.set(
            "rel.strmatch_ns",
            p50(&probes, "rel.strmatch", 1.0) / strmatch_calls,
        );
        let nl_s = p50(&probes, "rel.nested_loop", 1e9);
        if nl_s > 0.0 {
            out.set("rel.nested_loop_pairs_per_s", pairs / nl_s);
        }
        out.set("rel.hash_join_ms", p50(&probes, "rel.hash_join", MS));
        out.set("rel.filter_ms", p50(&probes, "rel.filter", MS));

        self.overhead_probe(budget, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_world_runs_all_eighteen_cells_and_verifies() {
        let mut w = SingleJoin::setup(42, Size::Smoke, &Tracer::off());
        let reference = w.verify().expect("verifies");
        // 18 join cells + 17 planner calls.
        assert_eq!(reference.attempted, 18 + 17);
        assert_eq!(reference.failed, 0);
        w.prepare();
        let again = w.round(&Tracer::off());
        assert!(again.repeats(&reference), "{again:?} vs {reference:?}");
    }

    #[test]
    fn traced_round_repeats_the_untraced_one() {
        let mut w = SingleJoin::setup(42, Size::Smoke, &Tracer::off());
        w.prepare();
        let plain = w.round(&Tracer::off());
        w.prepare();
        let t = Tracer::on();
        let traced = w.round(&t);
        assert!(traced.repeats(&plain));
        let spans = t.spans();
        assert!(spans.iter().any(|s| s.name == "text.search"));
        assert!(spans.iter().any(|s| s.name == "core.methods.p_rtp.q4"));
    }

    #[test]
    fn every_cell_metric_has_a_span_name() {
        for q in 0..4 {
            for kind in [
                MethodKind::Ts,
                MethodKind::Rtp,
                MethodKind::Sj,
                MethodKind::PTs,
                MethodKind::PRtp,
            ] {
                let metric = format!("{}_ms", cell_name(kind, q));
                let listed = crate::metrics::PER_LAYER.iter().any(|m| m.name == metric);
                // RTP needs a text selection; Q3 and Q4 have none.
                assert_eq!(listed, !(kind == MethodKind::Rtp && q >= 2), "{metric}");
            }
        }
    }
}
