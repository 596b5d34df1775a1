//! Probing-based join methods (P+TS and P+RTP) — paper, Section 3.3.
//!
//! A *probe* on a column set `J` keeps only the join predicates on `J`
//! (plus the text selections) and asks the text system whether anything
//! matches. A failed probe proves that **every** tuple agreeing on `J` is a
//! fail-query, so its (possibly many) substituted searches can be skipped.
//!
//! Two schedules are implemented:
//!
//! * **probe-first** — send one probe per distinct `J`-key up front, then
//!   run the completion method on the survivors. This is the schedule the
//!   paper's cost formulas `C_P` / `C_{P+TS}` model.
//! * **lazy** — the paper's pseudocode: substitute first; only when a full
//!   query fails is a probe sent (and cached) to protect the remaining
//!   tuples with the same key. Cheaper when most probes would succeed.
//!
//! Completion is either tuple substitution (P+TS) or relational text
//! processing of the documents the successful probes matched (P+RTP,
//! Example 3.6).

use std::cell::{RefCell, RefMut};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use textjoin_rel::ops::group_by;
use textjoin_text::doc::{DocId, Document};

use super::cache::{ProbeCache, ProbeOutcome};
use super::rel_match::Candidates;
use super::{report, ExecContext, ForeignJoin, MethodError, MethodOutcome, Projection};

/// Probe scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeSchedule {
    /// All probes up front (matches the cost formulas).
    #[default]
    ProbeFirst,
    /// The paper's pseudocode: probe only after a query fails.
    Lazy,
    /// The ordered-relation variant (Section 3.3): tuples grouped by the
    /// probing columns, **no cache needed**, and a probe is sent only when
    /// a failed query's probe key is shared by at least one more
    /// unsubstituted tuple — otherwise the probe could not save anything.
    Ordered,
}

fn validate_probe_cols(fj: &ForeignJoin<'_>, probe_cols: &[usize]) -> Result<(), MethodError> {
    if probe_cols.is_empty() {
        return Err(MethodError::BadProbeColumns(
            "probe column set must be non-empty".into(),
        ));
    }
    let mut seen = BTreeSet::new();
    for &i in probe_cols {
        if i >= fj.k() {
            return Err(MethodError::BadProbeColumns(format!(
                "predicate index {i} out of range (k = {})",
                fj.k()
            )));
        }
        if !seen.insert(i) {
            return Err(MethodError::BadProbeColumns(format!(
                "duplicate predicate index {i}"
            )));
        }
    }
    Ok(())
}

fn method_label(prefix: &str, probe_cols: &[usize], suffix: &str) -> String {
    let cols: Vec<String> = probe_cols.iter().map(|i| (i + 1).to_string()).collect();
    format!("{prefix}{}+{suffix}", cols.join(""))
}

/// The probe cache one method execution works against: the session's
/// shared cache when the context carries one, a fresh per-execution cache
/// otherwise (the paper's default).
///
/// Shared entries are namespaced by the full probe identity — the text
/// selections and the probed fields — so an outcome proved by one query
/// can only ever answer a *byte-identical* probe from another. Cache
/// traffic is counted either way; the counters ride the method's usage
/// delta so `Usage::metrics_snapshot` can report them. Hits served from a
/// session cache additionally emit a charge-free `CacheHit` event (the
/// per-execution path emits nothing, keeping legacy traces byte-stable).
struct Probes<'a> {
    shared: Option<&'a RefCell<ProbeCache>>,
    local: RefCell<ProbeCache>,
    /// The probe identity's namespace in whichever cache is in use,
    /// resolved once: a lookup hashes the key values and nothing else.
    ns: usize,
    start: (u64, u64, u64),
}

impl<'a> Probes<'a> {
    fn new(ctx: &ExecContext<'a>, fj: &ForeignJoin<'_>, probe_cols: &[usize]) -> Self {
        let mut identity = Vec::with_capacity(fj.selections.len() + probe_cols.len());
        for s in &fj.selections {
            identity.push(format!("s:{}@{}", s.term, s.field.0));
        }
        for &i in probe_cols {
            identity.push(format!("f:{}", fj.join_fields[i].0));
        }
        let local = RefCell::new(ProbeCache::new());
        let mut cache = ctx.probe_cache.unwrap_or(&local).borrow_mut();
        let (ns, start) = (cache.namespace(identity), cache.full_stats());
        drop(cache);
        Self {
            shared: ctx.probe_cache,
            local,
            ns,
            start,
        }
    }

    fn cache(&self) -> RefMut<'_, ProbeCache> {
        match self.shared {
            Some(c) => c.borrow_mut(),
            None => self.local.borrow_mut(),
        }
    }

    /// Counting lookup; emits a `CacheHit` event on session-cache hits.
    fn lookup(&self, ctx: &ExecContext<'_>, epoch: u64, key: &[Arc<str>]) -> Option<ProbeOutcome> {
        let out = self.cache().lookup(epoch, self.ns, key);
        if out.is_some() {
            self.emit_hit(ctx, epoch);
        }
        out
    }

    /// Non-counting peek, for phases that can only use one outcome.
    fn peek(&self, epoch: u64, key: &[Arc<str>]) -> Option<ProbeOutcome> {
        self.cache().peek(epoch, self.ns, key)
    }

    /// Books a usable peek as a hit (and emits the session `CacheHit`).
    fn note_hit(&self, ctx: &ExecContext<'_>, epoch: u64) {
        self.cache().note_hit();
        self.emit_hit(ctx, epoch);
    }

    fn note_miss(&self) {
        self.cache().note_miss();
    }

    fn record(&self, epoch: u64, key: &[Arc<str>], outcome: ProbeOutcome) {
        self.cache().record(epoch, self.ns, key, outcome);
    }

    fn emit_hit(&self, ctx: &ExecContext<'_>, epoch: u64) {
        if self.shared.is_some() {
            if let Some(rec) = ctx.recorder() {
                rec.emit(textjoin_obs::EventKind::CacheHit {
                    scope: "probe",
                    epoch,
                });
            }
        }
    }

    /// `(hits, misses, evicted)` accrued during this execution.
    fn delta(&self) -> (u64, u64, u64) {
        let end = self.cache().full_stats();
        (
            end.0 - self.start.0,
            end.1 - self.start.1,
            end.2 - self.start.2,
        )
    }

    /// Folds the execution's cache traffic into the report's usage delta
    /// (free counters — no simulated seconds move).
    fn fold_into(&self, report: &mut super::MethodReport) {
        let (h, m, e) = self.delta();
        report.text.cache_hits += h;
        report.text.cache_misses += m;
        report.text.cache_evicted += e;
    }
}

/// Probing with tuple substitution (P+TS).
pub fn probe_tuple_substitution(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_>,
    probe_cols: &[usize],
    schedule: ProbeSchedule,
) -> Result<MethodOutcome, MethodError> {
    fj.validate()?;
    validate_probe_cols(fj, probe_cols)?;
    match schedule {
        ProbeSchedule::ProbeFirst => probe_first_ts(ctx, fj, probe_cols),
        ProbeSchedule::Lazy => lazy_ts(ctx, fj, probe_cols),
        ProbeSchedule::Ordered => ordered_ts(ctx, fj, probe_cols),
    }
}

fn probe_first_ts(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_>,
    probe_cols: &[usize],
) -> Result<MethodOutcome, MethodError> {
    let before = ctx.server.usage();
    let text_schema = ctx.server.schema();
    let label = method_label("P", probe_cols, "TS");
    let _method_span = ctx.span(&label);
    let mut out = fj.output_table(text_schema, &label);
    let all = fj.all_preds();

    // Phase 1: one probe per distinct key over the probe columns.
    let probe_span = ctx.span("probe-phase");
    let probe_groups = group_by(fj.rel, &cols_of(fj, probe_cols));
    let cache = Probes::new(ctx, fj, probe_cols);
    // Every tuple's probe key goes through this one buffer.
    let mut key = Vec::new();
    for (_, rows) in &probe_groups {
        let t = &fj.rel.rows()[rows[0]];
        if !fj.key_values(t, probe_cols, &mut key) {
            continue; // NULL key: no probe; tuples can never match anyway
        }
        // A key an earlier execution already settled (either way) needs no
        // probe: phase 2 only consumes the recorded outcome. Fresh
        // per-execution caches never hit here — phase-1 keys are distinct.
        let epoch = ctx.server.topology_epoch();
        if cache.peek(epoch, &key).is_some() {
            cache.note_hit(ctx, epoch);
            continue;
        }
        cache.note_miss();
        let expr = fj
            .instantiated_search(t, probe_cols)
            .expect("key_values succeeded");
        // A probe is an optimization, not a correctness requirement: if the
        // server stays down past the retry budget, leave the key
        // unrecorded — outcome unknown, so phase 2 will not prune on it.
        if let Some(ids) = ctx.try_probe(&expr) {
            cache.record(
                ctx.server.topology_epoch(),
                &key,
                if ids.is_empty() {
                    ProbeOutcome::Fail
                } else {
                    ProbeOutcome::Success
                },
            );
        }
    }

    drop(probe_span);

    // Phase 2: tuple substitution for tuples whose probe succeeded. If the
    // probe covered every join predicate, the probe already *was* the full
    // query; re-sending it would be pure waste, so only retrieval remains.
    let _subst_span = ctx.span("substitution");
    let full_query_needed = probe_cols.len() < fj.k();
    let groups = group_by(fj.rel, &fj.join_cols);
    for (_, rows) in groups {
        let t = &fj.rel.rows()[rows[0]];
        if !fj.key_values(t, probe_cols, &mut key) {
            continue;
        }
        // Only a *proven* fail prunes; an unknown outcome substitutes.
        if cache.lookup(ctx, ctx.server.topology_epoch(), &key) == Some(ProbeOutcome::Fail) {
            continue;
        }
        let Some(expr) = fj.instantiated_search(t, &all) else {
            continue;
        };
        // When the probe was total, its success already implies a match,
        // but we still need the result set; one search either way.
        let _ = full_query_needed;
        let result = ctx.search(&expr)?;
        if result.is_empty() {
            continue;
        }
        let docs = fetch_for_projection(ctx, fj, result.docs.ids())?;
        for &ri in &rows {
            fj.emit(&mut out, text_schema, &fj.rel.rows()[ri], &docs);
        }
    }

    let rows = out.len();
    let mut rep = report(label, ctx, &before, 0, rows);
    cache.fold_into(&mut rep);
    Ok(MethodOutcome {
        table: out,
        report: rep,
    })
}

fn lazy_ts(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_>,
    probe_cols: &[usize],
) -> Result<MethodOutcome, MethodError> {
    let before = ctx.server.usage();
    let text_schema = ctx.server.schema();
    let label = format!("{}-lazy", method_label("P", probe_cols, "TS"));
    let _method_span = ctx.span(&label);
    let mut out = fj.output_table(text_schema, &label);
    let all = fj.all_preds();

    let cache = Probes::new(ctx, fj, probe_cols);
    // Group by the *full* key so the distinct-tuple optimization still
    // applies; the probe cache prunes across full-key groups.
    let groups = group_by(fj.rel, &fj.join_cols);
    let mut probe_key = Vec::new();
    for (_, rows) in groups {
        let t = &fj.rel.rows()[rows[0]];
        if !fj.key_values(t, probe_cols, &mut probe_key) {
            continue;
        }
        // Paper's pseudocode: if cache has fail entry for probe of t, exit.
        if cache.lookup(ctx, ctx.server.topology_epoch(), &probe_key) == Some(ProbeOutcome::Fail) {
            continue;
        }
        // Instantiate the query with t (as in tuple substitution).
        let Some(expr) = fj.instantiated_search(t, &all) else {
            continue;
        };
        let result = ctx.search(&expr)?;
        if !result.is_empty() {
            // Query success implies probe success: record without sending.
            cache.record(ctx.server.topology_epoch(), &probe_key, ProbeOutcome::Success);
            let docs = fetch_for_projection(ctx, fj, result.docs.ids())?;
            for &ri in &rows {
                fj.emit(&mut out, text_schema, &fj.rel.rows()[ri], &docs);
            }
            continue;
        }
        // Query failed. If the probe for t is already cached (success —
        // fail was handled above), exit; else send the probe and cache it.
        if cache
            .lookup(ctx, ctx.server.topology_epoch(), &probe_key)
            .is_some()
        {
            continue;
        }
        let probe_expr = fj
            .instantiated_search(t, probe_cols)
            .expect("key_values succeeded");
        // Unknown probe outcome stays uncached: the next tuple with this
        // key substitutes (and may retry the probe) instead of pruning.
        if let Some(ids) = ctx.try_probe(&probe_expr) {
            cache.record(
                ctx.server.topology_epoch(),
                &probe_key,
                if ids.is_empty() {
                    ProbeOutcome::Fail
                } else {
                    ProbeOutcome::Success
                },
            );
        }
    }

    let rows = out.len();
    let mut rep = report(label, ctx, &before, 0, rows);
    cache.fold_into(&mut rep);
    Ok(MethodOutcome {
        table: out,
        report: rep,
    })
}

/// The ordered-relation schedule: the relation is grouped by the probe
/// columns (the paper notes an existing order/grouping makes the cache
/// unnecessary). Within one probe group, full-key subgroups are
/// substituted in turn; when a substitution fails and *further* full-key
/// subgroups remain in the probe group, one probe decides whether to skip
/// them all.
fn ordered_ts(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_>,
    probe_cols: &[usize],
) -> Result<MethodOutcome, MethodError> {
    let before = ctx.server.usage();
    let text_schema = ctx.server.schema();
    let label = format!("{}-ord", method_label("P", probe_cols, "TS"));
    let _method_span = ctx.span(&label);
    let mut out = fj.output_table(text_schema, &label);
    let all = fj.all_preds();

    // Group rows by probe key (grouping is equivalent to the paper's
    // "ordered by the probing columns" — only adjacency matters).
    for (_, probe_rows) in group_by(fj.rel, &cols_of(fj, probe_cols)) {
        // Sub-group by the full join key for the distinct-tuple variant.
        let sub: Vec<Vec<usize>> = {
            let mut groups: Vec<(Vec<Arc<str>>, Vec<usize>)> = Vec::new();
            let mut key = Vec::new();
            for &ri in &probe_rows {
                let t = &fj.rel.rows()[ri];
                if !fj.key_values(t, &all, &mut key) {
                    continue;
                }
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, rows)) => rows.push(ri),
                    None => groups.push((key.clone(), vec![ri])),
                }
            }
            groups.into_iter().map(|(_, rows)| rows).collect()
        };
        let mut probe_known_ok = false;
        let mut i = 0;
        while i < sub.len() {
            let rows = &sub[i];
            let t = &fj.rel.rows()[rows[0]];
            let Some(expr) = fj.instantiated_search(t, &all) else {
                i += 1;
                continue;
            };
            let result = ctx.search(&expr)?;
            if !result.is_empty() {
                probe_known_ok = true;
                let docs = fetch_for_projection(ctx, fj, result.docs.ids())?;
                for &ri in rows {
                    fj.emit(&mut out, text_schema, &fj.rel.rows()[ri], &docs);
                }
            } else if !probe_known_ok && i + 1 < sub.len() {
                // A fail-query, with more full-key subgroups sharing this
                // probe key still ahead: one probe decides their fate.
                let probe_expr = fj
                    .instantiated_search(t, probe_cols)
                    .expect("key_values succeeded");
                match ctx.try_probe(&probe_expr) {
                    Some(ids) if ids.is_empty() => {
                        break; // the whole probe group is fail-queries
                    }
                    // Success — or unknown: without a proven fail the rest
                    // of the group must substitute, and re-probing could
                    // save nothing, so stop probing this group either way.
                    _ => probe_known_ok = true,
                }
            }
            i += 1;
        }
    }

    let rows = out.len();
    Ok(MethodOutcome {
        table: out,
        report: report(label, ctx, &before, 0, rows),
    })
}

/// Probing with relational text processing (P+RTP, Example 3.6): the
/// successful probes' result sets *are* the candidate documents; they are
/// fetched (short or long form as needed) and matched to the surviving
/// tuples relationally.
pub fn probe_rtp(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_>,
    probe_cols: &[usize],
) -> Result<MethodOutcome, MethodError> {
    fj.validate()?;
    validate_probe_cols(fj, probe_cols)?;
    let before = ctx.server.usage();
    let text_schema = ctx.server.schema();
    let label = method_label("P", probe_cols, "RTP");
    let _method_span = ctx.span(&label);
    let mut out = fj.output_table(text_schema, &label);

    // Phase 1: probes; collect matched docids and per-key outcomes.
    let probe_span = ctx.span("probe-phase");
    let probe_groups = group_by(fj.rel, &cols_of(fj, probe_cols));
    let cache = Probes::new(ctx, fj, probe_cols);
    let mut matched: BTreeSet<DocId> = BTreeSet::new();
    let mut key = Vec::new();
    for (_, rows) in &probe_groups {
        let t = &fj.rel.rows()[rows[0]];
        if !fj.key_values(t, probe_cols, &mut key) {
            continue;
        }
        // A session-cached *fail* skips the probe outright: a fail key
        // contributes no candidate docids, so phase 3 loses nothing. A
        // cached success is unusable here — the probe's result set feeds
        // the candidate pool — so the probe is re-sent for its ids.
        let epoch = ctx.server.topology_epoch();
        if cache.peek(epoch, &key) == Some(ProbeOutcome::Fail) {
            cache.note_hit(ctx, epoch);
            continue;
        }
        if cache.peek(epoch, &key).is_none() {
            cache.note_miss();
        }
        let expr = fj
            .instantiated_search(t, probe_cols)
            .expect("key_values succeeded");
        // A key whose probe stays unknown is left unrecorded; phase 3
        // degrades it to per-key tuple substitution instead of pruning.
        if let Some(ids) = ctx.try_probe(&expr) {
            cache.record(
                ctx.server.topology_epoch(),
                &key,
                if ids.is_empty() {
                    ProbeOutcome::Fail
                } else {
                    ProbeOutcome::Success
                },
            );
            matched.extend(ids);
        }
    }
    drop(probe_span);

    // Phase 2: fetch candidate documents. The probes shipped only docids
    // (via `probe`), so the matching data comes from retrievals: long forms
    // when a join field or the projection needs them, else the short forms
    // the probes' result sets carried, rebuilt locally at no extra charge.
    let found = matched.into_iter().map(|id| (id, None));
    let candidates = Candidates::fetch(ctx, fj, "fetch", found)?;

    // Phase 3: relational matching of candidates against surviving tuples.
    // A key whose probe outcome stayed unknown degrades to tuple
    // substitution for just that key: the full query is sent (once per
    // distinct join key) and its results emitted directly.
    let all = fj.all_preds();
    let _match_span = ctx.span("relational-match");
    let mut matcher = candidates.matcher(fj);
    let mut ts_fallback: HashMap<Vec<Arc<str>>, Vec<(DocId, Document)>> = HashMap::new();
    let mut comparisons = 0u64;
    for t in fj.rel.iter() {
        if !fj.key_values(t, probe_cols, &mut key) {
            continue;
        }
        match cache.lookup(ctx, ctx.server.topology_epoch(), &key) {
            Some(ProbeOutcome::Fail) => continue,
            Some(ProbeOutcome::Success) => {
                matcher.emit_matches(fj, text_schema, t, &mut out, &mut comparisons);
            }
            None => {
                let mut full_key = Vec::new();
                if !fj.key_values(t, &all, &mut full_key) {
                    continue;
                }
                let docs = match ts_fallback.entry(full_key) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        let expr = fj
                            .instantiated_search(t, &all)
                            .expect("key_values succeeded");
                        let result = ctx.search(&expr)?;
                        e.insert(fetch_for_projection(ctx, fj, result.docs.ids())?)
                    }
                };
                fj.emit(&mut out, text_schema, t, docs);
            }
        }
    }

    let rows = out.len();
    let mut rep = report(label, ctx, &before, comparisons, rows);
    cache.fold_into(&mut rep);
    Ok(MethodOutcome {
        table: out,
        report: rep,
    })
}

/// The relational `ColId`s of the probe predicate indices.
fn cols_of(fj: &ForeignJoin<'_>, probe_cols: &[usize]) -> Vec<textjoin_rel::schema::ColId> {
    probe_cols.iter().map(|&i| fj.join_cols[i]).collect()
}

/// Fetches the documents a result set refers to, in the form the
/// projection needs.
fn fetch_for_projection(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_>,
    ids: &[DocId],
) -> Result<Vec<(DocId, Document)>, MethodError> {
    match fj.projection {
        Projection::Full => ids.iter().map(|&id| Ok((id, ctx.retrieve(id)?))).collect(),
        _ => Ok(ids.iter().map(|&id| (id, Document::new())).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{corpus, student};
    use super::super::ts::tuple_substitution;
    use super::super::{ForeignJoin, Projection, TextSelection};
    use super::*;
    use textjoin_rel::table::Table;
    use textjoin_rel::tuple;
    use textjoin_rel::value::ValueType;
    use textjoin_text::server::TextServer;

    /// Q4-like join: advisor in author AND name in author.
    fn two_pred_join<'a>(rel: &'a Table, server: &TextServer, projection: Projection) -> ForeignJoin<'a> {
        let ts = server.collection().schema();
        ForeignJoin {
            rel,
            join_cols: vec![rel.col("advisor"), rel.col("name")],
            join_fields: vec![
                ts.field_by_name("author").unwrap(),
                ts.field_by_name("author").unwrap(),
            ],
            selections: vec![],
            projection,
        }
    }

    #[test]
    fn probe_first_prunes_fail_queries() {
        let rel = student(); // advisors: Garcia ×2, Wiederhold ×2
        let server = corpus(); // Wiederhold authored nothing
        let ctx = ExecContext::new(&server);
        let fj = two_pred_join(&rel, &server, Projection::RelOnly);
        // Probe on predicate 0 = advisor.
        let out = probe_tuple_substitution(&ctx, &fj, &[0], ProbeSchedule::ProbeFirst).unwrap();
        // 2 probes (Garcia, Wiederhold) + 2 substitutions (Garcia students).
        assert_eq!(out.report.text.invocations, 4);
        // Only Gravano co-authored with Garcia.
        assert_eq!(out.table.len(), 1);
        assert_eq!(out.report.method, "P1+TS");
    }

    #[test]
    fn lazy_schedule_same_answer_fewer_calls_when_probes_succeed() {
        let rel = student();
        let s1 = corpus();
        let ctx1 = ExecContext::new(&s1);
        let fj1 = two_pred_join(&rel, &s1, Projection::RelOnly);
        let eager = probe_tuple_substitution(&ctx1, &fj1, &[0], ProbeSchedule::ProbeFirst).unwrap();

        let s2 = corpus();
        let ctx2 = ExecContext::new(&s2);
        let fj2 = two_pred_join(&rel, &s2, Projection::RelOnly);
        let lazy = probe_tuple_substitution(&ctx2, &fj2, &[0], ProbeSchedule::Lazy).unwrap();

        let mut a: Vec<String> = eager.table.iter().map(|t| t.to_string()).collect();
        let mut b: Vec<String> = lazy.table.iter().map(|t| t.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "schedules agree on the answer");
        // Lazy: Gravano query (hit, probe implied), Kao query (miss →
        // probe Garcia... already cached success? No: Kao's full query
        // failed, probe key Garcia cached success from Gravano's hit → no
        // probe), Pham query (miss → probe Wiederhold fails), DeSmedt
        // skipped. Total 3 + 1 probe = 4 = same as eager here, but never
        // more.
        assert!(lazy.report.text.invocations <= eager.report.text.invocations + 1);
    }

    #[test]
    fn lazy_skips_after_cached_fail() {
        let rel = student();
        let server = corpus();
        server.set_trace(true);
        let ctx = ExecContext::new(&server);
        let fj = two_pred_join(&rel, &server, Projection::RelOnly);
        probe_tuple_substitution(&ctx, &fj, &[0], ProbeSchedule::Lazy).unwrap();
        let log = server.take_log();
        // DeSmedt's full query must not appear: Wiederhold's probe failed
        // during Pham's turn.
        assert!(
            !log.iter().any(|q| q.contains("desmedt")),
            "fail-cache must prune DeSmedt, log: {log:?}"
        );
    }

    #[test]
    fn ordered_schedule_matches_other_schedules() {
        let rel = student();
        let mut shapes = Vec::new();
        for schedule in [
            ProbeSchedule::ProbeFirst,
            ProbeSchedule::Lazy,
            ProbeSchedule::Ordered,
        ] {
            let server = corpus();
            let ctx = ExecContext::new(&server);
            let fj = two_pred_join(&rel, &server, Projection::RelOnly);
            let out = probe_tuple_substitution(&ctx, &fj, &[0], schedule).unwrap();
            let mut rows: Vec<String> = out.table.iter().map(|t| t.to_string()).collect();
            rows.sort();
            shapes.push((schedule, rows, out.report.text.invocations));
        }
        assert_eq!(shapes[0].1, shapes[1].1);
        assert_eq!(shapes[1].1, shapes[2].1);
    }

    #[test]
    fn ordered_skips_probe_for_singleton_groups() {
        // Every student has a unique (advisor, name) pair, and we probe on
        // name: each probe group has exactly one full-key subgroup, so the
        // ordered schedule must send NO probes at all (a probe could not
        // save any future query).
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let ts_field = server.collection().schema().field_by_name("author").unwrap();
        let fj = ForeignJoin {
            rel: &rel,
            join_cols: vec![rel.col("name"), rel.col("advisor")],
            join_fields: vec![ts_field, ts_field],
            selections: vec![],
            projection: Projection::RelOnly,
        };
        let out = probe_tuple_substitution(&ctx, &fj, &[0], ProbeSchedule::Ordered).unwrap();
        // 4 distinct names → 4 full queries, 0 probes.
        assert_eq!(out.report.text.invocations, 4);
    }

    #[test]
    fn ordered_probe_prunes_shared_key_groups() {
        // Probe on advisor: Wiederhold's group has two students (Pham,
        // DeSmedt). Pham's query fails, the probe on Wiederhold fails, and
        // DeSmedt's query is skipped.
        let rel = student();
        let server = corpus();
        server.set_trace(true);
        let ctx = ExecContext::new(&server);
        let fj = two_pred_join(&rel, &server, Projection::RelOnly);
        probe_tuple_substitution(&ctx, &fj, &[0], ProbeSchedule::Ordered).unwrap();
        let log = server.take_log();
        assert!(
            !log.iter().any(|q| q.contains("desmedt")),
            "ordered schedule must prune DeSmedt: {log:?}"
        );
    }

    #[test]
    fn probe_on_all_columns() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let fj = two_pred_join(&rel, &server, Projection::RelOnly);
        let out = probe_tuple_substitution(&ctx, &fj, &[0, 1], ProbeSchedule::ProbeFirst).unwrap();
        assert_eq!(out.table.len(), 1);
        assert_eq!(out.report.method, "P12+TS");
    }

    #[test]
    fn p_rtp_matches_ts() {
        let rel = student();
        let s1 = corpus();
        let ctx1 = ExecContext::new(&s1);
        let fj1 = two_pred_join(&rel, &s1, Projection::Full);
        let prtp = probe_rtp(&ctx1, &fj1, &[0]).unwrap();
        assert_eq!(prtp.report.method, "P1+RTP");

        let s2 = corpus();
        let ctx2 = ExecContext::new(&s2);
        let fj2 = two_pred_join(&rel, &s2, Projection::Full);
        let ts = tuple_substitution(&ctx2, &fj2, true).unwrap();

        let mut a: Vec<String> = prtp.table.iter().map(|t| t.to_string()).collect();
        let mut b: Vec<String> = ts.table.iter().map(|t| t.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn p_rtp_short_form_path_no_long_retrieval() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let fj = two_pred_join(&rel, &server, Projection::RelOnly);
        let out = probe_rtp(&ctx, &fj, &[0]).unwrap();
        assert_eq!(out.report.text.docs_long, 0);
        assert_eq!(out.table.len(), 1);
        assert!(out.report.rtp_comparisons > 0);
    }

    #[test]
    fn bad_probe_columns_rejected() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let fj = two_pred_join(&rel, &server, Projection::RelOnly);
        assert!(matches!(
            probe_tuple_substitution(&ctx, &fj, &[], ProbeSchedule::ProbeFirst),
            Err(MethodError::BadProbeColumns(_))
        ));
        assert!(matches!(
            probe_tuple_substitution(&ctx, &fj, &[5], ProbeSchedule::ProbeFirst),
            Err(MethodError::BadProbeColumns(_))
        ));
        assert!(matches!(
            probe_rtp(&ctx, &fj, &[0, 0]),
            Err(MethodError::BadProbeColumns(_))
        ));
    }

    #[test]
    fn probe_with_selection_keeps_selection_in_probe() {
        // Q3-like: project.name in title, project.member in author,
        // selection on sponsor is relational (pre-filtered); text selection
        // added here to verify the probe carries it.
        let schema = textjoin_rel::schema::RelSchema::from_columns(vec![
            ("pname", ValueType::Str),
            ("member", ValueType::Str),
        ]);
        let mut rel = Table::new("project", schema);
        rel.push(tuple!["belief", "Pham"]);
        rel.push(tuple!["belief", "DeSmedt"]);
        rel.push(tuple!["nonexistent", "Gravano"]);
        let server = corpus();
        server.set_trace(true);
        let ts = server.collection().schema();
        let fj = ForeignJoin {
            rel: &rel,
            join_cols: vec![rel.col("pname"), rel.col("member")],
            join_fields: vec![
                ts.field_by_name("title").unwrap(),
                ts.field_by_name("author").unwrap(),
            ],
            selections: vec![TextSelection {
                term: "update".into(),
                field: ts.field_by_name("title").unwrap(),
            }],
            projection: Projection::RelOnly,
        };
        let ctx = ExecContext::new(&server);
        let out = probe_tuple_substitution(&ctx, &fj, &[0], ProbeSchedule::ProbeFirst).unwrap();
        // 'belief' probe succeeds (doc2 "belief update" by Pham);
        // 'nonexistent' fails → Gravano's query pruned.
        assert_eq!(out.table.len(), 1);
        let log = server.take_log();
        assert!(log.iter().all(|q| !q.contains("gravano")));
        assert!(log[0].contains("TI='update'"), "probe carries selection: {}", log[0]);
    }
}
