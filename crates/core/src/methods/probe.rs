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
//! Example 3.6). Every cached schedule sends its probes through one step,
//! `Probes::send`.

use std::cell::{RefCell, RefMut};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use textjoin_rel::ops::group_by;
use textjoin_rel::table::{Rows, Table};
use textjoin_text::doc::{DocId, Document};
use textjoin_text::server::Usage;

use super::cache::{ProbeCache, ProbeOutcome};
use super::rel_match::Candidates;
use super::{fetch_for_projection, report, ExecContext, ForeignJoin, MethodError, MethodOutcome};

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

fn validate_probe_cols<R: Rows>(
    fj: &ForeignJoin<'_, R>,
    probe_cols: &[usize],
) -> Result<(), MethodError> {
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
    fn new<R>(ctx: &ExecContext<'a>, fj: &ForeignJoin<'_, R>, probe_cols: &[usize]) -> Self {
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

    /// The probe step: sends the probe for `key` (values `key_values`
    /// accepted over `probe_cols`) and records its outcome. A probe is an
    /// optimization, not a correctness requirement: when the server stays
    /// down past the retry budget the outcome is unknown, so the key stays
    /// unrecorded and nothing prunes on it. Returns the matched ids, `None`
    /// when unknown.
    fn send<R: Rows>(
        &self,
        ctx: &ExecContext<'_>,
        fj: &ForeignJoin<'_, R>,
        probe_cols: &[usize],
        key: &[Arc<str>],
    ) -> Option<Vec<DocId>> {
        let ids = ctx.try_probe(&fj.search_for(probe_cols, key))?;
        let outcome = if ids.is_empty() {
            ProbeOutcome::Fail
        } else {
            ProbeOutcome::Success
        };
        self.record(ctx.server.topology_epoch(), key, outcome);
        Some(ids)
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

    /// The execution's outcome: `out`, reported over everything since
    /// `before`, with the cache traffic (hits, misses, evictions) accrued
    /// during the execution folded into the usage delta — free counters,
    /// no simulated seconds move.
    fn finish(
        &self,
        label: String,
        ctx: &ExecContext<'_>,
        before: &Usage,
        comparisons: u64,
        out: Table,
    ) -> MethodOutcome {
        let mut report = report(label, ctx, before, comparisons, out.len());
        let end = self.cache().full_stats();
        report.text.cache_hits += end.0 - self.start.0;
        report.text.cache_misses += end.1 - self.start.1;
        report.text.cache_evicted += end.2 - self.start.2;
        MethodOutcome { table: out, report }
    }
}

/// Probing with tuple substitution (P+TS).
pub fn probe_tuple_substitution<R: Rows>(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_, R>,
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

fn probe_first_ts<R: Rows>(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_, R>,
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
    let cache = Probes::new(ctx, fj, probe_cols);
    // Every tuple's probe key goes through this one buffer.
    let mut key = Vec::new();
    for (_, rows) in group_by(fj.rel, &cols_of(fj, probe_cols)) {
        let t = rows[0];
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
        cache.send(ctx, fj, probe_cols, &key);
    }
    drop(probe_span);

    // Phase 2: tuple substitution for the tuples no probe proved to fail.
    let _subst_span = ctx.span("substitution");
    for (_, rows) in group_by(fj.rel, &fj.join_cols) {
        let t = rows[0];
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
        let result = ctx.search(&expr)?;
        if result.is_empty() {
            continue;
        }
        let docs = fetch_for_projection(ctx, fj, result.docs.ids())?;
        for &ri in &rows {
            fj.emit(&mut out, text_schema, ri, &docs);
        }
    }
    Ok(cache.finish(label, ctx, &before, 0, out))
}

fn lazy_ts<R: Rows>(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_, R>,
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
    let mut probe_key = Vec::new();
    for (_, rows) in group_by(fj.rel, &fj.join_cols) {
        let t = rows[0];
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
                fj.emit(&mut out, text_schema, ri, &docs);
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
        // Unknown probe outcome stays uncached: the next tuple with this
        // key substitutes (and may retry the probe) instead of pruning.
        cache.send(ctx, fj, probe_cols, &probe_key);
    }
    Ok(cache.finish(label, ctx, &before, 0, out))
}

/// The ordered-relation schedule: the relation is grouped by the probe
/// columns (the paper notes an existing order/grouping makes the cache
/// unnecessary). Within one probe group, full-key subgroups are
/// substituted in turn; when a substitution fails and *further* full-key
/// subgroups remain in the probe group, one probe decides whether to skip
/// them all.
fn ordered_ts<R: Rows>(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_, R>,
    probe_cols: &[usize],
) -> Result<MethodOutcome, MethodError> {
    let before = ctx.server.usage();
    let text_schema = ctx.server.schema();
    let label = format!("{}-ord", method_label("P", probe_cols, "TS"));
    let _method_span = ctx.span(&label);
    let mut out = fj.output_table(text_schema, &label);
    let all = fj.all_preds();

    // Group rows by probe key (grouping is equivalent to the paper's
    // "ordered by the probing columns" — only adjacency matters). A group
    // shares one probe key, so a NULL one voids the whole group.
    let (mut probe_key, mut key) = (Vec::new(), Vec::new());
    for (_, probe_rows) in group_by(fj.rel, &cols_of(fj, probe_cols)) {
        if !fj.key_values(probe_rows[0], probe_cols, &mut probe_key) {
            continue;
        }
        // Sub-group by the full join key for the distinct-tuple variant.
        let mut sub: Vec<(Vec<Arc<str>>, Vec<usize>)> = Vec::new();
        for &ri in &probe_rows {
            if !fj.key_values(ri, &all, &mut key) {
                continue;
            }
            match sub.iter_mut().find(|(k, _)| *k == key) {
                Some((_, rows)) => rows.push(ri),
                None => sub.push((key.clone(), vec![ri])),
            }
        }
        let mut probe_known_ok = false;
        for (i, (full_key, rows)) in sub.iter().enumerate() {
            let result = ctx.search(&fj.search_for(&all, full_key))?;
            if !result.is_empty() {
                probe_known_ok = true;
                let docs = fetch_for_projection(ctx, fj, result.docs.ids())?;
                for &ri in rows {
                    fj.emit(&mut out, text_schema, ri, &docs);
                }
            } else if !probe_known_ok && i + 1 < sub.len() {
                // A fail-query, with more full-key subgroups sharing this
                // probe key still ahead: one probe decides their fate.
                match ctx.try_probe(&fj.search_for(probe_cols, &probe_key)) {
                    Some(ids) if ids.is_empty() => {
                        break; // the whole probe group is fail-queries
                    }
                    // Success — or unknown: without a proven fail the rest
                    // of the group must substitute, and re-probing could
                    // save nothing, so stop probing this group either way.
                    _ => probe_known_ok = true,
                }
            }
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
pub fn probe_rtp<R: Rows>(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_, R>,
    probe_cols: &[usize],
) -> Result<MethodOutcome, MethodError> {
    fj.validate()?;
    validate_probe_cols(fj, probe_cols)?;
    let before = ctx.server.usage();
    let text_schema = ctx.server.schema();
    let label = method_label("P", probe_cols, "RTP");
    let _method_span = ctx.span(&label);
    let mut out = fj.output_table(text_schema, &label);

    // Phase 1: one probe per distinct probe key; the union of the matched
    // docids is the candidate set. Each group keeps its key (`None` when
    // NULL or empty) for phase 3.
    let probe_span = ctx.span("probe-phase");
    let probes = Probes::new(ctx, fj, probe_cols);
    let mut matched = BTreeSet::new();
    let mut groups = Vec::new();
    for (_, rows) in group_by(fj.rel, &cols_of(fj, probe_cols)) {
        let mut key = Vec::new();
        let usable = fj.key_values(rows[0], probe_cols, &mut key);
        groups.push((usable.then_some(key), rows));
        let Some((Some(key), _)) = groups.last() else {
            continue;
        };
        // A session-cached *fail* skips the probe outright: a fail key
        // contributes no candidate docids, so matching loses nothing. A
        // cached success is unusable here — the probe's result set feeds
        // the candidate pool — so the probe is re-sent for its ids.
        let epoch = ctx.server.topology_epoch();
        match probes.peek(epoch, key) {
            Some(ProbeOutcome::Fail) => {
                probes.note_hit(ctx, epoch);
                continue;
            }
            Some(ProbeOutcome::Success) => {}
            None => probes.note_miss(),
        }
        // A key whose probe stays unknown is left unrecorded; phase 3
        // degrades it to per-key tuple substitution.
        if let Some(ids) = probes.send(ctx, fj, probe_cols, key) {
            matched.extend(ids);
        }
    }
    drop(probe_span);

    // Phase 2: fetch and match. The probes shipped only docids (via
    // `probe`), so the matching data comes from retrievals: long forms
    // when a join field or the projection needs them, else the short forms
    // the probes' result sets carried, rebuilt locally at no extra charge.
    let found = matched.into_iter().map(|id| (id, None));
    let candidates = Candidates::fetch(ctx, fj, "fetch", found)?;

    // Phase 3: relational matching of candidates against surviving
    // tuples, in relation order. Each group's key is looked up in the cache
    // once (again only if the topology epoch moves), and the lookup is
    // booked per tuple — a hit or a miss, and a session `CacheHit` per hit —
    // as a lookup per tuple books it. A key whose probe outcome stayed
    // unknown degrades to tuple substitution for just that key: the full
    // query is sent (once per distinct join key) and its results emitted
    // directly.
    let mut group_of = vec![0; fj.rel.len()];
    for (g, (_, rows)) in groups.iter().enumerate() {
        for &row in rows {
            group_of[row] = g;
        }
    }
    let mut looked_up: Vec<Option<(u64, Option<ProbeOutcome>)>> = vec![None; groups.len()];
    let all = fj.all_preds();
    let _match_span = ctx.span("relational-match");
    let mut matcher = candidates.matcher(fj);
    let mut ts_fallback: HashMap<Vec<Arc<str>>, Vec<(DocId, Document)>> = HashMap::new();
    let mut comparisons = 0u64;
    for (row, &g) in group_of.iter().enumerate() {
        let Some(key) = &groups[g].0 else {
            continue;
        };
        let epoch = ctx.server.topology_epoch();
        let outcome = match looked_up[g] {
            Some((at, outcome)) if at == epoch => outcome,
            _ => {
                let outcome = probes.peek(epoch, key);
                looked_up[g] = Some((epoch, outcome));
                outcome
            }
        };
        match outcome {
            Some(_) => probes.note_hit(ctx, epoch),
            None => probes.note_miss(),
        }
        match outcome {
            Some(ProbeOutcome::Fail) => continue,
            Some(ProbeOutcome::Success) => {
                matcher.emit_matches(fj, text_schema, row, &mut out, &mut comparisons);
            }
            None => {
                let mut full_key = Vec::new();
                if !fj.key_values(row, &all, &mut full_key) {
                    continue;
                }
                let docs = match ts_fallback.entry(full_key) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        let result = ctx.search(&fj.search_for(&all, e.key()))?;
                        e.insert(fetch_for_projection(ctx, fj, result.docs.ids())?)
                    }
                };
                fj.emit(&mut out, text_schema, row, docs);
            }
        }
    }
    Ok(probes.finish(label, ctx, &before, comparisons, out))
}

/// The relational `ColId`s of the probe predicate indices.
fn cols_of<R>(fj: &ForeignJoin<'_, R>, probe_cols: &[usize]) -> Vec<textjoin_rel::schema::ColId> {
    probe_cols.iter().map(|&i| fj.join_cols[i]).collect()
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
    fn an_unknown_probe_outcome_never_prunes() {
        use textjoin_text::faults::{Fault, FaultPlan};

        let rel = student();
        for rtp in [false, true] {
            // Garcia's probe, the first, faults on every attempt of its
            // retry budget: its outcome is unknown, so Garcia's students
            // are still substituted and Gravano still joins.
            let mut server = TextServer::new(corpus().collection().clone());
            server.set_fault_plan(FaultPlan::scripted(
                (0..4).map(|op| (op, Fault::Unavailable)).collect(),
            ));
            let ctx = ExecContext::new(&server);
            let fj = two_pred_join(&rel, &server, Projection::RelOnly);
            let out = if rtp {
                probe_rtp(&ctx, &fj, &[0])
            } else {
                probe_tuple_substitution(&ctx, &fj, &[0], ProbeSchedule::ProbeFirst)
            }
            .unwrap();
            assert_eq!(out.report.text.faults, 4, "{}", out.report.method);
            assert_eq!(out.table.len(), 1, "{}", out.report.method);
        }
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

    /// P+RTP against a session cache books per tuple: one hit or miss per
    /// tuple with a usable probe key, one `CacheHit` event per hit, in
    /// relation order. Probe keys repeat, are NULL or blank, and one is
    /// unknown (its probe faults past the retry budget), and the second
    /// run finds every key the first one settled.
    #[test]
    fn p_rtp_books_each_tuple_against_a_session_cache() {
        use std::rc::Rc;
        use textjoin_obs::{JsonlSink, Recorder};
        use textjoin_rel::tuple::Tuple;
        use textjoin_rel::value::Value;
        use textjoin_text::faults::{Fault, FaultPlan};

        let schema = textjoin_rel::schema::RelSchema::from_columns(vec![
            ("advisor", ValueType::Str),
            ("name", ValueType::Str),
        ]);
        let mut rel = Table::new("student", schema);
        for (advisor, name) in [
            ("Garcia", "Gravano"),
            ("Wiederhold", "Pham"),
            ("Garcia", "Kao"),
            ("", "DeSmedt"),
            ("Kao", "Kao"),
            ("Garcia", "Gravano"),
            ("Wiederhold", "DeSmedt"),
            ("Pham", "Pham"),
        ] {
            rel.push(tuple![advisor, name]);
        }
        rel.push(Tuple::new(vec![Value::Null, Value::str("Gravano")]));
        rel.push(tuple!["Kao", "Garcia"]);
        let mut server = TextServer::new(corpus().collection().clone());
        // The first probe, Garcia's, faults on every attempt: unknown.
        server.set_fault_plan(FaultPlan::scripted(
            (0..4).map(|op| (op, Fault::Unavailable)).collect(),
        ));
        let sink = Rc::new(JsonlSink::new());
        server.set_recorder(Some(Recorder::new(sink.clone())));
        let cache = RefCell::new(ProbeCache::new());
        let ctx = ExecContext {
            probe_cache: Some(&cache),
            ..ExecContext::new(&server)
        };
        let fj = two_pred_join(&rel, &server, Projection::RelOnly);
        let mut got = Vec::new();
        for _ in 0..2 {
            let out = probe_rtp(&ctx, &fj, &[0]).unwrap();
            let trace = sink.take();
            let kinds: Vec<&str> = trace
                .lines()
                .filter_map(|l| l.split("\"type\":\"").nth(1)?.split('"').next())
                .collect();
            let rows: Vec<String> = out.table.iter().map(|t| t.to_string()).collect();
            got.push(format!(
                "rows {rows:?} hits {} misses {} cmp {} inv {} events {}",
                out.report.text.cache_hits,
                out.report.text.cache_misses,
                out.report.rtp_comparisons,
                out.report.text.invocations,
                kinds.join(",")
            ));
        }
        // Recorded on the per-tuple lookup this phase replaced. The first
        // run's Garcia tuples substitute (two `call`s in the match phase);
        // the second run books a hit for each of its eight keyed tuples.
        let rows = r#"rows ["['Garcia', 'Gravano']", "['Kao', 'Kao']", "['Garcia', 'Gravano']", "['Pham', 'Pham']"]"#;
        assert_eq!(
            got,
            [
                format!(
                    "{rows} hits 5 misses 7 cmp 9 inv 9 events span_begin,span_begin,\
                     call,backoff,retry,call,backoff,retry,call,backoff,retry,call,call,call,call,\
                     span_end,span_begin,call,cache_hit,call,cache_hit,cache_hit,cache_hit,\
                     cache_hit,span_end,span_end"
                ),
                format!(
                    "{rows} hits 9 misses 1 cmp 33 inv 3 events span_begin,span_begin,\
                     call,cache_hit,call,call,span_end,span_begin,cache_hit,cache_hit,cache_hit,\
                     cache_hit,cache_hit,cache_hit,cache_hit,cache_hit,span_end,span_end"
                ),
            ]
        );
    }
}
