//! Foreign-join execution methods (paper, Section 3).
//!
//! A *foreign join* is a join between a stored relation and the external
//! text system, expressed as predicates `rel.col in text.field`. Because the
//! integration is loose, every method ultimately evaluates these predicates
//! by sending instantiated selections to the text server; the methods differ
//! in *how many* searches they send, *what* each search asks, and *where*
//! the residual matching happens:
//!
//! | Method | Module | Searches sent | Residual matching |
//! |--------|--------|---------------|-------------------|
//! | TS     | [`ts`]    | one per (distinct) outer tuple | none |
//! | RTP    | [`rtp`]   | one (text selections only)    | relational string matching |
//! | SJ     | [`sj`]    | ⌈N_K / per-search capacity⌉   | none (docids) or relational (+RTP) |
//! | P+TS   | [`probe`] | probes on a column subset, then TS on survivors | none |
//! | P+RTP  | [`probe`] | probes on a column subset     | relational string matching |
//!
//! Methods reach the service only through the retrying wrappers of
//! [`ExecContext`], which live in [`crate::transport`]. They share their
//! steps: [`ForeignJoin::search_for`] builds every search a method sends,
//! [`fetch_for_projection`] fetches every substituted result, and one
//! probe step in [`probe`] sends and records every cached probe.

pub mod cache;
pub mod probe;
mod rel_match;
pub mod rtp;
pub mod sj;
pub mod ts;

use std::fmt;
use std::sync::Arc;

use textjoin_obs::{ns, secs};
use textjoin_rel::schema::{ColId, RelSchema};
use textjoin_rel::table::{Rows, Table};
use textjoin_rel::tuple::Tuple;
use textjoin_rel::value::{Value, ValueType};
use textjoin_text::doc::{DocId, Document, FieldId, TextSchema};
use textjoin_text::expr::SearchExpr;
use textjoin_text::server::{TextError, Usage};

use crate::cost::params::rel_ticks;
pub use crate::transport::{CostCeiling, ExecContext};

/// What the query projects — determines how much document data a method
/// must ship.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Projection {
    /// Only attributes of the relation: the query is a semi-join of the
    /// relation by the text source (each matching tuple emitted once).
    RelOnly,
    /// Only docids: a semi-join of the text source by the relation — the
    /// paper's Q2 (`select docid from student, mercury where ...`).
    DocIds,
    /// Full join rows: relation attributes ++ docid ++ all text fields
    /// (`select *`) — requires long-form document retrieval.
    Full,
}

/// A text selection condition: a constant term that must occur in a field,
/// e.g. `'belief update' in mercury.title`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextSelection {
    /// The constant search term (word or phrase).
    pub term: String,
    /// The field searched.
    pub field: FieldId,
}

/// A fully-specified foreign join between one relation and the text source.
///
/// `join_cols[i]` is joined against `join_fields[i]`: for a tuple `t`, the
/// instantiated predicate is "value of `join_cols[i]` in `t` occurs in
/// `join_fields[i]`". The relation is assumed already reduced by its local
/// selection conditions (the paper omits relation-scan cost for the same
/// reason). The relation is a [`Table`], or any other [`Rows`] — a
/// multi-join plan's intermediate view — read in place.
#[derive(Debug, Clone)]
pub struct ForeignJoin<'a, R = Table> {
    /// The (locally filtered) outer relation.
    pub rel: &'a R,
    /// Join columns of the relation, parallel to `join_fields`.
    pub join_cols: Vec<ColId>,
    /// Text fields joined against, parallel to `join_cols`.
    pub join_fields: Vec<FieldId>,
    /// Constant text selection conditions.
    pub selections: Vec<TextSelection>,
    /// What to emit.
    pub projection: Projection,
}

/// Why a method could not run on a given query.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodError {
    /// The method's precondition fails (e.g. RTP without text selections).
    NotApplicable(String),
    /// The text server refused or failed a call.
    Text(TextError),
    /// A probe-based method was asked to probe on no columns or unknown
    /// column indices.
    BadProbeColumns(String),
}

impl fmt::Display for MethodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodError::NotApplicable(m) => write!(f, "method not applicable: {m}"),
            MethodError::Text(e) => write!(f, "text server error: {e}"),
            MethodError::BadProbeColumns(m) => write!(f, "bad probe columns: {m}"),
        }
    }
}

impl std::error::Error for MethodError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MethodError::Text(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TextError> for MethodError {
    fn from(e: TextError) -> Self {
        MethodError::Text(e)
    }
}

/// What a method did and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodReport {
    /// Method label (`"TS"`, `"P1+TS"`, ...).
    pub method: String,
    /// What the text service billed this method: the sum of the invoices
    /// it received.
    pub text: Usage,
    /// Document–tuple comparisons performed relationally.
    pub rtp_comparisons: u64,
    /// `ns(c_a) ×` comparisons, rendered in seconds (exactly: `ns` of it
    /// recovers the ticks).
    pub rtp_cost: f64,
    /// Rows emitted.
    pub output_rows: usize,
}

impl MethodReport {
    /// Total simulated cost in ticks: text-server charges plus relational
    /// text processing.
    pub fn ticks(&self) -> u64 {
        self.text.ticks() + ns(self.rtp_cost) as u64
    }

    /// [`ticks`](Self::ticks) in seconds.
    pub fn total_cost(&self) -> f64 {
        secs(self.ticks() as i64)
    }
}

impl fmt::Display for MethodReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.2}s (text {}, rtp {} cmp = {:.2}s), {} rows",
            self.method,
            self.total_cost(),
            self.text,
            self.rtp_comparisons,
            self.rtp_cost,
            self.output_rows
        )
    }
}

/// A method's result: the output table plus its report.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// Output rows, shaped per the [`Projection`].
    pub table: Table,
    /// Cost/usage report.
    pub report: MethodReport,
}

impl<R: Rows> ForeignJoin<'_, R> {
    /// Number of foreign join predicates `k`.
    pub fn k(&self) -> usize {
        self.join_cols.len()
    }

    /// Validates internal consistency (parallel arrays, known columns).
    pub(crate) fn validate(&self) -> Result<(), MethodError> {
        if self.join_cols.len() != self.join_fields.len() {
            return Err(MethodError::NotApplicable(
                "join_cols and join_fields must be parallel".into(),
            ));
        }
        if self.join_cols.is_empty() && self.selections.is_empty() {
            return Err(MethodError::NotApplicable(
                "foreign join needs at least one join predicate or selection".into(),
            ));
        }
        for c in &self.join_cols {
            if c.0 >= self.rel.schema().len() {
                return Err(MethodError::BadProbeColumns(format!(
                    "column {} out of range",
                    c.0
                )));
            }
        }
        Ok(())
    }

    /// The conjunction of the constant text selections, if any.
    pub(crate) fn selections_expr(&self) -> Option<SearchExpr> {
        if self.selections.is_empty() {
            return None;
        }
        Some(SearchExpr::and(
            self.selections
                .iter()
                .map(|s| SearchExpr::term_in(&s.term, s.field))
                .collect(),
        ))
    }

    /// Puts the join-column values of row `row` at predicate indices
    /// `which` (indices into `join_cols`) into `out`, replacing what it
    /// held; the strings are shared with the relation, not copied. Returns
    /// `false` if any value is NULL or empty — such a tuple can never
    /// match, so no search is sent.
    pub(crate) fn key_values(&self, row: usize, which: &[usize], out: &mut Vec<Arc<str>>) -> bool {
        out.clear();
        out.extend(
            which
                .iter()
                .map_while(|&i| match self.rel.value(row, self.join_cols[i]) {
                    Value::Str(s) if !s.trim().is_empty() => Some(s.clone()),
                    _ => None,
                }),
        );
        out.len() == which.len()
    }

    /// Builds the conjunct for predicate indices `which` instantiated with
    /// `values` (parallel to `which`): each becomes `value in field`.
    pub(crate) fn instantiated_conjunct(&self, which: &[usize], values: &[Arc<str>]) -> SearchExpr {
        debug_assert_eq!(which.len(), values.len());
        SearchExpr::and(
            which
                .iter()
                .zip(values)
                .map(|(&i, v)| SearchExpr::term_in(v, self.join_fields[i]))
                .collect(),
        )
    }

    /// The search for predicate indices `which` instantiated with `key`, a
    /// key [`key_values`](Self::key_values) accepted: selections ∧
    /// instantiated join predicates.
    pub(crate) fn search_for(&self, which: &[usize], key: &[Arc<str>]) -> SearchExpr {
        let conj = self.instantiated_conjunct(which, key);
        match self.selections_expr() {
            Some(sel) => SearchExpr::and(vec![sel, conj]),
            None => conj,
        }
    }

    /// [`search_for`](Self::search_for) row `row`'s key over `which`.
    /// `None` if the row has a NULL/empty join value among `which`.
    pub(crate) fn instantiated_search(&self, row: usize, which: &[usize]) -> Option<SearchExpr> {
        let mut key = Vec::with_capacity(which.len());
        self.key_values(row, which, &mut key)
            .then(|| self.search_for(which, &key))
    }

    /// All predicate indices `[0, k)`.
    pub(crate) fn all_preds(&self) -> Vec<usize> {
        (0..self.k()).collect()
    }

    /// The output schema for this join's projection.
    pub(crate) fn output_schema(&self, text_schema: &TextSchema) -> RelSchema {
        match self.projection {
            Projection::RelOnly => self.rel.schema().clone(),
            Projection::DocIds => RelSchema::from_columns(vec![("docid", ValueType::Str)]),
            Projection::Full => {
                let mut s = self.rel.schema().clone();
                let mut add = |name: &str| {
                    let mut candidate = name.to_owned();
                    if s.column_by_name(&candidate).is_some() {
                        candidate = format!("mercury.{name}");
                    }
                    s.add_column(candidate, ValueType::Str);
                };
                add("docid");
                for (_, def) in text_schema.iter() {
                    add(&def.name);
                }
                s
            }
        }
    }

    /// An empty output table for this join.
    pub(crate) fn output_table(&self, text_schema: &TextSchema, name: &str) -> Table {
        Table::new(name, self.output_schema(text_schema))
    }

    /// Emits output rows for one (row, matched docs) pair according to the
    /// projection: the one place a foreign join builds a [`Tuple`]. `docs`
    /// must be the long forms when the projection is `Full`; they may be
    /// owned or borrowed.
    pub(crate) fn emit<D: std::borrow::Borrow<Document>>(
        &self,
        out: &mut Table,
        text_schema: &TextSchema,
        row: usize,
        docs: &[(DocId, D)],
    ) {
        if docs.is_empty() {
            return;
        }
        let arity = self.rel.schema().len();
        let values = || (0..arity).map(|c| self.rel.value(row, ColId(c)).clone());
        match self.projection {
            Projection::RelOnly => out.push(Tuple::new(values().collect())),
            Projection::DocIds => {
                for (id, _) in docs {
                    out.push(Tuple::new(vec![Value::str(id.to_string())]));
                }
            }
            Projection::Full => {
                for (id, d) in docs {
                    let mut vals = Vec::with_capacity(arity + 1 + text_schema.len());
                    vals.extend(values());
                    vals.extend(doc_values(*id, d.borrow(), text_schema));
                    out.push(Tuple::new(vals));
                }
            }
        }
    }

    /// Whether every join field is available in short-form results — when
    /// true, RTP-style matching can use the search results themselves and
    /// skip long-form retrieval (unless the projection needs full docs).
    pub(crate) fn short_form_sufficient(&self, text_schema: &TextSchema) -> bool {
        self.join_fields
            .iter()
            .all(|f| text_schema.def(*f).in_short_form)
    }
}

/// A long-form document as relational values — the suffix of an output row
/// under [`Projection::Full`], a row of [`crate::exec::doc_table`]: docid,
/// then each field's values joined with `"; "` (NULL when the field is
/// absent).
pub(crate) fn doc_values(id: DocId, doc: &Document, text_schema: &TextSchema) -> Vec<Value> {
    let mut out = Vec::with_capacity(1 + text_schema.len());
    out.push(Value::str(id.to_string()));
    for (fid, _) in text_schema.iter() {
        let vs = doc.values(fid);
        if vs.is_empty() {
            out.push(Value::Null);
        } else {
            out.push(Value::str(vs.join("; ")));
        }
    }
    out
}

/// Fetches the documents a result set refers to, in the form the
/// projection needs: long forms (retrieved and charged) for
/// [`Projection::Full`], empty placeholders otherwise.
pub(crate) fn fetch_for_projection<R>(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_, R>,
    ids: &[DocId],
) -> Result<Vec<(DocId, Document)>, MethodError> {
    match fj.projection {
        Projection::Full => ids.iter().map(|&id| Ok((id, ctx.retrieve(id)?))).collect(),
        _ => Ok(ids.iter().map(|&id| (id, Document::new())).collect()),
    }
}

/// Helper: builds a [`MethodReport`] from the invoices `ctx` received
/// since its invoice read `start`.
pub(crate) fn report(
    method: impl Into<String>,
    ctx: &ExecContext<'_>,
    start: &Usage,
    rtp_comparisons: u64,
    output_rows: usize,
) -> MethodReport {
    MethodReport {
        method: method.into(),
        text: ctx.invoice.get().since(start),
        rtp_comparisons,
        rtp_cost: secs(rel_ticks(ctx.c_a, rtp_comparisons, 0.0, 0) as i64),
        output_rows,
    }
}

#[cfg(test)]
pub(crate) mod testkit {
    //! Shared fixtures for method tests: a small university database and a
    //! Mercury-like collection with known overlaps.

    use textjoin_rel::schema::RelSchema;
    use textjoin_rel::table::Table;
    use textjoin_rel::tuple;
    use textjoin_rel::value::ValueType;
    use textjoin_text::doc::{Document, TextSchema};
    use textjoin_text::index::Collection;
    use textjoin_text::server::TextServer;

    /// Students: name, advisor, area.
    pub(crate) fn student() -> Table {
        let schema = RelSchema::from_columns(vec![
            ("name", ValueType::Str),
            ("advisor", ValueType::Str),
            ("area", ValueType::Str),
        ]);
        let mut t = Table::new("student", schema);
        t.push(tuple!["Gravano", "Garcia", "db"]);
        t.push(tuple!["Kao", "Garcia", "db"]);
        t.push(tuple!["Pham", "Wiederhold", "ai"]);
        t.push(tuple!["DeSmedt", "Wiederhold", "ai"]);
        t
    }

    /// A collection where:
    /// * doc0: title "text retrieval systems", authors Gravano, Garcia
    /// * doc1: title "text indexing", author Kao
    /// * doc2: title "belief update", author Pham
    /// * doc3: title "query optimization", author Garcia
    pub(crate) fn corpus() -> TextServer {
        let schema = TextSchema::bibliographic();
        let ti = schema.field_by_name("title").unwrap();
        let au = schema.field_by_name("author").unwrap();
        let ab = schema.field_by_name("abstract").unwrap();
        let mut c = Collection::new(schema);
        c.add_document(
            Document::new()
                .with(ti, "text retrieval systems")
                .with(au, "Gravano")
                .with(au, "Garcia")
                .with(ab, "We study text retrieval."),
        );
        c.add_document(
            Document::new()
                .with(ti, "text indexing")
                .with(au, "Kao")
                .with(ab, "Indexing structures for text."),
        );
        c.add_document(
            Document::new()
                .with(ti, "belief update")
                .with(au, "Pham")
                .with(ab, "Belief revision and update."),
        );
        c.add_document(
            Document::new()
                .with(ti, "query optimization")
                .with(au, "Garcia")
                .with(ab, "Optimizing queries."),
        );
        TextServer::new(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{corpus, student};
    use textjoin_text::server::TextServer;

    fn fj<'a>(rel: &'a Table, server: &TextServer, projection: Projection) -> ForeignJoin<'a> {
        let ts = server.collection().schema();
        ForeignJoin {
            rel,
            join_cols: vec![rel.col("name")],
            join_fields: vec![ts.field_by_name("author").unwrap()],
            selections: vec![TextSelection {
                term: "text".into(),
                field: ts.field_by_name("title").unwrap(),
            }],
            projection,
        }
    }

    #[test]
    fn validate_catches_mismatch() {
        let rel = student();
        let server = corpus();
        let mut j = fj(&rel, &server, Projection::Full);
        assert!(j.validate().is_ok());
        j.join_fields.clear();
        assert!(j.validate().is_err());
    }

    #[test]
    fn instantiated_search_renders() {
        let rel = student();
        let server = corpus();
        let j = fj(&rel, &server, Projection::Full);
        let e = j.instantiated_search(0, &j.all_preds()).unwrap();
        assert_eq!(
            e.display(server.collection().schema()).to_string(),
            "TI='text' and AU='gravano'"
        );
    }

    #[test]
    fn null_join_value_skips() {
        let server = corpus();
        let schema = RelSchema::from_columns(vec![("name", ValueType::Str)]);
        let mut rel = Table::new("r", schema);
        rel.push(Tuple::new(vec![Value::Null]));
        rel.push(Tuple::new(vec![Value::str("  ")]));
        let ts = server.collection().schema();
        let j = ForeignJoin {
            rel: &rel,
            join_cols: vec![ColId(0)],
            join_fields: vec![ts.field_by_name("author").unwrap()],
            selections: vec![],
            projection: Projection::RelOnly,
        };
        assert!(j.instantiated_search(0, &[0]).is_none());
        assert!(j.instantiated_search(1, &[0]).is_none());
    }

    #[test]
    fn output_schema_shapes() {
        let rel = student();
        let server = corpus();
        let ts = server.collection().schema();
        assert_eq!(
            fj(&rel, &server, Projection::RelOnly)
                .output_schema(ts)
                .len(),
            3
        );
        assert_eq!(
            fj(&rel, &server, Projection::DocIds)
                .output_schema(ts)
                .len(),
            1
        );
        // rel(3) + docid + 5 fields
        assert_eq!(
            fj(&rel, &server, Projection::Full).output_schema(ts).len(),
            9
        );
    }

    #[test]
    fn short_form_sufficiency() {
        let rel = student();
        let server = corpus();
        let ts = server.collection().schema();
        let j = fj(&rel, &server, Projection::RelOnly);
        assert!(j.short_form_sufficient(ts), "author is short-form");
        let j2 = ForeignJoin {
            join_fields: vec![ts.field_by_name("abstract").unwrap()],
            ..j
        };
        assert!(!j2.short_form_sufficient(ts));
    }
}
