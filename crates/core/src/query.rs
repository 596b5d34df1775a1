//! The single-join query model (paper, Section 2.2 / 2.3).
//!
//! A conjunctive query over one stored relation and the text source:
//! local selection conditions on the relation, constant text selections,
//! and foreign join predicates `rel.col in text.field`. (Multi-relation
//! queries live in [`crate::optimizer::multi`].)
//!
//! The paper's Q1, by way of example, is expressed as:
//!
//! ```text
//! SingleJoinQuery {
//!     relation: "student",
//!     local_pred: area = 'AI' and year > 3,
//!     selections: [("belief update", "title")],
//!     join: [("name", "author")],
//!     projection: Full,
//! }
//! ```

use std::fmt;

use textjoin_rel::catalog::Catalog;
use textjoin_rel::expr::Pred;
use textjoin_rel::ops::{distinct_count_multi, filter};
use textjoin_rel::schema::ColId;
use textjoin_rel::table::Table;
use textjoin_text::doc::{FieldId, TextSchema};
use textjoin_text::service::TextService;
use textjoin_text::stats::VocabularyStats;

use crate::cost::params::JoinStatistics;
use crate::methods::{ForeignJoin, Projection, TextSelection};
use crate::stats::{export_predicate, export_selections, sample_predicate};

/// A declarative single-join query, with names resolved at
/// [`prepare`] time.
#[derive(Debug, Clone)]
pub struct SingleJoinQuery {
    /// The joining relation's catalog name.
    pub relation: String,
    /// Local selection on the relation.
    pub local_pred: Pred,
    /// Constant text selections `(term, field name)`.
    pub selections: Vec<(String, String)>,
    /// Foreign join predicates `(relation column, text field)`.
    pub join: Vec<(String, String)>,
    /// What the query projects.
    pub projection: Projection,
}

/// Name-resolution / preparation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Relation not in the catalog.
    UnknownRelation(String),
    /// Column not in the relation's schema.
    UnknownColumn(String),
    /// Field not in the text schema.
    UnknownField(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownRelation(r) => write!(f, "unknown relation {r:?}"),
            QueryError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            QueryError::UnknownField(x) => write!(f, "unknown text field {x:?}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A prepared query: the relation filtered by its local predicate, with
/// every name resolved. Owns the filtered table so the borrowed
/// [`ForeignJoin`] spec can be derived repeatedly (once per candidate
/// method).
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The locally filtered relation.
    pub filtered: Table,
    /// Resolved join columns (into `filtered`'s schema).
    pub join_cols: Vec<ColId>,
    /// Resolved joined fields.
    pub join_fields: Vec<FieldId>,
    /// Resolved text selections.
    pub selections: Vec<TextSelection>,
    /// The projection.
    pub projection: Projection,
}

/// Resolves names and applies the local selection.
pub fn prepare(
    q: &SingleJoinQuery,
    catalog: &Catalog,
    text_schema: &TextSchema,
) -> Result<PreparedQuery, QueryError> {
    let table = catalog
        .table(&q.relation)
        .ok_or_else(|| QueryError::UnknownRelation(q.relation.clone()))?;
    let mut join_cols = Vec::with_capacity(q.join.len());
    let mut join_fields = Vec::with_capacity(q.join.len());
    for (col, field) in &q.join {
        join_cols.push(
            table
                .schema()
                .column_by_name(col)
                .ok_or_else(|| QueryError::UnknownColumn(col.clone()))?,
        );
        join_fields.push(
            text_schema
                .resolve(field)
                .ok_or_else(|| QueryError::UnknownField(field.clone()))?,
        );
    }
    let selections = q
        .selections
        .iter()
        .map(|(term, field)| {
            Ok(TextSelection {
                term: term.clone(),
                field: text_schema
                    .resolve(field)
                    .ok_or_else(|| QueryError::UnknownField(field.clone()))?,
            })
        })
        .collect::<Result<Vec<_>, QueryError>>()?;
    let mut filtered = filter(table, &q.local_pred);
    filtered.set_name(q.relation.clone());
    Ok(PreparedQuery {
        filtered,
        join_cols,
        join_fields,
        selections,
        projection: q.projection,
    })
}

impl PreparedQuery {
    /// The [`ForeignJoin`] spec over the filtered relation.
    pub fn foreign_join(&self) -> ForeignJoin<'_> {
        ForeignJoin {
            rel: &self.filtered,
            join_cols: self.join_cols.clone(),
            join_fields: self.join_fields.clone(),
            selections: self.selections.clone(),
            projection: self.projection,
        }
    }

    /// Gathers [`JoinStatistics`] from the server's free statistics export
    /// (Section 8 path).
    pub fn statistics_from_export(
        &self,
        export: &VocabularyStats,
        text_schema: &TextSchema,
    ) -> JoinStatistics {
        let preds = self
            .join_cols
            .iter()
            .zip(&self.join_fields)
            .map(|(&c, &f)| export_predicate(export, &self.filtered, c, f))
            .collect();
        let (sel_fanout, sel_postings, sel_terms) = export_selections(export, &self.selections);
        self.assemble(preds, sel_fanout, sel_postings, sel_terms, text_schema)
    }

    /// Gathers [`JoinStatistics`] by sampling against the live server
    /// (Section 4.2 path). The sampling searches are charged to the server
    /// — measure them separately from query execution.
    pub fn statistics_by_sampling(
        &self,
        server: &dyn TextService,
        sample_size: usize,
    ) -> Result<JoinStatistics, textjoin_text::server::TextError> {
        let text_schema = server.schema();
        let mut preds = Vec::with_capacity(self.join_cols.len());
        for (&c, &f) in self.join_cols.iter().zip(&self.join_fields) {
            preds.push(sample_predicate(server, &self.filtered, c, f, sample_size)?);
        }
        // Selections are constant: one search answers them exactly.
        let (sel_fanout, sel_postings) = match self.foreign_join().selections_expr() {
            None => (server.doc_count() as f64, 0.0),
            Some(expr) => {
                let search = server.search_billed(&expr);
                let postings = search.invoice.postings_processed as f64;
                (search.value?.len() as f64, postings)
            }
        };
        Ok(self.assemble(
            preds,
            sel_fanout,
            sel_postings,
            self.selections.len(),
            text_schema,
        ))
    }

    fn assemble(
        &self,
        preds: Vec<crate::cost::params::PredStats>,
        sel_fanout: f64,
        sel_postings: f64,
        sel_terms: usize,
        text_schema: &TextSchema,
    ) -> JoinStatistics {
        let fj = self.foreign_join();
        JoinStatistics {
            n: self.filtered.len() as f64,
            n_k: distinct_count_multi(&self.filtered, &self.join_cols) as f64,
            preds,
            sel_fanout,
            sel_postings,
            sel_terms,
            needs_long: self.projection == Projection::Full,
            short_form_sufficient: fj.short_form_sufficient(text_schema),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testkit::{corpus, student};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(student());
        c
    }

    fn q1_like() -> SingleJoinQuery {
        SingleJoinQuery {
            relation: "student".into(),
            local_pred: Pred::eq(ColId(2), "db"), // area = 'db'
            selections: vec![("text".into(), "title".into())],
            join: vec![("name".into(), "author".into())],
            projection: Projection::Full,
        }
    }

    #[test]
    fn prepare_resolves_and_filters() {
        let server = corpus();
        let p = prepare(&q1_like(), &catalog(), server.collection().schema()).unwrap();
        assert_eq!(p.filtered.len(), 2, "two db students");
        assert_eq!(p.join_cols.len(), 1);
        let fj = p.foreign_join();
        assert_eq!(fj.k(), 1);
    }

    #[test]
    fn prepare_rejects_unknown_names() {
        let server = corpus();
        let ts = server.collection().schema();
        let mut q = q1_like();
        q.relation = "nope".into();
        assert!(matches!(
            prepare(&q, &catalog(), ts),
            Err(QueryError::UnknownRelation(_))
        ));
        let mut q = q1_like();
        q.join[0].0 = "nope".into();
        assert!(matches!(
            prepare(&q, &catalog(), ts),
            Err(QueryError::UnknownColumn(_))
        ));
        let mut q = q1_like();
        q.selections[0].1 = "nope".into();
        assert!(matches!(
            prepare(&q, &catalog(), ts),
            Err(QueryError::UnknownField(_))
        ));
    }

    #[test]
    fn field_aliases_resolve() {
        let server = corpus();
        let ts = server.collection().schema();
        let mut q = q1_like();
        q.join[0].1 = "AU".into();
        q.selections[0].1 = "TI".into();
        assert!(prepare(&q, &catalog(), ts).is_ok());
    }

    #[test]
    fn statistics_paths_agree() {
        let server = corpus();
        let ts = server.collection().schema();
        let p = prepare(&q1_like(), &catalog(), ts).unwrap();
        let export = server.export_stats();
        let a = p.statistics_from_export(&export, ts);
        let b = p.statistics_by_sampling(&server, 100).unwrap();
        assert_eq!(a.n, 2.0);
        assert_eq!(a.n_k, 2.0);
        assert!((a.preds[0].selectivity - b.preds[0].selectivity).abs() < 1e-9);
        assert!((a.sel_fanout - b.sel_fanout).abs() < 1e-9);
        assert!(a.needs_long);
        assert!(a.short_form_sufficient);
    }
}
