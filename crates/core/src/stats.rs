//! Predicate statistics estimation — paper, Section 4.2.
//!
//! The optimizer needs, per foreign join predicate `col in field`, the
//! selectivity `s_i` (probability a term from the column occurs in the
//! field) and the fanout `f_i` (expected matching documents per term). Two
//! sources are implemented:
//!
//! * [`sample_predicate`] — the paper's method: sample terms from the
//!   column and send single-term searches to the text system. The searches
//!   go through the metered server (the sampling cost is real and is
//!   "amortized over queries with the same predicate" — callers measure it
//!   separately from query execution).
//! * [`export_predicate`] — the Section 8 alternative: compute the same
//!   quantities from the server's exported vocabulary statistics, free of
//!   query charges.
//!
//! Sampling is deterministic (fixed-stride over the distinct values) so
//! every experiment is reproducible without a random-number dependency.

use textjoin_rel::ops::project_distinct;
use textjoin_rel::schema::ColId;
use textjoin_rel::table::Table;
use textjoin_text::doc::FieldId;
use textjoin_text::expr::SearchExpr;
use textjoin_text::server::TextError;
use textjoin_text::service::TextService;
use textjoin_text::stats::VocabularyStats;
use textjoin_text::token::normalize_phrase;

use crate::cost::params::PredStats;

/// Default number of sampled terms per predicate.
pub const DEFAULT_SAMPLE_SIZE: usize = 20;

/// Deterministic fixed-stride sample of up to `k` items from `n` indices.
fn stride_sample(n: usize, k: usize) -> Vec<usize> {
    if n == 0 || k == 0 {
        return Vec::new();
    }
    if n <= k {
        return (0..n).collect();
    }
    let step = n as f64 / k as f64;
    (0..k).map(|i| (i as f64 * step) as usize).collect()
}

/// Estimates `s_i` and `f_i` for the predicate `col in field` by sending
/// up to `sample_size` single-term searches to `server`.
///
/// Selectivity is the fraction of sampled terms with at least one match;
/// fanout the mean result size over all sampled terms (zero-match terms
/// included, matching the `V = n × F` derivation); `list_len` the mean
/// postings processed per search.
pub(crate) fn sample_predicate(
    server: &dyn TextService,
    rel: &Table,
    col: ColId,
    field: FieldId,
    sample_size: usize,
) -> Result<PredStats, TextError> {
    let distinct = project_distinct(rel, &[col]);
    let values: Vec<&str> = distinct
        .iter()
        .filter_map(|t| t.get(ColId(0)).as_str())
        .filter(|s| !s.trim().is_empty())
        .collect();
    let picks = stride_sample(values.len(), sample_size);
    if picks.is_empty() {
        return Ok(PredStats {
            selectivity: 0.0,
            fanout: 0.0,
            distinct: values.len() as f64,
            list_len: 0.0,
        });
    }
    let mut hits = 0usize;
    let mut total_docs = 0usize;
    let mut total_postings = 0u64;
    for &i in &picks {
        let before = server.usage();
        let result = server.search(&SearchExpr::term_in(values[i], field))?;
        let delta = server.usage().since(&before);
        total_postings += delta.postings_processed;
        if !result.is_empty() {
            hits += 1;
            total_docs += result.len();
        }
    }
    let n = picks.len() as f64;
    Ok(PredStats {
        selectivity: hits as f64 / n,
        fanout: total_docs as f64 / n,
        distinct: values.len() as f64,
        list_len: total_postings as f64 / n,
    })
}

/// Computes the same statistics from the server's exported vocabulary
/// statistics (Section 8 extension) — exact over all distinct column
/// values, and free of query charges.
///
/// Multi-word column values are scored by their rarest word (the
/// fully-correlated reading of a phrase: it matches at most as often as
/// its rarest word), while the lists of *all* words are counted as read.
pub fn export_predicate(
    export: &VocabularyStats,
    rel: &Table,
    col: ColId,
    field: FieldId,
) -> PredStats {
    let distinct = project_distinct(rel, &[col]);
    let mut n = 0usize;
    let mut hits = 0usize;
    let mut total_docs = 0u64;
    let mut total_postings = 0u64;
    for t in distinct.iter() {
        let Some(v) = t.get(ColId(0)).as_str() else {
            continue;
        };
        let words = normalize_phrase(v);
        if words.is_empty() {
            continue;
        }
        n += 1;
        let mut min_df = u32::MAX;
        for w in &words {
            let df = export.fanout(w, field);
            min_df = min_df.min(df);
            total_postings += u64::from(df);
        }
        if min_df > 0 && min_df != u32::MAX {
            hits += 1;
            total_docs += u64::from(min_df);
        }
    }
    if n == 0 {
        return PredStats {
            selectivity: 0.0,
            fanout: 0.0,
            distinct: 0.0,
            list_len: 0.0,
        };
    }
    PredStats {
        selectivity: hits as f64 / n as f64,
        fanout: total_docs as f64 / n as f64,
        distinct: n as f64,
        list_len: total_postings as f64 / n as f64,
    }
}

/// Statistics of a conjunction of constant text selections: `(joint
/// fanout, summed list lengths, term count)`. Joint fanout is the
/// fully-correlated estimate (the rarest selection's fanout); with no
/// selections it is `D`.
pub(crate) fn export_selections(
    export: &VocabularyStats,
    selections: &[crate::methods::TextSelection],
) -> (f64, f64, usize) {
    if selections.is_empty() {
        return (export.doc_count as f64, 0.0, 0);
    }
    let mut min_fanout = f64::INFINITY;
    let mut postings = 0.0;
    for s in selections {
        let words = normalize_phrase(&s.term);
        let mut phrase_min = u32::MAX;
        for w in &words {
            let df = export.fanout(w, s.field);
            phrase_min = phrase_min.min(df);
            postings += f64::from(df);
        }
        if phrase_min == u32::MAX {
            phrase_min = 0;
        }
        min_fanout = min_fanout.min(f64::from(phrase_min));
    }
    (min_fanout, postings, selections.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testkit::{corpus, student};
    use crate::methods::TextSelection;

    #[test]
    fn stride_sample_properties() {
        assert_eq!(stride_sample(0, 5), Vec::<usize>::new());
        assert_eq!(stride_sample(3, 5), vec![0, 1, 2]);
        let s = stride_sample(100, 10);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(*s.last().unwrap() < 100);
    }

    #[test]
    fn sampling_hits_real_frequencies() {
        let rel = student();
        let server = corpus();
        let au = server.collection().schema().field_by_name("author").unwrap();
        // Exhaustive sample (4 names ≤ sample size).
        let ps = sample_predicate(&server, &rel, rel.col("name"), au, 20).unwrap();
        // Gravano, Kao, Pham occur; DeSmedt does not → s = 3/4.
        assert!((ps.selectivity - 0.75).abs() < 1e-9);
        assert_eq!(ps.distinct, 4.0);
        // fanout: (1+1+1+0)/4.
        assert!((ps.fanout - 0.75).abs() < 1e-9);
        // The sampling was charged.
        assert_eq!(server.usage().invocations, 4);
    }

    #[test]
    fn sampling_respects_sample_size() {
        let rel = student();
        let server = corpus();
        let au = server.collection().schema().field_by_name("author").unwrap();
        sample_predicate(&server, &rel, rel.col("name"), au, 2).unwrap();
        assert_eq!(server.usage().invocations, 2);
    }

    #[test]
    fn export_matches_sampling_exhaustive() {
        let rel = student();
        let server = corpus();
        let au = server.collection().schema().field_by_name("author").unwrap();
        let sampled = sample_predicate(&server, &rel, rel.col("name"), au, 100).unwrap();
        let export = server.export_stats();
        let exported = export_predicate(&export, &rel, rel.col("name"), au);
        assert!((sampled.selectivity - exported.selectivity).abs() < 1e-9);
        assert!((sampled.fanout - exported.fanout).abs() < 1e-9);
    }

    #[test]
    fn export_is_free() {
        let rel = student();
        let server = corpus();
        let au = server.collection().schema().field_by_name("author").unwrap();
        let export = server.export_stats();
        let _ = export_predicate(&export, &rel, rel.col("name"), au);
        assert_eq!(server.usage().invocations, 0);
    }

    #[test]
    fn selection_stats() {
        let server = corpus();
        let ts = server.collection().schema();
        let export = server.export_stats();
        let ti = ts.field_by_name("title").unwrap();
        let (fan, postings, terms) = export_selections(
            &export,
            &[TextSelection {
                term: "text".into(),
                field: ti,
            }],
        );
        assert_eq!(fan, 2.0); // doc0, doc1 have 'text' in title
        assert!(postings >= 2.0);
        assert_eq!(terms, 1);
        // No selections: fanout is D.
        let (fan, _, terms) = export_selections(&export, &[]);
        assert_eq!(fan, 4.0);
        assert_eq!(terms, 0);
    }

    #[test]
    fn empty_relation_zero_stats() {
        let server = corpus();
        let au = server.collection().schema().field_by_name("author").unwrap();
        let schema = textjoin_rel::schema::RelSchema::from_columns(vec![(
            "name",
            textjoin_rel::value::ValueType::Str,
        )]);
        let rel = Table::new("empty", schema);
        let ps = sample_predicate(&server, &rel, ColId(0), au, 10).unwrap();
        assert_eq!(ps.selectivity, 0.0);
        assert_eq!(ps.fanout, 0.0);
    }

    #[test]
    fn multiword_values_use_rarest_word() {
        use textjoin_rel::schema::RelSchema;
        use textjoin_rel::tuple;
        use textjoin_rel::value::ValueType;
        let server = corpus();
        let ti = server.collection().schema().field_by_name("title").unwrap();
        let schema = RelSchema::from_columns(vec![("phrase", ValueType::Str)]);
        let mut rel = Table::new("p", schema);
        rel.push(tuple!["text retrieval"]); // 'text' df=2, 'retrieval' df=1
        let export = server.export_stats();
        let ps = export_predicate(&export, &rel, ColId(0), ti);
        assert_eq!(ps.fanout, 1.0, "rarest word bounds the phrase fanout");
        assert_eq!(ps.selectivity, 1.0);
        assert!(ps.list_len >= 3.0, "both lists read");
    }
}
