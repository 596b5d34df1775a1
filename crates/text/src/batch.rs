//! Batched search — the Section 8 engineering extension.
//!
//! The paper's discussion observes that if text systems "provide the ability
//! to accept multiple queries in one invocation and can return answers in a
//! batched mode while maintaining the correspondence between each query and
//! its answers, then (as in the case for semi-join) invocation and possibly
//! transmission costs for the queries will be reduced."
//!
//! This module adds that capability to [`TextServer`]: a batch pays a single
//! invocation charge `c_i`, full processing per member query, and per-result
//! transmission with duplicate documents across the batch shipped only once
//! (the server remembers what it sent within the batch).

use std::collections::BTreeSet;

use textjoin_obs::Charge;

use crate::doc::DocId;
use crate::expr::SearchExpr;
use crate::server::{SearchResult, TextError, TextServer};

/// The answers to a batch: one [`SearchResult`] per member query, in order,
/// preserving the query↔answer correspondence the paper asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResult {
    /// Per-query results, parallel to the request slice.
    pub results: Vec<SearchResult>,
}

impl TextServer {
    /// Executes every query in `exprs` under a **single invocation**.
    ///
    /// Each member query is still subject to the term cap `M`; a violation
    /// fails the whole batch before anything is charged. Transmission of a
    /// document's short form is charged once per batch even if several
    /// member queries match it.
    pub fn search_batch(&self, exprs: &[SearchExpr]) -> Result<BatchResult, TextError> {
        for e in exprs {
            let count = e.term_count();
            if count > self.max_terms() {
                let err = format!(
                    "rejected: member has {count} terms > cap {}",
                    self.max_terms()
                );
                let charge = Charge {
                    rejected: 1,
                    ..Charge::default()
                };
                self.book_call("batch", count, Some(err), charge);
                return Err(TextError::TooManyTerms {
                    count,
                    max: self.max_terms(),
                });
            }
        }
        if exprs.is_empty() {
            return Ok(BatchResult {
                results: Vec::new(),
            });
        }
        // Run the member searches through the ordinary metered path, then
        // rebate the extra invocation charges and duplicate transmissions so
        // the batch is billed as one call.
        let _span = self.recorder().map(|r| r.span("batch"));
        let before = self.usage();
        let mut results = Vec::with_capacity(exprs.len());
        let mut shipped: BTreeSet<DocId> = BTreeSet::new();
        let mut duplicate_docs = 0u64;
        for e in exprs {
            let r = self.search(e)?;
            for &id in r.docs.ids() {
                if !shipped.insert(id) {
                    duplicate_docs += 1;
                }
            }
            results.push(r);
        }
        let after = self.usage();
        let extra_invocations = (after.invocations - before.invocations).saturating_sub(1);
        self.adjust_for_batch(extra_invocations, duplicate_docs);
        Ok(BatchResult { results })
    }
}

impl TextServer {
    /// Removes the per-call charges a batch should not pay: all but one
    /// invocation, and duplicate short-form transmissions.
    fn adjust_for_batch(&self, extra_invocations: u64, duplicate_docs: u64) {
        if extra_invocations == 0 && duplicate_docs == 0 {
            // Nothing to refund, and nothing to report.
            return;
        }
        let c = self.constants();
        self.book_rebate(Charge {
            invocations: -(extra_invocations as i64),
            time_invocation: -(c.c_i * extra_invocations as f64),
            docs_short: -(duplicate_docs as i64),
            time_transmission: -(c.c_s * duplicate_docs as f64),
            ..Charge::default()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{Document, TextSchema};
    use crate::index::Collection;
    use crate::parse::parse_search;

    fn server() -> TextServer {
        let schema = TextSchema::bibliographic();
        let ti = schema.field_by_name("title").unwrap();
        let au = schema.field_by_name("author").unwrap();
        let mut c = Collection::new(schema);
        c.add_document(Document::new().with(ti, "text retrieval").with(au, "Gravano"));
        c.add_document(Document::new().with(ti, "text indexing").with(au, "Kao"));
        c.add_document(Document::new().with(ti, "join processing").with(au, "Garcia"));
        TextServer::new(c)
    }

    fn q(s: &TextServer, text: &str) -> SearchExpr {
        parse_search(text, s.collection().schema()).unwrap()
    }

    #[test]
    fn batch_single_invocation() {
        let s = server();
        let exprs = vec![q(&s, "AU='gravano'"), q(&s, "AU='kao'"), q(&s, "AU='garcia'")];
        let br = s.search_batch(&exprs).unwrap();
        assert_eq!(br.results.len(), 3);
        assert_eq!(br.results[0].len(), 1);
        let u = s.usage();
        assert_eq!(u.invocations, 1, "batch pays one invocation");
        assert!((u.time_invocation - s.constants().c_i).abs() < 1e-9);
    }

    #[test]
    fn batch_dedups_transmission() {
        let s = server();
        // Both queries match doc0; its short form ships once.
        let exprs = vec![q(&s, "TI='text'"), q(&s, "AU='gravano'")];
        let br = s.search_batch(&exprs).unwrap();
        assert_eq!(br.results[0].len(), 2);
        assert_eq!(br.results[1].len(), 1);
        assert_eq!(s.usage().docs_short, 2, "doc0 shipped once, doc1 once");
    }

    #[test]
    fn batch_cheaper_than_separate_calls() {
        let s1 = server();
        let exprs = vec![q(&s1, "AU='gravano'"), q(&s1, "AU='kao'")];
        s1.search_batch(&exprs).unwrap();
        let batched = s1.usage().total_cost();

        let s2 = server();
        for e in &exprs {
            s2.search(e).unwrap();
        }
        let separate = s2.usage().total_cost();
        assert!(batched < separate);
        assert!((separate - batched - s1.constants().c_i).abs() < 1e-9);
    }

    #[test]
    fn batch_term_cap_fails_whole_batch() {
        let mut srv = server();
        srv.set_max_terms(1);
        let exprs = vec![
            q(&srv, "AU='gravano'"),
            q(&srv, "AU='kao' or AU='garcia'"), // 2 terms > cap
        ];
        assert!(srv.search_batch(&exprs).is_err());
        assert_eq!(srv.usage().invocations, 0, "nothing charged on rejection");
        assert_eq!(srv.usage().rejected, 1, "rejection is counted");
    }

    #[test]
    fn empty_batch() {
        let s = server();
        let br = s.search_batch(&[]).unwrap();
        assert!(br.results.is_empty());
        assert_eq!(s.usage().invocations, 0);
    }
}
