//! Brute-force oracles for the correctness gate.
//!
//! Nothing here touches an inverted index, a search API or a join method:
//! text expressions are answered by scanning `Collection::document` with
//! the benchmark's own tokenizer, and foreign joins by scanning every
//! (tuple, document) pair. They are reference implementations — slow on
//! purpose — and run only in the untimed verification pass.

use textjoin_core::methods::{ForeignJoin, Projection};
use textjoin_rel::schema::ColId;
use textjoin_rel::strmatch::contains_term;
use textjoin_rel::table::Table;
use textjoin_text::doc::{DocId, Document, FieldId};
use textjoin_text::expr::{BasicTerm, SearchExpr, TermKind};
use textjoin_text::index::Collection;

/// The words of one field value: lower-cased alphanumeric runs.
pub fn words(value: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in value.chars() {
        if c.is_alphanumeric() {
            cur.extend(c.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// A document tokenized once: `(field, words of one value)` per value.
pub struct TokenizedDoc(Vec<(FieldId, Vec<String>)>);

impl TokenizedDoc {
    /// Tokenizes every value of every field.
    pub fn new(doc: &Document) -> Self {
        Self(
            doc.iter()
                .flat_map(|(f, vs)| vs.iter().map(move |v| (f, words(v))))
                .collect(),
        )
    }

    /// The values a term limited to `field` may match in.
    fn values(&self, field: Option<FieldId>) -> impl Iterator<Item = &Vec<String>> {
        self.0
            .iter()
            .filter(move |(f, _)| field.is_none_or(|want| *f == want))
            .map(|(_, ws)| ws)
    }

    fn term(&self, t: &BasicTerm) -> bool {
        match &t.kind {
            TermKind::Word(w) => !w.is_empty() && self.values(t.field).any(|v| v.contains(w)),
            TermKind::Prefix(p) => {
                !p.is_empty()
                    && self
                        .values(t.field)
                        .any(|v| v.iter().any(|w| w.starts_with(p.as_str())))
            }
            TermKind::Phrase(ws) => self
                .values(t.field)
                .any(|v| v.windows(ws.len()).any(|win| win == ws.as_slice())),
        }
    }

    /// Word positions of a proximity operand inside `value`. Proximity is
    /// defined on words; a phrase operand stands for its first word, as
    /// the engine documents.
    fn positions(t: &BasicTerm, value: &[String]) -> Vec<usize> {
        let hit = |w: &String| match &t.kind {
            TermKind::Word(x) => w == x,
            TermKind::Prefix(p) => !p.is_empty() && w.starts_with(p.as_str()),
            TermKind::Phrase(ws) => ws.first() == Some(w),
        };
        value
            .iter()
            .enumerate()
            .filter(|(_, w)| hit(w))
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether the document satisfies `expr`.
    pub fn matches(&self, expr: &SearchExpr) -> bool {
        match expr {
            SearchExpr::Term(t) => self.term(t),
            SearchExpr::Near { a, b, distance } => {
                // Both operands in the *same value* of a field both admit.
                self.0.iter().any(|(f, v)| {
                    let ok = |t: &BasicTerm| t.field.is_none_or(|want| want == *f);
                    ok(a) && ok(b) && {
                        let (pa, pb) = (Self::positions(a, v), Self::positions(b, v));
                        pa.iter()
                            .any(|&x| pb.iter().any(|&y| x.abs_diff(y) <= *distance as usize))
                    }
                })
            }
            SearchExpr::And(cs) => cs.iter().all(|c| self.matches(c)),
            SearchExpr::Or(cs) => cs.iter().any(|c| self.matches(c)),
            SearchExpr::AndNot(a, b) => self.matches(a) && !self.matches(b),
        }
    }
}

/// For each expression, the docids that satisfy it, by scanning every
/// document once.
pub fn scan(coll: &Collection, exprs: &[&SearchExpr]) -> Vec<Vec<DocId>> {
    let mut out = vec![Vec::new(); exprs.len()];
    for d in 0..coll.doc_count() {
        let id = DocId(d as u32);
        let doc = TokenizedDoc::new(coll.document(id).expect("docids are dense"));
        for (hits, expr) in out.iter_mut().zip(exprs) {
            if doc.matches(expr) {
                hits.push(id);
            }
        }
    }
    out
}

/// All `(tuple index, docid)` pairs a foreign join must produce, by direct
/// scan under the relational side's term-containment semantics.
pub fn join_pairs(fj: &ForeignJoin<'_>, coll: &Collection) -> Vec<(usize, DocId)> {
    let mut out = Vec::new();
    // Documents passing the constant selections, computed once.
    let candidates: Vec<(DocId, &Document)> = (0..coll.doc_count())
        .map(|d| DocId(d as u32))
        .map(|id| (id, coll.document(id).expect("docids are dense")))
        .filter(|(_, doc)| {
            fj.selections.iter().all(|sel| {
                doc.values(sel.field)
                    .iter()
                    .any(|v| contains_term(v, &sel.term))
            })
        })
        .collect();
    for (ti, tuple) in fj.rel.iter().enumerate() {
        let needles: Option<Vec<&str>> = fj
            .join_cols
            .iter()
            .map(|c| tuple.get(*c).as_str().filter(|s| !s.trim().is_empty()))
            .collect();
        let Some(needles) = needles else { continue };
        for (id, doc) in &candidates {
            let all = needles
                .iter()
                .zip(&fj.join_fields)
                .all(|(needle, field)| doc.values(*field).iter().any(|v| contains_term(v, needle)));
            if all {
                out.push((ti, *id));
            }
        }
    }
    out
}

/// Oracle pairs shaped like the join's projected output: sorted strings.
pub fn join_shape(fj: &ForeignJoin<'_>, pairs: &[(usize, DocId)]) -> Vec<String> {
    let mut rows: Vec<String> = match fj.projection {
        Projection::RelOnly => {
            let mut tuples: Vec<usize> = pairs.iter().map(|&(t, _)| t).collect();
            tuples.sort_unstable();
            tuples.dedup();
            tuples
                .into_iter()
                .map(|t| fj.rel.rows()[t].to_string())
                .collect()
        }
        Projection::DocIds => {
            let mut ids: Vec<DocId> = pairs.iter().map(|&(_, d)| d).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.iter().map(|d| format!("[{d}]")).collect()
        }
        Projection::Full => pairs
            .iter()
            .map(|&(t, d)| format!("{}+{d}", fj.rel.rows()[t]))
            .collect(),
    };
    rows.sort();
    rows
}

/// A method's output table shaped the same way as [`join_shape`].
pub fn method_shape(fj: &ForeignJoin<'_>, table: &Table) -> Vec<String> {
    let docid = |r: &textjoin_rel::tuple::Tuple, c: usize| {
        r.get(ColId(c))
            .as_str()
            .expect("docid column is a string")
            .to_owned()
    };
    let mut rows: Vec<String> = match fj.projection {
        Projection::RelOnly => table.iter().map(|r| r.to_string()).collect(),
        Projection::DocIds => table.iter().map(|r| format!("[{}]", docid(r, 0))).collect(),
        Projection::Full => {
            let arity = fj.rel.schema().len();
            let rel_cols: Vec<ColId> = (0..arity).map(ColId).collect();
            table
                .iter()
                .map(|r| format!("{}+{}", r.project(&rel_cols), docid(r, arity)))
                .collect()
        }
    };
    rows.sort();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_text::doc::TextSchema;
    use textjoin_text::eval::evaluate;
    use textjoin_text::parse::parse_search;

    fn fixture() -> Collection {
        let schema = TextSchema::bibliographic();
        let ti = schema.field_by_name("title").unwrap();
        let au = schema.field_by_name("author").unwrap();
        let mut c = Collection::new(schema);
        for (t, authors) in [
            ("Belief Update and Revision", vec!["Radhika"]),
            ("Information Filtering Systems", vec!["Gravano", "Garcia"]),
            ("Update of Belief Networks", vec!["Garcia"]),
            ("Query Optimization, revisited", vec!["Kao", "Filter"]),
        ] {
            let mut d = Document::new().with(ti, t);
            for a in authors {
                d.push(au, a);
            }
            c.add_document(d);
        }
        c
    }

    /// The oracle and the engine are independent implementations of one
    /// semantics; on a fixture covering every operator they must agree.
    #[test]
    fn oracle_agrees_with_the_engine_on_every_operator() {
        let c = fixture();
        for q in [
            "TI=update",
            "update",
            "AU=update",
            "TI='belief update'",
            "TI='update belief'",
            "TI=belief and AU=garcia",
            "TI=belief and (AU=radhika or AU=garcia)",
            "TI=belief not AU=garcia",
            "TI='filter?'",
            "'filter?'",
            "TI=belief near1 TI=update",
            "TI=belief near2 TI=networks",
            "belief near1 garcia",
            "TI=nosuchword or AU=kao",
        ] {
            let expr = parse_search(q, c.schema()).unwrap();
            let engine = evaluate(&c, &expr).docs.ids().to_vec();
            let oracle = scan(&c, &[&expr]).remove(0);
            assert_eq!(engine, oracle, "{q}");
        }
    }
}
