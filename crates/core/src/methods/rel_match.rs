//! The relational half of the RTP family (RTP, SJ+RTP, P+RTP): candidate
//! documents are matched back to the relation's tuples with SQL string
//! matching, at `c_a` per comparison.
//!
//! Every string is normalized once — a candidate's join-field values when
//! the candidates are [fetched](Candidates::fetch), a tuple's join values
//! when the tuple is [matched](Candidates::emit_matches) — so the
//! tuple × candidate loop itself only compares.

use textjoin_rel::strmatch::Normalized;
use textjoin_rel::table::Table;
use textjoin_rel::tuple::Tuple;
use textjoin_text::doc::{DocId, Document, ShortDoc, TextSchema};
use textjoin_text::server::TextError;

use super::{ExecContext, ForeignJoin, MethodError, Projection};

struct Candidate {
    id: DocId,
    /// The long form; empty unless the join needed it fetched.
    long: Document,
    /// Per join predicate, the values of its field, normalized.
    values: Vec<Vec<Normalized>>,
}

/// The candidate documents of one method call, in the order they were
/// found (every caller finds them in docid order).
pub(crate) struct Candidates {
    docs: Vec<Candidate>,
}

impl Candidates {
    /// Gets what matching and emitting need for each of `found`: the long
    /// forms (retrieved and charged, under a span named `fetch_span`) when
    /// the projection is [`Projection::Full`] or a join field is not in the
    /// short form, the short forms otherwise. A search ships short forms
    /// and its caller passes them on; a probe ships docids only, so its
    /// caller passes `None` and the short form the probe's result set
    /// already carried is rebuilt locally — the one sanctioned exception to
    /// loose integration, not charged again.
    pub(crate) fn fetch(
        ctx: &ExecContext<'_>,
        fj: &ForeignJoin<'_>,
        fetch_span: &str,
        found: impl IntoIterator<Item = (DocId, Option<ShortDoc>)>,
    ) -> Result<Self, MethodError> {
        let need_long =
            fj.projection == Projection::Full || !fj.short_form_sufficient(ctx.server.schema());
        let _fetch_span = need_long.then(|| ctx.span(fetch_span));
        let mut docs = Vec::new();
        for (id, short) in found {
            let (long, short) = if need_long {
                (ctx.retrieve(id)?, None)
            } else {
                let short = short
                    .or_else(|| ctx.server.reconstruct_short(id))
                    .ok_or(MethodError::Text(TextError::UnknownDoc(id)))?;
                (Document::new(), Some(short))
            };
            let values_of = |f| short.as_ref().map_or_else(|| long.values(f), |s| s.values(f));
            let values = fj
                .join_fields
                .iter()
                .map(|&f| values_of(f).iter().map(|v| Normalized::new(v)).collect())
                .collect();
            docs.push(Candidate { id, long, values });
        }
        Ok(Self { docs })
    }

    /// Matches `t` against every candidate and emits the rows of those it
    /// joins with. `comparisons` is the paper's `c_a` count: one per join
    /// predicate checked, stopping at a candidate's first failed predicate;
    /// a NULL (or non-string) join value is one check, failed.
    pub(crate) fn emit_matches(
        &self,
        fj: &ForeignJoin<'_>,
        text_schema: &TextSchema,
        t: &Tuple,
        out: &mut Table,
        comparisons: &mut u64,
    ) {
        let needles: Vec<Option<Normalized>> = fj
            .join_cols
            .iter()
            .map(|&c| t.get(c).as_str().map(Normalized::new))
            .collect();
        let hits: Vec<(DocId, &Document)> = self
            .docs
            .iter()
            .filter(|d| {
                needles.iter().zip(&d.values).all(|(needle, values)| {
                    *comparisons += 1;
                    needle
                        .as_ref()
                        .is_some_and(|n| values.iter().any(|v| v.contains(n)))
                })
            })
            .map(|d| (d.id, &d.long))
            .collect();
        fj.emit(out, text_schema, t, &hits);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{corpus, student};
    use super::super::TextSelection;
    use super::*;
    use textjoin_rel::value::Value;

    #[test]
    fn counts_one_comparison_per_predicate_checked() {
        let mut rel = student();
        rel.push(Tuple::new(vec![
            Value::Null,
            Value::str("Garcia"),
            Value::str("db"),
        ]));
        let server = corpus();
        let text_schema = server.collection().schema();
        let au = text_schema.field_by_name("author").unwrap();
        let fj = ForeignJoin {
            rel: &rel,
            join_cols: vec![rel.col("name"), rel.col("advisor")],
            join_fields: vec![au, au],
            selections: Vec::<TextSelection>::new(),
            projection: Projection::RelOnly,
        };
        let ctx = ExecContext::new(&server);
        // doc0 is by Gravano and Garcia, doc2 by Pham.
        let found = [DocId(0), DocId(2)].map(|id| (id, None));
        let cands = Candidates::fetch(&ctx, &fj, "fetch", found).unwrap();
        assert_eq!(server.usage().docs_long, 0, "author is a short-form field");
        let mut out = fj.output_table(text_schema, "t");
        let mut comparisons = 0;
        let mut check = |row: usize, expect_cmp: u64, expect_rows: usize| {
            cands.emit_matches(
                &fj,
                text_schema,
                &rel.rows()[row],
                &mut out,
                &mut comparisons,
            );
            assert_eq!(
                (comparisons, out.len()),
                (expect_cmp, expect_rows),
                "row {row}"
            );
        };
        // Gravano/Garcia: both predicates on doc0, the first fails on doc2.
        check(0, 3, 1);
        // Kao: the first predicate fails on both.
        check(1, 5, 1);
        // Pham/Wiederhold: fails first on doc0, second on doc2.
        check(2, 8, 1);
        // NULL name: one failed check per candidate.
        check(4, 10, 1);
    }
}
