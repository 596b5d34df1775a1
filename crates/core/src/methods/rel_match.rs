//! The relational half of the RTP family (RTP, SJ+RTP, P+RTP): candidate
//! documents are matched back to the relation's tuples with SQL string
//! matching, at `c_a` per comparison.
//!
//! Every string is normalized once — a candidate's join-field values when
//! the candidates are [fetched](Candidates::fetch), a tuple's join values
//! when the tuple is [matched](Matcher::emit_matches) — and the first join
//! predicate's candidate values are indexed by word, so a tuple is compared
//! with the candidates that hold a word of its join value, not with all of
//! them. The `c_a` count is what the tuple × candidate loop would have
//! booked, in closed form.

use std::collections::HashMap;

use textjoin_rel::strmatch::Normalized;
use textjoin_rel::table::{Rows, Table};
use textjoin_text::doc::{DocId, Document, ShortDoc, ShortRef, TextSchema};
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

/// [`Candidates`] ready to be matched.
pub(crate) struct Matcher<'c> {
    docs: &'c [Candidate],
    /// Word → the candidates holding it in a value of join predicate 0's
    /// field, ascending. Only ever looked up: its order reaches no output.
    by_word: HashMap<&'c str, Vec<u32>>,
    /// The join values of the tuple being matched, one per predicate;
    /// refilled, not reallocated, tuple after tuple.
    needles: Vec<Normalized>,
}

impl Candidates {
    /// Gets what matching and emitting need for each of `found`: the long
    /// forms (retrieved and charged, under a span named `fetch_span`) when
    /// the projection is [`Projection::Full`] or a join field is not in the
    /// short form, the short forms otherwise. A search ships short forms
    /// and its caller lends them; a probe ships docids only, so its caller
    /// passes `None` and the short form the probe's result set already
    /// carried is rebuilt locally — the one sanctioned exception to loose
    /// integration, not charged again.
    pub(crate) fn fetch<'s, R: Rows>(
        ctx: &ExecContext<'_>,
        fj: &ForeignJoin<'_, R>,
        fetch_span: &str,
        found: impl IntoIterator<Item = (DocId, Option<ShortRef<'s>>)>,
    ) -> Result<Self, MethodError> {
        let need_long =
            fj.projection == Projection::Full || !fj.short_form_sufficient(ctx.server.schema());
        let _fetch_span = need_long.then(|| ctx.span(fetch_span));
        let mut docs = Vec::new();
        // One empty long form for every candidate that needs none.
        let no_long = Document::new();
        for (id, short) in found {
            let rebuilt: ShortDoc;
            let (long, short) = if need_long {
                (ctx.retrieve(id)?, None)
            } else {
                let short = match short {
                    Some(short) => short,
                    None => {
                        rebuilt = ctx
                            .server
                            .reconstruct_short(id)
                            .ok_or(MethodError::Text(TextError::UnknownDoc(id)))?;
                        rebuilt.view()
                    }
                };
                (no_long.clone(), Some(short))
            };
            let values_of = |f| {
                short
                    .as_ref()
                    .map_or_else(|| long.values(f), |s| s.values(f))
            };
            let values = fj
                .join_fields
                .iter()
                .map(|&f| values_of(f).iter().map(|v| Normalized::new(v)).collect())
                .collect();
            docs.push(Candidate { id, long, values });
        }
        Ok(Self { docs })
    }

    /// Indexes the candidates for matching; the keys are slices of their
    /// own normalized buffers.
    pub(crate) fn matcher<R: Rows>(&self, fj: &ForeignJoin<'_, R>) -> Matcher<'_> {
        let mut by_word: HashMap<_, Vec<u32>> = HashMap::with_capacity(self.docs.len());
        for (i, d) in self.docs.iter().enumerate() {
            for word in d
                .values
                .first()
                .into_iter()
                .flatten()
                .flat_map(Normalized::words)
            {
                let holders = by_word.entry(word).or_default();
                if holders.last() != Some(&(i as u32)) {
                    holders.push(i as u32);
                }
            }
        }
        Matcher {
            docs: &self.docs,
            by_word,
            needles: vec![Normalized::default(); fj.k()],
        }
    }
}

impl Matcher<'_> {
    /// Matches row `row` of the relation against every candidate and emits
    /// the rows of those it joins with, in candidate order. `comparisons`
    /// is the paper's `c_a` count: one per join predicate checked, stopping
    /// at a candidate's first failed predicate; a NULL (or non-string) join
    /// value is one check, failed. The first predicate is checked on every candidate —
    /// `|candidates|`, whatever the index lets the code skip — and each
    /// later one on the survivors of those before it.
    pub(crate) fn emit_matches<R: Rows>(
        &mut self,
        fj: &ForeignJoin<'_, R>,
        text_schema: &TextSchema,
        row: usize,
        out: &mut Table,
        comparisons: &mut u64,
    ) {
        for (needle, &c) in self.needles.iter_mut().zip(&fj.join_cols) {
            // NULL and non-strings normalize to no words: they match nothing.
            needle.set(fj.rel.value(row, c).as_str().unwrap_or(""));
        }
        let hits: Vec<(DocId, &Document)> = match self.needles.split_first() {
            None => self.docs.iter().map(|d| (d.id, &d.long)).collect(),
            Some((first, rest)) => {
                *comparisons += self.docs.len() as u64;
                // A candidate that contains the needle holds each of its
                // words: the holders of any one are all that can match.
                let holders = first.words().next().and_then(|w| self.by_word.get(w));
                holders
                    .into_iter()
                    .flatten()
                    .map(|&i| &self.docs[i as usize])
                    .filter(|d| {
                        d.values[0].iter().any(|v| v.contains(first))
                            && rest.iter().zip(&d.values[1..]).all(|(needle, values)| {
                                *comparisons += 1;
                                values.iter().any(|v| v.contains(needle))
                            })
                    })
                    .map(|d| (d.id, &d.long))
                    .collect()
            }
        };
        fj.emit(out, text_schema, row, &hits);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{corpus, student};
    use super::super::TextSelection;
    use super::*;
    use proptest::prelude::*;
    use textjoin_rel::schema::{ColId, RelSchema};
    use textjoin_rel::tuple::Tuple;
    use textjoin_rel::value::{Value, ValueType};
    use textjoin_text::doc::FieldId;

    /// The tuple × candidate loop the index replaced, kept as the
    /// contract: every candidate in order, its predicates in order, one
    /// comparison each, stopping at the first that fails.
    fn reference_matches(
        cands: &Candidates,
        fj: &ForeignJoin<'_>,
        t: &Tuple,
        comparisons: &mut u64,
    ) -> Vec<DocId> {
        let needles: Vec<Option<Normalized>> = fj
            .join_cols
            .iter()
            .map(|&c| t.get(c).as_str().map(Normalized::new))
            .collect();
        cands
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
            .map(|d| d.id)
            .collect()
    }

    /// Few strings, so that most needles hit something: wordless ones,
    /// one shared first word ("Ann" opens five), a needle whose words a
    /// value holds but not side by side ("Ann Lee" in "Ann B. Lee"),
    /// punctuation and case, and the `İ` / `ß` folds.
    const TEXTS: &[&str] = &[
        "",
        "  ",
        "?!",
        "Ann",
        "Ann Lee",
        "ann b",
        "Ann B. Lee",
        "ANN-LEE, Bo",
        "Lee",
        "lee ann",
        "O'Neil-LEE",
        "o neil",
        "İstanbul",
        "i\u{307}stanbul",
        "Straße",
        "STRASSE",
    ];

    fn cell() -> impl Strategy<Value = Value> {
        (0..TEXTS.len() + 2).prop_map(|i| match i {
            0 => Value::Null,
            1 => Value::int(7),
            i => Value::str(TEXTS[i - 2]),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The indexed matcher emits the reference's hits in the
        /// reference's order and books the reference's count, tuple by
        /// tuple: k = 0…3 predicates, 0–3 values per field, NULL / `Int` /
        /// wordless join values at any predicate, no candidates, no tuples.
        #[test]
        fn indexed_match_is_the_nested_loop(
            k in 0usize..4,
            docs in prop::collection::vec(
                prop::collection::vec(prop::collection::vec(prop::sample::select(TEXTS), 0..4), 3),
                0..9,
            ),
            rows in prop::collection::vec(prop::collection::vec(cell(), 3), 0..6),
        ) {
            let cands = Candidates {
                docs: docs
                    .iter()
                    .enumerate()
                    .map(|(i, fields)| Candidate {
                        id: DocId(10 + 3 * i as u32),
                        long: Document::new(),
                        values: fields[..k]
                            .iter()
                            .map(|values| values.iter().map(|v| Normalized::new(v)).collect())
                            .collect(),
                    })
                    .collect(),
            };
            // `with_rows` takes the `Int` cells a checked `push` would refuse.
            let columns = ["a", "b", "c"].map(|c| (c, ValueType::Str)).to_vec();
            let rel = Table::new("r", RelSchema::from_columns(columns))
                .with_rows(rows.into_iter().map(Tuple::new).collect());
            let fj = ForeignJoin {
                rel: &rel,
                join_cols: (0..k).map(ColId).collect(),
                join_fields: vec![FieldId(0); k],
                selections: vec![],
                projection: Projection::DocIds,
            };
            let text_schema = TextSchema::bibliographic();
            let mut matcher = cands.matcher(&fj);
            let mut out = fj.output_table(&text_schema, "t");
            let (mut booked, mut expected) = (0, 0);
            for (i, t) in rel.iter().enumerate() {
                let from = out.len();
                matcher.emit_matches(&fj, &text_schema, i, &mut out, &mut booked);
                let hits: Vec<String> = reference_matches(&cands, &fj, t, &mut expected)
                    .iter()
                    .map(DocId::to_string)
                    .collect();
                let emitted: Vec<&str> =
                    out.rows()[from..].iter().filter_map(|r| r.get(ColId(0)).as_str()).collect();
                prop_assert_eq!(emitted, hits, "hits of {}", t);
                prop_assert_eq!(booked, expected, "comparisons after {}", t);
            }
        }
    }

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
        let mut matcher = cands.matcher(&fj);
        assert_eq!(server.usage().docs_long, 0, "author is a short-form field");
        let mut out = fj.output_table(text_schema, "t");
        let mut comparisons = 0;
        let mut check = |row: usize, expect_cmp: u64, expect_rows: usize| {
            matcher.emit_matches(&fj, text_schema, row, &mut out, &mut comparisons);
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
