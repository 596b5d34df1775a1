//! Boolean search expressions.
//!
//! The paper's search model (Section 2.1): basic search terms are words
//! (`filtering`), truncated words (`filter?`), or phrases
//! (`'information filtering'`); a term may be limited to a field
//! (`AU='smith'`); proximity search (`information near10 filtering`) is
//! supported; terms combine with `and`, `or`, `not`. Systems bound the
//! number of basic terms per search (Mercury allows 70) — [`SearchExpr::term_count`]
//! is what that bound is checked against.

use std::fmt;

use crate::doc::{FieldId, TextSchema};
use crate::token::{normalize_phrase, normalize_word};

/// The kind of a basic search term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermKind {
    /// A single normalized word, e.g. `filtering`.
    Word(String),
    /// A truncated word: all vocabulary words with this prefix, e.g.
    /// `filter?` → prefix `filter`.
    Prefix(String),
    /// A phrase: the words must occur consecutively in one field value.
    Phrase(Vec<String>),
}

/// A basic search term, optionally limited to one field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicTerm {
    /// What to match.
    pub kind: TermKind,
    /// Restrict matches to this field; `None` searches every field.
    pub field: Option<FieldId>,
}

impl BasicTerm {
    /// Builds a term from raw user text: multi-word input becomes a
    /// [`TermKind::Phrase`], a trailing `?` on a single word a
    /// [`TermKind::Prefix`], anything else a [`TermKind::Word`]. Input is
    /// normalized like indexed text. A trailing `?` on a *multi-word* term
    /// (`'belief update?'`) falls back to an exact phrase — truncation
    /// inside phrases is not part of the paper's search model, and
    /// silently dropping words would be worse than ignoring the `?`.
    pub fn parse_text(text: &str, field: Option<FieldId>) -> Self {
        let trimmed = text.trim();
        let kind = if let Some(stem) = trimmed
            .strip_suffix('?')
            .filter(|stem| normalize_phrase(stem).len() <= 1)
        {
            TermKind::Prefix(normalize_word(stem))
        } else {
            let trimmed = trimmed.trim_end_matches('?');
            let words = normalize_phrase(trimmed);
            match words.len() {
                0 => TermKind::Word(String::new()),
                1 => TermKind::Word(words.into_iter().next().expect("len checked")),
                _ => TermKind::Phrase(words),
            }
        };
        Self { kind, field }
    }
}

/// A Boolean search expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchExpr {
    /// A basic term.
    Term(BasicTerm),
    /// Proximity: both words occur in the same field value within
    /// `distance` word positions of each other (either order).
    Near {
        /// Left word.
        a: BasicTerm,
        /// Right word.
        b: BasicTerm,
        /// Maximum absolute positional gap.
        distance: u32,
    },
    /// Conjunction of all children.
    And(Vec<SearchExpr>),
    /// Disjunction of all children.
    Or(Vec<SearchExpr>),
    /// `lhs and not rhs` — Boolean systems implement `not` as set
    /// difference against a positive operand.
    AndNot(Box<SearchExpr>, Box<SearchExpr>),
}

impl SearchExpr {
    /// A word/phrase/truncated term searched in `field` (auto-detected from
    /// the text, see [`BasicTerm::parse_text`]).
    pub fn term_in(text: &str, field: FieldId) -> Self {
        SearchExpr::Term(BasicTerm::parse_text(text, Some(field)))
    }

    /// Conjunction; flattens nested `And`s and drops the wrapper for a
    /// single child.
    pub fn and(children: Vec<SearchExpr>) -> Self {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            match c {
                SearchExpr::And(cs) => flat.extend(cs),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("len checked")
        } else {
            SearchExpr::And(flat)
        }
    }

    /// Disjunction; flattens nested `Or`s and drops the wrapper for a
    /// single child.
    pub fn or(children: Vec<SearchExpr>) -> Self {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            match c {
                SearchExpr::Or(cs) => flat.extend(cs),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("len checked")
        } else {
            SearchExpr::Or(flat)
        }
    }

    /// Number of basic search terms in the expression — the quantity
    /// commercial systems bound per search (the paper's parameter `M`).
    /// A phrase counts as one term, as does a proximity pair's each side.
    pub fn term_count(&self) -> usize {
        match self {
            SearchExpr::Term(_) => 1,
            SearchExpr::Near { .. } => 2,
            SearchExpr::And(cs) | SearchExpr::Or(cs) => cs.iter().map(Self::term_count).sum(),
            SearchExpr::AndNot(a, b) => a.term_count() + b.term_count(),
        }
    }

    /// Renders the expression in Mercury-style syntax using `schema` for
    /// field aliases, e.g. `TI='belief update' and AU='radhika'`.
    pub fn display<'a>(&'a self, schema: &'a TextSchema) -> DisplaySearch<'a> {
        DisplaySearch { expr: self, schema }
    }
}

/// Helper implementing [`fmt::Display`] for a search expression with field
/// aliases resolved against a schema.
pub struct DisplaySearch<'a> {
    expr: &'a SearchExpr,
    schema: &'a TextSchema,
}

impl fmt::Display for DisplaySearch<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_expr(self.expr, self.schema, f, false)
    }
}

fn fmt_term(t: &BasicTerm, schema: &TextSchema, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if let Some(fid) = t.field {
        write!(f, "{}=", schema.def(fid).alias)?;
    }
    match &t.kind {
        TermKind::Word(w) => write!(f, "'{w}'"),
        TermKind::Prefix(p) => write!(f, "'{p}?'"),
        TermKind::Phrase(ws) => write!(f, "'{}'", ws.join(" ")),
    }
}

fn fmt_expr(
    e: &SearchExpr,
    schema: &TextSchema,
    f: &mut fmt::Formatter<'_>,
    parenthesize: bool,
) -> fmt::Result {
    match e {
        SearchExpr::Term(t) => fmt_term(t, schema, f),
        SearchExpr::Near { a, b, distance } => {
            fmt_term(a, schema, f)?;
            write!(f, " near{distance} ")?;
            fmt_term(b, schema, f)
        }
        SearchExpr::And(cs) => {
            if parenthesize {
                write!(f, "(")?;
            }
            for (i, c) in cs.iter().enumerate() {
                if i > 0 {
                    write!(f, " and ")?;
                }
                fmt_expr(c, schema, f, true)?;
            }
            if parenthesize {
                write!(f, ")")?;
            }
            Ok(())
        }
        SearchExpr::Or(cs) => {
            if parenthesize {
                write!(f, "(")?;
            }
            for (i, c) in cs.iter().enumerate() {
                if i > 0 {
                    write!(f, " or ")?;
                }
                fmt_expr(c, schema, f, true)?;
            }
            if parenthesize {
                write!(f, ")")?;
            }
            Ok(())
        }
        SearchExpr::AndNot(a, b) => {
            if parenthesize {
                write!(f, "(")?;
            }
            fmt_expr(a, schema, f, true)?;
            write!(f, " not ")?;
            fmt_expr(b, schema, f, true)?;
            if parenthesize {
                write!(f, ")")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TextSchema {
        TextSchema::bibliographic()
    }

    #[test]
    fn parse_text_detects_kinds() {
        let s = schema();
        let ti = s.field_by_name("title").unwrap();
        let t = BasicTerm::parse_text("Belief Update", Some(ti));
        assert_eq!(
            t.kind,
            TermKind::Phrase(vec!["belief".into(), "update".into()])
        );
        let t = BasicTerm::parse_text("filter?", None);
        assert_eq!(t.kind, TermKind::Prefix("filter".into()));
        let t = BasicTerm::parse_text("Filtering", None);
        assert_eq!(t.kind, TermKind::Word("filtering".into()));
    }

    #[test]
    fn multiword_truncation_keeps_all_words() {
        // 'belief update?' must not silently become Prefix("belief").
        let t = BasicTerm::parse_text("belief update?", None);
        assert_eq!(
            t.kind,
            TermKind::Phrase(vec!["belief".into(), "update".into()])
        );
    }

    #[test]
    fn and_or_flatten() {
        let s = schema();
        let ti = s.field_by_name("title").unwrap();
        let e = SearchExpr::and(vec![
            SearchExpr::term_in("a", ti),
            SearchExpr::and(vec![
                SearchExpr::term_in("b", ti),
                SearchExpr::term_in("c", ti),
            ]),
        ]);
        match &e {
            SearchExpr::And(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
        let single = SearchExpr::or(vec![SearchExpr::term_in("a", ti)]);
        assert!(matches!(single, SearchExpr::Term(_)));
    }

    #[test]
    fn term_count_counts_basic_terms() {
        let s = schema();
        let ti = s.field_by_name("title").unwrap();
        let au = s.field_by_name("author").unwrap();
        // TI='text' and (AU=a or AU=b or AU=c) → 4 terms
        let e = SearchExpr::and(vec![
            SearchExpr::term_in("text", ti),
            SearchExpr::or(vec![
                SearchExpr::term_in("a", au),
                SearchExpr::term_in("b", au),
                SearchExpr::term_in("c", au),
            ]),
        ]);
        assert_eq!(e.term_count(), 4);
        // A phrase is a single search term.
        assert_eq!(SearchExpr::term_in("belief update", ti).term_count(), 1);
    }

    #[test]
    fn display_mercury_syntax() {
        let s = schema();
        let ti = s.field_by_name("title").unwrap();
        let au = s.field_by_name("author").unwrap();
        let e = SearchExpr::and(vec![
            SearchExpr::term_in("belief update", ti),
            SearchExpr::or(vec![
                SearchExpr::term_in("Gravano", au),
                SearchExpr::term_in("Kao", au),
            ]),
        ]);
        assert_eq!(
            e.display(&s).to_string(),
            "TI='belief update' and (AU='gravano' or AU='kao')"
        );
    }

    #[test]
    fn display_not_and_near() {
        let s = schema();
        let ti = s.field_by_name("title").unwrap();
        let e = SearchExpr::AndNot(
            Box::new(SearchExpr::term_in("update", ti)),
            Box::new(SearchExpr::term_in("belief", ti)),
        );
        assert_eq!(e.display(&s).to_string(), "TI='update' not TI='belief'");
        let near = SearchExpr::Near {
            a: BasicTerm::parse_text("information", Some(ti)),
            b: BasicTerm::parse_text("filtering", Some(ti)),
            distance: 10,
        };
        assert_eq!(
            near.display(&s).to_string(),
            "TI='information' near10 TI='filtering'"
        );
        assert_eq!(near.term_count(), 2);
    }
}
