//! Parser for Mercury-style search syntax.
//!
//! Accepts the query strings the paper sends to the text system, e.g.
//!
//! ```text
//! TI='belief update' and AU='Radhika'
//! TI=text and (AU=Gravano or ... or AU=Kao)
//! 'information' near10 'filtering'
//! ```
//!
//! Grammar (lowest to highest precedence): `or`, `and`, `not` (as the binary
//! and-not of Boolean systems), then primaries — parenthesized expressions,
//! proximity pairs (`A nearN B`), and basic terms (`[FIELD=]'text'` where the
//! quotes are optional for single words).

use std::fmt;

use crate::doc::TextSchema;
use crate::expr::{BasicTerm, SearchExpr};

/// A parse failure, with a human-readable message and byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Word(String),
    Quoted(String),
    And,
    Or,
    Not,
    Near(u32),
    Eq,
    LParen,
    RParen,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self { src, pos: 0 }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn tokens(mut self) -> Result<Vec<(Tok, usize)>, ParseError> {
        let mut out = Vec::new();
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() {
            let start = self.pos;
            let c = self.src[self.pos..].chars().next().expect("in bounds");
            match c {
                ' ' | '\t' | '\n' | '\r' => {
                    self.pos += c.len_utf8();
                }
                '(' => {
                    out.push((Tok::LParen, start));
                    self.pos += 1;
                }
                ')' => {
                    out.push((Tok::RParen, start));
                    self.pos += 1;
                }
                '=' => {
                    out.push((Tok::Eq, start));
                    self.pos += 1;
                }
                '\'' | '"' => {
                    self.pos += 1;
                    let rest = &self.src[self.pos..];
                    match rest.find(c) {
                        Some(end) => {
                            out.push((Tok::Quoted(rest[..end].to_owned()), start));
                            self.pos += end + 1;
                        }
                        None => return Err(self.err("unterminated quoted term")),
                    }
                }
                _ => {
                    // A bare word: letters, digits, '?', '-', '_' run.
                    let rest = &self.src[self.pos..];
                    let end = rest
                        .find(|ch: char| {
                            !(ch.is_alphanumeric() || ch == '?' || ch == '-' || ch == '_')
                        })
                        .unwrap_or(rest.len());
                    if end == 0 {
                        return Err(self.err(format!("unexpected character {c:?}")));
                    }
                    let word = &rest[..end];
                    self.pos += end;
                    let lower = word.to_ascii_lowercase();
                    let tok = if lower == "and" {
                        Tok::And
                    } else if lower == "or" {
                        Tok::Or
                    } else if lower == "not" {
                        Tok::Not
                    } else if let Some(n) = lower.strip_prefix("near") {
                        if n.is_empty() {
                            Tok::Near(1)
                        } else if let Ok(d) = n.parse::<u32>() {
                            Tok::Near(d)
                        } else {
                            Tok::Word(word.to_owned())
                        }
                    } else {
                        Tok::Word(word.to_owned())
                    };
                    out.push((tok, start));
                }
            }
        }
        Ok(out)
    }
}

struct Parser<'a> {
    toks: Vec<(Tok, usize)>,
    i: usize,
    schema: &'a TextSchema,
    src_len: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i).map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.i)
            .map(|&(_, o)| o)
            .unwrap_or(self.src_len)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.i).map(|(t, _)| t.clone());
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.offset(),
        }
    }

    fn expr(&mut self) -> Result<SearchExpr, ParseError> {
        let mut children = vec![self.and_expr()?];
        while self.peek() == Some(&Tok::Or) {
            self.bump();
            children.push(self.and_expr()?);
        }
        Ok(SearchExpr::or(children))
    }

    fn and_expr(&mut self) -> Result<SearchExpr, ParseError> {
        let mut children = vec![self.not_expr()?];
        while self.peek() == Some(&Tok::And) {
            self.bump();
            children.push(self.not_expr()?);
        }
        Ok(SearchExpr::and(children))
    }

    fn not_expr(&mut self) -> Result<SearchExpr, ParseError> {
        let mut lhs = self.primary()?;
        while self.peek() == Some(&Tok::Not) {
            self.bump();
            let rhs = self.primary()?;
            lhs = SearchExpr::AndNot(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn primary(&mut self) -> Result<SearchExpr, ParseError> {
        match self.peek() {
            Some(Tok::LParen) => {
                self.bump();
                let inner = self.expr()?;
                match self.bump() {
                    Some(Tok::RParen) => Ok(inner),
                    _ => Err(self.err("expected ')'")),
                }
            }
            _ => {
                let a = self.basic_term()?;
                if let Some(Tok::Near(d)) = self.peek() {
                    let d = *d;
                    self.bump();
                    let b = self.basic_term()?;
                    Ok(SearchExpr::Near { a, b, distance: d })
                } else {
                    Ok(SearchExpr::Term(a))
                }
            }
        }
    }

    fn basic_term(&mut self) -> Result<BasicTerm, ParseError> {
        match self.bump() {
            Some(Tok::Word(w)) => {
                if self.peek() == Some(&Tok::Eq) {
                    // FIELD=term
                    self.bump();
                    let field = self
                        .schema
                        .resolve(&w)
                        .ok_or_else(|| self.err(format!("unknown field {w:?}")))?;
                    match self.bump() {
                        Some(Tok::Word(t)) | Some(Tok::Quoted(t)) => {
                            Ok(BasicTerm::parse_text(&t, Some(field)))
                        }
                        _ => Err(self.err("expected search term after '='")),
                    }
                } else {
                    Ok(BasicTerm::parse_text(&w, None))
                }
            }
            Some(Tok::Quoted(t)) => Ok(BasicTerm::parse_text(&t, None)),
            Some(other) => Err(self.err(format!("expected a search term, found {other:?}"))),
            None => Err(self.err("expected a search term, found end of input")),
        }
    }
}

/// Parses a Mercury-style search string against `schema`.
///
/// ```
/// use textjoin_text::{doc::TextSchema, parse::parse_search};
/// let schema = TextSchema::bibliographic();
/// let e = parse_search("TI='belief update' and AU='Radhika'", &schema).unwrap();
/// assert_eq!(e.term_count(), 2);
/// ```
pub fn parse_search(input: &str, schema: &TextSchema) -> Result<SearchExpr, ParseError> {
    let toks = Lexer::new(input).tokens()?;
    if toks.is_empty() {
        return Err(ParseError {
            message: "empty search".into(),
            offset: 0,
        });
    }
    let mut p = Parser {
        toks,
        i: 0,
        schema,
        src_len: input.len(),
    };
    let e = p.expr()?;
    if p.i != p.toks.len() {
        return Err(p.err("trailing input after search expression"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::TermKind;

    fn schema() -> TextSchema {
        TextSchema::bibliographic()
    }

    #[test]
    fn parse_simple_conjunction() {
        let s = schema();
        let e = parse_search("TI='belief update' and AU='Radhika'", &s).unwrap();
        assert_eq!(
            e.display(&s).to_string(),
            "TI='belief update' and AU='radhika'"
        );
    }

    #[test]
    fn parse_semi_join_disjunction() {
        let s = schema();
        let e = parse_search("TI=text and (AU=Gravano or AU=Kao)", &s).unwrap();
        assert_eq!(e.term_count(), 3);
        assert_eq!(
            e.display(&s).to_string(),
            "TI='text' and (AU='gravano' or AU='kao')"
        );
    }

    #[test]
    fn parse_precedence_or_lowest() {
        let s = schema();
        let e = parse_search("AU=a and AU=b or AU=c", &s).unwrap();
        // (a and b) or c
        match e {
            SearchExpr::Or(cs) => {
                assert_eq!(cs.len(), 2);
                assert!(matches!(cs[0], SearchExpr::And(_)));
            }
            other => panic!("expected Or at top, got {other:?}"),
        }
    }

    #[test]
    fn parse_not_binds_tighter_than_and() {
        let s = schema();
        let e = parse_search("AU=a not AU=b and AU=c", &s).unwrap();
        match e {
            SearchExpr::And(cs) => {
                assert!(matches!(cs[0], SearchExpr::AndNot(_, _)));
            }
            other => panic!("expected And at top, got {other:?}"),
        }
    }

    #[test]
    fn parse_near() {
        let s = schema();
        let e = parse_search("'information' near10 'filtering'", &s).unwrap();
        match e {
            SearchExpr::Near { distance, .. } => assert_eq!(distance, 10),
            other => panic!("expected Near, got {other:?}"),
        }
    }

    #[test]
    fn parse_truncation() {
        let s = schema();
        let e = parse_search("TI=filter?", &s).unwrap();
        match e {
            SearchExpr::Term(t) => assert_eq!(t.kind, TermKind::Prefix("filter".into())),
            other => panic!("expected Term, got {other:?}"),
        }
    }

    #[test]
    fn parse_field_aliases_and_names() {
        let s = schema();
        assert!(parse_search("title='x'", &s).is_ok());
        assert!(parse_search("TI='x'", &s).is_ok());
        assert!(parse_search("ti='x'", &s).is_ok());
    }

    #[test]
    fn parse_errors() {
        let s = schema();
        assert!(parse_search("", &s).is_err());
        assert!(parse_search("BOGUS='x'", &s).is_err());
        assert!(parse_search("TI='unterminated", &s).is_err());
        assert!(parse_search("TI='a' and", &s).is_err());
        assert!(parse_search("(TI='a'", &s).is_err());
        assert!(parse_search("TI='a') junk", &s).is_err());
        let err = parse_search("TI=", &s).unwrap_err();
        assert!(err.message.contains("expected search term"));
    }

    #[test]
    fn roundtrip_display_parse() {
        let s = schema();
        let inputs = [
            "TI='belief update' and AU='radhika'",
            "TI='text' and (AU='gravano' or AU='kao')",
            "TI='update' not TI='belief'",
        ];
        for inp in inputs {
            let e = parse_search(inp, &s).unwrap();
            let rendered = e.display(&s).to_string();
            let e2 = parse_search(&rendered, &s).unwrap();
            assert_eq!(e, e2, "roundtrip failed for {inp}");
        }
    }
}
