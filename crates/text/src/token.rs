//! Tokenization and term normalization.
//!
//! Boolean text retrieval systems of the early 1990s (the paper's model,
//! Section 2.1) index *words*: case-folded alphanumeric runs. Positions are
//! recorded so that phrase searches (`'belief update'`) and proximity
//! searches (`'information near10 filtering'`) can be answered from the
//! inverted index alone.

/// A token produced by [`tokenize`]: the normalized word plus its position
/// (0-based word offset) within the field value it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Normalized (lower-cased) word.
    pub word: String,
    /// 0-based word position within the source field value.
    pub pos: u32,
}

/// Returns `true` if `c` is part of a word. We treat ASCII alphanumerics and
/// a few intra-word connectors as word characters, matching the simple
/// word model of inversion-based systems.
#[inline]
fn is_word_char(c: char) -> bool {
    c.is_alphanumeric()
}

/// Splits `text` into normalized, positioned tokens.
///
/// Words are maximal runs of alphanumeric characters, lower-cased. Anything
/// else (whitespace, punctuation) separates words and is not indexed.
///
/// ```
/// use textjoin_text::token::tokenize;
/// let toks = tokenize("Belief Update, revisited!");
/// let words: Vec<&str> = toks.iter().map(|t| t.word.as_str()).collect();
/// assert_eq!(words, ["belief", "update", "revisited"]);
/// assert_eq!(toks[2].pos, 2);
/// ```
// The index build calls this once per field value from another module.
// Whether it inlines there otherwise depends on how rustc happens to
// partition the crate into codegen units, and the build is a fifth to a
// third slower when it does not. A plain `#[inline]` held for the callers
// compiled outside this crate but not for the shard build inside it
// (`text.shard.build_ms` 10 → 13 ms when `stats.rs` changed size).
#[inline(always)]
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut pos = 0u32;
    for c in text.chars() {
        if is_word_char(c) {
            cur.extend(c.to_lowercase());
        } else if !cur.is_empty() {
            out.push(Token {
                word: std::mem::take(&mut cur),
                pos,
            });
            pos += 1;
        }
    }
    if !cur.is_empty() {
        out.push(Token { word: cur, pos });
    }
    out
}

/// Normalizes a single search word the same way [`tokenize`] normalizes
/// indexed words, so that search terms and indexed terms compare equal.
///
/// Non-word characters are dropped entirely; `"O'Hara"` normalizes to
/// `"ohara"`? No — tokenization would split it. For single-word search terms
/// we keep only the first token; multi-word input should go through
/// [`normalize_phrase`] instead.
pub fn normalize_word(word: &str) -> String {
    tokenize(word)
        .into_iter()
        .next()
        .map(|t| t.word)
        .unwrap_or_default()
}

/// Normalizes a phrase (multi-word search term) into its sequence of
/// normalized words, e.g. `"Belief Update"` → `["belief", "update"]`.
pub fn normalize_phrase(phrase: &str) -> Vec<String> {
    tokenize(phrase).into_iter().map(|t| t.word).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_basic() {
        let toks = tokenize("Information Filtering");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].word, "information");
        assert_eq!(toks[0].pos, 0);
        assert_eq!(toks[1].word, "filtering");
        assert_eq!(toks[1].pos, 1);
    }

    #[test]
    fn tokenize_punctuation_and_case() {
        let toks = tokenize("  Garcia-Molina, H.  ");
        let words: Vec<&str> = toks.iter().map(|t| t.word.as_str()).collect();
        assert_eq!(words, ["garcia", "molina", "h"]);
        // positions are word offsets, not byte offsets
        assert_eq!(toks.iter().map(|t| t.pos).collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn tokenize_empty_and_nonword() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- !!! ---").is_empty());
    }

    #[test]
    fn tokenize_digits() {
        let toks = tokenize("May 1993");
        let words: Vec<&str> = toks.iter().map(|t| t.word.as_str()).collect();
        assert_eq!(words, ["may", "1993"]);
    }

    #[test]
    fn normalize_word_single() {
        assert_eq!(normalize_word("Filtering"), "filtering");
        assert_eq!(normalize_word("  UPDATE?! "), "update");
        assert_eq!(normalize_word(""), "");
    }

    #[test]
    fn normalize_phrase_multi() {
        assert_eq!(normalize_phrase("Belief Update"), ["belief", "update"]);
        assert!(normalize_phrase("...").is_empty());
    }

    #[test]
    fn tokenize_unicode_lowercase() {
        let toks = tokenize("Über Datenbanken");
        assert_eq!(toks[0].word, "über");
        assert_eq!(toks[1].word, "datenbanken");
    }
}
