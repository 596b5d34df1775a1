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

/// Scans `text` and calls `on_token(word, pos)` for each word in order. The
/// word is normalized into `buf`, which is cleared first and reused from
/// token to token (and, by a caller that keeps it, from text to text), so
/// a scan allocates nothing once the buffer has grown to the longest word.
///
/// Words are maximal runs of alphanumeric characters, lower-cased. Anything
/// else (whitespace, punctuation) separates words and is not indexed. A
/// lower-casing that yields several characters stays whole inside the word
/// (`İ` → `i` + U+0307), whatever those characters are on their own.
// The index build calls this once per field value from another module.
// Whether it inlines there otherwise depends on how rustc happens to
// partition the crate into codegen units, and the build is a fifth to a
// third slower when it does not (`text.shard.build_ms` 10 → 13 ms when
// `stats.rs` changed size under a plain `#[inline]`).
#[inline(always)]
pub(crate) fn for_each_token(text: &str, buf: &mut String, mut on_token: impl FnMut(&str, u32)) {
    buf.clear();
    let mut pos = 0u32;
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            buf.push(c.to_ascii_lowercase());
        } else if c.is_alphanumeric() {
            buf.extend(c.to_lowercase());
        } else if !buf.is_empty() {
            on_token(buf, pos);
            pos += 1;
            buf.clear();
        }
    }
    if !buf.is_empty() {
        on_token(buf, pos);
    }
}

/// Splits `text` into normalized, positioned tokens: what
/// [`for_each_token`] reports, collected.
///
/// ```
/// use textjoin_text::token::tokenize;
/// let toks = tokenize("Belief Update, revisited!");
/// let words: Vec<&str> = toks.iter().map(|t| t.word.as_str()).collect();
/// assert_eq!(words, ["belief", "update", "revisited"]);
/// assert_eq!(toks[2].pos, 2);
/// ```
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut out = Vec::new();
    for_each_token(text, &mut String::new(), |word, pos| {
        out.push(Token {
            word: word.to_owned(),
            pos,
        });
    });
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
    use proptest::prelude::*;

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

    #[test]
    fn multi_char_folds_stay_inside_the_word() {
        // `İ` lower-cases to `i` + U+0307; the combining dot is no word
        // character on its own (it splits "a\u{307}b"), but as part of a
        // fold it stays (`rel::strmatch` documents the same).
        let words = |t: &str| tokenize(t).into_iter().map(|t| t.word).collect::<Vec<_>>();
        assert_eq!(words("İstanbul DİL"), ["i\u{307}stanbul", "di\u{307}l"]);
        assert_eq!(words("a\u{307}b"), ["a", "b"]);
        assert_eq!(words("Straße ǅungla"), ["straße", "ǆungla"]);
    }

    /// The tokenizer as it was before the scanner: one `String` per word,
    /// every character through `to_lowercase`.
    fn reference(text: &str) -> Vec<Token> {
        let mut out = Vec::new();
        let mut cur = String::new();
        let mut pos = 0u32;
        for c in text.chars() {
            if c.is_alphanumeric() {
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

    /// Letters in both cases, digits, separators, and the characters whose
    /// lower-casing is not one character for one.
    const PIECES: &[&str] = &[
        "a", "B", "z", "Q", "m", "0", "7", "42", " ", "  ", "\t", "-", ",", ".", "'", "?", "=",
        "(", "İ", "ß", "ǅ", "É", "é", "Σ", "ς", "\u{307}", "日本", "٣",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One tokenizer: the scanner, its collector and the old
        /// algorithm report the same words at the same positions — also
        /// when the scanner's buffer arrives dirty from the last text.
        #[test]
        fn scanner_and_collector_agree(
            pieces in prop::collection::vec(prop::sample::select(PIECES), 0..24),
            stale in prop::sample::select(PIECES),
        ) {
            let text = pieces.concat();
            let want = reference(&text);
            prop_assert_eq!(&tokenize(&text), &want, "{:?}", text);
            let mut buf = stale.repeat(3);
            let mut got = Vec::new();
            for_each_token(&text, &mut buf, |word, pos| {
                got.push(Token { word: word.to_owned(), pos });
            });
            prop_assert_eq!(&got, &want, "{:?}", text);
            // Positions count words, and no word is empty.
            prop_assert!(got.iter().enumerate().all(|(i, t)| t.pos as usize == i && !t.word.is_empty()));
        }
    }
}
