//! SQL-style string matching.
//!
//! The RTP join method (paper, Section 3.2) finishes a foreign join on the
//! relational side using "the string matching functions in SQL". Two
//! functions are provided:
//!
//! * [`like`] — SQL `LIKE` with `%` and `_` wildcards, the primitive the
//!   paper calls SQL's "primitive string matching operations";
//! * [`contains_term`] — word-boundary phrase containment with the *same
//!   normalization as the text system's indexer*. The paper stresses that
//!   relational processing of text predicates needs "consistent semantics"
//!   with the foreign system; matching on normalized word boundaries is what
//!   makes `'smith' in author` computed relationally agree with the text
//!   server's answer.

/// SQL `LIKE`: `%` matches any run (including empty), `_` any single
/// character. Matching is case-sensitive, per standard SQL.
///
/// Two pointers, no allocation, O(|s|·|pattern|): on a mismatch the most
/// recent `%` absorbs one more character and matching resumes after it.
/// Earlier `%`s never need revisiting — a later `%` can absorb anything an
/// earlier one could have.
pub fn like(s: &str, pattern: &str) -> bool {
    let (mut s_rest, mut p_rest) = (s.chars(), pattern.chars());
    // The pattern after the last `%` seen, and the text that `%` has not
    // absorbed yet.
    let mut resume: Option<(std::str::Chars<'_>, std::str::Chars<'_>)> = None;
    loop {
        let (mut s_next, mut p_next) = (s_rest.clone(), p_rest.clone());
        match (p_next.next(), s_next.next()) {
            (None, None) => return true,
            (Some('%'), _) => {
                resume = Some((p_next.clone(), s_rest.clone()));
                p_rest = p_next;
                continue;
            }
            (Some(p), Some(c)) if p == '_' || p == c => {
                (s_rest, p_rest) = (s_next, p_next);
                continue;
            }
            // The text ran out before the pattern: absorbing more of it
            // into a `%` can only leave less.
            (Some(_), None) => return false,
            _ => {}
        }
        let Some((p_after, s_from)) = &mut resume else {
            return false;
        };
        s_from.next();
        (s_rest, p_rest) = (s_from.clone(), p_after.clone());
    }
}

/// A string in the text system's normalized form: its case-folded
/// alphanumeric words, stored back to back in one buffer with the offset
/// where each word ends. Build it once per string and call
/// [`contains`](Self::contains) per comparison; the comparison allocates
/// nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Normalized {
    words: String,
    ends: Vec<usize>,
}

impl Normalized {
    /// Normalizes `s`: maximal alphanumeric runs, lowercased.
    pub fn new(s: &str) -> Self {
        let mut out = Self::default();
        out.set(s);
        out
    }

    /// Makes this the normalized form of `s`, keeping the buffers: a loop
    /// that normalizes one string after another allocates for the longest.
    pub fn set(&mut self, s: &str) {
        self.words.clear();
        self.ends.clear();
        for c in s.chars() {
            // ASCII first: the general fold goes through the Unicode tables,
            // and it is most of an unhoisted `contains_term` (measured: 69 ns
            // against 117–166 ns per call on the benchmark's names).
            if c.is_ascii() {
                if c.is_ascii_alphanumeric() {
                    self.words.push(c.to_ascii_lowercase());
                    continue;
                }
            } else if c.is_alphanumeric() {
                self.words.extend(c.to_lowercase());
                continue;
            }
            self.end_word();
        }
        self.end_word();
    }

    /// The words, in order.
    pub fn words(&self) -> impl Iterator<Item = &str> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let word = &self.words[start..end];
            start = end;
            word
        })
    }

    /// Closes the word in progress, if there is one.
    fn end_word(&mut self) {
        let end = self.words.len();
        if end > self.ends.last().copied().unwrap_or(0) {
            self.ends.push(end);
        }
    }

    /// Whether `needle`'s words occur in `self` as a contiguous run of
    /// whole words. An empty needle never matches.
    pub fn contains(&self, needle: &Normalized) -> bool {
        let n = needle.ends.len();
        if n == 0 || n > self.ends.len() {
            return false;
        }
        let mut start = 0;
        for window in self.ends.windows(n) {
            // Same bytes and the same boundaries inside them: "ab c" must
            // not match "a bc".
            if self.words[start..window[n - 1]] == needle.words
                && window
                    .iter()
                    .zip(&needle.ends)
                    .all(|(h, e)| h - start == *e)
            {
                return true;
            }
            start = window[0];
        }
        false
    }
}

/// Returns `true` if `needle` occurs in `haystack` as a contiguous sequence
/// of whole words, under the text system's normalization (case-folded
/// alphanumeric words). An empty needle never matches.
///
/// This normalizes both strings on every call. A loop that compares one
/// string many times builds its [`Normalized`] form once instead.
///
/// ```
/// use textjoin_rel::strmatch::contains_term;
/// assert!(contains_term("Belief Update, revisited", "belief UPDATE"));
/// assert!(!contains_term("Belief-free Updating", "belief update"));
/// assert!(!contains_term("disbelief update", "belief update"));
/// ```
pub fn contains_term(haystack: &str, needle: &str) -> bool {
    Normalized::new(haystack).contains(&Normalized::new(needle))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_wildcards() {
        assert!(like("Gravano", "Gra%"));
        assert!(like("Gravano", "%van%"));
        assert!(like("Gravano", "G_avano"));
        assert!(!like("Gravano", "gra%")); // case-sensitive
        assert!(like("", "%"));
        assert!(!like("", "_"));
        assert!(like("abc", "abc"));
        assert!(!like("abc", "ab"));
    }

    #[test]
    fn like_adjacent_percents() {
        assert!(like("abc", "%%"));
        assert!(like("abc", "a%%c"));
        assert!(like("ac", "a%c"));
    }

    /// The recursive definition `like` used to be, kept as the oracle: it
    /// is the semantics written down, exponential on `%a%a…b` patterns.
    fn like_reference(s: &str, pattern: &str) -> bool {
        fn rec(s: &[char], p: &[char]) -> bool {
            match p.split_first() {
                None => s.is_empty(),
                Some(('%', rest)) => (0..=s.len()).any(|k| rec(&s[k..], rest)),
                Some(('_', rest)) => !s.is_empty() && rec(&s[1..], rest),
                Some((&c, rest)) => s.first() == Some(&c) && rec(&s[1..], rest),
            }
        }
        let s: Vec<char> = s.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        rec(&s, &p)
    }

    #[test]
    fn like_does_not_backtrack_exponentially() {
        // The recursive matcher took 6.4 s on this string at k = 10 and
        // would not finish at k = 20.
        let s = "a".repeat(40);
        let pattern = format!("{}b", "%a".repeat(20));
        let started = std::time::Instant::now();
        assert!(!like(&s, &pattern));
        assert!(like(&s, &"%a".repeat(20)));
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn like_wildcards_over_multibyte_chars() {
        assert!(like("çà%é", "_à_é"));
        assert!(like("naïve café", "%ï%é"));
        assert!(!like("é", "__"), "`_` is one char, not one byte");
    }

    proptest::proptest! {
        /// A small alphabet makes wildcards, literal hits and near misses
        /// all common; short patterns keep the oracle polynomial enough.
        #[test]
        fn like_agrees_with_the_recursive_definition(
            s in proptest::collection::vec(proptest::sample::select(&['a', 'b', 'é', '%', '_']), 0..10),
            p in proptest::collection::vec(proptest::sample::select(&['a', 'b', 'é', '%', '_']), 0..7),
        ) {
            let (s, p): (String, String) = (s.into_iter().collect(), p.into_iter().collect());
            proptest::prop_assert_eq!(like(&s, &p), like_reference(&s, &p), "{:?} like {:?}", s, p);
        }
    }

    #[test]
    fn normalized_keeps_word_boundaries() {
        let hay = Normalized::new("ab c, a bc");
        assert!(hay.contains(&Normalized::new("AB C")));
        assert!(hay.contains(&Normalized::new("c a")));
        assert!(!hay.contains(&Normalized::new("abc")));
        assert!(!hay.contains(&Normalized::new("b c")));
        assert!(!Normalized::new("a bc").contains(&Normalized::new("ab c")));
        assert!(!hay.contains(&Normalized::new("?!")), "no words, no match");
    }

    #[test]
    fn set_reuses_the_buffers_and_forgets_the_last_string() {
        let mut n = Normalized::new("Garcia-Molina, Hector; and others");
        for s in ["O'Neil-LEE", "", "?!", "İstanbul strasse", "x"] {
            n.set(s);
            assert_eq!(n, Normalized::new(s), "{s:?}");
        }
    }

    #[test]
    fn words_are_the_folded_runs_in_order() {
        let words = |s| {
            Normalized::new(s)
                .words()
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        assert_eq!(words("O'Neil-LEE, 2nd"), ["o", "neil", "lee", "2nd"]);
        assert_eq!(words("İ ß"), ["i\u{307}", "ß"]);
        assert!(words(" ?! ").is_empty());
    }

    #[test]
    fn normalized_folds_multi_char_lowercase() {
        // 'İ' lowercases to 'i' plus a combining dot, which is not itself
        // alphanumeric: inside a fold it stays in the word (as the text
        // system's tokenizer has it), typed on its own it splits one.
        let hay = Normalized::new("İstanbul STRASSE");
        assert!(hay.contains(&Normalized::new("İSTANBUL strasse")));
        assert!(!hay.contains(&Normalized::new("istanbul")));
        let typed = Normalized::new("i\u{307}stanbul");
        assert!(!hay.contains(&typed));
        assert!(Normalized::new("i stanbul").contains(&typed));
    }

    #[test]
    fn contains_term_word_boundaries() {
        assert!(contains_term(
            "Update of Belief Networks",
            "belief networks"
        ));
        assert!(!contains_term(
            "Update of Belief Networks",
            "update networks"
        ));
        assert!(!contains_term("disbelief", "belief"));
        assert!(contains_term("A belief.", "BELIEF"));
    }

    #[test]
    fn contains_term_empty_and_longer() {
        assert!(!contains_term("abc", ""));
        assert!(!contains_term("one", "one two"));
        assert!(contains_term("one two", "one two"));
    }

    #[test]
    fn contains_term_matches_indexer_semantics() {
        // Punctuation-insensitive, like the tokenizer.
        assert!(contains_term("Garcia-Molina, H.", "garcia molina"));
    }
}
