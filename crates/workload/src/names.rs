//! Deterministic name and vocabulary pools.
//!
//! Experiments need *seeded* synthetic data: surnames for students, faculty
//! and authors, and topic vocabulary for titles and abstracts. Names are
//! single alphanumeric tokens so they behave as one search term on both the
//! relational and the text side (the paper's examples — Gravano, Kao,
//! Radhika — are single words too).

use rand::rngs::StdRng;
use rand::Rng;

const ONSETS: &[&str] = &[
    "gra", "ka", "ra", "de", "wa", "mo", "chu", "da", "ya", "per", "li", "su", "ta", "ha", "vi",
    "no", "sa", "mi", "lu", "go", "ba", "fe", "zi", "qu", "ro",
];
const NUCLEI: &[&str] = &[
    "va", "dhi", "smi", "ler", "ri", "ma", "to", "ne", "ki", "ran", "mo", "la", "du", "pe", "sho",
];
const CODAS: &[&str] = &[
    "no", "ka", "th", "son", "dt", "an", "li", "rez", "berg", "ton", "wal", "dar", "ya", "s", "n",
];

/// Research-topic vocabulary used for titles and abstracts.
pub const TOPICS: &[&str] = &[
    "query", "optimization", "join", "text", "retrieval", "index", "inverted", "database",
    "distributed", "transaction", "semantics", "belief", "update", "revision", "filtering",
    "information", "hypertext", "storage", "concurrency", "recovery", "parallel", "object",
    "mediator", "heterogeneous", "schema", "integration", "probabilistic", "boolean", "vector",
    "ranking", "caching", "replication", "logging", "deduction", "constraint", "view",
    "materialized", "stream", "spatial", "temporal",
];

/// Draws a pronounceable, unique-ish surname. Collisions across draws are
/// possible; use [`unique_names`] when uniqueness is required.
pub(crate) fn surname(rng: &mut StdRng) -> String {
    let mut s = String::new();
    s.push_str(ONSETS[rng.gen_range(0..ONSETS.len())]);
    s.push_str(NUCLEI[rng.gen_range(0..NUCLEI.len())]);
    if rng.gen_bool(0.7) {
        s.push_str(CODAS[rng.gen_range(0..CODAS.len())]);
    }
    // Capitalize.
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => s,
    }
}

/// Draws `n` distinct surnames. Falls back to numbered suffixes once the
/// syllable space is exhausted, preserving single-token shape.
pub(crate) fn unique_names(rng: &mut StdRng, n: usize) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while out.len() < n {
        let mut name = surname(rng);
        attempts += 1;
        if attempts > 20 * (n + 10) || seen.contains(&name) {
            name = format!("{name}{}", out.len());
        }
        if seen.insert(name.clone()) {
            out.push(name);
        }
    }
    out
}

/// Draws a title of `words` topic words (may repeat across titles —
/// exactly what gives common words like 'text' a large fanout).
pub(crate) fn title(rng: &mut StdRng, words: usize) -> String {
    (0..words)
        .map(|_| TOPICS[rng.gen_range(0..TOPICS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

/// Draws an abstract-like sentence of `words` topic words.
pub(crate) fn abstract_text(rng: &mut StdRng, words: usize) -> String {
    title(rng, words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn surnames_are_single_tokens() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let s = surname(&mut rng);
            assert!(!s.is_empty());
            assert!(s.chars().all(|c| c.is_alphanumeric()), "{s:?}");
        }
    }

    #[test]
    fn unique_names_are_unique() {
        let mut rng = StdRng::seed_from_u64(2);
        let names = unique_names(&mut rng, 500);
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 500);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = unique_names(&mut StdRng::seed_from_u64(7), 10);
        let b = unique_names(&mut StdRng::seed_from_u64(7), 10);
        assert_eq!(a, b);
        let c = unique_names(&mut StdRng::seed_from_u64(8), 10);
        assert_ne!(a, c);
    }

    #[test]
    fn titles_use_topic_vocabulary() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = title(&mut rng, 4);
        assert_eq!(t.split(' ').count(), 4);
        for w in t.split(' ') {
            assert!(TOPICS.contains(&w));
        }
    }
}
