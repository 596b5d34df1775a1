//! g-correlated joint selectivity and fanout (paper, Section 4.2).
//!
//! Given predicates with selectivities `s_1 ≤ … ≤ s_k`, the *g-correlated*
//! model takes the joint selectivity to depend only on the `g` most
//! selective predicates: `S_{g,K} = Π_{i=1..g} s_i`. `g = 1` assumes full
//! correlation (terms co-occur; the joint equals the minimum), `g = k`
//! full independence (the joint equals the product). The joint fanout is
//! analogous with a document-count normalization:
//! `F_{g,K} = Π_{i=1..g} f_i / D^(g-1)`.

use std::borrow::Borrow;

use textjoin_obs::cmp_nan_last;

/// The `g` smallest of `xs` — at least one, at most all — multiplied in
/// ascending order, ties in the order given, and how many that was: what
/// sorting a copy and multiplying its head gives, to the bit. Each factor
/// is the least value after the previous one: a pass per factor, no copy.
fn smallest_product(xs: impl Iterator<Item = f64> + Clone, g: usize) -> (f64, usize) {
    let order = |a: &(f64, usize), b: &(f64, usize)| cmp_nan_last(a.0, b.0).then(a.1.cmp(&b.1));
    // `last` is the factor just taken, as (value, place).
    let (mut product, mut taken, mut last) = (1.0, 0, (f64::NEG_INFINITY, 0));
    while taken < g.max(1) {
        let rest = xs.clone().zip(0..).filter(|x| order(&last, x).is_lt());
        let Some(next) = rest.min_by(order) else {
            break;
        };
        (product, taken, last) = (product * next.0, taken + 1, next);
    }
    (product, taken)
}

/// Joint selectivity `S_{g,K}`: product of the `g` smallest selectivities.
/// Empty input gives 1.0 (an empty conjunction filters nothing).
pub fn joint_selectivity(
    sels: impl IntoIterator<Item: Borrow<f64>, IntoIter: Clone>,
    g: usize,
) -> f64 {
    smallest_product(sels.into_iter().map(|s| *s.borrow()), g).0
}

/// Joint fanout `F_{g,K}`: product of the `g` smallest fanouts divided by
/// `D^(g-1)`. Empty input gives `d` (no predicates match everything).
pub fn joint_fanout(
    fanouts: impl IntoIterator<Item: Borrow<f64>, IntoIter: Clone>,
    d: f64,
    g: usize,
) -> f64 {
    match smallest_product(fanouts.into_iter().map(|f| *f.borrow()), g) {
        (_, 0) => d,
        (prod, g) => prod / d.powi(g as i32 - 1),
    }
}

/// Expected *total* documents across `n` result sets, `V_{n,J} = n × F`
/// (paper, Section 4.3).
pub fn total_docs(n: f64, fanout: f64) -> f64 {
    n * fanout
}

/// Expected *distinct* documents across `n` result sets,
/// `U_{n,J} = D × (1 − (1 − F/D)^n)`, assuming terms of different tuples
/// occur independently. Clamped to `V = n × F` from above: the derivation
/// assumes an integer number of searches, and for fractional `n < 1`
/// (which estimators can produce) the raw expression would exceed the
/// total — distinct documents can never outnumber transmitted documents.
pub fn distinct_docs(n: f64, fanout: f64, d: f64) -> f64 {
    if d <= 0.0 {
        return 0.0;
    }
    let p = (fanout / d).clamp(0.0, 1.0);
    (d * (1.0 - (1.0 - p).powf(n))).min(total_docs(n, fanout))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_correlated_is_min() {
        assert!((joint_selectivity([0.5, 0.1, 0.3], 1) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn k_correlated_is_product() {
        let s = [0.5, 0.1, 0.3];
        assert!((joint_selectivity(s, 3) - 0.015).abs() < 1e-12);
        // g beyond k behaves like k.
        assert!((joint_selectivity(s, 10) - 0.015).abs() < 1e-12);
    }

    #[test]
    fn empty_predicates() {
        assert_eq!(joint_selectivity([0.0; 0], 1), 1.0);
        assert_eq!(joint_fanout([0.0; 0], 100.0, 1), 100.0);
    }

    /// The products as they were first written — sort a copy, multiply its
    /// head — kept as the reference the copy-free selection must equal.
    fn sorted_head(xs: &[f64], g: usize) -> (f64, usize) {
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let g = g.max(1).min(v.len());
        (v.iter().take(g).product(), g)
    }

    #[test]
    fn selection_equals_the_sorted_reference_bit_for_bit() {
        // Few levels, so duplicates abound; both zeros, whose sign a
        // product keeps; every g from 0 to past the length; no input.
        let levels = [0.0, -0.0, 0.1, 0.1, 0.3, 0.7, 1.0, 2.5, 1e-9, 40.0];
        let mut x = 0x5eed_u64;
        for len in 0..10 {
            for _ in 0..40 {
                let xs: Vec<f64> = (0..len)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        levels[((x >> 33) % levels.len() as u64) as usize]
                    })
                    .collect();
                for g in 0..len + 3 {
                    let (prod, taken) = sorted_head(&xs, g);
                    let d = 250.0_f64;
                    let (sel, fan) = if xs.is_empty() {
                        (1.0, d)
                    } else {
                        (prod, prod / d.powi(taken as i32 - 1))
                    };
                    assert_eq!(
                        joint_selectivity(&xs, g).to_bits(),
                        sel.to_bits(),
                        "{xs:?} g={g}"
                    );
                    assert_eq!(
                        joint_fanout(&xs, d, g).to_bits(),
                        fan.to_bits(),
                        "{xs:?} g={g}"
                    );
                    // From an iterator of values, as the formulas call it.
                    let by_value = joint_selectivity(xs.iter().copied(), g);
                    assert_eq!(by_value.to_bits(), joint_selectivity(&xs, g).to_bits());
                }
            }
        }
    }

    #[test]
    fn fanout_normalization() {
        // g=2, D=100: F = f1·f2 / D.
        let f = joint_fanout([10.0, 20.0], 100.0, 2);
        assert!((f - 2.0).abs() < 1e-12);
        // g=1: min fanout.
        assert!((joint_fanout([10.0, 20.0], 100.0, 1) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_docs_bounds() {
        let d = 1000.0;
        // One search: U = F.
        assert!((distinct_docs(1.0, 5.0, d) - 5.0).abs() < 1e-9);
        // Many searches: U < V and U ≤ D.
        let n = 500.0;
        let u = distinct_docs(n, 5.0, d);
        let v = total_docs(n, 5.0);
        assert!(u < v);
        assert!(u <= d);
        // Huge n saturates at D.
        assert!((distinct_docs(1e9, 5.0, d) - d).abs() < 1e-6);
    }

    #[test]
    fn distinct_docs_degenerate() {
        assert_eq!(distinct_docs(10.0, 5.0, 0.0), 0.0);
        assert_eq!(distinct_docs(0.0, 5.0, 100.0), 0.0);
        // Fanout larger than D clamps.
        assert!((distinct_docs(1.0, 500.0, 100.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn monotone_in_g() {
        // More independence (larger g) → smaller joint selectivity.
        let s = [0.2, 0.4, 0.9];
        let s1 = joint_selectivity(s, 1);
        let s2 = joint_selectivity(s, 2);
        let s3 = joint_selectivity(s, 3);
        assert!(s1 >= s2 && s2 >= s3);
    }
}
