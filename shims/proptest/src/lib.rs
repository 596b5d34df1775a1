//! Workspace-local, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the slice of the proptest API its property tests
//! use: the `proptest!` macro, `Strategy` with `prop_map` /
//! `prop_recursive` / `boxed`, `prop_oneof!`, `prop::collection::vec`,
//! `prop::sample::select`, `prop::bool::ANY`, numeric-range strategies,
//! simple `"[a-z]{m,n}"` string patterns, and the `prop_assert*` macros.
//!
//! Differences from upstream, by design:
//! - generation is a seeded splitmix64 stream keyed off the test name, so
//!   every run explores the identical case sequence (CLAUDE.md requires
//!   determinism — there is deliberately no entropy source here);
//! - there is no shrinking: a failing case panics with the plain
//!   `assert!`/`assert_eq!` message for the drawn values.

use std::ops::Range;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic generator driving all strategies (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn seeded(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Seed derived from the test's name (FNV-1a) so distinct tests draw
    /// distinct — but stable — case sequences.
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng::seeded(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (n must be non-zero).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "TestRng::below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------------
// Strategy trait and combinators
// ---------------------------------------------------------------------------

/// A deterministic value generator (the shimmed `proptest::strategy::Strategy`).
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Mapped<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Mapped { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy {
            inner: Rc::new(self),
        }
    }

    /// Bounded recursive strategy: each level picks the leaf or one more
    /// application of `recurse`, so trees never exceed `depth` levels.
    /// (`_desired_size` / `_branch` are accepted for signature parity.)
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _branch: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            cur = Union::new(vec![leaf.clone(), recurse(cur).boxed()]).boxed();
        }
        cur
    }
}

/// `prop_map` adapter.
pub struct Mapped<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Mapped<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// Type-erased, cheaply clonable strategy handle.
pub struct BoxedStrategy<T> {
    inner: Rc<dyn DynStrategy<T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.inner.generate_dyn(rng)
    }
}

/// Uniform choice between strategies (backs `prop_oneof!`).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len());
        self.arms[i].generate(rng)
    }
}

// ---------------------------------------------------------------------------
// Primitive strategies
// ---------------------------------------------------------------------------

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = (rng.next_u64() as u128) % span;
                (self.start as i128 + draw as i128) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u8, u16, u32, u64, i8, i16, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// Strings matching the single supported pattern shape `[x-y]{m,n}`.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (lo, hi, min_len, max_len) = parse_char_class_pattern(self).unwrap_or_else(|| {
            panic!("unsupported string pattern {self:?} (shim supports [x-y]{{m,n}})")
        });
        let len = min_len + rng.below(max_len - min_len + 1);
        let span = (hi as u32 - lo as u32 + 1) as usize;
        (0..len)
            .map(|_| char::from_u32(lo as u32 + rng.below(span) as u32).unwrap())
            .collect()
    }
}

/// Parses `[x-y]{m,n}` into `(x, y, m, n)`.
fn parse_char_class_pattern(pat: &str) -> Option<(char, char, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let mut chars = rest.chars();
    let lo = chars.next()?;
    if chars.next()? != '-' {
        return None;
    }
    let hi = chars.next()?;
    let rest = chars.as_str().strip_prefix("]{")?;
    let body = rest.strip_suffix('}')?;
    let (m, n) = body.split_once(',')?;
    let (m, n) = (m.parse().ok()?, n.parse().ok()?);
    if lo > hi || m > n {
        return None;
    }
    Some((lo, hi, m, n))
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (S0.0)
    (S0.0, S1.1)
    (S0.0, S1.1, S2.2)
    (S0.0, S1.1, S2.2, S3.3)
}

// ---------------------------------------------------------------------------
// prop::collection / prop::sample / prop::bool
// ---------------------------------------------------------------------------

/// Length bound for `collection::vec` (exclusive upper end).
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

pub mod collection {
    use super::{SizeRange, Strategy, TestRng};

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.lo + rng.below(self.size.hi - self.size.lo);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    use super::{Strategy, TestRng};

    pub struct Select<T: 'static> {
        items: &'static [T],
    }

    pub fn select<T: Clone + 'static>(items: &'static [T]) -> Select<T> {
        assert!(!items.is_empty(), "select over empty slice");
        Select { items }
    }

    impl<T: Clone + 'static> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.items[rng.below(self.items.len())].clone()
        }
    }
}

pub mod bool {
    use super::{Strategy, TestRng};

    pub struct BoolStrategy;

    /// Either boolean, uniformly.
    pub const ANY: BoolStrategy = BoolStrategy;

    impl Strategy for BoolStrategy {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

// ---------------------------------------------------------------------------
// Config + macros
// ---------------------------------------------------------------------------

/// Run configuration (shimmed `ProptestConfig`) — only `cases` is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::TestRng::from_name(stringify!($name));
                for __case in 0..__cfg.cases {
                    let _ = __case;
                    $( let $arg = $crate::Strategy::generate(&($strat), &mut __rng); )+
                    $body
                }
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $( $crate::Strategy::boxed($s) ),+ ])
    };
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy,
        ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn ranges_and_vec_in_bounds() {
        let mut rng = TestRng::seeded(5);
        let s = prop::collection::vec(0i64..5, 1..4);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((1..4).contains(&v.len()));
            assert!(v.iter().all(|&x| (0..5).contains(&x)));
        }
    }

    #[test]
    fn string_pattern_shape() {
        let mut rng = TestRng::seeded(6);
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z]{1,5}", &mut rng);
            assert!((1..=5).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn oneof_and_recursive_terminate() {
        #[derive(Debug, Clone)]
        enum T {
            Leaf(i64),
            Node(Vec<T>),
        }
        fn depth(t: &T) -> u32 {
            match t {
                T::Leaf(_) => 1,
                T::Node(cs) => 1 + cs.iter().map(depth).max().unwrap_or(0),
            }
        }
        fn leaf_sum(t: &T) -> i64 {
            match t {
                T::Leaf(v) => *v,
                T::Node(cs) => cs.iter().map(leaf_sum).sum(),
            }
        }
        let strat = (0i64..10)
            .prop_map(T::Leaf)
            .prop_recursive(3, 16, 3, |inner| {
                prop_oneof![
                    prop::collection::vec(inner.clone(), 1..4).prop_map(T::Node),
                    (inner.clone(), inner).prop_map(|(a, b)| T::Node(vec![a, b])),
                ]
            })
            .boxed();
        let mut rng = TestRng::seeded(7);
        for _ in 0..200 {
            let t = strat.generate(&mut rng);
            assert!(depth(&t) <= 4);
            assert!((0..270).contains(&leaf_sum(&t)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Macro round-trip: args bind, asserts fire.
        #[test]
        fn macro_binds_args(xs in prop::collection::vec(0u8..4, 0..6), b in prop::bool::ANY) {
            prop_assert!(xs.len() < 6, "len {} flag {}", xs.len(), b);
            prop_assert_eq!(xs.iter().filter(|&&x| x >= 4).count(), 0);
        }
    }
}
