//! Offline shim for `proptest`.
//!
//! Implements the subset of the proptest API that the simcloud test-suite
//! uses — the `proptest!` / `prop_assert*!` / `prop_oneof!` macros, the
//! [`Strategy`] trait with `prop_map`, ranges / tuples / `Just` / `any` /
//! `collection::vec` / regex-subset string strategies, and
//! [`ProptestConfig::with_cases`] — on top of a **fully deterministic** RNG.
//!
//! Differences from real proptest, by design:
//!
//! * **Determinism**: every test's RNG is seeded from a fixed workspace
//!   constant hashed with the test's `module_path!()::name`, so a run
//!   explores the same cases on every machine and every execution. There is
//!   no `PROPTEST_` environment handling and no persistence file; CI and
//!   local runs are bit-identical.
//! * **No shrinking**: a failing case reports the case number and the seed
//!   name instead of a minimized input. Re-running reproduces it exactly.
//! * **Regex strategies** support the subset actually used in-tree: char
//!   classes (`[a-c]`, ranges and literals), `.`, literals, and `{m}`,
//!   `{m,n}`, `?`, `*`, `+` quantifiers.

use std::rc::Rc;

use rand::{Rng, RngCore, SeedableRng};

/// Deterministic RNG driving all strategies. Like the real proptest, the
/// generator itself comes from the `rand` crate (here the workspace's rand
/// shim, so the two shims share one PRNG implementation).
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: rand::rngs::StdRng,
}

/// Workspace-wide base seed. Changing it re-rolls every property test's
/// cases; keep it fixed so CI failures reproduce locally.
const BASE_SEED: u64 = 0x051C_100D_2012;

impl TestRng {
    /// RNG for a named test, seeded from FNV-1a of the name mixed with
    /// `BASE_SEED`.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng {
            inner: rand::rngs::StdRng::seed_from_u64(h ^ BASE_SEED),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        RngCore::next_u64(&mut self.inner)
    }

    /// Uniform integer in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.inner.gen_range(0..n)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }
}

/// Per-block test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Failure raised by `prop_assert*!`; propagated with `?` through helper
/// functions returning `Result<(), TestCaseError>`.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    msg: String,
}

impl TestCaseError {
    /// A failed assertion.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError { msg: msg.into() }
    }

    /// A rejected case (treated as failure in this shim; `prop_assume!`
    /// skips the case without constructing one).
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError { msg: msg.into() }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for TestCaseError {}

/// A generator of values for property tests.
pub trait Strategy {
    /// Type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { strat: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// Type-erased strategy; cheap to clone.
pub struct BoxedStrategy<V>(Rc<dyn Strategy<Value = V>>);

impl<V> std::fmt::Debug for BoxedStrategy<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoxedStrategy").finish_non_exhaustive()
    }
}

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate(rng)
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    strat: S,
    f: F,
}

impl<S, F> std::fmt::Debug for Map<S, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Map").finish_non_exhaustive()
    }
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.strat.generate(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "arbitrary" strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T> std::fmt::Debug for Any<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Any").finish_non_exhaustive()
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the canonical unconstrained strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_strategy_for_uint_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
    )*};
}
impl_strategy_for_uint_range!(u8, u16, u32, u64, usize);

macro_rules! impl_strategy_for_int_range {
    ($($t:ty => $u:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
impl_strategy_for_int_range!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

macro_rules! impl_strategy_for_float_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let v = (self.start as f64
                    + rng.unit_f64() * (self.end as f64 - self.start as f64)) as $t;
                if v < self.end { v.max(self.start) } else { self.start }
            }
        }
    )*};
}
impl_strategy_for_float_range!(f32, f64);

macro_rules! impl_strategy_for_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
impl_strategy_for_tuple!(A: 0);
impl_strategy_for_tuple!(A: 0, B: 1);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Weighted choice among type-erased alternatives (`prop_oneof!`).
pub struct Union<V> {
    branches: Vec<(u32, BoxedStrategy<V>)>,
    total: u64,
}

impl<V> std::fmt::Debug for Union<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Union").finish_non_exhaustive()
    }
}

impl<V> Union<V> {
    /// Builds a union; weights must not all be zero.
    pub fn new(branches: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        let total: u64 = branches.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! needs at least one positive weight");
        Union { branches, total }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.branches {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weighted pick out of range")
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// Length specification for [`vec()`]: an exact `usize` or a range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        /// Inclusive.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec length range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec length range");
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy yielding `Vec`s of `element` with lengths in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> std::fmt::Debug for VecStrategy<S> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("VecStrategy").finish_non_exhaustive()
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.min == self.size.max {
                self.size.min
            } else {
                self.size.min + rng.below((self.size.max - self.size.min + 1) as u64) as usize
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

mod pattern {
    //! Regex-subset string generation for `&str` strategies.

    use super::TestRng;

    enum Atom {
        Class(Vec<char>),
        AnyChar,
        Literal(char),
    }

    struct Piece {
        atom: Atom,
        min: u32,
        max: u32,
    }

    /// Curated alphabet for `.`: printable ASCII plus a few multi-byte
    /// scalars so UTF-8 handling is exercised.
    const ANY_CHARS: &[char] = &[
        'a', 'b', 'c', 'x', 'y', 'z', 'A', 'Z', '0', '9', ' ', '\t', '!', '"', '#', '%', '&', '\'',
        '(', ')', '*', '+', ',', '-', '.', '/', ':', ';', '<', '=', '>', '?', '@', '[', '\\', ']',
        '^', '_', '`', '{', '|', '}', '~', 'é', 'λ', 'ж', '中', '🦀',
    ];

    fn parse(pat: &str) -> Vec<Piece> {
        let chars: Vec<char> = pat.chars().collect();
        let mut i = 0;
        let mut pieces = Vec::new();
        while i < chars.len() {
            let atom = match chars[i] {
                '[' => {
                    let mut set = Vec::new();
                    i += 1;
                    assert!(
                        chars.get(i) != Some(&'^'),
                        "[proptest shim] negated classes unsupported in {pat:?}"
                    );
                    while i < chars.len() && chars[i] != ']' {
                        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                            let (lo, hi) = (chars[i], chars[i + 2]);
                            assert!(lo <= hi, "[proptest shim] bad class range in {pat:?}");
                            for c in lo..=hi {
                                set.push(c);
                            }
                            i += 3;
                        } else {
                            set.push(chars[i]);
                            i += 1;
                        }
                    }
                    assert!(
                        i < chars.len(),
                        "[proptest shim] unterminated class in {pat:?}"
                    );
                    i += 1; // consume ']'
                    assert!(!set.is_empty(), "[proptest shim] empty class in {pat:?}");
                    Atom::Class(set)
                }
                '.' => {
                    i += 1;
                    Atom::AnyChar
                }
                '\\' => {
                    i += 1;
                    assert!(
                        i < chars.len(),
                        "[proptest shim] trailing backslash in {pat:?}"
                    );
                    let c = chars[i];
                    i += 1;
                    Atom::Literal(c)
                }
                c => {
                    assert!(
                        !"(){}*+?|$".contains(c),
                        "[proptest shim] unsupported regex syntax {c:?} in {pat:?}"
                    );
                    i += 1;
                    Atom::Literal(c)
                }
            };
            // Optional quantifier.
            let (min, max) = match chars.get(i) {
                Some('{') => {
                    let close = chars[i..].iter().position(|&c| c == '}').map_or_else(
                        || panic!("[proptest shim] unterminated quantifier in {pat:?}"),
                        |p| i + p,
                    );
                    let body: String = chars[i + 1..close].iter().collect();
                    i = close + 1;
                    match body.split_once(',') {
                        Some((lo, hi)) => (
                            lo.trim().parse().expect("bad {m,n} lower bound"),
                            hi.trim().parse().expect("bad {m,n} upper bound"),
                        ),
                        None => {
                            let n = body.trim().parse().expect("bad {m} count");
                            (n, n)
                        }
                    }
                }
                Some('?') => {
                    i += 1;
                    (0, 1)
                }
                Some('*') => {
                    i += 1;
                    (0, 8)
                }
                Some('+') => {
                    i += 1;
                    (1, 8)
                }
                _ => (1, 1),
            };
            assert!(min <= max, "[proptest shim] bad quantifier in {pat:?}");
            pieces.push(Piece { atom, min, max });
        }
        pieces
    }

    pub(crate) fn generate(pat: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse(pat) {
            let n = piece.min + rng.below((piece.max - piece.min + 1) as u64) as u32;
            for _ in 0..n {
                out.push(match &piece.atom {
                    Atom::Class(set) => set[rng.below(set.len() as u64) as usize],
                    Atom::AnyChar => ANY_CHARS[rng.below(ANY_CHARS.len() as u64) as usize],
                    Atom::Literal(c) => *c,
                });
            }
        }
        out
    }
}

impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        pattern::generate(self, rng)
    }
}

impl Strategy for String {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        pattern::generate(self, rng)
    }
}

pub mod strategy {
    //! Re-exports mirroring proptest's module layout.
    pub use super::{Any, BoxedStrategy, Just, Map, Strategy, Union};
}

pub mod test_runner {
    //! Re-exports mirroring proptest's module layout.
    pub use super::{TestCaseError, TestRng};
}

pub mod prelude {
    //! The common imports: `use proptest::prelude::*;`
    pub use super::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Defines deterministic property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let __name = concat!(module_path!(), "::", stringify!($name));
                let mut __rng = $crate::TestRng::for_test(__name);
                for __case in 0..__cfg.cases {
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    let __result: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(__e) = __result {
                        panic!(
                            "[proptest shim] {} failed at case {}/{}: {}",
                            __name,
                            __case + 1,
                            __cfg.cases,
                            __e
                        );
                    }
                }
            }
        )*
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::TestCaseError::fail(format!($($fmt)+)).into(),
            );
        }
    };
}

/// Fails the current case unless the operands are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
}

/// Fails the current case unless the operands are unequal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {} (both {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Skips the rest of the current case unless `cond` holds (this shim treats
/// the case as vacuously passing rather than resampling).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Weighted (`w => strategy`) or uniform choice among strategies with a
/// common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::for_test("fixed");
        let mut b = TestRng::for_test("fixed");
        assert_eq!(
            (0..16).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..16).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn regex_subset_generates_within_spec() {
        let mut rng = TestRng::for_test("regex");
        for _ in 0..200 {
            let s = crate::Strategy::generate(&"[a-c]{0,12}", &mut rng);
            assert!(s.chars().count() <= 12);
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            let t = crate::Strategy::generate(&".{0,200}", &mut rng);
            assert!(t.chars().count() <= 200);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn oneof_vec_map_pipeline(
            v in proptest::collection::vec(0u32..100, 1..20),
            tag in prop_oneof![2 => Just(0u8), 1 => Just(1u8)],
            s in (0usize..10, -5i64..5).prop_map(|(a, b)| a as i64 + b),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|&x| x < 100));
            prop_assert!(tag <= 1);
            prop_assert!((-5..15).contains(&s));
        }
    }

    fn helper(x: u32) -> Result<(), TestCaseError> {
        prop_assert!(x < 1000, "x was {}", x);
        Ok(())
    }

    proptest! {
        #[test]
        fn question_mark_propagates(x in 0u32..1000) {
            helper(x)?;
        }
    }

    // `proptest` path inside the macro body above refers to this crate when
    // compiled as a unit test, so alias it.
    use crate as proptest;
}
