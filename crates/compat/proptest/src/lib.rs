//! Offline stand-in for the `proptest` crate (API subset).
//!
//! This build environment has no access to a crates.io registry, so the
//! workspace vendors the exact surface its property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`, range and
//! tuple strategies, a character-class string strategy,
//! [`collection::vec`], [`option::of`], [`bool::ANY`], and the
//! `proptest!` / `prop_oneof!` / `prop_assert!` / `prop_assert_eq!`
//! macros.
//!
//! Semantics: each test runs `ProptestConfig::cases` random cases from
//! a generator seeded by the test's name and a run seed, and assertion
//! failures panic like ordinary `assert!`. There is **no shrinking** and
//! no failure persistence. Instead a failing case prints its index and
//! the command that replays the run: cases are drawn in order and a
//! property stops at its first failure, so the same seed reaches the
//! same failing case again.
//!
//! Environment overrides, read when a property test starts:
//!
//! * `PROPTEST_SEED=<u64>` — the run seed (default 0). Seed 0 is the
//!   fixed per-name sequence; any other seed explores new cases.
//! * `PROPTEST_CASES=<u32>` — the number of cases, replacing every
//!   test's configured count.

pub mod test_runner {
    //! Deterministic case generation and run configuration.

    /// Per-test configuration (subset of the real type).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    /// Deterministic random source for strategies (xorshift64*).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds a generator from a test name, so each property test has
        /// a stable, reproducible case sequence.
        pub fn for_test(name: &str) -> TestRng {
            TestRng::for_test_seeded(name, 0)
        }

        /// Seeds a generator from a test name and a run seed. Seed 0 is
        /// [`TestRng::for_test`]'s sequence; other seeds give other
        /// sequences for the same test.
        pub fn for_test_seeded(name: &str, seed: u64) -> TestRng {
            // FNV-1a over the name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng {
                state: (h ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1,
            }
        }

        /// Next raw word.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }
    }

    /// Overrides a run takes from the environment (see the crate docs).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Overrides {
        /// `PROPTEST_SEED`: the run seed; 0 when unset.
        pub seed: u64,
        /// `PROPTEST_CASES`: replaces the configured case count.
        pub cases: Option<u32>,
    }

    impl Overrides {
        /// Reads `PROPTEST_SEED` and `PROPTEST_CASES`.
        /// A set but unparsable value panics, so a typo cannot silently
        /// fall back to the default run.
        pub fn from_env() -> Overrides {
            fn read<T: std::str::FromStr>(var: &str) -> Option<T> {
                let raw = std::env::var(var).ok()?;
                match raw.trim().parse() {
                    Ok(v) => Some(v),
                    Err(_) => panic!("{var}={raw:?} is not a valid number"),
                }
            }
            Overrides {
                seed: read("PROPTEST_SEED").unwrap_or(0),
                cases: read("PROPTEST_CASES"),
            }
        }
    }

    /// One property test's run: how many cases, and the replay line
    /// printed when one fails.
    #[derive(Debug, Clone)]
    pub struct CaseRunner {
        name: &'static str,
        package: &'static str,
        overrides: Overrides,
        cases: u32,
    }

    impl CaseRunner {
        /// The run of test `name` in `package` under `config`, with the
        /// environment's overrides.
        pub fn new(
            name: &'static str,
            package: &'static str,
            config: &ProptestConfig,
        ) -> CaseRunner {
            CaseRunner::with_overrides(name, package, config, Overrides::from_env())
        }

        /// The run of test `name` in `package` under `config` and
        /// explicit `overrides`.
        pub fn with_overrides(
            name: &'static str,
            package: &'static str,
            config: &ProptestConfig,
            overrides: Overrides,
        ) -> CaseRunner {
            CaseRunner {
                name,
                package,
                overrides,
                cases: overrides.cases.unwrap_or(config.cases),
            }
        }

        /// Number of cases to generate.
        pub fn cases(&self) -> u32 {
            self.cases
        }

        /// The generator for this run: cases are drawn from it in order.
        pub fn rng(&self) -> TestRng {
            TestRng::for_test_seeded(self.name, self.overrides.seed)
        }

        /// The command that re-runs this test with the same cases.
        pub fn replay_line(&self) -> String {
            let cases = self
                .overrides
                .cases
                .map_or(String::new(), |n| format!("PROPTEST_CASES={n} "));
            format!(
                "PROPTEST_SEED={} {cases}cargo test -p {} {}",
                self.overrides.seed, self.package, self.name
            )
        }

        /// A guard for running case `case`: if the case panics, dropping
        /// the guard during the unwind prints the replay line.
        pub fn guard(&self, case: u32) -> CaseGuard<'_> {
            CaseGuard { runner: self, case }
        }
    }

    /// See [`CaseRunner::guard`].
    #[derive(Debug)]
    pub struct CaseGuard<'r> {
        runner: &'r CaseRunner,
        case: u32,
    }

    impl Drop for CaseGuard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "proptest: {} failed at case {} of {}; replay with: {}",
                    self.runner.name,
                    self.case,
                    self.runner.cases,
                    self.runner.replay_line()
                );
            }
        }
    }
}

pub mod strategy {
    //! The `Strategy` trait and combinators.

    use std::ops::Range;
    use std::rc::Rc;

    use crate::test_runner::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases this strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng| self.generate(rng)))
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A type-erased strategy.
    #[derive(Clone)]
    pub struct BoxedStrategy<V>(Rc<dyn Fn(&mut TestRng) -> V>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (self.0)(rng)
        }
    }

    /// Uniform choice among alternative strategies (`prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Builds a union over `arms`; must be non-empty.
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Union<V> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let offset = (rng.next_u64() as u128) % span;
                    (self.start as i128 + offset as i128) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (rng.unit_f64() as f32) * (self.end - self.start)
        }
    }

    /// `&str` strategies are a regex subset: a single character class with
    /// a repetition count, e.g. `"[a-zA-Z0-9 ']{1,20}"`.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (chars, min, max) = parse_class_pattern(self);
            let len = min + rng.below((max - min + 1) as u64) as usize;
            (0..len)
                .map(|_| chars[rng.below(chars.len() as u64) as usize])
                .collect()
        }
    }

    /// Parses `[class]{min,max}` into (alphabet, min, max).
    fn parse_class_pattern(pattern: &str) -> (Vec<char>, usize, usize) {
        fn bad(pattern: &str) -> ! {
            panic!("unsupported string strategy pattern: {pattern:?} (shim supports only `[class]{{min,max}}`)")
        }
        let rest = pattern.strip_prefix('[').unwrap_or_else(|| bad(pattern));
        let (class, rest) = rest.split_once(']').unwrap_or_else(|| bad(pattern));
        let counts = rest
            .strip_prefix('{')
            .and_then(|r| r.strip_suffix('}'))
            .unwrap_or_else(|| bad(pattern));
        let (min, max) = counts.split_once(',').unwrap_or_else(|| bad(pattern));
        let min: usize = min.trim().parse().unwrap_or_else(|_| bad(pattern));
        let max: usize = max.trim().parse().unwrap_or_else(|_| bad(pattern));
        assert!(min <= max, "bad repetition in {pattern:?}");
        let cs: Vec<char> = class.chars().collect();
        let mut alphabet = Vec::new();
        let mut i = 0;
        while i < cs.len() {
            if i + 2 < cs.len() && cs[i + 1] == '-' {
                let (lo, hi) = (cs[i] as u32, cs[i + 2] as u32);
                assert!(lo <= hi, "bad char range in {pattern:?}");
                for c in lo..=hi {
                    alphabet.push(char::from_u32(c).unwrap());
                }
                i += 3;
            } else {
                alphabet.push(cs[i]);
                i += 1;
            }
        }
        assert!(!alphabet.is_empty(), "empty char class in {pattern:?}");
        (alphabet, min, max)
    }

    macro_rules! impl_tuple_strategy {
        ($($S:ident/$idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(S0/0);
    impl_tuple_strategy!(S0/0, S1/1);
    impl_tuple_strategy!(S0/0, S1/1, S2/2);
    impl_tuple_strategy!(S0/0, S1/1, S2/2, S3/3);
    impl_tuple_strategy!(S0/0, S1/1, S2/2, S3/3, S4/4);
    impl_tuple_strategy!(S0/0, S1/1, S2/2, S3/3, S4/4, S5/5);
}

pub mod collection {
    //! Collection strategies.

    use std::ops::Range;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Generates `Vec`s whose length is drawn from `size` (half-open,
    /// matching proptest's `Range<usize> -> SizeRange` conversion).
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Generates `None` about a quarter of the time, `Some` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod bool {
    //! `bool` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The uniform `bool` strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Uniformly random booleans.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.below(2) == 1
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::strategy::{BoxedStrategy, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Defines property tests: each `fn name(bindings) { body }` becomes a
/// `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident( $($params:tt)* ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let __runner = $crate::test_runner::CaseRunner::new(
                    stringify!($name),
                    env!("CARGO_PKG_NAME"),
                    &__config,
                );
                let mut __rng = __runner.rng();
                for __case in 0..__runner.cases() {
                    $crate::__proptest_bind!(__rng; $($params)*);
                    let __guard = __runner.guard(__case);
                    $body
                    drop(__guard);
                }
            }
        )*
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident;) => {};
    ($rng:ident; mut $var:ident in $strat:expr, $($rest:tt)*) => {
        let mut $var = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; $var:ident in $strat:expr, $($rest:tt)*) => {
        let $var = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; mut $var:ident in $strat:expr) => {
        let mut $var = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
    };
    ($rng:ident; $var:ident in $strat:expr) => {
        let $var = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
    };
}

/// Asserts a condition inside a property test (no shrinking: plain panic).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test (no shrinking: plain panic).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Uniformly chooses among alternative strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($strat) ),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_maps() {
        let mut rng = crate::test_runner::TestRng::for_test("ranges_and_maps");
        let s = (0u32..10).prop_map(|v| v * 2);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v < 20 && v % 2 == 0);
        }
    }

    #[test]
    fn string_class_pattern() {
        let mut rng = crate::test_runner::TestRng::for_test("string_class_pattern");
        let s: &'static str = "[a-c0-1 ']{2,5}";
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..=5).contains(&v.chars().count()), "{v:?}");
            assert!(v.chars().all(|c| "abc01 '".contains(c)), "{v:?}");
        }
    }

    #[test]
    fn oneof_union_covers_arms() {
        let mut rng = crate::test_runner::TestRng::for_test("oneof");
        let s = prop_oneof![(0u32..1).prop_map(|_| "a"), (0u32..1).prop_map(|_| "b")];
        let mut seen_a = false;
        let mut seen_b = false;
        for _ in 0..100 {
            match s.generate(&mut rng) {
                "a" => seen_a = true,
                _ => seen_b = true,
            }
        }
        assert!(seen_a && seen_b);
    }

    #[test]
    fn vec_and_option() {
        let mut rng = crate::test_runner::TestRng::for_test("vec_and_option");
        let s = crate::collection::vec(0u8..3, 1..4);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((1..=3).contains(&v.len()));
        }
        let o = crate::option::of(0u8..3);
        let nones = (0..400).filter(|_| o.generate(&mut rng).is_none()).count();
        assert!(nones > 40 && nones < 200, "{nones}");
    }

    #[test]
    fn seed_zero_is_the_per_name_sequence_and_other_seeds_explore() {
        use crate::test_runner::TestRng;
        let draw = |mut rng: TestRng| (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>();
        let base = draw(TestRng::for_test("t"));
        assert_eq!(draw(TestRng::for_test_seeded("t", 0)), base);
        assert_ne!(draw(TestRng::for_test_seeded("t", 1)), base);
        assert_ne!(
            draw(TestRng::for_test_seeded("t", 2)),
            draw(TestRng::for_test_seeded("t", 1))
        );
        assert_ne!(
            draw(TestRng::for_test_seeded("u", 1)),
            draw(TestRng::for_test_seeded("t", 1))
        );
    }

    #[test]
    fn overrides_set_cases_and_name_the_replay_command() {
        use crate::test_runner::{CaseRunner, Overrides};
        let config = ProptestConfig::with_cases(10);
        let plain = CaseRunner::with_overrides("t", "pkg", &config, Overrides::default());
        assert_eq!(plain.cases(), 10);
        assert_eq!(plain.replay_line(), "PROPTEST_SEED=0 cargo test -p pkg t");
        let more = Overrides {
            seed: 7,
            cases: Some(300),
        };
        let runner = CaseRunner::with_overrides("t", "pkg", &config, more);
        assert_eq!(runner.cases(), 300);
        assert_eq!(
            runner.replay_line(),
            "PROPTEST_SEED=7 PROPTEST_CASES=300 cargo test -p pkg t"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself works end to end, including `mut` bindings.
        #[test]
        fn macro_roundtrip(mut xs in crate::collection::vec(0u8..10, 0..6), flip in crate::bool::ANY) {
            if flip {
                xs.reverse();
            }
            prop_assert!(xs.len() < 6);
            prop_assert_eq!(xs.iter().filter(|&&x| x >= 10).count(), 0, "values {:?}", xs);
        }
    }
}
