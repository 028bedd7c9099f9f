//! An offline, zero-dependency stand-in for the crates.io `proptest`
//! crate.
//!
//! The build environment for this repository has no registry access,
//! so the real `proptest` cannot be resolved. This crate implements
//! the subset of its API that the repo's property tests actually use,
//! with the same names and call shapes, so the test sources read like
//! ordinary proptest and would compile against the real crate:
//!
//! * the [`proptest!`] macro with an optional
//!   `#![proptest_config(...)]` header;
//! * [`prop_assert!`] / [`prop_assert_eq!`];
//! * range strategies (`0u8..3`, `-1.0f64..1.0`), tuples of
//!   strategies, [`collection::vec`], [`bool::ANY`], [`num`] `ANY`
//!   constants, and [`Strategy::prop_map`];
//! * [`test_runner::ProptestConfig::with_cases`].
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case panics immediately; the case
//!   number and seed are printed so the exact inputs can be replayed
//!   (generation is a pure function of the test name and case index).
//! * **Deterministic.** There is no `PROPTEST_CASES`/env handling and
//!   no persistence; `*.proptest-regressions` files are ignored.
//! * Only the strategy combinators listed above exist.

use std::ops::Range;

/// A deterministic splitmix64 generator; the entire crate's randomness.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed a generator.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift bounded sampling (Lemire); bias is far below
        // anything a 64..4096-case property test could observe.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Something that can produce random values of its `Value` type.
pub trait Strategy {
    /// The type of value generated.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f` (the only combinator the
    /// repo's tests use).
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(rng.below(span)) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};

    /// Generates `true`/`false` with equal probability.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The any-boolean strategy (mirrors `proptest::bool::ANY`).
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Numeric full-domain strategies (mirrors `proptest::num`).
pub mod num {
    macro_rules! any_mod {
        ($($m:ident: $t:ty),*) => {$(
            /// Full-domain strategy for the primitive of the same name.
            pub mod $m {
                use crate::{Strategy, TestRng};

                /// Generates any value of the type, uniformly.
                #[derive(Debug, Clone, Copy)]
                pub struct Any;

                /// The full-domain strategy constant.
                pub const ANY: Any = Any;

                impl Strategy for Any {
                    type Value = $t;
                    fn generate(&self, rng: &mut TestRng) -> $t {
                        rng.next_u64() as $t
                    }
                }
            }
        )*};
    }
    any_mod!(u8: u8, u16: u16, u32: u32, u64: u64, usize: usize);
}

/// Collection strategies (mirrors `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for vectors with lengths drawn from a range.
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// A vector of values from `elem`, with length in `len`
    /// (half-open, like `proptest::collection::vec`).
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Test-runner configuration (mirrors `proptest::test_runner`).
pub mod test_runner {
    /// How many random cases each property runs.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases to generate per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }
}

/// Everything a test needs, star-importable (mirrors
/// `proptest::prelude`).
pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest, Strategy};
}

/// Negative-control kernels for the simulator's race detector and
/// schedule-permutation fuzzer.
///
/// A detector that never fires and a fuzzer that never diverges are
/// indistinguishable from broken ones; this module provides a kernel
/// that is *known* racy, so the campaign in `spp-bench` (and ci.sh)
/// can assert the tooling actually catches something.
pub mod racy {
    use spp_core::{MemPort, SimArray};
    use spp_runtime::{Placement, Runtime, Team};

    /// Deliberately racy parallel sum: every thread read-modify-writes
    /// one shared accumulator with no gate, no in-region barrier, and
    /// no per-thread partials. On real hardware this loses updates;
    /// under the sequential replay it "works", but the accumulation
    /// order follows the replay schedule, so the race detector must
    /// flag the conflicting accesses and a schedule permutation must
    /// change the floating-point result (addition does not
    /// reassociate).
    pub fn racy_sum<P: MemPort>(rt: &mut Runtime<P>, nthreads: usize, values: &[f64]) -> f64 {
        let team = Team::place(rt.machine.config(), nthreads, &Placement::HighLocality);
        let class = team.shared_class(rt.machine.config(), 64);
        let mut acc = SimArray::from_elem(&mut rt.machine, class, 1, 0.0f64);
        acc.set_label(&mut rt.machine, "racy_acc");
        let n = values.len();
        rt.team_fork_join(&team, |ctx| {
            for i in ctx.chunk(n) {
                ctx.update(&mut acc, 0, |a| a + values[i]);
            }
        });
        acc.host()[0]
    }

    /// Mixed-magnitude values whose sum depends visibly on
    /// accumulation order: magnitudes span 2^-30..2^30 with a dense
    /// exponent spread, so reassociating the additions (any schedule
    /// permutation of [`racy_sum`], even a single swap on a 2-thread
    /// team) changes the rounding. A small discrete magnitude set is
    /// NOT enough — block-reordered folds of values drawn from a few
    /// fixed scales frequently round to identical bits.
    pub fn adversarial_values(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = crate::TestRng::new(seed);
        (0..n)
            .map(|_| {
                let exp = rng.unit_f64() * 60.0 - 30.0;
                (rng.unit_f64() - 0.5) * exp.exp2()
            })
            .collect()
    }
}

/// FNV-1a over the test's identifying string: the per-test seed base,
/// so each property gets an independent, stable stream.
pub fn seed_for(name: &str) -> u64 {
    spp_core::fnv1a(name.as_bytes())
}

/// Assert inside a property (no shrinking: behaves like `assert!` with
/// case context added by the harness).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assert inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Define property tests. Supports the standard shape:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u32..100, v in proptest::collection::vec(0u8..4, 1..20)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!{ @with ($cfg) $($rest)* }
    };
    (@with ($cfg:expr)
        $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let base = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    let mut rng = $crate::TestRng::new(base.wrapping_add(case as u64));
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| $body),
                    );
                    if let Err(payload) = outcome {
                        eprintln!(
                            "[proptest shim] property {} failed at case {case} \
                             (seed base {base:#x})",
                            stringify!($name)
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!{
            @with ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3u8..9, y in 0u64..1, f in -2.0f64..2.0) {
            prop_assert!((3..9).contains(&x));
            prop_assert_eq!(y, 0);
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn vec_lengths_in_range(v in crate::collection::vec(0u32..10, 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
            prop_assert!(v.iter().all(|e| *e < 10));
        }

        #[test]
        fn tuples_and_map(p in (0u16..4, crate::bool::ANY).prop_map(|(a, b)| (a as u32, b))) {
            prop_assert!(p.0 < 4);
        }
    }

    #[test]
    fn seed_for_is_pinned() {
        // Every property's case stream starts here: moving this value
        // would silently change which inputs each property sees.
        assert_eq!(
            crate::seed_for("snapshot_fuzz::byte_flips"),
            0x2972_7648_3387_5942
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = crate::collection::vec(0u64..1000, 10..20);
        let one: Vec<u64> = crate::Strategy::generate(&strat, &mut crate::TestRng::new(42));
        let two: Vec<u64> = crate::Strategy::generate(&strat, &mut crate::TestRng::new(42));
        assert_eq!(one, two);
    }

    #[test]
    fn full_domain_u64_hits_high_bits() {
        let mut rng = crate::TestRng::new(7);
        let any = crate::num::u64::ANY;
        let saw_high = (0..64).any(|_| crate::Strategy::generate(&any, &mut rng) > u64::MAX / 2);
        assert!(saw_high);
    }

    #[test]
    fn racy_sum_is_flagged_by_the_detector() {
        use spp_core::Machine;
        use spp_runtime::Runtime;
        let mut rt = Runtime::new(Machine::spp1000(1).with_race_detection());
        let values = crate::racy::adversarial_values(64, 1);
        crate::racy::racy_sum(&mut rt, 4, &values);
        let report = rt.machine.race_report();
        assert!(report.total_races > 0, "negative control not flagged");
        assert!(
            report.races.iter().any(|r| r.array == "racy_acc"),
            "findings resolve to the accumulator: {report}"
        );
    }

    #[test]
    fn racy_sum_diverges_under_a_permuted_schedule() {
        use spp_runtime::{Runtime, SchedulePolicy};
        let values = crate::racy::adversarial_values(256, 2);
        let identity = crate::racy::racy_sum(&mut Runtime::spp1000(1), 8, &values);
        let reversed = crate::racy::racy_sum(
            &mut Runtime::spp1000(1).with_schedule(SchedulePolicy::Reversed),
            8,
            &values,
        );
        assert_ne!(
            identity.to_bits(),
            reversed.to_bits(),
            "schedule permutation must change the racy sum"
        );
    }
}
