//! The property-test runner every suite in the workspace shares (each
//! includes this file by path): a property is a plain `#[test]` that draws
//! its inputs from a [`SplitMix64`].

use psp_kernels::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `property` on `cases` seeded cases (`None`: `PROPTEST_CASES`, else
/// 256). Case `i` draws from a stream seeded by `name`, `i` and
/// `PSP_PROPTEST_SEED` (default 0). A panicking case fails the test with
/// its name, case number and seed; rerunning with that `PSP_PROPTEST_SEED`
/// replays it.
pub fn check_cases(name: &str, cases: Option<u32>, mut property: impl FnMut(&mut SplitMix64)) {
    fn env<T: std::str::FromStr>(var: &str) -> Option<T> {
        std::env::var(var).ok()?.parse().ok()
    }
    /// FNV-1a, continuing from `h`.
    fn fnv(h: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }
    let cases = cases.or_else(|| env("PROPTEST_CASES")).unwrap_or(256);
    let seed: u64 = env("PSP_PROPTEST_SEED").unwrap_or(0);
    // Hash the name, the seed and the case number, then take one SplitMix64
    // step: unrelated streams for every (name, seed, case).
    let base = fnv(
        0xcbf2_9ce4_8422_2325,
        &[name.as_bytes(), &seed.to_le_bytes()].concat(),
    );
    for case in 0..cases {
        let mut rng = SplitMix64(SplitMix64(fnv(base, &case.to_le_bytes())).next_u64());
        if catch_unwind(AssertUnwindSafe(|| property(&mut rng))).is_err() {
            panic!("property {name} failed at case {case}: replay with PSP_PROPTEST_SEED={seed}");
        }
    }
}
