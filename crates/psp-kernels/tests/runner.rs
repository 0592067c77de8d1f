//! The shared property-test runner itself: per-name, per-case streams and
//! the report of a failing case.

mod cases;

use cases::check_cases;

fn first_draws(name: &str) -> Vec<u64> {
    let mut draws = Vec::new();
    check_cases(name, Some(4), |rng| draws.push(rng.next_u64()));
    draws
}

#[test]
fn streams_are_fixed_per_name_and_distinct_per_case() {
    let a = first_draws("a");
    assert_eq!(a, first_draws("a"));
    assert_ne!(a, first_draws("b"));
    assert!(a.windows(2).all(|w| w[0] != w[1]), "{a:?}");
}

#[test]
#[should_panic(expected = "property fails_at_two failed at case 2: replay with PSP_PROPTEST_SEED=")]
fn a_failing_case_names_the_test_the_case_and_the_seed() {
    let mut case = 0;
    check_cases("fails_at_two", Some(4), |_| {
        assert_ne!(case, 2);
        case += 1;
    });
}
