//! Per-thread selection of the predicate-algebra backend.
//!
//! The packed bitplane representation (see [`crate::matrix`]) is the
//! default; the sparse `BTreeMap` representation is kept as the reference
//! implementation for differential testing and as the honest baseline of
//! the `table_predbench` experiment. The choice belongs to the calling
//! thread, so one caller's [`with_backend`] never changes the
//! representation another thread builds in; a caller that hands work to
//! other threads passes its choice along (the PSP driver runs each helper
//! trial under the caller's backend). The flag is consulted at
//! *construction* time only, by [`PredicateMatrix::universe`] — and so by
//! every constructor and every result an operation computes element-wise.
//! A packed matrix still turns sparse once a key leaves the packed window.
//! Matrices built in either mode interoperate (every operation falls back
//! to a generic element-wise path on mixed inputs), so switching backends
//! changes performance, never results. Because the flag is per thread, a
//! caller that must not run the packed algebra (the `psp-verify`
//! validators) simply computes inside `with_backend(false, ..)`.
//!
//! [`PredicateMatrix::universe`]: crate::PredicateMatrix::universe

use std::cell::Cell;

thread_local! {
    static PACKED: Cell<bool> = const { Cell::new(true) };
}

/// Whether matrices this thread constructs use the packed bitplane layout.
#[inline]
pub fn is_packed() -> bool {
    PACKED.with(Cell::get)
}

/// Run `f` with this thread's backend set to `packed`, restoring the
/// previous choice afterwards (also on unwind, so a failing test cannot
/// leak its mode).
pub fn with_backend<T>(packed: bool, f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            PACKED.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(PACKED.with(|p| p.replace(packed)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_backend_restores_previous_mode() {
        let before = is_packed();
        let inside = with_backend(!before, is_packed);
        assert_eq!(inside, !before);
        assert_eq!(is_packed(), before);
    }
}
