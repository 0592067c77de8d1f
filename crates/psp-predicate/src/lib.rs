//! Predicate matrices for Predicated Software Pipelining.
//!
//! This crate implements the formal core of Milicev & Jovanovic's PSP
//! framework (IPPS 1998): execution paths through a loop with conditional
//! branches are represented by *predicate matrices*. A matrix has one row per
//! IF operation of the original loop body and one (conceptually infinite)
//! column per iteration, indexed relative to the *current* transformed
//! iteration (column `0` = current, `-1` = previous, `+1` = next). Each
//! element is one of `1` (the IF took its True outcome), `0` (False), or `b`
//! ("both" — the path set is unconstrained at that predicate).
//!
//! A single matrix denotes the (infinite) set of all concrete execution
//! paths consistent with its constrained elements; the default element is
//! `b`, so the empty matrix denotes *all* paths. An operation's *formal*
//! path set is one matrix; its *actual* path set, wider when it executes
//! speculatively, is the union of the matrices of the generated blocks it
//! is placed in. Nothing computes with that union as a value: code
//! generation labels each block with one matrix, and the validators check
//! speculation by enumerating concrete outcomes ([`OutcomeMap`] and
//! [`PredicateMatrix::admits`]).
//!
//! The crate provides the set operations the scheduler and code generator
//! rely on:
//!
//! * [`PredicateMatrix::conjoin`] — intersection of two path sets (or `None`
//!   when they are *disjoined*, i.e. contain complementary elements);
//! * [`PredicateMatrix::is_disjoint`] — the test that exempts operation
//!   pairs from dependence analysis;
//! * [`PredicateMatrix::subsumes`] — the superset relation used to link
//!   loop-back edges during code generation;
//! * [`PredicateMatrix::shifted`] — column shift applied when an operation
//!   instance moves across the loop boundary;
//! * [`PredicateMatrix::split`] — the elementary *split* transformation on
//!   one `b` element;
//! * [`IfLog`] — the auxiliary structure tracing where IF instances are
//!   scheduled, which links predicates to the operations that compute them.
//!
//! Two interchangeable matrix layouts back this API: packed bitplanes (the
//! default — set algebra as word ops over a fixed row/column window) and
//! the original sparse `BTreeMap`, kept as the reference for the
//! validators and for differential testing. A matrix is built in its
//! thread's backend and is packed only while every key fits the window;
//! past it, it is sparse. See [`matrix`] for the layouts and that rule,
//! [`backend`] for the per-thread construction-time switch, and [`stats`]
//! for the per-thread predicate-op counters behind the driver's
//! `PspStats.pred`.

pub mod backend;
pub mod elem;
pub mod iflog;
pub mod matrix;
pub mod outcome;
pub mod stats;

pub use elem::PredElem;
pub use iflog::{IfLog, IfLogEntry, PredAvailability};
pub use matrix::{PredKey, PredicateMatrix};
pub use outcome::OutcomeMap;
pub use stats::PredOpStats;
