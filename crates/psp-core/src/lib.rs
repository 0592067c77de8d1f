//! Predicated Software Pipelining (PSP) — the paper's primary contribution.
//!
//! The crate separates the three concepts the paper names in §3:
//!
//! * **the framework** ([`instance`], [`schedule`], [`deps`], [`codegen`]):
//!   operations of the loop body live in a single flat schedule as
//!   *operation instances* — `(operation, index, formal predicate matrix)` —
//!   with control flow encoded implicitly in the matrices. The framework
//!   defines dependence testing modulo disjoint matrices, the IFLog link
//!   between predicates and the IF instances computing them, and the loop
//!   code generation algorithm that reconstructs a control-flow graph
//!   (with variable per-path II) from an encoded schedule;
//! * **the technique** ([`transform`], [`compact`], [`driver`]): iterative
//!   application of the four elementary transformations — *split*, *unify*,
//!   *moveup* (including wrapping across the loop boundary, which is what
//!   produces software pipelining and the preloop), and *movedown* — with
//!   candidate generation directed at shortening the II (the driver
//!   proposes wraps and splits) and no backtracking;
//! * **the heuristics** ([`heuristics`]): candidate scoring driven by data
//!   dependencies, plus the paper's §4 extension — scoring by the expected
//!   mean dynamic II under profiled path probabilities.

pub mod codegen;
pub mod compact;
pub mod deps;
pub mod driver;
pub mod heuristics;
pub mod instance;
pub mod json;
pub mod preloop;
pub mod schedule;
pub mod transform;

pub use codegen::{generate, CodegenError};
pub use driver::{pipeline_loop, PhaseTimes, PspConfig, PspResult, PspStats};
pub use instance::{InstId, Instance};
pub use schedule::Schedule;
pub use transform::{MoveError, Transformation};
