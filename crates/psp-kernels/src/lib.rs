//! Kernel suite: loops with conditional branches of the kind the paper's
//! introduction motivates, each with a deterministic input generator and an
//! independent golden-result function.
//!
//! The suite substitutes for the unavailable inputs behind the paper's
//! "preliminary experimental results" (§3): every kernel is a single
//! innermost do-while loop with 1–3 IFs and a `BREAK` exit test — exactly
//! the loop class the PSP technique targets. `vecmin` is the paper's own
//! running example (§1.1).

pub mod data;
pub mod kernels;

pub use data::{KernelData, SplitMix64};
pub use kernels::{all_kernels, by_name, synthetic, Kernel};
