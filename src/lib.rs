//! # psp — Predicated Software Pipelining
//!
//! A full reproduction of Milicev & Jovanovic, *"Predicated Software
//! Pipelining Technique for Loops with Conditions"* (IPPS 1998): the
//! predicate-matrix framework, the iterative scheduling technique with its
//! four elementary transformations, data-dependence-driven (and
//! profile-driven) heuristics, loop code generation with variable per-path
//! II, plus every substrate the paper assumes — a tree-VLIW machine model,
//! a cycle-accurate simulator, baseline compilers, a kernel suite, and a
//! small loop DSL.
//!
//! ## Quickstart
//!
//! ```
//! use psp::prelude::*;
//!
//! // The paper's running example, written in the mini DSL.
//! let spec = psp::lang::compile(
//!     "kernel vecmin(n, k, m; x[]) -> m {
//!         xk = x[k]; xm = x[m];
//!         if (xk < xm) { m = k; }
//!         k = k + 1;
//!         break if (k >= n);
//!     }",
//! ).unwrap();
//!
//! // Pipeline it with the PSP technique…
//! let cfg = PspConfig::default();
//! let result = pipeline_loop(&spec, &cfg).unwrap();
//! let (_min_ii, max_ii) = result.program.ii_range().unwrap();
//! assert!(max_ii <= 2, "paper Fig. 1c: II = 2");
//!
//! // …and prove it equivalent to the source loop on real data.
//! let mut state = MachineState::new(spec.n_regs, spec.n_ccs);
//! state.regs[0] = 6;                        // n
//! state.push_array(vec![5, 3, 8, 1, 9, 1]); // x
//! let (_, run) = check_equivalence(&spec, &result.program, &state, 1_000_000).unwrap();
//! assert_eq!(run.state.regs[2], 3);         // m = index of the minimum
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`ir`] | `psp-ir` | registers, operations and their register map, loops, flattening |
//! | [`predicate`] | `psp-predicate` | predicate matrices, outcome maps, IFLog |
//! | [`machine`] | `psp-machine` | tree-VLIW machine model, compiled loops |
//! | [`core`] | `psp-core` | the PSP schedule, transformations, driver, codegen |
//! | [`sim`] | `psp-sim` | reference & VLIW interpreters, equivalence, profiling |
//! | [`baselines`] | `psp-baselines` | sequential, local, unrolled, EMS modulo |
//! | [`opt`] | `psp-opt` | II lower bounds, exact branch-and-bound certifier, kernel codegen |
//! | [`kernels`] | `psp-kernels` | benchmark kernels + input generators |
//! | [`lang`] | `psp-lang` | the mini loop DSL |
//! | [`verify`] | `psp-verify` | independent validators, fuzzer, reducer |

pub use psp_baselines as baselines;
pub use psp_core as core;
pub use psp_ir as ir;
pub use psp_kernels as kernels;
pub use psp_lang as lang;
pub use psp_machine as machine;
pub use psp_opt as opt;
pub use psp_predicate as predicate;
pub use psp_sim as sim;
pub use psp_verify as verify;

/// The most common imports in one place.
pub mod prelude {
    pub use psp_baselines::{compile_local, compile_sequential, compile_unrolled, modulo_schedule};
    pub use psp_core::{generate, pipeline_loop, PspConfig, PspResult, Schedule};
    pub use psp_ir::{LoopBuilder, LoopSpec};
    pub use psp_kernels::{all_kernels, by_name, Kernel, KernelData};
    pub use psp_machine::{MachineConfig, VliwLoop};
    pub use psp_opt::{
        certify, mii_lower_bound, modulo_to_vliw, Certification, ExactConfig, ExactResult,
    };
    pub use psp_predicate::PredicateMatrix;
    pub use psp_sim::{
        check_equivalence, check_equivalence_batch, run_reference, run_vliw, BranchProfile,
        EngineKind, EquivConfig, MachineState,
    };
    pub use psp_verify::{validate_modulo, validate_schedule, validate_vliw, Violation};
}
