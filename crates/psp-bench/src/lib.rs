//! Shared helpers for the experiment binaries (`fig1` … `table_ablation`).
//! Each binary regenerates one figure or table of EXPERIMENTS.md; run them
//! all with
//! `for b in fig1 fig2 fig3 table_kernels table_cost table_resources table_gap
//! table_prob table_ablation; do cargo run -p psp-bench --bin $b --release; done`.

use psp_kernels::{Kernel, KernelData};
use psp_machine::{MachineConfig, VliwLoop};
use psp_sim::check_equivalence;

/// Measured behaviour of one compiled loop on one input.
#[derive(Debug, Clone)]
pub struct Measured {
    /// II range as a display string (`"2"` or `"2..3"`).
    pub ii: String,
    /// Dynamic body cycles.
    pub body_cycles: u64,
    /// Cycles per source iteration.
    pub cycles_per_iter: f64,
    /// Speedup over the sequential reference.
    pub speedup: f64,
}

/// Run `prog` against the kernel's reference semantics and golden results;
/// panics on any mismatch (experiments must not report wrong code).
pub fn measure(kernel: &Kernel, prog: &VliwLoop, data: &KernelData) -> Measured {
    let init = kernel.initial_state(data);
    let (golden, run) = check_equivalence(&kernel.spec, prog, &init, 1_000_000_000)
        .unwrap_or_else(|e| panic!("{} [{}]: {e}", kernel.name, prog.name));
    kernel
        .check(&run.state, data)
        .unwrap_or_else(|e| panic!("{e}"));
    Measured {
        ii: ii_string(prog),
        body_cycles: run.body_cycles,
        cycles_per_iter: run.cycles_per_iteration(),
        speedup: golden.cycles as f64 / run.body_cycles.max(1) as f64,
    }
}

/// II range of a compiled loop as a display string.
pub fn ii_string(prog: &VliwLoop) -> String {
    match prog.ii_range() {
        Some((a, b)) if a == b => format!("{a}"),
        Some((a, b)) => format!("{a}..{b}"),
        None => "-".into(),
    }
}

/// Machine label for table headers.
pub fn machine_label(m: &MachineConfig) -> String {
    format!("{}alu/{}mem/{}br", m.n_alu, m.n_mem, m.n_branch)
}

/// The synthetic scaling loop, shared by `table_cost` (driver scaling) and
/// `table_predbench` (backend scaling).
pub use psp_kernels::synthetic;

#[cfg(test)]
mod tests {
    use super::*;
    use psp_baselines::compile_sequential;

    #[test]
    fn measure_checks_and_reports() {
        let kernel = psp_kernels::by_name("vecmin").unwrap();
        let data = KernelData::random(1, 64);
        let prog = compile_sequential(&kernel.spec);
        let m = measure(&kernel, &prog, &data);
        assert_eq!(m.ii, "7..8");
        assert!((m.speedup - 1.0).abs() < 1e-9);
    }
}
