//! Machine configuration: issue widths and latencies.

use psp_ir::{OpKind, Operation};

/// Resource and latency parameters of the tree-VLIW target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// ALU/compare/move operations per cycle.
    pub n_alu: u32,
    /// Memory operations (LOAD/STORE) per cycle.
    pub n_mem: u32,
    /// Branch operations (IF/BREAK) per tree instruction.
    pub n_branch: u32,
    /// Cycles from an ALU/COPY/SELECT producer to its consumer (1 = next
    /// cycle).
    pub alu_latency: u32,
    /// Cycles from a compare to a consumer of its condition register.
    pub cmp_latency: u32,
    /// Cycles from a LOAD to a consumer of the loaded register.
    pub load_latency: u32,
    /// Whether LOADs may execute speculatively (above a controlling IF).
    /// The simulated memory never faults, so this is safe; turning it off
    /// models a machine without speculative loads (`pspc --no-spec-loads`,
    /// `tests/cross_technique.rs`).
    pub speculative_loads: bool,
}

impl MachineConfig {
    /// The configuration used for the paper's Figure 1: "sufficient
    /// parallelism in the hardware" — wide issue, unit latencies.
    pub fn paper_default() -> Self {
        Self {
            n_alu: 8,
            n_mem: 4,
            n_branch: 4,
            alu_latency: 1,
            cmp_latency: 1,
            load_latency: 1,
            speculative_loads: true,
        }
    }

    /// A narrower, more realistic machine used in resource-sensitivity
    /// experiments.
    pub fn narrow(n_alu: u32, n_mem: u32, n_branch: u32) -> Self {
        Self {
            n_alu,
            n_mem,
            n_branch,
            ..Self::paper_default()
        }
    }

    /// A strictly sequential machine: one operation per cycle.
    ///
    /// Modeled as one ALU *or* one memory *or* one branch op per cycle;
    /// the sequential baseline additionally refrains from packing.
    pub fn sequential() -> Self {
        Self {
            n_alu: 1,
            n_mem: 1,
            n_branch: 1,
            ..Self::paper_default()
        }
    }

    /// Producer latency of `op`: the number of cycles before a consumer of
    /// its result may issue.
    pub fn latency(&self, op: &Operation) -> u32 {
        match op.kind {
            OpKind::Load { .. } => self.load_latency,
            OpKind::Cmp { .. } | OpKind::CcAnd { .. } => self.cmp_latency,
            OpKind::Alu { .. } | OpKind::Copy { .. } | OpKind::Select { .. } => self.alu_latency,
            // Stores and control ops produce no register value.
            OpKind::Store { .. } | OpKind::If { .. } | OpKind::Break { .. } => 0,
        }
    }

    /// Limit for a resource class.
    pub fn limit(&self, class: psp_ir::ResClass) -> u32 {
        match class {
            psp_ir::ResClass::Alu => self.n_alu,
            psp_ir::ResClass::Mem => self.n_mem,
            psp_ir::ResClass::Branch => self.n_branch,
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_ir::op::build::*;
    use psp_ir::{ArrayId, CcReg, CmpOp, Reg, ResClass};

    #[test]
    fn paper_default_is_wide_and_unit_latency() {
        let m = MachineConfig::paper_default();
        assert!(m.n_alu >= 3 && m.n_mem >= 2 && m.n_branch >= 2);
        assert_eq!(m.alu_latency, 1);
        assert_eq!(m.cmp_latency, 1);
    }

    #[test]
    fn latencies_by_kind() {
        let m = MachineConfig::paper_default();
        assert_eq!(m.latency(&add(Reg(0), Reg(1), Reg(2))), 1);
        assert_eq!(m.latency(&cmp(CmpOp::Lt, CcReg(0), Reg(0), Reg(1))), 1);
        assert_eq!(m.latency(&load(Reg(0), ArrayId(0), Reg(1))), 1);
        assert_eq!(m.latency(&store(ArrayId(0), Reg(1), Reg(0))), 0);
        assert_eq!(m.latency(&if_(CcReg(0))), 0);
        assert_eq!(m.latency(&break_(CcReg(0))), 0);
    }

    #[test]
    fn limits_map_to_classes() {
        let m = MachineConfig::narrow(2, 1, 1);
        assert_eq!(m.limit(ResClass::Alu), 2);
        assert_eq!(m.limit(ResClass::Mem), 1);
        assert_eq!(m.limit(ResClass::Branch), 1);
    }

    #[test]
    fn load_latency_is_configurable() {
        let m = MachineConfig {
            load_latency: 2,
            ..MachineConfig::paper_default()
        };
        assert_eq!(m.latency(&load(Reg(0), ArrayId(0), Reg(1))), 2);
    }
}
