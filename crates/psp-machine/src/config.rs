//! Machine configuration: issue widths, latencies and the one rule that
//! enforces a latency ([`InFlight`]).

use psp_ir::{OpKind, Operation, RegRef};

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
    /// its result may issue. [`InFlight`] is the rule that enforces it.
    pub fn latency(&self, op: &Operation) -> u32 {
        match op.kind {
            OpKind::Load { .. } => self.load_latency,
            OpKind::Cmp { .. } | OpKind::CcAnd { .. } => self.cmp_latency,
            OpKind::Alu { .. } | OpKind::Copy { .. } | OpKind::Select { .. } => self.alu_latency,
            // Stores and control ops produce no register value.
            OpKind::Store { .. } | OpKind::If { .. } | OpKind::Break { .. } => 0,
        }
    }

    /// Whether every result is ready in the next cycle, so that nothing is
    /// ever in flight ([`InFlight`]).
    pub fn unit_latency(&self) -> bool {
        self.alu_latency <= 1 && self.cmp_latency <= 1 && self.load_latency <= 1
    }

    /// A straight line of `cycles` (the preloop) with the empty cycles the
    /// latency rule asks for: before each cycle that touches a register in
    /// flight, and at the end until nothing is in flight.
    pub fn with_waits(&self, cycles: Vec<Vec<Operation>>) -> Vec<Vec<Operation>> {
        let mut flight = InFlight::default();
        let mut out = Vec::with_capacity(cycles.len());
        for cycle in cycles {
            let wait = flight.issue(&cycle, self);
            out.extend(std::iter::repeat_with(Vec::new).take(wait as usize));
            out.push(cycle);
        }
        out.extend(std::iter::repeat_with(Vec::new).take(flight.drain() as usize));
        out
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

/// The register writes still in flight on one program path: the machine's
/// one latency rule.
///
/// A write of latency `L > 1` issued in cycle `t` lands at the start of
/// cycle `t + L`; until then its register is *in flight*. An operation
/// issues only when no register it reads or writes is in flight, so a cycle
/// that touches one first waits in empty cycles, and a path waits until
/// nothing is in flight before it takes a back edge. A cycle counts as
/// issued on a path even if a guard cancels some of its operations. At unit
/// latency nothing is ever in flight.
///
/// The schedule walk applies the rule on each path ([`InFlight::issue`],
/// [`InFlight::drain`]); code generation, which runs the walk, emits its
/// waits as empty cycles, and scoring counts them, so the two agree on
/// every path's cycles.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct InFlight(
    /// `(register, cycles until its write lands)`, at least one cycle, in
    /// register order.
    Vec<(RegRef, u32)>,
);

impl InFlight {
    /// Whether no write is in flight.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Issue one cycle of `ops` on this path: wait until no register they
    /// read or write is in flight, let the cycle pass, and put their writes
    /// slower than one cycle in flight. Returns the empty cycles waited.
    pub fn issue<'a, I>(&mut self, ops: I, m: &MachineConfig) -> u32
    where
        I: IntoIterator<Item = &'a Operation>,
        I::IntoIter: Clone,
    {
        let ops = ops.into_iter();
        let wait = if self.0.is_empty() {
            0
        } else {
            ops.clone()
                .flat_map(|op| op.defs().into_iter().chain(op.uses()))
                .filter_map(|r| self.lands_in(r))
                .max()
                .unwrap_or(0)
        };
        self.elapse(wait + 1);
        for op in ops {
            let latency = m.latency(op);
            if latency > 1 {
                for d in op.defs() {
                    // Two writes of one register in a cycle sit on two
                    // subtrees of its tree instruction.
                    match self.0.binary_search_by(|&(r, _)| r.cmp(&d)) {
                        Ok(at) => self.0[at].1 = self.0[at].1.max(latency - 1),
                        Err(at) => self.0.insert(at, (d, latency - 1)),
                    }
                }
            }
        }
        wait
    }

    /// The empty cycles a path waits before its back edge: until its last
    /// write lands.
    pub fn drain(&self) -> u32 {
        self.0.iter().map(|&(_, n)| n).max().unwrap_or(0)
    }

    /// Cycles until `r` lands, if it is in flight.
    fn lands_in(&self, r: RegRef) -> Option<u32> {
        let at = self.0.binary_search_by(|&(q, _)| q.cmp(&r)).ok()?;
        Some(self.0[at].1)
    }

    /// Let `cycles` cycles pass.
    fn elapse(&mut self, cycles: u32) {
        self.0.retain_mut(|(_, n)| {
            *n = n.saturating_sub(cycles);
            *n > 0
        });
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

    /// The paper machine with three-cycle loads.
    fn slow_loads() -> MachineConfig {
        MachineConfig {
            load_latency: 3,
            ..MachineConfig::paper_default()
        }
    }

    #[test]
    fn a_read_waits_until_its_load_lands() {
        let m = slow_loads();
        let mut flight = InFlight::default();
        assert_eq!(flight.issue(&[load(Reg(1), ArrayId(0), Reg(0))], &m), 0);
        assert_eq!(flight.drain(), 2);
        // An unrelated cycle issues at once and brings the load nearer.
        assert_eq!(flight.issue(&[add(Reg(2), Reg(3), 1i64)], &m), 0);
        assert_eq!(flight.issue(&[add(Reg(2), Reg(1), 1i64)], &m), 1);
        assert!(flight.is_empty());
    }

    #[test]
    fn a_write_waits_for_an_in_flight_write_and_a_path_drains() {
        let m = slow_loads();
        let mut flight = InFlight::default();
        flight.issue(&[load(Reg(1), ArrayId(0), Reg(0))], &m);
        assert_eq!(flight.drain(), 2);
        assert_eq!(flight.issue(&[copy(Reg(1), 0i64)], &m), 2);
        assert_eq!(flight.drain(), 0);
    }

    #[test]
    fn unit_latencies_never_wait() {
        let m = MachineConfig::paper_default();
        let mut flight = InFlight::default();
        flight.issue(&[load(Reg(1), ArrayId(0), Reg(0))], &m);
        assert!(flight.is_empty());
        assert_eq!(flight.issue(&[add(Reg(2), Reg(1), 1i64)], &m), 0);
    }

    #[test]
    fn a_straight_line_gets_its_waits_and_a_drain() {
        let ld = vec![load(Reg(1), ArrayId(0), Reg(0))];
        let use_it = vec![add(Reg(2), Reg(1), 1i64)];
        let padded = slow_loads().with_waits(vec![ld.clone(), use_it.clone(), ld.clone()]);
        let empty = Vec::new();
        assert_eq!(
            padded,
            vec![
                ld.clone(),
                empty.clone(),
                empty.clone(),
                use_it,
                ld,
                empty.clone(),
                empty
            ]
        );
        let unit = MachineConfig::paper_default().with_waits(vec![vec![], vec![]]);
        assert_eq!(unit.len(), 2);
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
