//! Pre-decoded steady-state loops.
//!
//! The `step_cycle` interpreters re-match `Operation` enums and re-resolve
//! registers, guards, and branch successors on every simulated cycle. This
//! module lowers a program *once* into packed micro-op streams, with every
//! register/cc/array index, guard, and branch target resolved to plain
//! integers, and runs the steady state of a run in one of three `unsafe`
//! loops, each kept because it measurably pays on the benchmark workloads:
//! `superloop` (single-block self-loops), `vliw_dispatchloop`
//! (multi-block CFGs), and `ref_fusedloop` (a source iteration as one
//! predicated stream). Their unchecked indexing pays too: a build with
//! plain checked indexing in `exec_pop_g` and `ref_fusedloop` lost all 8
//! alternating E12 `kernels` pairs on a 2-vCPU VM (median `jobs_per_s`
//! 61.6 → 49.4, −20%; median `job_p50_ms` 15.7 → 20.0 ms, +27%). No other
//! file may hold `unsafe` code (`tests/repo_hygiene.rs`).
//!
//! Every other cycle runs on the interpreters, which continue the run on
//! the same state with the carried counters (`reference::run_iterations`;
//! `vliw_run::run_prologue`, `run_body` and `run_epilogue`): prologue and
//! epilogue cycles, states below the program's static demand, programs
//! that fit no fast loop, and the budget tail after a fast loop stops. A
//! fast loop runs only while the state meets the demand and the remaining
//! budget covers a whole step (a source iteration or a VLIW block), so it
//! stops at an iteration boundary or at the head of a non-empty block,
//! where no condition-register snapshot is pending, and the handoff is
//! exact. A VLIW loop that stops short always leaves the interpreter a
//! block longer than the remaining budget, whose only `BREAK` sits in its
//! last cycle, so that run ends in an error at the interpreter's exact
//! cycle.
//!
//! The three loops are **bit-identical** to the interpreters by
//! construction: evaluation order, the order in which faulting stores
//! report, cycle and iteration counting, and the pre-cycle
//! condition-register snapshot for branch dispatch are replicated exactly.
//! That contract is enforced by the differential suites
//! (`tests/engine_differential.rs`, `tests/sim_edge_cases.rs`); the
//! interpreters remain the only generic evaluator and the only engine the
//! psp-verify validators use, mirroring the packed-vs-sparse predicate
//! split.

use crate::reference::{run_iterations, RefRun};
use crate::state::{Effect, MachineState, SimError};
use crate::vliw_run::{run_body, run_epilogue, run_prologue, VliwCounts, VliwRun};
use psp_ir::{Item, LoopSpec, OpKind, Operand, Operation};
use psp_machine::{VliwLoop, VliwTerm};

/// `flags`: operand `a` is an immediate (else a register index).
const A_IMM: u8 = 1;
/// `flags`: operand `b` is an immediate.
const B_IMM: u8 = 2;
/// `flags`: memory access has no index register.
const NO_INDEX: u8 = 4;
/// `flags`: a guarded op runs when its guard cc is true (else when false).
const G_TRUE: u8 = 8;

/// A statically-known storage slot a micro-op reads or writes, for the
/// decode-time hazard analysis behind cycle fusion. Memory is tracked at
/// array granularity: element indices are runtime values, so any two
/// accesses of the same array are conservatively assumed to alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Gpr(u32),
    Cc(u32),
    Arr(u32),
}

/// Flat single-level opcodes: ALU and compare sub-opcodes are
/// pre-expanded so dispatch is one jump, not two. Values mirror the
/// declaration order of [`psp_ir::AluOp`] and [`psp_ir::CmpOp`].
mod fop {
    pub const ADD: u8 = 0;
    pub const SUB: u8 = 1;
    pub const MUL: u8 = 2;
    pub const MIN: u8 = 3;
    pub const MAX: u8 = 4;
    pub const AND: u8 = 5;
    pub const OR: u8 = 6;
    pub const XOR: u8 = 7;
    pub const SHL: u8 = 8;
    pub const SHR: u8 = 9;
    pub const CMP_LT: u8 = 10;
    pub const CMP_LE: u8 = 11;
    pub const CMP_GT: u8 = 12;
    pub const CMP_GE: u8 = 13;
    pub const CMP_EQ: u8 = 14;
    pub const CMP_NE: u8 = 15;
    pub const COPY: u8 = 16;
    pub const SELECT: u8 = 17;
    pub const CCAND: u8 = 18;
    pub const LOAD: u8 = 19;
    pub const STORE: u8 = 20;
    pub const BREAK: u8 = 21;
    pub const IF: u8 = 22;
    /// Guarded variants live at `opc | GBASE`: guardedness is folded into
    /// the opcode at decode time so the unguarded specialisation of
    /// [`super::exec_pop`] carries no guard load, no `take` computation
    /// and no write selects at all. The guard cc is `POp::guard` and its
    /// polarity the `G_TRUE` flag, so every cc index can be a guard.
    pub const GBASE: u8 = 32;
}

/// One decoded micro-op: a single 32-byte record (one cache line holds
/// two), read by the decode-time hazard and demand analyses and run by
/// [`exec_pop`]. The three steady-state loops run streams of them.
///
/// Field use per opcode (unused fields are zero):
///
/// | opcode  | `dst`        | `a`            | `b`        | `aux`            |
/// |---------|--------------|----------------|------------|------------------|
/// | ALU/CMP | dest reg/cc  | operand        | operand    | —                |
/// | COPY    | dest reg     | operand        | —          | —                |
/// | SELECT  | dest reg     | true operand   | false op.  | selecting cc     |
/// | CCAND   | dest cc      | cc `a`         | cc `b`     | required values  |
/// | LOAD    | dest reg     | index reg      | disp       | array            |
/// | STORE   | index reg    | source operand | disp       | array            |
/// | IF      | tested cc    | —              | —          | —                |
/// | BREAK   | tested cc    | —              | —          | —                |
#[derive(Debug, Clone, Copy)]
struct POp {
    opc: u8,
    flags: u8,
    guard: u32,
    dst: u32,
    aux: u32,
    a: i64,
    b: i64,
}

/// Read an operand without a bounds check.
///
/// # Safety
/// `v` must index into `regs` when `imm` is false (guaranteed when the
/// state meets the program's static demand).
#[inline(always)]
unsafe fn opnd(regs: &[i64], v: i64, imm: bool) -> i64 {
    if imm {
        v
    } else {
        debug_assert!((v as usize) < regs.len());
        unsafe { *regs.get_unchecked(v as usize) }
    }
}

/// Out-of-line fault constructor: `format!` machinery in the hot
/// function costs more than the branch that guards it.
#[cold]
#[inline(never)]
fn store_fault(aux: u32, elem: i64, len: usize) -> SimError {
    SimError::BadStore(format!("a{aux}[{elem}] out of bounds (len {len})"))
}

/// Branch-free select: `if take { v } else { old }` lowered to mask
/// arithmetic so the compiler emits a conditional move, never a
/// data-dependent branch (guard condition registers hold random trial
/// data, so a branch here mispredicts constantly).
#[inline(always)]
fn sel_i64(take: bool, v: i64, old: i64) -> i64 {
    let m = -(take as i64);
    (v & m) | (old & !m)
}

#[inline(always)]
fn sel_bool(take: bool, v: bool, old: bool) -> bool {
    (take & v) | (!take & old)
}

/// Evaluate one packed micro-op and apply its effect in place, returning
/// whether a `BREAK` fired. The fused fast path: no pending-effect buffer,
/// no write-conflict checks, no bounds checks on register/cc/array
/// access, and **branch-free predication** — pure ops compute
/// unconditionally and the guard selects between the new value and the
/// old slot contents (a squashed op rewrites the value already there,
/// which is unobservable), stores select between the real element and a
/// dummy stack slot. The
/// state is passed as pre-split slices so the loops driving a packed
/// stream keep the data pointers in registers instead of reloading them
/// from `MachineState` on every op.
///
/// # Safety
/// The caller must have established that (a) the state meets the
/// program's static [`Demand`] — every register/cc/array index the op can
/// touch is covered by [`POp::read_slots`]/[`POp::write_slot`], so all of
/// them are in bounds and unconditional evaluation of a squashed op
/// cannot fault — and (b) the op runs sequentially ([`ref_fusedloop`]) or
/// inside a block stream built from [`fuse_order`]-scheduled cycles ([`superloop`],
/// [`vliw_dispatchloop`]), so immediate commits are unobservable within
/// the cycle (a squashed op's old-value rewrite is a no-op on the slot's
/// current contents either way). Out-of-bounds stores are the only
/// reachable error, raised in the same order with the same message as
/// [`MachineState::effect_of`].
///
/// `inline(always)`: the only callers are those three steady-state loops;
/// an outlined call returns `Result<bool, SimError>` through memory (the
/// error variant is a `String`), which roughly doubles per-op cost.
#[inline(always)]
unsafe fn exec_pop(
    p: &POp,
    regs: &mut [i64],
    ccs: &mut [bool],
    arrays: &mut [Vec<i64>],
) -> Result<bool, SimError> {
    // Guardedness is part of the opcode (`fop::GBASE`): this branch is a
    // per-op constant in a periodic stream, so it predicts, and each side
    // monomorphises to a specialised body — the unguarded one has no
    // guard load, no `take`, and blind destination stores (a predicated
    // write would turn them into read-modify-write chains).
    if p.opc < fop::GBASE {
        unsafe { exec_pop_g::<false>(p, p.opc, regs, ccs, arrays) }
    } else {
        unsafe { exec_pop_g::<true>(p, p.opc - fop::GBASE, regs, ccs, arrays) }
    }
}

/// The guardedness-specialised body of [`exec_pop`]; `opc` is the base
/// opcode with `GBASE` already stripped.
///
/// # Safety
/// As [`exec_pop`].
#[inline(always)]
unsafe fn exec_pop_g<const GD: bool>(
    p: &POp,
    opc: u8,
    regs: &mut [i64],
    ccs: &mut [bool],
    arrays: &mut [Vec<i64>],
) -> Result<bool, SimError> {
    // The cc *value* only ever feeds `take` as data: squashing is mask
    // selection, never a branch (guards carry random trial data).
    let take = if GD {
        let g = p.guard as usize;
        debug_assert!(g < ccs.len());
        unsafe { *ccs.get_unchecked(g) == (p.flags & G_TRUE != 0) }
    } else {
        true
    };
    let gd = GD;
    let dst = p.dst as usize;
    if opc <= fop::CMP_NE {
        let (x, y) = unsafe {
            (
                opnd(regs, p.a, p.flags & A_IMM != 0),
                opnd(regs, p.b, p.flags & B_IMM != 0),
            )
        };
        if opc <= fop::SHR {
            let v = match opc {
                fop::ADD => x.wrapping_add(y),
                fop::SUB => x.wrapping_sub(y),
                fop::MUL => x.wrapping_mul(y),
                fop::MIN => x.min(y),
                fop::MAX => x.max(y),
                fop::AND => x & y,
                fop::OR => x | y,
                fop::XOR => x ^ y,
                fop::SHL => x.wrapping_shl((y & 63) as u32),
                _ => x.wrapping_shr((y & 63) as u32),
            };
            debug_assert!(dst < regs.len());
            unsafe {
                let slot = regs.get_unchecked_mut(dst);
                *slot = if gd { sel_i64(take, v, *slot) } else { v };
            }
        } else {
            let v = match opc {
                fop::CMP_LT => x < y,
                fop::CMP_LE => x <= y,
                fop::CMP_GT => x > y,
                fop::CMP_GE => x >= y,
                fop::CMP_EQ => x == y,
                _ => x != y,
            };
            debug_assert!(dst < ccs.len());
            unsafe {
                let slot = ccs.get_unchecked_mut(dst);
                *slot = if gd { sel_bool(take, v, *slot) } else { v };
            }
        }
        return Ok(false);
    }
    match opc {
        fop::COPY => {
            debug_assert!(dst < regs.len());
            unsafe {
                let v = opnd(regs, p.a, p.flags & A_IMM != 0);
                let slot = regs.get_unchecked_mut(dst);
                *slot = if gd { sel_i64(take, v, *slot) } else { v };
            }
        }
        fop::SELECT => {
            // The interpreter reads only the taken operand; here both are
            // in bounds, so reading both is unobservable — and the
            // data-dependent cc select becomes a conditional move.
            debug_assert!((p.aux as usize) < ccs.len() && dst < regs.len());
            unsafe {
                let c = *ccs.get_unchecked(p.aux as usize);
                let va = opnd(regs, p.a, p.flags & A_IMM != 0);
                let vb = opnd(regs, p.b, p.flags & B_IMM != 0);
                let v = sel_i64(c, va, vb);
                let slot = regs.get_unchecked_mut(dst);
                *slot = if gd { sel_i64(take, v, *slot) } else { v };
            }
        }
        fop::CCAND => {
            // The interpreter's `&&` short-circuit is unobservable here
            // (both reads are in bounds), so evaluate both conjuncts.
            debug_assert!((p.a as usize) < ccs.len() && (p.b as usize) < ccs.len());
            debug_assert!(dst < ccs.len());
            unsafe {
                let v = (*ccs.get_unchecked(p.a as usize) == (p.aux & 1 != 0))
                    & (*ccs.get_unchecked(p.b as usize) == (p.aux & 2 != 0));
                let slot = ccs.get_unchecked_mut(dst);
                *slot = if gd { sel_bool(take, v, *slot) } else { v };
            }
        }
        fop::LOAD => {
            let idx = if p.flags & NO_INDEX != 0 {
                0
            } else {
                debug_assert!((p.a as usize) < regs.len());
                unsafe { *regs.get_unchecked(p.a as usize) }
            };
            let elem = idx.wrapping_add(p.b);
            debug_assert!((p.aux as usize) < arrays.len());
            let data = unsafe { arrays.get_unchecked(p.aux as usize) };
            // `elem < 0` folds into the unsigned compare; OOB loads read 0
            // (speculative loads never fault), making LOAD total here.
            let inb = (elem as usize) < data.len();
            let v = if inb {
                unsafe { *data.get_unchecked(elem as usize) }
            } else {
                0
            };
            debug_assert!(dst < regs.len());
            unsafe {
                let slot = regs.get_unchecked_mut(dst);
                *slot = if gd { sel_i64(take, v, *slot) } else { v };
            }
        }
        fop::STORE => {
            let idx = if p.flags & NO_INDEX != 0 {
                0
            } else {
                debug_assert!(dst < regs.len());
                unsafe { *regs.get_unchecked(dst) }
            };
            let elem = idx.wrapping_add(p.b);
            debug_assert!((p.aux as usize) < arrays.len());
            let data = unsafe { arrays.get_unchecked_mut(p.aux as usize) };
            let inb = (elem as usize) < data.len();
            if gd {
                if take & !inb {
                    return Err(store_fault(p.aux, elem, data.len()));
                }
                // The memory write itself cannot be value-selected (a
                // squashed store's element index may be garbage), so
                // select the *target*: the real element when taken, a
                // dummy stack slot when squashed. The wrapping pointer
                // offset is computed but never dereferenced on the
                // squashed path.
                let mut dummy = 0i64;
                let tgt = if take {
                    data.as_mut_ptr().wrapping_add(elem as usize)
                } else {
                    &mut dummy as *mut i64
                };
                unsafe {
                    *tgt = opnd(regs, p.a, p.flags & A_IMM != 0);
                }
            } else {
                if !inb {
                    return Err(store_fault(p.aux, elem, data.len()));
                }
                unsafe {
                    *data.get_unchecked_mut(elem as usize) = opnd(regs, p.a, p.flags & A_IMM != 0);
                }
            }
        }
        fop::BREAK => {
            debug_assert!(dst < ccs.len());
            return Ok(take & unsafe { *ccs.get_unchecked(dst) });
        }
        // fop::IF — the cc read can no longer fault (demand is met) and
        // VLIW code records no outcomes, so IF is a no-op here.
        _ => {}
    }
    Ok(false)
}

/// The self-loop fast path of [`DecodedVliw::run`]: iterate a uniformly
/// self-succeeding merged block as one fused stream until a BREAK fires
/// or the next iteration could overrun the budget, returning whether it
/// broke and adding the cycles and back edges it ran to `c`. The
/// head/tail split and inter-stream cc snapshot of [`vliw_dispatchloop`]
/// vanish here: `merged` eligibility keeps BREAKs out of the head (every
/// other opcode returns `false`), and the snapshot only feeds terminator
/// dispatch, which a uniform self-successor never reads.
/// Outlined deliberately: the enclosing run loop keeps a dozen values
/// live, and inlining this loop there makes the register allocator spill
/// the stream cursors and state pointers on every micro-op — measured at
/// nearly 2× the per-op cost.
///
/// # Safety
/// Same preconditions as [`exec_pop`]: the state meets the program's
/// static demand and the stream is a `fuse_order` schedule.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
unsafe fn superloop(
    body: &[POp],
    regs: &mut [i64],
    ccs: &mut [bool],
    arrays: &mut [Vec<i64>],
    n: u64,
    back: u64,
    max_cycles: u64,
    c: &mut VliwCounts,
) -> Result<bool, SimError> {
    let mut broke = false;
    let mut cycles = c.body_cycles;
    let mut iters = c.iterations;
    while !broke && cycles.saturating_add(n) <= max_cycles {
        for p in body {
            // SAFETY: forwarded from the caller.
            broke |= unsafe { exec_pop(p, regs, ccs, arrays) }?;
        }
        cycles += n;
        // A breaking iteration does not dispatch the terminator, so it
        // takes no back edge.
        iters += (!broke) as u64 * back;
    }
    // An error return skips the write-back: errors discard all state, so
    // only error identity matters.
    c.total_cycles += cycles - c.body_cycles;
    c.body_cycles = cycles;
    c.iterations = iters;
    Ok(broke)
}

/// Exit reason of [`vliw_dispatchloop`].
enum DispatchExit {
    /// A BREAK fired or an `Exit` terminator was dispatched; the body is
    /// complete.
    Done,
    /// The next block could overrun the budget: the interpreter continues
    /// at the head of this block for exact per-cycle accounting.
    Bail(usize),
}

/// The multi-block fast path of [`DecodedVliw::run`]: iterate a CFG whose
/// non-empty blocks are all `merged` (checked once at decode as
/// `dispatch_ok`), each block one straight-line stream, with the budget
/// check hoisted to one comparison per block and no malformedness tests.
/// This is where condition-carrying loops live — PSP lowers their
/// conditions to data-dependent block succession, so the interpreter's
/// per-cycle bookkeeping is pure overhead paid on every source iteration.
/// Starts at the head of block `bi` with no snapshot pending and adds the
/// cycles and back edges it runs to `c`. Same outlining rationale as
/// [`superloop`].
///
/// # Safety
/// Same preconditions as [`exec_pop`]: the state meets the program's
/// static demand (terminator ccs included) and the streams are
/// `fuse_order` schedules. `snap` must cover the cc demand.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
unsafe fn vliw_dispatchloop(
    blocks: &[DBlock],
    pexec: &[POp],
    snap: &mut [bool],
    regs: &mut [i64],
    ccs: &mut [bool],
    arrays: &mut [Vec<i64>],
    mut bi: usize,
    max_cycles: u64,
    c: &mut VliwCounts,
) -> Result<DispatchExit, SimError> {
    let mut cycles = c.body_cycles;
    let mut iters = c.iterations;
    let mut snapped = false;
    let exit = loop {
        let block = &blocks[bi];
        let n = block.n_cycles;
        if cycles.saturating_add(n) > max_cycles {
            // Only a non-empty block can land here (an empty one adds no
            // cost), so no snapshot is pending for the interpreter.
            break DispatchExit::Bail(bi);
        }
        if let Some((head_lo, tail_lo, tail_hi)) = block.merged {
            for p in &pexec[head_lo as usize..tail_lo as usize] {
                // SAFETY: forwarded from the caller.
                unsafe { exec_pop(p, regs, ccs, arrays) }?;
            }
            for &cc in &block.snap_ccs {
                snap[cc as usize] = ccs[cc as usize];
            }
            snapped = true;
            let mut broke = false;
            for p in &pexec[tail_lo as usize..tail_hi as usize] {
                // SAFETY: as above.
                broke |= unsafe { exec_pop(p, regs, ccs, arrays) }?;
            }
            cycles += n;
            if broke {
                break DispatchExit::Done;
            }
        }
        let succ = match block.term {
            DTerm::Jump(s) => s,
            DTerm::Branch { cc, t, f } => {
                let v = if snapped {
                    snap[cc as usize]
                } else {
                    // Entry dispatch before any body cycle: committed
                    // state is the right one (demand keeps it in bounds).
                    ccs[cc as usize]
                };
                DSucc::sel(v, t, f)
            }
            DTerm::Exit => break DispatchExit::Done,
        };
        iters += succ.back();
        bi = succ.tgt();
    };
    // An error return skips the write-back: errors discard all state.
    c.total_cycles += cycles - c.body_cycles;
    c.body_cycles = cycles;
    c.iterations = iters;
    Ok(exit)
}

/// The fast path of [`DecodedRef::run`] for a body that collapsed to a
/// [`FusedRef`]: one pop stream per iteration, zero
/// instruction dispatch, costs and loop exits settled by a post-walk read
/// of path predicates. Every budget check is hoisted behind the program's
/// [`DecodedRef::iter_cost_bound`]. Returns `true` when a `BREAK` fired
/// (the run is complete) and `false` when the remaining budget no longer
/// guarantees a checkless iteration — the interpreter then finishes from
/// the carried counters with exact per-item checks and raises any
/// exhaustion error at its exact cycle. Outlined for the same
/// register-pressure reason as [`superloop`]. `ccs` is the scratch buffer
/// described on [`FusedRef`], not the machine state's cc file.
///
/// # Safety
/// Same preconditions as [`exec_pop`], with sequential execution;
/// additionally every `terms`/`breaks` cc must be within `ccs`
/// ([`FusedRef::cc_len`] covers them).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
unsafe fn ref_fusedloop(
    pops: &[POp],
    terms: &[CostTerm],
    breaks: &[u32],
    base_cost: u64,
    regs: &mut [i64],
    ccs: &mut [bool],
    arrays: &mut [Vec<i64>],
    iter_cost_bound: u64,
    max_cycles: u64,
    cycles: &mut u64,
    iterations: &mut u64,
) -> Result<bool, SimError> {
    let mut cyc = *cycles;
    let mut iters = *iterations;
    let mut broke = false;
    while !broke && cyc.saturating_add(iter_cost_bound) <= max_cycles {
        iters += 1;
        for p in pops {
            // SAFETY: forwarded from the caller; stray BREAK results from
            // bare `Item::Op` wrappers are discarded, and untaken region
            // arms are squashed by their (possibly synthetic) guards.
            unsafe { exec_pop(p, regs, ccs, arrays) }?;
        }
        cyc += base_cost;
        for t in terms {
            // SAFETY: `cc_len` covers every cost cc; the builder only
            // reads a cc directly when nothing after its test point can
            // rewrite it, and routes every other path through a synthetic
            // conjunction cc that is written exactly once per iteration.
            let v = unsafe { *ccs.get_unchecked(t.cc as usize) };
            cyc += (v == t.pol) as u64 * t.len;
        }
        for &bc in breaks {
            // SAFETY: as above; each entry is `reached AND tested-cc` for
            // one `Break`, already conjoined with its reach path.
            broke |= unsafe { *ccs.get_unchecked(bc as usize) };
        }
    }
    // An error return skips the write-back: errors discard all state.
    *cycles = cyc;
    *iterations = iters;
    Ok(broke)
}

fn operand_parts(o: Operand) -> (i64, bool) {
    match o {
        Operand::Reg(r) => (r.0 as i64, false),
        Operand::Imm(v) => (v, true),
    }
}

impl POp {
    /// Lower one source operation.
    fn new(op: &Operation) -> POp {
        let (opc, dst, a, b, aux, flags) = match op.kind {
            OpKind::Alu { op: o, dst, a, b } => {
                let (av, ai) = operand_parts(a);
                let (bv, bi) = operand_parts(b);
                let f = if ai { A_IMM } else { 0 } | if bi { B_IMM } else { 0 };
                (fop::ADD + o as u8, dst.0, av, bv, 0, f)
            }
            OpKind::Copy { dst, src } => {
                let (av, ai) = operand_parts(src);
                (fop::COPY, dst.0, av, 0, 0, if ai { A_IMM } else { 0 })
            }
            OpKind::Select {
                dst,
                cc,
                on_true,
                on_false,
            } => {
                let (av, ai) = operand_parts(on_true);
                let (bv, bi) = operand_parts(on_false);
                let f = if ai { A_IMM } else { 0 } | if bi { B_IMM } else { 0 };
                (fop::SELECT, dst.0, av, bv, cc.0, f)
            }
            OpKind::Cmp { op: o, dst, a, b } => {
                let (av, ai) = operand_parts(a);
                let (bv, bi) = operand_parts(b);
                let f = if ai { A_IMM } else { 0 } | if bi { B_IMM } else { 0 };
                (fop::CMP_LT + o as u8, dst.0, av, bv, 0, f)
            }
            OpKind::CcAnd {
                dst,
                a,
                a_val,
                b,
                b_val,
            } => {
                let aux = a_val as u32 | (b_val as u32) << 1;
                (fop::CCAND, dst.0, a.0 as i64, b.0 as i64, aux, 0)
            }
            OpKind::Load { dst, addr } => {
                let (idx, f) = match addr.index {
                    Some(r) => (r.0 as i64, 0),
                    None => (0, NO_INDEX),
                };
                (fop::LOAD, dst.0, idx, addr.disp, addr.array.0, f)
            }
            OpKind::Store { src, addr } => {
                let (av, ai) = operand_parts(src);
                let (idx, f) = match addr.index {
                    Some(r) => (r.0, 0),
                    None => (0, NO_INDEX),
                };
                let f = f | if ai { A_IMM } else { 0 };
                (fop::STORE, idx, av, addr.disp, addr.array.0, f)
            }
            OpKind::If { cc } => (fop::IF, cc.0, 0, 0, 0, 0),
            OpKind::Break { cc } => (fop::BREAK, cc.0, 0, 0, 0, 0),
        };
        let mut p = POp {
            opc,
            flags,
            guard: 0,
            dst,
            aux,
            a,
            b,
        };
        if let Some(g) = op.guard {
            p.set_guard(g.cc.0, g.on_true);
        }
        p
    }

    /// Guard the op on `cc` holding `on_true`.
    fn set_guard(&mut self, cc: u32, on_true: bool) {
        self.guard = cc;
        self.flags |= if on_true { G_TRUE } else { 0 };
        self.opc |= fop::GBASE;
    }

    /// The guard cc and the value it must hold, if the op is guarded.
    fn guard(&self) -> Option<(u32, bool)> {
        (self.opc & fop::GBASE != 0).then_some((self.guard, self.flags & G_TRUE != 0))
    }

    /// The opcode with guardedness stripped.
    fn base(&self) -> u8 {
        self.opc & !fop::GBASE
    }

    /// The slot the op writes when it commits (`None` for pure control
    /// ops). Guards are ignored: a squashed write is a subset of the
    /// conservative answer.
    fn write_slot(&self) -> Option<Slot> {
        match self.base() {
            fop::ADD..=fop::SHR | fop::COPY | fop::SELECT | fop::LOAD => Some(Slot::Gpr(self.dst)),
            fop::CMP_LT..=fop::CMP_NE | fop::CCAND => Some(Slot::Cc(self.dst)),
            fop::STORE => Some(Slot::Arr(self.aux)),
            _ => None,
        }
    }

    /// Every slot the op may read: guard cc, register/cc operands, index
    /// registers, loaded arrays. Conservative — `SELECT` counts both
    /// operands even though only the taken one is read at runtime.
    fn read_slots(&self) -> Vec<Slot> {
        let mut r = Vec::new();
        if let Some((cc, _)) = self.guard() {
            r.push(Slot::Cc(cc));
        }
        let a_reg = (self.flags & A_IMM == 0).then_some(Slot::Gpr(self.a as u32));
        let b_reg = (self.flags & B_IMM == 0).then_some(Slot::Gpr(self.b as u32));
        let indexed = self.flags & NO_INDEX == 0;
        match self.base() {
            fop::ADD..=fop::CMP_NE => r.extend(a_reg.into_iter().chain(b_reg)),
            fop::COPY => r.extend(a_reg),
            fop::SELECT => {
                r.push(Slot::Cc(self.aux));
                r.extend(a_reg.into_iter().chain(b_reg));
            }
            fop::CCAND => r.extend([Slot::Cc(self.a as u32), Slot::Cc(self.b as u32)]),
            fop::LOAD => {
                r.extend(indexed.then_some(Slot::Gpr(self.a as u32)));
                r.push(Slot::Arr(self.aux));
            }
            fop::STORE => {
                r.extend(indexed.then_some(Slot::Gpr(self.dst)));
                r.extend(a_reg);
            }
            _ => r.push(Slot::Cc(self.dst)),
        }
        r
    }

    /// Whether this op and `other` are guarded on opposite senses of the
    /// same condition register, so at most one of them ever executes in a
    /// given cycle — unless the write under consideration targets that
    /// very cc, in which case a fused commit could flip the other op's
    /// guard mid-cycle and the exclusion no longer holds.
    fn guards_disjoint_for(&self, other: &POp, w: Slot) -> bool {
        match (self.guard(), other.guard()) {
            (Some((ci, pi)), Some((cj, pj))) => ci == cj && pi != pj && w != Slot::Cc(ci),
            _ => false,
        }
    }
}

/// Try to order the parallel cycle `ops` so it can run as one fused
/// eval-and-commit pass with pre-cycle read semantics intact.
///
/// Every pair where one op writes a slot another reads gets a
/// *reader-runs-first* constraint (a fused commit must not leak into a
/// same-cycle read), pairs writing the same slot cannot fuse at all (the
/// fused pass performs no write-conflict detection), and pairs with
/// statically disjoint guards are exempt from both — at runtime one of
/// them is always squashed. Stores additionally keep their original
/// relative order so a batch of faulting stores reports the same first
/// error as the interpreter's evaluate-then-commit cycle (on a state that
/// meets the demand, stores are the only ops that can fault).
///
/// Returns the op execution order, or `None` when the constraints are
/// cyclic (software-pipelined kernels in this repo never are, but the
/// fuzzer's adversarial programs can be).
fn fuse_order(ops: &[POp]) -> Option<Vec<usize>> {
    let n = ops.len();
    if n > 64 {
        return None;
    }
    // pred[j]: bitmask of cycle-local ops that must run before op j.
    let mut pred = vec![0u64; n];
    for (i, pi) in pred.iter_mut().enumerate() {
        let Some(w) = ops[i].write_slot() else {
            continue;
        };
        for (j, oj) in ops.iter().enumerate() {
            if j == i || ops[i].guards_disjoint_for(oj, w) {
                continue;
            }
            if oj.write_slot() == Some(w) {
                return None;
            }
            if oj.read_slots().contains(&w) {
                *pi |= 1 << j;
            }
        }
    }
    let mut last_store: Option<usize> = None;
    for (i, pi) in pred.iter_mut().enumerate() {
        if ops[i].base() == fop::STORE {
            if let Some(p) = last_store {
                *pi |= 1 << p;
            }
            last_store = Some(i);
        }
    }
    // Kahn's algorithm by repeated in-order sweeps: hazard-free cycles
    // come out in identity order.
    let mut order = Vec::with_capacity(n);
    let mut placed = 0u64;
    while order.len() < n {
        let before = order.len();
        for (i, &p) in pred.iter().enumerate() {
            if placed & (1 << i) == 0 && p & !placed == 0 {
                placed |= 1 << i;
                order.push(i);
            }
        }
        if order.len() == before {
            return None; // cyclic constraints
        }
    }
    Some(order)
}

/// Append one VLIW block's cycles to `pexec` as a single straight-line
/// stream, each cycle in its [`fuse_order`] with `IF` no-ops dropped, and
/// return `(head_lo, tail_lo, tail_hi)`: the last cycle starts at
/// `tail_lo`, so the caller can snapshot terminator ccs between head and
/// tail. `None` — nothing appended — when the block is empty, a cycle has
/// no hazard-free order, or a BREAK precedes the last cycle (a BREAK exits
/// after its own cycle).
fn merge_block(cycles: &[Vec<POp>], pexec: &mut Vec<POp>) -> Option<(u32, u32, u32)> {
    let (_, head) = cycles.split_last()?;
    if head.iter().flatten().any(|p| p.base() == fop::BREAK) {
        return None;
    }
    let orders: Vec<Vec<usize>> = cycles
        .iter()
        .map(|c| fuse_order(c))
        .collect::<Option<_>>()?;
    let head_lo = pexec.len() as u32;
    let mut tail_lo = head_lo;
    for (i, (cycle, order)) in cycles.iter().zip(&orders).enumerate() {
        if i == head.len() {
            tail_lo = pexec.len() as u32;
        }
        pexec.extend(
            order
                .iter()
                .map(|&k| cycle[k])
                .filter(|p| p.base() != fop::IF),
        );
    }
    Some((head_lo, tail_lo, pexec.len() as u32))
}

/// Smallest register/cc/array file sizes under which every static index
/// of a program's micro-ops is in bounds. A run whose state meets this
/// demand can never raise a `BadRegister` error (and loads can never
/// fault), which licenses the unchecked indexing in [`exec_pop`] and the
/// store-only fault ordering of [`fuse_order`]; a fast loop runs only
/// then.
#[derive(Debug, Clone, Copy, Default)]
struct Demand {
    regs: u32,
    ccs: u32,
    arrays: u32,
}

impl Demand {
    /// Raise the demand to cover every slot `p` touches. Saturating: an
    /// index of `u32::MAX` demands a file no state has, where a wrapped
    /// `+ 1` would demand nothing and let the fast loops index past it.
    fn add(&mut self, p: &POp) {
        for s in p.write_slot().into_iter().chain(p.read_slots()) {
            let (need, i) = match s {
                Slot::Gpr(r) => (&mut self.regs, r),
                Slot::Cc(c) => (&mut self.ccs, c),
                Slot::Arr(a) => (&mut self.arrays, a),
            };
            *need = (*need).max(i.saturating_add(1));
        }
    }

    fn met_by(&self, st: &MachineState) -> bool {
        self.regs as usize <= st.regs.len()
            && self.ccs as usize <= st.ccs.len()
            && self.arrays as usize <= st.arrays.len()
    }
}

/// Reusable per-thread execution scratch: the interpreters' effect buffer,
/// the dispatch loop's condition-register snapshot, and the fused
/// reference loop's cc buffer. One `Scratch` serves any number of runs of
/// any number of programs.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    effects: Vec<Effect>,
    snap: Vec<bool>,
    /// Scratch cc buffer for [`FusedRef`] runs (real ccs plus synthetic
    /// path predicates).
    fccs: Vec<bool>,
}

/// Cycle/iteration counters of a decoded reference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefCounts {
    /// Completed iterations (the iteration in which `BREAK` fires counts).
    pub iterations: u64,
    /// Total sequential cycles.
    pub cycles: u64,
}

/// One conditional cycle-count correction for [`FusedRef`]: after the pop
/// walk, `len` cycles are charged iff cc `cc` reads as `pol`. Selected
/// arithmetically — these predicates carry random data, and a branch here
/// would mispredict constantly.
#[derive(Debug, Clone, Copy)]
struct CostTerm {
    cc: u32,
    pol: bool,
    len: u64,
}

/// A whole source iteration collapsed to one straight-line predicated
/// micro-op stream — the paper's if-conversion applied to the reference
/// engine itself. The builder walks the structured item tree and guards
/// every region op on its *path predicate*: the tested cc directly for a
/// top-level `If` arm whose condition nothing later can rewrite, or a
/// synthetic conjunction cc (a `CCAND` micro-op materialised at exactly
/// the source test point, indexed above the program's real cc space)
/// for nested arms, rewritten conditions, and code following a mid-body
/// `Break` (predicated on the break not having fired). Guards squash the
/// untaken side, so the executor needs zero instruction dispatch;
/// per-iteration cost is `base_cost` plus one [`CostTerm`] read per
/// conditional region, and the loop exits when any `breaks` cc — each
/// already `reached AND tested` — reads true after the walk.
///
/// Synthetic ccs spill past the machine state's cc file, so the fast
/// path runs against a scratch cc buffer of at least `cc_len` slots
/// (real ccs copied in before, committed back after).
#[derive(Debug, Clone)]
struct FusedRef {
    /// The iteration's pop stream: source ops re-lowered with path guards,
    /// plus synthetic `CCAND`s.
    pops: Vec<POp>,
    /// Cycles charged unconditionally: every op and test on the
    /// always-reached spine of the body.
    base_cost: u64,
    terms: Box<[CostTerm]>,
    /// Loop-exit predicates, one per `Break` item.
    breaks: Box<[u32]>,
    /// Scratch cc buffer demand (real cc demand plus synthetics).
    cc_len: u32,
}

/// Condition registers syntactically written anywhere in `items`, as a
/// bitmask. `None` when a written cc is ≥ 64 (fusion bails; no kernel
/// comes close).
fn cc_writes_mask(items: &[Item]) -> Option<u64> {
    let mut m = 0u64;
    for item in items {
        match item {
            Item::Op(op) => {
                if let OpKind::Cmp { dst, .. } | OpKind::CcAnd { dst, .. } = op.kind {
                    if dst.0 >= 64 {
                        return None;
                    }
                    m |= 1u64 << dst.0;
                }
            }
            Item::If(f) => {
                m |= cc_writes_mask(&f.then_items)? | cc_writes_mask(&f.else_items)?;
            }
            Item::Break(_) => {}
        }
    }
    Some(m)
}

/// Builder for [`FusedRef`]: one recursive walk over the item tree,
/// emitting guarded pops and accumulating the cost/exit algebra.
struct FusedBuilder {
    ops: Vec<POp>,
    base_cost: u64,
    terms: Vec<CostTerm>,
    breaks: Vec<u32>,
    /// Next synthetic cc index; starts above the real program's demand.
    next_cc: u32,
}

impl FusedBuilder {
    /// Emit `dst := (a.0 == a.1) && (b.0 == b.1)` into a fresh synthetic
    /// cc at the current stream position and return it (polarity true).
    fn synth(&mut self, a: (u32, bool), b: (u32, bool)) -> (u32, bool) {
        let dst = self.next_cc;
        self.next_cc += 1;
        self.ops.push(POp {
            opc: fop::CCAND,
            flags: 0,
            guard: 0,
            dst,
            aux: a.1 as u32 | (b.1 as u32) << 1,
            a: a.0 as i64,
            b: b.0 as i64,
        });
        (dst, true)
    }

    /// The path predicate for an `If` arm: conjoin `path` with `(cc,
    /// pol)`. Reads the tested cc directly only when the path is empty
    /// AND no op syntactically after the test (`later`, arms included)
    /// rewrites it — otherwise the value must be captured at test time
    /// into a synthetic cc (`cc && cc` doubles as a snapshot copy).
    fn compose(
        &mut self,
        path: Option<(u32, bool)>,
        cc: u32,
        pol: bool,
        later: u64,
    ) -> (u32, bool) {
        match path {
            None if cc < 64 && later & (1u64 << cc) == 0 => (cc, pol),
            None => self.synth((cc, pol), (cc, pol)),
            Some(p) => self.synth(p, (cc, pol)),
        }
    }

    /// Charge `n` cycles on the current path (unconditional → base cost;
    /// adjacent same-path charges coalesce into one term).
    fn cost(&mut self, path: Option<(u32, bool)>, n: u64) {
        match path {
            None => self.base_cost += n,
            Some((cc, pol)) => {
                if let Some(t) = self.terms.last_mut() {
                    if t.cc == cc && t.pol == pol {
                        t.len += n;
                        return;
                    }
                }
                self.terms.push(CostTerm { cc, pol, len: n });
            }
        }
    }

    /// Lower `items` under path predicate `path`. `after` is the cc-write
    /// mask of everything syntactically following this slice at enclosing
    /// levels; `top` marks the outermost level, the only place a `Break`
    /// may appear (a break nested in an arm would need its own arm-local
    /// reach algebra — no kernel has one, so fusion bails instead).
    fn emit(
        &mut self,
        items: &[Item],
        path: Option<(u32, bool)>,
        after: u64,
        top: bool,
    ) -> Option<()> {
        let mut suffix = vec![0u64; items.len() + 1];
        for (k, item) in items.iter().enumerate().rev() {
            suffix[k] = suffix[k + 1] | cc_writes_mask(std::slice::from_ref(item))?;
        }
        // The path only evolves at top level, where each `Break` conjoins
        // "didn't fire" onto everything after it.
        let mut cur = path;
        for (k, item) in items.iter().enumerate() {
            let later = after | suffix[k + 1];
            match item {
                Item::Op(op) => {
                    // A source guard under a path predicate would need a
                    // three-way conjunction; none of the kernels guard ops
                    // inside regions, so bail rather than model it.
                    if cur.is_some() && op.guard.is_some() {
                        return None;
                    }
                    let mut p = POp::new(op);
                    if let Some((cc, pol)) = cur {
                        p.set_guard(cc, pol);
                    }
                    self.ops.push(p);
                    self.cost(cur, 1);
                }
                Item::If(f) => {
                    self.cost(cur, 1);
                    let arm_w = cc_writes_mask(&f.then_items)? | cc_writes_mask(&f.else_items)?;
                    let later_full = later | arm_w;
                    // Both arm predicates are materialised *before* either
                    // arm's ops: a then-arm write to the tested cc must not
                    // leak into the else predicate's conjunction.
                    let tg = (!f.then_items.is_empty())
                        .then(|| self.compose(cur, f.cc.0, true, later_full));
                    let eg = (!f.else_items.is_empty())
                        .then(|| self.compose(cur, f.cc.0, false, later_full));
                    if let Some(tg) = tg {
                        self.emit(&f.then_items, Some(tg), later, false)?;
                    }
                    if let Some(eg) = eg {
                        self.emit(&f.else_items, Some(eg), later, false)?;
                    }
                }
                Item::Break(brk) => {
                    if !top {
                        return None;
                    }
                    self.cost(cur, 1);
                    let cc = brk.cc.0;
                    let clob = cc >= 64 || later & (1u64 << cc) != 0;
                    // fired := reached && cc. With `cur = reached`, the
                    // path for the rest of the body is `reached && !fired
                    // = reached && !cc`, which a single conjunction (or
                    // the untouched cc itself at top level) expresses.
                    cur = Some(match (cur, clob) {
                        (None, false) => {
                            self.breaks.push(cc);
                            (cc, false)
                        }
                        (p, _) => {
                            let fired = match p {
                                None => self.synth((cc, true), (cc, true)),
                                Some(p) => self.synth(p, (cc, true)),
                            };
                            self.breaks.push(fired.0);
                            (fired.0, false)
                        }
                    });
                }
            }
        }
        Some(())
    }
}

impl FusedRef {
    /// Attempt to collapse `spec`'s body. `real_cc_demand` is the decoded
    /// program's cc demand — synthetic predicates are allocated above it.
    fn build(spec: &LoopSpec, real_cc_demand: u32) -> Option<FusedRef> {
        let mut b = FusedBuilder {
            ops: Vec::new(),
            base_cost: 0,
            terms: Vec::new(),
            breaks: Vec::new(),
            next_cc: real_cc_demand,
        };
        b.emit(&spec.items, None, 0, true)?;
        let mut demand = Demand::default();
        b.ops.iter().for_each(|p| demand.add(p));
        Some(FusedRef {
            pops: b.ops,
            base_cost: b.base_cost,
            terms: b.terms.into_boxed_slice(),
            breaks: b.breaks.into_boxed_slice(),
            // Break/term ccs are either real (< real demand, which covers
            // every tested cc) or synthetic (< next_cc).
            cc_len: demand.ccs.max(b.next_cc).max(real_cc_demand),
        })
    }
}

/// A [`LoopSpec`] decoded for the fused reference loop.
#[derive(Debug, Clone)]
pub struct DecodedRef {
    spec: LoopSpec,
    /// Static demand of the body, tested ccs included; [`ref_fusedloop`]
    /// runs only when the grown state meets it (arrays included: the
    /// branch-free [`exec_pop`] evaluates squashed loads/stores
    /// unconditionally, which must not fault on a missing array).
    demand: Demand,
    /// Worst-case costed cycles of one source iteration (every item
    /// executed). While at least this much budget remains, an iteration
    /// cannot trip any budget check, so the fused loop hoists them all.
    iter_cost_bound: u64,
    /// The iteration as one fused pop stream, when the body shape allows.
    fused: Option<FusedRef>,
}

impl DecodedRef {
    /// Decode a spec. Decoding never fails; anything the interpreter would
    /// reject at runtime is rejected identically at decoded runtime.
    pub fn decode(spec: &LoopSpec) -> Self {
        // Every item costs one cycle, and `If`/`Break` items appear as
        // IF/BREAK operations, so their tested ccs join the demand.
        let ops = spec.all_ops();
        let mut demand = Demand::default();
        ops.iter().for_each(|(op, _)| demand.add(&POp::new(op)));
        DecodedRef {
            spec: spec.clone(),
            demand,
            iter_cost_bound: ops.len() as u64,
            fused: FusedRef::build(spec, demand.ccs),
        }
    }

    /// Execute until `BREAK`, at most `max_cycles` costed items, with
    /// [`crate::reference::run_reference`]'s state growth and budget
    /// placement. Whole iterations run in the fused loop when the body
    /// fused and the state meets the demand; the interpreter runs the rest.
    pub fn run(
        &self,
        st: &mut MachineState,
        scr: &mut Scratch,
        max_cycles: u64,
    ) -> Result<RefCounts, SimError> {
        st.grow(self.spec.n_regs, self.spec.n_ccs);
        let mut cycles: u64 = 0;
        let mut iterations: u64 = 0;
        // A zero bound means a costless body, which the interpreter runs
        // (and diverges on) identically.
        if let Some(f) = self
            .fused
            .as_ref()
            .filter(|_| self.demand.met_by(st) && self.iter_cost_bound > 0)
        {
            // The fused stream's synthetic predicates live above the
            // body's cc demand, so it runs against a scratch cc buffer:
            // the demanded ccs in, walk, the same ccs back out. A state's
            // ccs past the demand are never the body's, and keep their
            // values. Errors skip the write-back — they discard all state
            // anyway.
            let real = self.demand.ccs as usize;
            scr.fccs.clear();
            scr.fccs.extend_from_slice(&st.ccs[..real]);
            scr.fccs.resize(f.cc_len as usize, false);
            let MachineState { regs, arrays, .. } = &mut *st;
            // SAFETY: the state meets the static demand (which covers
            // every tested condition register), the buffer meets
            // `cc_len`, and execution is sequential.
            let broke = unsafe {
                ref_fusedloop(
                    &f.pops,
                    &f.terms,
                    &f.breaks,
                    f.base_cost,
                    regs,
                    &mut scr.fccs,
                    arrays,
                    self.iter_cost_bound,
                    max_cycles,
                    &mut cycles,
                    &mut iterations,
                )?
            };
            st.ccs[..real].copy_from_slice(&scr.fccs[..real]);
            if broke {
                return Ok(RefCounts { iterations, cycles });
            }
        }
        run_iterations(
            &self.spec.items,
            st,
            max_cycles,
            &mut cycles,
            &mut iterations,
        )?;
        Ok(RefCounts { iterations, cycles })
    }
}

/// A packed block successor: `(target << 1) | back_edge`. Packing lets a
/// data-dependent branch terminator pick its successor with a conditional
/// move instead of a branch — which block runs next is a function of
/// random trial data, so a branch here mispredicts on nearly every
/// dispatch of a condition-carrying loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DSucc(u64);

impl DSucc {
    fn new(tgt: usize, back: bool) -> Self {
        DSucc(((tgt as u64) << 1) | back as u64)
    }

    fn tgt(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn back(self) -> u64 {
        self.0 & 1
    }

    /// Branch-free select between two successors.
    fn sel(take: bool, t: DSucc, f: DSucc) -> DSucc {
        let m = (take as u64).wrapping_neg();
        DSucc((t.0 & m) | (f.0 & !m))
    }
}

/// Decoded block terminator; successors are packed [`DSucc`] words
/// (resolved from [`psp_machine::Succ`] at decode time).
#[derive(Debug, Clone, Copy)]
enum DTerm {
    Jump(DSucc),
    Branch { cc: u32, t: DSucc, f: DSucc },
    Exit,
}

#[derive(Debug, Clone)]
struct DBlock {
    /// Cycles in the block.
    n_cycles: u64,
    term: DTerm,
    /// Condition registers read by any terminator reachable from this
    /// block through zero-cycle dispatch chains: [`vliw_dispatchloop`]
    /// snapshots exactly these before the block's last cycle instead of
    /// copying the whole cc file.
    snap_ccs: Vec<u32>,
    /// `(head_lo, tail_lo, tail_hi)` into the packed pool when the whole
    /// block can run as two straight-line streams ([`merge_block`]):
    /// the fast loops execute `head_lo..tail_lo`, snapshot, then
    /// `tail_lo..tail_hi`, paying block-loop overhead once per block
    /// instead of once per cycle.
    merged: Option<(u32, u32, u32)>,
    /// `Some(back_edge_weight)` when every terminator successor is this
    /// block itself (a `Jump` to self, or a `Branch` whose arms agree —
    /// pipelined single-block kernels end in exactly that shape). Combined
    /// with `merged`, the body runs in [`superloop`]: stream slices, budget
    /// bound, and state pointers hoisted once, no snapshot (no reachable
    /// terminator reads one), no per-iteration block dispatch. The
    /// uniform-`Branch` cc read is skipped — on a state that meets the
    /// demand it cannot fault, and its value picks between identical
    /// successors.
    self_loop: Option<u64>,
}

/// A [`VliwLoop`] decoded for the superloop and the dispatch loop.
#[derive(Debug, Clone)]
pub struct DecodedVliw {
    prog: VliwLoop,
    /// Packed streams of the merged blocks, concatenated
    /// ([`DBlock::merged`] indexes into this pool).
    pexec: Vec<POp>,
    blocks: Vec<DBlock>,
    /// Static demand of the body blocks, terminator ccs included; only
    /// runs whose state meets it enter [`superloop`] or
    /// [`vliw_dispatchloop`].
    demand: Demand,
    /// Whether the whole CFG qualifies for [`vliw_dispatchloop`]: every
    /// non-empty block is `merged`, every successor index is in range and
    /// no empty block reaches itself through empty blocks, so the fast
    /// path can iterate blocks with budget checks hoisted and no per-block
    /// malformedness tests. (Multi-block programs — the
    /// condition-dependent block successions PSP emits for loops with
    /// conditions — spend their whole life in this dispatch.)
    dispatch_ok: bool,
}

impl DecodedVliw {
    /// Decode a compiled loop. Like the interpreter, malformed successor
    /// indices only fault when actually taken.
    pub fn decode(prog: &VliwLoop) -> Self {
        let mut demand = Demand::default();
        let mut pexec = Vec::new();
        let mut blocks: Vec<_> = prog
            .blocks
            .iter()
            .enumerate()
            .map(|(bi, b)| {
                let cycles: Vec<Vec<POp>> = b
                    .cycles
                    .iter()
                    .map(|cycle| cycle.iter().map(POp::new).collect())
                    .collect();
                cycles.iter().flatten().for_each(|p| demand.add(p));
                let term = match b.term {
                    VliwTerm::Jump(s) => DTerm::Jump(DSucc::new(s.block, s.back_edge)),
                    VliwTerm::Branch {
                        cc,
                        on_true,
                        on_false,
                    } => DTerm::Branch {
                        cc: cc.0,
                        t: DSucc::new(on_true.block, on_true.back_edge),
                        f: DSucc::new(on_false.block, on_false.back_edge),
                    },
                    VliwTerm::Exit => DTerm::Exit,
                };
                // Terminator ccs join the demand so the fast path may
                // index the snapshot directly.
                if let DTerm::Branch { cc, .. } = term {
                    demand.ccs = demand.ccs.max(cc + 1);
                }
                DBlock {
                    n_cycles: cycles.len() as u64,
                    term,
                    snap_ccs: Vec::new(),
                    merged: merge_block(&cycles, &mut pexec),
                    self_loop: match term {
                        DTerm::Jump(s) if s.tgt() == bi => Some(s.back()),
                        DTerm::Branch { t, f, .. } if t == f && t.tgt() == bi => Some(t.back()),
                        _ => None,
                    },
                }
            })
            .collect();
        // A snapshot taken before block B's last cycle serves B's own
        // terminator and, because zero-cycle blocks dispatch without
        // refreshing it, every terminator reachable from B through chains
        // of empty blocks. Collect those ccs per block. An empty block that
        // reaches itself through such a chain spins without spending a
        // cycle; the interpreter alone runs (and refuses) that program.
        let mut spins = false;
        for bi in 0..blocks.len() {
            let mut ccs: Vec<u32> = Vec::new();
            let mut stack = vec![bi];
            let mut seen = vec![false; blocks.len()];
            while let Some(b) = stack.pop() {
                if std::mem::replace(&mut seen[b], true) {
                    continue;
                }
                let mut succ = |t: usize, stack: &mut Vec<usize>| {
                    if blocks.get(t).is_some_and(|nb| nb.n_cycles == 0) {
                        spins |= t == bi;
                        stack.push(t);
                    }
                };
                match blocks[b].term {
                    DTerm::Branch { cc, t, f } => {
                        if !ccs.contains(&cc) {
                            ccs.push(cc);
                        }
                        succ(t.tgt(), &mut stack);
                        succ(f.tgt(), &mut stack);
                    }
                    DTerm::Jump(s) => succ(s.tgt(), &mut stack),
                    DTerm::Exit => {}
                }
            }
            blocks[bi].snap_ccs = ccs;
        }
        let dispatch_ok = !spins
            && !blocks.is_empty()
            && blocks.iter().all(|b| {
                let succs_ok = match b.term {
                    DTerm::Jump(s) => s.tgt() < blocks.len(),
                    DTerm::Branch { t, f, .. } => t.tgt() < blocks.len() && f.tgt() < blocks.len(),
                    DTerm::Exit => true,
                };
                succs_ok && (b.n_cycles == 0 || b.merged.is_some())
            });
        DecodedVliw {
            prog: prog.clone(),
            pexec,
            blocks,
            demand,
            dispatch_ok,
        }
    }

    /// Execute to completion (at most `max_cycles` body cycles), with
    /// [`crate::vliw_run::run_vliw`]'s counters, budget placement, and
    /// errors. The prologue, the epilogue, and every body cycle outside
    /// the superloop and the dispatch loop run on the interpreter.
    pub fn run(
        &self,
        st: &mut MachineState,
        scr: &mut Scratch,
        max_cycles: u64,
    ) -> Result<VliwCounts, SimError> {
        let mut c = VliwCounts::START;
        if !run_prologue(&self.prog, st, &mut c, &mut scr.effects, &mut ())? {
            if let Some(from) = self.run_fast(st, scr, max_cycles, &mut c)? {
                run_body(
                    &self.prog,
                    st,
                    from,
                    max_cycles,
                    &mut c,
                    &mut scr.effects,
                    &mut (),
                )?;
            }
        }
        run_epilogue(&self.prog, st, &mut c, &mut scr.effects)?;
        Ok(c)
    }

    /// Run as much of the body as a fast loop covers. Returns `None` when
    /// the body is complete (a `BREAK` fired or an `Exit` was dispatched),
    /// else the block at whose head the interpreter continues.
    fn run_fast(
        &self,
        st: &mut MachineState,
        scr: &mut Scratch,
        max_cycles: u64,
        c: &mut VliwCounts,
    ) -> Result<Option<usize>, SimError> {
        // Hop through empty Jump-only blocks once up front (e.g. an empty
        // entry dispatch block in front of a self-loop kernel), so the
        // steady state reaches the superloop. A Jump reads no cc, costs no
        // cycle, and counts its back edge exactly like the interpreter;
        // the hop bound only matters for an all-empty cycle, which the
        // interpreter then runs (and diverges on) identically.
        let mut bi = self.prog.entry;
        let mut hops = 0;
        while let Some(b) = self.blocks.get(bi) {
            let DTerm::Jump(s) = b.term else { break };
            if b.n_cycles > 0 || hops > self.blocks.len() || s.tgt() >= self.blocks.len() {
                break;
            }
            c.iterations += s.back();
            bi = s.tgt();
            hops += 1;
        }
        let Some(block) = self.blocks.get(bi).filter(|_| self.demand.met_by(st)) else {
            return Ok(Some(bi));
        };
        if let (Some(back), Some((head_lo, _, tail_hi))) = (block.self_loop, block.merged) {
            let MachineState { regs, ccs, arrays } = st;
            // SAFETY: the state meets the static demand; the stream is a
            // `fuse_order` schedule.
            let broke = unsafe {
                superloop(
                    &self.pexec[head_lo as usize..tail_hi as usize],
                    regs,
                    ccs,
                    arrays,
                    block.n_cycles,
                    back,
                    max_cycles,
                    c,
                )?
            };
            Ok((!broke).then_some(bi))
        } else if self.dispatch_ok {
            if scr.snap.len() < st.ccs.len() {
                scr.snap.resize(st.ccs.len(), false);
            }
            let MachineState { regs, ccs, arrays } = st;
            // SAFETY: the state meets the static demand (terminator ccs
            // included) and the snapshot covers the cc file; the streams
            // are `fuse_order` schedules.
            let exit = unsafe {
                vliw_dispatchloop(
                    &self.blocks,
                    &self.pexec,
                    &mut scr.snap,
                    regs,
                    ccs,
                    arrays,
                    bi,
                    max_cycles,
                    c,
                )?
            };
            Ok(match exit {
                DispatchExit::Done => None,
                DispatchExit::Bail(bi) => Some(bi),
            })
        } else {
            Ok(Some(bi))
        }
    }
}

/// Decoded-engine counterpart of [`crate::reference::run_reference`]:
/// decodes, runs once, and materializes a full [`RefRun`]. Bit-identical
/// by the differential suites.
pub fn run_reference_decoded(
    spec: &LoopSpec,
    state: MachineState,
    max_cycles: u64,
) -> Result<RefRun, SimError> {
    let d = DecodedRef::decode(spec);
    let mut st = state;
    let mut scr = Scratch::default();
    let c = d.run(&mut st, &mut scr, max_cycles)?;
    Ok(RefRun {
        state: st,
        iterations: c.iterations,
        cycles: c.cycles,
    })
}

/// Decoded-engine counterpart of [`crate::vliw_run::run_vliw`].
pub fn run_vliw_decoded(
    prog: &VliwLoop,
    state: MachineState,
    max_cycles: u64,
) -> Result<VliwRun, SimError> {
    let d = DecodedVliw::decode(prog);
    let mut st = state;
    let mut scr = Scratch::default();
    let c = d.run(&mut st, &mut scr, max_cycles)?;
    Ok(VliwRun {
        state: st,
        body_cycles: c.body_cycles,
        total_cycles: c.total_cycles,
        iterations: c.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_reference;
    use crate::vliw_run::run_vliw;
    use psp_ir::op::build::*;
    use psp_ir::{ArrayId, CcReg, CmpOp, Guard, LoopBuilder, Operation, Reg};
    use psp_machine::{Succ, VliwBlock, VliwTerm};
    use psp_predicate::PredicateMatrix;

    fn vecmin() -> LoopSpec {
        let mut b = LoopBuilder::new("vecmin");
        let x = b.array("x");
        let one = b.named_reg("one");
        let n = b.named_reg("n");
        let k = b.named_reg("k");
        let m = b.named_reg("m");
        let xk = b.reg();
        let xm = b.reg();
        let cc0 = b.cc();
        let cc1 = b.cc();
        b.op(load(xk, x, k));
        b.op(load(xm, x, m));
        b.op(cmp(CmpOp::Lt, cc0, xk, xm));
        b.if_else(
            cc0,
            |b| {
                b.op(copy(m, k));
            },
            |_| {},
        );
        b.op(add(k, k, one));
        b.op(cmp(CmpOp::Ge, cc1, k, n));
        b.break_(cc1);
        b.finish([one, n, k, m], [m])
    }

    fn initial(data: Vec<i64>) -> MachineState {
        let mut s = MachineState::new(8, 2);
        s.regs[0] = 1;
        s.regs[1] = data.len() as i64;
        s.push_array(data);
        s
    }

    fn fig1b() -> VliwLoop {
        let x = ArrayId(0);
        let b0 = VliwBlock {
            id: 0,
            matrix: PredicateMatrix::universe(),
            cycles: vec![
                vec![
                    load(Reg(4), x, Reg(2)),
                    load(Reg(5), x, Reg(3)),
                    add(Reg(6), Reg(2), Reg(0)),
                ],
                vec![
                    cmp(CmpOp::Lt, CcReg(0), Reg(4), Reg(5)),
                    cmp(CmpOp::Ge, CcReg(1), Reg(6), Reg(1)),
                ],
                vec![
                    if_(CcReg(0)),
                    Operation {
                        guard: Some(Guard::when(CcReg(0))),
                        ..copy(Reg(3), Reg(2))
                    },
                    break_(CcReg(1)),
                    copy(Reg(2), Reg(6)),
                ],
            ],
            term: VliwTerm::Branch {
                cc: CcReg(0),
                on_true: Succ::back(0),
                on_false: Succ::back(0),
            },
        };
        VliwLoop {
            name: "fig1b".into(),
            prologue: vec![],
            blocks: vec![b0],
            entry: 0,
            epilogue: vec![],
        }
    }

    #[test]
    fn decoded_reference_matches_interpreter() {
        for data in [vec![5, 3, 8, 1, 9, 1], vec![7], vec![2, 2, 2]] {
            let spec = vecmin();
            let a = run_reference(&spec, initial(data.clone()), 10_000).unwrap();
            let b = run_reference_decoded(&spec, initial(data), 10_000).unwrap();
            assert_eq!(a.state, b.state);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.cycles, b.cycles);
        }
    }

    #[test]
    fn decoded_vliw_matches_interpreter() {
        let prog = fig1b();
        let mut init = initial(vec![5, 3, 8, 1, 9, 1]);
        init.grow(8, 2);
        let a = run_vliw(&prog, init.clone(), 100_000).unwrap();
        let b = run_vliw_decoded(&prog, init, 100_000).unwrap();
        assert_eq!(a.state, b.state);
        assert_eq!(a.body_cycles, b.body_cycles);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn decoded_errors_are_bit_identical() {
        // Budget exhaustion.
        let mut b = LoopBuilder::new("inf");
        let cc = b.cc();
        let r = b.reg();
        b.op(cmp(CmpOp::Lt, cc, r, -1i64));
        b.break_(cc);
        let spec = b.finish([r], [r]);
        let a = run_reference(&spec, MachineState::new(1, 1), 100).unwrap_err();
        let d = run_reference_decoded(&spec, MachineState::new(1, 1), 100).unwrap_err();
        assert_eq!(a, d);

        // Out-of-bounds store, message and all.
        let prog = VliwLoop {
            name: "oob".into(),
            prologue: vec![],
            blocks: vec![VliwBlock {
                id: 0,
                matrix: PredicateMatrix::universe(),
                cycles: vec![vec![store(ArrayId(0), Reg(0), 1i64)]],
                term: VliwTerm::Exit,
            }],
            entry: 0,
            epilogue: vec![],
        };
        let mut s = MachineState::new(1, 1);
        s.regs[0] = 99;
        s.push_array(vec![0; 3]);
        let a = run_vliw(&prog, s.clone(), 100).unwrap_err();
        let d = run_vliw_decoded(&prog, s, 100).unwrap_err();
        assert_eq!(a, d);
        assert_eq!(a.to_string(), "bad store: a0[99] out of bounds (len 3)");

        // Same-cycle write conflict.
        let prog = VliwLoop {
            name: "conflict".into(),
            prologue: vec![],
            blocks: vec![VliwBlock {
                id: 0,
                matrix: PredicateMatrix::universe(),
                cycles: vec![vec![copy(Reg(0), 1i64), copy(Reg(0), 2i64)]],
                term: VliwTerm::Exit,
            }],
            entry: 0,
            epilogue: vec![],
        };
        let a = run_vliw(&prog, MachineState::new(2, 1), 100).unwrap_err();
        let d = run_vliw_decoded(&prog, MachineState::new(2, 1), 100).unwrap_err();
        assert_eq!(a, d);
        assert!(matches!(a, SimError::WriteConflict(_)));

        // Missing block, only when taken.
        let prog = VliwLoop {
            name: "missing".into(),
            prologue: vec![],
            blocks: vec![VliwBlock {
                id: 0,
                matrix: PredicateMatrix::universe(),
                cycles: vec![vec![copy(Reg(0), 1i64)]],
                term: VliwTerm::Jump(Succ::fall(7)),
            }],
            entry: 0,
            epilogue: vec![],
        };
        let a = run_vliw(&prog, MachineState::new(1, 1), 100).unwrap_err();
        let d = run_vliw_decoded(&prog, MachineState::new(1, 1), 100).unwrap_err();
        assert_eq!(a, d);
        assert_eq!(a.to_string(), "malformed code: block 7 missing");
    }

    #[test]
    fn scratch_reuse_is_clean_across_runs() {
        // The same Scratch serves many runs of different programs; none of
        // its buffers may leak state between them.
        let spec = vecmin();
        let d = DecodedRef::decode(&spec);
        let dv = DecodedVliw::decode(&fig1b());
        let mut scr = Scratch::default();
        for data in [vec![5, 3, 8], vec![1], vec![4, 4, 4, 4]] {
            let mut st = initial(data.clone());
            d.run(&mut st, &mut scr, 10_000).unwrap();
            let gold = run_reference(&spec, initial(data.clone()), 10_000).unwrap();
            assert_eq!(st, gold.state);

            let mut st = initial(data.clone());
            st.grow(8, 2);
            let c = dv.run(&mut st, &mut scr, 10_000).unwrap();
            let mut init = initial(data);
            init.grow(8, 2);
            let gold = run_vliw(&fig1b(), init, 10_000).unwrap();
            assert_eq!(st, gold.state);
            assert_eq!(c.body_cycles, gold.body_cycles);
        }
    }

    /// A two-block loop: count `R0` up to `R1` in block 0, then copy the
    /// count out in block 1.
    fn count_then_copy() -> VliwLoop {
        let b0 = VliwBlock {
            id: 0,
            matrix: PredicateMatrix::universe(),
            cycles: vec![
                vec![add(Reg(0), Reg(0), 1i64)],
                vec![cmp(CmpOp::Ge, CcReg(0), Reg(0), Reg(1))],
            ],
            term: VliwTerm::Branch {
                cc: CcReg(0),
                on_true: Succ::fall(1),
                on_false: Succ::back(0),
            },
        };
        let b1 = VliwBlock {
            id: 1,
            matrix: PredicateMatrix::universe(),
            cycles: vec![vec![copy(Reg(2), Reg(0))]],
            term: VliwTerm::Exit,
        };
        VliwLoop {
            name: "count_then_copy".into(),
            prologue: vec![],
            blocks: vec![b0, b1],
            entry: 0,
            epilogue: vec![],
        }
    }

    // A lost fast path keeps every run bit-identical, so no differential
    // suite notices it; these pin which shapes reach which loop.

    #[test]
    fn vecmin_reference_fuses() {
        assert!(DecodedRef::decode(&vecmin()).fused.is_some());
    }

    /// The fused loop's synthetic ccs sit just above the body's cc demand.
    /// A state's ccs past that demand (here `spare`, declared but never
    /// touched by the body) must keep their values, as on the interpreter.
    #[test]
    fn fused_reference_keeps_ccs_past_the_body_demand() {
        let mut b = LoopBuilder::new("clamp");
        let x = b.array("x");
        let k = b.named_reg("k");
        let n = b.named_reg("n");
        let v = b.reg();
        let cc0 = b.cc();
        let cc1 = b.cc();
        let cc2 = b.cc();
        let spare = b.cc();
        b.op(load(v, x, k));
        b.op(cmp(CmpOp::Lt, cc0, v, 0i64));
        b.if_else(
            cc0,
            |b| {
                b.op(copy(v, 0i64));
            },
            |b| {
                b.op(cmp(CmpOp::Gt, cc1, v, 9i64));
                b.if_else(
                    cc1,
                    |b| {
                        b.op(copy(v, 9i64));
                    },
                    |_| {},
                );
            },
        );
        b.op(store(x, k, v));
        b.op(add(k, k, 1i64));
        b.op(cmp(CmpOp::Ge, cc2, k, n));
        b.break_(cc2);
        let spec = b.finish([k, n], [spare]);
        assert!(DecodedRef::decode(&spec).fused.is_some());
        let mut st = MachineState::new(spec.n_regs, spec.n_ccs);
        st.regs[n.0 as usize] = 4;
        st.ccs[spare.0 as usize] = true;
        st.push_array(vec![-3, 4, 12, 9]);
        let slow = run_reference(&spec, st.clone(), 10_000).unwrap();
        let fast = run_reference_decoded(&spec, st, 10_000).unwrap();
        assert_eq!(fast.state, slow.state);
        assert!(fast.state.ccs[spare.0 as usize]);
        assert_eq!(fast.state.arrays[0], vec![0, 4, 9, 9]);
    }

    #[test]
    fn fig1b_runs_in_the_superloop() {
        let d = DecodedVliw::decode(&fig1b());
        assert!(d.blocks[0].merged.is_some());
        assert_eq!(d.blocks[0].self_loop, Some(1));
    }

    #[test]
    fn two_block_loop_runs_in_the_dispatch_loop() {
        let prog = count_then_copy();
        let d = DecodedVliw::decode(&prog);
        assert!(d.dispatch_ok);
        assert!(d.blocks.iter().all(|b| b.self_loop.is_none()));
        let mut st = MachineState::new(3, 1);
        st.regs[1] = 5;
        let gold = run_vliw(&prog, st.clone(), 1_000).unwrap();
        let c = d.run(&mut st, &mut Scratch::default(), 1_000).unwrap();
        assert_eq!(st, gold.state);
        assert_eq!(
            (c.body_cycles, c.total_cycles, c.iterations),
            (gold.body_cycles, gold.total_cycles, gold.iterations)
        );
    }

    /// Run `spec` from `st`, a state below its static demand, on both
    /// engines and demand the same result.
    fn assert_ref_below_demand_matches(spec: &LoopSpec, st: &MachineState) {
        let d = DecodedRef::decode(spec);
        let mut grown = st.clone();
        grown.grow(spec.n_regs, spec.n_ccs);
        assert!(!d.demand.met_by(&grown));
        let gold = run_reference(spec, st.clone(), 1_000);
        let mut s = st.clone();
        match (gold, d.run(&mut s, &mut Scratch::default(), 1_000)) {
            (Ok(g), Ok(c)) => {
                assert_eq!(s, g.state);
                assert_eq!((c.iterations, c.cycles), (g.iterations, g.cycles));
            }
            (g, c) => assert_eq!(g.err(), c.err()),
        }
    }

    /// [`assert_ref_below_demand_matches`] for compiled code.
    fn assert_vliw_below_demand_matches(prog: &VliwLoop, st: &MachineState) {
        let d = DecodedVliw::decode(prog);
        assert!(!d.demand.met_by(st));
        let gold = run_vliw(prog, st.clone(), 1_000);
        let mut s = st.clone();
        match (gold, d.run(&mut s, &mut Scratch::default(), 1_000)) {
            (Ok(g), Ok(c)) => {
                assert_eq!(s, g.state);
                assert_eq!(
                    (c.body_cycles, c.total_cycles, c.iterations),
                    (g.body_cycles, g.total_cycles, g.iterations)
                );
            }
            (g, c) => assert_eq!(g.err(), c.err()),
        }
    }

    #[test]
    fn below_demand_reference_runs_match_interpreter() {
        // The only access to `R2` and array `y` sits in an arm that never
        // runs, so the interpreter finishes without touching either.
        let mut b = LoopBuilder::new("cold_arm");
        let _x = b.array("x");
        let y = b.array("y");
        let k = b.named_reg("k");
        let n = b.named_reg("n");
        let v = b.reg();
        let (cold, done) = (b.cc(), b.cc());
        b.op(cmp(CmpOp::Lt, cold, k, 0i64));
        b.if_else(
            cold,
            |b| {
                b.op(load(v, y, k));
            },
            |_| {},
        );
        b.op(add(k, k, 1i64));
        b.op(cmp(CmpOp::Ge, done, k, n));
        b.break_(done);
        let spec = b.finish([k, n], [k]);
        assert!(DecodedRef::decode(&spec).fused.is_some());
        let mut st = MachineState::new(3, 2);
        st.regs[1] = 40;
        st.push_array(vec![1, 2, 3]);
        assert_ref_below_demand_matches(&spec, &st); // array `y` missing
        let mut short = spec.clone();
        short.n_regs = 2;
        st.regs.truncate(2);
        st.push_array(vec![4, 5, 6]);
        assert_ref_below_demand_matches(&short, &st); // `R2` missing

        // vecmin touches everything it names: the interpreter's error.
        let mut st = initial(vec![]);
        st.arrays.clear();
        assert_ref_below_demand_matches(&vecmin(), &st);
        let mut short = vecmin();
        short.n_regs = 3;
        let mut st = MachineState::new(3, 2);
        st.push_array(vec![5, 3]);
        assert_ref_below_demand_matches(&short, &st);
    }

    #[test]
    fn below_demand_vliw_runs_match_interpreter() {
        // `count_then_copy` plus a load into `R9` from array 0 under a
        // guard that never holds: the interpreter squashes it unread.
        let mut prog = count_then_copy();
        prog.blocks[0].cycles[0].push(Operation {
            guard: Some(Guard::when(CcReg(1))),
            ..load(Reg(9), ArrayId(0), Reg(0))
        });
        let mut st = MachineState::new(3, 2);
        st.regs[1] = 40;
        assert_vliw_below_demand_matches(&prog, &st); // array 0 missing
        st.push_array(vec![1, 2, 3]);
        assert_vliw_below_demand_matches(&prog, &st); // `R9` missing
        st.regs.truncate(2);
        assert_vliw_below_demand_matches(&prog, &st); // fails at `R2`

        // fig1b loads from array 0 in its first cycle.
        let mut st = initial(vec![]);
        st.arrays.clear();
        assert_vliw_below_demand_matches(&fig1b(), &st);
    }

    #[test]
    fn far_registers_never_reach_a_fast_loop() {
        // `R(u32::MAX)` is one past any register file: the interpreter
        // rejects it, and the decoded engine must not index it unchecked.
        let far = Reg(u32::MAX);
        let prog = VliwLoop {
            name: "far".into(),
            prologue: vec![],
            blocks: vec![VliwBlock {
                id: 0,
                matrix: PredicateMatrix::universe(),
                cycles: vec![vec![copy(far, 7i64), break_(CcReg(0))]],
                term: VliwTerm::Jump(Succ::back(0)),
            }],
            entry: 0,
            epilogue: vec![],
        };
        let mut st = MachineState::new(1, 1);
        st.ccs[0] = true;
        assert_vliw_below_demand_matches(&prog, &st);

        let mut b = LoopBuilder::new("far");
        let done = b.cc();
        b.op(copy(far, 7i64));
        b.op(cmp(CmpOp::Ge, done, far, 0i64));
        b.break_(done);
        let spec = b.finish([done], [done]);
        assert_ref_below_demand_matches(&spec, &MachineState::new(1, 1));
    }

    #[test]
    fn guards_on_far_condition_registers_match_the_interpreter() {
        // A guard keeps its whole cc index apart from its polarity: packed
        // into one word, `CC2147483647` on true would read as unguarded
        // and a cc at or past 2^31 would lose its top bit, so the decoded
        // engine would run a program the interpreter rejects.
        for cc in [(1 << 31) - 1, 1 << 31, u32::MAX - 1] {
            for guard in [Guard::when(CcReg(cc)), Guard::unless(CcReg(cc))] {
                let prog = VliwLoop {
                    name: "far_guard".into(),
                    prologue: vec![],
                    blocks: vec![VliwBlock {
                        id: 0,
                        matrix: PredicateMatrix::universe(),
                        cycles: vec![vec![
                            Operation {
                                guard: Some(guard),
                                ..copy(Reg(0), 7i64)
                            },
                            break_(CcReg(0)),
                        ]],
                        term: VliwTerm::Jump(Succ::back(0)),
                    }],
                    entry: 0,
                    epilogue: vec![],
                };
                let mut st = MachineState::new(1, 1);
                st.ccs[0] = true;
                let want = SimError::BadRegister(CcReg(cc).to_string());
                assert_eq!(run_vliw(&prog, st.clone(), 100).unwrap_err(), want);
                assert_eq!(run_vliw_decoded(&prog, st, 100).unwrap_err(), want);
            }
        }
    }
}
