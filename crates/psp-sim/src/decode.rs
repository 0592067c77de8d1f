//! Pre-decoded execution engine.
//!
//! The `step_cycle` interpreters re-match `Operation` enums and re-resolve
//! registers, guards, and branch successors on every simulated cycle. This
//! module lowers a program *once* into a flat, dense form — struct-of-arrays
//! micro-ops with every register/cc/array index, guard, and branch target
//! resolved to plain integers — and executes it with a tight dispatch loop
//! over reusable scratch state, so a batch of equivalence trials pays for
//! decoding once and allocates nothing per trial.
//!
//! The engine has exactly two kinds of code. The *generic evaluator* is
//! safe and handles every program, state, and budget: the two-phase
//! [`step_decoded_cycle`] for VLIW code and the [`RefInstr`] loop over
//! [`DecodedRef::exec_seq`] for the reference. On top of it sit three
//! `unsafe` steady-state loops, each kept because it measurably pays on
//! the benchmark workloads: [`superloop`] (single-block self-loops),
//! [`vliw_dispatchloop`] (multi-block CFGs), and [`ref_fusedloop`] (a
//! source iteration as one predicated stream). Each runs only while the
//! state meets the program's static demand and the remaining budget
//! covers a whole step, and hands the rest of the run to the generic
//! evaluator, which raises any error at the interpreter's exact cycle.
//!
//! The engine is **bit-identical** to the interpreters by construction:
//! evaluation order, effect commit order, write-conflict detection, cycle
//! budget placement, the pre-cycle condition-register snapshot for branch
//! dispatch, and every `SimError` message are replicated exactly. That
//! contract is enforced by the differential suites
//! (`tests/engine_differential.rs`, `tests/sim_edge_cases.rs`); the
//! interpreter remains the trusted reference and the only engine the
//! psp-verify validators use, mirroring the packed-vs-sparse predicate
//! split.

use crate::reference::RefRun;
use crate::state::{MachineState, SimError};
use crate::vliw_run::VliwRun;
use psp_ir::{AluOp, CmpOp, Item, LoopSpec, OpKind, Operand, Operation};
use psp_machine::{VliwLoop, VliwTerm};
use std::collections::BTreeMap;

/// Micro-opcode: one fieldless-ish discriminant per operation shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UOpc {
    Alu(AluOp),
    Copy,
    Select,
    Cmp(CmpOp),
    CcAnd,
    Load,
    Store,
    If,
    Break,
}

/// `guard[i]` sentinel for unguarded micro-ops.
const NO_GUARD: u32 = u32::MAX;
/// `flags[i]`: operand `a` is an immediate (else a register index).
const A_IMM: u8 = 1;
/// `flags[i]`: operand `b` is an immediate.
const B_IMM: u8 = 2;
/// `flags[i]`: memory access has no index register.
const NO_INDEX: u8 = 4;

/// Struct-of-arrays micro-op storage shared by both decoded forms.
///
/// Field use per opcode (unused fields are zero):
///
/// | opcode  | `dst`        | `a`            | `b`        | `aux`            |
/// |---------|--------------|----------------|------------|------------------|
/// | Alu/Cmp | dest reg/cc  | operand        | operand    | —                |
/// | Copy    | dest reg     | operand        | —          | —                |
/// | Select  | dest reg     | true operand   | false op.  | selecting cc     |
/// | CcAnd   | dest cc      | cc `a`         | cc `b`     | required values  |
/// | Load    | dest reg     | index reg      | disp       | array            |
/// | Store   | index reg    | source operand | disp       | array            |
/// | If      | tested cc    | —              | —          | `if_id`          |
/// | Break   | tested cc    | —              | —          | —                |
#[derive(Debug, Clone, Default)]
struct UOps {
    opc: Vec<UOpc>,
    guard: Vec<u32>,
    dst: Vec<u32>,
    a: Vec<i64>,
    b: Vec<i64>,
    aux: Vec<u32>,
    flags: Vec<u8>,
}

/// Pending effect of one evaluated micro-op (the decoded analogue of
/// [`crate::state::Effect`]).
#[derive(Debug, Clone, Copy)]
enum PEff {
    Gpr(u32, i64),
    Cc(u32, bool),
    Mem(u32, usize, i64),
    Break,
    If,
    Squash,
}

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

/// Flat single-level opcodes of the packed fast path: ALU and compare
/// sub-opcodes are pre-expanded so dispatch is one jump, not two. Values
/// mirror the declaration order of [`AluOp`] and [`CmpOp`].
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
    /// the opcode at pack time so the unguarded specialisation of
    /// [`super::exec_pop`] carries no guard load, no `take` computation
    /// and no write selects at all.
    pub const GBASE: u8 = 32;
}

/// One packed fast-path micro-op: a single 32-byte record per op (one
/// cache line holds two), consumed by [`exec_pop`]. The struct-of-arrays
/// [`UOps`] form remains the canonical decoded program (and drives the
/// generic evaluator); `POp` streams are execution schedules derived from
/// it at decode time for the three steady-state loops.
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
/// no conflict stamps, no bounds checks on register/cc/array access, and
/// **branch-free predication** — pure ops compute unconditionally and the
/// guard selects between the new value and the old slot contents (a
/// squashed op rewrites the value already there, which is unobservable),
/// stores select between the real element and a dummy stack slot. The
/// state is passed as pre-split slices so the loops driving a packed
/// stream keep the data pointers in registers instead of reloading them
/// from `MachineState` on every op.
///
/// # Safety
/// The caller must have established that (a) the state meets the
/// program's static demand ([`UOps::demand`]) — every register/cc/array
/// index the op can touch is covered by [`UOps::read_slots`]/
/// [`UOps::write_slot`], so all of them are in bounds and unconditional
/// evaluation of a squashed op cannot fault — and (b) the op runs
/// sequentially ([`ref_fusedloop`]) or inside a block stream built from
/// [`UOps::fuse_order`]-scheduled cycles ([`superloop`],
/// [`vliw_dispatchloop`]), so immediate commits are unobservable within
/// the cycle (a squashed op's old-value rewrite is a no-op on the slot's
/// current contents either way). Out-of-bounds stores are the only
/// reachable error, raised in the same order with the same message as
/// [`UOps::eval`].
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
        let g = p.guard;
        debug_assert!(((g >> 1) as usize) < ccs.len());
        unsafe { *ccs.get_unchecked((g >> 1) as usize) == (g & 1 != 0) }
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
            let elem = idx + p.b;
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
            let elem = idx + p.b;
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
/// broke. The head/tail split and inter-stream cc snapshot of
/// [`vliw_dispatchloop`] vanish here: `merged` eligibility keeps BREAKs
/// out of the head (every other opcode returns `false`), and the snapshot
/// only feeds terminator dispatch, which a uniform self-successor never
/// reads.
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
    body_cycles: &mut u64,
    iterations: &mut u64,
) -> Result<bool, SimError> {
    let mut broke = false;
    let mut cycles = *body_cycles;
    let mut iters = *iterations;
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
    *body_cycles = cycles;
    *iterations = iters;
    Ok(broke)
}

/// Exit reason of [`vliw_dispatchloop`].
enum DispatchExit {
    /// A BREAK fired; the body is complete.
    Broke,
    /// An `Exit` terminator was dispatched; the body is complete.
    Exited,
    /// The next block could overrun the budget: resume the generic loop
    /// at this block index for exact per-cycle accounting.
    Bail(usize),
}

/// The multi-block fast path of [`DecodedVliw::run`]: iterate a CFG whose
/// non-empty blocks are all `merged` (checked once at decode as
/// `dispatch_ok`), each block one straight-line stream, with the budget
/// check hoisted to one comparison per block and no malformedness tests.
/// This is where condition-carrying loops live — PSP lowers their
/// conditions to data-dependent block succession, so the generic loop's
/// per-cycle bookkeeping is pure overhead paid on every source iteration.
/// Same outlining rationale as [`superloop`].
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
    have_snap: &mut bool,
    body_cycles: &mut u64,
    iterations: &mut u64,
) -> Result<DispatchExit, SimError> {
    let mut cycles = *body_cycles;
    let mut iters = *iterations;
    let mut snapped = *have_snap;
    let exit = loop {
        let block = &blocks[bi];
        let n = block.cycles.len() as u64;
        if cycles.saturating_add(n) > max_cycles {
            // Only a non-empty block can land here (an empty one adds no
            // cost), so the generic loop re-snapshots before reading.
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
                break DispatchExit::Broke;
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
            DTerm::Exit => break DispatchExit::Exited,
        };
        iters += succ.back();
        bi = succ.tgt();
    };
    // An error return skips the write-back: errors discard all state.
    *body_cycles = cycles;
    *iterations = iters;
    *have_snap = snapped;
    Ok(exit)
}

/// The trace-free fast path of [`DecodedRef::run`] for a body that
/// collapsed to a [`FusedRef`]: one pop stream per iteration, zero
/// instruction dispatch, costs and loop exits settled by a post-walk read
/// of path predicates. Every budget check is hoisted behind the program's
/// [`DecodedRef::iter_cost_bound`]. Returns `true` when a `BREAK` fired
/// (the run is complete) and `false` when the remaining budget no longer
/// guarantees a checkless iteration — the caller's generic loop then
/// finishes with exact per-instruction checks and raises any exhaustion
/// error at the interpreter's exact cycle. Outlined for the same
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

fn bad_reg(r: u32) -> SimError {
    SimError::BadRegister(format!("R{r}"))
}

fn bad_cc(c: u32) -> SimError {
    SimError::BadRegister(format!("CC{c}"))
}

#[inline]
fn read_reg(st: &MachineState, r: u32) -> Result<i64, SimError> {
    st.regs.get(r as usize).copied().ok_or_else(|| bad_reg(r))
}

#[inline]
fn read_cc(st: &MachineState, c: u32) -> Result<bool, SimError> {
    st.ccs.get(c as usize).copied().ok_or_else(|| bad_cc(c))
}

#[inline]
fn read_operand(st: &MachineState, v: i64, imm: bool) -> Result<i64, SimError> {
    if imm {
        Ok(v)
    } else {
        read_reg(st, v as u32)
    }
}

fn operand_parts(o: Operand) -> (i64, bool) {
    match o {
        Operand::Reg(r) => (r.0 as i64, false),
        Operand::Imm(v) => (v, true),
    }
}

impl UOps {
    fn len(&self) -> usize {
        self.opc.len()
    }

    /// Lower one source operation; `if_id` is only meaningful for `If`
    /// micro-ops in the reference form (VLIW code passes 0).
    fn push_op(&mut self, op: &Operation, if_id: u32) -> u32 {
        let guard = match op.guard {
            None => NO_GUARD,
            Some(g) => (g.cc.0 << 1) | g.on_true as u32,
        };
        let (opc, dst, a, b, aux, flags) = match op.kind {
            OpKind::Alu { op: o, dst, a, b } => {
                let (av, ai) = operand_parts(a);
                let (bv, bi) = operand_parts(b);
                let f = if ai { A_IMM } else { 0 } | if bi { B_IMM } else { 0 };
                (UOpc::Alu(o), dst.0, av, bv, 0, f)
            }
            OpKind::Copy { dst, src } => {
                let (av, ai) = operand_parts(src);
                (UOpc::Copy, dst.0, av, 0, 0, if ai { A_IMM } else { 0 })
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
                (UOpc::Select, dst.0, av, bv, cc.0, f)
            }
            OpKind::Cmp { op: o, dst, a, b } => {
                let (av, ai) = operand_parts(a);
                let (bv, bi) = operand_parts(b);
                let f = if ai { A_IMM } else { 0 } | if bi { B_IMM } else { 0 };
                (UOpc::Cmp(o), dst.0, av, bv, 0, f)
            }
            OpKind::CcAnd {
                dst,
                a,
                a_val,
                b,
                b_val,
            } => {
                let aux = a_val as u32 | (b_val as u32) << 1;
                (UOpc::CcAnd, dst.0, a.0 as i64, b.0 as i64, aux, 0)
            }
            OpKind::Load { dst, addr } => {
                let (idx, f) = match addr.index {
                    Some(r) => (r.0 as i64, 0),
                    None => (0, NO_INDEX),
                };
                (UOpc::Load, dst.0, idx, addr.disp, addr.array.0, f)
            }
            OpKind::Store { src, addr } => {
                let (av, ai) = operand_parts(src);
                let (idx, f) = match addr.index {
                    Some(r) => (r.0, 0),
                    None => (0, NO_INDEX),
                };
                let f = f | if ai { A_IMM } else { 0 };
                (UOpc::Store, idx, av, addr.disp, addr.array.0, f)
            }
            OpKind::If { cc } => (UOpc::If, cc.0, 0, 0, if_id, 0),
            OpKind::Break { cc } => (UOpc::Break, cc.0, 0, 0, 0, 0),
        };
        self.opc.push(opc);
        self.guard.push(guard);
        self.dst.push(dst);
        self.a.push(a);
        self.b.push(b);
        self.aux.push(aux);
        self.flags.push(flags);
        (self.len() - 1) as u32
    }

    /// Evaluate micro-op `i` against pre-cycle state. Mirrors
    /// [`MachineState::effect_of`] exactly, including evaluation order and
    /// error messages.
    #[inline]
    fn eval(&self, i: usize, st: &MachineState) -> Result<PEff, SimError> {
        let g = self.guard[i];
        if g != NO_GUARD && read_cc(st, g >> 1)? != (g & 1 != 0) {
            return Ok(PEff::Squash);
        }
        let (a, b, dst, aux, flags) = (
            self.a[i],
            self.b[i],
            self.dst[i],
            self.aux[i],
            self.flags[i],
        );
        Ok(match self.opc[i] {
            UOpc::Alu(o) => {
                let x = read_operand(st, a, flags & A_IMM != 0)?;
                let y = read_operand(st, b, flags & B_IMM != 0)?;
                PEff::Gpr(dst, o.eval(x, y))
            }
            UOpc::Copy => PEff::Gpr(dst, read_operand(st, a, flags & A_IMM != 0)?),
            UOpc::Select => {
                let v = if read_cc(st, aux)? {
                    read_operand(st, a, flags & A_IMM != 0)?
                } else {
                    read_operand(st, b, flags & B_IMM != 0)?
                };
                PEff::Gpr(dst, v)
            }
            UOpc::Cmp(o) => {
                let x = read_operand(st, a, flags & A_IMM != 0)?;
                let y = read_operand(st, b, flags & B_IMM != 0)?;
                PEff::Cc(dst, o.eval(x, y))
            }
            UOpc::CcAnd => {
                // Mirror the interpreter's `&&`: the second condition
                // register is only read when the first conjunct holds.
                let v = if read_cc(st, a as u32)? == (aux & 1 != 0) {
                    read_cc(st, b as u32)? == (aux & 2 != 0)
                } else {
                    false
                };
                PEff::Cc(dst, v)
            }
            UOpc::Load => {
                let idx = if flags & NO_INDEX != 0 {
                    0
                } else {
                    read_reg(st, a as u32)?
                };
                let elem = idx + b;
                let data = st
                    .arrays
                    .get(aux as usize)
                    .ok_or_else(|| SimError::BadRegister(format!("array a{aux} not present")))?;
                let v = if elem < 0 || elem as usize >= data.len() {
                    0 // speculative loads never fault
                } else {
                    data[elem as usize]
                };
                PEff::Gpr(dst, v)
            }
            UOpc::Store => {
                let idx = if flags & NO_INDEX != 0 {
                    0
                } else {
                    read_reg(st, dst)?
                };
                let elem = idx + b;
                let len = st
                    .arrays
                    .get(aux as usize)
                    .ok_or_else(|| SimError::BadStore(format!("array a{aux} not present")))?
                    .len();
                if elem < 0 || elem as usize >= len {
                    return Err(SimError::BadStore(format!(
                        "a{aux}[{elem}] out of bounds (len {len})"
                    )));
                }
                PEff::Mem(aux, elem as usize, read_operand(st, a, flags & A_IMM != 0)?)
            }
            UOpc::If => {
                read_cc(st, dst)?; // an unreadable cc must still fault
                PEff::If
            }
            UOpc::Break => {
                if read_cc(st, dst)? {
                    PEff::Break
                } else {
                    PEff::Squash
                }
            }
        })
    }

    /// The slot micro-op `i` writes when it commits (`None` for pure
    /// control ops). Guards are ignored: a squashed write is a subset of
    /// the conservative answer.
    fn write_slot(&self, i: usize) -> Option<Slot> {
        match self.opc[i] {
            UOpc::Alu(_) | UOpc::Copy | UOpc::Select | UOpc::Load => Some(Slot::Gpr(self.dst[i])),
            UOpc::Cmp(_) | UOpc::CcAnd => Some(Slot::Cc(self.dst[i])),
            UOpc::Store => Some(Slot::Arr(self.aux[i])),
            UOpc::If | UOpc::Break => None,
        }
    }

    /// Every slot micro-op `i` may read: guard cc, register/cc operands,
    /// index registers, loaded arrays. Conservative — `Select` counts both
    /// operands even though only the taken one is read at runtime.
    fn read_slots(&self, i: usize) -> Vec<Slot> {
        let mut r = Vec::new();
        let g = self.guard[i];
        if g != NO_GUARD {
            r.push(Slot::Cc(g >> 1));
        }
        let flags = self.flags[i];
        let reg_ops = |r: &mut Vec<Slot>| {
            if flags & A_IMM == 0 {
                r.push(Slot::Gpr(self.a[i] as u32));
            }
            if flags & B_IMM == 0 {
                r.push(Slot::Gpr(self.b[i] as u32));
            }
        };
        match self.opc[i] {
            UOpc::Alu(_) | UOpc::Cmp(_) => reg_ops(&mut r),
            UOpc::Copy => {
                if flags & A_IMM == 0 {
                    r.push(Slot::Gpr(self.a[i] as u32));
                }
            }
            UOpc::Select => {
                r.push(Slot::Cc(self.aux[i]));
                reg_ops(&mut r);
            }
            UOpc::CcAnd => {
                r.push(Slot::Cc(self.a[i] as u32));
                r.push(Slot::Cc(self.b[i] as u32));
            }
            UOpc::Load => {
                if flags & NO_INDEX == 0 {
                    r.push(Slot::Gpr(self.a[i] as u32));
                }
                r.push(Slot::Arr(self.aux[i]));
            }
            UOpc::Store => {
                if flags & NO_INDEX == 0 {
                    r.push(Slot::Gpr(self.dst[i]));
                }
                if flags & A_IMM == 0 {
                    r.push(Slot::Gpr(self.a[i] as u32));
                }
            }
            UOpc::If | UOpc::Break => r.push(Slot::Cc(self.dst[i])),
        }
        r
    }

    /// Whether micro-ops `i` and `j` are guarded on opposite senses of the
    /// same condition register, so at most one of them ever executes in a
    /// given cycle — unless the write under consideration targets that
    /// very cc, in which case a fused commit could flip the other op's
    /// guard mid-cycle and the exclusion no longer holds.
    fn guards_disjoint_for(&self, i: usize, j: usize, w: Slot) -> bool {
        let (gi, gj) = (self.guard[i], self.guard[j]);
        gi != NO_GUARD
            && gj != NO_GUARD
            && gi >> 1 == gj >> 1
            && gi & 1 != gj & 1
            && w != Slot::Cc(gi >> 1)
    }

    /// Try to order the parallel cycle `ops[lo..hi]` so it can run as one
    /// fused eval-and-commit pass with pre-cycle read semantics intact.
    ///
    /// Every pair where one op writes a slot another reads gets a
    /// *reader-runs-first* constraint (a fused commit must not leak into a
    /// same-cycle read), pairs writing the same slot cannot fuse at all
    /// (the fused pass performs no write-conflict detection), and pairs
    /// with statically disjoint guards are exempt from both — at runtime
    /// one of them is always squashed. Stores additionally keep their
    /// original relative order so a batch of faulting stores reports the
    /// same first error as the two-phase engine (under the run-time
    /// `fast` precondition, stores are the only ops that can fault).
    ///
    /// Returns the op execution order, or `None` when the constraints are
    /// cyclic (software-pipelined kernels in this repo never are, but the
    /// fuzzer's adversarial programs can be).
    fn fuse_order(&self, lo: u32, hi: u32) -> Option<Vec<u32>> {
        let n = (hi - lo) as usize;
        if n > 64 {
            return None;
        }
        // pred[j]: bitmask of cycle-local ops that must run before op j.
        let mut pred = vec![0u64; n];
        for (i, pi) in pred.iter_mut().enumerate() {
            let oi = lo as usize + i;
            let Some(w) = self.write_slot(oi) else {
                continue;
            };
            for j in 0..n {
                if j == i {
                    continue;
                }
                let oj = lo as usize + j;
                if self.guards_disjoint_for(oi, oj, w) {
                    continue;
                }
                if self.write_slot(oj) == Some(w) {
                    return None;
                }
                if self.read_slots(oj).contains(&w) {
                    *pi |= 1 << j;
                }
            }
        }
        let mut last_store: Option<usize> = None;
        for (i, pi) in pred.iter_mut().enumerate() {
            if self.opc[lo as usize + i] == UOpc::Store {
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
                    order.push(lo + i as u32);
                }
            }
            if order.len() == before {
                return None; // cyclic constraints
            }
        }
        Some(order)
    }

    /// Smallest register/cc/array file sizes under which every static
    /// index in the program is in bounds. A run whose state meets this
    /// demand can never raise a `BadRegister` error (and loads can never
    /// fault), which licenses the unchecked indexing in [`exec_pop`] and
    /// the store-only fault ordering of [`Self::fuse_order`].
    fn demand(&self) -> (u32, u32, u32) {
        let (mut regs, mut ccs, mut arrs) = (0u32, 0u32, 0u32);
        let mut need = |s: Slot| match s {
            Slot::Gpr(r) => regs = regs.max(r + 1),
            Slot::Cc(c) => ccs = ccs.max(c + 1),
            Slot::Arr(a) => arrs = arrs.max(a + 1),
        };
        for i in 0..self.len() {
            if let Some(w) = self.write_slot(i) {
                need(w);
            }
            for s in self.read_slots(i) {
                need(s);
            }
        }
        (regs, ccs, arrs)
    }

    /// Pack micro-op `i` into its flat fast-path record.
    fn pack(&self, i: usize) -> POp {
        let opc = match self.opc[i] {
            UOpc::Alu(o) => fop::ADD + o as u8,
            UOpc::Cmp(o) => fop::CMP_LT + o as u8,
            UOpc::Copy => fop::COPY,
            UOpc::Select => fop::SELECT,
            UOpc::CcAnd => fop::CCAND,
            UOpc::Load => fop::LOAD,
            UOpc::Store => fop::STORE,
            UOpc::Break => fop::BREAK,
            UOpc::If => fop::IF,
        };
        let opc = opc
            | if self.guard[i] != NO_GUARD {
                fop::GBASE
            } else {
                0
            };
        POp {
            opc,
            flags: self.flags[i],
            guard: self.guard[i],
            dst: self.dst[i],
            aux: self.aux[i],
            a: self.a[i],
            b: self.b[i],
        }
    }

    /// Append one VLIW block's cycles to `pexec` as a single straight-line
    /// stream, each cycle in its [`Self::fuse_order`] with `IF` no-ops
    /// dropped, and return `(head_lo, tail_lo, tail_hi)`: the last cycle
    /// starts at `tail_lo`, so the caller can snapshot terminator ccs
    /// between head and tail. `None` — nothing appended — when the block
    /// is empty, a cycle has no hazard-free order, or a BREAK precedes the
    /// last cycle (a BREAK exits after its own cycle).
    fn merge_block(&self, cycles: &[Cyc], pexec: &mut Vec<POp>) -> Option<(u32, u32, u32)> {
        let (_, head) = cycles.split_last()?;
        if head
            .iter()
            .any(|c| (c.lo..c.hi).any(|k| self.opc[k as usize] == UOpc::Break))
        {
            return None;
        }
        let orders: Vec<Vec<u32>> = cycles
            .iter()
            .map(|c| self.fuse_order(c.lo, c.hi))
            .collect::<Option<_>>()?;
        let head_lo = pexec.len() as u32;
        let mut tail_lo = head_lo;
        for (i, order) in orders.iter().enumerate() {
            if i == head.len() {
                tail_lo = pexec.len() as u32;
            }
            pexec.extend(
                order
                    .iter()
                    .filter(|&&k| self.opc[k as usize] != UOpc::If)
                    .map(|&k| self.pack(k as usize)),
            );
        }
        Some((head_lo, tail_lo, pexec.len() as u32))
    }
}

/// Reusable per-thread execution scratch: the pending-effect buffer,
/// generation-stamped write-conflict maps (replacing the interpreter's
/// per-cycle `Vec::contains` scans), the branch-dispatch cc snapshot, and
/// the per-iteration IF-outcome buffer. One `Scratch` serves any number of
/// runs of any number of programs.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    eff: Vec<PEff>,
    gen: u64,
    gpr_gen: Vec<u64>,
    cc_gen: Vec<u64>,
    mem_gen: Vec<Vec<u64>>,
    snap: Vec<bool>,
    outcomes: Vec<(u32, bool)>,
    /// Scratch cc buffer for [`FusedRef`] runs (real ccs plus synthetic
    /// path predicates).
    fccs: Vec<bool>,
}

impl Scratch {
    /// Size the conflict maps for a run over `st`. Stamps are compared
    /// against a monotonically increasing generation, so stale entries from
    /// earlier runs never alias (the counter starts at 1).
    fn prepare(&mut self, st: &MachineState) {
        if self.gpr_gen.len() < st.regs.len() {
            self.gpr_gen.resize(st.regs.len(), 0);
        }
        if self.cc_gen.len() < st.ccs.len() {
            self.cc_gen.resize(st.ccs.len(), 0);
        }
        if self.mem_gen.len() < st.arrays.len() {
            self.mem_gen.resize_with(st.arrays.len(), Vec::new);
        }
        for (g, a) in self.mem_gen.iter_mut().zip(st.arrays.iter()) {
            if g.len() < a.len() {
                g.resize(a.len(), 0);
            }
        }
        // The fast path writes targeted snapshot entries by index.
        if self.snap.len() < st.ccs.len() {
            self.snap.resize(st.ccs.len(), false);
        }
    }
}

/// One decoded VLIW cycle: the micro-op range `lo..hi` of [`UOps`].
#[derive(Debug, Clone, Copy)]
struct Cyc {
    lo: u32,
    hi: u32,
}

/// Execute one parallel cycle (`ops[c.lo..c.hi]`): evaluate everything
/// against pre-cycle state, then commit in op order with same-cycle
/// conflict detection. Returns whether a `BREAK` fired. Mirrors
/// [`MachineState::step_cycle`] + [`MachineState::commit`]; the generic
/// VLIW evaluator, safe for any program and state.
fn step_decoded_cycle(
    ops: &UOps,
    c: Cyc,
    st: &mut MachineState,
    scr: &mut Scratch,
) -> Result<bool, SimError> {
    scr.eff.clear();
    for i in c.lo..c.hi {
        match ops.eval(i as usize, st)? {
            PEff::Squash => {}
            e => scr.eff.push(e),
        }
    }
    scr.gen += 1;
    let gen = scr.gen;
    let Scratch {
        eff,
        gpr_gen,
        cc_gen,
        mem_gen,
        ..
    } = scr;
    let mut broke = false;
    for e in eff.iter() {
        match *e {
            PEff::Gpr(r, v) => {
                if let Some(g) = gpr_gen.get_mut(r as usize) {
                    if *g == gen {
                        return Err(SimError::WriteConflict(format!("R{r}")));
                    }
                    *g = gen;
                }
                let slot = st.regs.get_mut(r as usize).ok_or_else(|| bad_reg(r))?;
                *slot = v;
            }
            PEff::Cc(c, v) => {
                if let Some(g) = cc_gen.get_mut(c as usize) {
                    if *g == gen {
                        return Err(SimError::WriteConflict(format!("CC{c}")));
                    }
                    *g = gen;
                }
                let slot = st.ccs.get_mut(c as usize).ok_or_else(|| bad_cc(c))?;
                *slot = v;
            }
            PEff::Mem(arr, elem, v) => {
                // Bounds were established at evaluation time.
                let g = &mut mem_gen[arr as usize][elem];
                if *g == gen {
                    return Err(SimError::WriteConflict(format!("a{arr}[{elem}]")));
                }
                *g = gen;
                st.arrays[arr as usize][elem] = v;
            }
            PEff::Break => broke = true,
            PEff::If | PEff::Squash => {}
        }
    }
    Ok(broke)
}

/// Cycle/iteration counters of a decoded reference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefCounts {
    /// Completed iterations (the iteration in which `BREAK` fires counts).
    pub iterations: u64,
    /// Total sequential cycles.
    pub cycles: u64,
}

/// One flat instruction of the decoded reference program. Structured
/// control flow is compiled to `else_pc`/`Goto` offsets; `Goto` is a free
/// control transfer (structure navigation never cost cycles in the
/// interpreter either).
#[derive(Debug, Clone, Copy)]
enum RefInstr {
    /// Execute micro-ops `lo..hi` back to back; costs `hi - lo` cycles.
    /// Consecutive straight-line ops merge into one run so the hot loop
    /// pays one dispatch and one budget comparison per basic block.
    Run { lo: u32, hi: u32 },
    /// Test `cc`; fall through when true, jump to `else_pc` when false.
    /// Costs one cycle and records the outcome under `if_id`.
    If { cc: u32, if_id: u32, else_pc: u32 },
    /// Exit the iteration when `cc` is true; costs one cycle.
    Break { cc: u32 },
    /// Unconditional transfer; free.
    Goto(u32),
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
    ops: UOps,
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
        let o = &mut self.ops;
        o.opc.push(UOpc::CcAnd);
        o.guard.push(NO_GUARD);
        o.dst.push(dst);
        o.a.push(a.0 as i64);
        o.b.push(b.0 as i64);
        o.aux.push(a.1 as u32 | (b.1 as u32) << 1);
        o.flags.push(0);
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
                    let i = self.ops.push_op(op, 0);
                    if let Some((cc, pol)) = cur {
                        self.ops.guard[i as usize] = (cc << 1) | pol as u32;
                    }
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
            ops: UOps::default(),
            base_cost: 0,
            terms: Vec::new(),
            breaks: Vec::new(),
            next_cc: real_cc_demand,
        };
        b.emit(&spec.items, None, 0, true)?;
        let pops = (0..b.ops.len()).map(|i| b.ops.pack(i)).collect();
        let (_, cc_demand, _) = b.ops.demand();
        Some(FusedRef {
            pops,
            base_cost: b.base_cost,
            terms: b.terms.into_boxed_slice(),
            breaks: b.breaks.into_boxed_slice(),
            // Break/term ccs are either real (≤ real demand: the decoded
            // code's cc fold covers every tested cc) or synthetic (< next_cc).
            cc_len: cc_demand.max(b.next_cc).max(real_cc_demand),
        })
    }
}

/// A [`LoopSpec`] lowered to a flat sequential program.
#[derive(Debug, Clone)]
pub struct DecodedRef {
    code: Vec<RefInstr>,
    ops: UOps,
    n_regs: u32,
    n_ccs: u32,
    /// Static register/cc/array demand ([`UOps::demand`] plus tested
    /// ccs); [`ref_fusedloop`] runs only when the grown state meets it
    /// (arrays included: the branch-free [`exec_pop`] evaluates squashed
    /// loads/stores unconditionally, which must not fault on a missing
    /// array).
    reg_demand: u32,
    cc_demand: u32,
    arr_demand: u32,
    /// Worst-case costed cycles of one source iteration (every instruction
    /// executed). While at least this much budget remains, an iteration
    /// cannot trip any budget check, so the fused loop hoists them all.
    iter_cost_bound: u64,
    /// The iteration as one fused pop stream, when the body shape allows.
    fused: Option<FusedRef>,
}

impl DecodedRef {
    /// Lower a spec. Decoding never fails; anything the interpreter would
    /// reject at runtime is rejected identically at decoded runtime.
    pub fn decode(spec: &LoopSpec) -> Self {
        let mut d = DecodedRef {
            code: Vec::new(),
            ops: UOps::default(),
            n_regs: spec.n_regs,
            n_ccs: spec.n_ccs,
            reg_demand: 0,
            cc_demand: 0,
            arr_demand: 0,
            iter_cost_bound: 0,
            fused: None,
        };
        d.lower_items(&spec.items);
        let (reg_demand, cc_demand, arr_demand) = d.ops.demand();
        // `If`/`Break` items read ccs outside the micro-op stream.
        d.reg_demand = reg_demand;
        d.arr_demand = arr_demand;
        d.cc_demand = cc_demand.max(d.code.iter().fold(0, |m, instr| match *instr {
            RefInstr::If { cc, .. } | RefInstr::Break { cc } => m.max(cc + 1),
            _ => m,
        }));
        d.iter_cost_bound = d
            .code
            .iter()
            .map(|instr| match *instr {
                RefInstr::Run { lo, hi } => (hi - lo) as u64,
                RefInstr::If { .. } | RefInstr::Break { .. } => 1,
                RefInstr::Goto(_) => 0,
            })
            .sum();
        d.fused = FusedRef::build(spec, d.cc_demand);
        d
    }

    fn lower_items(&mut self, items: &[Item]) {
        // Only adjacent ops at the SAME nesting level merge into a run: an
        // op following an `If` must start fresh, or it would be absorbed
        // into the then/else branch and skipped on the other path.
        let mut prev_op = false;
        for item in items {
            match item {
                Item::Op(op) => {
                    let i = self.ops.push_op(op, 0);
                    match self.code.last_mut() {
                        Some(RefInstr::Run { hi, .. }) if prev_op => *hi = i + 1,
                        _ => self.code.push(RefInstr::Run { lo: i, hi: i + 1 }),
                    }
                    prev_op = true;
                }
                Item::If(f) => {
                    let if_pc = self.code.len();
                    self.code.push(RefInstr::If {
                        cc: f.cc.0,
                        if_id: f.if_id,
                        else_pc: 0, // patched below
                    });
                    self.lower_items(&f.then_items);
                    let else_pc = if f.else_items.is_empty() {
                        self.code.len() as u32
                    } else {
                        let goto_pc = self.code.len();
                        self.code.push(RefInstr::Goto(0)); // patched below
                        let else_start = self.code.len() as u32;
                        self.lower_items(&f.else_items);
                        self.code[goto_pc] = RefInstr::Goto(self.code.len() as u32);
                        else_start
                    };
                    if let RefInstr::If { else_pc: e, .. } = &mut self.code[if_pc] {
                        *e = else_pc;
                    }
                    prev_op = false;
                }
                Item::Break(b) => {
                    self.code.push(RefInstr::Break { cc: b.cc.0 });
                    prev_op = false;
                }
            }
        }
    }

    /// Execute until `BREAK`, at most `max_cycles` costed instructions,
    /// mirroring [`crate::reference::run_reference`] (state growth, budget
    /// placement, trace contents) exactly. Pass `trace` to collect
    /// per-iteration IF outcomes; batch callers skip it.
    pub fn run(
        &self,
        st: &mut MachineState,
        scr: &mut Scratch,
        max_cycles: u64,
        mut trace: Option<&mut Vec<BTreeMap<u32, bool>>>,
    ) -> Result<RefCounts, SimError> {
        st.grow(self.n_regs, self.n_ccs);
        let fast = self.reg_demand as usize <= st.regs.len()
            && self.cc_demand as usize <= st.ccs.len()
            && self.arr_demand as usize <= st.arrays.len();
        let mut cycles: u64 = 0;
        let mut iterations: u64 = 0;
        // IF outcomes exist only to feed the trace; batch callers pass
        // `None` and skip the bookkeeping entirely.
        let record = trace.is_some();
        // Trace-free fast path: run whole fused iterations with the budget
        // checks hoisted behind `iter_cost_bound`. On a budget bail the
        // generic loop below finishes from the carried counters and raises
        // any exhaustion error at the interpreter's exact cycle. (A zero
        // bound means a costless body; the generic loop handles it
        // identically.)
        if let Some(f) = self
            .fused
            .as_ref()
            .filter(|_| fast && !record && self.iter_cost_bound > 0)
        {
            // The fused stream's synthetic predicates live above the real
            // cc file, so it runs against a scratch cc buffer: real ccs in,
            // walk, real ccs back out. Errors skip the write-back — they
            // discard all state anyway.
            scr.fccs.clear();
            scr.fccs.extend_from_slice(&st.ccs);
            if scr.fccs.len() < f.cc_len as usize {
                scr.fccs.resize(f.cc_len as usize, false);
            }
            let MachineState { regs, arrays, .. } = &mut *st;
            // SAFETY: `fast` asserts the state meets the static demand
            // (cc_demand covers every tested condition register), the
            // buffer meets `cc_len`, and execution is sequential.
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
            let n = st.ccs.len();
            st.ccs.copy_from_slice(&scr.fccs[..n]);
            if broke {
                return Ok(RefCounts { iterations, cycles });
            }
        }
        loop {
            iterations += 1;
            if record {
                scr.outcomes.clear();
            }
            let mut pc = 0usize;
            let mut broke = false;
            while pc < self.code.len() {
                match self.code[pc] {
                    RefInstr::Run { lo, hi } => {
                        for i in lo..hi {
                            if cycles > max_cycles {
                                return Err(SimError::CycleBudgetExceeded(max_cycles));
                            }
                            cycles += 1;
                            self.exec_seq(i as usize, st)?;
                        }
                        pc += 1;
                    }
                    RefInstr::If { cc, if_id, else_pc } => {
                        if cycles > max_cycles {
                            return Err(SimError::CycleBudgetExceeded(max_cycles));
                        }
                        cycles += 1;
                        let taken = read_cc(st, cc)?;
                        if record {
                            scr.outcomes.push((if_id, taken));
                        }
                        pc = if taken { pc + 1 } else { else_pc as usize };
                    }
                    RefInstr::Break { cc } => {
                        if cycles > max_cycles {
                            return Err(SimError::CycleBudgetExceeded(max_cycles));
                        }
                        cycles += 1;
                        if read_cc(st, cc)? {
                            broke = true;
                            break;
                        }
                        pc += 1;
                    }
                    RefInstr::Goto(t) => pc = t as usize,
                }
            }
            if let Some(tr) = trace.as_mut() {
                tr.push(scr.outcomes.iter().copied().collect());
            }
            if broke {
                break;
            }
            if cycles > max_cycles {
                return Err(SimError::CycleBudgetExceeded(max_cycles));
            }
        }
        Ok(RefCounts { iterations, cycles })
    }

    /// Sequential execution applies each effect immediately (one op per
    /// cycle can never conflict). `Break`/`If` effects arising from bare
    /// `Item::Op` wrappers are discarded, exactly as the interpreter's
    /// `run_items` discards `commit`'s outcome for plain ops.
    #[inline]
    fn exec_seq(&self, i: usize, st: &mut MachineState) -> Result<(), SimError> {
        match self.ops.eval(i, st)? {
            PEff::Gpr(r, v) => {
                let slot = st.regs.get_mut(r as usize).ok_or_else(|| bad_reg(r))?;
                *slot = v;
            }
            PEff::Cc(c, v) => {
                let slot = st.ccs.get_mut(c as usize).ok_or_else(|| bad_cc(c))?;
                *slot = v;
            }
            PEff::Mem(arr, elem, v) => st.arrays[arr as usize][elem] = v,
            PEff::Break | PEff::If | PEff::Squash => {}
        }
        Ok(())
    }
}

/// Cycle/iteration counters of a decoded VLIW run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VliwCounts {
    /// Cycles spent in the body, excluding prologue/epilogue.
    pub body_cycles: u64,
    /// Prologue + body + epilogue cycles.
    pub total_cycles: u64,
    /// Transformed-loop iterations entered (back edges + 1).
    pub iterations: u64,
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
    /// Micro-op ranges, one per cycle.
    cycles: Vec<Cyc>,
    term: DTerm,
    /// Condition registers read by any terminator reachable from this
    /// block through zero-cycle dispatch chains: [`vliw_dispatchloop`]
    /// snapshots exactly these before the block's last cycle instead of
    /// copying the whole cc file.
    snap_ccs: Vec<u32>,
    /// `(head_lo, tail_lo, tail_hi)` into the packed pool when the whole
    /// block can run as two straight-line streams ([`UOps::merge_block`]):
    /// the fast loops execute `head_lo..tail_lo`, snapshot, then
    /// `tail_lo..tail_hi`, paying block-loop overhead once per block
    /// instead of once per cycle.
    merged: Option<(u32, u32, u32)>,
    /// `Some(back_edge_weight)` when every terminator successor is this
    /// block itself (a `Jump` to self, or a `Branch` whose arms agree —
    /// pipelined single-block kernels end in exactly that shape). Combined
    /// with `merged`, the run loop collapses into a superloop: stream
    /// slices, budget bound, and state pointers hoisted once, no snapshot
    /// (no reachable terminator reads one), no per-iteration block
    /// dispatch. The uniform-`Branch` cc read is skipped — under the
    /// `fast` demand precondition it cannot fault and its value picks
    /// between identical successors.
    self_loop: Option<u64>,
}

/// A [`VliwLoop`] lowered to flat micro-op ranges and integer successors.
#[derive(Debug, Clone)]
pub struct DecodedVliw {
    ops: UOps,
    /// Packed streams of the merged blocks, concatenated
    /// ([`DBlock::merged`] indexes into this pool).
    pexec: Vec<POp>,
    prologue: Vec<Cyc>,
    epilogue: Vec<Cyc>,
    blocks: Vec<DBlock>,
    entry: usize,
    /// Static register/cc/array demand ([`UOps::demand`] plus terminator
    /// ccs); only runs whose state meets it enter [`superloop`] or
    /// [`vliw_dispatchloop`].
    reg_demand: u32,
    cc_demand: u32,
    arr_demand: u32,
    /// Whether the whole CFG qualifies for [`vliw_dispatchloop`]: every
    /// non-empty block is `merged` and every successor index is in range,
    /// so the fast path can iterate blocks with budget checks hoisted and
    /// no per-block malformedness tests. (Multi-block programs — the
    /// condition-dependent block successions PSP emits for loops with
    /// conditions — spend their whole life in this dispatch.)
    dispatch_ok: bool,
}

impl DecodedVliw {
    /// Lower a compiled loop. Like the interpreter, malformed successor
    /// indices only fault when actually taken.
    pub fn decode(prog: &VliwLoop) -> Self {
        let mut ops = UOps::default();
        let mut lower_cycle = |cycle: &[Operation]| {
            let lo = ops.len() as u32;
            for op in cycle {
                ops.push_op(op, 0);
            }
            Cyc {
                lo,
                hi: ops.len() as u32,
            }
        };
        let prologue: Vec<_> = prog.prologue.iter().map(|c| lower_cycle(c)).collect();
        let mut blocks: Vec<_> = prog
            .blocks
            .iter()
            .map(|b| DBlock {
                cycles: b.cycles.iter().map(|c| lower_cycle(c)).collect(),
                term: match b.term {
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
                },
                snap_ccs: Vec::new(),
                merged: None,
                self_loop: None,
            })
            .collect();
        // A snapshot taken before block B's last cycle serves B's own
        // terminator and, because zero-cycle blocks dispatch without
        // refreshing it, every terminator reachable from B through chains
        // of empty blocks. Collect those ccs per block.
        for bi in 0..blocks.len() {
            let mut ccs: Vec<u32> = Vec::new();
            let mut stack = vec![bi];
            let mut seen = vec![false; blocks.len()];
            while let Some(b) = stack.pop() {
                if std::mem::replace(&mut seen[b], true) {
                    continue;
                }
                let succ = |t: usize, stack: &mut Vec<usize>| {
                    if blocks.get(t).is_some_and(|nb| nb.cycles.is_empty()) {
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
        let epilogue: Vec<_> = prog.epilogue.iter().map(|c| lower_cycle(c)).collect();
        let mut pexec = Vec::new();
        for b in &mut blocks {
            b.merged = ops.merge_block(&b.cycles, &mut pexec);
        }
        for (bi, b) in blocks.iter_mut().enumerate() {
            b.self_loop = match b.term {
                DTerm::Jump(s) if s.tgt() == bi => Some(s.back()),
                DTerm::Branch { t, f, .. } if t == f && t.tgt() == bi => Some(t.back()),
                _ => None,
            };
        }
        let (reg_demand, mut cc_demand, arr_demand) = ops.demand();
        // Terminator ccs join the demand so the fast path may index the
        // snapshot directly.
        for b in &blocks {
            if let DTerm::Branch { cc, .. } = b.term {
                cc_demand = cc_demand.max(cc + 1);
            }
        }
        let dispatch_ok = !blocks.is_empty()
            && blocks.iter().all(|b| {
                let succs_ok = match b.term {
                    DTerm::Jump(s) => s.tgt() < blocks.len(),
                    DTerm::Branch { t, f, .. } => t.tgt() < blocks.len() && f.tgt() < blocks.len(),
                    DTerm::Exit => true,
                };
                succs_ok && (b.cycles.is_empty() || b.merged.is_some())
            });
        DecodedVliw {
            ops,
            pexec,
            prologue,
            epilogue,
            blocks,
            entry: prog.entry,
            reg_demand,
            cc_demand,
            arr_demand,
            dispatch_ok,
        }
    }

    /// Execute to completion (at most `max_cycles` body cycles), mirroring
    /// [`crate::vliw_run::run_vliw`] exactly: prologue break short-circuit,
    /// pre-cycle cc snapshot for branch dispatch chains, budget placement,
    /// iteration counting, and epilogue-on-exit.
    pub fn run(
        &self,
        st: &mut MachineState,
        scr: &mut Scratch,
        max_cycles: u64,
    ) -> Result<VliwCounts, SimError> {
        scr.prepare(st);
        let fast = self.reg_demand as usize <= st.regs.len()
            && self.cc_demand as usize <= st.ccs.len()
            && self.arr_demand as usize <= st.arrays.len();
        let mut body_cycles: u64 = 0;
        let mut total_cycles: u64 = 0;
        let mut iterations: u64 = 1;

        for &c in &self.prologue {
            total_cycles += 1;
            if step_decoded_cycle(&self.ops, c, st, scr)? {
                return self.finish(st, scr, 0, total_cycles, 0);
            }
        }

        let mut bi = self.entry;
        let mut block = self
            .blocks
            .get(self.entry)
            .ok_or_else(|| SimError::Malformed(format!("entry block {} missing", self.entry)))?;
        let mut have_snap = false;

        // Hop through empty Jump-only blocks once up front (e.g. an empty
        // entry dispatch block in front of a self-loop kernel): the steady
        // state then reaches the superloop instead of paying per-iteration
        // dispatch. A Jump reads no cc, costs no cycle, and counts its
        // back-edge exactly like both loops below; the hop bound only
        // matters for an all-empty cycle, which diverges identically in
        // the generic loop.
        let mut hops = 0;
        while block.cycles.is_empty() && hops <= self.blocks.len() {
            let DTerm::Jump(s) = block.term else { break };
            let Some(next) = self.blocks.get(s.tgt()) else {
                break;
            };
            iterations += s.back();
            bi = s.tgt();
            block = next;
            hops += 1;
        }

        loop {
            if fast {
                if let (Some(back), Some((head_lo, _, tail_hi))) = (block.self_loop, block.merged) {
                    // Superloop: the block's only successor is itself, so
                    // iterate the two streams with everything else hoisted
                    // out — ends on BREAK or hands the last few cycles to
                    // the generic path when the budget gets close (which
                    // then raises the exact exhaustion error).
                    let n = block.cycles.len() as u64;
                    let body = &self.pexec[head_lo as usize..tail_hi as usize];
                    let body_before = body_cycles;
                    let broke = {
                        let MachineState {
                            regs, ccs, arrays, ..
                        } = &mut *st;
                        // SAFETY: `fast` asserts the state meets the
                        // static demand; the stream is a `fuse_order`
                        // schedule.
                        unsafe {
                            superloop(
                                body,
                                regs,
                                ccs,
                                arrays,
                                n,
                                back,
                                max_cycles,
                                &mut body_cycles,
                                &mut iterations,
                            )?
                        }
                    };
                    total_cycles += body_cycles - body_before;
                    if broke {
                        return self.finish(st, scr, body_cycles, total_cycles, iterations);
                    }
                } else if self.dispatch_ok {
                    // Multi-block fast path: condition-dependent block
                    // succession with the bookkeeping hoisted. Bails to the
                    // generic loop when the next block nears the budget.
                    let body_before = body_cycles;
                    let exit = {
                        let MachineState {
                            regs, ccs, arrays, ..
                        } = &mut *st;
                        // SAFETY: `fast` asserts the state meets the static
                        // demand (terminator ccs included, and `prepare`
                        // sized the snapshot to match); the streams are
                        // `fuse_order` schedules.
                        unsafe {
                            vliw_dispatchloop(
                                &self.blocks,
                                &self.pexec,
                                &mut scr.snap,
                                regs,
                                ccs,
                                arrays,
                                bi,
                                max_cycles,
                                &mut have_snap,
                                &mut body_cycles,
                                &mut iterations,
                            )?
                        }
                    };
                    total_cycles += body_cycles - body_before;
                    match exit {
                        DispatchExit::Broke | DispatchExit::Exited => {
                            return self.finish(st, scr, body_cycles, total_cycles, iterations);
                        }
                        DispatchExit::Bail(nbi) => {
                            bi = nbi;
                            block = &self.blocks[bi];
                        }
                    }
                }
            }
            // The generic evaluator: one checked cycle at a time.
            let n = block.cycles.len();
            for (i, &c) in block.cycles.iter().enumerate() {
                if body_cycles >= max_cycles {
                    return Err(SimError::CycleBudgetExceeded(max_cycles));
                }
                if i + 1 == n {
                    scr.snap.clear();
                    scr.snap.extend_from_slice(&st.ccs);
                    have_snap = true;
                }
                body_cycles += 1;
                total_cycles += 1;
                if step_decoded_cycle(&self.ops, c, st, scr)? {
                    return self.finish(st, scr, body_cycles, total_cycles, iterations);
                }
            }
            let succ = match block.term {
                DTerm::Jump(s) => s,
                DTerm::Branch { cc, t, f } => {
                    let v = if have_snap {
                        *scr.snap.get(cc as usize).ok_or_else(|| bad_cc(cc))?
                    } else {
                        // Entry dispatch before any body cycle: committed
                        // state is the right one.
                        read_cc(st, cc)?
                    };
                    // Branch-free: the successor is a function of random
                    // trial data, so a branch here mispredicts on nearly
                    // every dispatch.
                    DSucc::sel(v, t, f)
                }
                DTerm::Exit => {
                    return self.finish(st, scr, body_cycles, total_cycles, iterations);
                }
            };
            iterations += succ.back();
            let tgt = succ.tgt();
            bi = tgt;
            block = self
                .blocks
                .get(tgt)
                .ok_or_else(|| SimError::Malformed(format!("block {tgt} missing")))?;
            if !block.cycles.is_empty() {
                have_snap = false;
            }
        }
    }

    fn finish(
        &self,
        st: &mut MachineState,
        scr: &mut Scratch,
        body_cycles: u64,
        mut total_cycles: u64,
        iterations: u64,
    ) -> Result<VliwCounts, SimError> {
        for &c in &self.epilogue {
            total_cycles += 1;
            step_decoded_cycle(&self.ops, c, st, scr)?;
        }
        Ok(VliwCounts {
            body_cycles,
            total_cycles,
            iterations,
        })
    }
}

/// Decoded-engine counterpart of [`crate::reference::run_reference`]:
/// decodes, runs once, and materializes a full [`RefRun`] (including the
/// IF-outcome trace). Bit-identical by the differential suites.
pub fn run_reference_decoded(
    spec: &LoopSpec,
    state: MachineState,
    max_cycles: u64,
) -> Result<RefRun, SimError> {
    let d = DecodedRef::decode(spec);
    let mut st = state;
    let mut scr = Scratch::default();
    let mut trace = Vec::new();
    let c = d.run(&mut st, &mut scr, max_cycles, Some(&mut trace))?;
    Ok(RefRun {
        state: st,
        iterations: c.iterations,
        cycles: c.cycles,
        trace,
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
            assert_eq!(a.trace, b.trace);
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
        // The same Scratch serves many runs; conflict stamps must never
        // leak between them.
        let spec = vecmin();
        let d = DecodedRef::decode(&spec);
        let dv = DecodedVliw::decode(&fig1b());
        let mut scr = Scratch::default();
        for data in [vec![5, 3, 8], vec![1], vec![4, 4, 4, 4]] {
            let mut st = initial(data.clone());
            d.run(&mut st, &mut scr, 10_000, None).unwrap();
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
}
