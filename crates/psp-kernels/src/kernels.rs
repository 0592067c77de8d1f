//! The kernels and their registry.

use crate::data::KernelData;
use psp_ir::op::build::*;
use psp_ir::{CmpOp, LoopBuilder, LoopSpec, Reg, RegRef};
use psp_sim::MachineState;

type InitFn = Box<dyn Fn(&KernelData) -> MachineState + Send + Sync>;
type GoldenRegsFn = Box<dyn Fn(&KernelData) -> Vec<(RegRef, i64)> + Send + Sync>;
type GoldenYFn = Box<dyn Fn(&KernelData) -> Vec<i64> + Send + Sync>;

/// One benchmark kernel: a source loop, its input mapping, and independent
/// golden results.
pub struct Kernel {
    /// Kernel name (registry key).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The source loop.
    pub spec: LoopSpec,
    init: InitFn,
    golden_regs: GoldenRegsFn,
    golden_y: Option<GoldenYFn>,
}

impl Kernel {
    /// Build the initial machine state for the given input.
    pub fn initial_state(&self, data: &KernelData) -> MachineState {
        (self.init)(data)
    }

    /// Check a final state against the kernel's independent golden results
    /// (live-out registers and, where applicable, the output array).
    pub fn check(&self, state: &MachineState, data: &KernelData) -> Result<(), String> {
        for (reg, expected) in (self.golden_regs)(data) {
            let actual = match reg {
                RegRef::Gpr(r) => state.regs[r.0 as usize],
                RegRef::Cc(c) => state.ccs[c.0 as usize] as i64,
            };
            if actual != expected {
                return Err(format!(
                    "{}: live-out {reg} = {actual}, expected {expected}",
                    self.name
                ));
            }
        }
        if let Some(gy) = &self.golden_y {
            let expected = gy(data);
            let actual = &state.arrays[1];
            if actual != &expected {
                return Err(format!("{}: output array mismatch", self.name));
            }
        }
        Ok(())
    }

    /// Whether the kernel writes the `y` array.
    pub fn writes_y(&self) -> bool {
        self.golden_y.is_some()
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").field("name", &self.name).finish()
    }
}

fn base_state(n_regs: u32, n_ccs: u32, data: &KernelData, with_y: bool) -> MachineState {
    let mut s = MachineState::new(n_regs.max(8), n_ccs.max(4));
    s.push_array(data.x.clone());
    if with_y {
        s.push_array(data.y.clone());
    }
    s
}

/// The paper's running example (§1.1): `for (k=0;k<n;k++) if (x[k]<x[m]) m=k;`.
pub fn vecmin() -> Kernel {
    let mut b = LoopBuilder::new("vecmin");
    let x = b.array("x");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let m = b.named_reg("m");
    let xk = b.named_reg("xk");
    let xm = b.named_reg("xm");
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
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc1, k, n));
    b.break_(cc1);
    let spec = b.finish([n, k, m], [m]);
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "vecmin",
        description: "index of the first minimum (paper Fig. 1)",
        spec,
        init: Box::new(move |d| {
            let mut s = base_state(nr, nc, d, false);
            s.regs[n.0 as usize] = d.len() as i64;
            s
        }),
        golden_regs: Box::new(move |d| {
            let mut mi = 0usize;
            for (i, &v) in d.x.iter().enumerate() {
                if v < d.x[mi] {
                    mi = i;
                }
            }
            vec![(RegRef::Gpr(m), mi as i64)]
        }),
        golden_y: None,
    }
}

/// `if (x[k] > t) acc += x[k];` — conditional accumulation.
pub fn cond_sum() -> Kernel {
    let mut b = LoopBuilder::new("cond_sum");
    let x = b.array("x");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let acc = b.named_reg("acc");
    let t = b.named_reg("t");
    let xk = b.reg();
    let cc0 = b.cc();
    let cc1 = b.cc();
    b.op(load(xk, x, k));
    b.op(cmp(CmpOp::Gt, cc0, xk, t));
    b.if_else(
        cc0,
        |b| {
            b.op(add(acc, acc, xk));
        },
        |_| {},
    );
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc1, k, n));
    b.break_(cc1);
    let spec = b.finish([n, k, acc, t], [acc]);
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "cond_sum",
        description: "sum of elements above a threshold",
        spec,
        init: Box::new(move |d| {
            let mut s = base_state(nr, nc, d, false);
            s.regs[n.0 as usize] = d.len() as i64;
            s.regs[t.0 as usize] = d.t;
            s
        }),
        golden_regs: Box::new(move |d| {
            let sum: i64 = d.x.iter().filter(|&&v| v > d.t).sum();
            vec![(RegRef::Gpr(acc), sum)]
        }),
        golden_y: None,
    }
}

/// `if (x[k] > t) cnt++;` — conditional count.
pub fn count_above() -> Kernel {
    let mut b = LoopBuilder::new("count_above");
    let x = b.array("x");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let cnt = b.named_reg("cnt");
    let t = b.named_reg("t");
    let xk = b.reg();
    let cc0 = b.cc();
    let cc1 = b.cc();
    b.op(load(xk, x, k));
    b.op(cmp(CmpOp::Gt, cc0, xk, t));
    b.if_else(
        cc0,
        |b| {
            b.op(add(cnt, cnt, 1i64));
        },
        |_| {},
    );
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc1, k, n));
    b.break_(cc1);
    let spec = b.finish([n, k, cnt, t], [cnt]);
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "count_above",
        description: "count of elements above a threshold",
        spec,
        init: Box::new(move |d| {
            let mut s = base_state(nr, nc, d, false);
            s.regs[n.0 as usize] = d.len() as i64;
            s.regs[t.0 as usize] = d.t;
            s
        }),
        golden_regs: Box::new(move |d| {
            let c = d.x.iter().filter(|&&v| v > d.t).count() as i64;
            vec![(RegRef::Gpr(cnt), c)]
        }),
        golden_y: None,
    }
}

/// `y[k] = clamp(x[k], lo, hi)` — two nested IFs, store on every path.
pub fn clamp_store() -> Kernel {
    let mut b = LoopBuilder::new("clamp_store");
    let x = b.array("x");
    let y = b.array("y");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let lo = b.named_reg("lo");
    let hi = b.named_reg("hi");
    let v = b.reg();
    let cc0 = b.cc();
    let cc1 = b.cc();
    let cc2 = b.cc();
    b.op(load(v, x, k));
    b.op(cmp(CmpOp::Lt, cc0, v, lo));
    b.if_else(
        cc0,
        |b| {
            b.op(copy(v, lo));
        },
        |b| {
            b.op(cmp(CmpOp::Gt, cc1, v, hi));
            b.if_else(
                cc1,
                |b| {
                    b.op(copy(v, hi));
                },
                |_| {},
            );
        },
    );
    b.op(store(y, k, v));
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc2, k, n));
    b.break_(cc2);
    let spec = b.finish([n, k, lo, hi], Vec::<Reg>::new());
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "clamp_store",
        description: "clamp each element into [lo, hi] (nested IFs + store)",
        spec,
        init: Box::new(move |d| {
            let mut s = base_state(nr, nc, d, true);
            s.regs[n.0 as usize] = d.len() as i64;
            s.regs[lo.0 as usize] = d.lo;
            s.regs[hi.0 as usize] = d.hi;
            s
        }),
        golden_regs: Box::new(|_| vec![]),
        golden_y: Some(Box::new(|d| {
            d.x.iter().map(|&v| v.clamp(d.lo, d.hi)).collect()
        })),
    }
}

/// `acc += x[k]; if (acc > hi) acc = hi;` — saturating sum (loop-carried
/// dependence through `acc`).
pub fn sat_add() -> Kernel {
    let mut b = LoopBuilder::new("sat_add");
    let x = b.array("x");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let acc = b.named_reg("acc");
    let hi = b.named_reg("hi");
    let xk = b.reg();
    let cc0 = b.cc();
    let cc1 = b.cc();
    b.op(load(xk, x, k));
    b.op(add(acc, acc, xk));
    b.op(cmp(CmpOp::Gt, cc0, acc, hi));
    b.if_else(
        cc0,
        |b| {
            b.op(copy(acc, hi));
        },
        |_| {},
    );
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc1, k, n));
    b.break_(cc1);
    let spec = b.finish([n, k, acc, hi], [acc]);
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "sat_add",
        description: "saturating running sum (loop-carried acc)",
        spec,
        init: Box::new(move |d| {
            let mut s = base_state(nr, nc, d, false);
            s.regs[n.0 as usize] = d.len() as i64;
            s.regs[hi.0 as usize] = d.hi;
            s
        }),
        golden_regs: Box::new(move |d| {
            let mut a = 0i64;
            for &v in &d.x {
                a += v;
                if a > d.hi {
                    a = d.hi;
                }
            }
            vec![(RegRef::Gpr(acc), a)]
        }),
        golden_y: None,
    }
}

/// `d = x[k]; if (d < 0) d = -d; acc += d;` — sum of absolute values.
pub fn abs_sum() -> Kernel {
    let mut b = LoopBuilder::new("abs_sum");
    let x = b.array("x");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let acc = b.named_reg("acc");
    let d_ = b.reg();
    let cc0 = b.cc();
    let cc1 = b.cc();
    b.op(load(d_, x, k));
    b.op(cmp(CmpOp::Lt, cc0, d_, 0i64));
    b.if_else(
        cc0,
        |b| {
            b.op(sub(d_, 0i64, d_));
        },
        |_| {},
    );
    b.op(add(acc, acc, d_));
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc1, k, n));
    b.break_(cc1);
    let spec = b.finish([n, k, acc], [acc]);
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "abs_sum",
        description: "sum of absolute values",
        spec,
        init: Box::new(move |d| {
            let mut s = base_state(nr, nc, d, false);
            s.regs[n.0 as usize] = d.len() as i64;
            s
        }),
        golden_regs: Box::new(move |d| {
            let sum: i64 = d.x.iter().map(|&v| v.abs()).sum();
            vec![(RegRef::Gpr(acc), sum)]
        }),
        golden_y: None,
    }
}

/// `if (x[k] > best) { best = x[k]; pos = k; }` — running maximum with
/// position (two operations in the taken branch).
pub fn runmax() -> Kernel {
    let mut b = LoopBuilder::new("runmax");
    let x = b.array("x");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let best = b.named_reg("best");
    let pos = b.named_reg("pos");
    let xk = b.reg();
    let cc0 = b.cc();
    let cc1 = b.cc();
    b.op(load(xk, x, k));
    b.op(cmp(CmpOp::Gt, cc0, xk, best));
    b.if_else(
        cc0,
        |b| {
            b.op(copy(best, xk));
            b.op(copy(pos, k));
        },
        |_| {},
    );
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc1, k, n));
    b.break_(cc1);
    let spec = b.finish([n, k, best, pos], [best, pos]);
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "runmax",
        description: "running maximum with position",
        spec,
        init: Box::new(move |d| {
            let mut s = base_state(nr, nc, d, false);
            s.regs[n.0 as usize] = d.len() as i64;
            s.regs[best.0 as usize] = i64::MIN / 2;
            s.regs[pos.0 as usize] = -1;
            s
        }),
        golden_regs: Box::new(move |d| {
            let mut bv = i64::MIN / 2;
            let mut bp = -1i64;
            for (i, &v) in d.x.iter().enumerate() {
                if v > bv {
                    bv = v;
                    bp = i as i64;
                }
            }
            vec![(RegRef::Gpr(best), bv), (RegRef::Gpr(pos), bp)]
        }),
        golden_y: None,
    }
}

/// `y[k] = x[k] < 0 ? -1 : 1` — store in *both* branches.
pub fn sign_store() -> Kernel {
    let mut b = LoopBuilder::new("sign_store");
    let x = b.array("x");
    let y = b.array("y");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let xk = b.reg();
    let cc0 = b.cc();
    let cc1 = b.cc();
    b.op(load(xk, x, k));
    b.op(cmp(CmpOp::Lt, cc0, xk, 0i64));
    b.if_else(
        cc0,
        |b| {
            b.op(store(y, k, -1i64));
        },
        |b| {
            b.op(store(y, k, 1i64));
        },
    );
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc1, k, n));
    b.break_(cc1);
    let spec = b.finish([n, k], Vec::<Reg>::new());
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "sign_store",
        description: "store the sign of each element (stores on both branches)",
        spec,
        init: Box::new(move |d| {
            let mut s = base_state(nr, nc, d, true);
            s.regs[n.0 as usize] = d.len() as i64;
            s
        }),
        golden_regs: Box::new(|_| vec![]),
        golden_y: Some(Box::new(|d| {
            d.x.iter().map(|&v| if v < 0 { -1 } else { 1 }).collect()
        })),
    }
}

/// `if (x[k] > lo) if (x[k] < hi) acc += x[k];` — band-pass accumulation
/// with two nested IFs.
pub fn two_cond() -> Kernel {
    let mut b = LoopBuilder::new("two_cond");
    let x = b.array("x");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let acc = b.named_reg("acc");
    let lo = b.named_reg("lo");
    let hi = b.named_reg("hi");
    let xk = b.reg();
    let cc0 = b.cc();
    let cc1 = b.cc();
    let cc2 = b.cc();
    b.op(load(xk, x, k));
    b.op(cmp(CmpOp::Gt, cc0, xk, lo));
    b.if_else(
        cc0,
        |b| {
            b.op(cmp(CmpOp::Lt, cc1, xk, hi));
            b.if_else(
                cc1,
                |b| {
                    b.op(add(acc, acc, xk));
                },
                |_| {},
            );
        },
        |_| {},
    );
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc2, k, n));
    b.break_(cc2);
    let spec = b.finish([n, k, acc, lo, hi], [acc]);
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "two_cond",
        description: "band-pass accumulation (nested IFs)",
        spec,
        init: Box::new(move |d| {
            let mut s = base_state(nr, nc, d, false);
            s.regs[n.0 as usize] = d.len() as i64;
            s.regs[lo.0 as usize] = d.lo;
            s.regs[hi.0 as usize] = d.hi;
            s
        }),
        golden_regs: Box::new(move |d| {
            let sum: i64 = d.x.iter().filter(|&&v| v > d.lo && v < d.hi).sum();
            vec![(RegRef::Gpr(acc), sum)]
        }),
        golden_y: None,
    }
}

/// Linear search with early exit: `if (x[k] == t) { found = k; break; }`.
pub fn find_first() -> Kernel {
    let mut b = LoopBuilder::new("find_first");
    let x = b.array("x");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let found = b.named_reg("found");
    let t = b.named_reg("t");
    let xk = b.reg();
    let cc0 = b.cc();
    let cc1 = b.cc();
    b.op(load(xk, x, k));
    b.op(cmp(CmpOp::Eq, cc0, xk, t));
    b.if_else(
        cc0,
        |b| {
            b.op(copy(found, k));
        },
        |_| {},
    );
    b.break_(cc0);
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc1, k, n));
    b.break_(cc1);
    let spec = b.finish([n, k, found, t], [found]);
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "find_first",
        description: "linear search with early exit (two BREAKs)",
        spec,
        init: Box::new(move |d| {
            let mut s = base_state(nr, nc, d, false);
            s.regs[n.0 as usize] = d.len() as i64;
            s.regs[found.0 as usize] = -1;
            s.regs[t.0 as usize] = d.t;
            s
        }),
        golden_regs: Box::new(move |d| {
            let f =
                d.x.iter()
                    .position(|&v| v == d.t)
                    .map(|i| i as i64)
                    .unwrap_or(-1);
            vec![(RegRef::Gpr(found), f)]
        }),
        golden_y: None,
    }
}

/// Skewed-branch accumulation: `if (x[k] > t) { acc += x[k]; cnt++; }` —
/// pair with [`KernelData::with_taken_fraction`] for probability sweeps.
pub fn skewed() -> Kernel {
    let mut b = LoopBuilder::new("skewed");
    let x = b.array("x");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let acc = b.named_reg("acc");
    let cnt = b.named_reg("cnt");
    let t = b.named_reg("t");
    let xk = b.reg();
    let cc0 = b.cc();
    let cc1 = b.cc();
    b.op(load(xk, x, k));
    b.op(cmp(CmpOp::Gt, cc0, xk, t));
    b.if_else(
        cc0,
        |b| {
            b.op(add(acc, acc, xk));
            b.op(add(cnt, cnt, 1i64));
        },
        |_| {},
    );
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc1, k, n));
    b.break_(cc1);
    let spec = b.finish([n, k, acc, cnt, t], [acc, cnt]);
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "skewed",
        description: "threshold accumulation with tunable branch probability",
        spec,
        init: Box::new(move |d| {
            let mut s = base_state(nr, nc, d, false);
            s.regs[n.0 as usize] = d.len() as i64;
            s.regs[t.0 as usize] = d.t;
            s
        }),
        golden_regs: Box::new(move |d| {
            let sum: i64 = d.x.iter().filter(|&&v| v > d.t).sum();
            let c = d.x.iter().filter(|&&v| v > d.t).count() as i64;
            vec![(RegRef::Gpr(acc), sum), (RegRef::Gpr(cnt), c)]
        }),
        golden_y: None,
    }
}

/// `if (y[k] != 0) acc += x[k] * y[k];` — sparse dot product (two loads and
/// a multiply in the taken branch).
pub fn dot_cond() -> Kernel {
    let mut b = LoopBuilder::new("dot_cond");
    let x = b.array("x");
    let y = b.array("y");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let acc = b.named_reg("acc");
    let xk = b.reg();
    let yk = b.reg();
    let p = b.reg();
    let cc0 = b.cc();
    let cc1 = b.cc();
    b.op(load(xk, x, k));
    b.op(load(yk, y, k));
    b.op(cmp(CmpOp::Ne, cc0, yk, 0i64));
    b.if_else(
        cc0,
        |b| {
            b.op(alu(psp_ir::AluOp::Mul, p, xk, yk));
            b.op(add(acc, acc, p));
        },
        |_| {},
    );
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc1, k, n));
    b.break_(cc1);
    let spec = b.finish([n, k, acc], [acc]);
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "dot_cond",
        description: "sparse dot product (condition on second array)",
        spec,
        init: Box::new(move |d| {
            let mut s = base_state(nr, nc, d, true);
            s.regs[n.0 as usize] = d.len() as i64;
            s
        }),
        golden_regs: Box::new(move |d| {
            let sum: i64 =
                d.x.iter()
                    .zip(&d.y)
                    .filter(|(_, &yv)| yv != 0)
                    .map(|(&xv, &yv)| xv.wrapping_mul(yv))
                    .sum();
            vec![(RegRef::Gpr(acc), sum)]
        }),
        golden_y: None,
    }
}

/// `y[k] = x[k] > t ? x[k] : t` — threshold select with store on both
/// paths, the shape most favorable to if-conversion baselines.
pub fn threshold_store() -> Kernel {
    let mut b = LoopBuilder::new("threshold_store");
    let x = b.array("x");
    let y = b.array("y");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let t = b.named_reg("t");
    let xk = b.reg();
    let cc0 = b.cc();
    let cc1 = b.cc();
    b.op(load(xk, x, k));
    b.op(cmp(CmpOp::Gt, cc0, xk, t));
    b.if_else(
        cc0,
        |b| {
            b.op(store(y, k, xk));
        },
        |b| {
            b.op(store(y, k, t));
        },
    );
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc1, k, n));
    b.break_(cc1);
    let spec = b.finish([n, k, t], Vec::<Reg>::new());
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "threshold_store",
        description: "elementwise max with a scalar (stores on both branches)",
        spec,
        init: Box::new(move |d| {
            let mut s = base_state(nr, nc, d, true);
            s.regs[n.0 as usize] = d.len() as i64;
            s.regs[t.0 as usize] = d.t;
            s
        }),
        golden_regs: Box::new(|_| vec![]),
        golden_y: Some(Box::new(|d| {
            d.x.iter().map(|&v| if v > d.t { v } else { d.t }).collect()
        })),
    }
}

/// `if (x[k] > x[k+1]) { swap in y }` — one pass of bubble sort written to
/// a second array: two conditional stores to *adjacent, displaced*
/// addresses, the hardest memory-disambiguation shape in the suite.
pub fn bubble_pass() -> Kernel {
    let mut b = LoopBuilder::new("bubble_pass");
    let x = b.array("x");
    let y = b.array("y");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let a = b.reg();
    let c = b.reg();
    let cc0 = b.cc();
    let cc1 = b.cc();
    b.op(load(a, x, k));
    b.op(load_addr(c, psp_ir::Address::indexed(x, k).displaced(1)));
    b.op(cmp(CmpOp::Gt, cc0, a, c));
    b.if_else(
        cc0,
        |b| {
            b.op(store(y, k, c));
            b.op(store_addr(psp_ir::Address::indexed(y, k).displaced(1), a));
        },
        |b| {
            b.op(store(y, k, a));
            b.op(store_addr(psp_ir::Address::indexed(y, k).displaced(1), c));
        },
    );
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc1, k, n));
    b.break_(cc1);
    let spec = b.finish([n, k], Vec::<Reg>::new());
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "bubble_pass",
        description: "adjacent compare-and-order into y (conditional displaced stores)",
        spec,
        init: Box::new(move |d| {
            // Pad both arrays with one guard element so x[k+1] and y[k+1]
            // stay in bounds on the final iteration (k = n-1).
            let mut s = MachineState::new(nr.max(8), nc.max(4));
            let mut xp = d.x.clone();
            xp.push(i64::MAX / 2);
            let mut yp = d.y.clone();
            yp.push(0);
            s.push_array(xp);
            s.push_array(yp);
            s.regs[n.0 as usize] = d.len() as i64;
            s
        }),
        golden_regs: Box::new(|_| vec![]),
        golden_y: Some(Box::new(|d| {
            // Replay the sequential semantics on the padded arrays: later
            // iterations overwrite the shared boundary element.
            let mut xp = d.x.clone();
            xp.push(i64::MAX / 2);
            let mut y = d.y.clone();
            y.push(0);
            for k in 0..d.len() {
                let (a, c) = (xp[k], xp[k + 1]);
                if a > c {
                    y[k] = c;
                    y[k + 1] = a;
                } else {
                    y[k] = a;
                    y[k + 1] = c;
                }
            }
            y
        })),
    }
}

/// Simultaneous running minimum and maximum — two IFs, two live-outs.
pub fn minmax() -> Kernel {
    let mut b = LoopBuilder::new("minmax");
    let x = b.array("x");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let lo = b.named_reg("lo");
    let hi = b.named_reg("hi");
    let xk = b.reg();
    let cc0 = b.cc();
    let cc1 = b.cc();
    let cc2 = b.cc();
    b.op(load(xk, x, k));
    b.op(cmp(CmpOp::Lt, cc0, xk, lo));
    b.if_else(
        cc0,
        |b| {
            b.op(copy(lo, xk));
        },
        |_| {},
    );
    b.op(cmp(CmpOp::Gt, cc1, xk, hi));
    b.if_else(
        cc1,
        |b| {
            b.op(copy(hi, xk));
        },
        |_| {},
    );
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc2, k, n));
    b.break_(cc2);
    let spec = b.finish([n, k, lo, hi], [lo, hi]);
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "minmax",
        description: "running minimum and maximum (two IFs, two live-outs)",
        spec,
        init: Box::new(move |d| {
            let mut s = base_state(nr, nc, d, false);
            s.regs[n.0 as usize] = d.len() as i64;
            s.regs[lo.0 as usize] = i64::MAX / 2;
            s.regs[hi.0 as usize] = i64::MIN / 2;
            s
        }),
        golden_regs: Box::new(move |d| {
            vec![
                (RegRef::Gpr(lo), *d.x.iter().min().unwrap()),
                (RegRef::Gpr(hi), *d.x.iter().max().unwrap()),
            ]
        }),
        golden_y: None,
    }
}

/// Predicated multiply-accumulate: `if (x[k] > t) acc += x[k] * y[k]` — a
/// two-operand conditional body with a multiply on the taken path.
pub fn mac_cond() -> Kernel {
    let mut b = LoopBuilder::new("mac_cond");
    let x = b.array("x");
    let y = b.array("y");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let acc = b.named_reg("acc");
    let t = b.named_reg("t");
    let xk = b.reg();
    let yk = b.reg();
    let p = b.reg();
    let cc0 = b.cc();
    let cc1 = b.cc();
    b.op(load(xk, x, k));
    b.op(load(yk, y, k));
    b.op(cmp(CmpOp::Gt, cc0, xk, t));
    b.if_else(
        cc0,
        |b| {
            b.op(alu(psp_ir::AluOp::Mul, p, xk, yk));
            b.op(add(acc, acc, p));
        },
        |_| {},
    );
    b.op(add(k, k, 1i64));
    b.op(cmp(CmpOp::Ge, cc1, k, n));
    b.break_(cc1);
    let spec = b.finish([n, k, acc, t], [acc]);
    let (nr, nc) = (spec.n_regs, spec.n_ccs);
    Kernel {
        name: "mac_cond",
        description: "thresholded multiply-accumulate",
        spec,
        init: Box::new(move |d| {
            let mut s = base_state(nr, nc, d, true);
            s.regs[n.0 as usize] = d.len() as i64;
            s.regs[t.0 as usize] = d.t;
            s
        }),
        golden_regs: Box::new(move |d| {
            let sum: i64 =
                d.x.iter()
                    .zip(&d.y)
                    .filter(|(&xv, _)| xv > d.t)
                    .map(|(&xv, &yv)| xv.wrapping_mul(yv))
                    .sum();
            vec![(RegRef::Gpr(acc), sum)]
        }),
        golden_y: None,
    }
}

/// All kernels of the suite.
pub fn all_kernels() -> Vec<Kernel> {
    vec![
        vecmin(),
        cond_sum(),
        count_above(),
        clamp_store(),
        sat_add(),
        abs_sum(),
        runmax(),
        sign_store(),
        two_cond(),
        find_first(),
        skewed(),
        dot_cond(),
        threshold_store(),
        bubble_pass(),
        minmax(),
        mac_cond(),
    ]
}

/// Look up one kernel by name.
pub fn by_name(name: &str) -> Option<Kernel> {
    all_kernels().into_iter().find(|k| k.name == name)
}

/// The synthetic scaling loop: `blocks` independent conditional
/// accumulations over one loaded element (R0 = n, R1 = k, one array).
/// Codegen block count is exponential in live IFs, so this family
/// stresses every predicate-algebra hot path. It is a bare loop, not a
/// [`Kernel`]: there is no golden function, only the reference semantics.
pub fn synthetic(blocks: usize) -> LoopSpec {
    let mut b = LoopBuilder::new(format!("synthetic{blocks}"));
    let x = b.array("x");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let xk = b.reg();
    let mut live = vec![n, k];
    b.op(load(xk, x, k));
    for i in 0..blocks {
        let acc = b.named_reg(format!("acc{i}"));
        live.push(acc);
        let cc = b.cc();
        b.op(cmp(CmpOp::Gt, cc, xk, (i as i64) * 10 - 40));
        b.if_else(
            cc,
            |b| {
                b.op(add(acc, acc, xk));
            },
            |_| {},
        );
    }
    b.op(add(k, k, 1i64));
    let ccb = b.cc();
    b.op(cmp(CmpOp::Ge, ccb, k, n));
    b.break_(ccb);
    let outs = live[2..].to_vec();
    b.finish(live, outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::KernelData;
    use psp_sim::run_reference;

    /// Every kernel's reference execution must match its independent golden
    /// function on multiple random inputs.
    #[test]
    fn reference_matches_golden_on_random_inputs() {
        for kernel in all_kernels() {
            kernel.spec.validate().unwrap_or_else(|e| {
                panic!("{}: invalid spec: {e}", kernel.name);
            });
            for seed in 0..5u64 {
                let mut data = KernelData::random(seed * 31 + 7, 64);
                if kernel.name == "find_first" {
                    // Ensure the target is sometimes present.
                    if seed % 2 == 0 {
                        let present = data.x[37];
                        data = data.with_threshold(present);
                    } else {
                        data = data.with_threshold(1000);
                    }
                }
                let init = kernel.initial_state(&data);
                let run = run_reference(&kernel.spec, init, 1_000_000)
                    .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
                kernel
                    .check(&run.state, &data)
                    .unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }

    #[test]
    fn registry_is_complete_and_unique() {
        let ks = all_kernels();
        assert!(ks.len() >= 12);
        let mut names: Vec<_> = ks.iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ks.len());
        assert!(by_name("vecmin").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn vecmin_matches_paper_example_shape() {
        let k = vecmin();
        assert_eq!(k.spec.n_ifs, 1);
        assert_eq!(k.spec.op_count(), 8);
    }

    #[test]
    fn find_first_early_exit_shortens_run() {
        let k = find_first();
        let mut data = KernelData::random(3, 100);
        data.x[10] = 4242;
        let data = data.with_threshold(4242);
        let run = run_reference(&k.spec, k.initial_state(&data), 1_000_000).unwrap();
        assert_eq!(run.iterations, 11); // exits in iteration 11 (k = 10)
        k.check(&run.state, &data).unwrap();
    }

    #[test]
    fn writes_y_flags_store_kernels() {
        assert!(by_name("clamp_store").unwrap().writes_y());
        assert!(by_name("sign_store").unwrap().writes_y());
        assert!(by_name("threshold_store").unwrap().writes_y());
        assert!(!by_name("vecmin").unwrap().writes_y());
    }

    #[test]
    fn single_element_inputs_work() {
        for kernel in all_kernels() {
            let data = KernelData::random(11, 1);
            let run = run_reference(&kernel.spec, kernel.initial_state(&data), 100_000).unwrap();
            kernel.check(&run.state, &data).unwrap();
            assert_eq!(run.iterations, 1, "{}", kernel.name);
        }
    }
}
