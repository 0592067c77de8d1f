//! Candidate scoring, and the schedule walk that scoring and code
//! generation share.
//!
//! The paper's technique evaluates candidate transformations heuristically
//! and applies the best (§3). Our evaluation is *semantic*: a candidate is
//! tried on a clone of the schedule, compacted, and scored exactly on the
//! initiation intervals of the loop code generation would build from it —
//! either by worst-case II (the static, data-dependence-driven mode) or by
//! the expected mean dynamic II under a branch profile (the §4 extension:
//! "heuristics driven by dynamic probabilities of path sets"). Both come
//! from one walk of the schedule's steady state, so scoring never needs the
//! generated program.
//!
//! The walk (`steady_states`) is the one enumeration of the steady state's
//! paths (paper §2; the steps are listed in [`codegen`](crate::codegen)),
//! with the writes in flight on each path and the empty cycles the
//! machine's latency rule makes it wait ([`InFlight`]). Code generation
//! runs it with merging off and places each path's instances as the walk
//! issues them. Scoring merges paths: after a row that leaves more than a
//! few open states (and, after a merge, more than twice as many as the
//! merge left), it projects every state's matrix onto the keys the rest of
//! the walk reads: the formal keys of later instances, the split keys of
//! later IFs, and the back-edge keys. States with the same entry, the same
//! projection and the same writes in flight have the same future, so they
//! merge into one state that carries the tallies the objectives need. The
//! work is bounded by the states, which stay few when IF outcomes are read
//! soon after they are computed; the path cap ([`MAX_WALK_PATHS`]) still
//! counts paths, because code generation opens one block per path before
//! it shares equal blocks.

use crate::codegen::{Blocks, CodegenError, MAX_WALK_PATHS};
use crate::instance::Instance;
use crate::schedule::Schedule;
use psp_ir::{CcReg, OpKind};
use psp_machine::{InFlight, MachineConfig};
use psp_predicate::{PredAvailability, PredElem, PredicateMatrix};
use std::collections::HashMap;

/// A schedule's figure of merit. Lower is better, compared
/// lexicographically.
#[derive(Debug, Clone, PartialEq)]
pub struct Score {
    /// Primary: expected (profile mode) or maximal (static mode) II.
    pub primary: f64,
    /// Rows of the schedule (static code length of the body).
    pub rows: usize,
    /// Instances (code size; splits and renames grow it).
    pub instances: usize,
}

impl Score {
    /// Strictly better than `other`.
    pub fn better_than(&self, other: &Score) -> bool {
        const EPS: f64 = 1e-9;
        if self.primary + EPS < other.primary {
            return true;
        }
        if self.primary > other.primary + EPS {
            return false;
        }
        (self.rows, self.instances) < (other.rows, other.instances)
    }
}

/// Per-IF-row probability of the True outcome (stationary model).
pub type BranchProbs = Vec<f64>;

/// The probability of one matrix element: the row's True probability
/// (clamped to `[0, 1]`; rows beyond `probs` count as 0.5) or its
/// complement.
fn factor(probs: &[f64], row: u32, v: bool) -> f64 {
    let p = probs.get(row as usize).map_or(0.5, |p| p.clamp(0.0, 1.0));
    if v {
        p
    } else {
        1.0 - p
    }
}

/// The measure of a matrix's path set: the product of the factors of its
/// constrained elements, in key order.
fn measure(m: &PredicateMatrix, probs: &[f64]) -> f64 {
    m.constrained()
        .map(|(r, _, v)| factor(probs, r, v))
        .product()
}

/// What the objectives need of a set of paths that share their future.
#[derive(Debug, Clone, Copy)]
struct Tally {
    /// Number of paths (saturating).
    paths: usize,
    /// Cycle counts of the longest and the shortest path.
    max: usize,
    min: usize,
    /// Σ(cycles − min) over the paths.
    excess: usize,
    /// Under a profile, Σw and Σw·(cycles − min), where w is the measure of
    /// the elements the walk has projected away.
    w: f64,
    w_excess: f64,
}

impl Tally {
    /// One path that has not issued a cycle yet.
    const START: Tally = Tally {
        paths: 1,
        max: 0,
        min: 0,
        excess: 0,
        w: 1.0,
        w_excess: 0.0,
    };

    /// Σ(cycles − `base`) and Σw·(cycles − `base`), for `base` ≤ `min`.
    fn excess_over(&self, base: usize) -> (usize, f64) {
        let lift = self.min - base;
        (
            self.excess.saturating_add(self.paths.saturating_mul(lift)),
            self.w_excess + self.w * lift as f64,
        )
    }

    /// Add the paths of `other`. Excess stays relative to the shortest path,
    /// so paths that share one cycle count keep an excess of exactly 0.
    fn absorb(&mut self, other: &Tally) {
        let min = self.min.min(other.min);
        let (x, wx) = self.excess_over(min);
        let (ox, owx) = other.excess_over(min);
        *self = Tally {
            paths: self.paths.saturating_add(other.paths),
            max: self.max.max(other.max),
            min,
            excess: x.saturating_add(ox),
            w: self.w + other.w,
            w_excess: wx + owx,
        };
    }
}

/// Open paths of the walk with one entry, one matrix and one set of writes
/// in flight.
#[derive(Debug, Clone)]
pub(crate) struct State {
    /// Index of the entry matrix the paths started from.
    entry: usize,
    /// With merging off, the path's block in code generation's [`Blocks`].
    block: usize,
    /// The paths' matrix; once projected, restricted to the keys later rows
    /// and the back edge read.
    matrix: PredicateMatrix,
    /// The writes in flight after the paths' last cycle ([`Flights`]).
    flight: usize,
    tally: Tally,
}

/// The sets of writes in flight one walk meets, each stored once: a state
/// holds its set's index, so states copy and compare it as a number. Index
/// 0 is nothing in flight, the only set at unit latency. (States that held
/// the sets themselves made the walk about 10% slower at unit latency.)
struct Flights {
    sets: Vec<InFlight>,
    ids: HashMap<InFlight, usize>,
}

impl Flights {
    fn new() -> Self {
        Self {
            sets: vec![InFlight::default()],
            ids: HashMap::new(),
        }
    }

    /// The index of `set`, stored on first sight.
    fn id(&mut self, set: InFlight) -> usize {
        if set.is_empty() {
            return 0;
        }
        if let Some(&id) = self.ids.get(&set) {
            return id;
        }
        self.sets.push(set.clone());
        self.ids.insert(set, self.sets.len() - 1);
        self.sets.len() - 1
    }
}

impl State {
    /// Restrict the matrix to `keys`; under a profile, the weights take the
    /// factors of the elements dropped.
    fn project(&mut self, keys: &PredicateMatrix, probs: Option<&[f64]>) {
        let kept = self.matrix.restricted_to(keys);
        if let Some(probs) = probs {
            if kept.constrained_len() < self.matrix.constrained_len() {
                for (r, c, v) in self.matrix.constrained() {
                    if !keys.get(r, c).is_constrained() {
                        let f = factor(probs, r, v);
                        self.tally.w *= f;
                        self.tally.w_excess *= f;
                    }
                }
            }
        }
        self.matrix = kept;
    }
}

/// The most states a row may leave before the walk first projects and
/// merges them: while a loop has few paths, the key analysis projection
/// needs costs more than it saves. After each merge the walk waits until
/// the state count doubles, so rows whose paths cannot merge (nested IFs
/// keep every outer outcome live) pay for few attempts: merging after
/// every row past `MERGE_AT` instead scored 40- and 60-level nested-IF
/// loops 2-2.5× slower, and ran the E12 workloads no faster.
const MERGE_AT: usize = 4;

/// Merge the states that share an entry, a matrix and the writes in
/// flight. Sorting by a fingerprint makes equal states adjacent; a
/// fingerprint collision can only leave two equal states unmerged, which
/// costs work, not exactness.
/// (Sorting by the matrices' own `Ord`, or by their `Hash` through std's
/// `DefaultHasher`, made the walk about 40% or 15% slower on the
/// synthetic loops.)
fn merge(states: &mut Vec<State>) {
    states.sort_by_cached_key(|s| {
        // FNV-1a over the elements: cheap, and the same on every platform.
        let h = s
            .matrix
            .constrained()
            .fold(0xcbf2_9ce4_8422_2325, |h, (r, c, v)| {
                let e = u64::from(r) << 33 | u64::from(c as u32) << 1 | u64::from(v);
                (h ^ e).wrapping_mul(0x0100_0000_01b3)
            });
        (s.entry, s.flight, h)
    });
    states.dedup_by(|later, kept| {
        let same =
            later.entry == kept.entry && later.flight == kept.flight && later.matrix == kept.matrix;
        if same {
            kept.tally.absorb(&later.tally);
        }
        same
    });
}

const NO_IF_ROW: CodegenError = CodegenError::Internal("IF instance computes no predicate row");

/// The most incoming predicates whose 2^n entry paths fit under
/// [`MAX_WALK_PATHS`].
const MAX_ENTRY_SPLITS: usize = MAX_WALK_PATHS.trailing_zeros() as usize;

/// The predicates the steady state dispatches on at block entry: those a
/// constrained instance needs from the *previous* iteration. The walk
/// starts from them, and the preloop computes them.
pub(crate) fn incoming_predicates(sched: &Schedule) -> Result<Vec<(u32, i32)>, CodegenError> {
    let iflog = sched.iflog();
    let mut incoming: Vec<(u32, i32)> = Vec::new();
    for inst in sched.instances() {
        for (r, c, _v) in inst.formal.constrained() {
            match iflog.availability(r, c) {
                PredAvailability::PreviousIteration { .. } if !incoming.contains(&(r, c)) => {
                    incoming.push((r, c));
                }
                PredAvailability::NotComputed => {
                    return Err(CodegenError::UnresolvedPredicate(r, c))
                }
                _ => {}
            }
        }
    }
    incoming.sort_unstable();
    // One incoming column per IF row (a single condition register cannot
    // hold two iterations' outcomes).
    for w in incoming.windows(2) {
        if w[0].0 == w[1].0 {
            return Err(CodegenError::DispatchUnsupported);
        }
    }
    Ok(incoming)
}

/// `m` split on each predicate of `keys` in turn, written to `out` in place
/// of its contents: the entries are the universe split on the incoming
/// predicates, and the successors of a path that ends in a row are its
/// matrix split on the predicates the row's IFs compute. An outcome `m`
/// already fixes leaves one child. Splitting stops once `out` holds more
/// than `cap` matrices, which the caller refuses; returns `out.len()`.
fn fan_out(
    m: PredicateMatrix,
    keys: impl IntoIterator<Item = (u32, i32)>,
    cap: usize,
    out: &mut Vec<PredicateMatrix>,
) -> usize {
    out.clear();
    out.push(m);
    for (r, c) in keys {
        if out.len() > cap {
            break;
        }
        let n = out.len();
        for k in 0..n {
            let m = std::mem::take(&mut out[k]);
            match m.split(r, c) {
                Some((f, t)) => {
                    out.push(f);
                    out.push(t);
                }
                None => out.push(m),
            }
        }
        out.drain(..n);
    }
    out.len()
}

/// The keys the walk reads after row `i`: the formal keys of the
/// instances in later rows, the split keys of the IFs in later rows, and
/// the back-edge key `(r, c + 1)` of every incoming `(r, c)`. The values
/// are meaningless.
fn live_keys(sched: &Schedule, incoming: &[(u32, i32)], i: usize) -> PredicateMatrix {
    let mut keys = PredicateMatrix::universe();
    for &(r, c) in incoming {
        keys.set(r, c + 1, PredElem::True);
    }
    for inst in sched.rows.iter().skip(i + 1).flatten() {
        if !inst.formal.is_universe() {
            for (r, c) in inst.formal.keys() {
                keys.set(r, c, PredElem::True);
            }
        }
        if let Some(r) = inst.computes_if.filter(|_| inst.op().is_if()) {
            keys.set(r, inst.index, PredElem::True);
        }
    }
    keys
}

/// The steady-state paths of the loop [`generate`](crate::codegen::generate)
/// builds from `sched`, whose incoming predicates are `incoming`
/// ([`incoming_predicates`]).
///
/// The walk starts from the universe split on every incoming predicate. In
/// each row, a path issues one cycle when the row holds an instance
/// compatible with its matrix, after the latency rule's waits for it, and
/// fans out on every compatible IF of the row. After the last row, it waits
/// until nothing is in flight and takes the back edge to the first entry
/// whose matrix subsumes its `shifted(-1)` final matrix. A path is a
/// steady-state path iff its entry receives some back edge.
///
/// With `blocks`, code generation's mode, nothing merges: each state is
/// one path with a block of its own, and the walk hands `blocks` every
/// entry, every row a path issues with the instances it issues and the
/// wait, every fork, and every back edge with its drain and target, in the
/// order it meets them; a placement that fails ends the walk with its
/// error. Without `blocks`, the scoring mode, after a row that leaves more
/// than [`MERGE_AT`] states, and more than twice as many as the last merge
/// left, every state is projected and equal states merge; under a profile,
/// each state's weights carry the factors of the elements projected away,
/// and the factors of its final matrix are left to the objective.
///
/// The walk refuses a schedule when more than [`MAX_WALK_PATHS`] paths are
/// open after a row ([`CodegenError::TooManyPaths`]), when an IF it meets
/// computes no predicate row, and when no entry subsumes a back edge
/// ([`CodegenError::NoBackEdgeTarget`]). Projection keeps every key a later
/// test reads, so each error fires on exactly the schedules the walk
/// refuses with merging off.
pub(crate) fn steady_states(
    sched: &Schedule,
    machine: &MachineConfig,
    incoming: &[(u32, i32)],
    probs: Option<&[f64]>,
    mut blocks: Option<&mut Blocks>,
) -> Result<Vec<State>, CodegenError> {
    if incoming.len() > MAX_ENTRY_SPLITS {
        // Each entry is a path of its own, so the count after the first
        // row is past the cap; every IF of that row is compatible with
        // some entry.
        let first = sched.rows.first().into_iter().flatten();
        if first
            .filter(|i| i.op().is_if())
            .any(|i| i.computes_if.is_none())
        {
            return Err(NO_IF_ROW);
        }
        return Err(CodegenError::TooManyPaths(MAX_WALK_PATHS));
    }
    let mut entries = Vec::new();
    fan_out(
        PredicateMatrix::universe(),
        incoming.iter().copied(),
        usize::MAX,
        &mut entries,
    );
    if let Some(b) = blocks.as_deref_mut() {
        b.enter(&entries);
    }
    let full = blocks.is_some();
    let mut merge_at = MERGE_AT;

    let mut states: Vec<State> = entries
        .iter()
        .enumerate()
        .map(|(entry, m)| State {
            entry,
            block: entry,
            matrix: m.clone(),
            flight: 0,
            tally: Tally::START,
        })
        .collect();
    let mut flights = Flights::new();
    let mut next: Vec<State> = Vec::with_capacity(states.len());
    let mut cycle: Vec<&Instance> = Vec::new();
    let mut splits: Vec<(CcReg, u32, i32)> = Vec::new();
    let mut fan: Vec<PredicateMatrix> = Vec::new();
    for (i, row) in sched.rows.iter().enumerate() {
        // A path with nothing in flight waits for a row only when the row
        // puts a write in flight.
        let slow = !machine.unit_latency() && row.iter().any(|x| machine.latency(x.op()) > 1);
        let mut paths = 0usize;
        for State {
            entry,
            mut block,
            matrix,
            mut flight,
            mut tally,
        } in states.drain(..)
        {
            // Scoring reads only whether the paths issue and where they
            // fork, so it tests the rest of the row only for a wait; code
            // generation places every instance they issue.
            cycle.clear();
            splits.clear();
            for inst in row {
                if (full || cycle.is_empty() || inst.op().is_if())
                    && !inst.formal.is_disjoint(&matrix)
                {
                    cycle.push(inst);
                    if let OpKind::If { cc } = inst.op().kind {
                        splits.push((cc, inst.computes_if.ok_or(NO_IF_ROW)?, inst.index));
                    }
                }
            }
            // Past the cap the row is refused. Only a later state's
            // NO_IF_ROW takes precedence, so the rest of the row is scanned
            // without issuing or fanning out.
            if paths > MAX_WALK_PATHS {
                continue;
            }
            if !cycle.is_empty() {
                let wait = if slow || flight != 0 {
                    if !full {
                        cycle.clear();
                        cycle.extend(row.iter().filter(|x| !x.formal.is_disjoint(&matrix)));
                    }
                    let mut set = flights.sets[flight].clone();
                    let wait = set.issue(cycle.iter().map(|x| x.op()), machine);
                    flight = flights.id(set);
                    wait
                } else {
                    0
                };
                if let Some(b) = blocks.as_deref_mut() {
                    b.issue(block, &cycle, wait)?;
                }
                tally.max += wait as usize + 1;
                tally.min += wait as usize + 1;
            }
            let room = (MAX_WALK_PATHS - paths) / tally.paths;
            let keys = splits.iter().map(|&(_, r, c)| (r, c));
            let n = fan_out(matrix, keys, room, &mut fan);
            paths = paths.saturating_add(tally.paths.saturating_mul(n));
            if paths > MAX_WALK_PATHS {
                continue;
            }
            if let Some(b) = blocks.as_deref_mut().filter(|_| !splits.is_empty()) {
                block = b.fork(block, &splits, &fan);
            }
            next.extend(fan.drain(..).enumerate().map(|(k, matrix)| State {
                entry,
                block: block + k,
                matrix,
                flight,
                tally,
            }));
        }
        if paths > MAX_WALK_PATHS {
            return Err(CodegenError::TooManyPaths(MAX_WALK_PATHS));
        }
        if !full && next.len() > merge_at {
            let keys = live_keys(sched, incoming, i);
            for s in &mut next {
                s.project(&keys, probs);
            }
            merge(&mut next);
            merge_at = MERGE_AT.max(2 * next.len());
        }
        std::mem::swap(&mut states, &mut next);
    }

    // A path is a steady-state path iff its entry is some path's
    // back-edge target. Before the back edge it waits until nothing is in
    // flight.
    let mut is_steady = vec![false; entries.len()];
    for s in &mut states {
        let drain = flights.sets[s.flight].drain();
        s.tally.max += drain as usize;
        s.tally.min += drain as usize;
        let shifted = s.matrix.shifted(-1);
        let target = entries
            .iter()
            .position(|x| x.subsumes(&shifted))
            .ok_or(CodegenError::NoBackEdgeTarget)?;
        if let Some(b) = blocks.as_deref_mut() {
            b.back(s.block, drain, target);
        }
        is_steady[target] = true;
    }
    states.retain(|s| is_steady[s.entry]);
    Ok(states)
}

/// The primary objective over a loop's steady states: the maximal II, or
/// under a profile the expected II, each path weighted by the measure of
/// its final matrix. The expected II is computed as `II_min + Σw·(II −
/// II_min) / Σw`, so a loop whose paths share one II scores exactly that
/// II; a profile that gives every path weight 0 falls back to the
/// unweighted mean.
fn objective(states: &[State], probs: Option<&[f64]>) -> f64 {
    let Some(min) = states.iter().map(|s| s.tally.min).min() else {
        return 0.0;
    };
    let Some(probs) = probs else {
        return states.iter().map(|s| s.tally.max).max().unwrap_or(min) as f64;
    };
    let (mut num, mut den) = (0.0, 0.0);
    for s in states {
        let kept = measure(&s.matrix, probs);
        num += kept * s.tally.excess_over(min).1;
        den += kept * s.tally.w;
    }
    let excess = if den > 0.0 {
        num / den
    } else {
        let (mut sum, mut paths) = (0usize, 0usize);
        for s in states {
            sum = sum.saturating_add(s.tally.excess_over(min).0);
            paths = paths.saturating_add(s.tally.paths);
        }
        sum as f64 / paths as f64
    };
    min as f64 + excess
}

/// Score a schedule exactly without generating its code: walk the steady
/// state of the loop [`generate`](crate::codegen::generate) would build for
/// `machine`, latency waits included, and reduce its paths to the
/// objective (`probs: None` is the static mode). Fails when code generation
/// would fail for a reason the walk can see, or past the walk's path cap.
pub fn score_schedule(
    sched: &Schedule,
    machine: &MachineConfig,
    probs: Option<&[f64]>,
) -> Result<Score, CodegenError> {
    let states = steady_states(sched, machine, &incoming_predicates(sched)?, probs, None)?;
    Ok(Score {
        primary: objective(&states, probs),
        rows: sched.n_rows(),
        instances: sched.n_instances(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::generate;

    #[test]
    fn score_ordering_is_lexicographic() {
        let a = Score {
            primary: 2.0,
            rows: 3,
            instances: 9,
        };
        let b = Score {
            primary: 3.0,
            rows: 2,
            instances: 8,
        };
        assert!(a.better_than(&b));
        assert!(!b.better_than(&a));
        let c = Score {
            primary: 2.0,
            rows: 3,
            instances: 8,
        };
        assert!(c.better_than(&a));
        assert!(!a.better_than(&a));
    }

    #[test]
    fn initial_vecmin_scores_with_paper_iis() {
        let kernel = psp_kernels::by_name("vecmin").unwrap();
        let sched = Schedule::initial(&kernel.spec);
        let s = score_schedule(&sched, &MachineConfig::paper_default(), None).unwrap();
        assert_eq!(s.primary, 8.0); // max II of the unscheduled loop
        let prog = generate(&sched, &MachineConfig::paper_default()).unwrap();
        assert_eq!(prog.ii_range(), Some((7, 8)));
        // Profiled: True branch taken with probability 0.25 → E[II] =
        // 0.25·8 + 0.75·7 = 7.25.
        let s = score_schedule(&sched, &MachineConfig::paper_default(), Some(&[0.25])).unwrap();
        assert!((s.primary - 7.25).abs() < 1e-9, "{}", s.primary);
    }

    #[test]
    fn expected_ii_uniform_matches_mean_for_symmetric_loop() {
        let kernel = psp_kernels::by_name("vecmin").unwrap();
        let sched = Schedule::initial(&kernel.spec);
        let e = score_schedule(&sched, &MachineConfig::paper_default(), Some(&[0.5]))
            .unwrap()
            .primary;
        assert!((e - 7.5).abs() < 1e-9);
    }

    #[test]
    fn equal_iis_score_exactly_and_dead_profiles_fall_back() {
        let kernel = psp_kernels::by_name("vecmin").unwrap();
        let sched = Schedule::initial(&kernel.spec);
        // A certain branch weights one path only.
        assert_eq!(
            score_schedule(&sched, &MachineConfig::paper_default(), Some(&[1.0]))
                .unwrap()
                .primary,
            8.0
        );
        assert_eq!(
            score_schedule(&sched, &MachineConfig::paper_default(), Some(&[0.0]))
                .unwrap()
                .primary,
            7.0
        );
        let state = |outcome, cycles| State {
            entry: 0,
            block: 0,
            matrix: PredicateMatrix::single(0, 0, outcome),
            flight: 0,
            tally: Tally {
                max: cycles,
                min: cycles,
                ..Tally::START
            },
        };
        // Paths sharing one II score exactly it under any profile.
        let even = [state(false, 2), state(true, 2)];
        assert_eq!(objective(&even, Some(&[0.3])), 2.0);
        // Every path of weight 0: the unweighted mean.
        assert_eq!(
            objective(&[state(true, 2), state(true, 3)], Some(&[0.0])),
            2.5
        );
        assert_eq!(objective(&[], Some(&[0.5])), 0.0);
    }

    #[test]
    fn absorbed_tallies_keep_excess_relative_to_the_shortest_path() {
        let paths = |cycles, w| Tally {
            max: cycles,
            min: cycles,
            w,
            ..Tally::START
        };
        let mut t = paths(3, 0.25);
        t.absorb(&paths(2, 0.5));
        t.absorb(&paths(5, 0.125));
        assert_eq!((t.paths, t.min, t.max, t.excess), (3, 2, 5, 4));
        assert_eq!((t.w, t.w_excess), (0.875, 0.25 + 0.375));
        let mut even = paths(4, 0.1);
        even.absorb(&paths(4, 0.7));
        assert_eq!((even.excess, even.w_excess), (0, 0.0));
    }
}
