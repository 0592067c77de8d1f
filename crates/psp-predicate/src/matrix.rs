//! Predicate matrices: packed bitplanes with a sparse reference fallback.
//!
//! A [`PredicateMatrix`] stores only its constrained elements; every other
//! element is implicitly `b`. Rows identify IF operations of the original
//! loop body (0-based), columns identify iterations relative to the current
//! transformed iteration (`0` = current, negative = earlier, positive =
//! later). A matrix denotes the set of all execution paths whose IF outcomes
//! agree with its constrained elements.
//!
//! # Representations
//!
//! Two interchangeable layouts sit behind the same API, selected at
//! construction time by [`crate::backend`]:
//!
//! - **Packed** (default): two bitplanes over a fixed window of
//!   [`PACKED_ROWS`] rows × columns [`PACKED_COL_LO`]`..=`[`PACKED_COL_HI`]
//!   — `mask` marks the constrained positions, `vals` the outcome at each
//!   (and is zero elsewhere, keeping the form canonical). One 16-bit lane
//!   per row, row-major, so the whole window is two `u64` words per plane
//!   and `conjoin`/`is_disjoint`/`subsumes` are a handful of AND/XOR/OR
//!   instructions. Keys outside the window spill into a sorted side map
//!   (correct, slower); the window covers every matrix the kernel suite and
//!   the scaling loops produce, so the spill is effectively a fuzz-only
//!   path.
//! - **Sparse**: the original `BTreeMap<PredKey, bool>`, kept as the
//!   reference implementation for differential tests and benchmarks.
//!
//! Equality, ordering, hashing and `Debug` are defined over the logical
//! element sequence, so a packed matrix and a sparse matrix with the same
//! constraints are fully interchangeable — mixed-representation operands
//! take a generic element-wise path. In particular `Ord` reproduces the
//! lexicographic `((row, col), value)` sequence order the sparse map used
//! to derive: `PathSet` normalization sorts by it, and the profile-driven
//! score sums member probabilities in that order, so changing it would
//! change f64 rounding and hence candidate selection.

use crate::backend;
use crate::elem::PredElem;
use crate::outcome::OutcomeMap;
use crate::stats;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Position of one predicate: `(IF row, iteration column)`.
pub type PredKey = (u32, i32);

/// Rows covered by the packed window (`0..PACKED_ROWS`).
pub const PACKED_ROWS: u32 = 8;
/// First column of the packed window.
pub const PACKED_COL_LO: i32 = -8;
/// Last column of the packed window (inclusive).
pub const PACKED_COL_HI: i32 = 7;
/// Bits per row lane.
const LANE: usize = (PACKED_COL_HI - PACKED_COL_LO + 1) as usize;
/// Words per bitplane.
const W: usize = PACKED_ROWS as usize * LANE / 64;

/// Bit index of an in-window key, `None` outside the window.
#[inline]
fn bit_of(row: u32, col: i32) -> Option<usize> {
    if row < PACKED_ROWS && (PACKED_COL_LO..=PACKED_COL_HI).contains(&col) {
        Some(row as usize * LANE + (col - PACKED_COL_LO) as usize)
    } else {
        None
    }
}

/// Inverse of [`bit_of`].
#[inline]
fn key_of(bit: usize) -> PredKey {
    ((bit / LANE) as u32, (bit % LANE) as i32 + PACKED_COL_LO)
}

/// Bitplane pair plus out-of-window spill.
///
/// Invariants: `vals ⊆ mask` word-wise; spill keys are strictly outside the
/// window; the spill is `None` rather than an empty map. Together these
/// make the representation canonical, so packed equality is plain word
/// comparison.
#[derive(Clone, Default)]
struct Packed {
    /// Constrained positions.
    mask: [u64; W],
    /// Outcome at constrained positions (`1` = True); zero elsewhere.
    vals: [u64; W],
    /// Constrained keys outside the window. Boxed deliberately: spill is
    /// almost always `None`, and the indirection keeps `Packed` (and so
    /// every matrix clone) at 40 bytes instead of 56.
    #[allow(clippy::box_collection)]
    spill: Option<Box<BTreeMap<PredKey, bool>>>,
}

#[derive(Clone)]
enum Repr {
    Packed(Packed),
    Sparse(BTreeMap<PredKey, bool>),
}

/// A sparse, conceptually infinite matrix of [`PredElem`]s.
///
/// The empty matrix denotes the universe (all paths admitted). Matrices are
/// ordered and hashable so they can key maps and be deduplicated in
/// [`crate::PathSet`]s.
#[derive(Clone)]
pub struct PredicateMatrix {
    repr: Repr,
}

impl PredicateMatrix {
    /// The unconstrained matrix `[b b … b]` (all paths).
    #[inline]
    pub fn universe() -> Self {
        if backend::is_packed() {
            Self {
                repr: Repr::Packed(Packed::default()),
            }
        } else {
            Self {
                repr: Repr::Sparse(BTreeMap::new()),
            }
        }
    }

    /// Empty matrix in the same representation mode as `self`, so derived
    /// results stay mode-stable regardless of the global backend flag.
    fn empty_like(&self) -> Self {
        match &self.repr {
            Repr::Packed(_) => Self {
                repr: Repr::Packed(Packed::default()),
            },
            Repr::Sparse(_) => Self {
                repr: Repr::Sparse(BTreeMap::new()),
            },
        }
    }

    /// Matrix with a single constrained element.
    pub fn single(row: u32, col: i32, outcome: bool) -> Self {
        let mut m = Self::universe();
        m.set(row, col, PredElem::from_bool(outcome));
        m
    }

    /// Build from an explicit list of constrained elements.
    ///
    /// Later duplicates of the same key overwrite earlier ones.
    pub fn from_entries<I: IntoIterator<Item = (u32, i32, bool)>>(it: I) -> Self {
        let mut m = Self::universe();
        for (row, col, v) in it {
            m.set(row, col, PredElem::from_bool(v));
        }
        m
    }

    /// The element at `(row, col)` (default `b`).
    #[inline]
    pub fn get(&self, row: u32, col: i32) -> PredElem {
        match &self.repr {
            Repr::Packed(p) => match bit_of(row, col) {
                Some(b) => {
                    let (w, i) = (b >> 6, b & 63);
                    if p.mask[w] >> i & 1 == 1 {
                        PredElem::from_bool(p.vals[w] >> i & 1 == 1)
                    } else {
                        PredElem::Both
                    }
                }
                None => match p.spill.as_ref().and_then(|s| s.get(&(row, col))) {
                    Some(&v) => PredElem::from_bool(v),
                    None => PredElem::Both,
                },
            },
            Repr::Sparse(m) => match m.get(&(row, col)) {
                Some(&v) => PredElem::from_bool(v),
                None => PredElem::Both,
            },
        }
    }

    /// Set the element at `(row, col)`; setting `b` removes the entry.
    pub fn set(&mut self, row: u32, col: i32, e: PredElem) {
        match &mut self.repr {
            Repr::Packed(p) => match bit_of(row, col) {
                Some(b) => {
                    let (w, i) = (b >> 6, b & 63);
                    match e.as_bool() {
                        Some(v) => {
                            p.mask[w] |= 1 << i;
                            if v {
                                p.vals[w] |= 1 << i;
                            } else {
                                p.vals[w] &= !(1 << i);
                            }
                        }
                        None => {
                            p.mask[w] &= !(1 << i);
                            p.vals[w] &= !(1 << i);
                        }
                    }
                }
                None => match e.as_bool() {
                    Some(v) => {
                        p.spill
                            .get_or_insert_with(Default::default)
                            .insert((row, col), v);
                    }
                    None => {
                        if let Some(s) = &mut p.spill {
                            s.remove(&(row, col));
                            if s.is_empty() {
                                p.spill = None;
                            }
                        }
                    }
                },
            },
            Repr::Sparse(m) => match e.as_bool() {
                Some(v) => {
                    m.insert((row, col), v);
                }
                None => {
                    m.remove(&(row, col));
                }
            },
        }
    }

    /// Copy of `self` with `(row, col)` set to `e`.
    pub fn with(&self, row: u32, col: i32, e: PredElem) -> Self {
        let mut m = self.clone();
        m.set(row, col, e);
        m
    }

    /// Number of constrained elements.
    #[inline]
    pub fn constrained_len(&self) -> usize {
        match &self.repr {
            Repr::Packed(p) => {
                p.mask
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum::<usize>()
                    + p.spill.as_ref().map_or(0, |s| s.len())
            }
            Repr::Sparse(m) => m.len(),
        }
    }

    /// `true` when no element is constrained (the universe).
    #[inline]
    pub fn is_universe(&self) -> bool {
        match &self.repr {
            Repr::Packed(p) => p.mask == [0; W] && p.spill.is_none(),
            Repr::Sparse(m) => m.is_empty(),
        }
    }

    /// Whether this matrix is fully in-window packed: pairwise operations
    /// on two such matrices are a handful of word instructions (and thus
    /// cheaper than any memo lookup — see [`crate::intern`]).
    #[inline]
    pub fn is_word_packed(&self) -> bool {
        matches!(&self.repr, Repr::Packed(p) if p.spill.is_none())
    }

    /// Iterate over the constrained elements in `(row, col)` order.
    pub fn constrained(&self) -> ConstrainedIter<'_> {
        let inner = match &self.repr {
            Repr::Sparse(m) => Inner::Sparse(m.iter()),
            Repr::Packed(p) => {
                let bits = PackedBits {
                    mask: p.mask,
                    vals: p.vals,
                    w: 0,
                };
                match &p.spill {
                    None => Inner::Bits(bits),
                    Some(s) => {
                        let mut bits = bits;
                        let mut spill = s.iter();
                        Inner::Merged {
                            bits_next: bits.next(),
                            bits,
                            spill_next: spill.next().map(|(&k, &v)| (k, v)),
                            spill,
                        }
                    }
                }
            }
        };
        ConstrainedIter { inner }
    }

    /// Keys of the constrained elements.
    pub fn keys(&self) -> impl Iterator<Item = PredKey> + '_ {
        self.constrained().map(|(r, c, _)| (r, c))
    }

    /// Intersection of the two path sets.
    ///
    /// `None` means the intersection is empty, i.e. the matrices are
    /// *disjoined* (the paper's term): they carry complementary elements at
    /// some position.
    pub fn conjoin(&self, other: &Self) -> Option<Self> {
        stats::count_conjoin();
        if let (Repr::Packed(a), Repr::Packed(b)) = (&self.repr, &other.repr) {
            for i in 0..W {
                if (a.vals[i] ^ b.vals[i]) & a.mask[i] & b.mask[i] != 0 {
                    return None;
                }
            }
            let mut out = Packed::default();
            for i in 0..W {
                out.mask[i] = a.mask[i] | b.mask[i];
                out.vals[i] = a.vals[i] | b.vals[i];
            }
            out.spill = match (&a.spill, &b.spill) {
                (None, None) => None,
                (Some(s), None) | (None, Some(s)) => Some(s.clone()),
                (Some(x), Some(y)) => {
                    let (small, large) = if x.len() <= y.len() { (x, y) } else { (y, x) };
                    for (k, v) in small.iter() {
                        if matches!(large.get(k), Some(w) if w != v) {
                            return None;
                        }
                    }
                    let mut merged = large.clone();
                    for (&k, &v) in small.iter() {
                        merged.insert(k, v);
                    }
                    Some(merged)
                }
            };
            return Some(Self {
                repr: Repr::Packed(out),
            });
        }
        // Generic path (sparse or mixed representations): iterate the
        // smaller entry set for the conflict scan, then overlay it.
        let (small, large) = if self.constrained_len() <= other.constrained_len() {
            (self, other)
        } else {
            (other, self)
        };
        for (r, c, v) in small.constrained() {
            if matches!(large.get(r, c).as_bool(), Some(w) if w != v) {
                return None;
            }
        }
        let mut out = large.clone();
        for (r, c, v) in small.constrained() {
            out.set(r, c, PredElem::from_bool(v));
        }
        Some(out)
    }

    /// Whether the path sets are disjoint (complementary at some position).
    ///
    /// Operations with disjoined matrices lie on different formal paths and
    /// are never tested for data or control dependence.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        stats::count_disjoint_test();
        if let (Repr::Packed(a), Repr::Packed(b)) = (&self.repr, &other.repr) {
            for i in 0..W {
                if (a.vals[i] ^ b.vals[i]) & a.mask[i] & b.mask[i] != 0 {
                    return true;
                }
            }
            if let (Some(x), Some(y)) = (&a.spill, &b.spill) {
                let (small, large) = if x.len() <= y.len() { (x, y) } else { (y, x) };
                return small
                    .iter()
                    .any(|(k, v)| matches!(large.get(k), Some(w) if w != v));
            }
            return false;
        }
        let (small, large) = if self.constrained_len() <= other.constrained_len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .constrained()
            .any(|(r, c, v)| matches!(large.get(r, c).as_bool(), Some(w) if w != v))
    }

    /// Superset relation: every path admitted by `other` is admitted by
    /// `self` (i.e. `self`'s constraints are a subset of `other`'s).
    pub fn subsumes(&self, other: &Self) -> bool {
        stats::count_subsume_test();
        if let (Repr::Packed(a), Repr::Packed(b)) = (&self.repr, &other.repr) {
            for i in 0..W {
                if a.mask[i] & !b.mask[i] != 0 {
                    return false;
                }
                if (a.vals[i] ^ b.vals[i]) & a.mask[i] != 0 {
                    return false;
                }
            }
            return match (&a.spill, &b.spill) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(x), Some(y)) => {
                    x.len() <= y.len() && x.iter().all(|(k, v)| y.get(k) == Some(v))
                }
            };
        }
        if self.constrained_len() > other.constrained_len() {
            return false;
        }
        self.constrained()
            .all(|(r, c, v)| other.get(r, c).as_bool() == Some(v))
    }

    /// Shift all columns by `delta` (positive = later iterations).
    ///
    /// Applied when an operation instance crosses the loop boundary: moving
    /// into the *previous* transformed iteration increments its index and
    /// shifts its matrix one place **right** (`delta = +1`), preserving
    /// relative references.
    pub fn shifted(&self, delta: i32) -> Self {
        if delta == 0 {
            return self.clone();
        }
        if let Repr::Packed(p) = &self.repr {
            if p.spill.is_none() {
                if let Some(s) = shift_lanes(p, delta) {
                    return Self {
                        repr: Repr::Packed(s),
                    };
                }
            }
        }
        let mut out = self.empty_like();
        for (r, c, v) in self.constrained() {
            out.set(r, c + delta, PredElem::from_bool(v));
        }
        out
    }

    /// The *split* of this matrix at a `b` element: two clones with the
    /// element set to `0` and `1` respectively.
    ///
    /// Returns `None` when the element is already constrained.
    pub fn split(&self, row: u32, col: i32) -> Option<(Self, Self)> {
        if self.get(row, col).is_constrained() {
            return None;
        }
        Some((
            self.with(row, col, PredElem::False),
            self.with(row, col, PredElem::True),
        ))
    }

    /// Inverse of [`split`](Self::split): when the two matrices differ in
    /// exactly one element and that element is complementary, return the
    /// merged matrix with the element reset to `b`.
    pub fn unify(&self, other: &Self) -> Option<Self> {
        if let (Repr::Packed(a), Repr::Packed(b)) = (&self.repr, &other.repr) {
            if a.mask != b.mask {
                return None;
            }
            let mut diffs = 0u32;
            let mut at: Option<PredKey> = None;
            for i in 0..W {
                // vals ⊆ mask on both sides and the masks are equal, so
                // every xor bit is a complementary constrained pair.
                let d = a.vals[i] ^ b.vals[i];
                diffs += d.count_ones();
                if at.is_none() && d != 0 {
                    at = Some(key_of(i * 64 + d.trailing_zeros() as usize));
                }
            }
            match (&a.spill, &b.spill) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    if x.len() != y.len() {
                        return None;
                    }
                    for ((kx, vx), (ky, vy)) in x.iter().zip(y.iter()) {
                        if kx != ky {
                            return None;
                        }
                        if vx != vy {
                            diffs += 1;
                            if at.is_none() {
                                at = Some(*kx);
                            }
                        }
                    }
                }
                _ => return None,
            }
            if diffs != 1 {
                return None;
            }
            let (r, c) = at?;
            return Some(self.with(r, c, PredElem::Both));
        }
        // They must share every entry except exactly one complementary pair.
        if self.constrained_len() != other.constrained_len() {
            return None;
        }
        let mut diff: Option<PredKey> = None;
        for (r, c, v) in self.constrained() {
            match other.get(r, c).as_bool() {
                Some(w) if w == v => {}
                Some(_) => {
                    if diff.replace((r, c)).is_some() {
                        return None; // more than one differing position
                    }
                }
                None => return None, // keys differ
            }
        }
        let (r, c) = diff?;
        Some(self.with(r, c, PredElem::Both))
    }

    /// Whether the concrete outcome assignment lies in this path set.
    pub fn admits(&self, outcomes: &OutcomeMap) -> bool {
        self.constrained()
            .all(|(r, c, v)| outcomes.get(r, c) == Some(v))
    }

    /// Drop constraints outside the column window `[lo, hi]` (inclusive),
    /// widening the path set.
    pub fn widened_to_window(&self, lo: i32, hi: i32) -> Self {
        let mut out = self.empty_like();
        for (r, c, v) in self.constrained() {
            if (lo..=hi).contains(&c) {
                out.set(r, c, PredElem::from_bool(v));
            }
        }
        out
    }

    /// Smallest and largest constrained column, if any element is
    /// constrained.
    pub fn col_span(&self) -> Option<(i32, i32)> {
        let mut lo = i32::MAX;
        let mut hi = i32::MIN;
        for (_, c, _) in self.constrained() {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        if lo <= hi {
            Some((lo, hi))
        } else {
            None
        }
    }

    /// Largest constrained row index, if any.
    pub fn max_row(&self) -> Option<u32> {
        self.constrained().map(|(r, _, _)| r).max()
    }

    /// Render one row over the column window `[lo, hi]`, underlining column
    /// 0 per the paper's notation (here marked with surrounding `_`).
    fn fmt_row(&self, row: u32, lo: i32, hi: i32, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for c in lo..=hi {
            if c > lo {
                write!(f, " ")?;
            }
            let sym = self.get(row, c).symbol();
            if c == 0 {
                write!(f, "_{sym}_")?;
            } else {
                write!(f, "{sym}")?;
            }
        }
        write!(f, "]")
    }

    /// Multi-row display over a chosen window and row count.
    pub fn display(&self, rows: u32, lo: i32, hi: i32) -> MatrixDisplay<'_> {
        MatrixDisplay {
            m: self,
            rows,
            lo,
            hi,
        }
    }
}

/// Shift a spill-free packed matrix within its lanes, `None` when any
/// constrained bit would leave its row window (the caller then rebuilds
/// element-wise, spilling as needed).
fn shift_lanes(p: &Packed, delta: i32) -> Option<Packed> {
    let d = delta.unsigned_abs() as usize;
    if d >= LANE {
        return None;
    }
    let lane_keep: u64 = if delta > 0 {
        (1 << (LANE - d)) - 1
    } else {
        ((1 << (LANE - d)) - 1) << d
    };
    let mut keep = 0u64;
    let mut lane = 0;
    while lane < 64 / LANE {
        keep |= lane_keep << (lane * LANE);
        lane += 1;
    }
    if p.mask.iter().any(|&w| w & !keep != 0) {
        return None;
    }
    // All surviving bits stay inside their lane, so a whole-word shift
    // cannot leak across lane or word boundaries.
    let mut out = Packed::default();
    for i in 0..W {
        (out.mask[i], out.vals[i]) = if delta > 0 {
            (p.mask[i] << d, p.vals[i] << d)
        } else {
            (p.mask[i] >> d, p.vals[i] >> d)
        };
    }
    Some(out)
}

/// Iterator over constrained elements in `(row, col)` order, across both
/// representations (bitplane bits merged with the sorted spill).
pub struct ConstrainedIter<'a> {
    inner: Inner<'a>,
}

struct PackedBits {
    mask: [u64; W],
    vals: [u64; W],
    w: usize,
}

impl Iterator for PackedBits {
    type Item = (PredKey, bool);

    fn next(&mut self) -> Option<Self::Item> {
        while self.w < W {
            let m = self.mask[self.w];
            if m != 0 {
                let b = m.trailing_zeros() as usize;
                self.mask[self.w] = m & (m - 1);
                let key = key_of(self.w * 64 + b);
                let v = self.vals[self.w] >> b & 1 == 1;
                return Some((key, v));
            }
            self.w += 1;
        }
        None
    }
}

enum Inner<'a> {
    Sparse(std::collections::btree_map::Iter<'a, PredKey, bool>),
    Bits(PackedBits),
    Merged {
        bits: PackedBits,
        bits_next: Option<(PredKey, bool)>,
        spill: std::collections::btree_map::Iter<'a, PredKey, bool>,
        spill_next: Option<(PredKey, bool)>,
    },
}

impl Iterator for ConstrainedIter<'_> {
    type Item = (u32, i32, bool);

    fn next(&mut self) -> Option<Self::Item> {
        let ((r, c), v) = match &mut self.inner {
            Inner::Sparse(it) => it.next().map(|(&k, &v)| (k, v))?,
            Inner::Bits(bits) => bits.next()?,
            Inner::Merged {
                bits,
                bits_next,
                spill,
                spill_next,
            } => {
                // Window and spill keys never collide, so plain ordering
                // decides which side emits next.
                let take_bits = match (&*bits_next, &*spill_next) {
                    (Some((bk, _)), Some((sk, _))) => bk < sk,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => return None,
                };
                if take_bits {
                    let out = bits_next.take()?;
                    *bits_next = bits.next();
                    out
                } else {
                    let out = spill_next.take()?;
                    *spill_next = spill.next().map(|(&k, &v)| (k, v));
                    out
                }
            }
        };
        Some((r, c, v))
    }
}

impl PartialEq for PredicateMatrix {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            // Both packed forms are canonical, so word compare suffices.
            (Repr::Packed(a), Repr::Packed(b)) => {
                a.mask == b.mask && a.vals == b.vals && a.spill == b.spill
            }
            (Repr::Sparse(a), Repr::Sparse(b)) => a == b,
            _ => self.constrained().eq(other.constrained()),
        }
    }
}

impl Eq for PredicateMatrix {}

impl Hash for PredicateMatrix {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Element-wise so packed and sparse forms of the same matrix hash
        // identically (required by Eq).
        state.write_usize(self.constrained_len());
        for (r, c, v) in self.constrained() {
            r.hash(state);
            c.hash(state);
            v.hash(state);
        }
    }
}

impl Ord for PredicateMatrix {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lexicographic over the ((row, col), value) sequence in key order —
        // exactly the order the sparse BTreeMap representation derives.
        self.constrained()
            .map(|(r, c, v)| ((r, c), v))
            .cmp(other.constrained().map(|(r, c, v)| ((r, c), v)))
    }
}

impl PartialOrd for PredicateMatrix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Default for PredicateMatrix {
    fn default() -> Self {
        Self::universe()
    }
}

impl fmt::Debug for PredicateMatrix {
    /// Deterministic and injective over the constrained entry set,
    /// identical across representations.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PM[")?;
        for (i, (r, c, v)) in self.constrained().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "({r},{c})={}", v as u8)?;
        }
        write!(f, "]")
    }
}

/// Display adapter produced by [`PredicateMatrix::display`].
pub struct MatrixDisplay<'a> {
    m: &'a PredicateMatrix,
    rows: u32,
    lo: i32,
    hi: i32,
}

impl fmt::Display for MatrixDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows.max(1) {
            if r > 0 {
                write!(f, " ")?;
            }
            self.m.fmt_row(r, self.lo, self.hi, f)?;
        }
        Ok(())
    }
}

impl fmt::Display for PredicateMatrix {
    /// Default display: rows up to the max constrained row, columns spanning
    /// the constrained window (always including column 0).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = self.max_row().map(|r| r + 1).unwrap_or(1);
        let (lo, hi) = self
            .col_span()
            .map(|(a, b)| (a.min(0), b.max(0)))
            .unwrap_or((0, 0));
        self.display(rows, lo, hi).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(entries: &[(u32, i32, bool)]) -> PredicateMatrix {
        PredicateMatrix::from_entries(entries.iter().copied())
    }

    #[test]
    fn universe_admits_everything_and_is_empty() {
        let u = PredicateMatrix::universe();
        assert!(u.is_universe());
        assert_eq!(u.constrained_len(), 0);
        assert_eq!(u.get(3, -7), PredElem::Both);
    }

    #[test]
    fn set_both_removes_entry() {
        let mut a = PredicateMatrix::single(0, 0, true);
        assert_eq!(a.constrained_len(), 1);
        a.set(0, 0, PredElem::Both);
        assert!(a.is_universe());
    }

    #[test]
    fn conjoin_with_universe_is_identity() {
        let a = m(&[(0, 0, true), (1, 1, false)]);
        let u = PredicateMatrix::universe();
        assert_eq!(a.conjoin(&u), Some(a.clone()));
        assert_eq!(u.conjoin(&a), Some(a));
    }

    #[test]
    fn conjoin_merges_disjoint_supports() {
        let a = m(&[(0, 0, true)]);
        let b = m(&[(1, -1, false)]);
        let ab = a.conjoin(&b).unwrap();
        assert_eq!(ab, m(&[(0, 0, true), (1, -1, false)]));
    }

    #[test]
    fn conjoin_conflict_is_none() {
        let a = m(&[(0, 0, true)]);
        let b = m(&[(0, 0, false)]);
        assert_eq!(a.conjoin(&b), None);
        assert!(a.is_disjoint(&b));
        assert!(b.is_disjoint(&a));
    }

    #[test]
    fn disjointness_requires_complementary_entry() {
        let a = m(&[(0, 0, true), (1, 0, false)]);
        let b = m(&[(0, 0, true)]);
        assert!(!a.is_disjoint(&b));
        let c = m(&[(1, 0, true)]);
        assert!(a.is_disjoint(&c));
    }

    #[test]
    fn paper_example_disjoined_matrices() {
        // [1 b] and [0 1]: complementary at (0, col 0) => disjoined.
        let m1 = m(&[(0, 0, true)]);
        let m2 = m(&[(0, 0, false), (0, 1, true)]);
        assert!(m1.is_disjoint(&m2));
    }

    #[test]
    fn subsumes_is_superset_of_paths() {
        let wide = m(&[(0, 0, true)]);
        let narrow = m(&[(0, 0, true), (1, 0, false)]);
        assert!(wide.subsumes(&narrow));
        assert!(!narrow.subsumes(&wide));
        assert!(PredicateMatrix::universe().subsumes(&narrow));
        assert!(wide.subsumes(&wide));
    }

    #[test]
    fn subsumes_fails_on_conflicting_entry() {
        let a = m(&[(0, 0, true)]);
        let b = m(&[(0, 0, false)]);
        assert!(!a.subsumes(&b));
    }

    #[test]
    fn shift_moves_columns() {
        let a = m(&[(0, 0, true), (1, -1, false)]);
        let s = a.shifted(1);
        assert_eq!(s, m(&[(0, 1, true), (1, 0, false)]));
        assert_eq!(s.shifted(-1), a);
    }

    #[test]
    fn shift_zero_is_identity() {
        let a = m(&[(0, 2, true)]);
        assert_eq!(a.shifted(0), a);
    }

    #[test]
    fn split_and_unify_roundtrip() {
        let a = m(&[(0, 0, true)]);
        let (f, t) = a.split(1, 0).unwrap();
        assert_eq!(f.get(1, 0), PredElem::False);
        assert_eq!(t.get(1, 0), PredElem::True);
        assert!(f.is_disjoint(&t));
        assert_eq!(f.unify(&t), Some(a.clone()));
        assert_eq!(t.unify(&f), Some(a));
    }

    #[test]
    fn split_constrained_element_fails() {
        let a = m(&[(0, 0, true)]);
        assert!(a.split(0, 0).is_none());
    }

    #[test]
    fn unify_rejects_multi_diff() {
        let a = m(&[(0, 0, true), (1, 0, true)]);
        let b = m(&[(0, 0, false), (1, 0, false)]);
        assert_eq!(a.unify(&b), None);
    }

    #[test]
    fn unify_rejects_equal_matrices() {
        let a = m(&[(0, 0, true)]);
        assert_eq!(a.unify(&a), None);
    }

    #[test]
    fn unify_rejects_different_supports() {
        let a = m(&[(0, 0, true)]);
        let b = m(&[(0, 1, false)]);
        assert_eq!(a.unify(&b), None);
    }

    #[test]
    fn widen_to_window_drops_outside_columns() {
        let a = m(&[(0, -2, true), (0, 0, false), (0, 3, true)]);
        let w = a.widened_to_window(-1, 1);
        assert_eq!(w, m(&[(0, 0, false)]));
    }

    #[test]
    fn col_span_and_max_row() {
        let a = m(&[(0, -2, true), (2, 3, false)]);
        assert_eq!(a.col_span(), Some((-2, 3)));
        assert_eq!(a.max_row(), Some(2));
        assert_eq!(PredicateMatrix::universe().col_span(), None);
    }

    #[test]
    fn display_matches_paper_notation() {
        // Paper notation: current column underlined; we render `_x_`.
        let a = m(&[(0, -1, true), (0, 0, true), (0, 1, false)]);
        assert_eq!(a.to_string(), "[1 _1_ 0]");
        let u = PredicateMatrix::universe();
        assert_eq!(u.to_string(), "[_b_]");
    }

    #[test]
    fn admits_checks_constrained_entries_only() {
        let a = m(&[(0, 0, true), (1, 1, false)]);
        let mut o = OutcomeMap::new();
        o.set(0, 0, true);
        o.set(1, 1, false);
        o.set(5, 5, true);
        assert!(a.admits(&o));
        o.set(1, 1, true);
        assert!(!a.admits(&o));
    }

    // ---- packed-representation specifics ----

    #[test]
    fn out_of_window_keys_spill_and_roundtrip() {
        // Row beyond PACKED_ROWS and columns beyond the window must still
        // behave like any other entry.
        let a = m(&[
            (0, 0, true),
            (PACKED_ROWS + 3, 0, false),
            (1, PACKED_COL_HI + 5, true),
            (2, PACKED_COL_LO - 2, false),
        ]);
        assert_eq!(a.constrained_len(), 4);
        assert_eq!(a.get(PACKED_ROWS + 3, 0), PredElem::False);
        assert_eq!(a.get(1, PACKED_COL_HI + 5), PredElem::True);
        assert_eq!(a.get(2, PACKED_COL_LO - 2), PredElem::False);
        let keys: Vec<_> = a.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "constrained() must stay in key order");
        let mut b = a.clone();
        b.set(PACKED_ROWS + 3, 0, PredElem::Both);
        b.set(1, PACKED_COL_HI + 5, PredElem::Both);
        b.set(2, PACKED_COL_LO - 2, PredElem::Both);
        assert_eq!(b, m(&[(0, 0, true)]));
    }

    #[test]
    fn shift_across_window_edge_spills_and_roundtrips() {
        let a = m(&[(0, PACKED_COL_HI, true), (1, 0, false)]);
        let s = a.shifted(3); // (0, HI+3) leaves the window
        assert_eq!(s.get(0, PACKED_COL_HI + 3), PredElem::True);
        assert_eq!(s.get(1, 3), PredElem::False);
        assert_eq!(s.shifted(-3), a);
        let far = a.shifted(100).shifted(-100);
        assert_eq!(far, a);
    }

    #[test]
    fn ops_agree_across_spilled_operands() {
        let spilled = m(&[(0, 0, true), (0, PACKED_COL_HI + 2, true)]);
        let inwin = m(&[(0, 0, false)]);
        assert!(spilled.is_disjoint(&inwin));
        assert_eq!(spilled.conjoin(&inwin), None);
        let compat = m(&[(0, 0, true), (1, -1, false)]);
        let joined = spilled.conjoin(&compat).unwrap();
        assert_eq!(joined.constrained_len(), 3);
        assert!(spilled.subsumes(&joined));
        let other = m(&[(0, 0, true), (0, PACKED_COL_HI + 2, false)]);
        assert!(spilled.is_disjoint(&other));
        assert_eq!(spilled.unify(&other), Some(m(&[(0, 0, true)])));
    }

    #[test]
    fn packed_and_sparse_forms_are_interchangeable() {
        use std::collections::hash_map::DefaultHasher;
        let entries = [(0u32, 0i32, true), (2, -3, false), (9, 20, true)];
        let packed = crate::backend::with_backend(true, || m(&entries));
        let sparse = crate::backend::with_backend(false, || m(&entries));
        assert!(!packed.is_word_packed(), "(9,20) must spill");
        assert!(!sparse.is_word_packed());
        assert_eq!(packed, sparse);
        assert_eq!(packed.cmp(&sparse), Ordering::Equal);
        assert_eq!(format!("{packed:?}"), format!("{sparse:?}"));
        assert_eq!(format!("{packed}"), format!("{sparse}"));
        let h = |x: &PredicateMatrix| {
            let mut s = DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&packed), h(&sparse));
        // Mixed-representation operations take the generic path.
        assert_eq!(packed.conjoin(&sparse), Some(packed.clone()));
        assert!(packed.subsumes(&sparse) && sparse.subsumes(&packed));
        assert!(!packed.is_disjoint(&sparse));
    }

    #[test]
    fn ord_matches_sparse_reference_order() {
        // The sparse derive ordered matrices by their ((r,c),v) sequence;
        // PathSet normalization (and thus probability summation order)
        // depends on it.
        let a = m(&[(0, 0, false)]);
        let b = m(&[(0, 0, true)]);
        let c = m(&[(0, 0, false), (1, 0, true)]);
        let u = PredicateMatrix::universe();
        assert!(u < a, "shorter prefix sorts first");
        assert!(a < b, "value breaks the tie at equal key");
        assert!(a < c, "prefix of a longer sequence sorts first");
        assert!(b > c, "first differing element decides");
    }
}
