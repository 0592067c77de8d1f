//! The reach-set exactness check of generated code, shared by
//! `codegen_invariants` (the kernels and `synthetic`) and by the root
//! suite's run over the E12 corpus (`tests/score_walk.rs`).

use psp_machine::VliwLoop;
use psp_predicate::OutcomeMap;

/// Asserts that every block's matrix in `prog` is *exact*: it admits an
/// outcome assignment if and only if control reaches the block under it.
/// For each assignment σ of the keys the steady blocks constrain, the
/// blocks (forward-reachable from the steady entries) whose matrix admits
/// σ form one path: it starts at the one steady entry that admits σ, each
/// block is a forward successor of the one before, and the last block
/// ends the iteration on a back edge.
pub fn assert_exact(prog: &VliwLoop) {
    let what = &prog.name;
    let forward = |b: usize| {
        prog.blocks[b]
            .term
            .succs()
            .into_iter()
            .filter(|s| !s.back_edge)
            .map(|s| s.block)
    };
    // The steady blocks, and their heights over forward edges (a
    // forward successor is always lower, so sorting by height
    // descending is a topological order).
    let entries = prog.steady_entries();
    let mut steady = vec![false; prog.blocks.len()];
    let mut stack = entries.clone();
    while let Some(b) = stack.pop() {
        if !std::mem::replace(&mut steady[b], true) {
            stack.extend(forward(b));
        }
    }
    let mut height = vec![None::<usize>; prog.blocks.len()];
    fn measure(b: usize, prog: &VliwLoop, h: &mut [Option<usize>]) -> usize {
        if let Some(x) = h[b] {
            return x;
        }
        let x = prog.blocks[b]
            .term
            .succs()
            .into_iter()
            .filter(|s| !s.back_edge)
            .map(|s| measure(s.block, prog, h) + 1)
            .max()
            .unwrap_or(0);
        h[b] = Some(x);
        x
    }
    let mut order: Vec<usize> = (0..prog.blocks.len()).filter(|&b| steady[b]).collect();
    for &b in &order {
        measure(b, prog, &mut height);
    }
    order.sort_by_key(|&b| std::cmp::Reverse(height[b]));
    let mut keys: Vec<(u32, i32)> = order
        .iter()
        .flat_map(|&b| prog.blocks[b].matrix.keys())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    assert!(keys.len() <= 12, "{what}: {} keys", keys.len());
    for bits in 0u32..1 << keys.len() {
        let mut o = OutcomeMap::new();
        for (j, &(r, c)) in keys.iter().enumerate() {
            o.set(r, c, bits >> j & 1 == 1);
        }
        let path: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&b| prog.blocks[b].matrix.admits(&o))
            .collect();
        let admitting_entries: Vec<usize> = entries
            .iter()
            .copied()
            .filter(|&e| prog.blocks[e].matrix.admits(&o))
            .collect();
        assert_eq!(admitting_entries.len(), 1, "{what}: entries for {o:?}");
        assert_eq!(path.first(), admitting_entries.first(), "{what}: {o:?}");
        for w in path.windows(2) {
            assert!(
                forward(w[0]).any(|s| s == w[1]),
                "{what}: B{} admits {o:?} but is no successor of B{}",
                w[1],
                w[0]
            );
        }
        let last = *path.last().unwrap();
        assert!(
            prog.blocks[last].term.succs().iter().any(|s| s.back_edge),
            "{what}: the path of {o:?} ends at B{last} without a back edge"
        );
    }
}
