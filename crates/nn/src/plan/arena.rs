//! Compile-time scratch planning: one flat arena, first-fit offsets,
//! in-place aliasing for element-wise steps.
//!
//! Liveness model: value 0 (the input) is defined at time 0; step `i`
//! reads its operands at time `i+1` and defines its output at time `i+1`;
//! the plan output stays live past the last step. A value freed at time
//! `t` is only reused by definitions *after* `t`, so a step's freshly
//! allocated destination can never overlap a live operand — operands are
//! still active while the destination is placed.
//!
//! Element-wise steps (BatchNorm, activations) whose operand dies at the
//! step alias their destination onto the operand's region and run in
//! place — the common conv→bn→relu spine threads one buffer.

use super::step::{Step, StepKind, ValueId};

/// The planner's output: per-value offsets (f32 elements, per sample)
/// into an arena of `arena_len` elements per sample.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// Offset of each value; aliased values share their root's offset.
    pub(crate) value_off: Vec<usize>,
    /// Arena length in f32 elements per sample.
    pub(crate) arena_len: usize,
    /// `true` where the value shares its producer-operand's region (the
    /// executor runs those steps in place).
    pub(crate) aliased: Vec<bool>,
}

fn find_root(parent: &mut [usize], v: usize) -> usize {
    let mut r = v;
    while parent[r] != r {
        r = parent[r];
    }
    // Path compression keeps repeated lookups cheap.
    let mut c = v;
    while parent[c] != c {
        let next = parent[c];
        parent[c] = r;
        c = next;
    }
    r
}

/// Plans offsets for every live value of the optimised program.
pub(crate) fn plan(steps: &[Step], value_len: &[usize], output: ValueId) -> Layout {
    let n = value_len.len();
    let last_time = steps.len() + 1;

    // Definition and last-use times. Dead values (orphaned by the
    // optimiser) keep def == None and are never allocated.
    let mut def: Vec<Option<usize>> = vec![None; n];
    let mut last_use: Vec<usize> = vec![0; n];
    def[0] = Some(0);
    for (i, s) in steps.iter().enumerate() {
        def[s.dst.0] = Some(i + 1);
        last_use[s.src.0] = last_use[s.src.0].max(i + 1);
        if let StepKind::Add { rhs, .. } = s.kind {
            last_use[rhs.0] = last_use[rhs.0].max(i + 1);
        }
    }
    last_use[output.0] = last_time;

    // Alias element-wise destinations onto operands that die at the step.
    let mut parent: Vec<usize> = (0..n).collect();
    let mut aliased = vec![false; n];
    for (i, s) in steps.iter().enumerate() {
        if s.kind.is_elementwise()
            && last_use[s.src.0] == i + 1
            && value_len[s.src.0] == value_len[s.dst.0]
            && def[s.src.0].is_some()
        {
            parent[s.dst.0] = find_root(&mut parent, s.src.0);
            aliased[s.dst.0] = true;
        }
    }

    // Collapse intervals onto roots.
    let mut start: Vec<usize> = vec![usize::MAX; n];
    let mut end: Vec<usize> = vec![0; n];
    for v in 0..n {
        let Some(d) = def[v] else { continue };
        let r = find_root(&mut parent, v);
        start[r] = start[r].min(d);
        end[r] = end[r].max(last_use[v]).max(d);
    }

    // First-fit linear scan over roots ordered by definition time.
    let mut roots: Vec<usize> = (0..n)
        .filter(|&v| def[v].is_some() && find_root(&mut parent, v) == v)
        .collect();
    roots.sort_by_key(|&r| start[r]);
    let mut active: Vec<(usize, usize, usize)> = Vec::new(); // (off, len, end)
    let mut offsets = vec![0usize; n];
    let mut arena_len = 0usize;
    for &r in &roots {
        let need = value_len[r];
        active.retain(|&(_, _, e)| e >= start[r]);
        active.sort_by_key(|&(off, _, _)| off);
        let mut cur = 0usize;
        for &(off, len, _) in &active {
            if off >= cur + need {
                break;
            }
            cur = cur.max(off + len);
        }
        offsets[r] = cur;
        arena_len = arena_len.max(cur + need);
        if need > 0 {
            active.push((cur, need, end[r]));
        }
    }

    // Resolve aliases to their root's offset.
    let mut value_off = vec![0usize; n];
    for v in 0..n {
        if def[v].is_some() {
            value_off[v] = offsets[find_root(&mut parent, v)];
        }
    }
    Layout {
        value_off,
        arena_len,
        aliased,
    }
}
