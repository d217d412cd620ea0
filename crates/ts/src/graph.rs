//! Strongly connected components of the location graph of a transition
//! system, which the baseline provers enumerate to find the cycles a
//! non-terminating run can stay in.

use crate::system::{Loc, TransitionSystem};

/// Strongly connected components of the location graph, in reverse
/// topological order (Tarjan's algorithm, iterative formulation).
pub fn sccs(ts: &TransitionSystem) -> Vec<Vec<Loc>> {
    let n = ts.num_locs();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0;
    let mut components = Vec::new();

    // Iterative Tarjan with an explicit call stack of (node, child iterator state).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call_stack: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        let succs =
            |v: usize| -> Vec<usize> { ts.transitions_from(Loc(v)).map(|t| t.target.0).collect() };
        call_stack.push((start, succs(start), 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some((v, children, mut ci)) = call_stack.pop() {
            let mut descended = false;
            while ci < children.len() {
                let w = children[ci];
                ci += 1;
                if index[w] == usize::MAX {
                    // Descend into w.
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((v, children, ci));
                    call_stack.push((w, succs(w), 0));
                    descended = true;
                    break;
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            }
            if descended {
                continue;
            }
            // All children processed: maybe emit a component.
            if low[v] == index[v] {
                let mut component = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    component.push(Loc(w));
                    if w == v {
                        break;
                    }
                }
                component.sort();
                components.push(component);
            }
            // Propagate lowlink to the parent.
            if let Some(&mut (p, _, _)) = call_stack.last_mut() {
                low[p] = low[p].min(low[v]);
            }
        }
    }
    components
}

/// The non-trivial SCCs (containing a cycle): either more than one location,
/// or a single location with a self-loop.
pub fn cyclic_sccs(ts: &TransitionSystem) -> Vec<Vec<Loc>> {
    sccs(ts)
        .into_iter()
        .filter(|c| c.len() > 1 || ts.transitions_from(c[0]).any(|t| t.target == c[0]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower;
    use revterm_lang::parse_program;

    const RUNNING: &str =
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

    #[test]
    fn sccs_partition_locations() {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let comps = sccs(&ts);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, ts.num_locs());
        // Each location appears exactly once.
        let mut all: Vec<Loc> = comps.iter().flatten().copied().collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), ts.num_locs());
    }

    #[test]
    fn nested_loops_give_one_cyclic_scc_plus_terminal() {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let cyc = cyclic_sccs(&ts);
        // The two nested loops form one cyclic SCC; the terminal self-loop is another.
        assert_eq!(cyc.len(), 2);
        assert!(cyc.iter().any(|c| c.contains(&ts.terminal_loc())));
        assert!(cyc.iter().any(|c| c.len() >= 2));
    }

    #[test]
    fn straightline_program_has_only_terminal_cycle() {
        let ts = lower(&parse_program("skip; skip;").unwrap()).unwrap();
        let cyc = cyclic_sccs(&ts);
        assert_eq!(cyc.len(), 1);
        assert_eq!(cyc[0], vec![ts.terminal_loc()]);
    }
}
