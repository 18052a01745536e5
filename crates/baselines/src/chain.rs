//! Chain-cover compression of the transitive closure (Jagadish,
//! TODS 1990) — the paper's §2.1 "chain compression" family
//! (references \[18\] and \[7\]).
//!
//! The DAG is decomposed into vertex-disjoint *chains* (paths along
//! edges). For every vertex `u` and every chain `c`, all of `TC(u)`'s
//! members on `c` form a suffix of `c`, so recording only the first
//! reachable position per chain compresses each closure row to at most
//! `k` entries (`k` = number of chains). A query is one binary search:
//! `u → v` iff `u`'s entry for `chain(v)` starts at or before `pos(v)`.
//!
//! Two decompositions are provided:
//!
//! * [`ChainIndex::build`] — greedy topological walk; `k` is within a
//!   small factor of optimal on the sparse graphs the paper evaluates.
//! * [`ChainIndex::build_min_cover`] — minimum path cover via Kuhn's
//!   bipartite augmenting-path matching (`k = n − |matching|`, the
//!   classic König/Dilworth construction); `O(n·m)` construction, for
//!   small graphs where the optimal `k` matters.
//!
//! Like the paper's other TC-compression baselines, construction takes
//! a byte budget and fails with [`GraphError::BudgetExceeded`] on
//! closure-dense graphs — chain rows approach `n·k` there, which is
//! exactly why the paper's Tables 5–7 show this family collapsing on
//! large inputs.

use hoplite_core::ReachIndex;
use hoplite_graph::{Dag, GraphError, VertexId, INVALID_VERTEX};

/// Chain-cover compressed transitive closure.
pub struct ChainIndex {
    /// Chain id of each vertex.
    chain_of: Vec<u32>,
    /// Position of each vertex within its chain (0 = chain head).
    pos_of: Vec<u32>,
    /// CSR offsets into `row_chain` / `row_pos`.
    offsets: Vec<u32>,
    /// Per-vertex closure rows: chain ids, ascending.
    row_chain: Vec<u32>,
    /// First reachable position on the corresponding chain.
    row_pos: Vec<u32>,
    /// Number of chains in the decomposition.
    num_chains: usize,
}

impl ChainIndex {
    /// Builds the index over a greedy chain decomposition.
    pub fn build(dag: &Dag, budget_bytes: u64) -> Result<Self, GraphError> {
        let chains = greedy_chains(dag);
        Self::from_chains(dag, chains, budget_bytes)
    }

    /// Builds the index over a *minimum* chain decomposition obtained
    /// from a maximum bipartite matching on the edge set (Kuhn's
    /// algorithm, `O(n·m)`). Minimizing the chain count `k` minimizes
    /// the worst-case row length.
    pub fn build_min_cover(dag: &Dag, budget_bytes: u64) -> Result<Self, GraphError> {
        let chains = matching_chains(dag);
        Self::from_chains(dag, chains, budget_bytes)
    }

    /// Number of chains `k` in the decomposition in use.
    pub fn num_chains(&self) -> usize {
        self.num_chains
    }

    /// The chain id and in-chain position assigned to `v`.
    pub fn chain_position(&self, v: VertexId) -> (u32, u32) {
        (self.chain_of[v as usize], self.pos_of[v as usize])
    }

    fn row(&self, v: VertexId) -> (&[u32], &[u32]) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (&self.row_chain[lo..hi], &self.row_pos[lo..hi])
    }

    /// Shared back half: successor-row DP over any valid decomposition.
    fn from_chains(
        dag: &Dag,
        chains: Vec<Vec<VertexId>>,
        budget_bytes: u64,
    ) -> Result<Self, GraphError> {
        let n = dag.num_vertices();
        let mut chain_of = vec![u32::MAX; n];
        let mut pos_of = vec![u32::MAX; n];
        for (c, chain) in chains.iter().enumerate() {
            for (p, &v) in chain.iter().enumerate() {
                debug_assert_eq!(chain_of[v as usize], u32::MAX, "vertex on two chains");
                chain_of[v as usize] = c as u32;
                pos_of[v as usize] = p as u32;
            }
        }
        debug_assert!(chain_of.iter().all(|&c| c != u32::MAX));

        // Reverse-topological DP: row(v) = min-merge of successor rows
        // plus v's own (chain, pos). Rows are sorted by chain id.
        let mut rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut total: u64 = 0;
        let mut buf: Vec<(u32, u32)> = Vec::new();
        for &v in dag.topo_order().iter().rev() {
            buf.clear();
            buf.push((chain_of[v as usize], pos_of[v as usize]));
            for &w in dag.out_neighbors(v) {
                buf.extend_from_slice(&rows[w as usize]);
            }
            // Keep the minimum position per chain.
            buf.sort_unstable();
            let mut merged: Vec<(u32, u32)> = Vec::with_capacity(buf.len());
            for &(c, p) in buf.iter() {
                match merged.last() {
                    Some(&(lc, _)) if lc == c => {} // earlier entry has smaller pos
                    _ => merged.push((c, p)),
                }
            }
            total += merged.len() as u64;
            if total * 8 > budget_bytes {
                return Err(GraphError::BudgetExceeded {
                    what: "chain-cover closure rows",
                    required_bytes: total * 8,
                    budget_bytes,
                });
            }
            rows[v as usize] = merged;
        }

        let mut offsets = Vec::with_capacity(n + 1);
        let mut row_chain = Vec::with_capacity(total as usize);
        let mut row_pos = Vec::with_capacity(total as usize);
        offsets.push(0u32);
        for r in &rows {
            for &(c, p) in r {
                row_chain.push(c);
                row_pos.push(p);
            }
            offsets.push(row_chain.len() as u32);
        }
        Ok(ChainIndex {
            chain_of,
            pos_of,
            offsets,
            row_chain,
            row_pos,
            num_chains: chains.len(),
        })
    }
}

/// Greedy decomposition: walk the topological order; each unassigned
/// vertex starts a chain that is extended along the first unassigned
/// out-neighbor until stuck.
fn greedy_chains(dag: &Dag) -> Vec<Vec<VertexId>> {
    let n = dag.num_vertices();
    let mut assigned = vec![false; n];
    let mut chains = Vec::new();
    for &start in dag.topo_order() {
        if assigned[start as usize] {
            continue;
        }
        let mut chain = vec![start];
        assigned[start as usize] = true;
        let mut v = start;
        'extend: loop {
            for &w in dag.out_neighbors(v) {
                if !assigned[w as usize] {
                    assigned[w as usize] = true;
                    chain.push(w);
                    v = w;
                    continue 'extend;
                }
            }
            break;
        }
        chains.push(chain);
    }
    chains
}

/// Minimum path cover: maximum matching between out-endpoints and
/// in-endpoints of edges; matched edges stitch vertices into chains.
fn matching_chains(dag: &Dag) -> Vec<Vec<VertexId>> {
    let n = dag.num_vertices();
    // match_succ[u] = matched successor of u, match_pred[v] = matched
    // predecessor of v.
    let mut match_succ = vec![INVALID_VERTEX; n];
    let mut match_pred = vec![INVALID_VERTEX; n];
    let mut seen = vec![u32::MAX; n];

    fn try_augment(
        dag: &Dag,
        u: VertexId,
        round: u32,
        seen: &mut [u32],
        match_succ: &mut [VertexId],
        match_pred: &mut [VertexId],
    ) -> bool {
        for &v in dag.out_neighbors(u) {
            if seen[v as usize] == round {
                continue;
            }
            seen[v as usize] = round;
            if match_pred[v as usize] == INVALID_VERTEX
                || try_augment(
                    dag,
                    match_pred[v as usize],
                    round,
                    seen,
                    match_succ,
                    match_pred,
                )
            {
                match_pred[v as usize] = u;
                match_succ[u as usize] = v;
                return true;
            }
        }
        false
    }

    for u in 0..n as VertexId {
        try_augment(dag, u, u, &mut seen, &mut match_succ, &mut match_pred);
    }

    // Chains start at vertices with no matched predecessor.
    let mut chains = Vec::new();
    for v in 0..n as VertexId {
        if match_pred[v as usize] != INVALID_VERTEX {
            continue;
        }
        let mut chain = vec![v];
        let mut cur = v;
        while match_succ[cur as usize] != INVALID_VERTEX {
            cur = match_succ[cur as usize];
            chain.push(cur);
        }
        chains.push(chain);
    }
    chains
}

impl ReachIndex for ChainIndex {
    fn name(&self) -> &'static str {
        "CHAIN"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        let (chains, positions) = self.row(u);
        match chains.binary_search(&self.chain_of[v as usize]) {
            Ok(i) => positions[i] <= self.pos_of[v as usize],
            Err(_) => false,
        }
    }

    fn size_in_integers(&self) -> u64 {
        (self.chain_of.len()
            + self.pos_of.len()
            + self.offsets.len()
            + self.row_chain.len()
            + self.row_pos.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::{gen, traversal};

    fn assert_matches_bfs(idx: &ChainIndex, dag: &Dag) {
        let n = dag.num_vertices() as u32;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    idx.query(u, v),
                    traversal::reaches(dag.graph(), u, v),
                    "mismatch at ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn greedy_correct_on_random_dags() {
        for seed in 0..6 {
            let dag = gen::random_dag(50, 150, seed);
            let idx = ChainIndex::build(&dag, u64::MAX).unwrap();
            assert_matches_bfs(&idx, &dag);
        }
    }

    #[test]
    fn min_cover_correct_on_random_dags() {
        for seed in 0..6 {
            let dag = gen::random_dag(50, 150, seed);
            let idx = ChainIndex::build_min_cover(&dag, u64::MAX).unwrap();
            assert_matches_bfs(&idx, &dag);
        }
    }

    #[test]
    fn correct_on_other_families() {
        for dag in [
            gen::tree_plus_dag(80, 30, 2),
            gen::layered_dag(60, 5, 150, 4),
            gen::power_law_dag(70, 200, 5),
            gen::grid_dag(6, 7),
        ] {
            let idx = ChainIndex::build(&dag, u64::MAX).unwrap();
            assert_matches_bfs(&idx, &dag);
        }
    }

    #[test]
    fn matching_never_uses_more_chains_than_greedy() {
        for seed in 0..8 {
            let dag = gen::random_dag(60, 200, seed);
            let greedy = ChainIndex::build(&dag, u64::MAX).unwrap();
            let optimal = ChainIndex::build_min_cover(&dag, u64::MAX).unwrap();
            assert!(
                optimal.num_chains() <= greedy.num_chains(),
                "seed {seed}: matching {} > greedy {}",
                optimal.num_chains(),
                greedy.num_chains()
            );
        }
    }

    #[test]
    fn path_is_one_chain() {
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let dag = Dag::from_edges(10, &edges).unwrap();
        for idx in [
            ChainIndex::build(&dag, u64::MAX).unwrap(),
            ChainIndex::build_min_cover(&dag, u64::MAX).unwrap(),
        ] {
            assert_eq!(idx.num_chains(), 1);
            assert_matches_bfs(&idx, &dag);
        }
        // Row of the head is a single (chain 0, pos 0) entry.
        let idx = ChainIndex::build(&dag, u64::MAX).unwrap();
        assert_eq!(idx.row(0), (&[0u32][..], &[0u32][..]));
    }

    #[test]
    fn antichain_needs_n_chains() {
        let dag = Dag::from_edges(7, &[]).unwrap();
        let idx = ChainIndex::build_min_cover(&dag, u64::MAX).unwrap();
        assert_eq!(idx.num_chains(), 7);
        assert_matches_bfs(&idx, &dag);
    }

    #[test]
    fn diamond_min_cover_is_two_chains() {
        // 0 -> {1, 2} -> 3: max matching has 2 edges, so k = 4 - 2 = 2.
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let idx = ChainIndex::build_min_cover(&dag, u64::MAX).unwrap();
        assert_eq!(idx.num_chains(), 2);
        assert_matches_bfs(&idx, &dag);
    }

    #[test]
    fn chain_positions_are_consistent_edges() {
        // Consecutive chain members must be DAG edges.
        let dag = gen::power_law_dag(50, 140, 9);
        let idx = ChainIndex::build(&dag, u64::MAX).unwrap();
        let mut members: Vec<Vec<(u32, VertexId)>> = vec![Vec::new(); idx.num_chains()];
        for v in 0..50u32 {
            let (c, p) = idx.chain_position(v);
            members[c as usize].push((p, v));
        }
        for chain in &mut members {
            chain.sort_unstable();
            for w in chain.windows(2) {
                assert_eq!(w[1].0, w[0].0 + 1, "positions are contiguous");
                assert!(
                    dag.graph().has_edge(w[0].1, w[1].1),
                    "chain step {} -> {} is not an edge",
                    w[0].1,
                    w[1].1
                );
            }
        }
    }

    #[test]
    fn budget_enforced() {
        let dag = gen::random_dag(300, 2000, 3);
        assert!(matches!(
            ChainIndex::build(&dag, 64),
            Err(GraphError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn empty_and_edgeless() {
        let empty = Dag::from_edges(0, &[]).unwrap();
        let idx = ChainIndex::build(&empty, u64::MAX).unwrap();
        assert_eq!(idx.num_chains(), 0);
        let dag = Dag::from_edges(3, &[]).unwrap();
        let idx = ChainIndex::build(&dag, u64::MAX).unwrap();
        for u in 0..3u32 {
            for v in 0..3u32 {
                assert_eq!(idx.query(u, v), u == v);
            }
        }
    }
}
