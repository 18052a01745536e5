//! Dual-Labeling (Wang et al., ICDE 2006) — the paper's reference \[36\],
//! listed in §2.1 as a representative transitive-closure compression.
//!
//! Dual labeling targets *sparse* DAGs where the number of non-tree
//! edges `t` is far smaller than `n`. A spanning forest gives every
//! vertex a pre-order interval, answering tree-only reachability in
//! O(1); the `t` remaining edges ("links") get a `t × t` transitive
//! link closure so that any path — which alternates tree segments and
//! links — is answered from one interval test plus one closure probe.
//!
//! The original achieves O(1) queries with a link-grid structure; here
//! the closure rows are bitsets with a sparse table of range ORs, so a
//! query costs `O(t/64)` after the O(1) tree test — equivalent in the
//! regime `t ≪ n` that dual labeling is designed for (and the regime in
//! which the paper's Table 2 runs it). Construction fails with
//! [`GraphError::BudgetExceeded`] when `t` is too large for the `t²`
//! closure, mirroring how the original degrades on non-tree-like
//! graphs.

use hoplite_core::ReachIndex;
use hoplite_graph::{Dag, FixedBitset, GraphError, VertexId};

/// Dual-labeling reachability index: spanning-forest intervals plus a
/// transitive link-closure table.
pub struct DualLabeling {
    /// Pre-order number of each vertex in the spanning forest.
    pre: Vec<u32>,
    /// Largest pre-order number in each vertex's forest subtree.
    max_pre: Vec<u32>,
    /// Link tails' pre-order numbers, ascending (the sort key).
    tail_pre: Vec<u32>,
    /// Link heads, in the same order as `tail_pre`.
    head: Vec<VertexId>,
    /// `sparse[k][i]` = OR of closure rows `i .. i + 2^k`, where row
    /// `i` (level 0) is the reflexive-transitive link closure of link
    /// `i`: bit `j` set iff following link `i` can lead to link `j`.
    /// Gives O(t/64) OR over any contiguous tail range.
    sparse: Vec<Vec<FixedBitset>>,
}

impl DualLabeling {
    /// Builds the index. The `t × t` link closure (plus its range-OR
    /// sparse table) must fit in `budget_bytes`, otherwise
    /// [`GraphError::BudgetExceeded`] is returned — dual labeling is
    /// only applicable while `t` stays small.
    pub fn build(dag: &Dag, budget_bytes: u64) -> Result<Self, GraphError> {
        let n = dag.num_vertices();
        let g = dag.graph();

        // --- Spanning forest by DFS; tree parent = discovering edge. --
        let mut pre = vec![0u32; n];
        let mut max_pre = vec![0u32; n];
        let mut tree_child: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        let mut visited = vec![false; n];
        let mut links: Vec<(VertexId, VertexId)> = Vec::new();
        let mut stack: Vec<(VertexId, usize)> = Vec::new();
        for root in 0..n as VertexId {
            if visited[root as usize] || g.in_degree(root) != 0 {
                continue;
            }
            visited[root as usize] = true;
            stack.push((root, 0));
            while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
                if let Some(&w) = g.out_neighbors(v).get(*idx) {
                    *idx += 1;
                    if visited[w as usize] {
                        links.push((v, w));
                    } else {
                        visited[w as usize] = true;
                        tree_child[v as usize].push(w);
                        stack.push((w, 0));
                    }
                } else {
                    stack.pop();
                }
            }
        }
        debug_assert!(
            visited.iter().all(|&b| b),
            "DAG vertices all sit under a root"
        );

        // Pre-order numbering over the recorded tree children (a second
        // pass so link discovery above could use `visited` freely).
        let mut counter = 0u32;
        let mut order_stack: Vec<VertexId> = Vec::new();
        for root in 0..n as VertexId {
            if dag.in_degree(root) != 0 {
                continue;
            }
            order_stack.push(root);
            while let Some(v) = order_stack.pop() {
                pre[v as usize] = counter;
                counter += 1;
                // Reverse push keeps children in discovery order; any
                // fixed order works for interval containment.
                for &c in tree_child[v as usize].iter().rev() {
                    order_stack.push(c);
                }
            }
        }
        debug_assert_eq!(counter as usize, n);
        // max_pre by processing vertices in decreasing pre-order: each
        // parent folds in its children's maxima.
        let mut by_pre: Vec<VertexId> = (0..n as VertexId).collect();
        by_pre.sort_unstable_by_key(|&v| pre[v as usize]);
        for &v in by_pre.iter().rev() {
            let mut m = pre[v as usize];
            for &c in &tree_child[v as usize] {
                m = m.max(max_pre[c as usize]);
            }
            max_pre[v as usize] = m;
        }

        let t = links.len();
        // Closure rows + sparse table: t²/8 bytes per level, ~log2(t)+1
        // levels. Refuse graphs where that blows the budget.
        let levels = (usize::BITS - t.max(1).leading_zeros()) as u64;
        let need = (t as u64).pow(2) / 8 * (levels + 1);
        if need > budget_bytes {
            return Err(GraphError::BudgetExceeded {
                what: "dual-labeling link closure",
                required_bytes: need,
                budget_bytes,
            });
        }

        // --- Links sorted by tail pre-order (query range key). --------
        links.sort_unstable_by_key(|&(x, _)| pre[x as usize]);
        let tail_pre: Vec<u32> = links.iter().map(|&(x, _)| pre[x as usize]).collect();
        let head: Vec<VertexId> = links.iter().map(|&(_, y)| y).collect();

        // --- Reflexive-transitive link closure. -----------------------
        // Link i directly precedes j iff tail(j) lies in the forest
        // subtree of head(i). Because the graph is acyclic,
        // topo(tail(i)) < topo(head(i)) ≤ topo(tail(j)), so processing
        // links in decreasing topological position of their tail sees
        // every successor's finished row.
        let subtree_range = |v: VertexId| -> (usize, usize) {
            let lo = tail_pre.partition_point(|&p| p < pre[v as usize]);
            let hi = tail_pre.partition_point(|&p| p <= max_pre[v as usize]);
            (lo, hi)
        };
        let mut rows = vec![FixedBitset::new(t); t];
        let mut dp_order: Vec<usize> = (0..t).collect();
        dp_order.sort_unstable_by_key(|&i| dag.topo_pos(links[i].0));
        for &i in dp_order.iter().rev() {
            let mut row = FixedBitset::new(t);
            row.set(i);
            let (lo, hi) = subtree_range(head[i]);
            for (j, row_j) in rows.iter().enumerate().take(hi).skip(lo) {
                debug_assert_ne!(i, j, "a link tail cannot sit under its own head");
                row.union_with(row_j);
            }
            rows[i] = row;
        }

        // --- Sparse table of range ORs over the tail-sorted rows. -----
        let mut sparse: Vec<Vec<FixedBitset>> = Vec::new();
        if t > 0 {
            sparse.push(rows);
            let mut k = 1usize;
            while (1 << k) <= t {
                let half = 1 << (k - 1);
                let prev = &sparse[k - 1];
                let mut level = Vec::with_capacity(t - (1 << k) + 1);
                for i in 0..=(t - (1 << k)) {
                    let mut b = prev[i].clone();
                    b.union_with(&prev[i + half]);
                    level.push(b);
                }
                sparse.push(level);
                k += 1;
            }
        }

        Ok(DualLabeling {
            pre,
            max_pre,
            tail_pre,
            head,
            sparse,
        })
    }

    /// Number of non-tree edges (links) — the `t` that drives both the
    /// index size and dual labeling's applicability.
    pub fn num_links(&self) -> usize {
        self.head.len()
    }

    /// O(1) forest-ancestor test: does `u` reach `v` using tree edges
    /// only?
    #[inline]
    fn tree_reaches(&self, u: VertexId, v: VertexId) -> bool {
        let (pu, pv) = (self.pre[u as usize], self.pre[v as usize]);
        pu <= pv && pv <= self.max_pre[u as usize]
    }

    /// OR of closure rows for links whose tail pre-order lies in
    /// `[lo_idx, hi_idx)`, via two (possibly overlapping) sparse-table
    /// blocks.
    fn range_or(&self, lo: usize, hi: usize) -> FixedBitset {
        debug_assert!(lo < hi && hi <= self.tail_pre.len());
        let len = hi - lo;
        let k = (usize::BITS - 1 - len.leading_zeros()) as usize;
        let mut acc = self.sparse[k][lo].clone();
        acc.union_with(&self.sparse[k][hi - (1 << k)]);
        acc
    }
}

impl ReachIndex for DualLabeling {
    fn name(&self) -> &'static str {
        "DUAL"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        if self.tree_reaches(u, v) {
            return true;
        }
        // Links whose tail sits in u's subtree form one contiguous
        // range of the tail-sorted order.
        let lo = self.tail_pre.partition_point(|&p| p < self.pre[u as usize]);
        let hi = self
            .tail_pre
            .partition_point(|&p| p <= self.max_pre[u as usize]);
        if lo >= hi {
            return false;
        }
        let reach = self.range_or(lo, hi);
        reach.ones().any(|j| self.tree_reaches(self.head[j], v))
    }

    fn size_in_integers(&self) -> u64 {
        let closure_words: usize = self
            .sparse
            .iter()
            .flat_map(|level| level.iter())
            .map(|b| b.as_words().len())
            .sum();
        // One u64 word counts as two of the paper's 32-bit integers.
        (self.pre.len() + self.max_pre.len() + self.tail_pre.len() + self.head.len()) as u64
            + 2 * closure_words as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::{gen, traversal};

    fn assert_matches_bfs(dag: &Dag) {
        let idx = DualLabeling::build(dag, u64::MAX).unwrap();
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
    fn correct_on_random_dags() {
        for seed in 0..6 {
            assert_matches_bfs(&gen::random_dag(50, 150, seed));
        }
    }

    #[test]
    fn correct_on_sparse_families() {
        assert_matches_bfs(&gen::tree_plus_dag(80, 0, 1));
        assert_matches_bfs(&gen::tree_plus_dag(80, 30, 2));
        assert_matches_bfs(&gen::forest_dag(60, 80, 3));
        assert_matches_bfs(&gen::grid_dag(6, 7));
        assert_matches_bfs(&gen::layered_dag(60, 5, 150, 4));
        assert_matches_bfs(&gen::power_law_dag(70, 200, 5));
    }

    #[test]
    fn pure_tree_has_no_links() {
        let dag = gen::tree_plus_dag(120, 0, 9);
        let idx = DualLabeling::build(&dag, u64::MAX).unwrap();
        assert_eq!(idx.num_links(), 0, "a tree is covered by its own forest");
    }

    #[test]
    fn link_count_is_edges_minus_forest() {
        // t = m - (n - #roots) regardless of which spanning forest the
        // DFS picks.
        for seed in 0..4 {
            let dag = gen::random_dag(60, 180, seed);
            let idx = DualLabeling::build(&dag, u64::MAX).unwrap();
            let roots = dag.graph().roots().count();
            let expected = dag.num_edges() - (dag.num_vertices() - roots);
            assert_eq!(idx.num_links(), expected, "seed {seed}");
        }
    }

    #[test]
    fn budget_rejects_link_heavy_graphs() {
        let dag = gen::random_dag(200, 2500, 11);
        assert!(matches!(
            DualLabeling::build(&dag, 1024),
            Err(GraphError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn multi_root_forest_separates_trees() {
        // Two disjoint chains: no cross reachability.
        let dag = Dag::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let idx = DualLabeling::build(&dag, u64::MAX).unwrap();
        assert!(idx.query(0, 2));
        assert!(idx.query(3, 5));
        assert!(!idx.query(0, 5));
        assert!(!idx.query(3, 2));
        assert_eq!(idx.num_links(), 0);
    }

    #[test]
    fn link_chain_crosses_subtrees() {
        // Tree: 0→{1,2}; extra edges 1→2 (link) and a deeper hop:
        // 0→1→3 tree, link 3→4 where 4 hangs under 2.
        let dag = Dag::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4), (1, 2), (3, 4)]).unwrap();
        let idx = DualLabeling::build(&dag, u64::MAX).unwrap();
        assert!(idx.query(1, 4), "1 →link 2 → 4 or 1 → 3 →link 4");
        assert!(idx.query(3, 4), "single link");
        assert!(!idx.query(2, 3));
        assert!(!idx.query(4, 0));
    }

    #[test]
    fn edgeless_and_empty() {
        let dag = Dag::from_edges(4, &[]).unwrap();
        let idx = DualLabeling::build(&dag, u64::MAX).unwrap();
        for u in 0..4u32 {
            for v in 0..4u32 {
                assert_eq!(idx.query(u, v), u == v);
            }
        }
        let empty = Dag::from_edges(0, &[]).unwrap();
        let idx = DualLabeling::build(&empty, u64::MAX).unwrap();
        assert_eq!(idx.size_in_integers(), 0);
    }

    #[test]
    fn reflexive_on_every_vertex() {
        let dag = gen::power_law_dag(40, 100, 13);
        let idx = DualLabeling::build(&dag, u64::MAX).unwrap();
        for v in 0..40u32 {
            assert!(idx.query(v, v));
        }
    }
}
