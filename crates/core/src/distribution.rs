//! Distribution-Labeling (DL) — Algorithm 2 of the paper.
//!
//! The "simplest hierarchy": a total order of vertices. Hops are
//! processed from the highest rank down; hop `v_i` is *distributed*
//! into the labels of exactly the vertices whose coverage it extends
//! (Theorem 2):
//!
//! * a **reverse** BFS from `v_i` adds `v_i` to `L_out(u)` for every
//!   `u ∈ TC⁻¹(v_i) \ TC⁻¹(X)`, pruning (and not expanding) any `u`
//!   with `L_out(u) ∩ L_in(v_i) ≠ ∅` — such a `u` already reaches `v_i`
//!   through a higher-ranked hop;
//! * a **forward** BFS symmetrically adds `v_i` to `L_in(w)`.
//!
//! The resulting labeling is complete (Theorem 3) and **non-redundant**
//! (Theorem 4): removing any single hop entry breaks completeness. Both
//! properties are enforced by this crate's tests.
//!
//! ### Hop ids are ranks
//!
//! Labels store the *rank* of a hop, not its vertex id. Ranks are
//! assigned in processing order, so every label list is born sorted —
//! no per-list sort is ever needed, and the merge-intersection query
//! works directly on ranks. [`DistributionLabeling::vertex_at_rank`]
//! recovers the underlying vertex.
//!
//! Worst-case construction cost is `O(n·(n+m)·L)` like the paper's
//! Algorithm 2, but the pruning makes it far faster in practice — that
//! is the paper's central claim, reproduced in `EXPERIMENTS.md`.
//!
//! ### The hot-path build engine
//!
//! The textbook transcription of Algorithm 2 pays a full sorted-merge
//! `L_out(u) ∩ L_in(v_i)` on **every** BFS pop. Two observations make
//! the build much faster without changing a single emitted label:
//!
//! 1. **Rank-bitmap pruning** ([`Pruning::RankBitmap`], the default).
//!    Within one hop's BFS the right-hand side of every pruning test is
//!    the *same* list (`L_in(v_i)` for the reverse side, `L_out(v_i)`
//!    for the forward side). Snapshotting it once per hop into an
//!    epoch-stamped, rank-indexed membership array turns each test into
//!    `O(|L_out(u)|)` probes with O(1) lookups — and the epoch stamp
//!    makes the per-hop reset O(1) instead of O(n).
//! 2. **A prefetched BFS queue**. The pruned BFS keeps its queue in a
//!    flat `Vec` and reads ahead of the pop cursor: it prefetches the
//!    label-list header of the entry `HEADER_AHEAD` pops away, and the
//!    list data plus the adjacency slice of the entry `DATA_AHEAD` pops
//!    away — so by the time a vertex is popped, the loads its prune
//!    test and expansion need are already in flight. Hints change no
//!    result.
//!
//! The build runs on the calling thread. Two multi-threaded engines —
//! an N-thread level-chunked one and a two-sided one (reverse BFSs on
//! one thread, forward BFSs on another, handing off per hop) — emitted
//! identical labels but did not beat this loop in wall time on a 2-core
//! host, and the two-sided one spent ~1.8x its CPU time; both were
//! retired (ROADMAP 3(d) has the measurements).
//!
//! [`Pruning::SortedMerge`] keeps the original per-pop merge as a
//! measurable reference — `paper perf` reports the speedup of the
//! rank-bitmap engine against it and checks its labels against it.

use std::time::Instant;

use hoplite_graph::traversal::VisitedSet;
use hoplite_graph::{Dag, VertexId};

use crate::label::{sorted_intersect, Labeling, LabelingBuilder};
use crate::metrics::BuildTrace;
use crate::oracle::ReachIndex;
use crate::order::OrderKind;
use crate::store::{prefetch, Store};

/// Pops ahead of the cursor whose label-list header `distribute`
/// prefetches.
const HEADER_AHEAD: usize = 8;

/// Pops ahead of the cursor whose label-list data and adjacency slice
/// `distribute` prefetches. Shorter than [`HEADER_AHEAD`], so the
/// header that locates the list data was requested earlier. Distances
/// 1–4 measured within noise of each other on a 200k-vertex build; 2
/// led most often.
const DATA_AHEAD: usize = 2;

/// Pruning-test implementation used by the build loop.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Pruning {
    /// Per-hop snapshot of the fixed intersection side into an
    /// epoch-stamped rank-membership array; each pop then tests in
    /// `O(|L_out(u)|)` with O(1) lookups. The default.
    #[default]
    RankBitmap,
    /// The paper-literal per-pop sorted merge,
    /// `O(|L_out(u)| + |L_in(v_i)|)` per pop. Kept as the measurable
    /// reference baseline.
    SortedMerge,
}

/// Configuration for [`DistributionLabeling::build`].
#[derive(Clone, Debug, Default)]
pub struct DlConfig {
    /// Vertex processing order (default: the paper's degree product).
    pub order: OrderKind,
    /// Pruning-test engine (default: rank-bitmap).
    pub pruning: Pruning,
}

/// The fixed side of one hop's prune test: `L_in(v_i)` for the reverse
/// BFS, `L_out(v_i)` for the forward one, loaded once per hop side.
trait PruneSet {
    /// Replaces the set's contents with the sorted list `ranks`.
    fn load(&mut self, ranks: &[u32]);
    /// `true` iff the sorted list `ranks` shares an element with the set.
    fn intersects(&self, ranks: &[u32]) -> bool;
}

/// The paper-literal prune test ([`Pruning::SortedMerge`]): a sorted
/// merge per pop against a copy of the fixed list.
struct MergeSet(Vec<u32>);

impl PruneSet for MergeSet {
    fn load(&mut self, ranks: &[u32]) {
        self.0.clear();
        self.0.extend_from_slice(ranks);
    }

    #[inline]
    fn intersects(&self, ranks: &[u32]) -> bool {
        sorted_intersect(ranks, &self.0)
    }
}

/// Epoch-stamped membership set over hop ranks `0..n`
/// ([`Pruning::RankBitmap`]).
///
/// `load` snapshots one sorted rank list in `O(len)`; `intersects`
/// then answers "does this other list share an element?" in
/// `O(len(other))` with O(1) probes. Bumping the epoch invalidates the
/// whole set in O(1), so per-hop reuse never pays a clear.
#[derive(Clone, Debug)]
struct RankSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl RankSet {
    fn new(n: usize) -> Self {
        RankSet {
            stamp: vec![0; n],
            epoch: 0,
        }
    }
}

impl PruneSet for RankSet {
    fn load(&mut self, ranks: &[u32]) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        for &r in ranks {
            self.stamp[r as usize] = self.epoch;
        }
    }

    #[inline]
    fn intersects(&self, ranks: &[u32]) -> bool {
        ranks.iter().any(|&r| self.stamp[r as usize] == self.epoch)
    }
}

/// A complete, non-redundant reachability oracle built by
/// Distribution-Labeling.
#[derive(Clone, Debug)]
pub struct DistributionLabeling {
    labeling: Labeling,
    /// `order[r]` = vertex processed at rank `r`. A [`Store`] so a
    /// HOPL v3 open addresses the persisted table in place.
    order: Store<u32>,
}

impl DistributionLabeling {
    /// Runs Algorithm 2 on `dag`.
    ///
    /// ```
    /// use hoplite_graph::Dag;
    /// use hoplite_core::{DistributionLabeling, DlConfig, ReachIndex};
    ///
    /// let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (1, 3)])?;
    /// let dl = DistributionLabeling::build(&dag, &DlConfig::default());
    /// assert!(dl.query(0, 3));
    /// assert!(!dl.query(2, 3));
    /// # Ok::<(), hoplite_graph::GraphError>(())
    /// ```
    pub fn build(dag: &Dag, cfg: &DlConfig) -> Self {
        Self::build_ordered(dag, cfg.order.compute(dag), cfg)
    }

    /// [`Self::build`] with construction-phase span tracing: the order
    /// computation, the hop-distribution loop, and the label freeze
    /// each record a span into `trace`, and every hop records one
    /// sample (both BFS sides) into its per-hop histogram. With
    /// `trace = None` this is exactly [`Self::build`] — the loop takes
    /// one dead branch per hop and records nothing.
    pub fn build_traced(dag: &Dag, cfg: &DlConfig, trace: Option<&BuildTrace>) -> Self {
        let order = match trace {
            Some(t) => t.span("order", || cfg.order.compute(dag)),
            None => cfg.order.compute(dag),
        };
        Self::build_ordered_traced(dag, order, cfg, trace)
    }

    /// Runs Algorithm 2 with an explicit processing order (`order[0]`
    /// is the highest-ranked hop). The order must be a permutation of
    /// the vertices; domain-specific orders can beat the degree
    /// heuristics when the caller knows the graph's hub structure.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..n`.
    pub fn build_with_order(dag: &Dag, order: Vec<VertexId>) -> Self {
        Self::build_ordered(dag, order, &DlConfig::default())
    }

    /// [`Self::build_with_order`] with explicit engine knobs
    /// (`cfg.order` is ignored in favor of `order`).
    ///
    /// Both pruning engines emit **identical** labels; the knob trades
    /// construction time only.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..n`.
    pub fn build_ordered(dag: &Dag, order: Vec<VertexId>, cfg: &DlConfig) -> Self {
        Self::build_ordered_traced(dag, order, cfg, None)
    }

    /// [`Self::build_ordered`] with optional span tracing (see
    /// [`Self::build_traced`]).
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..n`.
    pub fn build_ordered_traced(
        dag: &Dag,
        order: Vec<VertexId>,
        cfg: &DlConfig,
        trace: Option<&BuildTrace>,
    ) -> Self {
        let n = dag.num_vertices();
        assert_eq!(order.len(), n, "order must cover every vertex");
        debug_assert!({
            let mut seen = vec![false; n];
            order.iter().all(|&v| {
                let s = &mut seen[v as usize];
                !std::mem::replace(s, true)
            })
        });
        let engine = || match cfg.pruning {
            Pruning::SortedMerge => build_sequential(dag, &order, MergeSet(Vec::new()), trace),
            Pruning::RankBitmap => build_sequential(dag, &order, RankSet::new(n), trace),
        };
        let b = match trace {
            Some(t) => t.span("distribute", engine),
            None => engine(),
        };
        let labeling = match trace {
            Some(t) => t.span("freeze", || b.finish()),
            None => b.finish(),
        };
        DistributionLabeling {
            labeling,
            order: order.into(),
        }
    }

    /// The underlying label store.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// Reassembles an oracle from the sections of an opened HOPL v3
    /// arena (see [`crate::persist`]).
    pub(crate) fn from_parts(labeling: Labeling, order: Store<u32>) -> Self {
        DistributionLabeling { labeling, order }
    }

    /// True byte footprint (labels + signatures + the order table),
    /// split by backing.
    pub fn memory(&self) -> crate::store::MemorySplit {
        let mut m = self.labeling.memory();
        m.add(crate::store::MemorySplit::of(&self.order));
        m
    }

    /// The vertex that was assigned rank `r` (hop id `r` in the labels).
    pub fn vertex_at_rank(&self, r: u32) -> VertexId {
        self.order[r as usize]
    }

    /// The full rank → vertex order.
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }
}

/// One side of one hop's distribution: a pruned BFS from `vi` that
/// appends rank `r` to `side[u]` for every non-pruned visited vertex,
/// expanding along `neighbors`. The prune test sees the visited
/// vertex's current label list — a hit means that vertex already
/// covers `v_i` through a higher-ranked hop, so neither it nor
/// anything beyond it needs this hop. The closures monomorphize, so
/// the skeleton both sides share costs nothing on the hot path. The
/// queue is a flat `Vec` walked by a cursor so the entries still to
/// pop can be prefetched (module docs, point 2).
fn distribute<'g>(
    side: &mut [Vec<u32>],
    vi: VertexId,
    r: u32,
    neighbors: impl Fn(VertexId) -> &'g [VertexId],
    prune: impl Fn(&[u32]) -> bool,
    visited: &mut VisitedSet,
    queue: &mut Vec<VertexId>,
) {
    visited.clear();
    queue.clear();
    visited.insert(vi);
    queue.push(vi);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        if let Some(&a) = queue.get(head + HEADER_AHEAD) {
            prefetch(side, a as usize);
        }
        if let Some(&d) = queue.get(head + DATA_AHEAD) {
            prefetch(&side[d as usize], 0);
            prefetch(neighbors(d), 0);
        }
        head += 1;
        if prune(&side[u as usize]) {
            continue;
        }
        side[u as usize].push(r);
        for &w in neighbors(u) {
            if visited.insert(w) {
                queue.push(w);
            }
        }
    }
}

/// The hop loop: both sides of every hop on the calling thread, pruned
/// against `members` (a merge for
/// [`Pruning::SortedMerge`], a rank bitmap for [`Pruning::RankBitmap`]).
/// Both prune sets emit identical labels — within a hop side the
/// snapshot equals the list a live merge would scan (the reverse BFS
/// never mutates `L_in(v_i)`, and the forward test can never observe
/// its own rank `r` in any `L_in(w)`, so snapshot timing is
/// irrelevant). With a trace, each hop's full distribution (both BFS
/// sides) lands in the trace's per-hop histogram.
fn build_sequential(
    dag: &Dag,
    order: &[VertexId],
    mut members: impl PruneSet,
    trace: Option<&BuildTrace>,
) -> LabelingBuilder {
    let g = dag.graph();
    let n = dag.num_vertices();
    let mut b = LabelingBuilder::new(n);
    let mut visited = VisitedSet::new(n);
    let mut queue = Vec::new();

    for (rank, &vi) in order.iter().enumerate() {
        let hop_started = trace.map(|_| Instant::now());
        let r = rank as u32;
        // Reverse BFS: distribute r into L_out of vi's ancestors.
        members.load(&b.in_[vi as usize]);
        distribute(
            &mut b.out,
            vi,
            r,
            |u| g.in_neighbors(u),
            |l_out_u| members.intersects(l_out_u),
            &mut visited,
            &mut queue,
        );
        // Forward BFS: distribute r into L_in of vi's descendants.
        members.load(&b.out[vi as usize]);
        distribute(
            &mut b.in_,
            vi,
            r,
            |w| g.out_neighbors(w),
            |l_in_w| members.intersects(l_in_w),
            &mut visited,
            &mut queue,
        );
        if let (Some(t), Some(started)) = (trace, hop_started) {
            t.record_hop(started.elapsed().as_nanos() as u64);
        }
    }
    b
}

impl ReachIndex for DistributionLabeling {
    fn name(&self) -> &'static str {
        "DL"
    }

    fn query(&self, u: VertexId, v: VertexId) -> bool {
        self.labeling.query(u, v)
    }

    fn size_in_integers(&self) -> u64 {
        // Labels + offsets + the rank→vertex table.
        self.labeling.size_in_integers() + self.order.len() as u64
    }

    fn memory_bytes(&self) -> u64 {
        // The default 4·size_in_integers() misses the 16 B/vertex
        // signature arrays; report the real footprint.
        self.memory().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplite_graph::{gen, traversal};

    fn assert_matches_bfs(dag: &Dag, dl: &DistributionLabeling) {
        let n = dag.num_vertices() as VertexId;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    dl.query(u, v),
                    traversal::reaches(dag.graph(), u, v),
                    "mismatch at ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn diamond_complete() {
        let dag = Dag::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        assert_matches_bfs(&dag, &dl);
    }

    #[test]
    fn every_vertex_labels_itself() {
        let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        for v in 0..4u32 {
            assert!(dl.query(v, v));
        }
    }

    #[test]
    fn random_dags_complete_all_orders() {
        for seed in 0..8 {
            let dag = gen::random_dag(40, 120, seed);
            for order in [
                OrderKind::DegProduct,
                OrderKind::DegSum,
                OrderKind::Random(seed),
                OrderKind::Topological,
                OrderKind::CoverSize,
            ] {
                let dl = DistributionLabeling::build(
                    &dag,
                    &DlConfig {
                        order,
                        ..DlConfig::default()
                    },
                );
                assert_matches_bfs(&dag, &dl);
            }
        }
    }

    #[test]
    fn tree_and_powerlaw_complete() {
        for seed in 0..4 {
            let d1 = gen::tree_plus_dag(60, 15, seed);
            assert_matches_bfs(&d1, &DistributionLabeling::build(&d1, &DlConfig::default()));
            let d2 = gen::power_law_dag(60, 180, seed);
            assert_matches_bfs(&d2, &DistributionLabeling::build(&d2, &DlConfig::default()));
        }
    }

    #[test]
    fn empty_and_singleton() {
        let dag = Dag::from_edges(0, &[]).unwrap();
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        assert_eq!(dl.labeling().total_entries(), 0);

        let dag = Dag::from_edges(1, &[]).unwrap();
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        assert!(dl.query(0, 0));
        // Singleton labels itself on both sides.
        assert_eq!(dl.labeling().total_entries(), 2);
    }

    #[test]
    fn label_lists_are_strictly_sorted_ranks() {
        let dag = gen::random_dag(50, 150, 3);
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        for v in 0..50u32 {
            for l in [dl.labeling().out_label(v), dl.labeling().in_label(v)] {
                assert!(l.windows(2).all(|w| w[0] < w[1]), "unsorted label at {v}");
            }
        }
    }

    /// Theorem 4: the labeling is non-redundant — removing any single
    /// hop entry breaks completeness.
    #[test]
    fn non_redundancy_on_small_dags() {
        for seed in 0..5 {
            let dag = gen::random_dag(14, 28, seed);
            let dl = DistributionLabeling::build(&dag, &DlConfig::default());
            let n = dag.num_vertices();
            // Reconstruct mutable lists from the frozen labeling.
            let out: Vec<Vec<u32>> = (0..n as u32)
                .map(|v| dl.labeling().out_label(v).to_vec())
                .collect();
            let in_: Vec<Vec<u32>> = (0..n as u32)
                .map(|v| dl.labeling().in_label(v).to_vec())
                .collect();
            // Completeness in the paper's Cov(V) sense: labels must
            // cover reflexive pairs too (every vertex records itself),
            // so the intersection is checked without a u == v shortcut.
            let complete = |out: &[Vec<u32>], in_: &[Vec<u32>]| {
                (0..n as u32).all(|u| {
                    (0..n as u32).all(|v| {
                        sorted_intersect(&out[u as usize], &in_[v as usize])
                            == (u == v || traversal::reaches(dag.graph(), u, v))
                    })
                })
            };
            assert!(complete(&out, &in_), "labeling must start complete");
            for v in 0..n {
                for k in 0..out[v].len() {
                    let mut trimmed = out.clone();
                    trimmed[v].remove(k);
                    assert!(
                        !complete(&trimmed, &in_),
                        "removing hop {} from Lout({v}) kept completeness (seed {seed})",
                        out[v][k]
                    );
                }
                for k in 0..in_[v].len() {
                    let mut trimmed = in_.clone();
                    trimmed[v].remove(k);
                    assert!(
                        !complete(&out, &trimmed),
                        "removing hop {} from Lin({v}) kept completeness (seed {seed})",
                        in_[v][k]
                    );
                }
            }
        }
    }

    /// Asserts `dl` carries exactly `reference`'s order and labels.
    fn assert_identical(dl: &DistributionLabeling, reference: &DistributionLabeling, ctx: &str) {
        assert_eq!(dl.order(), reference.order(), "{ctx}");
        for v in 0..reference.order().len() as VertexId {
            assert_eq!(
                dl.labeling().out_label(v),
                reference.labeling().out_label(v),
                "{ctx}, L_out({v})"
            );
            assert_eq!(
                dl.labeling().in_label(v),
                reference.labeling().in_label(v),
                "{ctx}, L_in({v})"
            );
        }
    }

    /// Both pruning engines — seed merge and rank bitmap — must emit
    /// byte-identical labels, on ordinary graph families and on
    /// degenerate shapes (no vertices, no edges, a bare path); the knob
    /// trades construction time only.
    #[test]
    fn all_engines_emit_identical_labels() {
        let build = |dag: &Dag, pruning| {
            DistributionLabeling::build(
                dag,
                &DlConfig {
                    order: OrderKind::DegProduct,
                    pruning,
                },
            )
        };
        let degenerate = [
            Dag::from_edges(0, &[]).unwrap(),
            Dag::from_edges(1, &[]).unwrap(),
            Dag::from_edges(5, &[]).unwrap(),
            Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap(),
        ];
        let families = (0..4).flat_map(|seed| {
            [
                gen::random_dag(80, 240, seed),
                gen::tree_plus_dag(80, 20, seed),
                gen::power_law_dag(80, 240, seed),
            ]
        });
        for (i, dag) in degenerate.into_iter().chain(families).enumerate() {
            let reference = build(&dag, Pruning::SortedMerge);
            assert_matches_bfs(&dag, &reference);
            let bitmap = build(&dag, Pruning::RankBitmap);
            assert_identical(&bitmap, &reference, &format!("graph {i}"));
        }
    }

    /// Tracing must be an observer: a traced build emits exactly the
    /// labels of the untraced one and records the expected spans and
    /// one per-hop sample per vertex.
    #[test]
    fn traced_build_is_label_identical_and_records_spans() {
        use crate::metrics::BuildTrace;
        let dag = gen::random_dag(120, 360, 9);
        let cfg = DlConfig::default();
        let plain = DistributionLabeling::build(&dag, &cfg);
        let trace = BuildTrace::new();
        let traced = DistributionLabeling::build_traced(&dag, &cfg, Some(&trace));
        assert_identical(&traced, &plain, "traced");
        let names: Vec<String> = trace.spans().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, ["order", "distribute", "freeze"]);
        assert_eq!(trace.hop_snapshot().count(), dag.num_vertices() as u64);
    }

    #[test]
    fn rank_mapping_roundtrips() {
        let dag = gen::random_dag(30, 60, 11);
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        for (r, &v) in dl.order().iter().enumerate() {
            assert_eq!(dl.vertex_at_rank(r as u32), v);
        }
    }
}
