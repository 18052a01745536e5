//! Parallel batch-query evaluation over a frozen [`Labeling`].
//!
//! A built oracle is immutable, so concurrent readers need no
//! synchronization at all: [`Labeling`] is `Sync`, and the query is two
//! slice lookups plus a merge. This module fans a batch of queries out
//! over scoped OS threads (`std::thread::scope`: the core crates take
//! no runtime dependency for what static fan-out needs) with static
//! chunking — every query costs `O(|L_out| + |L_in|)`, so chunks of
//! equal count balance well without work stealing.
//!
//! ### The staged group-prefetch kernel
//!
//! On an index larger than cache each of those lookups is a dependent
//! DRAM miss, and a query that falls through the pre-filters pays three
//! in a row: `comp_of[u]`, then the signature word and CSR offset of
//! its component, then the hop lists. [`par_query_batch_mapped`] hides
//! them by walking each worker's chunk in groups of `GROUP` (16)
//! queries and running every stage over the whole group before the
//! next, so one group's misses of a stage are in flight together:
//!
//! 1. [`QueryFilters::check`] on filter records prefetched one group
//!    earlier; each fallthrough prefetches `comp_of[u]` and
//!    `comp_of[v]`. (Without filters every query falls through, and
//!    the `comp_of` entries are what is prefetched a group ahead.)
//! 2. Map to components (`cu == cv` is answered here); prefetch
//!    `out_sigs[cu]`, `in_sigs[cv]`, `out_offsets[cu]` and
//!    `in_offsets[cv]`.
//! 3. The signature `AND`; each survivor prefetches the first line of
//!    both hop lists.
//! 4. The adaptive intersection ([`crate::sorted_intersect_adaptive`]).
//!
//! Answers are exactly [`Labeling::query`]'s. Prefetches are hints that
//! never dereference; every real load stays bounds-checked.
//!
//! This serves the serving-side story the paper's introduction
//! motivates (reachability as a high-QPS primitive inside social
//! network / ontology / web services): once Distribution-Labeling has
//! built its small labels, query throughput scales with cores. The
//! `throughput` Criterion bench measures the scaling curve.
//!
//! ```
//! use hoplite_graph::{gen, Dag};
//! use hoplite_core::{DistributionLabeling, DlConfig};
//! use hoplite_core::parallel::par_query_batch;
//!
//! let dag = gen::random_dag(200, 600, 7);
//! let dl = DistributionLabeling::build(&dag, &DlConfig::default());
//! let pairs = vec![(0, 10), (5, 199), (42, 42)];
//! let answers = par_query_batch(dl.labeling(), &pairs, 2);
//! assert_eq!(answers.len(), pairs.len());
//! assert!(answers[2], "reflexive");
//! ```

use hoplite_graph::VertexId;

use crate::filter::QueryFilters;
use crate::label::{LabelPath, Labeling};
use crate::store::prefetch;

/// Where a workload's queries died, per stage: the O(1) pre-filter
/// stack, the O(1) signature rejection, or the intersection kernel.
/// Accumulated off the hot path (each batch worker counts locally and
/// totals are folded once per chunk), so operators can watch the stage
/// mix without taxing throughput.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryTally {
    /// Decided by the pre-filter stack (including reflexive /
    /// same-component pairs).
    pub filter_decided: u64,
    /// Rejected by the rank-band signature `AND`.
    pub signature_cut: u64,
    /// Ran the adaptive label-intersection kernel.
    pub merged: u64,
}

impl QueryTally {
    /// Queries accounted for.
    pub fn total(&self) -> u64 {
        self.filter_decided + self.signature_cut + self.merged
    }

    /// Folds another tally in.
    pub fn add(&mut self, other: &QueryTally) {
        self.filter_decided += other.filter_decided;
        self.signature_cut += other.signature_cut;
        self.merged += other.merged;
    }
}

/// The instrumented single-query path behind
/// [`crate::Oracle::reaches_tallied`]: identical answers to the
/// uninstrumented path, plus one stage counter bump — the same bump
/// the staged kernel of [`par_query_batch_mapped_tallied`] makes for
/// the query. `filters` must be
/// indexed in `(u, v)`'s space (see [`par_query_batch_mapped`]);
/// `comp_of` is only consulted when the filters fall through.
#[inline]
pub(crate) fn answer_tallied(
    labeling: &Labeling,
    filters: Option<&QueryFilters>,
    comp_of: &[VertexId],
    u: VertexId,
    v: VertexId,
    tally: &mut QueryTally,
) -> bool {
    if let Some(f) = filters {
        if let Some(decided) = f.check(u, v) {
            tally.filter_decided += 1;
            return decided;
        }
    }
    let (cu, cv) = (comp_of[u as usize], comp_of[v as usize]);
    let (answer, path) = labeling.query_traced(cu, cv);
    match path {
        // Without a filter stack a reflexive pair is still an O(1)
        // pre-label decision; count it with the filter stage.
        LabelPath::Reflexive => tally.filter_decided += 1,
        LabelPath::SignatureCut => tally.signature_cut += 1,
        LabelPath::Merge => tally.merged += 1,
    }
    answer
}

/// Answers every `(u, v)` pair in `pairs` using `threads` worker
/// threads, preserving order.
///
/// `threads` is clamped to `1..=pairs.len()`; passing `0` or `1` runs
/// inline on the caller's thread (no spawn cost for small batches).
pub fn par_query_batch(
    labeling: &Labeling,
    pairs: &[(VertexId, VertexId)],
    threads: usize,
) -> Vec<bool> {
    let scan = move |part: &[(VertexId, VertexId)], out: &mut [bool]| {
        for (slot, &(u, v)) in out.iter_mut().zip(part) {
            *slot = labeling.query(u, v);
        }
        QueryTally::default()
    };
    fan_out(pairs, threads, scan).0
}

/// Batch evaluation in *original-graph* vertex space: when `filters`
/// is given it must be indexed in the same space as `pairs` (for an
/// oracle over a cyclic graph that means projected through
/// [`QueryFilters::project`]), so the O(1) pre-filter stack runs
/// *before* any component mapping — only queries that fall through to
/// the label intersection pay the `comp_of` lookups, which each worker
/// does inline (no serial prepass, no mapped copy of the batch). This
/// is [`crate::Oracle::reaches_batch`]'s engine; it runs the staged
/// kernel of the module docs and drops the tally
/// [`par_query_batch_mapped_tallied`] keeps.
///
/// `comp_of` may also be the identity when the pairs are already in
/// label space. Answers are order-preserving and identical with and
/// without `filters`.
///
/// # Panics
/// Panics if any vertex id in `pairs` is out of `comp_of`'s range.
pub fn par_query_batch_mapped(
    labeling: &Labeling,
    filters: Option<&QueryFilters>,
    comp_of: &[VertexId],
    pairs: &[(VertexId, VertexId)],
    threads: usize,
) -> Vec<bool> {
    par_query_batch_mapped_tallied(labeling, filters, comp_of, pairs, threads).0
}

/// [`par_query_batch_mapped`] that also reports *where queries died*
/// (pre-filter, signature, merge) as a [`QueryTally`]: the same
/// counts [`crate::Oracle::reaches_tallied`] gives query by query.
/// Answers are identical; the tally costs each worker one register
/// increment per query plus one fold per chunk. This is the engine
/// behind [`crate::Oracle::reaches_batch_tallied`] and the
/// `hoplite-server` `STATS` counters.
///
/// # Panics
/// Panics if any vertex id in `pairs` is out of `comp_of`'s range.
pub fn par_query_batch_mapped_tallied(
    labeling: &Labeling,
    filters: Option<&QueryFilters>,
    comp_of: &[VertexId],
    pairs: &[(VertexId, VertexId)],
    threads: usize,
) -> (Vec<bool>, QueryTally) {
    fan_out(pairs, threads, move |part, out| {
        scan_staged(labeling, filters, comp_of, part, out)
    })
}

/// Queries per group of the staged kernel: enough independent misses
/// in flight per stage to cover DRAM latency, few enough that a
/// group's prefetched lines are still in L1 when a later stage loads
/// them.
const GROUP: usize = 16;

/// One worker's staged group-prefetch loop over `part` (see the module
/// docs), writing `out` and returning the stage tally.
fn scan_staged(
    labeling: &Labeling,
    filters: Option<&QueryFilters>,
    comp_of: &[VertexId],
    part: &[(VertexId, VertexId)],
    out: &mut [bool],
) -> QueryTally {
    // A group's first loads: its filter records, or, without a filter
    // stack, its component ids.
    let prefetch_group = |group: &[(VertexId, VertexId)]| {
        for &(u, v) in group {
            match filters {
                Some(f) => f.prefetch(u, v),
                None => {
                    prefetch(comp_of, u as usize);
                    prefetch(comp_of, v as usize);
                }
            }
        }
    };
    let mut tally = QueryTally::default();
    let mut ahead = part.chunks(GROUP);
    if let Some(first) = ahead.next() {
        prefetch_group(first);
    }
    // The group's undecided queries: slot in the group, then the pair
    // (vertex ids in stage 1, component ids from stage 2 on).
    let mut open = [(0usize, 0 as VertexId, 0 as VertexId); GROUP];
    for (group, answers) in part.chunks(GROUP).zip(out.chunks_mut(GROUP)) {
        if let Some(next) = ahead.next() {
            prefetch_group(next);
        }
        // Stage 1: the pre-filter stack.
        let mut n = 0;
        for (i, &(u, v)) in group.iter().enumerate() {
            if let Some(f) = filters {
                if let Some(decided) = f.check(u, v) {
                    answers[i] = decided;
                    tally.filter_decided += 1;
                    continue;
                }
                prefetch(comp_of, u as usize);
                prefetch(comp_of, v as usize);
            }
            open[n] = (i, u, v);
            n += 1;
        }
        // Stage 2: component mapping. A same-component pair is an O(1)
        // pre-label decision, counted with the filter stage as
        // `answer_tallied` does.
        let mut m = 0;
        for k in 0..n {
            let (i, u, v) = open[k];
            let (cu, cv) = (comp_of[u as usize], comp_of[v as usize]);
            if cu == cv {
                answers[i] = true;
                tally.filter_decided += 1;
                continue;
            }
            labeling.prefetch_heads(cu, cv);
            open[m] = (i, cu, cv);
            m += 1;
        }
        // Stage 3: the signature `AND`.
        let mut s = 0;
        for k in 0..m {
            let (i, cu, cv) = open[k];
            if !labeling.signatures_meet(cu, cv) {
                answers[i] = false;
                tally.signature_cut += 1;
                continue;
            }
            labeling.prefetch_lists(cu, cv);
            open[s] = open[k];
            s += 1;
        }
        // Stage 4: the intersection kernel.
        for &(i, cu, cv) in &open[..s] {
            answers[i] = labeling.lists_meet(cu, cv);
        }
        tally.merged += s as u64;
    }
    tally
}

/// [`par_query_batch`] that only counts positive answers — the
/// aggregate most workload drivers want, without materializing the
/// answer vector.
pub fn par_count_reachable(
    labeling: &Labeling,
    pairs: &[(VertexId, VertexId)],
    threads: usize,
) -> u64 {
    let threads = effective_threads(threads, pairs.len());
    if threads <= 1 {
        return pairs.iter().filter(|&&(u, v)| labeling.query(u, v)).count() as u64;
    }
    let chunk = pairs.len().div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || part.iter().filter(|&&(u, v)| labeling.query(u, v)).count() as u64)
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query worker panicked"))
            .sum()
    })
}

/// Wall-clock throughput measurement of a query batch at a given
/// thread count.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputReport {
    /// Worker threads actually used.
    pub threads: usize,
    /// Queries answered.
    pub queries: usize,
    /// Positive (reachable) answers.
    pub positive: u64,
    /// Total wall-clock time for the batch.
    pub elapsed: std::time::Duration,
}

impl ThroughputReport {
    /// Queries per second.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Runs the batch at each requested thread count and reports the
/// scaling curve. The `examples/` and the `throughput` bench print
/// these directly.
pub fn measure_scaling(
    labeling: &Labeling,
    pairs: &[(VertexId, VertexId)],
    thread_counts: &[usize],
) -> Vec<ThroughputReport> {
    thread_counts
        .iter()
        .map(|&t| {
            let start = std::time::Instant::now();
            let positive = par_count_reachable(labeling, pairs, t);
            ThroughputReport {
                threads: effective_threads(t, pairs.len()),
                queries: pairs.len(),
                positive,
                elapsed: start.elapsed(),
            }
        })
        .collect()
}

fn effective_threads(requested: usize, work_items: usize) -> usize {
    requested.max(1).min(work_items.max(1))
}

/// The shared fan-out skeleton: runs `worker` over `threads`
/// statically chunked slices of `pairs`, each writing its slice of the
/// answers, and folds the workers' tallies. `worker` must be `Copy`
/// (capture only shared references) so each scoped worker takes its
/// own copy.
fn fan_out(
    pairs: &[(VertexId, VertexId)],
    threads: usize,
    worker: impl Fn(&[(VertexId, VertexId)], &mut [bool]) -> QueryTally + Copy + Send,
) -> (Vec<bool>, QueryTally) {
    let mut answers = vec![false; pairs.len()];
    let threads = effective_threads(threads, pairs.len());
    if threads <= 1 {
        let tally = worker(pairs, &mut answers);
        return (answers, tally);
    }
    let chunk = pairs.len().div_ceil(threads);
    let mut tally = QueryTally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .zip(answers.chunks_mut(chunk))
            .map(|(part, out)| s.spawn(move || worker(part, out)))
            .collect();
        for h in handles {
            tally.add(&h.join().expect("query worker panicked"));
        }
    });
    (answers, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistributionLabeling, DlConfig};
    use hoplite_graph::{gen, traversal};

    fn fixture() -> (Labeling, Vec<(VertexId, VertexId)>) {
        let dag = gen::power_law_dag(300, 900, 21);
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        let mut rng = gen::Rng::new(99);
        let pairs: Vec<_> = (0..1000)
            .map(|_| (rng.gen_range(300) as u32, rng.gen_range(300) as u32))
            .collect();
        (dl.labeling().clone(), pairs)
    }

    #[test]
    fn parallel_matches_sequential_at_every_width() {
        let (labeling, pairs) = fixture();
        let seq = par_query_batch(&labeling, &pairs, 1);
        for threads in [2, 3, 4, 7, 16, 1000] {
            assert_eq!(
                par_query_batch(&labeling, &pairs, threads),
                seq,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn count_matches_batch_sum() {
        let (labeling, pairs) = fixture();
        let batch = par_query_batch(&labeling, &pairs, 4);
        let expected = batch.iter().filter(|&&b| b).count() as u64;
        for threads in [1, 2, 5, 8] {
            assert_eq!(par_count_reachable(&labeling, &pairs, threads), expected);
        }
    }

    #[test]
    fn zero_threads_and_empty_batches_are_safe() {
        let (labeling, pairs) = fixture();
        assert_eq!(
            par_query_batch(&labeling, &pairs, 0),
            par_query_batch(&labeling, &pairs, 1)
        );
        assert!(par_query_batch(&labeling, &[], 8).is_empty());
        assert_eq!(par_count_reachable(&labeling, &[], 8), 0);
    }

    #[test]
    fn scaling_report_is_consistent() {
        let (labeling, pairs) = fixture();
        let reports = measure_scaling(&labeling, &pairs, &[1, 2, 4]);
        assert_eq!(reports.len(), 3);
        let positives: Vec<u64> = reports.iter().map(|r| r.positive).collect();
        assert!(
            positives.windows(2).all(|w| w[0] == w[1]),
            "same answers at every width"
        );
        for r in &reports {
            assert_eq!(r.queries, pairs.len());
            assert!(r.qps() > 0.0);
        }
        assert_eq!(reports[0].threads, 1);
        assert_eq!(reports[2].threads, 4);
    }

    /// One setting the mapped batch paths serve: a label store with
    /// its filters and component map, and a batch with its BFS truth.
    struct Space {
        name: &'static str,
        labeling: Labeling,
        filters: QueryFilters,
        comp_of: Vec<VertexId>,
        pairs: Vec<(VertexId, VertexId)>,
        truth: Vec<bool>,
    }

    fn random_pairs(n: u64, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
        let mut rng = gen::Rng::new(seed);
        (0..count)
            .map(|_| (rng.gen_range(n) as u32, rng.gen_range(n) as u32))
            .collect()
    }

    /// A DAG in label space under the identity map, and a cyclic
    /// digraph in original-vertex space (so `comp_of` is not the
    /// identity), both with 1000 random pairs.
    fn spaces() -> [Space; 2] {
        let truth_of = |g: &hoplite_graph::DiGraph, pairs: &[(VertexId, VertexId)]| {
            pairs
                .iter()
                .map(|&(u, v)| traversal::reaches(g, u, v))
                .collect::<Vec<_>>()
        };
        let dag = gen::power_law_dag(300, 900, 21);
        let dl = DistributionLabeling::build(&dag, &DlConfig::default());
        let pairs = random_pairs(300, 1000, 99);
        let dag_space = Space {
            name: "dag",
            labeling: dl.labeling().clone(),
            filters: QueryFilters::build(&dag),
            comp_of: (0..300).collect(),
            truth: truth_of(dag.graph(), &pairs),
            pairs,
        };

        // Forward edges plus a few back edges: many small cycles, and
        // enough components left that every label stage gets work.
        let mut edges: Vec<_> = random_pairs(300, 900, 13)
            .into_iter()
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        edges.extend(
            random_pairs(300, 12, 17)
                .into_iter()
                .map(|(u, v)| (u.max(v), u.min(v))),
        );
        let g = hoplite_graph::DiGraph::from_edges(300, &edges).expect("ids in range");
        let oracle = crate::Oracle::new(&g);
        assert!(oracle.num_components() < 300, "the digraph has cycles");
        let pairs = random_pairs(300, 1000, 5);
        let cyclic_space = Space {
            name: "cyclic",
            labeling: oracle.inner().labeling().clone(),
            filters: oracle.filters().clone(),
            comp_of: oracle.comp_of().to_vec(),
            truth: truth_of(&g, &pairs),
            pairs,
        };
        [dag_space, cyclic_space]
    }

    /// Batch lengths on either side of the staged kernel's group
    /// boundaries.
    const LENGTHS: [usize; 7] = [0, 1, GROUP - 1, GROUP, GROUP + 1, 2 * GROUP + 3, 1000];

    #[test]
    fn mapped_batch_matches_plain_batch_with_and_without_filters() {
        for sp in spaces() {
            let in_label_space: Vec<_> = sp
                .pairs
                .iter()
                .map(|&(u, v)| (sp.comp_of[u as usize], sp.comp_of[v as usize]))
                .collect();
            for len in LENGTHS {
                let want = &sp.truth[..len];
                for threads in [1, 2, 3, 7, 64] {
                    let at = format!("{} len={len} threads={threads}", sp.name);
                    assert_eq!(
                        par_query_batch(&sp.labeling, &in_label_space[..len], threads),
                        want,
                        "plain, {at}"
                    );
                    for filters in [None, Some(&sp.filters)] {
                        assert_eq!(
                            par_query_batch_mapped(
                                &sp.labeling,
                                filters,
                                &sp.comp_of,
                                &sp.pairs[..len],
                                threads
                            ),
                            want,
                            "mapped, filtered={}, {at}",
                            filters.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tallied_batch_matches_answers_and_accounts_every_query() {
        for sp in spaces() {
            for filters in [None, Some(&sp.filters)] {
                for len in LENGTHS {
                    let pairs = &sp.pairs[..len];
                    let mut want = QueryTally::default();
                    for &(u, v) in pairs {
                        answer_tallied(&sp.labeling, filters, &sp.comp_of, u, v, &mut want);
                    }
                    for threads in [1, 2, 3, 7] {
                        let at = format!(
                            "{} filtered={} len={len} threads={threads}",
                            sp.name,
                            filters.is_some()
                        );
                        let (answers, tally) = par_query_batch_mapped_tallied(
                            &sp.labeling,
                            filters,
                            &sp.comp_of,
                            pairs,
                            threads,
                        );
                        assert_eq!(answers, &sp.truth[..len], "{at}");
                        assert_eq!(tally, want, "{at}");
                        assert_eq!(tally.total(), len as u64, "{at}");
                    }
                    if len == sp.pairs.len() {
                        // Every stage of the kernel decides some query.
                        assert!(
                            want.filter_decided > 0 && want.signature_cut > 0 && want.merged > 0,
                            "{} filtered={}: a stage decided nothing: {want:?}",
                            sp.name,
                            filters.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn more_threads_than_queries_clamps() {
        let (labeling, _) = fixture();
        let pairs = [(0u32, 1u32), (1, 0)];
        let r = measure_scaling(&labeling, &pairs, &[64]);
        assert_eq!(r[0].threads, 2, "clamped to batch size");
    }
}
