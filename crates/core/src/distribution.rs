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
//! 2. **N-thread chunked hop distribution** ([`Parallelism`]). Each
//!    hop's BFSs run *level-synchronously*: a frontier is scanned, the
//!    survivors get rank `r` appended, and their unvisited neighbors
//!    form the next frontier. Within one level every frontier entry is
//!    independent (the prune test reads only that vertex's own list
//!    plus the per-hop snapshot), so large frontiers are split into
//!    vertex-range chunks pulled from a shared atomic cursor by a
//!    `std::thread`-scoped worker pool; the per-hop snapshot exchange
//!    of the old two-thread engine is generalized to a barrier at each
//!    level plus a shared epoch-stamped snapshot both sides read. The
//!    set of vertices a hop labels is order-independent (each vertex is
//!    claimed and tested exactly once, against state fixed at hop
//!    start), so every thread count emits labels *byte-identical* to
//!    the sequential engine — enforced by tests across
//!    {1, 2, 3, 4, 8} threads.
//!
//! [`Pruning::SortedMerge`] keeps the original per-pop merge as a
//! measurable reference — `paper perf` reports the speedup of the
//! bitmap/chunked engine against it.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use hoplite_graph::traversal::VisitedSet;
use hoplite_graph::{Dag, DiGraph, VertexId};

use crate::label::{sorted_intersect, Labeling, LabelingBuilder};
use crate::metrics::BuildTrace;
use crate::oracle::ReachIndex;
use crate::order::OrderKind;
use crate::store::Store;

/// Below this vertex count [`Parallelism::Auto`] stays sequential: the
/// per-hop coordination costs more than tiny BFSs save.
const PARALLEL_MIN_VERTICES: usize = 2_048;

/// Frontier entries per chunk claimed from the shared cursor.
const CHUNK: usize = 256;

/// Frontiers smaller than this are scanned inline by the coordinating
/// thread — waking the pool costs more than the scan itself. Pruned
/// BFS frontiers are tiny for most hops; the pool engages exactly on
/// the early high-rank hops whose frontiers span much of the graph.
const PAR_FRONTIER_MIN: usize = 2 * CHUNK;

/// Cap on [`Parallelism::Auto`]'s pool size: chunk scanning saturates
/// memory bandwidth well before this on every graph we measure.
const MAX_AUTO_THREADS: usize = 8;

/// How many OS threads [`DistributionLabeling::build`] may use.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One thread per available core (capped at [`MAX_AUTO_THREADS`])
    /// when the DAG has at least [`PARALLEL_MIN_VERTICES`] vertices and
    /// the host has ≥ 2 cores; sequential otherwise.
    #[default]
    Auto,
    /// Always build on the calling thread.
    Sequential,
    /// Run the chunked engine with exactly this many threads (clamped
    /// to ≥ 1; `Threads(1)` exercises the chunked code path with no
    /// workers, even on graphs smaller than one chunk).
    Threads(usize),
}

impl Parallelism {
    /// The thread count this policy resolves to for an `n`-vertex DAG
    /// on the current host — the number the build engines actually
    /// use, exposed so reports (`paper perf`) state it without
    /// re-deriving the policy.
    pub fn resolve(self, n: usize) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(t) => t.max(1),
            Parallelism::Auto => {
                if n >= PARALLEL_MIN_VERTICES {
                    std::thread::available_parallelism()
                        .map_or(1, |p| p.get().min(MAX_AUTO_THREADS))
                } else {
                    1
                }
            }
        }
    }
}

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
    /// reference baseline; always sequential ([`Parallelism`] is
    /// ignored).
    SortedMerge,
}

/// Configuration for [`DistributionLabeling::build`].
#[derive(Clone, Debug, Default)]
pub struct DlConfig {
    /// Vertex processing order (default: the paper's degree product).
    pub order: OrderKind,
    /// Thread policy for the hop-distribution loop.
    pub parallelism: Parallelism,
    /// Pruning-test engine (default: rank-bitmap).
    pub pruning: Pruning,
}

/// Epoch-stamped membership set over hop ranks `0..n`.
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

    /// Starts a fresh epoch containing exactly `ranks`.
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

    /// `true` iff any rank in `ranks` is in the current epoch's set.
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
    /// each record a span into `trace`, and the sequential rank-bitmap
    /// engine additionally records a per-hop duration histogram. With
    /// `trace = None` this is exactly [`Self::build`] — the engines
    /// take one dead branch per hop and record nothing.
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
    /// Every engine combination emits **identical** labels; the knobs
    /// trade construction time only.
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
        let threads = cfg.parallelism.resolve(n);
        // `Threads(t)` always takes the chunked engine (so the chunked
        // code path is reachable at every width, including t = 1);
        // `Auto`/`Sequential` resolving to one thread use the leaner
        // sequential loop.
        let engine = || match (cfg.pruning, cfg.parallelism) {
            (Pruning::SortedMerge, _) => build_merge(dag, &order),
            (Pruning::RankBitmap, Parallelism::Threads(_)) => build_chunked(dag, &order, threads),
            (Pruning::RankBitmap, _) if threads == 1 => build_bitmap_sequential(dag, &order, trace),
            (Pruning::RankBitmap, _) => build_chunked(dag, &order, threads),
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
/// anything beyond it needs this hop. The three engines differ only in
/// the closures they pass (merge vs bitmap probe; in- vs
/// out-neighbors); the closures monomorphize, so the shared skeleton
/// costs nothing on the hot path.
fn distribute<'g>(
    side: &mut [Vec<u32>],
    vi: VertexId,
    r: u32,
    neighbors: impl Fn(VertexId) -> &'g [VertexId],
    prune: impl Fn(&[u32]) -> bool,
    visited: &mut VisitedSet,
    queue: &mut VecDeque<VertexId>,
) {
    visited.clear();
    queue.clear();
    visited.insert(vi);
    queue.push_back(vi);
    while let Some(u) = queue.pop_front() {
        if prune(&side[u as usize]) {
            continue;
        }
        side[u as usize].push(r);
        for &w in neighbors(u) {
            if visited.insert(w) {
                queue.push_back(w);
            }
        }
    }
}

/// The paper-literal engine: per-pop sorted-merge pruning, one thread.
fn build_merge(dag: &Dag, order: &[VertexId]) -> LabelingBuilder {
    let g = dag.graph();
    let n = dag.num_vertices();
    let mut b = LabelingBuilder::new(n);
    let mut visited = VisitedSet::new(n);
    let mut queue: VecDeque<VertexId> = VecDeque::new();

    for (rank, &vi) in order.iter().enumerate() {
        let r = rank as u32;
        // Reverse BFS: distribute r into L_out of vi's ancestors.
        distribute(
            &mut b.out,
            vi,
            r,
            |u| g.in_neighbors(u),
            |l_out_u| sorted_intersect(l_out_u, &b.in_[vi as usize]),
            &mut visited,
            &mut queue,
        );
        // Forward BFS: distribute r into L_in of vi's descendants.
        distribute(
            &mut b.in_,
            vi,
            r,
            |w| g.out_neighbors(w),
            |l_in_w| sorted_intersect(l_in_w, &b.out[vi as usize]),
            &mut visited,
            &mut queue,
        );
    }
    b
}

/// Rank-bitmap engine, single thread: one `RankSet` reused across hops
/// and sides. Emits labels identical to [`build_merge`] — within a
/// hop the membership snapshot equals the list the merge would scan
/// (the reverse BFS never mutates `L_in(v_i)`, and the forward test
/// can never observe its own rank `r` in any `L_in(w)`, so snapshot
/// timing is irrelevant). With a trace, each hop's full distribution
/// (both BFS sides) lands in the trace's per-hop histogram.
fn build_bitmap_sequential(
    dag: &Dag,
    order: &[VertexId],
    trace: Option<&BuildTrace>,
) -> LabelingBuilder {
    let g = dag.graph();
    let n = dag.num_vertices();
    let mut b = LabelingBuilder::new(n);
    let mut visited = VisitedSet::new(n);
    let mut queue: VecDeque<VertexId> = VecDeque::new();
    let mut members = RankSet::new(n);

    for (rank, &vi) in order.iter().enumerate() {
        let hop_started = trace.map(|_| std::time::Instant::now());
        let r = rank as u32;
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

// ---------------------------------------------------------------------
// The N-thread chunked engine
// ---------------------------------------------------------------------
//
// Why chunking a pruned BFS is sound *and* byte-identical: within one
// hop, a visited vertex `u` is popped exactly once (the visited set
// claims it), its prune test reads only `u`'s own label list — which no
// other vertex's processing in this hop can touch — and the fixed
// per-hop snapshot. So the set of vertices that survive (and therefore
// receive rank `r`) is a function of the hop-start state alone, not of
// the processing order. Chunks may interleave arbitrarily across
// threads and levels may gather next-frontiers in any order; the
// emitted labels cannot differ.
//
// Snapshot timing matches the retired two-thread engine: both
// snapshots are taken at hop start, *before* the reverse BFS runs. The
// sequential engine loads `L_out(v_i)` after its reverse BFS (which
// may have appended `r` to it), but the forward prune test compares
// the snapshot against `L_in(w)` lists that cannot contain `r` before
// their own append — so the timing difference is unobservable.

/// Which side of a hop a level job belongs to.
#[derive(Copy, Clone)]
enum Side {
    /// BFS over in-neighbors, appending to `L_out`.
    Reverse,
    /// BFS over out-neighbors, appending to `L_in`.
    Forward,
}

/// Epoch-stamped visited set with thread-safe claiming. The epoch is
/// bumped by the coordinator between levels/sides (never concurrently
/// with claims), so `Relaxed` loads of it are safe; claiming swaps the
/// stamp so exactly one thread wins each vertex per epoch.
struct AtomicVisited {
    stamp: Vec<AtomicU32>,
    epoch: AtomicU32,
}

impl AtomicVisited {
    fn new(n: usize) -> Self {
        AtomicVisited {
            stamp: (0..n).map(|_| AtomicU32::new(0)).collect(),
            epoch: AtomicU32::new(0),
        }
    }

    /// Starts a fresh epoch. Coordinator only, with the pool idle.
    fn next_epoch(&self) {
        let e = self.epoch.load(Ordering::Relaxed);
        if e == u32::MAX {
            for s in &self.stamp {
                s.store(0, Ordering::Relaxed);
            }
            self.epoch.store(1, Ordering::Relaxed);
        } else {
            self.epoch.store(e + 1, Ordering::Relaxed);
        }
    }

    /// `true` iff this call (among all concurrent ones) claimed `v` for
    /// the current epoch.
    #[inline]
    fn claim(&self, v: VertexId) -> bool {
        let e = self.epoch.load(Ordering::Relaxed);
        self.stamp[v as usize].swap(e, Ordering::Relaxed) != e
    }
}

/// A label side (`&mut [Vec<u32>]`) shared across chunk workers.
///
/// Safety contract: a level's frontier contains each vertex at most
/// once ([`AtomicVisited::claim`]) and chunks partition the frontier,
/// so no two threads ever hold the same cell; the coordinator touches
/// cells only while the pool is parked (established by the job/done
/// mutex handoffs).
struct SharedLists {
    ptr: *mut Vec<u32>,
    len: usize,
}

unsafe impl Send for SharedLists {}
unsafe impl Sync for SharedLists {}

impl SharedLists {
    fn new(lists: &mut [Vec<u32>]) -> Self {
        SharedLists {
            ptr: lists.as_mut_ptr(),
            len: lists.len(),
        }
    }

    /// # Safety
    /// No other live reference to cell `v` may exist (see the struct
    /// docs for how the engine guarantees that).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn cell(&self, v: VertexId) -> &mut Vec<u32> {
        debug_assert!((v as usize) < self.len);
        &mut *self.ptr.add(v as usize)
    }
}

/// [`RankSet`] behind an `UnsafeCell` so the coordinator can reload it
/// between hops while workers hold shared references during levels.
struct SyncRankSet(UnsafeCell<RankSet>);

unsafe impl Sync for SyncRankSet {}

/// One level's worth of parallel work: scan `frontier`, append rank
/// `r` to survivors on `side`. The frontier buffer lives on the
/// coordinator's stack and is stable for the job's lifetime.
#[derive(Copy, Clone)]
struct LevelJob {
    side: Side,
    r: u32,
    frontier: *const VertexId,
    frontier_len: usize,
}

unsafe impl Send for LevelJob {}

/// Latest published job plus the lifecycle flags workers watch.
struct JobSlot {
    /// Bumped on every publication; workers compare-and-sleep on it.
    seq: u64,
    /// Terminates the pool.
    stop: bool,
    job: Option<LevelJob>,
}

/// Everything the pool shares: job dispatch, the chunk cursor, the
/// gathered next frontier, and completion tracking.
struct Coordinator {
    job: Mutex<JobSlot>,
    job_cv: Condvar,
    done: Mutex<usize>,
    done_cv: Condvar,
    cursor: AtomicUsize,
    next: Mutex<Vec<VertexId>>,
}

impl Coordinator {
    fn new() -> Self {
        Coordinator {
            job: Mutex::new(JobSlot {
                seq: 0,
                stop: false,
                job: None,
            }),
            job_cv: Condvar::new(),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            cursor: AtomicUsize::new(0),
            next: Mutex::new(Vec::new()),
        }
    }
}

/// Scans one slice of a frontier: prune-test each vertex, append `r`
/// to survivors, claim-and-collect their unvisited neighbors.
#[inline]
fn scan_frontier<'g>(
    chunk: &[VertexId],
    r: u32,
    side: &SharedLists,
    members: &RankSet,
    visited: &AtomicVisited,
    neighbors: impl Fn(VertexId) -> &'g [VertexId],
    discovered: &mut Vec<VertexId>,
) {
    for &u in chunk {
        // Safety: `u` appears exactly once in this level's frontier.
        let list = unsafe { side.cell(u) };
        if members.intersects(list) {
            continue;
        }
        list.push(r);
        for &w in neighbors(u) {
            if visited.claim(w) {
                discovered.push(w);
            }
        }
    }
}

/// Claims chunks from the shared cursor until the frontier is
/// exhausted, collecting discovered vertices into `local`.
#[allow(clippy::too_many_arguments)]
fn drain_chunks(
    job: &LevelJob,
    g: &DiGraph,
    out: &SharedLists,
    in_: &SharedLists,
    members_rev: &SyncRankSet,
    members_fwd: &SyncRankSet,
    visited: &AtomicVisited,
    cursor: &AtomicUsize,
    local: &mut Vec<VertexId>,
) {
    // Safety: the coordinator keeps the frontier buffer alive and
    // untouched until every participant reported done.
    let frontier = unsafe { std::slice::from_raw_parts(job.frontier, job.frontier_len) };
    loop {
        let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
        if start >= frontier.len() {
            return;
        }
        let chunk = &frontier[start..(start + CHUNK).min(frontier.len())];
        // Safety (members): reloaded only while the pool is parked.
        match job.side {
            Side::Reverse => scan_frontier(
                chunk,
                job.r,
                out,
                unsafe { &*members_rev.0.get() },
                visited,
                |u| g.in_neighbors(u),
                local,
            ),
            Side::Forward => scan_frontier(
                chunk,
                job.r,
                in_,
                unsafe { &*members_fwd.0.get() },
                visited,
                |w| g.out_neighbors(w),
                local,
            ),
        }
    }
}

/// A pool worker: sleep until a new job (or stop) is published, drain
/// chunks, hand discovered vertices to the shared next frontier,
/// report done.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    co: &Coordinator,
    g: &DiGraph,
    out: &SharedLists,
    in_: &SharedLists,
    members_rev: &SyncRankSet,
    members_fwd: &SyncRankSet,
    visited: &AtomicVisited,
) {
    let mut last_seen = 0u64;
    let mut local: Vec<VertexId> = Vec::new();
    loop {
        let job = {
            let mut slot = co.job.lock().expect("job lock");
            loop {
                if slot.stop {
                    return;
                }
                if slot.seq != last_seen {
                    break;
                }
                slot = co.job_cv.wait(slot).expect("job wait");
            }
            last_seen = slot.seq;
            slot.job.expect("seq bumped with a job published")
        };
        drain_chunks(
            &job,
            g,
            out,
            in_,
            members_rev,
            members_fwd,
            visited,
            &co.cursor,
            &mut local,
        );
        if !local.is_empty() {
            co.next.lock().expect("next lock").append(&mut local);
        }
        {
            let mut done = co.done.lock().expect("done lock");
            *done += 1;
        }
        // Only the coordinator waits on this; notify_one suffices.
        co.done_cv.notify_one();
    }
}

/// Rank-bitmap engine, N-thread chunked: level-synchronous BFS where
/// large frontiers are split into [`CHUNK`]-sized ranges pulled from a
/// shared atomic cursor by `threads − 1` long-lived scoped workers
/// (plus the coordinator itself). Small frontiers — the common case on
/// pruned hops — are scanned inline without waking the pool. Emits
/// labels byte-identical to [`build_bitmap_sequential`] at every
/// thread count (see the module docs for the argument; enforced by
/// tests).
fn build_chunked(dag: &Dag, order: &[VertexId], threads: usize) -> LabelingBuilder {
    let g = dag.graph();
    let n = dag.num_vertices();
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut in_: Vec<Vec<u32>> = vec![Vec::new(); n];
    let workers = threads.saturating_sub(1);
    {
        let out_shared = SharedLists::new(&mut out);
        let in_shared = SharedLists::new(&mut in_);
        let members_rev = SyncRankSet(UnsafeCell::new(RankSet::new(n)));
        let members_fwd = SyncRankSet(UnsafeCell::new(RankSet::new(n)));
        let visited = AtomicVisited::new(n);
        let co = Coordinator::new();

        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    worker_loop(
                        &co,
                        g,
                        &out_shared,
                        &in_shared,
                        &members_rev,
                        &members_fwd,
                        &visited,
                    )
                });
            }
            run_hops(
                order,
                g,
                &out_shared,
                &in_shared,
                &members_rev,
                &members_fwd,
                &visited,
                &co,
                workers,
            );
            let mut slot = co.job.lock().expect("job lock");
            slot.stop = true;
            drop(slot);
            co.job_cv.notify_all();
        });
    }
    LabelingBuilder { out, in_ }
}

/// The coordinator body of [`build_chunked`]: the per-hop loop.
#[allow(clippy::too_many_arguments)]
fn run_hops(
    order: &[VertexId],
    g: &DiGraph,
    out_shared: &SharedLists,
    in_shared: &SharedLists,
    members_rev: &SyncRankSet,
    members_fwd: &SyncRankSet,
    visited: &AtomicVisited,
    co: &Coordinator,
    workers: usize,
) {
    let mut frontier: Vec<VertexId> = Vec::new();
    let mut next: Vec<VertexId> = Vec::new();
    for (rank, &vi) in order.iter().enumerate() {
        let r = rank as u32;
        // Hop-start snapshots for both sides (the shared epoch
        // snapshot; see the timing note above). Safety: pool parked.
        unsafe {
            (*members_rev.0.get()).load(in_shared.cell(vi));
            (*members_fwd.0.get()).load(out_shared.cell(vi));
        }
        for side in [Side::Reverse, Side::Forward] {
            visited.next_epoch();
            let claimed = visited.claim(vi);
            debug_assert!(claimed, "fresh epoch cannot have claimed vi");
            frontier.clear();
            frontier.push(vi);
            while !frontier.is_empty() {
                next.clear();
                let job = LevelJob {
                    side,
                    r,
                    frontier: frontier.as_ptr(),
                    frontier_len: frontier.len(),
                };
                if workers == 0 || frontier.len() < PAR_FRONTIER_MIN {
                    // Inline scan; never wakes the pool.
                    co.cursor.store(0, Ordering::Relaxed);
                    drain_chunks(
                        &job,
                        g,
                        out_shared,
                        in_shared,
                        members_rev,
                        members_fwd,
                        visited,
                        &co.cursor,
                        &mut next,
                    );
                } else {
                    run_level_parallel(
                        &job,
                        g,
                        out_shared,
                        in_shared,
                        members_rev,
                        members_fwd,
                        visited,
                        co,
                        workers,
                        &mut next,
                    );
                }
                std::mem::swap(&mut frontier, &mut next);
            }
        }
    }
}

/// Fans one big level out over the pool: publish the job, participate
/// in the chunk scan, wait for every worker (the level barrier),
/// gather the next frontier.
#[allow(clippy::too_many_arguments)]
fn run_level_parallel(
    job: &LevelJob,
    g: &DiGraph,
    out_shared: &SharedLists,
    in_shared: &SharedLists,
    members_rev: &SyncRankSet,
    members_fwd: &SyncRankSet,
    visited: &AtomicVisited,
    co: &Coordinator,
    workers: usize,
    next: &mut Vec<VertexId>,
) {
    co.cursor.store(0, Ordering::Relaxed);
    *co.done.lock().expect("done lock") = 0;
    {
        let mut slot = co.job.lock().expect("job lock");
        slot.seq += 1;
        slot.job = Some(*job);
    }
    co.job_cv.notify_all();
    drain_chunks(
        job,
        g,
        out_shared,
        in_shared,
        members_rev,
        members_fwd,
        visited,
        &co.cursor,
        next,
    );
    let mut done = co.done.lock().expect("done lock");
    while *done < workers {
        done = co.done_cv.wait(done).expect("done wait");
    }
    drop(done);
    next.append(&mut co.next.lock().expect("next lock"));
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

    /// Every engine combination — seed merge, rank-bitmap sequential,
    /// rank-bitmap chunked at several widths — must emit byte-identical
    /// labels; the knobs trade construction time only.
    #[test]
    fn all_engines_emit_identical_labels() {
        let engines = [
            (Pruning::SortedMerge, Parallelism::Sequential),
            (Pruning::RankBitmap, Parallelism::Sequential),
            (Pruning::RankBitmap, Parallelism::Threads(2)),
            (Pruning::RankBitmap, Parallelism::Threads(4)),
        ];
        for seed in 0..4 {
            for dag in [
                gen::random_dag(80, 240, seed),
                gen::tree_plus_dag(80, 20, seed),
                gen::power_law_dag(80, 240, seed),
            ] {
                let built: Vec<DistributionLabeling> = engines
                    .iter()
                    .map(|&(pruning, parallelism)| {
                        DistributionLabeling::build(
                            &dag,
                            &DlConfig {
                                order: OrderKind::DegProduct,
                                parallelism,
                                pruning,
                            },
                        )
                    })
                    .collect();
                let reference = &built[0];
                assert_matches_bfs(&dag, reference);
                for (i, dl) in built.iter().enumerate().skip(1) {
                    assert_eq!(dl.order(), reference.order());
                    for v in 0..dag.num_vertices() as VertexId {
                        assert_eq!(
                            dl.labeling().out_label(v),
                            reference.labeling().out_label(v),
                            "engine {i}, L_out({v}), seed {seed}"
                        );
                        assert_eq!(
                            dl.labeling().in_label(v),
                            reference.labeling().in_label(v),
                            "engine {i}, L_in({v}), seed {seed}"
                        );
                    }
                }
            }
        }
    }

    /// The chunked engine must also hold on degenerate shapes where
    /// one side's BFS is empty or the whole graph is edge-free — all
    /// far smaller than one chunk.
    #[test]
    fn chunked_engine_handles_degenerate_graphs() {
        for threads in [1usize, 2, 8] {
            let force = DlConfig {
                parallelism: Parallelism::Threads(threads),
                ..DlConfig::default()
            };
            for dag in [
                Dag::from_edges(0, &[]).unwrap(),
                Dag::from_edges(1, &[]).unwrap(),
                Dag::from_edges(5, &[]).unwrap(),
                Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap(),
            ] {
                let par = DistributionLabeling::build(&dag, &force);
                let seq = DistributionLabeling::build(
                    &dag,
                    &DlConfig {
                        parallelism: Parallelism::Sequential,
                        ..DlConfig::default()
                    },
                );
                assert_eq!(
                    par.labeling().total_entries(),
                    seq.labeling().total_entries(),
                    "threads={threads}"
                );
                assert_matches_bfs(&dag, &par);
            }
        }
    }

    /// The satellite matrix: the chunked engine emits byte-identical
    /// labels at widths {1, 2, 3, 4, 8}, on graphs both larger and
    /// smaller than the chunk size (CHUNK = 256 frontier entries) and
    /// across graph families.
    #[test]
    fn chunked_engine_byte_identical_across_thread_matrix() {
        for (dag, what) in [
            (gen::random_dag(600, 2_400, 5), "random 600"),
            (gen::random_dag(40, 120, 6), "random 40 (sub-chunk)"),
            (gen::power_law_dag(300, 900, 7), "power-law 300"),
            (gen::tree_plus_dag(500, 60, 8), "tree 500"),
        ] {
            let reference = DistributionLabeling::build(
                &dag,
                &DlConfig {
                    parallelism: Parallelism::Sequential,
                    ..DlConfig::default()
                },
            );
            for threads in [1usize, 2, 3, 4, 8] {
                let chunked = DistributionLabeling::build(
                    &dag,
                    &DlConfig {
                        parallelism: Parallelism::Threads(threads),
                        ..DlConfig::default()
                    },
                );
                assert_eq!(chunked.order(), reference.order(), "{what}, t={threads}");
                for v in 0..dag.num_vertices() as VertexId {
                    assert_eq!(
                        chunked.labeling().out_label(v),
                        reference.labeling().out_label(v),
                        "{what}, t={threads}, L_out({v})"
                    );
                    assert_eq!(
                        chunked.labeling().in_label(v),
                        reference.labeling().in_label(v),
                        "{what}, t={threads}, L_in({v})"
                    );
                }
            }
        }
    }

    /// Tracing must be an observer: a traced build emits exactly the
    /// labels of the untraced one and records the expected spans and
    /// per-hop samples.
    #[test]
    fn traced_build_is_label_identical_and_records_spans() {
        use crate::metrics::BuildTrace;
        let dag = gen::random_dag(120, 360, 9);
        let plain = DistributionLabeling::build(&dag, &DlConfig::default());
        let trace = BuildTrace::new();
        let cfg = DlConfig {
            parallelism: Parallelism::Sequential,
            ..DlConfig::default()
        };
        let traced = DistributionLabeling::build_traced(&dag, &cfg, Some(&trace));
        assert_eq!(traced.order(), plain.order());
        for v in 0..dag.num_vertices() as VertexId {
            assert_eq!(
                traced.labeling().out_label(v),
                plain.labeling().out_label(v)
            );
            assert_eq!(traced.labeling().in_label(v), plain.labeling().in_label(v));
        }
        let names: Vec<String> = trace.spans().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, ["order", "distribute", "freeze"]);
        // The sequential engine records one hop sample per vertex.
        assert_eq!(trace.hop_snapshot().count(), dag.num_vertices() as u64);
        // The chunked engine records spans but no per-hop histogram.
        let trace_par = BuildTrace::new();
        let cfg_par = DlConfig {
            parallelism: Parallelism::Threads(2),
            ..DlConfig::default()
        };
        let chunked = DistributionLabeling::build_traced(&dag, &cfg_par, Some(&trace_par));
        assert_eq!(
            chunked.labeling().total_entries(),
            plain.labeling().total_entries()
        );
        assert_eq!(trace_par.spans().len(), 3);
        assert_eq!(trace_par.hop_snapshot().count(), 0);
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
