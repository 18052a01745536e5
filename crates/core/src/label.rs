//! Hop-label storage and the sorted-list intersection query.
//!
//! The paper observes (§1) that earlier hop-labeling implementations
//! lost up to an order of magnitude of query performance by storing
//! `L_out`/`L_in` as hash sets; *sorted arrays with a merge
//! intersection* close the gap. [`Labeling`] therefore keeps all labels
//! in two flat CSR arrays of sorted `u32` hop ids — one cache-friendly
//! slice lookup per side, then a linear merge.
//!
//! Hop ids are opaque: Distribution-Labeling stores *ranks* (its hops
//! arrive in rank order, so lists are born sorted), while
//! Hierarchical-Labeling stores original vertex ids. Queries only need
//! the two sides to share a namespace.
//!
//! ### Rank-band signatures
//!
//! On top of the CSR, [`Labeling`] keeps one 64-bit *rank-band
//! signature* per vertex per side: the hop-id space is cut into 64
//! equal bands, and bit `i` of `sig(v)` is set iff the list contains a
//! hop whose id falls in band `i`. Two lists can only intersect if
//! their signatures share a bit, so [`Labeling::query`] rejects most
//! negative queries with a single `AND` before touching either list —
//! the same memory-layout argument the paper makes for sorted arrays,
//! taken one level further (a 16-byte summary per vertex instead of a
//! ~100-byte list). Pairs that survive the signature test run a
//! size-adaptive kernel: an 8-lane unrolled merge on near-equal list
//! lengths, galloping ([`sorted_intersect_adaptive`]) on skewed ones.

use hoplite_graph::VertexId;

use crate::stats::LabelStats;
use crate::store::{prefetch, MemorySplit, Store, StoreBackend};

/// Lists whose length ratio is at least this gallop instead of merging
/// (`O(s·log(L/s))` beats `O(s + L)` only on real skew).
const GALLOP_RATIO: usize = 16;

/// `true` iff two ascending-sorted slices share an element.
///
/// This is the entire query path of a reachability oracle:
/// `O(|L_out(u)| + |L_in(v)|)`.
///
/// ```
/// use hoplite_core::sorted_intersect;
/// assert!(sorted_intersect(&[1, 4, 9], &[2, 4]));
/// assert!(!sorted_intersect(&[1, 4, 9], &[2, 5]));
/// ```
#[inline]
pub fn sorted_intersect(a: &[u32], b: &[u32]) -> bool {
    // O(1) disjointness pre-check: if the ranges don't overlap (one
    // list ends before the other starts) the merge cannot hit. Hop
    // labels are rank-banded, so this fires often in practice.
    let (Some(&a_last), Some(&b_last)) = (a.last(), b.last()) else {
        return false;
    };
    if a_last < b[0] || b_last < a[0] {
        return false;
    }
    merge_intersect(a, b)
}

/// The branch-light merge core: exactly one cursor moves per step, so
/// an 8-step unrolled body stays in bounds while both cursors are ≥ 8
/// from their ends — the main loop runs without per-step bound checks
/// or early exits, and the hit flag is folded once per chunk.
#[inline]
fn merge_intersect(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i + 8 <= a.len() && j + 8 <= b.len() {
        let mut hit = false;
        // 8 unrolled lanes. On a hit neither cursor advances, so the
        // remaining lanes re-compare the same pair — harmless, and the
        // chunk exits with `hit` set.
        for _ in 0..8 {
            let (x, y) = (a[i], b[j]);
            hit |= x == y;
            i += (x < y) as usize;
            j += (y < x) as usize;
        }
        if hit {
            return true;
        }
    }
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            return true;
        }
        i += (x < y) as usize;
        j += (y < x) as usize;
    }
    false
}

/// Size-adaptive intersection — the query kernel behind
/// [`Labeling::query`]: when one list is at least `GALLOP_RATIO`×
/// longer, gallop (exponential + binary search) through it instead of
/// merging — `O(s·log(L/s))` versus `O(s + L)`; on the near-equal
/// lengths hop labels usually have it falls back to the 8-lane
/// unrolled merge of [`sorted_intersect`] (see the `label_kernel`
/// bench for the ablation).
#[inline]
pub fn sorted_intersect_adaptive(a: &[u32], b: &[u32]) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return false;
    }
    if large.len() / small.len() < GALLOP_RATIO {
        return sorted_intersect(a, b);
    }
    // Range pre-check, same as the merge path: gallop only runs over
    // the overlapping window anyway, but an empty window is free.
    if *large.last().expect("nonempty") < small[0] || *small.last().expect("nonempty") < large[0] {
        return false;
    }
    let mut lo = 0usize;
    for &x in small {
        // Gallop from the last position until large[hi] >= x (or end).
        let mut step = 1usize;
        let mut hi = lo;
        while hi < large.len() && large[hi] < x {
            hi = (hi + step).min(large.len());
            step *= 2;
        }
        // The stop position itself may hold x: include it in the window.
        let end = (hi + 1).min(large.len());
        match large[lo..end].binary_search(&x) {
            Ok(_) => return true,
            Err(pos) => lo += pos,
        }
        if lo >= large.len() {
            return false;
        }
    }
    false
}

/// Mutable per-vertex label lists used during construction.
///
/// Finish with [`LabelingBuilder::finish`] (lists must already be
/// sorted, e.g. hops appended in rank order) or
/// [`LabelingBuilder::finish_sorting`] (sorts and dedups first).
#[derive(Clone, Debug)]
pub struct LabelingBuilder {
    /// `out[v]` = hops reached from `v`.
    pub out: Vec<Vec<u32>>,
    /// `in_[v]` = hops reaching `v`.
    pub in_: Vec<Vec<u32>>,
}

impl LabelingBuilder {
    /// Empty labels for `n` vertices.
    pub fn new(n: usize) -> Self {
        LabelingBuilder {
            out: vec![Vec::new(); n],
            in_: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.out.len()
    }

    /// Freezes into a [`Labeling`], asserting (in debug builds) that
    /// every list is strictly ascending.
    pub fn finish(self) -> Labeling {
        debug_assert!(self
            .out
            .iter()
            .chain(self.in_.iter())
            .all(|l| l.windows(2).all(|w| w[0] < w[1])));
        Labeling::from_lists(&self.out, &self.in_)
    }

    /// Sorts and dedups every list, then freezes.
    pub fn finish_sorting(mut self) -> Labeling {
        for l in self.out.iter_mut().chain(self.in_.iter_mut()) {
            l.sort_unstable();
            l.dedup();
        }
        Labeling::from_lists(&self.out, &self.in_)
    }
}

/// Which stage of the label store answered a query — the query-side
/// analogue of [`crate::FilterVerdict`], feeding the signature/merge
/// hit counters the `STATS` wire reply and `paper perf` report.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LabelPath {
    /// `u == v`; no label was touched.
    Reflexive,
    /// The O(1) signature `AND` proved the lists disjoint (answer:
    /// unreachable).
    SignatureCut,
    /// The adaptive intersection kernel ran over the two lists.
    Merge,
}

/// Immutable hop labels in CSR form: the complete reachability oracle.
///
/// Alongside the two CSR sides it stores one 64-bit rank-band
/// signature per vertex per side (see the module docs); signatures are
/// derived from the lists on construction and persisted alongside
/// them.
/// Every array lives in a [`Store`]: owned `Vec`s when built in
/// process, typed windows into one shared arena when opened from a
/// HOPL v3 file (see [`crate::store`]). The accessors below cannot
/// tell the difference.
#[derive(Clone, Debug)]
pub struct Labeling {
    out_offsets: Store<u32>,
    out_hops: Store<u32>,
    in_offsets: Store<u32>,
    in_hops: Store<u32>,
    /// `out_sigs[v]` summarizes `L_out(v)`: bit `i` ⇔ some hop id in
    /// band `i` (band = `id >> sig_shift`).
    out_sigs: Store<u64>,
    in_sigs: Store<u64>,
    /// Right-shift mapping a hop id to its band `0..64`; chosen so the
    /// largest hop id lands in band ≤ 63.
    sig_shift: u32,
}

/// Shift such that `max_hop >> shift <= 63` (bands cover the id space
/// in 64 equal slices).
fn signature_shift(max_hop: u32) -> u32 {
    let mut shift = 0u32;
    while (max_hop >> shift) > 63 {
        shift += 1;
    }
    shift
}

/// Folds one sorted hop list into its 64-bit band signature.
#[inline]
fn signature_of(list: &[u32], shift: u32) -> u64 {
    let mut sig = 0u64;
    for &h in list {
        debug_assert!((h >> shift) < 64);
        sig |= 1u64 << (h >> shift);
    }
    sig
}

impl Labeling {
    fn from_lists(out: &[Vec<u32>], in_: &[Vec<u32>]) -> Self {
        fn pack(lists: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
            let total: usize = lists.iter().map(Vec::len).sum();
            assert!(
                (total as u64) < u32::MAX as u64,
                "label entries exceed u32 offset space"
            );
            let mut offsets = Vec::with_capacity(lists.len() + 1);
            let mut hops = Vec::with_capacity(total);
            offsets.push(0u32);
            for l in lists {
                hops.extend_from_slice(l);
                offsets.push(hops.len() as u32);
            }
            (offsets, hops)
        }
        let (out_offsets, out_hops) = pack(out);
        let (in_offsets, in_hops) = pack(in_);
        Self::from_csr_unchecked(out_offsets, out_hops, in_offsets, in_hops)
    }

    /// Number of vertices labeled.
    pub fn num_vertices(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// `L_out(v)`: sorted hop ids `v` reaches.
    #[inline]
    pub fn out_label(&self, v: VertexId) -> &[u32] {
        let lo = self.out_offsets[v as usize] as usize;
        let hi = self.out_offsets[v as usize + 1] as usize;
        &self.out_hops[lo..hi]
    }

    /// `L_in(v)`: sorted hop ids reaching `v`.
    #[inline]
    pub fn in_label(&self, v: VertexId) -> &[u32] {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        &self.in_hops[lo..hi]
    }

    /// `L_out(v)`'s rank-band signature.
    #[inline]
    pub fn out_signature(&self, v: VertexId) -> u64 {
        self.out_sigs[v as usize]
    }

    /// `L_in(v)`'s rank-band signature.
    #[inline]
    pub fn in_signature(&self, v: VertexId) -> u64 {
        self.in_sigs[v as usize]
    }

    /// The hop-id → band shift the signatures were built with.
    pub fn signature_shift(&self) -> u32 {
        self.sig_shift
    }

    /// Footprint of the signature arrays in bytes (16 per vertex),
    /// whichever backing they live in.
    pub fn signature_bytes(&self) -> u64 {
        ((self.out_sigs.len() + self.in_sigs.len()) * std::mem::size_of::<u64>()) as u64
    }

    /// True byte footprint of the label store — CSR offsets, hop
    /// arrays, *and* the signature arrays — split by backing.
    pub fn memory(&self) -> MemorySplit {
        let mut m = MemorySplit::default();
        m.add(MemorySplit::of(&self.out_offsets));
        m.add(MemorySplit::of(&self.out_hops));
        m.add(MemorySplit::of(&self.in_offsets));
        m.add(MemorySplit::of(&self.in_hops));
        m.add(MemorySplit::of(&self.out_sigs));
        m.add(MemorySplit::of(&self.in_sigs));
        m
    }

    /// [`StoreBackend::Mapped`] iff the arrays live in a shared arena.
    pub fn backend(&self) -> StoreBackend {
        self.out_hops.backend()
    }

    /// The oracle query: `u` reaches `v` iff the labels intersect.
    /// Reflexive: `query(v, v)` is `true`.
    ///
    /// Runs the O(1) signature rejection first; survivors fall through
    /// to the size-adaptive intersection kernel.
    #[inline]
    pub fn query(&self, u: VertexId, v: VertexId) -> bool {
        u == v || (self.signatures_meet(u, v) && self.lists_meet(u, v))
    }

    /// [`Self::query`] that also reports which stage decided — the
    /// instrumented twin behind the signature/merge counters of
    /// `hoplite-server`'s `STATS` reply and `paper perf`.
    #[inline]
    pub fn query_traced(&self, u: VertexId, v: VertexId) -> (bool, LabelPath) {
        if u == v {
            return (true, LabelPath::Reflexive);
        }
        if !self.signatures_meet(u, v) {
            return (false, LabelPath::SignatureCut);
        }
        (self.lists_meet(u, v), LabelPath::Merge)
    }

    /// The signature stage of [`Self::query`]: `false` proves
    /// `L_out(u)` and `L_in(v)` disjoint.
    #[inline]
    pub(crate) fn signatures_meet(&self, u: VertexId, v: VertexId) -> bool {
        self.out_sigs[u as usize] & self.in_sigs[v as usize] != 0
    }

    /// The merge stage of [`Self::query`]: do `L_out(u)` and `L_in(v)`
    /// intersect?
    #[inline]
    pub(crate) fn lists_meet(&self, u: VertexId, v: VertexId) -> bool {
        sorted_intersect_adaptive(self.out_label(u), self.in_label(v))
    }

    /// Prefetch hint for the lines [`Self::signatures_meet`] and then
    /// [`Self::lists_meet`] load first: the signature words and CSR
    /// offsets of `L_out(u)` and `L_in(v)`. Never dereferences (see
    /// [`crate::store`]'s `prefetch`).
    #[inline]
    pub(crate) fn prefetch_heads(&self, u: VertexId, v: VertexId) {
        prefetch(&self.out_sigs, u as usize);
        prefetch(&self.in_sigs, v as usize);
        prefetch(&self.out_offsets, u as usize);
        prefetch(&self.in_offsets, v as usize);
    }

    /// Prefetch hint for the first line of both hop lists
    /// [`Self::lists_meet`] merges. Reads the two list starts from the
    /// CSR offsets with bounds-checked loads; the hop lines themselves
    /// are only hinted.
    #[inline]
    pub(crate) fn prefetch_lists(&self, u: VertexId, v: VertexId) {
        prefetch(&self.out_hops, self.out_offsets[u as usize] as usize);
        prefetch(&self.in_hops, self.in_offsets[v as usize] as usize);
    }

    /// [`Self::query`] with the signature rejection disabled — always
    /// runs the intersection kernel. Exists for the perf harness and
    /// equivalence tests; the answers are identical.
    #[inline]
    pub fn query_unsigned(&self, u: VertexId, v: VertexId) -> bool {
        u == v || sorted_intersect(self.out_label(u), self.in_label(v))
    }

    /// Total label entries `Σ (|L_out(v)| + |L_in(v)|)` — the
    /// paper's index-size metric (Figures 3–4 count integers).
    pub fn total_entries(&self) -> u64 {
        (self.out_hops.len() + self.in_hops.len()) as u64
    }

    /// Size in stored integers, including the CSR offset arrays.
    pub fn size_in_integers(&self) -> u64 {
        self.total_entries() + (self.out_offsets.len() + self.in_offsets.len()) as u64
    }

    /// Distribution statistics over label lengths.
    pub fn stats(&self) -> LabelStats {
        LabelStats::from_labeling(self)
    }

    /// Raw CSR parts `(out_offsets, out_hops, in_offsets, in_hops)` —
    /// the persistence layer's view.
    pub(crate) fn csr_parts(&self) -> (&[u32], &[u32], &[u32], &[u32]) {
        (
            &self.out_offsets,
            &self.out_hops,
            &self.in_offsets,
            &self.in_hops,
        )
    }

    /// Assembles from raw CSR parts, deriving the signature arrays.
    /// The caller must pass monotone offsets and sorted hop lists.
    pub(crate) fn from_csr_unchecked(
        out_offsets: Vec<u32>,
        out_hops: Vec<u32>,
        in_offsets: Vec<u32>,
        in_hops: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), in_offsets.len());
        debug_assert_eq!(*out_offsets.last().unwrap_or(&0) as usize, out_hops.len());
        debug_assert_eq!(*in_offsets.last().unwrap_or(&0) as usize, in_hops.len());
        let max_hop = out_hops
            .iter()
            .chain(in_hops.iter())
            .copied()
            .max()
            .unwrap_or(0);
        let sig_shift = signature_shift(max_hop);
        let fold = |offsets: &[u32], hops: &[u32]| -> Vec<u64> {
            offsets
                .windows(2)
                .map(|w| signature_of(&hops[w[0] as usize..w[1] as usize], sig_shift))
                .collect()
        };
        let out_sigs = fold(&out_offsets, &out_hops);
        let in_sigs = fold(&in_offsets, &in_hops);
        Labeling {
            out_offsets: out_offsets.into(),
            out_hops: out_hops.into(),
            in_offsets: in_offsets.into(),
            in_hops: in_hops.into(),
            out_sigs: out_sigs.into(),
            in_sigs: in_sigs.into(),
            sig_shift,
        }
    }

    /// Assembles a labeling directly from stores — the HOPL v3 arena
    /// path: nothing is copied and nothing is re-derived. The caller
    /// (the arena reader) must have validated that offsets are
    /// monotone and that the signatures/shift match the hop lists;
    /// with a checksummed arena that is the writer's guarantee.
    pub(crate) fn from_stores_unchecked(
        out_offsets: Store<u32>,
        out_hops: Store<u32>,
        in_offsets: Store<u32>,
        in_hops: Store<u32>,
        out_sigs: Store<u64>,
        in_sigs: Store<u64>,
        sig_shift: u32,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), in_offsets.len());
        debug_assert_eq!(out_offsets.len(), out_sigs.len() + 1);
        Labeling {
            out_offsets,
            out_hops,
            in_offsets,
            in_hops,
            out_sigs,
            in_sigs,
            sig_shift,
        }
    }

    /// The signature arrays and their shift,
    /// `(out_sigs, in_sigs, sig_shift)` — the persistence layer's view
    /// (written verbatim as the v3 `OUT_SIG`/`IN_SIG` sections).
    pub(crate) fn signature_parts(&self) -> (&[u64], &[u64], u32) {
        (&self.out_sigs, &self.in_sigs, self.sig_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_intersect_cases() {
        assert!(sorted_intersect(&[1, 3, 5], &[2, 3]));
        assert!(!sorted_intersect(&[1, 3, 5], &[2, 4, 6]));
        assert!(!sorted_intersect(&[], &[1]));
        assert!(!sorted_intersect(&[1], &[]));
        assert!(sorted_intersect(&[7], &[7]));
        assert!(sorted_intersect(&[1, 2, 3, 4, 5], &[5]));
        assert!(sorted_intersect(&[5], &[1, 2, 3, 4, 5]));
    }

    #[test]
    fn disjoint_ranges_short_circuit() {
        // Entirely below / entirely above: the O(1) pre-check path.
        assert!(!sorted_intersect(&[1, 2, 3], &[4, 5, 6]));
        assert!(!sorted_intersect(&[4, 5, 6], &[1, 2, 3]));
        // Touching boundaries still intersect.
        assert!(sorted_intersect(&[1, 2, 4], &[4, 9]));
        assert!(sorted_intersect(&[4, 9], &[1, 2, 4]));
    }

    #[test]
    fn adaptive_matches_merge_on_many_shapes() {
        use hoplite_graph::gen::Rng;
        let mut rng = Rng::new(31337);
        for _ in 0..500 {
            let la = rng.gen_index(40);
            let lb = if rng.gen_bool(0.5) {
                rng.gen_index(40)
            } else {
                rng.gen_index(2000) // force the galloping path
            };
            let mut a: Vec<u32> = (0..la).map(|_| rng.gen_range(5000) as u32).collect();
            let mut b: Vec<u32> = (0..lb).map(|_| rng.gen_range(5000) as u32).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            assert_eq!(
                sorted_intersect(&a, &b),
                sorted_intersect_adaptive(&a, &b),
                "a={a:?} b={b:?}"
            );
        }
    }

    #[test]
    fn adaptive_gallops_past_long_prefixes() {
        let small = [9_000u32, 9_500];
        let large: Vec<u32> = (0..10_000).collect();
        assert!(sorted_intersect_adaptive(&small, &large));
        let small = [20_000u32];
        assert!(!sorted_intersect_adaptive(&small, &large));
        assert!(!sorted_intersect_adaptive(&[], &large));
    }

    #[test]
    fn unrolled_merge_matches_reference_on_many_shapes() {
        use hoplite_graph::gen::Rng;
        // Long lists exercise the 8-lane main loop; short ones the
        // scalar tail; mixed lengths the crossover between them.
        let mut rng = Rng::new(0xA11CE);
        for _ in 0..800 {
            let la = rng.gen_index(64);
            let lb = rng.gen_index(64);
            let mut a: Vec<u32> = (0..la).map(|_| rng.gen_range(200) as u32).collect();
            let mut b: Vec<u32> = (0..lb).map(|_| rng.gen_range(200) as u32).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let expect = a.iter().any(|x| b.contains(x));
            assert_eq!(sorted_intersect(&a, &b), expect, "a={a:?} b={b:?}");
            assert_eq!(sorted_intersect_adaptive(&a, &b), expect, "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn unrolled_merge_hits_at_chunk_boundaries() {
        // Shared element landing at lane 0, mid-chunk, the chunk seam,
        // and the scalar tail.
        let a: Vec<u32> = (0..32).map(|i| i * 2).collect();
        for shared in [0u32, 14, 16, 62] {
            let mut b = vec![1u32, 3, 5, 7, 9, 11, 13, 63, 65, 67, 69, 71, 73, 75, 77];
            b.push(shared);
            b.sort_unstable();
            b.dedup();
            assert!(sorted_intersect(&a, &b), "shared={shared}");
        }
        // Fully disjoint interleave: merge must walk both to the end.
        let evens: Vec<u32> = (0..40).map(|i| i * 2).collect();
        let odds: Vec<u32> = (0..40).map(|i| i * 2 + 1).collect();
        assert!(!sorted_intersect(&evens, &odds));
    }

    #[test]
    fn signatures_summarize_lists() {
        let mut b = LabelingBuilder::new(3);
        b.out[0] = vec![0, 63];
        b.in_[1] = vec![1];
        b.in_[2] = vec![63];
        let l = b.finish();
        // Max hop 63 → shift 0: band == hop id.
        assert_eq!(l.signature_shift(), 0);
        assert_eq!(l.out_signature(0), 1 | 1 << 63);
        assert_eq!(l.in_signature(1), 1 << 1);
        assert_eq!(l.in_signature(2), 1 << 63);
        assert_eq!(l.out_signature(1), 0, "empty list has empty signature");
        assert_eq!(l.signature_bytes(), 6 * 8);
    }

    #[test]
    fn signature_shift_covers_the_id_space() {
        let mut b = LabelingBuilder::new(2);
        b.out[0] = vec![0, 100, 1000];
        b.in_[1] = vec![1000];
        let l = b.finish();
        // 1000 >> shift must be ≤ 63 → shift 4 (1000 >> 4 = 62).
        assert_eq!(l.signature_shift(), 4);
        assert!(l.out_signature(0) & l.in_signature(1) != 0);
        assert!(l.query(0, 1));
    }

    #[test]
    fn query_traced_reports_the_deciding_stage() {
        let mut b = LabelingBuilder::new(3);
        b.out[0] = vec![0];
        b.in_[1] = vec![63];
        b.out[2] = vec![0, 63];
        let l = b.finish();
        assert_eq!(l.query_traced(0, 0), (true, LabelPath::Reflexive));
        // Disjoint bands: killed by the signature AND.
        assert_eq!(l.query_traced(0, 1), (false, LabelPath::SignatureCut));
        // Shared band: the kernel must run (and find hop 63).
        assert_eq!(l.query_traced(2, 1), (true, LabelPath::Merge));
        for u in 0..3u32 {
            for v in 0..3u32 {
                assert_eq!(l.query_traced(u, v).0, l.query(u, v));
                assert_eq!(l.query(u, v), l.query_unsigned(u, v));
            }
        }
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = LabelingBuilder::new(3);
        b.out[0] = vec![0, 2];
        b.in_[2] = vec![0, 1];
        b.out[1] = vec![1];
        b.in_[1] = vec![1];
        let l = b.finish();
        assert_eq!(l.out_label(0), &[0, 2]);
        assert_eq!(l.in_label(2), &[0, 1]);
        assert_eq!(l.out_label(2), &[] as &[u32]);
        assert!(l.query(0, 2), "hop 0 is shared");
        assert!(!l.query(1, 0));
        assert!(l.query(1, 1), "reflexive");
        assert_eq!(l.total_entries(), 6);
    }

    #[test]
    fn finish_sorting_sorts_and_dedups() {
        let mut b = LabelingBuilder::new(2);
        b.out[0] = vec![5, 1, 5, 3];
        b.in_[1] = vec![3, 3];
        let l = b.finish_sorting();
        assert_eq!(l.out_label(0), &[1, 3, 5]);
        assert_eq!(l.in_label(1), &[3]);
        assert!(l.query(0, 1));
    }

    #[test]
    fn size_metrics() {
        let mut b = LabelingBuilder::new(2);
        b.out[0] = vec![1];
        b.in_[1] = vec![1];
        let l = b.finish();
        assert_eq!(l.total_entries(), 2);
        // 2 entries + two offset arrays of len 3 each.
        assert_eq!(l.size_in_integers(), 2 + 6);
    }

    #[test]
    fn empty_labeling() {
        let l = LabelingBuilder::new(0).finish();
        assert_eq!(l.num_vertices(), 0);
        assert_eq!(l.total_entries(), 0);
    }
}
