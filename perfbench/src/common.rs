//! Pieces the workloads share: query streams with ground truth, the
//! persist round trip, the timed in-process loops, and the writer
//! stream of the dynamic workload.

use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use hoplite_bench::workload::{equal_workload, random_workload, Workload};
use hoplite_core::wal::EdgeOp;
use hoplite_core::{DlConfig, Oracle};
use hoplite_graph::gen::Rng;
use hoplite_graph::Dag;

use crate::stats::{iqm, median, quantile, Latencies};
use crate::trace::{Recorder, Tracer};
use crate::Outcome;

/// The paper's two query loads over one graph, each with BFS ground
/// truth from the generator.
pub struct Streams {
    pub random: Workload,
    pub equal: Workload,
}

impl Streams {
    pub fn generate(dag: &Dag, count: usize, seed: u64) -> Streams {
        Streams {
            random: random_workload(dag, count, seed ^ 0x5EED_0001),
            equal: equal_workload(dag, count, seed ^ 0x5EED_0002),
        }
    }

    pub fn named(&self) -> [(&'static str, &Workload); 2] {
        [("random", &self.random), ("equal", &self.equal)]
    }

    /// Both streams interleaved pair by pair: the single-pair read mix.
    pub fn interleaved(&self) -> (Vec<(u32, u32)>, Vec<bool>) {
        let mut pairs = Vec::with_capacity(self.random.len() + self.equal.len());
        let mut expected = Vec::with_capacity(pairs.capacity());
        for i in 0..self.random.len().max(self.equal.len()) {
            for w in [&self.random, &self.equal] {
                if let (Some(&p), Some(&e)) = (w.pairs.get(i), w.expected.get(i)) {
                    pairs.push(p);
                    expected.push(e);
                }
            }
        }
        (pairs, expected)
    }
}

/// Median of the values `setup` returns over `rounds` calls — set-up
/// time is measured several times per run and reported as a median.
pub fn median_of(rounds: usize, mut setup: impl FnMut(usize) -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..rounds).map(&mut setup).collect();
    median(&mut samples)
}

/// Builds a frozen [`Oracle`] over `dag`, saves it as a HOPL v3 arena
/// at `path` and reopens it with [`Oracle::open`] (checksums verified),
/// each step a span under `parent`. Returns the reopened oracle, its
/// label entry count and the arena size in bytes.
pub fn build_save_open(
    dag: &Dag,
    path: &Path,
    rec: &mut Recorder,
    parent: u64,
) -> (Oracle, u64, u64) {
    let built = rec.span("distribution.build", parent, || {
        Oracle::with_config(dag.graph(), &DlConfig::default())
    });
    rec.span("persist.save", parent, || {
        let file = std::fs::File::create(path).expect("create arena file in the scratch dir");
        let mut w = std::io::BufWriter::new(file);
        built.save_arena(&mut w).expect("save_arena");
        w.flush().expect("flush arena");
    });
    let opened = rec.span("persist.open", parent, || {
        Oracle::open(path).expect("Oracle::open on a freshly saved arena")
    });
    let bytes = std::fs::metadata(path).expect("arena metadata").len();
    (opened, built.label_entries(), bytes)
}

/// Puts the build and persist layers' metrics: sizes, and the median
/// of the build, save and open spans (traced runs only).
pub fn put_setup_layers(tracer: &Tracer, label_entries: u64, arena_bytes: u64, out: &mut Outcome) {
    out.put("distribution.label_entries", "count", label_entries as f64);
    out.put("store.arena_bytes", "bytes", arena_bytes as f64);
    for (span, metric) in [
        ("distribution.build", "distribution.build_s"),
        ("persist.save", "persist.save_s"),
        ("persist.open", "persist.open_s"),
    ] {
        let mut secs: Vec<f64> = tracer
            .durations(span)
            .iter()
            .map(|&ns| ns as f64 / 1e9)
            .collect();
        if !secs.is_empty() {
            out.put(metric, "s", median(&mut secs));
        }
    }
}

/// Length of one measurement round. A run alternates, round by round,
/// a slice of in-process batches and a slice of closed-loop reads, so
/// that every metric samples the whole run: this host's speed drifts on
/// a scale of seconds.
pub const ROUND: Duration = Duration::from_secs(2);

/// Rounds in a run of `seconds` (at least two, so a traced run has one
/// round with spans and one without).
pub fn rounds(seconds: f64) -> usize {
    ((seconds / ROUND.as_secs_f64()).round() as usize).max(2)
}

/// Per-batch throughput of each stream (answers/s), over all slices;
/// reported as the upper quartile.
#[derive(Default)]
pub struct BatchRates {
    random: Vec<f64>,
    equal: Vec<f64>,
}

/// Quantile of the per-batch rates that `query_qps.*` reports. A batch
/// splits its pairs evenly over `nproc` threads and ends with the last
/// of them, so a few milliseconds in which the host takes one vCPU
/// away slow the whole batch. Such batches fall in the low tail, and
/// how many there are depends on the host's load during the run, not
/// on the program. The upper quartile is the rate of undisturbed
/// batches as long as at least one batch in four ran undisturbed, and
/// between runs it spread less than the 90th percentile did.
pub const BATCH_RATE_QUANTILE: f64 = 0.75;

impl BatchRates {
    /// Puts the [`BATCH_RATE_QUANTILE`] per-batch rate of each stream
    /// into `out`, and the rates' quartiles to stderr.
    pub fn put(mut self, out: &mut Outcome) {
        for (name, rates) in [("random", &mut self.random), ("equal", &mut self.equal)] {
            rates.sort_by(f64::total_cmp);
            let q = |x: f64| quantile(rates, x) / 1e6;
            eprintln!(
                "# {name} batches: {} at p10/q1/med/q3/p90 {:.3}/{:.3}/{:.3}/{:.3}/{:.3} M answers/s",
                rates.len(),
                q(0.1),
                q(0.25),
                q(0.5),
                q(0.75),
                q(0.9)
            );
            out.put(
                &format!("query_qps.{name}"),
                "1/s",
                quantile(rates, BATCH_RATE_QUANTILE),
            );
        }
        out.put(
            "query_batches",
            "count",
            (self.random.len() + self.equal.len()) as f64,
        );
    }
}

/// Answers both streams through `answer` in batches of `batch_pairs`
/// pairs, alternating random and equal stream by stream, until `budget`
/// has passed (at least one pass over each). Each workload sizes its
/// batches at about 2 ms on 2 cores: short enough that most batches fall
/// between the host's interruptions of either vCPU (see
/// [`BATCH_RATE_QUANTILE`]), long enough to amortise the spawn of the
/// batch's `nproc` threads. Every answer must equal the BFS truth.
pub fn batch_slice(
    streams: &Streams,
    budget: Duration,
    batch_pairs: usize,
    rates: &mut BatchRates,
    out: &mut Outcome,
    rec: &mut Recorder,
    mut answer: impl FnMut(&[(u32, u32)]) -> Vec<bool>,
) {
    let started = Instant::now();
    loop {
        for (name, w) in streams.named() {
            let (span_name, rates) = if name == "random" {
                ("query.batch.random", &mut rates.random)
            } else {
                ("query.batch.equal", &mut rates.equal)
            };
            let mut wrong = 0;
            let mut answered = 0;
            for (pairs, expected) in w
                .pairs
                .chunks(batch_pairs)
                .zip(w.expected.chunks(batch_pairs))
            {
                let span = rec.begin(span_name, 0, 0);
                let t = Instant::now();
                let got = answer(pairs);
                let secs = t.elapsed().as_secs_f64();
                rec.end(span);
                rates.push(pairs.len() as f64 / secs.max(1e-9));
                answered += got.len();
                wrong += got.iter().zip(expected).filter(|(a, e)| a != e).count();
            }
            out.ops(w.len() as u64, 0);
            out.check(answered == w.len() && wrong == 0, || {
                format!(
                    "{name} batches: {wrong} of {} answers differ from BFS",
                    w.len()
                )
            });
        }
        if started.elapsed() >= budget {
            return;
        }
    }
}

/// Length of one measurement window of a read slice. Read metrics are
/// interquartile means over windows, so a burst of interference from
/// outside the benchmark moves one window, not the result.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Windows in a slice of `budget` (at least one).
pub fn windows_in(budget: Duration) -> usize {
    ((budget.as_secs_f64() / WINDOW.as_secs_f64()).round() as usize).max(1)
}

/// One window of closed-loop calls.
pub struct WindowStat {
    pub answered: usize,
    /// The window's length: [`WINDOW`], stretched by the share its
    /// slice overran (calls check the clock between bursts).
    pub secs: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Summarises the windows of a slice that took `elapsed`.
pub fn window_stats(windows: Vec<Latencies>, elapsed: Duration) -> Vec<WindowStat> {
    let secs = elapsed.as_secs_f64() / windows.len() as f64;
    windows
        .into_iter()
        .map(|mut lat| WindowStat {
            answered: lat.answered(),
            secs,
            p50_us: lat.quantile_us(0.50),
            p99_us: lat.quantile_us(0.99),
        })
        .collect()
}

/// What closed-loop calls did, window by window. Each metric is the
/// interquartile mean over windows.
#[derive(Default)]
pub struct ReadRun {
    pub windows: Vec<WindowStat>,
    pub done: u64,
    pub failed: u64,
}

impl ReadRun {
    fn over_windows(&self, f: impl Fn(&WindowStat) -> f64) -> f64 {
        iqm(&mut self.windows.iter().map(f).collect::<Vec<f64>>())
    }

    /// Answered calls per second.
    pub fn qps(&self) -> f64 {
        self.over_windows(|w| w.answered as f64 / w.secs)
    }

    pub fn p50_us(&self) -> f64 {
        self.over_windows(|w| w.p50_us)
    }

    pub fn p99_us(&self) -> f64 {
        self.over_windows(|w| w.p99_us)
    }

    pub fn merge(&mut self, other: ReadRun) {
        self.windows.extend(other.windows);
        self.done += other.done;
        self.failed += other.failed;
    }
}

/// Latency samples of one slice, by window; summarised when the slice
/// ends so that only one slice's samples are ever held.
pub fn new_windows(budget: Duration) -> Vec<Latencies> {
    (0..windows_in(budget))
        .map(|_| Latencies::default())
        .collect()
}

/// One closed-loop caller: its state (a connection, or nothing) and
/// the next pair it reads, kept across slices.
pub struct Caller<S> {
    pub state: S,
    next: usize,
}

/// `states.len()` callers spread evenly over `pairs` pairs.
pub fn callers<S>(states: Vec<S>, pairs: usize) -> Vec<Caller<S>> {
    let n = states.len();
    states
        .into_iter()
        .enumerate()
        .map(|(t, state)| Caller {
            state,
            next: t * pairs / n,
        })
        .collect()
}

/// Closed-loop single-pair reads, one thread per caller, each sending
/// its next read only when the last one answered, until `budget`
/// passes. Each thread records spans when `traced`. `read` answers one
/// pair or says why it failed. Answers are checked against `expected`
/// where it holds `Some`.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop_reads<S, R>(
    pairs: &[(u32, u32)],
    expected: &[Option<bool>],
    callers: &mut [Caller<S>],
    budget: Duration,
    tracer: &Tracer,
    traced: bool,
    out: &mut Outcome,
    read: R,
) -> ReadRun
where
    S: Send,
    R: Fn(&mut S, &mut Recorder, u32, u32) -> Result<bool, String> + Sync,
{
    let nwin = windows_in(budget);
    let started = Instant::now();
    let results: Vec<(Vec<Latencies>, u64, u64, Vec<String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = callers
            .iter_mut()
            .map(|caller| {
                let read = &read;
                s.spawn(move || {
                    let mut rec = tracer.recorder_traced(traced);
                    let mut windows = new_windows(budget);
                    let (mut done, mut failed) = (0u64, 0u64);
                    let mut wrong = Vec::new();
                    loop {
                        let w = (started.elapsed().as_nanos() / WINDOW.as_nanos()) as usize;
                        if w >= nwin {
                            break;
                        }
                        // Check the clock once per 16 reads; time each read.
                        for _ in 0..16 {
                            let i = caller.next;
                            caller.next = (i + 1) % pairs.len();
                            let (u, v) = pairs[i];
                            let t0 = Instant::now();
                            let got = read(&mut caller.state, &mut rec, u, v);
                            let ns = t0.elapsed().as_nanos() as u64;
                            done += 1;
                            match got {
                                Ok(answer) => {
                                    windows[w].record(ns);
                                    if expected[i].is_some_and(|e| e != answer) {
                                        wrong.push(format!(
                                            "read of {:?} answered {answer}, expected {:?}",
                                            pairs[i], expected[i]
                                        ));
                                    }
                                }
                                Err(e) => {
                                    windows[w].record(u64::MAX);
                                    failed += 1;
                                    if failed <= 3 {
                                        eprintln!("# read of {:?} failed: {e}", pairs[i]);
                                    }
                                }
                            }
                        }
                    }
                    (windows, done, failed, wrong)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reader thread panicked"))
            .collect()
    });
    let mut merged = new_windows(budget);
    let mut total = ReadRun::default();
    for (windows, done, failed, wrong) in results {
        for (all, w) in merged.iter_mut().zip(windows) {
            all.extend(w);
        }
        total.done += done;
        total.failed += failed;
        out.ops(done, failed);
        for w in wrong {
            out.check(false, || w);
        }
    }
    total.windows = window_stats(merged, started.elapsed());
    total
}

/// Read slices split by tracing: the untraced ones give the read
/// metrics; traced against untraced gives the tracing overhead.
#[derive(Default)]
pub struct Reads {
    off: ReadRun,
    on: ReadRun,
}

impl Reads {
    pub fn add(&mut self, run: ReadRun, traced: bool) {
        if traced {
            self.on.merge(run)
        } else {
            self.off.merge(run)
        }
    }

    /// Puts the read metrics (and, for a traced run, the overhead).
    pub fn put(self, out: &mut Outcome) {
        out.put("read_qps", "1/s", self.off.qps());
        out.put("read_p50_us", "us", self.off.p50_us());
        out.put("read_p99_us", "us", self.off.p99_us());
        out.put("read_samples", "count", self.off.done as f64);
        out.put("read_windows", "count", self.off.windows.len() as f64);
        if !self.on.windows.is_empty() {
            out.put(
                "trace.overhead_ratio",
                "ratio",
                self.off.qps() / self.on.qps(),
            );
        }
    }
}

/// The dynamic workload's mutation stream, as in `paper perf`'s dynamic
/// stage: mostly inserts oriented by one fixed topological order of the
/// seed (always acyclic), one in eight inserts left in random
/// orientation (may close a cycle and be rejected), and one op in eight
/// a remove of one of the stream's own earlier inserts. Once
/// [`LIVE_INSERTS`] of its inserts are live, every other op is such a
/// remove, so the graph stops growing and a longer run measures the
/// same workload rather than a denser graph. The stream tracks the
/// acknowledged edge set, so the final graph is known.
pub const LIVE_INSERTS: usize = 2_048;

pub struct WriterStream {
    rng: Rng,
    n: u64,
    topo_pos: Vec<u32>,
    inserted: Vec<(u32, u32)>,
    /// The acknowledged edge set: seed edges plus acknowledged inserts
    /// minus acknowledged removes.
    pub edges: BTreeSet<(u32, u32)>,
}

impl WriterStream {
    pub fn new(dag: &Dag, seed: u64) -> Self {
        let n = dag.num_vertices();
        WriterStream {
            rng: Rng::new(seed ^ 0xBEEF_CAFE),
            n: n as u64,
            topo_pos: (0..n as u32).map(|v| dag.topo_pos(v)).collect(),
            inserted: Vec::new(),
            edges: dag.graph().edges().collect(),
        }
    }

    /// The next operation to send.
    pub fn next_op(&mut self) -> EdgeOp {
        loop {
            let r = self.rng.next_u64();
            let full = self.inserted.len() >= LIVE_INSERTS;
            if (r % 8 == 7 || (full && r.is_multiple_of(2))) && !self.inserted.is_empty() {
                let i = self.rng.gen_index(self.inserted.len());
                let (u, v) = self.inserted.swap_remove(i);
                return EdgeOp::Remove(u, v);
            }
            let a = (r % self.n) as u32;
            let b = ((r >> 32) % self.n) as u32;
            if a == b {
                continue;
            }
            let oriented = self.topo_pos[a as usize] < self.topo_pos[b as usize];
            return if r % 16 < 14 && !oriented {
                EdgeOp::Insert(b, a)
            } else {
                EdgeOp::Insert(a, b)
            };
        }
    }

    /// Records that `op` was acknowledged.
    pub fn acked(&mut self, op: EdgeOp) {
        match op {
            EdgeOp::Insert(u, v) => {
                if self.edges.insert((u, v)) {
                    self.inserted.push((u, v));
                }
            }
            EdgeOp::Remove(u, v) => {
                self.edges.remove(&(u, v));
            }
        }
    }

    /// Records that `op` was not applied. A remove goes back on the
    /// list of removable inserts, since its edge is still present.
    pub fn refused(&mut self, op: EdgeOp) {
        if let EdgeOp::Remove(u, v) = op {
            if self.edges.contains(&(u, v)) {
                self.inserted.push((u, v));
            }
        }
    }
}

/// Is `msg` the server's or registry's refusal of an insert that would
/// close a cycle? Such a refusal is the correct answer, not a failure.
pub fn is_cycle_rejection(msg: &str) -> bool {
    msg.contains("cycle")
}
