//! `local`: a frozen [`Oracle`] over a `random_dag`, persisted,
//! reopened, and answered in process — no socket anywhere.

use std::sync::Arc;
use std::time::Instant;

use hoplite_graph::gen;

use crate::common::{
    batch_slice, build_save_open, callers, closed_loop_reads, median_of, put_setup_layers, rounds,
    BatchRates, Reads, Streams, ROUND,
};
use crate::trace::Tracer;
use crate::{layers, Cfg, Outcome};

/// Graph size: the v3 arena comes to several times a 4 MiB L2, and
/// one build takes seconds on a 2-core host.
pub const N: usize = 200_000;
pub const M: usize = 800_000;
/// Pairs per query stream (each with BFS ground truth).
pub const QUERIES: usize = 100_000;
/// Pairs per in-process batch: about 1.3 ms (random) and 2.6 ms (equal)
/// on 2 cores.
pub const BATCH_PAIRS: usize = 25_000;
/// Set-up rounds per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 3;

pub fn run(cfg: &Cfg, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = tracer.recorder();
    let t = Instant::now();
    let dag = gen::random_dag(N, M, cfg.seed);
    let streams = Streams::generate(&dag, QUERIES, cfg.seed);
    eprintln!(
        "# local: random_dag(n={N}, m={M}) and 2 x {QUERIES} pairs with BFS truth in {:.2} s",
        t.elapsed().as_secs_f64()
    );

    let arena = cfg.tmp.join("local.hopl");
    let mut ready = None;
    let setup_s = median_of(SETUP_ROUNDS, |_| {
        ready = None;
        let t = Instant::now();
        let root = rec.begin("setup", 0, 0);
        ready = Some(build_save_open(&dag, &arena, &mut rec, root.id()));
        rec.end(root);
        t.elapsed().as_secs_f64()
    });
    let (oracle, label_entries, arena_bytes) = ready.expect("at least one set-up round");
    let oracle = Arc::new(oracle);
    out.put("setup_s", "s", setup_s);
    out.put("index_mb", "MiB", arena_bytes as f64 / (1 << 20) as f64);
    rec.flush();
    put_setup_layers(tracer, label_entries, arena_bytes, &mut out);

    // Rounds of [batches 60% | reads 40%]; every other round traced.
    let threads = cfg.threads;
    let (pairs, truth) = streams.interleaved();
    let expected: Vec<Option<bool>> = truth.iter().map(|&b| Some(b)).collect();
    let mut readers = callers(vec![(); threads], pairs.len());
    let (mut rates, mut reads) = (BatchRates::default(), Reads::default());
    for round in 0..rounds(cfg.seconds) {
        batch_slice(
            &streams,
            ROUND.mul_f64(0.6),
            BATCH_PAIRS,
            &mut rates,
            &mut out,
            &mut rec,
            |p| oracle.reaches_batch(p, threads),
        );
        let traced = cfg.trace && round % 2 == 1;
        let run = closed_loop_reads(
            &pairs,
            &expected,
            &mut readers,
            ROUND.mul_f64(0.4),
            tracer,
            traced,
            &mut out,
            |_, rec, u, v| Ok(rec.span("oracle.reaches", 0, || oracle.reaches(u, v))),
        );
        reads.add(run, traced);
    }
    rates.put(&mut out);
    reads.put(&mut out);
    drop(rec);

    if cfg.trace {
        layers::kernel(&oracle, &streams, threads, &mut out);
        layers::protocol(&pairs, &mut out);
        layers::wire_probe(&oracle, &pairs, &truth, tracer, &mut out);
        layers::write_replay(&dag, cfg, &mut out);
    }
    out
}
