//! Builds the paper's 12 methods on the dataset analogues and measures
//! construction time, index size, and query time.
//!
//! Builders run under a memory budget and (for 2HOP) a wall-clock
//! budget; a [`hoplite_graph::GraphError::BudgetExceeded`] shows up as
//! the paper's "—" table cell. Every successfully built index is
//! validated against the workload's ground truth before timing — a
//! wrong answer poisons the cell with `WRONG` rather than reporting a
//! meaningless time.

use std::time::{Duration, Instant};

use hoplite_baselines::twohop::TwoHopConfig;
use hoplite_baselines::{
    ChainIndex, DualLabeling, Grail, IntervalIndex, KReach, PathTree, PrunedLandmark, Pwah8,
    Scarab, TfLabel, TwoHop,
};
use hoplite_core::{DistributionLabeling, DlConfig, HierarchicalLabeling, HlConfig, ReachIndex};
use hoplite_graph::{Dag, GraphError};

use crate::datasets::DatasetSpec;
use crate::workload::{equal_workload_with, random_workload_with, Workload};

/// The paper's method columns.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MethodId {
    /// GRAIL (GL), 5 random traversals.
    Grail,
    /// GRAIL scaled by SCARAB (GL\*).
    GrailStar,
    /// Path-Tree (PT).
    PathTree,
    /// Path-Tree scaled by SCARAB (PT\*).
    PathTreeStar,
    /// K-Reach (KR).
    KReach,
    /// PWAH-8 (PW8).
    Pwah8,
    /// Nuutila's Interval (INT).
    Interval,
    /// Set-cover 2-hop (2HOP).
    TwoHop,
    /// Pruned Landmark (PL).
    PrunedLandmark,
    /// TF-label (TF).
    TfLabel,
    /// Hierarchical-Labeling (HL) — this paper.
    Hl,
    /// Distribution-Labeling (DL) — this paper.
    Dl,
    /// Dual labeling (§2.1 reference \[36\]; `paper extras` column).
    Dual,
    /// Chain-cover compression (§2.1 references \[18,7\]; `paper extras`
    /// column).
    Chain,
}

impl MethodId {
    /// The twelve columns in the paper's table order.
    pub fn paper_columns() -> [MethodId; 12] {
        [
            MethodId::Grail,
            MethodId::GrailStar,
            MethodId::PathTree,
            MethodId::PathTreeStar,
            MethodId::KReach,
            MethodId::Pwah8,
            MethodId::Interval,
            MethodId::TwoHop,
            MethodId::PrunedLandmark,
            MethodId::TfLabel,
            MethodId::Hl,
            MethodId::Dl,
        ]
    }

    /// The paper's twelve columns plus the §2.1 TC-compression
    /// references the paper describes but does not re-run (dual
    /// labeling, chain cover) — the `paper extras` table.
    pub fn extended_columns() -> [MethodId; 14] {
        [
            MethodId::Grail,
            MethodId::GrailStar,
            MethodId::PathTree,
            MethodId::PathTreeStar,
            MethodId::KReach,
            MethodId::Pwah8,
            MethodId::Interval,
            MethodId::TwoHop,
            MethodId::PrunedLandmark,
            MethodId::TfLabel,
            MethodId::Dual,
            MethodId::Chain,
            MethodId::Hl,
            MethodId::Dl,
        ]
    }

    /// Column header as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            MethodId::Grail => "GL",
            MethodId::GrailStar => "GL*",
            MethodId::PathTree => "PT",
            MethodId::PathTreeStar => "PT*",
            MethodId::KReach => "KR",
            MethodId::Pwah8 => "PW8",
            MethodId::Interval => "INT",
            MethodId::TwoHop => "2HOP",
            MethodId::PrunedLandmark => "PL",
            MethodId::TfLabel => "TF",
            MethodId::Hl => "HL",
            MethodId::Dl => "DL",
            MethodId::Dual => "DUAL",
            MethodId::Chain => "CHAIN",
        }
    }
}

/// Harness configuration (CLI flags of the `paper` binary).
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Scale for the small-graph analogues (1.0 = paper size).
    pub scale_small: f64,
    /// Scale for the large-graph analogues.
    pub scale_large: f64,
    /// Queries per workload (the paper uses 100 000).
    pub queries: usize,
    /// Per-build memory budget in bytes (emulates the 32 GB machine).
    pub budget_bytes: u64,
    /// Per-build wall-clock budget (emulates the 24 h limit).
    pub time_budget: Duration,
    /// Workload seed.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale_small: 0.25,
            scale_large: 0.01,
            queries: 20_000,
            budget_bytes: 1 << 30, // 1 GiB per index
            time_budget: Duration::from_secs(60),
            seed: 0x5EED,
        }
    }
}

/// Result of one index build attempt.
pub struct BuildOutcome {
    /// The built index, if construction fit the budgets.
    pub index: Option<Box<dyn ReachIndex>>,
    /// Construction wall-clock in milliseconds.
    pub build_ms: f64,
    /// Failure description (budget exceeded etc.) — the "—" cell.
    pub error: Option<String>,
}

/// Builds one method on `dag` under the configured budgets.
pub fn build_method(id: MethodId, dag: &Dag, cfg: &RunConfig) -> BuildOutcome {
    let start = Instant::now();
    let built: Result<Box<dyn ReachIndex>, GraphError> = match id {
        MethodId::Grail => Ok(Box::new(Grail::build(dag, 5, cfg.seed))),
        MethodId::GrailStar => Scarab::build(dag, 2, "GL*", |bb| Ok(Grail::build(bb, 5, cfg.seed)))
            .map(|s| Box::new(s) as Box<dyn ReachIndex>),
        MethodId::PathTree => PathTree::build_limited(dag, cfg.budget_bytes, Some(cfg.time_budget))
            .map(|i| Box::new(i) as Box<dyn ReachIndex>),
        MethodId::PathTreeStar => Scarab::build(dag, 2, "PT*", |bb| {
            PathTree::build_limited(bb, cfg.budget_bytes, Some(cfg.time_budget))
        })
        .map(|s| Box::new(s) as Box<dyn ReachIndex>),
        MethodId::KReach => KReach::build_limited(dag, cfg.budget_bytes, Some(cfg.time_budget))
            .map(|i| Box::new(i) as Box<dyn ReachIndex>),
        MethodId::Pwah8 => Pwah8::build_limited(dag, cfg.budget_bytes, Some(cfg.time_budget))
            .map(|i| Box::new(i) as Box<dyn ReachIndex>),
        MethodId::Interval => {
            IntervalIndex::build_limited(dag, cfg.budget_bytes, Some(cfg.time_budget))
                .map(|i| Box::new(i) as Box<dyn ReachIndex>)
        }
        MethodId::TwoHop => TwoHop::build(
            dag,
            &TwoHopConfig {
                budget_bytes: cfg.budget_bytes,
                time_budget: Some(cfg.time_budget),
            },
        )
        .map(|i| Box::new(i) as Box<dyn ReachIndex>),
        MethodId::PrunedLandmark => Ok(Box::new(PrunedLandmark::build(dag))),
        MethodId::TfLabel => Ok(Box::new(TfLabel::build(dag, 1_024))),
        MethodId::Hl => Ok(Box::new(HierarchicalLabeling::build(
            dag,
            &HlConfig::default(),
        ))),
        MethodId::Dl => Ok(Box::new(DistributionLabeling::build(
            dag,
            &DlConfig::default(),
        ))),
        MethodId::Dual => {
            DualLabeling::build(dag, cfg.budget_bytes).map(|i| Box::new(i) as Box<dyn ReachIndex>)
        }
        MethodId::Chain => {
            ChainIndex::build(dag, cfg.budget_bytes).map(|i| Box::new(i) as Box<dyn ReachIndex>)
        }
    };
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    match built {
        Ok(index) => BuildOutcome {
            index: Some(index),
            build_ms,
            error: None,
        },
        Err(e) => BuildOutcome {
            index: None,
            build_ms,
            error: Some(e.to_string()),
        },
    }
}

/// Runs `w` against `idx`, returning (total milliseconds, positives).
pub fn measure_queries(idx: &dyn ReachIndex, w: &Workload) -> (f64, usize) {
    let start = Instant::now();
    let mut positives = 0usize;
    for &(u, v) in &w.pairs {
        positives += idx.query(u, v) as usize;
    }
    (start.elapsed().as_secs_f64() * 1e3, positives)
}

/// Validates `idx` against the workload ground truth.
pub fn validate(idx: &dyn ReachIndex, w: &Workload) -> bool {
    w.pairs
        .iter()
        .zip(&w.expected)
        .all(|(&(u, v), &e)| idx.query(u, v) == e)
}

/// Per-method measurements on one dataset.
#[derive(Clone, Debug)]
pub struct MethodResult {
    /// Construction time (ms); meaningless when `error` is set.
    pub build_ms: f64,
    /// Index size in integers.
    pub size_integers: u64,
    /// Equal-load query time for the whole workload (ms).
    pub equal_ms: f64,
    /// Random-load query time (ms).
    pub random_ms: f64,
    /// Failure ("—") or wrong-answer marker.
    pub error: Option<String>,
}

/// All measurements for one dataset.
pub struct DatasetResult {
    /// The dataset emulated.
    pub spec: DatasetSpec,
    /// Generated |V|.
    pub n: usize,
    /// Generated |E|.
    pub m: usize,
    /// One entry per requested method, in order.
    pub methods: Vec<MethodResult>,
}

/// The full measurement matrix for a set of datasets × methods.
pub struct SuiteResult {
    /// Methods measured (column order).
    pub methods: Vec<MethodId>,
    /// Per-dataset rows.
    pub datasets: Vec<DatasetResult>,
}

/// Generates both workloads for a dataset. Ground truth comes from a
/// freshly built DL reference oracle (per-pair BFS would take minutes
/// on the dense large analogues); the reference is spot-checked
/// against bidirectional BFS on 200 pairs before use.
fn dataset_workloads(dag: &Dag, cfg: &RunConfig) -> (Workload, Workload) {
    use hoplite_graph::gen::Rng;
    use hoplite_graph::traversal::{bidirectional_reaches, TraversalScratch};

    let reference = DistributionLabeling::build(dag, &DlConfig::default());
    let n = dag.num_vertices();
    if n >= 2 {
        let mut rng = Rng::new(cfg.seed ^ 0xC0FFEE);
        let mut fwd = TraversalScratch::new(n);
        let mut bwd = TraversalScratch::new(n);
        for _ in 0..200 {
            let u = rng.gen_index(n) as u32;
            let v = rng.gen_index(n) as u32;
            assert_eq!(
                reference.query(u, v),
                bidirectional_reaches(dag.graph(), u, v, &mut fwd, &mut bwd),
                "reference oracle failed its BFS spot-check at ({u},{v})"
            );
        }
    }
    let equal = equal_workload_with(dag, cfg.queries, cfg.seed, |u, v| reference.query(u, v));
    let random = random_workload_with(dag, cfg.queries, cfg.seed ^ 0xABCD, |u, v| {
        reference.query(u, v)
    });
    (equal, random)
}

/// Runs the complete matrix. Builds and measurements are sequential so
/// timings are not perturbed by sibling work.
pub fn run_suite(specs: &[DatasetSpec], methods: &[MethodId], cfg: &RunConfig) -> SuiteResult {
    let mut datasets = Vec::with_capacity(specs.len());
    for spec in specs {
        let scale = if spec.small {
            cfg.scale_small
        } else {
            cfg.scale_large
        };
        let dag = spec.generate(scale);
        let (equal, random) = dataset_workloads(&dag, cfg);
        let mut rows = Vec::with_capacity(methods.len());
        for &mid in methods {
            let outcome = build_method(mid, &dag, cfg);
            let r = match outcome.index {
                Some(idx) => {
                    if !validate(idx.as_ref(), &equal) || !validate(idx.as_ref(), &random) {
                        MethodResult {
                            build_ms: outcome.build_ms,
                            size_integers: idx.size_in_integers(),
                            equal_ms: f64::NAN,
                            random_ms: f64::NAN,
                            error: Some("WRONG".into()),
                        }
                    } else {
                        let (equal_ms, _) = measure_queries(idx.as_ref(), &equal);
                        let (random_ms, _) = measure_queries(idx.as_ref(), &random);
                        MethodResult {
                            build_ms: outcome.build_ms,
                            size_integers: idx.size_in_integers(),
                            equal_ms,
                            random_ms,
                            error: None,
                        }
                    }
                }
                None => MethodResult {
                    build_ms: outcome.build_ms,
                    size_integers: 0,
                    equal_ms: f64::NAN,
                    random_ms: f64::NAN,
                    error: outcome.error,
                },
            };
            rows.push(r);
        }
        datasets.push(DatasetResult {
            spec: spec.clone(),
            n: dag.num_vertices(),
            m: dag.num_edges(),
            methods: rows,
        });
    }
    SuiteResult {
        methods: methods.to_vec(),
        datasets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::small_datasets;

    fn tiny_cfg() -> RunConfig {
        RunConfig {
            scale_small: 0.02,
            scale_large: 0.001,
            queries: 300,
            budget_bytes: 1 << 28,
            time_budget: Duration::from_secs(10),
            seed: 1,
        }
    }

    #[test]
    fn all_methods_build_and_validate_on_a_small_analogue() {
        let spec = &small_datasets()[7]; // kegg (tiny)
        let dag = spec.generate(0.2);
        let cfg = tiny_cfg();
        let equal = crate::workload::equal_workload(&dag, 500, 3);
        for mid in MethodId::paper_columns() {
            let o = build_method(mid, &dag, &cfg);
            let idx = o
                .index
                .unwrap_or_else(|| panic!("{} failed: {:?}", mid.name(), o.error));
            assert!(
                validate(idx.as_ref(), &equal),
                "{} gave a wrong answer",
                mid.name()
            );
        }
    }

    #[test]
    fn budget_failures_become_errors_not_panics() {
        let spec = &small_datasets()[3]; // arxiv: dense
        let dag = spec.generate(0.2);
        let cfg = RunConfig {
            budget_bytes: 1 << 10, // 1 KiB: everything budgeted must fail
            ..tiny_cfg()
        };
        for mid in [
            MethodId::PathTree,
            MethodId::KReach,
            MethodId::Pwah8,
            MethodId::Interval,
            MethodId::TwoHop,
        ] {
            let o = build_method(mid, &dag, &cfg);
            assert!(o.index.is_none(), "{} should fail on 1KiB", mid.name());
            assert!(o.error.is_some());
        }
    }

    #[test]
    fn suite_produces_full_matrix() {
        let specs = vec![small_datasets()[7].clone(), small_datasets()[11].clone()];
        let methods = [MethodId::Grail, MethodId::Dl];
        let res = run_suite(&specs, &methods, &tiny_cfg());
        assert_eq!(res.datasets.len(), 2);
        for d in &res.datasets {
            assert_eq!(d.methods.len(), 2);
            for m in &d.methods {
                assert!(m.error.is_none(), "unexpected failure: {:?}", m.error);
                assert!(m.equal_ms.is_finite());
                assert!(m.size_integers > 0 || m.error.is_some());
            }
        }
    }
}
