//! The four workloads and their timed pipelines.
//!
//! Each repetition sets up fresh inputs (untimed, reported as `setup_s`),
//! runs the workload's library pipeline on the engine with [`THREADS`]
//! workers (timed, reported as `wall_s`), then checks the outputs (untimed).
//! Every cold evaluation starts from a freshly exported in-memory corpus, so
//! its result cache is empty by construction; the checks assert it.

use crate::memvfs::MemVfs;
use qubikos::{generate_suite, ExperimentPoint, SuiteConfig};
use qubikos_arch::DeviceKind;
use qubikos_bench::evaluation::CachedRouting;
use qubikos_bench::{
    optimality::run_optimality_study_with_sink, run_suite_analytics_with_sink,
    run_suite_evaluation_with_sink, AnalyticsConfig, EvaluationConfig, ExportOptions,
    OptimalityConfig, SuiteEvalConfig, SuiteStore, DEFAULT_TOOL_SEED,
};
use qubikos_circuit::to_qasm;
use qubikos_engine::{JobKey, NullSink, ProgressSink, RunSummary};
use qubikos_exact::ExactConfig;
use qubikos_layout::ToolKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Engine worker threads of every timed pipeline.
pub const THREADS: usize = 2;

/// Suite seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2025;

/// Root of every corpus inside its [`MemVfs`].
pub const CORPUS_ROOT: &str = "corpus";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure-4 cold evaluation of the rochester-53 quick corpus, all tools.
    Fig4Rochester,
    /// Cold evaluation of the eagle-127 quick corpus, greedy-kernel tools.
    GreedyEagle,
    /// The §IV-A optimality study on grid-3x3.
    CertifyGrid,
    /// Export → verify → cold eval → warm eval → analytics on a large
    /// grid-3x3 corpus.
    CorpusGrid,
}

/// What a workload's pipeline is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Eval,
    Certify,
    Corpus,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig4Rochester,
        Workload::GreedyEagle,
        Workload::CertifyGrid,
        Workload::CorpusGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Rochester => "fig4-rochester",
            Workload::GreedyEagle => "greedy-eagle",
            Workload::CertifyGrid => "certify-grid",
            Workload::CorpusGrid => "corpus-grid",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Corpora an end-to-end run cycles through, each a fresh draw of the
    /// workload's circuits. Run time swings with the draw (qmap's A* cost
    /// on rochester-53 differs by up to 2x between two 8-circuit corpora;
    /// the exact solver's time and memory follow its hardest circuits), so a
    /// run reports the mean over several corpora. One cycle takes about
    /// 20 s on a 2-core x86-64 VM (fig4-rochester: about 40 s).
    pub fn corpora(self) -> usize {
        match self {
            Workload::Fig4Rochester => 10,
            Workload::GreedyEagle => 5,
            Workload::CertifyGrid => 8,
            Workload::CorpusGrid => 6,
        }
    }

    /// The workload's corpora for run seed `seed`. Corpus 0 is generated
    /// from `seed` itself; corpus `j` from a seed derived from `seed` and `j`.
    pub fn specs(self, seed: u64) -> Vec<Spec> {
        (0..self.corpora() as u64)
            .map(|j| self.spec(seed.wrapping_add(j.wrapping_mul(1_000_000_007))))
            .collect()
    }

    /// The workload at full size for suite seed `seed`.
    pub fn spec(self, seed: u64) -> Spec {
        let quick = |device| EvaluationConfig::quick(device).suite.with_base_seed(seed);
        let grid = |swap_counts: Vec<usize>, circuits_per_count| SuiteConfig {
            swap_counts,
            circuits_per_count,
            two_qubit_gates: 30,
            base_seed: seed,
        };
        let (device, tools, suite) = match self {
            Workload::Fig4Rochester => (
                DeviceKind::Rochester53,
                ToolKind::ALL.to_vec(),
                quick(DeviceKind::Rochester53),
            ),
            Workload::GreedyEagle => (
                DeviceKind::Eagle127,
                vec![ToolKind::LightSabre, ToolKind::Tket, ToolKind::MlQls],
                quick(DeviceKind::Eagle127),
            ),
            Workload::CertifyGrid => (DeviceKind::Grid3x3, Vec::new(), grid(vec![1, 2, 3], 100)),
            Workload::CorpusGrid => (
                DeviceKind::Grid3x3,
                vec![ToolKind::Tket],
                grid(vec![5, 10, 15, 20], 1000),
            ),
        };
        Spec {
            workload: self,
            device,
            tools,
            suite,
            shard_size: 250,
            exact_swap_limit: 3,
        }
    }

    pub fn kind(self) -> Kind {
        match self {
            Workload::Fig4Rochester | Workload::GreedyEagle => Kind::Eval,
            Workload::CertifyGrid => Kind::Certify,
            Workload::CorpusGrid => Kind::Corpus,
        }
    }
}

/// Everything that defines a workload's inputs.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub device: DeviceKind,
    pub tools: Vec<ToolKind>,
    pub suite: SuiteConfig,
    pub shard_size: usize,
    /// Designed SWAP counts up to this are checked by the exact solver.
    pub exact_swap_limit: usize,
}

impl Spec {
    pub fn export_options(&self) -> ExportOptions {
        ExportOptions::default().with_shard_size(self.shard_size)
    }

    /// Exports the suite into `vfs` and returns the opened store.
    pub fn export(&self, vfs: &Arc<MemVfs>, threads: usize) -> Result<SuiteStore, String> {
        SuiteStore::export_with_options_on(
            vfs.clone(),
            CORPUS_ROOT,
            self.device,
            &self.suite,
            &self.export_options(),
            threads,
            &NullSink,
        )
        .map_err(|e| format!("export failed: {e}"))?
        .store
        .ok_or_else(|| "export stopped early".to_string())
    }
}

/// Inputs of one repetition.
pub struct Prepared {
    vfs: Arc<MemVfs>,
    /// The exported corpus (evaluation workloads).
    store: Option<SuiteStore>,
    /// The suite generated independently of the pipeline, for the checks
    /// (certify and corpus workloads).
    reference: Vec<ExperimentPoint>,
}

/// Builds one repetition's inputs.
pub fn setup(spec: &Spec) -> Result<Prepared, String> {
    let vfs = MemVfs::new();
    let (store, reference) = match spec.workload.kind() {
        Kind::Eval => (Some(spec.export(&vfs, THREADS)?), Vec::new()),
        Kind::Certify | Kind::Corpus => {
            let arch = spec.device.build();
            let reference =
                generate_suite(&arch, &spec.suite).map_err(|e| format!("generate: {e}"))?;
            (None, reference)
        }
    };
    Ok(Prepared {
        vfs,
        store,
        reference,
    })
}

/// Sums the engine's run summaries over every engine run of a pipeline.
#[derive(Debug, Default)]
pub struct EngineTally {
    runs: Mutex<Vec<RunSummary>>,
}

impl EngineTally {
    /// `(jobs, wall µs, busy µs, wall µs × threads)` over all runs.
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        let runs = self.runs.lock().expect("tally lock");
        runs.iter().fold((0, 0, 0, 0), |acc, r| {
            (
                acc.0 + r.jobs as u64,
                acc.1 + r.wall_micros,
                acc.2 + r.busy_micros,
                acc.3 + r.wall_micros * r.threads as u64,
            )
        })
    }
}

impl ProgressSink for EngineTally {
    fn run_finished(&self, summary: &RunSummary) {
        self.runs.lock().expect("tally lock").push(*summary);
    }
}

/// Result of one timed repetition.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of the timed pipeline.
    pub wall: f64,
    /// Seconds per stage, in pipeline order (they add up to `wall`).
    pub stages: Vec<(&'static str, f64)>,
    /// SWAPs the cold evaluation inserted, over all (tool, circuit) pairs.
    pub swaps: u64,
    /// Jobs whose results were checked, and how many of them failed.
    pub jobs: u64,
    pub failed_jobs: u64,
    /// Check failures, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, jobs: u64, message: String) {
        self.failed_jobs += jobs;
        self.failures.push(message);
    }

    fn expect(&mut self, ok: bool, jobs: u64, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(jobs, message());
        }
    }
}

/// Runs `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// A stage timer: runs the stage and appends its seconds to the outcome.
fn stage<T>(outcome: &mut Outcome, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    let seconds = start.elapsed().as_secs_f64();
    outcome.stages.push((name, seconds));
    outcome.wall += seconds;
    value
}

/// Runs one timed repetition of the workload's pipeline.
pub fn run(spec: &Spec, prepared: &Prepared, sink: &dyn ProgressSink) -> Outcome {
    let mut outcome = Outcome::default();
    match spec.workload.kind() {
        Kind::Eval => {
            let store = prepared
                .store
                .as_ref()
                .expect("eval workloads export in setup");
            run_eval_stage(spec, store, "eval-cold", true, sink, &mut outcome);
        }
        Kind::Certify => run_certify(spec, prepared, sink, &mut outcome),
        Kind::Corpus => run_corpus(spec, prepared, sink, &mut outcome),
    }
    outcome
}

/// One suite-backed evaluation pass, then its checks: the pass routed every
/// pair (cold) or none (warm), and no pair beat its designed optimum.
fn run_eval_stage(
    spec: &Spec,
    store: &SuiteStore,
    name: &'static str,
    cold: bool,
    sink: &dyn ProgressSink,
    outcome: &mut Outcome,
) {
    let pairs = (store.total_instances() * spec.tools.len()) as u64;
    outcome.jobs += pairs;
    let config = SuiteEvalConfig {
        tools: spec.tools.clone(),
        tool_seed: DEFAULT_TOOL_SEED,
        threads: THREADS,
    };
    let result = stage(outcome, name, || {
        guarded(|| run_suite_evaluation_with_sink(store, &config, sink))
    });
    let eval = match result {
        Ok(Ok(eval)) => eval,
        Ok(Err(error)) => return outcome.fail(pairs, format!("{name}: {error}")),
        Err(panic) => return outcome.fail(pairs, format!("{name} panicked: {panic}")),
    };
    let (routed, hits) = if cold { (pairs, 0) } else { (0, pairs) };
    outcome.expect(
        eval.routed as u64 == routed && eval.cache_hits as u64 == hits && eval.complete,
        pairs,
        || {
            format!(
                "{name}: routed {} / cache hits {} (expected {routed} / {hits}), complete {}",
                eval.routed, eval.cache_hits, eval.complete
            )
        },
    );
    let swaps = check_pairs_against_optimum(spec, store, name, outcome);
    if cold {
        outcome.swaps += swaps;
    }
}

/// Reads every (tool, circuit) result back from the cache and checks that
/// none reports fewer SWAPs than the circuit's designed optimum (that would
/// falsify the certificate or the SWAP count). Returns the SWAP total.
fn check_pairs_against_optimum(
    spec: &Spec,
    store: &SuiteStore,
    name: &str,
    outcome: &mut Outcome,
) -> u64 {
    let mut swaps = 0;
    for shard in 0..store.shard_count() {
        let records = match store.shard_records(shard) {
            Ok(records) => records,
            Err(error) => {
                outcome.fail(0, format!("{name}: shard {shard}: {error}"));
                continue;
            }
        };
        for record in &records {
            for tool in &spec.tools {
                let key = JobKey::new(tool.name(), record.content_hash.as_str());
                match store.read_cached::<CachedRouting>(&key) {
                    Some(cached) if cached.swaps >= record.swap_count => {
                        swaps += cached.swaps as u64;
                    }
                    Some(cached) => outcome.fail(
                        1,
                        format!(
                            "{name}: {} routed {} with {} SWAPs, below its optimum {}",
                            tool.name(),
                            record.file,
                            cached.swaps,
                            record.swap_count
                        ),
                    ),
                    None => outcome.fail(
                        1,
                        format!(
                            "{name}: no cached result for {} on {}",
                            tool.name(),
                            record.file
                        ),
                    ),
                }
            }
        }
    }
    swaps
}

fn run_certify(spec: &Spec, prepared: &Prepared, sink: &dyn ProgressSink, outcome: &mut Outcome) {
    let config = OptimalityConfig {
        devices: vec![spec.device],
        suite: spec.suite.clone(),
        exact: ExactConfig::default(),
        exact_swap_limit: spec.exact_swap_limit,
        exact_deadline_micros: None,
        threads: THREADS,
    };
    let circuits = spec.suite.total_circuits() as u64;
    outcome.jobs += circuits;
    let result = stage(outcome, "certify", || {
        guarded(|| run_optimality_study_with_sink(&config, sink))
    });
    let report = match result {
        Ok(Ok(report)) => report,
        Ok(Err(error)) => return outcome.fail(circuits, format!("certify: {error}")),
        Err(panic) => return outcome.fail(circuits, format!("certify panicked: {panic}")),
    };
    let eligible = prepared
        .reference
        .iter()
        .filter(|p| p.swap_count <= spec.exact_swap_limit)
        .count();
    // A proven optimum that differs from the designed count is a failure in
    // the report, so zero failures also means every proven optimum matched.
    outcome.expect(report.failures == 0, report.failures as u64, || {
        format!("certify: {} circuits failed verification", report.failures)
    });
    outcome.expect(
        report.circuits as u64 == circuits
            && report.certified as u64 == circuits
            && report.exactly_confirmed + report.exact_budget_exceeded == eligible,
        0,
        || {
            format!(
                "certify: {} circuits, {} certified, {} + {} exact verdicts for {eligible} eligible",
                report.circuits,
                report.certified,
                report.exactly_confirmed,
                report.exact_budget_exceeded
            )
        },
    );
}

fn run_corpus(spec: &Spec, prepared: &Prepared, sink: &dyn ProgressSink, outcome: &mut Outcome) {
    let instances = spec.suite.total_circuits() as u64;
    outcome.jobs += 3 * instances;
    let exported = stage(outcome, "export", || {
        guarded(|| {
            SuiteStore::export_with_options_on(
                prepared.vfs.clone(),
                CORPUS_ROOT,
                spec.device,
                &spec.suite,
                &spec.export_options(),
                THREADS,
                sink,
            )
        })
    });
    let store = match exported {
        Ok(Ok(export)) => export
            .store
            .ok_or_else(|| "export stopped early".to_string()),
        Ok(Err(error)) => Err(format!("export: {error}")),
        Err(panic) => Err(format!("export panicked: {panic}")),
    };
    let store = match store {
        Ok(store) => store,
        Err(message) => {
            // Nothing downstream can run: every stage's jobs fail.
            outcome.jobs += 2 * instances;
            return outcome.fail(5 * instances, message);
        }
    };

    let verified = stage(outcome, "verify", || {
        guarded(|| store.verify_streaming(THREADS, None, sink))
    });
    match verified {
        Ok(Ok(report)) => outcome.expect(
            report.failures.is_empty() && report.instances as u64 == instances && report.complete,
            instances,
            || {
                format!(
                    "verify: {} instances, failures {:?}",
                    report.instances, report.failures
                )
            },
        ),
        Ok(Err(error)) => outcome.fail(instances, format!("verify: {error}")),
        Err(panic) => outcome.fail(instances, format!("verify panicked: {panic}")),
    }

    run_eval_stage(spec, &store, "eval-cold", true, sink, outcome);
    run_eval_stage(spec, &store, "eval-warm", false, sink, outcome);

    let config = AnalyticsConfig {
        tools: spec.tools.clone(),
        tool_seed: DEFAULT_TOOL_SEED,
        threads: THREADS,
    };
    let analysed = stage(outcome, "analytics", || {
        guarded(|| run_suite_analytics_with_sink(&store, &config, sink))
    });
    match analysed {
        Ok(Ok(report)) => {
            let covered = report.summary.tools.iter().all(|t| t.covered == instances);
            outcome.expect(
                report.summary.instances == instances && covered,
                instances,
                || {
                    format!(
                        "analytics: {} instances, coverage incomplete",
                        report.summary.instances
                    )
                },
            );
        }
        Ok(Err(error)) => outcome.fail(instances, format!("analytics: {error}")),
        Err(panic) => outcome.fail(instances, format!("analytics panicked: {panic}")),
    }

    outcome.expect(store.residency_peak() == 1, 0, || {
        format!(
            "residency peak {} (streaming keeps it at 1)",
            store.residency_peak()
        )
    });
    check_corpus_bytes(&store, prepared, outcome);
}

/// Every stored QASM file is byte-identical to the independently generated
/// reference circuit's QASM.
fn check_corpus_bytes(store: &SuiteStore, prepared: &Prepared, outcome: &mut Outcome) {
    let mut flat = 0;
    for shard in 0..store.shard_count() {
        let Ok(records) = store.shard_records(shard) else {
            return outcome.fail(0, format!("corpus: shard {shard} unreadable"));
        };
        for record in &records {
            let stored = prepared
                .vfs
                .peek(&Path::new(CORPUS_ROOT).join(&record.file));
            let expected = prepared
                .reference
                .get(flat)
                .map(|point| to_qasm(point.benchmark.circuit()));
            if stored.as_deref() != expected.as_deref() {
                outcome.fail(
                    1,
                    format!("corpus: {} differs from the reference", record.file),
                );
            }
            flat += 1;
        }
    }
    outcome.expect(flat == prepared.reference.len(), 0, || {
        format!(
            "corpus: {flat} stored instances, {} generated",
            prepared.reference.len()
        )
    });
}
