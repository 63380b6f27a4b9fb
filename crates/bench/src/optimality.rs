//! The §IV-A optimality study: verify that generated circuits need exactly
//! their designed SWAP count.
//!
//! The paper runs OLSQ2 on 400 circuits per architecture. Here every circuit
//! is checked two ways:
//!
//! * the **certificate** check (`qubikos::verify_certificate`) re-derives the
//!   paper's own lower-bound argument with VF2 and DAG reachability and
//!   validates the bundled reference solution — this runs on every instance;
//! * the **exact solver** (`qubikos-exact`, the OLSQ2 substitute) additionally
//!   searches for a cheaper routing on instances small enough for exhaustive
//!   search, providing a fully independent confirmation.
//!
//! Both checks are embarrassingly parallel and their runtimes are wildly
//! skewed (an exhaustive SWAP-3 search costs orders of magnitude more than a
//! certificate check), so the study runs on the [`qubikos_engine`]
//! work-stealing executor: one job per circuit, one exact solver per worker,
//! and a report that is identical for any thread count.
//!
//! The report also aggregates the exact solver's per-`k` node counts and
//! wall-clock so the study output shows where the search budget goes — the
//! instrumentation behind raising `exact_swap_limit` from 2 to 3 when the
//! solver core was rebuilt.

use crate::store::{StoreError, SuiteStore};
use qubikos::{generate_suite, verify_certificate, GenerateError, SuiteConfig};
use qubikos_arch::{Architecture, DeviceKind};
use qubikos_engine::{Engine, JobDeadline, JobKey, NullSink, ProgressSink, AUTO_THREADS};
use qubikos_exact::{ExactConfig, ExactSolver, SEARCH_REVISION};
use serde::{Deserialize, Serialize};

/// Configuration of the optimality study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimalityConfig {
    /// Devices to study (the paper uses Aspen-4 and the 3×3 grid).
    pub devices: Vec<DeviceKind>,
    /// Suite configuration per device.
    pub suite: SuiteConfig,
    /// Exact-solver budget; instances whose search exceeds it are still
    /// certificate-checked but counted as "not exhaustively confirmed".
    pub exact: ExactConfig,
    /// Only run the exact solver on instances with at most this designed SWAP
    /// count (its runtime grows exponentially with the count).
    pub exact_swap_limit: usize,
    /// Per-circuit wall-clock budget for the verification job, in
    /// microseconds; `None` means unbounded. A circuit whose exact search
    /// outlives the budget degrades to [`OptimalityReport::deadline_exceeded`]
    /// (certified but not exhaustively confirmed) instead of stalling the
    /// run. **Note:** a deadline makes verdicts timing-dependent, so the
    /// report is no longer bit-identical across machines or thread counts.
    pub exact_deadline_micros: Option<u64>,
    /// Number of worker threads; [`AUTO_THREADS`] (0) uses every available
    /// core. The report is identical for any value (when no deadline is set).
    pub threads: usize,
}

impl OptimalityConfig {
    /// The paper's configuration (400 circuits per device) — slow.
    ///
    /// `exact_swap_limit` is 3: the rebuilt search core (in-place do/undo
    /// state, transposition table, SWAP canonicalization, packing bound,
    /// root symmetry breaking over the device's automorphisms) decides
    /// SWAP-3 instances within the same budget the naive DFS needed for
    /// SWAP-2, so two thirds of the designed SWAP counts are confirmed by
    /// independent search instead of one third.
    pub fn paper() -> Self {
        OptimalityConfig {
            devices: vec![DeviceKind::Aspen4, DeviceKind::Grid3x3],
            suite: SuiteConfig::paper_optimality_study(),
            exact: ExactConfig::default(),
            exact_swap_limit: 3,
            exact_deadline_micros: None,
            threads: AUTO_THREADS,
        }
    }

    /// A scaled-down configuration preserving the experiment's shape.
    pub fn quick() -> Self {
        let mut config = Self::paper();
        config.suite = config.suite.with_circuits_per_count(5);
        config
    }

    /// The CI smoke configuration: the smallest run that still exercises the
    /// generator, the certificate checker, and the exhaustive exact solver on
    /// every designed SWAP count. Nightly CI runs this to catch performance
    /// and correctness regressions in the hot paths; it must stay fast enough
    /// to finish in well under a minute in release mode.
    pub fn smoke() -> Self {
        OptimalityConfig {
            devices: vec![DeviceKind::Grid3x3],
            suite: SuiteConfig {
                swap_counts: vec![1, 2, 3],
                circuits_per_count: 2,
                two_qubit_gates: 20,
                base_seed: 2025,
            },
            exact: ExactConfig::default(),
            exact_swap_limit: 3,
            exact_deadline_micros: None,
            threads: AUTO_THREADS,
        }
    }

    /// Returns the configuration with an explicit thread count
    /// ([`AUTO_THREADS`] = all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns the configuration with a per-circuit wall-clock budget for
    /// the verification jobs (see
    /// [`exact_deadline_micros`](Self::exact_deadline_micros)).
    pub fn with_exact_deadline(mut self, limit: std::time::Duration) -> Self {
        self.exact_deadline_micros = Some(limit.as_micros().min(u64::MAX as u128) as u64);
        self
    }

    /// The configured per-circuit deadline as a [`std::time::Duration`].
    pub fn exact_deadline(&self) -> Option<std::time::Duration> {
        self.exact_deadline_micros
            .map(std::time::Duration::from_micros)
    }
}

/// Exact-solver node counts aggregated over one queried SWAP budget `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExactNodesAtK {
    /// The queried SWAP budget.
    pub swaps: usize,
    /// Number of feasibility queries run at this budget.
    pub queries: usize,
    /// Total search nodes expanded at this budget.
    pub nodes: u64,
}

/// Aggregate outcome of the optimality study.
///
/// `exact_wall_micros` is excluded from equality: the report is otherwise
/// bit-identical across thread counts (and asserted so in tests), but
/// wall-clock never is.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimalityReport {
    /// Total circuits generated.
    pub circuits: usize,
    /// Circuits whose optimality certificate verified.
    pub certified: usize,
    /// Circuits additionally confirmed optimal by the exhaustive solver.
    pub exactly_confirmed: usize,
    /// Circuits where the exhaustive solver was attempted but hit its budget.
    pub exact_budget_exceeded: usize,
    /// Circuits whose verification job outran its wall-clock deadline
    /// ([`OptimalityConfig::exact_deadline_micros`]); the certificate still
    /// held, only the independent exhaustive confirmation was cut short.
    /// Always zero when no deadline is configured.
    pub deadline_exceeded: usize,
    /// Circuits where any check failed (must be zero).
    pub failures: usize,
    /// Total exact-solver search nodes across all circuits.
    pub exact_nodes: u64,
    /// Exact-solver node counts broken down by queried SWAP budget,
    /// ascending in `swaps` — shows where the search budget goes.
    pub exact_nodes_by_k: Vec<ExactNodesAtK>,
    /// Total exact-solver wall-clock in microseconds (summed over jobs, so
    /// it exceeds elapsed time when running multi-threaded).
    pub exact_wall_micros: u64,
}

impl PartialEq for OptimalityReport {
    fn eq(&self, other: &Self) -> bool {
        self.circuits == other.circuits
            && self.certified == other.certified
            && self.exactly_confirmed == other.exactly_confirmed
            && self.exact_budget_exceeded == other.exact_budget_exceeded
            && self.deadline_exceeded == other.deadline_exceeded
            && self.failures == other.failures
            && self.exact_nodes == other.exact_nodes
            && self.exact_nodes_by_k == other.exact_nodes_by_k
    }
}

/// Per-circuit outcome of the two verification stages, produced by one
/// engine job and folded into the report in job order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CircuitVerdict {
    /// Certificate check failed; the exact solver was not consulted.
    CertificateFailed,
    /// Certificate held; the instance was above the exact-solver SWAP limit.
    CertifiedOnly,
    /// Certificate held and the exhaustive search confirmed the optimum.
    ExactlyConfirmed,
    /// Certificate held but the exhaustive search found a different optimum.
    ExactMismatch,
    /// Certificate held; the exhaustive search exceeded its budget.
    ExactBudgetExceeded,
    /// Certificate held; the verification job outran its wall-clock
    /// deadline before the exhaustive search finished.
    DeadlineExceeded,
}

impl CircuitVerdict {
    /// Stable name used by the result cache.
    fn name(self) -> &'static str {
        match self {
            CircuitVerdict::CertificateFailed => "certificate-failed",
            CircuitVerdict::CertifiedOnly => "certified-only",
            CircuitVerdict::ExactlyConfirmed => "exactly-confirmed",
            CircuitVerdict::ExactMismatch => "exact-mismatch",
            CircuitVerdict::ExactBudgetExceeded => "exact-budget-exceeded",
            CircuitVerdict::DeadlineExceeded => "deadline-exceeded",
        }
    }

    /// Inverse of [`name`](Self::name); `None` for unknown (corrupt or
    /// future-format) cache entries, which then read as cache misses.
    fn parse(name: &str) -> Option<Self> {
        match name {
            "certificate-failed" => Some(CircuitVerdict::CertificateFailed),
            "certified-only" => Some(CircuitVerdict::CertifiedOnly),
            "exactly-confirmed" => Some(CircuitVerdict::ExactlyConfirmed),
            "exact-mismatch" => Some(CircuitVerdict::ExactMismatch),
            "exact-budget-exceeded" => Some(CircuitVerdict::ExactBudgetExceeded),
            "deadline-exceeded" => Some(CircuitVerdict::DeadlineExceeded),
            _ => None,
        }
    }
}

/// One engine job's result: the verdict plus the exact solver's per-query
/// statistics (empty when the solver was not consulted).
#[derive(Debug, Clone)]
struct PointOutcome {
    verdict: CircuitVerdict,
    /// `(k, nodes)` per feasibility query, in deepening order.
    exact_queries: Vec<(usize, u64)>,
    exact_wall_micros: u64,
}

/// Runs the optimality study.
///
/// # Errors
///
/// Propagates [`GenerateError`] on suite misconfiguration instead of
/// panicking.
pub fn run_optimality_study(config: &OptimalityConfig) -> Result<OptimalityReport, GenerateError> {
    run_optimality_study_with_sink(config, &NullSink)
}

/// [`run_optimality_study`] with a caller-supplied progress/metrics sink.
///
/// # Errors
///
/// As [`run_optimality_study`].
pub fn run_optimality_study_with_sink(
    config: &OptimalityConfig,
    sink: &dyn ProgressSink,
) -> Result<OptimalityReport, GenerateError> {
    // Generate all suites first (generation is cheap and sequential so the
    // suites stay identical to the sequential study), then verify every
    // circuit of every device as one flat worklist.
    let suites: Vec<(Architecture, Vec<qubikos::ExperimentPoint>)> = config
        .devices
        .iter()
        .map(|&device| {
            let arch = device.build();
            let suite = generate_suite(&arch, &config.suite)?;
            Ok((arch, suite))
        })
        .collect::<Result<_, GenerateError>>()?;
    let jobs: Vec<(&Architecture, &qubikos::ExperimentPoint)> = suites
        .iter()
        .flat_map(|(arch, suite)| suite.iter().map(move |point| (arch, point)))
        .collect();

    let mut engine = Engine::new(config.threads).with_base_seed(config.suite.base_seed);
    if let Some(limit) = config.exact_deadline() {
        engine = engine.with_job_deadline(limit);
    }
    let outcomes = engine
        .run_values(
            &jobs,
            |_worker| ExactSolver::new(config.exact),
            |solver, ctx, &(arch, point)| verify_point(solver, config, arch, point, ctx.deadline),
            sink,
        )
        .unwrap_or_else(|error| panic!("optimality study aborted: {error}"));

    Ok(fold_outcomes(&outcomes))
}

/// Incremental accumulator behind the study report. Every field is an
/// integer sum (or count keyed by queried SWAP budget), so the fold is
/// **exactly associative**: outcomes folded shard by shard finish to the
/// same report as a single pass, in any grouping. The per-`k` breakdown is
/// sorted only at [`finish`](Self::finish), matching the historical
/// one-shot fold.
struct OptimalityFold {
    report: OptimalityReport,
}

impl OptimalityFold {
    fn new() -> Self {
        OptimalityFold {
            report: OptimalityReport {
                circuits: 0,
                certified: 0,
                exactly_confirmed: 0,
                exact_budget_exceeded: 0,
                deadline_exceeded: 0,
                failures: 0,
                exact_nodes: 0,
                exact_nodes_by_k: Vec::new(),
                exact_wall_micros: 0,
            },
        }
    }

    fn add(&mut self, outcome: &PointOutcome) {
        let report = &mut self.report;
        report.circuits += 1;
        match outcome.verdict {
            CircuitVerdict::CertificateFailed => report.failures += 1,
            CircuitVerdict::CertifiedOnly => report.certified += 1,
            CircuitVerdict::ExactlyConfirmed => {
                report.certified += 1;
                report.exactly_confirmed += 1;
            }
            CircuitVerdict::ExactMismatch => {
                report.certified += 1;
                report.failures += 1;
            }
            CircuitVerdict::ExactBudgetExceeded => {
                report.certified += 1;
                report.exact_budget_exceeded += 1;
            }
            CircuitVerdict::DeadlineExceeded => {
                report.certified += 1;
                report.deadline_exceeded += 1;
            }
        }
        report.exact_wall_micros += outcome.exact_wall_micros;
        for &(swaps, nodes) in &outcome.exact_queries {
            report.exact_nodes += nodes;
            match report
                .exact_nodes_by_k
                .iter_mut()
                .find(|entry| entry.swaps == swaps)
            {
                Some(entry) => {
                    entry.queries += 1;
                    entry.nodes += nodes;
                }
                None => report.exact_nodes_by_k.push(ExactNodesAtK {
                    swaps,
                    queries: 1,
                    nodes,
                }),
            }
        }
    }

    fn finish(mut self) -> OptimalityReport {
        self.report
            .exact_nodes_by_k
            .sort_by_key(|entry| entry.swaps);
        self.report
    }
}

/// Folds per-circuit outcomes (in job order) into the aggregate report.
fn fold_outcomes(outcomes: &[PointOutcome]) -> OptimalityReport {
    let mut fold = OptimalityFold::new();
    for outcome in outcomes {
        fold.add(outcome);
    }
    fold.finish()
}

/// One cached verification outcome: the
/// `results/optimality/<hash>-r<revision>.json` payload of the suite store
/// ([`optimality_key`]). The exact-solver parameters ride along so an entry
/// produced under a different budget or SWAP limit — which could have
/// reached a different verdict — reads as a cache miss.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedVerification {
    /// Content hash of the verified circuit's QASM.
    pub circuit_hash: String,
    /// `ExactConfig::max_swaps` the entry was produced under.
    pub max_swaps: usize,
    /// `ExactConfig::node_budget` the entry was produced under.
    pub node_budget: u64,
    /// `exact_swap_limit` the entry was produced under.
    pub exact_swap_limit: usize,
    /// The verdict, as a stable name.
    pub verdict: String,
    /// `(k, nodes)` per exact-solver feasibility query, in deepening order.
    pub queries: Vec<(usize, u64)>,
    /// Exact-solver wall-clock of the original (uncached) verification.
    pub wall_micros: u64,
}

/// Result of a suite-backed optimality run: the report plus how much work
/// the cache saved.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteOptimalityOutcome {
    /// The study report (node counts identical to the in-memory study on
    /// the same suite; wall-clock of cached circuits is the recorded
    /// original, not this run's).
    pub report: OptimalityReport,
    /// Circuits actually verified in this run.
    pub verified: usize,
    /// Circuits answered from the result cache.
    pub cache_hits: usize,
    /// Shards processed this run.
    pub shards: usize,
    /// Shards skipped because their manifest or an instance file was
    /// persistently corrupt; the offending file was moved to the store's
    /// `quarantine/` directory and the report covers the remaining shards.
    pub shards_quarantined: usize,
    /// Whether the whole corpus was covered (false when the run was
    /// truncated by `stop_after_shards` — the report then covers a prefix).
    pub complete: bool,
}

/// Runs the optimality verification over a stored suite, reading and
/// writing the store's `results/optimality/` cache. The suite and device
/// come from the store's root index; `config.devices` and `config.suite`
/// are not consulted. As with the suite evaluation, the run streams shard
/// by shard: at most one shard of circuits is ever materialized, and only
/// when at least one of its circuits misses the cache.
///
/// # Errors
///
/// Propagates [`StoreError`] from loading a shard or writing cache
/// entries.
pub fn run_suite_optimality(
    store: &SuiteStore,
    config: &OptimalityConfig,
) -> Result<SuiteOptimalityOutcome, StoreError> {
    run_suite_optimality_with_sink(store, config, &NullSink)
}

/// [`run_suite_optimality`] with a caller-supplied progress/metrics sink.
/// The sink only sees the circuits that are actually verified (cache
/// misses), one engine worklist per shard with misses.
///
/// # Errors
///
/// As [`run_suite_optimality`].
pub fn run_suite_optimality_with_sink(
    store: &SuiteStore,
    config: &OptimalityConfig,
    sink: &dyn ProgressSink,
) -> Result<SuiteOptimalityOutcome, StoreError> {
    run_suite_optimality_partial(store, config, None, sink)
}

/// The streaming core of the suite-backed optimality run: processes shards
/// in order, folding each shard's verdicts into the report accumulator
/// before the next shard is touched, so memory stays bounded by one shard
/// plus the fold state.
///
/// `stop_after_shards` truncates the run after that many shards; verdicts
/// are banked in the content-addressed cache as they are produced, so a
/// rerun answers the already-processed shards entirely from cache — resume
/// at shard granularity falls out of the cache semantics.
///
/// A shard whose manifest or instance files are *persistently* corrupt
/// (reads are retried first) is quarantined and skipped rather than failing
/// the run: the offending file moves to `quarantine/`, the skip is counted
/// in [`SuiteOptimalityOutcome::shards_quarantined`], and the report covers
/// the surviving shards. Plain I/O errors still propagate.
///
/// # Errors
///
/// As [`run_suite_optimality`].
pub fn run_suite_optimality_partial(
    store: &SuiteStore,
    config: &OptimalityConfig,
    stop_after_shards: Option<usize>,
    sink: &dyn ProgressSink,
) -> Result<SuiteOptimalityOutcome, StoreError> {
    let arch = store.device().build();
    let base_seed = store.config().base_seed;
    let shards = stop_after_shards
        .unwrap_or(usize::MAX)
        .min(store.shard_count());
    let mut fold = OptimalityFold::new();
    let mut verified_total = 0;
    let mut cache_hits = 0;
    let mut shards_quarantined = 0;

    for shard in 0..shards {
        match optimality_shard(store, config, &arch, base_seed, shard, sink) {
            Ok((outcomes, verified, hits)) => {
                for outcome in &outcomes {
                    fold.add(outcome);
                }
                verified_total += verified;
                cache_hits += hits;
            }
            Err(error) if error.is_corruption() => {
                store.quarantine_shard_error(shard, &error);
                shards_quarantined += 1;
            }
            Err(error) => return Err(error),
        }
    }

    Ok(SuiteOptimalityOutcome {
        report: fold.finish(),
        verified: verified_total,
        cache_hits,
        shards,
        shards_quarantined,
        complete: shards == store.shard_count(),
    })
}

/// Cache key of a circuit's optimality verdict: the circuit's content hash
/// qualified by [`SEARCH_REVISION`], because the cached per-query node
/// counts and budget verdicts are facts about one revision of the search.
/// An entry written by another revision (or by a build from before the
/// revision was part of the key) is a plain miss — never a parse failure —
/// and is re-verified.
pub fn optimality_key(content_hash: &str) -> JobKey {
    JobKey::new("optimality", format!("{content_hash}-r{SEARCH_REVISION}"))
}

/// Verifies one shard: cache lookups, engine verification of the misses,
/// cache writes. Returns the per-circuit outcomes plus the verified/
/// cache-hit counts, so a corrupt shard can be dropped wholesale before
/// anything is folded.
fn optimality_shard(
    store: &SuiteStore,
    config: &OptimalityConfig,
    arch: &Architecture,
    base_seed: u64,
    shard: usize,
    sink: &dyn ProgressSink,
) -> Result<(Vec<PointOutcome>, usize, usize), StoreError> {
    let records = store.shard_records(shard)?;
    let key = |point_index: usize| optimality_key(&records[point_index].content_hash);

    // Resolve the cache first: only misses are verified.
    let mut outcomes: Vec<Option<PointOutcome>> = (0..records.len())
        .map(|point_index| {
            let cached: CachedVerification = store.read_cached(&key(point_index))?;
            let compatible = cached.circuit_hash == records[point_index].content_hash
                && cached.max_swaps == config.exact.max_swaps
                && cached.node_budget == config.exact.node_budget
                && cached.exact_swap_limit == config.exact_swap_limit;
            if !compatible {
                return None;
            }
            Some(PointOutcome {
                verdict: CircuitVerdict::parse(&cached.verdict)?,
                exact_queries: cached.queries,
                exact_wall_micros: cached.wall_micros,
            })
        })
        .collect();
    let misses: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_none())
        .map(|(i, _)| i)
        .collect();

    if !misses.is_empty() {
        // The shard's circuits are only materialized — and only this
        // shard re-verified — when there are misses to work on. Each
        // verdict is persisted from inside its job so an interrupted
        // run resumes where it stopped (`write_cached` is
        // rename-atomic; a kill mid-write costs only that one entry).
        let points = store.load_shard_on(shard, config.threads, sink)?;
        let mut engine = Engine::new(config.threads).with_base_seed(base_seed);
        if let Some(limit) = config.exact_deadline() {
            engine = engine.with_job_deadline(limit);
        }
        let fresh: Vec<PointOutcome> = engine
            .run_values(
                &misses,
                |_worker| ExactSolver::new(config.exact),
                |solver, ctx, &point_index| -> Result<PointOutcome, StoreError> {
                    let outcome =
                        verify_point(solver, config, arch, &points[point_index], ctx.deadline);
                    // A deadline-exceeded verdict is a statement about
                    // *this machine's* clock, not about the circuit —
                    // caching it would make a faster rerun inherit the
                    // timeout, so it is recomputed every run instead.
                    if outcome.verdict != CircuitVerdict::DeadlineExceeded {
                        store.write_cached(
                            &key(point_index),
                            &CachedVerification {
                                circuit_hash: records[point_index].content_hash.clone(),
                                max_swaps: config.exact.max_swaps,
                                node_budget: config.exact.node_budget,
                                exact_swap_limit: config.exact_swap_limit,
                                verdict: outcome.verdict.name().to_string(),
                                queries: outcome.exact_queries.clone(),
                                wall_micros: outcome.exact_wall_micros,
                            },
                        )?;
                    }
                    Ok(outcome)
                },
                sink,
            )
            .unwrap_or_else(|error| panic!("optimality study aborted: {error}"))
            .into_iter()
            .collect::<Result<_, _>>()?;

        for (&point_index, outcome) in misses.iter().zip(&fresh) {
            outcomes[point_index] = Some(outcome.clone());
        }
    }

    let resolved: Vec<PointOutcome> = outcomes
        .into_iter()
        .map(|slot| slot.expect("every circuit resolved"))
        .collect();
    let verified = misses.len();
    let hits = records.len() - verified;
    Ok((resolved, verified, hits))
}

/// Verifies one circuit: certificate always, exhaustive exact solver when
/// the designed SWAP count is within the configured limit. `deadline` (from
/// the engine's [`JobDeadline`], when configured) cuts the exhaustive
/// search short so one pathological instance degrades to an unproven
/// verdict instead of stalling the run.
fn verify_point(
    solver: &mut ExactSolver,
    config: &OptimalityConfig,
    arch: &Architecture,
    point: &qubikos::ExperimentPoint,
    deadline: Option<JobDeadline>,
) -> PointOutcome {
    let unsolved = |verdict| PointOutcome {
        verdict,
        exact_queries: Vec::new(),
        exact_wall_micros: 0,
    };
    if verify_certificate(&point.benchmark, arch).is_err() {
        return unsolved(CircuitVerdict::CertificateFailed);
    }
    if point.swap_count > config.exact_swap_limit {
        return unsolved(CircuitVerdict::CertifiedOnly);
    }
    let result = solver.solve_with_deadline(
        point.benchmark.circuit(),
        arch,
        deadline.map(|d| d.expires_at()),
    );
    let verdict = match result.optimal_swaps {
        Some(optimal) if result.proven => {
            if optimal == point.benchmark.optimal_swaps() {
                CircuitVerdict::ExactlyConfirmed
            } else {
                CircuitVerdict::ExactMismatch
            }
        }
        _ if result.deadline_exceeded => CircuitVerdict::DeadlineExceeded,
        _ => CircuitVerdict::ExactBudgetExceeded,
    };
    PointOutcome {
        verdict,
        exact_queries: result.queries.iter().map(|q| (q.swaps, q.nodes)).collect(),
        exact_wall_micros: result.wall_micros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> OptimalityConfig {
        OptimalityConfig {
            devices: vec![DeviceKind::Grid3x3],
            suite: SuiteConfig {
                swap_counts: vec![1, 2],
                circuits_per_count: 2,
                two_qubit_gates: 14,
                base_seed: 13,
            },
            exact: ExactConfig {
                max_swaps: 3,
                node_budget: 10_000_000,
            },
            exact_swap_limit: 1,
            exact_deadline_micros: None,
            threads: 2,
        }
    }

    #[test]
    fn tiny_study_confirms_optimality() {
        let report = run_optimality_study(&tiny_config()).expect("valid config");
        assert_eq!(report.circuits, 4);
        assert_eq!(report.certified, 4);
        assert_eq!(report.failures, 0);
        // The SWAP-count-1 instances were within the exact limit.
        assert!(report.exactly_confirmed + report.exact_budget_exceeded >= 1);
        // The consulted solver's work is visible in the aggregates.
        assert!(report.exact_nodes > 0);
        assert!(!report.exact_nodes_by_k.is_empty());
        assert_eq!(
            report.exact_nodes,
            report.exact_nodes_by_k.iter().map(|e| e.nodes).sum::<u64>(),
            "per-k breakdown must sum to the total"
        );
    }

    /// The study, previously fully sequential, must produce the identical
    /// report now that it runs on the engine — at any thread count. (The
    /// comparison covers node counts; wall-clock is excluded from `==`.)
    #[test]
    fn reports_identical_across_thread_counts() {
        let reference = run_optimality_study(&tiny_config().with_threads(1)).expect("valid config");
        for threads in [2usize, 8, AUTO_THREADS] {
            let report =
                run_optimality_study(&tiny_config().with_threads(threads)).expect("valid config");
            assert_eq!(report, reference, "report diverged at threads={threads}");
        }
    }

    #[test]
    fn configs_have_expected_shape() {
        let paper = OptimalityConfig::paper();
        assert_eq!(paper.suite.circuits_per_count, 100);
        assert_eq!(paper.devices.len(), 2);
        assert_eq!(paper.threads, AUTO_THREADS);
        // The rebuilt exact core lifts the independent-search coverage from
        // SWAP-2 to SWAP-3.
        assert_eq!(paper.exact_swap_limit, 3);
        let quick = OptimalityConfig::quick();
        assert_eq!(quick.suite.circuits_per_count, 5);
        let smoke = OptimalityConfig::smoke();
        assert!(smoke.suite.total_circuits() <= 10);
        assert_eq!(smoke.devices, vec![DeviceKind::Grid3x3]);
    }

    #[test]
    fn smoke_study_passes_cleanly() {
        let report = run_optimality_study(&OptimalityConfig::smoke()).expect("valid config");
        assert_eq!(report.failures, 0);
        assert_eq!(report.certified, report.circuits);
        // The smoke limit covers every designed SWAP count, so every circuit
        // must also be exhaustively confirmed, not just certificate-checked.
        assert_eq!(report.exactly_confirmed, report.circuits);
        assert_eq!(report.deadline_exceeded, 0, "no deadline configured");
    }

    /// A pathological (here: zero) deadline must degrade exact confirmation
    /// to `deadline_exceeded` — certified, unproven, run completes, zero
    /// failures — instead of stalling or poisoning the study.
    #[test]
    fn zero_deadline_degrades_to_unproven_without_failing() {
        let config = tiny_config().with_exact_deadline(std::time::Duration::ZERO);
        let report = run_optimality_study(&config).expect("valid config");
        // Every circuit still completes its certificate check...
        assert_eq!(report.circuits, 4);
        assert_eq!(report.certified, 4);
        assert_eq!(report.failures, 0);
        // ...and every exact-solver consultation (the SWAP-1 instances, per
        // `exact_swap_limit: 1`) times out instead of confirming.
        assert!(report.deadline_exceeded > 0);
        assert_eq!(report.exactly_confirmed, 0);
    }

    /// A generous deadline must not change the study's outcome.
    #[test]
    fn generous_deadline_matches_unbounded_report() {
        let unbounded = run_optimality_study(&tiny_config()).expect("valid config");
        let config = tiny_config().with_exact_deadline(std::time::Duration::from_secs(3600));
        let bounded = run_optimality_study(&config).expect("valid config");
        assert_eq!(bounded, unbounded);
        assert_eq!(bounded.deadline_exceeded, 0);
    }
}
