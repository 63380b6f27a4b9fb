//! The traced replay: each workload's per-job layer calls, made one at a
//! time from the benchmark's own code in a fixed order, on a fresh
//! architecture and corpus.
//!
//! In the multi-threaded pipeline the shared distance oracle's row cache
//! depends on scheduling; replayed single-threaded, every work counter
//! (oracle rows and queries, exact nodes, SWAPs, cache hits) repeats exactly,
//! so the counters can be compared bit for bit between runs. Spans from the
//! [`Tracer`] give the per-layer times; the span tree is
//! workload → stage → layer call.

use crate::memvfs::MemVfs;
use crate::trace::Tracer;
use crate::workload::{Kind, Spec, CORPUS_ROOT};
use qubikos::{generate, verify_certificate, GeneratorConfig};
use qubikos_arch::Architecture;
use qubikos_bench::evaluation::CachedRouting;
use qubikos_bench::{run_suite_analytics, AnalyticsConfig, SuiteStore, DEFAULT_TOOL_SEED};
use qubikos_circuit::{parse_qasm, to_qasm};
use qubikos_engine::JobKey;
use qubikos_exact::{ExactConfig, ExactSolver, QueryOutcome};
use qubikos_layout::validate_routing;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Deterministic work counters of one replay, keyed by metric name.
pub type Counters = BTreeMap<String, u64>;

#[derive(Debug)]
pub struct Replay {
    pub counters: Counters,
    /// Check failures (an empty list means every output was correct).
    pub failures: Vec<String>,
    /// Calls checked.
    pub jobs: u64,
    /// Seconds of the workload span (set-up of the corpus excluded).
    pub wall: f64,
}

struct Ctx<'a> {
    spec: &'a Spec,
    tracer: &'a Tracer,
    counters: Counters,
    failures: Vec<String>,
    jobs: u64,
}

impl Ctx<'_> {
    fn add(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += value;
    }

    fn fail(&mut self, message: String) {
        self.failures.push(message);
    }
}

/// Replays `spec` once. Set-up (the corpus an evaluation workload reads)
/// happens before the workload span opens and is not timed.
pub fn replay(spec: &Spec, tracer: &Tracer) -> Replay {
    let vfs = MemVfs::new();
    let mut ctx = Ctx {
        spec,
        tracer,
        counters: Counters::new(),
        failures: Vec::new(),
        jobs: 0,
    };
    let store = match spec.workload.kind() {
        Kind::Eval => match spec.export(&vfs, 1) {
            Ok(store) => Some(store),
            Err(error) => {
                ctx.fail(error);
                None
            }
        },
        Kind::Certify | Kind::Corpus => None,
    };
    let bytes_before = vfs.bytes_written();

    let start = Instant::now();
    {
        let _workload = tracer.enter(spec.workload.name());
        let arch = tracer.time("arch.build", || spec.device.build());
        match (spec.workload.kind(), store) {
            (Kind::Eval, Some(store)) => {
                eval_stage(&mut ctx, &arch, &store, "eval-cold", true);
                ctx.add("store.residency_peak", store.residency_peak() as u64);
            }
            (Kind::Eval, None) => {}
            (Kind::Certify, _) => certify_stage(&mut ctx, &arch),
            (Kind::Corpus, _) => corpus_stages(&mut ctx, &arch, &vfs),
        }
    }
    let wall = start.elapsed().as_secs_f64();
    ctx.add("store.bytes_written", vfs.bytes_written() - bytes_before);
    Replay {
        counters: ctx.counters,
        failures: ctx.failures,
        jobs: ctx.jobs,
        wall,
    }
}

/// One evaluation pass over a stored corpus, as the suite evaluation does
/// it shard by shard: cache lookups, then (on misses) the shard load and
/// route → validate → cache write per (tool, circuit) pair, point-major.
fn eval_stage(ctx: &mut Ctx<'_>, arch: &Architecture, store: &SuiteStore, stage: &str, cold: bool) {
    let tracer = ctx.tracer;
    let _stage = tracer.enter(&format!("stage.{stage}"));
    let tools = &ctx.spec.tools;
    let routers: Vec<_> = tools.iter().map(|t| t.build(DEFAULT_TOOL_SEED)).collect();
    let route_spans: Vec<String> = tools
        .iter()
        .map(|t| format!("route.{}", t.name()))
        .collect();
    let oracle_before = arch.oracle_stats();
    let cache_before = store.cache_stats();
    let mut routed = 0u64;

    for shard in 0..store.shard_count() {
        let records = match tracer.time("store.shard_records", || store.shard_records(shard)) {
            Ok(records) => records,
            Err(error) => {
                ctx.fail(format!("{stage}: shard {shard}: {error}"));
                continue;
            }
        };
        let mut misses = Vec::new();
        for (point, record) in records.iter().enumerate() {
            for (tool, kind) in tools.iter().enumerate() {
                let key = JobKey::new(kind.name(), record.content_hash.as_str());
                let cached: Option<CachedRouting> =
                    tracer.time("store.read_cached", || store.read_cached(&key));
                if cached
                    .filter(|c| c.tool_seed == DEFAULT_TOOL_SEED)
                    .is_none()
                {
                    misses.push((tool, point, key));
                }
                ctx.jobs += 1;
            }
        }
        if misses.is_empty() {
            continue;
        }
        let loaded = match tracer.time("store.load_shard", || store.load_shard(shard)) {
            Ok(loaded) => loaded,
            Err(error) => {
                ctx.fail(format!("{stage}: loading shard {shard}: {error}"));
                continue;
            }
        };
        for (tool, point, key) in misses {
            let circuit = loaded[point].benchmark.circuit();
            let designed = loaded[point].swap_count;
            let routed_circuit =
                match tracer.time(&route_spans[tool], || routers[tool].route(circuit, arch)) {
                    Ok(routed_circuit) => routed_circuit,
                    Err(error) => {
                        ctx.fail(format!("{}: {error}", route_spans[tool]));
                        continue;
                    }
                };
            if let Err(error) = tracer.time("validate", || {
                validate_routing(circuit, arch, &routed_circuit)
            }) {
                ctx.fail(format!("{}: invalid routing: {error}", route_spans[tool]));
            }
            let swaps = routed_circuit.swap_count();
            if swaps < designed {
                ctx.fail(format!(
                    "{}: {swaps} SWAPs below the designed optimum {designed}",
                    route_spans[tool]
                ));
            }
            ctx.add(&format!("{}.swaps", route_spans[tool]), swaps as u64);
            ctx.add("designed.swaps", designed as u64);
            routed += 1;
            let entry = CachedRouting {
                tool: tools[tool].name().to_string(),
                tool_seed: DEFAULT_TOOL_SEED,
                circuit_hash: records[point].content_hash.clone(),
                swaps,
            };
            if let Err(error) =
                tracer.time("store.write_cached", || store.write_cached(&key, &entry))
            {
                ctx.fail(format!("{stage}: cache write: {error}"));
            }
        }
    }

    let pairs = (store.total_instances() * tools.len()) as u64;
    let expected = if cold { pairs } else { 0 };
    if routed != expected {
        ctx.fail(format!(
            "{stage}: routed {routed} pairs, expected {expected}"
        ));
    }
    let oracle = arch.oracle_stats().since(&oracle_before);
    ctx.add("oracle.queries", oracle.queries);
    ctx.add("oracle.rows_computed", oracle.rows_computed);
    ctx.add("oracle.cache_hits", oracle.cache_hits);
    ctx.add("oracle.pinned_hits", oracle.pinned_hits);
    ctx.add("oracle.landmark_queries", oracle.landmark_queries);
    ctx.add("oracle.exact_fallbacks", oracle.exact_fallbacks);
    let cache = store.cache_stats().delta_since(&cache_before);
    ctx.add("store.cache.hits", cache.hits);
    ctx.add("store.cache.misses", cache.misses);
    ctx.add("store.cache.corrupt", cache.corrupt_entries);
}

/// The optimality study per circuit: generate, check the certificate, and
/// (up to the SWAP limit) prove the optimum with the exact solver.
fn certify_stage(ctx: &mut Ctx<'_>, arch: &Architecture) {
    let tracer = ctx.tracer;
    let _stage = tracer.enter("stage.certify");
    let suite = &ctx.spec.suite;
    let limit = ctx.spec.exact_swap_limit;
    let solver = ExactSolver::new(ExactConfig::default());
    for flat in 0..suite.total_circuits() {
        ctx.jobs += 1;
        let (count_index, instance) = suite.instance_coordinates(flat);
        let designed = suite.swap_counts[count_index];
        let config = GeneratorConfig::new(designed, suite.two_qubit_gates)
            .with_seed(suite.instance_seed(count_index, instance));
        let benchmark = match tracer.time("generate", || generate(arch, &config)) {
            Ok(benchmark) => benchmark,
            Err(error) => {
                ctx.fail(format!("generate #{flat}: {error}"));
                continue;
            }
        };
        if let Err(error) = tracer.time("certificate", || verify_certificate(&benchmark, arch)) {
            ctx.fail(format!("certificate #{flat}: {error}"));
            continue;
        }
        if designed > limit {
            continue;
        }
        ctx.add("exact.eligible", 1);
        let result = tracer.time("exact", || solver.solve(benchmark.circuit(), arch));
        for query in &result.queries {
            ctx.add("exact.nodes", query.nodes);
            ctx.add(&format!("exact.nodes.k{}", query.swaps), query.nodes);
            if query.outcome == QueryOutcome::BudgetExhausted {
                ctx.add("exact.budget_exhausted", 1);
            }
        }
        match result.optimal_swaps {
            Some(optimal) if result.proven && optimal == designed => ctx.add("exact.decided", 1),
            Some(optimal) if result.proven => ctx.fail(format!(
                "exact #{flat}: proved {optimal}, designed {designed}"
            )),
            _ => {}
        }
    }
}

/// Export → verify → cold eval → warm eval → analytics, one call at a time.
fn corpus_stages(ctx: &mut Ctx<'_>, arch: &Architecture, vfs: &Arc<MemVfs>) {
    let tracer = ctx.tracer;
    let spec = ctx.spec;
    let instances = spec.suite.total_circuits() as u64;
    let store = {
        let _stage = tracer.enter("stage.export");
        match tracer.time("store.export", || spec.export(vfs, 1)) {
            Ok(store) => store,
            Err(error) => return ctx.fail(error),
        }
    };

    // Verify: regenerate each instance and compare it with the stored QASM,
    // both parsed and re-emitted byte for byte.
    {
        let _stage = tracer.enter("stage.verify");
        for shard in 0..store.shard_count() {
            let records = match tracer.time("store.shard_records", || store.shard_records(shard)) {
                Ok(records) => records,
                Err(error) => {
                    ctx.fail(format!("verify: shard {shard}: {error}"));
                    continue;
                }
            };
            for record in &records {
                ctx.jobs += 1;
                let config = GeneratorConfig::new(record.swap_count, spec.suite.two_qubit_gates)
                    .with_seed(record.seed);
                let Ok(benchmark) = tracer.time("generate", || generate(arch, &config)) else {
                    ctx.fail(format!("verify: cannot regenerate {}", record.file));
                    continue;
                };
                let path = Path::new(CORPUS_ROOT).join(&record.file);
                let Some(stored) = tracer.time("store.read_file", || vfs.peek(&path)) else {
                    ctx.fail(format!("verify: {} missing", record.file));
                    continue;
                };
                ctx.add("qasm.bytes", stored.len() as u64);
                let parsed = tracer.time("qasm.parse", || parse_qasm(&stored));
                let emitted = tracer.time("qasm.emit", || to_qasm(benchmark.circuit()));
                if parsed.as_ref().ok() != Some(benchmark.circuit()) || *emitted != *stored {
                    ctx.fail(format!("verify: {} does not round-trip", record.file));
                }
            }
        }
    }

    eval_stage(ctx, arch, &store, "eval-cold", true);
    eval_stage(ctx, arch, &store, "eval-warm", false);

    {
        let _stage = tracer.enter("stage.analytics");
        let config = AnalyticsConfig {
            tools: spec.tools.clone(),
            tool_seed: DEFAULT_TOOL_SEED,
            threads: 1,
        };
        match tracer.time("analytics", || run_suite_analytics(&store, &config)) {
            Ok(report) => {
                ctx.jobs += instances;
                if report.summary.instances != instances
                    || report.summary.tools.iter().any(|t| t.covered != instances)
                {
                    ctx.fail("analytics: coverage incomplete".to_string());
                }
            }
            Err(error) => ctx.fail(format!("analytics: {error}")),
        }
    }
    let peak = store.residency_peak() as u64;
    if peak != 1 {
        ctx.fail(format!("residency peak {peak} (streaming keeps it at 1)"));
    }
    ctx.add("store.residency_peak", peak);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::check_subtree;
    use crate::workload::{run, setup, Workload};
    use qubikos_engine::NullSink;

    /// The workload scaled down to test size: same devices, tools and code
    /// paths, fewer and shorter circuits.
    fn small(workload: Workload) -> Spec {
        let mut spec = workload.spec(7);
        let (counts, per_count, gates) = match workload {
            Workload::Fig4Rochester | Workload::GreedyEagle => (vec![5], 1, 80),
            Workload::CertifyGrid => (vec![1, 2, 4], 3, 20),
            Workload::CorpusGrid => (vec![5, 10], 6, 30),
        };
        spec.suite.swap_counts = counts;
        spec.suite.circuits_per_count = per_count;
        spec.suite.two_qubit_gates = gates;
        spec.shard_size = 5;
        spec
    }

    #[test]
    fn replayed_counters_repeat_exactly() {
        for workload in Workload::ALL {
            let spec = small(workload);
            let first = replay(&spec, &Tracer::new(true));
            let second = replay(&spec, &Tracer::new(false));
            assert!(
                first.failures.is_empty(),
                "{}: {:?}",
                workload.name(),
                first.failures
            );
            assert_eq!(first.counters, second.counters, "{}", workload.name());
            let expected: &[&str] = match workload.kind() {
                Kind::Eval => &[
                    "designed.swaps",
                    "store.cache.misses",
                    "store.bytes_written",
                ],
                Kind::Certify => &["exact.nodes", "exact.nodes.k1", "exact.decided"],
                Kind::Corpus => &["route.tket.swaps", "store.cache.hits", "qasm.bytes"],
            };
            for name in expected {
                assert!(
                    first.counters.get(*name).copied().unwrap_or(0) > 0,
                    "{}: {name}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn landmark_counters_appear_only_on_sparse_devices() {
        let eagle = replay(&small(Workload::GreedyEagle), &Tracer::new(false));
        let rochester = replay(&small(Workload::Fig4Rochester), &Tracer::new(false));
        assert!(eagle.counters["oracle.landmark_queries"] > 0);
        assert_eq!(rochester.counters["oracle.landmark_queries"], 0);
    }

    #[test]
    fn traced_stages_add_up_and_pipelines_pass_their_checks() {
        for workload in Workload::ALL {
            let spec = small(workload);
            let tracer = Tracer::new(true);
            replay(&spec, &tracer);
            let spans = tracer.spans();
            let stages: Vec<usize> = (0..spans.len())
                .filter(|&i| spans[i].name.starts_with("stage."))
                .collect();
            assert!(!stages.is_empty());
            for stage in stages {
                assert_eq!(
                    spans[stage].parent,
                    Some(0),
                    "stages hang off the workload span"
                );
                check_subtree(&spans, stage).unwrap();
            }

            let prepared = setup(&spec).unwrap();
            let outcome = run(&spec, &prepared, &NullSink);
            assert!(
                outcome.failures.is_empty(),
                "{}: {:?}",
                workload.name(),
                outcome.failures
            );
            assert_eq!(outcome.failed_jobs, 0);
            assert!(outcome.jobs > 0);
        }
    }
}
