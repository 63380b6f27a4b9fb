//! Exact-solver micro-benchmark smoke for nightly CI.
//!
//! Times the rebuilt search core against the pre-refactor reference DFS on
//! fixed workloads on both §IV-A devices — 16-gate Grid3x3 instances (the
//! same shape as `OptimalityConfig::smoke()` and the `exact_solver`
//! criterion groups) and 12-gate Aspen-4 instances, SWAP counts 1–3 each —
//! and writes an `exact_timings.json` report, so the exact core's
//! performance trajectory is measurable PR-over-PR next to
//! `router_timings.json` and `engine_timings.json`.
//!
//! Node counts ride along with the timings: a "speedup" that silently
//! trades search completeness for time — or a regression that quietly blows
//! the node budget back up — is visible in the same file.
//!
//! ```text
//! exact_bench                               # print the timing table
//! exact_bench --json exact_timings.json    # also export JSON
//! exact_bench --samples 10                 # more samples per instance
//! ```

use qubikos::{generate, GeneratorConfig};
use qubikos_arch::DeviceKind;
use qubikos_bench::microbench::TimingSamples;
use qubikos_exact::solver::reference::ReferenceSolver;
use qubikos_exact::{ExactConfig, ExactSolver};
use serde::Serialize;

/// One instance's timing row in the JSON export (durations in nanoseconds).
#[derive(Debug, Serialize)]
struct ExactTiming {
    device: String,
    designed_swaps: usize,
    seed: u64,
    optimal_swaps: usize,
    proven: bool,
    optimized_median_ns: u64,
    optimized_nodes: u64,
    reference_median_ns: u64,
    reference_nodes: u64,
    /// reference / optimized wall-clock.
    speedup: f64,
    /// reference / optimized nodes explored.
    node_ratio: f64,
    samples: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = qubikos_bench::microbench::json_path_flag(&args);
    let samples = qubikos_bench::microbench::samples_flag(&args, 5);

    let config = ExactConfig::default();
    let optimized = ExactSolver::new(config);
    let reference = ReferenceSolver::new(config);

    let mut rows = Vec::new();
    // Grid3x3 keeps the `exact_solver_grid3x3` criterion group's shape;
    // Aspen-4 (the other §IV-A device) uses the golden fixtures' 12 gates,
    // where the reference DFS still decides every row within the budget.
    for (device, gates) in [(DeviceKind::Grid3x3, 16usize), (DeviceKind::Aspen4, 12)] {
        let arch = device.build();
        println!("exact solver timings on {arch} ({gates} two-qubit gates)");
        println!(
            "{:<6} {:>6} {:>14} {:>14} {:>9} {:>12} {:>12} {:>8}",
            "swaps", "seed", "optimized", "reference", "speedup", "opt nodes", "ref nodes", "ratio"
        );
        for designed_swaps in [1usize, 2, 3] {
            let seed = 9u64;
            let bench = generate(
                &arch,
                &GeneratorConfig::new(designed_swaps, gates).with_seed(seed),
            )
            .expect("workload generates");
            let circuit = bench.circuit();

            // Warm-up runs double as the node-count and answer witnesses.
            let optimized_result = optimized.solve(circuit, &arch);
            let reference_result = reference.solve(circuit, &arch);
            assert_eq!(
                optimized_result.optimal_swaps, reference_result.optimal_swaps,
                "solvers disagree on the workload optimum"
            );
            assert_eq!(optimized_result.optimal_swaps, Some(designed_swaps));
            assert!(optimized_result.proven && reference_result.proven);

            let optimized_median = TimingSamples::collect(samples, || {
                std::hint::black_box(optimized.solve(circuit, &arch));
            })
            .median_ns();
            let reference_median = TimingSamples::collect(samples, || {
                std::hint::black_box(reference.solve(circuit, &arch));
            })
            .median_ns();
            let row = ExactTiming {
                device: device.name().to_string(),
                designed_swaps,
                seed,
                optimal_swaps: optimized_result.optimal_swaps.expect("proven"),
                proven: optimized_result.proven,
                optimized_median_ns: optimized_median,
                optimized_nodes: optimized_result.nodes_explored,
                reference_median_ns: reference_median,
                reference_nodes: reference_result.nodes_explored,
                speedup: reference_median as f64 / optimized_median.max(1) as f64,
                node_ratio: reference_result.nodes_explored as f64
                    / optimized_result.nodes_explored.max(1) as f64,
                samples,
            };
            println!(
                "{:<6} {:>6} {:>11.3} ms {:>11.3} ms {:>8.2}x {:>12} {:>12} {:>7.2}x",
                row.designed_swaps,
                row.seed,
                row.optimized_median_ns as f64 / 1e6,
                row.reference_median_ns as f64 / 1e6,
                row.speedup,
                row.optimized_nodes,
                row.reference_nodes,
                row.node_ratio
            );
            rows.push(row);
        }
    }

    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&rows).expect("timings serialize");
        std::fs::write(&path, json).expect("timing JSON is writable");
        eprintln!("wrote exact timings to {path}");
    }
}
