//! Router micro-benchmark smoke for nightly CI.
//!
//! Times every QLS tool on two fixed workloads and writes a
//! `router_timings.json` report, so the routing kernel's performance
//! trajectory is measurable change over change next to the engine's
//! `engine_timings.json` artifact:
//!
//! * grid(4,4), 120 two-qubit gates, designed 4 SWAPs — the instance the
//!   `routers` criterion bench uses;
//! * rochester-53, 400 two-qubit gates, designed 10 SWAPs — large enough
//!   that the QMAP A* exhausts its expansion budget on several layers, so
//!   its hot path is timed too.
//!
//! Each row names its `device`.
//!
//! ```text
//! router_bench                                # print the timing table
//! router_bench --json router_timings.json    # also export JSON
//! router_bench --samples 25                  # more samples per tool
//! ```

use qubikos::{generate, GeneratorConfig};
use qubikos_arch::{devices, Architecture};
use qubikos_bench::microbench::TimingSamples;
use qubikos_layout::ToolKind;
use serde::Serialize;

/// One tool's timing row in the JSON export (durations in nanoseconds).
#[derive(Debug, Serialize)]
struct RouterTiming {
    device: String,
    tool: String,
    median_ns: u64,
    min_ns: u64,
    max_ns: u64,
    samples: usize,
    /// SWAPs inserted on the workload — pins the quality side so a "speedup"
    /// that silently trades SWAP count for time is visible in the same file.
    swap_count: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = qubikos_bench::microbench::json_path_flag(&args);
    let samples = qubikos_bench::microbench::samples_flag(&args, 15);

    // The grid workload is the same fixed instance as the
    // `route_grid4x4_120g_4swaps` criterion group (seed 9).
    let workloads: [(Architecture, usize, usize, u64); 2] = [
        (devices::grid(4, 4), 4, 120, 9),
        (devices::rochester53(), 10, 400, 1),
    ];
    let mut rows = Vec::new();
    for (arch, designed, gates, seed) in workloads {
        let workload = generate(
            &arch,
            &GeneratorConfig::new(designed, gates).with_seed(seed),
        )
        .expect("workload generates");
        println!(
            "router timings on {} ({gates} two-qubit gates, designed {designed} SWAPs)",
            arch.name()
        );
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>8}",
            "tool", "median", "min", "max", "swaps"
        );
        for tool in ToolKind::ALL {
            let router = tool.build(7);
            // Warm-up run, also the SWAP-count witness.
            let routed = router.route(workload.circuit(), &arch).expect("fits");
            let times = TimingSamples::collect(samples, || {
                let result = router.route(workload.circuit(), &arch).expect("fits");
                std::hint::black_box(result);
            });
            let row = RouterTiming {
                device: arch.name().to_string(),
                tool: tool.name().to_string(),
                median_ns: times.median_ns(),
                min_ns: times.min_ns(),
                max_ns: times.max_ns(),
                samples,
                swap_count: routed.swap_count(),
            };
            println!(
                "{:<12} {:>9.3} ms {:>9.3} ms {:>9.3} ms {:>8}",
                row.tool,
                row.median_ns as f64 / 1e6,
                row.min_ns as f64 / 1e6,
                row.max_ns as f64 / 1e6,
                row.swap_count
            );
            rows.push(row);
        }
    }

    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&rows).expect("timings serialize");
        std::fs::write(&path, json).expect("timing JSON is writable");
        eprintln!("wrote router timings to {path}");
    }
}
