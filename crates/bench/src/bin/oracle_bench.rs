//! Distance-oracle scaling smoke for nightly CI.
//!
//! Routes a 127-qubit Eagle QUEKO instance and a 433-qubit Osprey QUEKO
//! instance through all four QLS tools twice: on the auto-selected dense
//! table and on a forced sparse (cached-row) oracle. It writes an
//! `oracle_timings.json` report pairing per-router wall-clock medians with
//! the oracle's own counters — queries answered, BFS rows recomputed, cache
//! hits and pinned-row hits. The dense rows show what the default costs; the
//! sparse rows keep the tier that serves user-built graphs above the dense
//! cutoff honest at scale. A routing change that starts thrashing the
//! bounded row cache shows up as a `rows_computed` jump long before it
//! costs enough wall-clock to fail a timing gate. Both oracles answer exact
//! distances, so each tool's `swap_count` must match across them.
//!
//! ```text
//! oracle_bench                                # print the table
//! oracle_bench --json oracle_timings.json    # also export JSON
//! oracle_bench --samples 5                   # more samples per route
//! ```

use qubikos::queko::{generate_queko, QuekoConfig};
use qubikos_arch::{devices, Architecture};
use qubikos_bench::microbench::TimingSamples;
use qubikos_circuit::Circuit;
use qubikos_graph::OracleKind;
use qubikos_layout::ToolKind;
use serde::Serialize;

/// One (device, oracle, tool) row in the JSON export (durations in
/// nanoseconds).
#[derive(Debug, Serialize)]
struct OracleTiming {
    device: String,
    qubits: usize,
    tool: String,
    median_ns: u64,
    min_ns: u64,
    max_ns: u64,
    samples: usize,
    /// SWAPs inserted — pins quality next to speed, as in `router_bench`.
    swap_count: usize,
    /// Oracle backend answering this route's distance queries.
    oracle: String,
    /// Distance queries the route issued (from the warm-up route's
    /// [`qubikos_graph::OracleStats::since`] delta; 0 on the dense table,
    /// which does not count its reads).
    queries: u64,
    /// BFS rows recomputed during the route; the thrash indicator.
    rows_computed: u64,
    /// Queries answered from the bounded row cache.
    cache_hits: u64,
    /// Cache hits on rows pinned for the scorer's current gate front.
    pinned_hits: u64,
    /// Rows resident after the route — never exceeds `cache_capacity`.
    cached_rows: usize,
    /// The oracle's row-cache bound (0 for the dense backend, which holds
    /// every row by construction).
    cache_capacity: usize,
}

fn bench_route(
    arch: &Architecture,
    circuit: &Circuit,
    tool: ToolKind,
    samples: usize,
) -> OracleTiming {
    let router = tool.build(7);
    // Warm-up run doubles as the SWAP-count and oracle-stats witness.
    let before = arch.oracle_stats();
    let routed = router.route(circuit, arch).expect("fits");
    let delta = arch.oracle_stats().since(&before);
    let times = TimingSamples::collect(samples, || {
        let result = router.route(circuit, arch).expect("fits");
        std::hint::black_box(result);
    });
    let (cached_rows, cache_capacity) = match arch.oracle().row_tier() {
        Some(rows) => (rows.cached_rows(), rows.row_cache_capacity()),
        None => (arch.num_qubits(), 0),
    };
    OracleTiming {
        device: arch.name().to_string(),
        qubits: arch.num_qubits(),
        tool: tool.name().to_string(),
        median_ns: times.median_ns(),
        min_ns: times.min_ns(),
        max_ns: times.max_ns(),
        samples,
        swap_count: routed.swap_count(),
        oracle: arch.oracle_kind().name().to_string(),
        queries: delta.queries,
        rows_computed: delta.rows_computed,
        cache_hits: delta.cache_hits,
        pinned_hits: delta.pinned_hits,
        cached_rows,
        cache_capacity,
    }
}

/// Routes `circuit` through every tool on the auto-selected oracle of
/// `device` and on a forced sparse rebuild of it, checking that both
/// oracles give every tool the same SWAP count.
fn bench_device(
    device: &Architecture,
    circuit: &Circuit,
    samples: usize,
    rows: &mut Vec<OracleTiming>,
) {
    let sparse = Architecture::with_oracle(
        device.name(),
        device.coupling_graph().clone(),
        OracleKind::Sparse,
    )
    .expect("rebuilt from a valid architecture");
    let start = rows.len();
    for arch in [device, &sparse] {
        for tool in ToolKind::ALL {
            rows.push(bench_route(arch, circuit, tool, samples));
        }
    }
    let (auto, forced) = rows[start..].split_at(ToolKind::ALL.len());
    for (a, f) in auto.iter().zip(forced) {
        assert_eq!(
            a.swap_count, f.swap_count,
            "{}/{}: the oracle tier changed a routing decision",
            a.device, a.tool
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = qubikos_bench::microbench::json_path_flag(&args);
    let samples = qubikos_bench::microbench::samples_flag(&args, 3);

    let mut rows = Vec::new();
    println!(
        "{:<12} {:<7} {:<12} {:>10} {:>7} {:>12} {:>8} {:>10} {:>8}",
        "device", "oracle", "tool", "median", "swaps", "queries", "rows", "hits", "pinned"
    );

    // Eagle-127 through all four routers: the headline scaling scenario.
    // Density 0.05 keeps the source working set inside the sparse row cache
    // (the cliff sat between 0.05 and 0.08 at 64 slots — see the
    // routing-scale test in `qubikos`), so its sparse rows double as a
    // thrash tripwire.
    let eagle = devices::eagle127();
    let queko = generate_queko(&eagle, &QuekoConfig::new(6).with_density(0.05).with_seed(5))
        .expect("generates");
    bench_device(&eagle, queko.circuit(), samples, &mut rows);

    // Osprey-433 through all four routers: 3.4x the qubits, and on the
    // sparse rows a row cache that stays sublinear in n².
    // Shallow density keeps the (deliberately expensive) A* router
    // affordable; the oracle counters don't depend on instance size.
    let osprey = devices::osprey433();
    let queko = generate_queko(
        &osprey,
        &QuekoConfig::new(6).with_density(0.01).with_seed(8),
    )
    .expect("generates");
    bench_device(&osprey, queko.circuit(), samples, &mut rows);

    for row in &rows {
        println!(
            "{:<12} {:<7} {:<12} {:>7.1} ms {:>7} {:>12} {:>8} {:>10} {:>8}",
            row.device,
            row.oracle,
            row.tool,
            row.median_ns as f64 / 1e6,
            row.swap_count,
            row.queries,
            row.rows_computed,
            row.cache_hits,
            row.pinned_hits,
        );
    }

    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&rows).expect("timings serialize");
        std::fs::write(&path, json).expect("timing JSON is writable");
        eprintln!("wrote oracle timings to {path}");
    }
}
