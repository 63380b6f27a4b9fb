//! Routing-scale gates for the sparse (cached-row) distance oracle.
//!
//! Every built-in device routes on the dense table by default; the sparse
//! tier serves user-built graphs above the dense cutoff. These gates force
//! it onto the two largest built-in devices through
//! [`Architecture::with_oracle`], so the tier is exercised at the scale it
//! exists for.
//!
//! Routes QUEKO instances on the 127-qubit Eagle heavy-hex device through
//! all four routers and asserts — via per-route `oracle_stats` deltas —
//! that no dense 127² distance matrix was ever materialized and that no
//! single router thrashes the row cache: every router stays under the 8k
//! row-recompute ceiling on its own, and the scorer-based routers re-hit
//! front-pinned rows. Also pins the oracle's memory shape on the 433-qubit
//! Osprey lattice, compares Osprey's per-gate routing wall-clock against
//! grid(4,4) at benchmark density, and checks that routing results are
//! identical whether the shared architecture is queried from one thread or
//! many (cache state is a performance artifact, never a correctness input).

use std::time::Instant;

use qubikos::queko::{generate_queko, QuekoConfig};
use qubikos_arch::{devices, Architecture};
use qubikos_circuit::Circuit;
use qubikos_graph::{OracleKind, OracleStats};
use qubikos_layout::{validate_routing, Router, SabreConfig, SabreRouter, ToolKind};

const TOOL_SEED: u64 = 11;

/// `device` rebuilt on the sparse oracle with its default row capacity.
fn sparse(device: Architecture) -> Architecture {
    assert_eq!(device.oracle_kind(), OracleKind::Dense);
    Architecture::with_oracle(
        device.name(),
        device.coupling_graph().clone(),
        OracleKind::Sparse,
    )
    .expect("connected")
}

#[test]
fn eagle127_queko_routes_through_all_four_routers_sparsely() {
    let arch = sparse(devices::eagle127());
    assert_eq!(arch.oracle_stats().rows_computed, 0);

    // Modest depth/density keep the (deliberately expensive) QMAP A* router
    // affordable in debug builds; the oracle assertions below don't depend
    // on instance size.
    let queko = generate_queko(&arch, &QuekoConfig::new(6).with_density(0.05).with_seed(5))
        .expect("generates");
    let mut per_tool: Vec<(ToolKind, OracleStats)> = Vec::new();
    for tool in ToolKind::ALL {
        let before = arch.oracle_stats();
        let routed = tool
            .build(TOOL_SEED)
            .route(queko.circuit(), &arch)
            .expect("fits");
        validate_routing(queko.circuit(), &arch, &routed).expect("valid routing");
        per_tool.push((tool, arch.oracle_stats().since(&before)));
    }

    // A dense matrix holds all 127 rows resident; the sparse row tier must
    // never hold more than its (64-slot) cache —
    // that bound is the "no dense 127² matrix" assertion. QUEKO circuits
    // are device-width, so placement alone makes every qubit a distance
    // source: what stays small is the *resident* row count, not the set of
    // sources ever queried.
    let rows = arch
        .oracle()
        .row_tier()
        .expect("eagle-127 must route through a row-cached oracle");
    assert!(rows.cached_rows() <= rows.row_cache_capacity());
    assert!(
        rows.row_cache_capacity() < arch.num_qubits(),
        "cache as large as the device — dense matrix in disguise"
    );

    // Per-router recompute stays bounded and heavily amortized. Each router
    // over this instance measures hundreds to ~2k row computations against
    // tens of thousands of distance queries; the known cache-thrash
    // regressions (full-row fetches in the swap scorer / multilevel
    // refinement) measured 20k–600k rows, so an 8k per-router ceiling
    // catches them with headroom to spare.
    for (tool, delta) in &per_tool {
        assert!(delta.queries > 0, "{tool}: router never queried the oracle");
        assert!(
            delta.rows_computed < 8_000,
            "{tool}: recomputed {} rows — cache is thrashing",
            delta.rows_computed
        );
        assert!(
            delta.cache_hits > 10 * delta.rows_computed,
            "{tool}: row cache never amortized: {} hits vs {} rows",
            delta.cache_hits,
            delta.rows_computed
        );
    }

    // The SwapScorer-based routers (SABRE family and tket) must re-hit
    // front-pinned rows in cache. Routed on a cold architecture each, so
    // the hits come from this route's own pin set.
    for tool in [ToolKind::LightSabre, ToolKind::Tket] {
        let cold = sparse(devices::eagle127());
        let routed = tool
            .build(TOOL_SEED)
            .route(queko.circuit(), &cold)
            .expect("fits");
        validate_routing(queko.circuit(), &cold, &routed).expect("valid routing");
        let delta = cold.oracle_stats();
        assert!(
            delta.pinned_hits > 0,
            "{tool}: front pinning never re-hit a resident row"
        );
    }
}

#[test]
fn osprey433_memory_stays_sublinear_in_n_squared() {
    let arch = sparse(devices::osprey433());

    // Backbone-only: the memory-shape assertions below are instance-
    // independent, and 433-qubit routing at real densities is covered by
    // the per-gate gate below and the nightly `oracle_bench`.
    let queko = generate_queko(&arch, &QuekoConfig::new(6).with_density(0.0).with_seed(8))
        .expect("generates");
    let routed = ToolKind::LightSabre
        .build(TOOL_SEED)
        .route(queko.circuit(), &arch)
        .expect("fits");
    validate_routing(queko.circuit(), &arch, &routed).expect("valid routing");

    // Peak sparse-tier memory is capacity × n words; a dense matrix would
    // be n × n. The cache bound is the structural guarantee.
    let rows = arch
        .oracle()
        .row_tier()
        .expect("osprey-433 must route through a row-cached oracle");
    let cache_words = rows.row_cache_capacity() * arch.num_qubits();
    let dense_words = arch.num_qubits() * arch.num_qubits();
    assert!(cache_words * 2 < dense_words, "cache not sublinear in n²");
    assert!(rows.cached_rows() <= rows.row_cache_capacity());
    assert!(arch.oracle_stats().rows_computed > 0);
}

/// Osprey-433 at real density routes at grid-like per-gate cost on the
/// sparse oracle: held rows plus front-pinned row caching keep the per-gate
/// wall-clock of a 433-qubit QUEKO route within 5x of the same router on
/// grid(4,4) — without them the cold-cache row fetches in placement and
/// the scan over 504 couplers blow the budget by an order of magnitude
/// (~12x measured before the cache learned pinning).
///
/// Instance pairing: osprey runs at the same density (0.05) the eagle-127
/// acceptance test uses; the grid baseline runs *denser* (0.1) and deeper,
/// which lowers its per-gate cost and makes the 5x bound stricter, not
/// looser. A single trial keeps both sides on the structure-aware greedy
/// placement — extra trials are random restarts whose cost scales with
/// device size, which would measure trial policy, not the oracle.
#[test]
fn osprey433_routes_at_grid_like_per_gate_cost() {
    // Same router config on both devices so the comparison isolates the
    // per-gate oracle + scan cost, not trial counts.
    let router = SabreRouter::new(SabreConfig::default().with_seed(TOOL_SEED).with_trials(1));
    let per_gate = |arch: &Architecture, circuit: &Circuit| -> f64 {
        // Best of three routes: debug-build timing is noisy and the gate is
        // a ratio, so compare each device's best-case per-gate cost.
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            let routed = router.route(circuit, arch).expect("fits");
            let nanos = start.elapsed().as_nanos() as f64;
            assert!(routed.swap_count() > 0 || circuit.gates().is_empty());
            best = best.min(nanos / circuit.gates().len() as f64);
        }
        best
    };

    let grid = devices::grid(4, 4);
    let grid_queko = generate_queko(&grid, &QuekoConfig::new(8).with_density(0.1).with_seed(5))
        .expect("generates");
    let grid_ns = per_gate(&grid, grid_queko.circuit());

    let osprey = sparse(devices::osprey433());
    let osprey_queko = generate_queko(
        &osprey,
        &QuekoConfig::new(5).with_density(0.05).with_seed(9),
    )
    .expect("generates");
    let before = osprey.oracle_stats();
    let osprey_ns = per_gate(&osprey, osprey_queko.circuit());
    let delta = osprey.oracle_stats().since(&before);

    // The per-route stats prove the fast path was really taken: pinned
    // front rows re-hit in cache, and a row-recompute count far below the
    // cold-cache regime.
    assert!(
        delta.pinned_hits > 0,
        "osprey route never re-hit a pinned row"
    );
    assert!(
        delta.rows_computed < 8_000,
        "osprey route recomputed {} rows — cache is thrashing",
        delta.rows_computed
    );

    assert!(
        osprey_ns < 5.0 * grid_ns,
        "osprey-433 per-gate cost {osprey_ns:.0}ns exceeds 5x grid(4,4)'s {grid_ns:.0}ns"
    );
}

/// Routing the same circuits on one shared cached-oracle architecture from
/// many threads (interleaving cache and pin state arbitrarily) must produce
/// exactly the SWAP counts sequential routing produces.
#[test]
fn shared_sparse_oracle_is_deterministic_across_thread_counts() {
    let arch = sparse(devices::eagle127());
    let circuits: Vec<_> = (0..2)
        .map(|seed| {
            generate_queko(
                &arch,
                &QuekoConfig::new(4).with_density(0.1).with_seed(seed),
            )
            .expect("generates")
            .circuit()
            .clone()
        })
        .collect();

    let route_one = |arch: &Architecture, circuit: &qubikos_circuit::Circuit| -> Vec<usize> {
        ToolKind::ALL
            .into_iter()
            .map(|tool| {
                tool.build(TOOL_SEED)
                    .route(circuit, arch)
                    .expect("fits")
                    .swap_count()
            })
            .collect()
    };

    // Sequential baseline on a fresh architecture (cold cache).
    let baseline: Vec<Vec<usize>> = circuits.iter().map(|c| route_one(&arch, c)).collect();

    // Warm, contended cache: all circuits in flight at once on one shared
    // architecture, twice, against a second instance to also cover the
    // fresh-clone path.
    for arch in [&arch, &sparse(devices::eagle127())] {
        let concurrent: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = circuits
                .iter()
                .map(|c| scope.spawn(move || route_one(arch, c)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert_eq!(concurrent, baseline);
    }
}
