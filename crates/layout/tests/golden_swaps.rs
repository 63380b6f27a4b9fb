//! Golden SWAP-count regression fixtures.
//!
//! Routes a fixed set of seeded circuits (line, grid, heavy-hex) through all
//! four routers at a fixed seed and asserts the exact per-router SWAP
//! counts. Any future kernel or router change that silently alters routing
//! decisions — a reordered candidate scan, a float-associativity change in
//! the incremental scorer, a different tie-break stream — fails here loudly
//! instead of drifting the paper's Figure-4 numbers.
//!
//! If a change *intentionally* alters routing decisions, regenerate the
//! constants below and record the swap-count movement in the PR description.

use qubikos_arch::{devices, Architecture};
use qubikos_circuit::{Circuit, Gate};
use qubikos_layout::{validate_routing, ToolKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Seed handed to every router (mirrors the harness's `tool_seed` role).
const TOOL_SEED: u64 = 11;

/// A seeded random circuit with roughly 1/4 single-qubit gates, so the
/// fixtures also pin the attached/trailing single-qubit gate scheduling.
fn random_circuit(num_qubits: usize, gates: usize, seed: u64) -> Circuit {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut c = Circuit::new(num_qubits);
    for _ in 0..gates {
        let a = rng.gen_range(0..num_qubits);
        let mut b = rng.gen_range(0..num_qubits);
        while b == a {
            b = rng.gen_range(0..num_qubits);
        }
        if rng.gen_range(0..4) == 0 {
            c.push(Gate::h(a));
        } else {
            c.push(Gate::cx(a, b));
        }
    }
    c
}

/// Golden counts in [`ToolKind::ALL`] order: lightsabre, ml-qls, qmap, tket.
fn check_fixture(name: &str, arch: &Architecture, circuit: &Circuit, golden: [usize; 4]) {
    for (tool, expected) in ToolKind::ALL.into_iter().zip(golden) {
        let routed = tool.build(TOOL_SEED).route(circuit, arch).expect("fits");
        validate_routing(circuit, arch, &routed).expect("valid routing");
        assert_eq!(
            routed.swap_count(),
            expected,
            "{name}/{tool}: routing decisions changed (got {}, golden {expected})",
            routed.swap_count()
        );
    }
}

#[test]
fn golden_swap_counts_on_line() {
    let arch = devices::line(8);
    let circuit = random_circuit(6, 30, 42);
    check_fixture("line-8", &arch, &circuit, [10, 16, 29, 25]);
}

#[test]
fn golden_swap_counts_on_grid() {
    let arch = devices::grid(4, 4);
    let circuit = random_circuit(12, 60, 7);
    check_fixture("grid-4x4", &arch, &circuit, [16, 34, 48, 52]);
}

#[test]
fn golden_swap_counts_on_heavy_hex() {
    let arch = devices::rochester53();
    let circuit = random_circuit(20, 60, 3);
    check_fixture("rochester-53", &arch, &circuit, [54, 71, 107, 85]);
}

/// The sparse oracle answers exactly the distances the dense matrix does, so
/// forcing it onto the fixture devices must reproduce every golden count
/// bit-for-bit — the acceptance gate for swapping oracle implementations out
/// from under the routers. Osprey-433 is the largest built-in device and the
/// one where the sparse tier's row cache is under the most pressure.
#[test]
fn golden_swap_counts_unchanged_under_sparse_oracle() {
    use qubikos::queko::{generate_queko, QuekoConfig};
    use qubikos_graph::OracleKind;
    /// (name, dense-oracle arch, circuit, golden counts).
    type Fixture = (&'static str, Architecture, Circuit, [usize; 4]);
    let osprey = devices::osprey433();
    let osprey_queko = generate_queko(
        &osprey,
        &QuekoConfig::new(5).with_density(0.05).with_seed(9),
    )
    .expect("generates");
    let fixtures: [Fixture; 4] = [
        (
            "line-8",
            devices::line(8),
            random_circuit(6, 30, 42),
            [10, 16, 29, 25],
        ),
        (
            "grid-4x4",
            devices::grid(4, 4),
            random_circuit(12, 60, 7),
            [16, 34, 48, 52],
        ),
        (
            "rochester-53",
            devices::rochester53(),
            random_circuit(20, 60, 3),
            [54, 71, 107, 85],
        ),
        (
            "osprey-433",
            osprey.clone(),
            osprey_queko.circuit().clone(),
            [2, 22, 4, 4],
        ),
    ];
    for (name, dense_arch, circuit, golden) in fixtures {
        assert_eq!(dense_arch.oracle_kind(), OracleKind::Dense);
        let sparse_arch = Architecture::with_oracle(
            dense_arch.name(),
            dense_arch.coupling_graph().clone(),
            OracleKind::Sparse,
        )
        .expect("connected");
        check_fixture(name, &sparse_arch, &circuit, golden);
        assert!(sparse_arch.oracle_stats().rows_computed > 0);
    }
}

/// The construction kit's new cost axis, pinned: the four named
/// compositions re-run with **fidelity-derived (non-uniform) coupler
/// weights** forced on, and the resulting SWAP counts fixed as a fresh
/// golden scenario. The uniform fixtures above stay untouched — this pins
/// the weighted decision stream *next to* them, so a change to the weight
/// hash or the `swap_multiplier` composition under non-uniform weights
/// fails here while the bit-identity fixtures keep
/// guarding the classic path. QMAP's A* ignores the weight axis (the spec
/// canonicalizes it away), so its counts must equal the uniform goldens.
#[test]
fn golden_swap_counts_under_fidelity_weights() {
    use qubikos_layout::{Router, RouterSpec, WeightsSpec};
    /// Seed of the synthetic per-coupler noise model (not the routing seed).
    const WEIGHT_SEED: u64 = 5;
    /// (name, arch, circuit qubits, gates, seed, weighted golden counts).
    type Fixture = (&'static str, Architecture, usize, usize, u64, [usize; 4]);
    let fixtures: [Fixture; 3] = [
        ("line-8", devices::line(8), 6, 30, 42, [11, 16, 29, 17]),
        (
            "grid-4x4",
            devices::grid(4, 4),
            12,
            60,
            7,
            [40, 103, 48, 110],
        ),
        (
            "rochester-53",
            devices::rochester53(),
            20,
            60,
            3,
            [1757, 2302, 107, 493],
        ),
    ];
    for (name, arch, qubits, gates, seed, golden) in fixtures {
        let circuit = random_circuit(qubits, gates, seed);
        for (tool, expected) in ToolKind::ALL.into_iter().zip(golden) {
            let spec = RouterSpec {
                weights: WeightsSpec::Fidelity { seed: WEIGHT_SEED },
                ..tool.spec()
            }
            .canonicalized();
            let routed = spec
                .build_named(TOOL_SEED, tool.name())
                .route(&circuit, &arch)
                .expect("fits");
            validate_routing(&circuit, &arch, &routed).expect("valid routing");
            assert_eq!(
                routed.swap_count(),
                expected,
                "{name}/{tool} (fidelity-weighted): routing decisions changed (got {}, golden {expected})",
                routed.swap_count()
            );
        }
    }
}

/// Osprey-433 golden fixture: one small QUEKO instance routed by all four
/// tools on the auto-selected dense oracle, exact SWAP counts pinned. The
/// counts were taken when Osprey still routed through the landmark-backed
/// sparse oracle, so they also pin that the move to the dense table changed
/// no routing decision at scale.
#[test]
fn golden_swap_counts_on_osprey433_queko() {
    use qubikos::queko::{generate_queko, QuekoConfig};
    use qubikos_graph::OracleKind;
    let arch = devices::osprey433();
    assert_eq!(arch.oracle_kind(), OracleKind::Dense);
    let queko = generate_queko(&arch, &QuekoConfig::new(5).with_density(0.05).with_seed(9))
        .expect("generates");
    check_fixture("osprey-433", &arch, queko.circuit(), [2, 22, 4, 4]);
}

/// QMAP SWAP-stream fixtures on realistic QUBIKOS instances: 400 two-qubit
/// gates with 10 and 20 designed SWAPs on rochester-53 and sycamore-54. At
/// this size the A* exhausts its 4,000-expansion budget on several layers
/// per route, so the digests pin the budget fallback and its greedy
/// completion as well as the search's expansion order. The digest is the
/// content hash of the routed circuit's QASM, so any change to a single
/// SWAP (or to where a gate lands between SWAPs) fails here, not only a
/// change in the count.
#[test]
fn golden_qmap_swap_streams_on_qubikos_instances() {
    use qubikos::manifest::content_hash;
    use qubikos::{generate, GeneratorConfig};
    use qubikos_circuit::to_qasm;
    /// (name, arch, designed SWAPs, golden SWAP count, golden QASM digest).
    type Fixture = (&'static str, Architecture, usize, usize, &'static str);
    let fixtures: [Fixture; 4] = [
        (
            "rochester-53",
            devices::rochester53(),
            10,
            771,
            "39f431ab60212b4e20c3a17595e0370c",
        ),
        (
            "rochester-53",
            devices::rochester53(),
            20,
            937,
            "4aa711c693f7a59560c08dba44410e86",
        ),
        (
            "sycamore-54",
            devices::sycamore54(),
            10,
            679,
            "3e7f299120d8f9187a4a0908860987ff",
        ),
        (
            "sycamore-54",
            devices::sycamore54(),
            20,
            752,
            "007934747609e2511edcf96bbfdcccea",
        ),
    ];
    for (name, arch, designed, swaps, digest) in fixtures {
        let instance =
            generate(&arch, &GeneratorConfig::new(designed, 400).with_seed(1)).expect("generates");
        let circuit = instance.circuit();
        let routed = ToolKind::Qmap
            .build(TOOL_SEED)
            .route(circuit, &arch)
            .expect("fits");
        validate_routing(circuit, &arch, &routed).expect("valid routing");
        let got = content_hash(&to_qasm(&routed.physical_circuit));
        assert_eq!(
            (routed.swap_count(), got.as_str()),
            (swaps, digest),
            "{name} designed {designed}: qmap SWAP stream changed"
        );
    }
}

/// SWAP-stream fixtures for the three heuristic tools on Eagle-127 QUBIKOS
/// instances: 400 two-qubit gates with 10 and 20 designed SWAPs, generator
/// seed 1. The digests were taken while Eagle still routed through the
/// landmark-backed sparse oracle with bound-pruned candidate scans, so they
/// pin that moving the device onto the dense table left every SWAP — and
/// every gate between SWAPs — where it was. The digest is the content hash
/// of the routed circuit's QASM.
#[test]
fn golden_swap_streams_on_eagle127_qubikos() {
    use qubikos::manifest::content_hash;
    use qubikos::{generate, GeneratorConfig};
    use qubikos_circuit::to_qasm;
    /// (designed SWAPs, tool, golden SWAP count, golden QASM digest).
    type Fixture = (usize, ToolKind, usize, &'static str);
    let fixtures: [Fixture; 6] = [
        (
            10,
            ToolKind::LightSabre,
            270,
            "47bc207694d1d3d40d6318071b2515af",
        ),
        (10, ToolKind::Tket, 463, "0f8b21a6f5ff85df1eabbf98a73d0cba"),
        (10, ToolKind::MlQls, 434, "65e707e93f2b64f5fe03079fd335ea9a"),
        (
            20,
            ToolKind::LightSabre,
            433,
            "9b2186cfafa564ac9c89d376a88bcd41",
        ),
        (20, ToolKind::Tket, 1077, "2ce80e3a1c56c61bcbef83bbe8df9a8e"),
        (20, ToolKind::MlQls, 457, "1d5aa7dc957df468fdba162d3811d0a8"),
    ];
    let arch = devices::eagle127();
    for (designed, tool, swaps, digest) in fixtures {
        let instance =
            generate(&arch, &GeneratorConfig::new(designed, 400).with_seed(1)).expect("generates");
        let circuit = instance.circuit();
        let routed = tool.build(TOOL_SEED).route(circuit, &arch).expect("fits");
        validate_routing(circuit, &arch, &routed).expect("valid routing");
        let got = content_hash(&to_qasm(&routed.physical_circuit));
        assert_eq!(
            (routed.swap_count(), got.as_str()),
            (swaps, digest),
            "eagle-127 designed {designed}: {tool} SWAP stream changed"
        );
    }
}
