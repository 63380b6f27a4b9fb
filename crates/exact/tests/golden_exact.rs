//! Golden exact-solver regression fixtures (the `golden_swaps.rs` pattern
//! applied to the OLSQ2 substitute).
//!
//! Solves a fixed set of seeded QUBIKOS instances on Grid3x3 and Aspen-4 and
//! pins `optimal_swaps`, `proven`, **and `nodes_explored`** exactly. The
//! node count is a deliberate tripwire: any change to the search order, the
//! transposition table, the canonicalization rules, the packing bound, or
//! the root symmetry breaking (one first placement per orbit of directed
//! couplers under the device's automorphisms) shifts it — so a regression that silently blows the node budget back up
//! (or an "optimization" that quietly changes answers) fails here loudly
//! instead of drifting the §IV-A study's budget.
//!
//! If a change *intentionally* alters the search, regenerate the constants,
//! record the node-count movement in the PR description, and bump
//! `qubikos_exact::SEARCH_REVISION` so cached optimality verdicts of the
//! old search read as misses. Node counts
//! are deterministic across platforms and optimization levels: every
//! iteration order in the core is fixed and the Zobrist keys come from a
//! seeded SplitMix64 stream.

use qubikos::{generate, GeneratorConfig};
use qubikos_arch::DeviceKind;
use qubikos_exact::{ExactConfig, ExactSolver};

/// One pinned instance: (designed swaps, generator seed, expected nodes).
struct Fixture {
    swaps: usize,
    seed: u64,
    nodes: u64,
}

fn check_fixtures(device: DeviceKind, gates: usize, fixtures: &[Fixture]) {
    let arch = device.build();
    let solver = ExactSolver::new(ExactConfig::default());
    for f in fixtures {
        let bench = generate(
            &arch,
            &GeneratorConfig::new(f.swaps, gates).with_seed(f.seed),
        )
        .expect("generates");
        let result = solver.solve(bench.circuit(), &arch);
        let label = format!("{}/swaps={}/seed={}", device.name(), f.swaps, f.seed);
        assert_eq!(
            result.optimal_swaps,
            Some(f.swaps),
            "{label}: optimum changed"
        );
        assert!(result.proven, "{label}: result no longer proven");
        assert_eq!(
            result.nodes_explored, f.nodes,
            "{label}: search behaviour changed (got {} nodes, golden {})",
            result.nodes_explored, f.nodes
        );
    }
}

#[test]
fn golden_exact_on_grid3x3() {
    check_fixtures(
        DeviceKind::Grid3x3,
        16,
        &[
            Fixture {
                swaps: 1,
                seed: 11,
                nodes: 1445,
            },
            Fixture {
                swaps: 1,
                seed: 29,
                nodes: 1171,
            },
            Fixture {
                swaps: 2,
                seed: 11,
                nodes: 1010,
            },
            Fixture {
                swaps: 2,
                seed: 29,
                nodes: 429,
            },
            Fixture {
                swaps: 3,
                seed: 11,
                nodes: 2585,
            },
            Fixture {
                swaps: 3,
                seed: 29,
                nodes: 3000,
            },
        ],
    );
}

#[test]
fn golden_exact_on_aspen4() {
    check_fixtures(
        DeviceKind::Aspen4,
        12,
        &[
            Fixture {
                swaps: 1,
                seed: 5,
                nodes: 9815,
            },
            Fixture {
                swaps: 1,
                seed: 29,
                nodes: 3640,
            },
            Fixture {
                swaps: 2,
                seed: 5,
                nodes: 113,
            },
            Fixture {
                swaps: 2,
                seed: 29,
                nodes: 659,
            },
        ],
    );
}
