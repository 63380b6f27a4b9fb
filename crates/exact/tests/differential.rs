//! Differential tests: the optimized search core against the pre-refactor
//! clone-per-branch DFS.
//!
//! The rewrite changed everything about *how* the space is searched —
//! in-place do/undo state, transposition table, SWAP-sequence
//! canonicalization, the packing lower bound — and none of it may change
//! *what* is found: `optimal_swaps` and `proven` must be bit-identical on
//! every instance both solvers can afford. Randomized circuits on a line and
//! a grid exercise exactly the regimes where the dedup/canonicalization
//! machinery fires (many commuting SWAP orderings on the line, branching
//! placements on the grid).
//!
//! The root symmetry breaking (one first placement per orbit of directed
//! couplers under the device's automorphisms) is checked on the symmetric
//! devices it folds — the 3x3 grid (8 automorphisms), Aspen-4 (4) and a
//! line (2) — and by relabeling invariance: the same circuit on a device
//! whose physical qubits are randomly renumbered has the same answer.

use proptest::prelude::*;
use qubikos_arch::{devices, Architecture};
use qubikos_circuit::{Circuit, Gate};
use qubikos_exact::solver::reference::ReferenceSolver;
use qubikos_exact::{ExactConfig, ExactSolver};
use qubikos_graph::Graph;

/// Strategy: a random all-two-qubit circuit (single-qubit gates never affect
/// SWAP optimality, so they would only dilute the search).
fn arb_circuit(num_qubits: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    let gate = (0..num_qubits, 0..num_qubits).prop_filter_map("distinct qubits", move |(a, b)| {
        (a != b).then(|| Gate::cx(a, b))
    });
    proptest::collection::vec(gate, 1..max_gates + 1)
        .prop_map(move |gates| Circuit::from_gates(num_qubits, gates))
}

/// Strategy: a uniformly random permutation of `0..n` (the ranks of `n`
/// random keys).
fn arb_permutation(n: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..u64::MAX, n..n + 1).prop_map(|keys| {
        let mut perm: Vec<usize> = (0..keys.len()).collect();
        perm.sort_by_key(|&i| keys[i]);
        perm
    })
}

/// Config both solvers share; the budget is generous enough that every
/// generated instance is decided, so `proven` disagreements cannot hide
/// behind budget noise.
fn config(max_swaps: usize) -> ExactConfig {
    ExactConfig {
        max_swaps,
        node_budget: 5_000_000,
    }
}

fn assert_solvers_agree(circuit: &Circuit, arch: &qubikos_arch::Architecture, max_swaps: usize) {
    let optimized = ExactSolver::new(config(max_swaps)).solve(circuit, arch);
    let reference = ReferenceSolver::new(config(max_swaps)).solve(circuit, arch);
    assert_eq!(
        optimized.optimal_swaps, reference.optimal_swaps,
        "optimal_swaps diverged on {circuit:?}"
    );
    assert_eq!(
        optimized.proven, reference.proven,
        "proven diverged on {circuit:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Line devices maximise commuting-SWAP orderings — the transposition
    /// table's and the canonicalizer's favourite failure surface.
    #[test]
    fn optimized_and_reference_agree_on_the_line(circuit in arb_circuit(4, 7)) {
        let arch = devices::line(4);
        assert_solvers_agree(&circuit, &arch, 3);
    }

    /// Grid devices maximise placement branching (degree-4 centre), the
    /// in-place ready-set bookkeeping's favourite failure surface.
    #[test]
    fn optimized_and_reference_agree_on_the_grid(circuit in arb_circuit(6, 6)) {
        let arch = devices::grid(2, 3);
        assert_solvers_agree(&circuit, &arch, 2);
    }

    /// The 3x3 grid has the largest automorphism group of the §IV-A devices
    /// (8), so the root keeps only 4 of its 24 directed couplers.
    #[test]
    fn optimized_and_reference_agree_on_the_3x3_grid(circuit in arb_circuit(6, 7)) {
        let arch = devices::grid(3, 3);
        assert_solvers_agree(&circuit, &arch, 2);
    }

    /// Renumbering the physical qubits changes the coupler order, hence
    /// which directed coupler represents each root orbit, the canonical
    /// SWAP order and the Zobrist keys — but never the answer.
    #[test]
    fn answers_are_invariant_under_relabeling_the_device(
        circuit in arb_circuit(6, 7),
        perm in arb_permutation(9),
    ) {
        let arch = devices::grid(3, 3);
        let relabeled = relabel(&arch, &perm);
        let solver = ExactSolver::new(config(3));
        let original = solver.solve(&circuit, &arch);
        let renumbered = solver.solve(&circuit, &relabeled);
        prop_assert_eq!(original.optimal_swaps, renumbered.optimal_swaps);
        prop_assert_eq!(original.proven, renumbered.proven);
    }
}

/// `arch` with physical qubit `q` renamed to `perm[q]`.
fn relabel(arch: &Architecture, perm: &[usize]) -> Architecture {
    let edges = arch.couplers().map(|e| (perm[e.u], perm[e.v]));
    Architecture::new("relabeled", Graph::from_edges(arch.num_qubits(), edges))
        .expect("a relabeled connected graph is connected")
}

/// A fixed sweep of deterministic seeds over real QUBIKOS instances — the
/// exact population the §IV-A study feeds the solver — so the differential
/// check also covers the generator's structured (backbone + padding) shape,
/// not just uniform-random circuits.
#[test]
fn optimized_and_reference_agree_on_qubikos_instances() {
    use qubikos::{generate, GeneratorConfig};
    let arch = devices::grid(3, 3);
    for designed in 1..=2usize {
        for seed in 0..3u64 {
            let bench = generate(&arch, &GeneratorConfig::new(designed, 12).with_seed(seed))
                .expect("generates");
            assert_solvers_agree(bench.circuit(), &arch, 3);
        }
    }
}

/// QUBIKOS instances on the other two symmetric devices: Aspen-4 (the
/// second §IV-A device, 4 automorphisms) and a line (2). Aspen-4 stays at
/// 8 gates: at 12, a feasible query can cost one solver or the other more
/// than the shared budget (search-order luck, not a soundness gap), and a
/// budget verdict would hide behind `proven`.
#[test]
fn optimized_and_reference_agree_on_symmetric_device_qubikos_instances() {
    use qubikos::{generate, GeneratorConfig};
    for (arch, gates) in [(devices::aspen4(), 8), (devices::line(6), 12)] {
        for designed in 1..=2usize {
            for seed in 0..3u64 {
                let bench = generate(
                    &arch,
                    &GeneratorConfig::new(designed, gates).with_seed(seed),
                )
                .expect("generates");
                assert_solvers_agree(bench.circuit(), &arch, 3);
            }
        }
    }
}
