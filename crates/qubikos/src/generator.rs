//! The QUBIKOS circuit generator (Algorithms 1–3 of the paper).

use crate::benchmark::{QubikosCircuit, Section};
use qubikos_arch::Architecture;
use qubikos_circuit::{Circuit, Gate, OneQubitKind};
use qubikos_graph::{Edge, EdgeWalk, Graph, NodeId};
use qubikos_layout::Mapping;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Configuration of one benchmark instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Desired (and provably optimal) SWAP count.
    pub num_swaps: usize,
    /// Target number of two-qubit gates. If the backbone alone already
    /// exceeds this the circuit simply keeps the backbone (the paper scales
    /// this parameter with the architecture for the same reason).
    pub target_two_qubit_gates: usize,
    /// Fraction of additional single-qubit gates relative to the two-qubit
    /// gate count (cosmetic padding; it never affects SWAP optimality).
    pub single_qubit_ratio: f64,
    /// RNG seed; the same seed always produces the same instance.
    pub seed: u64,
}

impl GeneratorConfig {
    /// Creates a configuration with the paper's defaults for padding.
    pub fn new(num_swaps: usize, target_two_qubit_gates: usize) -> Self {
        GeneratorConfig {
            num_swaps,
            target_two_qubit_gates,
            single_qubit_ratio: 0.1,
            seed: 0,
        }
    }

    /// Returns the configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the configuration with a different single-qubit padding ratio.
    pub fn with_single_qubit_ratio(mut self, ratio: f64) -> Self {
        self.single_qubit_ratio = ratio.max(0.0);
        self
    }
}

/// Errors the generator can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// `num_swaps` was zero; a QUBIKOS instance always forces at least one SWAP.
    ZeroSwaps,
    /// The architecture is too small or too densely connected for the
    /// construction (every SWAP must enable a new interaction, which is
    /// impossible on a complete coupling graph).
    UnsupportedArchitecture {
        /// Explanation of why the architecture cannot host the construction.
        detail: String,
    },
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::ZeroSwaps => write!(f, "QUBIKOS instances need at least one SWAP"),
            GenerateError::UnsupportedArchitecture { detail } => {
                write!(f, "architecture cannot host the construction: {detail}")
            }
        }
    }
}

impl Error for GenerateError {}

/// Generates one QUBIKOS benchmark instance for `arch`.
///
/// # Errors
///
/// Returns [`GenerateError::ZeroSwaps`] when `config.num_swaps == 0` and
/// [`GenerateError::UnsupportedArchitecture`] when the coupling graph is
/// complete (no SWAP can ever enable a new interaction) or has fewer than
/// three qubits.
pub fn generate(
    arch: &Architecture,
    config: &GeneratorConfig,
) -> Result<QubikosCircuit, GenerateError> {
    if config.num_swaps == 0 {
        return Err(GenerateError::ZeroSwaps);
    }
    let coupling = arch.coupling_graph();
    let num_physical = arch.num_qubits();
    if num_physical < 3 {
        return Err(GenerateError::UnsupportedArchitecture {
            detail: format!("{num_physical} qubits are too few"),
        });
    }
    if coupling.edge_count() == num_physical * (num_physical - 1) / 2 {
        return Err(GenerateError::UnsupportedArchitecture {
            detail: "coupling graph is complete; every mapping already connects every pair".into(),
        });
    }

    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut builder = Builder::new(arch, &mut rng, config);
    for _ in 0..config.num_swaps {
        builder.add_section()?;
    }
    builder.pad(config);
    Ok(builder.finish(arch, config))
}

/// Incremental construction state.
///
/// What depends only on the device (the coupler list and the SWAP
/// candidates) is computed once per instance, and every per-section working
/// set lives in [`Scratch`], so a section allocates only its own
/// [`Section`] record and whatever the two circuits need to grow.
struct Builder<'a, 'r> {
    arch: &'a Architecture,
    rng: &'r mut ChaCha8Rng,
    /// Program qubit → physical qubit, evolving as SWAPs are appended.
    prog_to_phys: Vec<NodeId>,
    /// Physical qubit → program qubit (full occupancy).
    phys_to_prog: Vec<NodeId>,
    /// Snapshots of `prog_to_phys` taken before each section's SWAP, back to
    /// back: section `i`'s body executes under the mapping
    /// `mappings[i * n..(i + 1) * n]`.
    mappings: Vec<NodeId>,
    /// The initial mapping (program → physical).
    initial: Vec<NodeId>,
    /// Logical circuit built so far.
    circuit: Circuit,
    /// Reference transpiled circuit built so far.
    reference: Circuit,
    /// Per-section metadata.
    sections: Vec<Section>,
    /// Previous section's special gate (program pair), if any.
    prev_special: Option<(NodeId, NodeId)>,
    /// The device's couplers, in [`Graph::edges`] order.
    couplers: Vec<Edge>,
    /// The SWAPs every section draws from (see [`top_swap_candidates`]).
    candidates: Vec<(Edge, NodeId, NodeId)>,
    scratch: Scratch,
}

/// Buffers every section reuses.
#[derive(Default)]
struct Scratch {
    /// The section body (program pairs), sorted and deduplicated.
    body: Vec<(NodeId, NodeId)>,
    /// The section's connector gates, in the order they were found.
    connectors: Vec<(NodeId, NodeId)>,
    /// Union-find parents over program qubits: the components of the body
    /// plus the connectors found so far.
    component: Vec<NodeId>,
    /// Membership of each program qubit in the body's root component.
    in_root: Vec<bool>,
    paths: PathSearch,
    /// Edge list (sorted, deduplicated) and CSR adjacency of the graph an
    /// ordering walk runs over.
    walk_edges: Vec<(NodeId, NodeId)>,
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    walk: EdgeWalk,
    /// The section's gate order: first half, then the reversed second half.
    order: Vec<Edge>,
}

/// Physical coupler SWAPs that enable a new interaction, together with the
/// endpoint to saturate (`p`) and the special partner (`p''`), as triples
/// `(swap_edge, saturate, special_partner)` in coupler order — keeping only
/// those whose saturated endpoint has the highest degree: saturating a
/// high-degree endpoint minimises the number of other qubits whose edges
/// must also be saturated, keeping the section (and hence the circuit)
/// small. The list depends on the coupling graph alone, not on the mapping.
fn top_swap_candidates(coupling: &Graph, couplers: &[Edge]) -> Vec<(Edge, NodeId, NodeId)> {
    let mut candidates = Vec::new();
    for &edge in couplers {
        for (p, other) in [(edge.u, edge.v), (edge.v, edge.u)] {
            for &partner in coupling.neighbors(other) {
                if partner != p && !coupling.has_edge(partner, p) {
                    candidates.push((edge, p, partner));
                }
            }
        }
    }
    if let Some(best_degree) = candidates.iter().map(|&(_, p, _)| coupling.degree(p)).max() {
        candidates.retain(|&(_, p, _)| coupling.degree(p) == best_degree);
    }
    candidates
}

/// Translates a physical coupler into the program-qubit pair occupying it
/// under `phys_to_prog` (canonical order).
fn program_pair(phys_to_prog: &[NodeId], a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    let (qa, qb) = (phys_to_prog[a], phys_to_prog[b]);
    (qa.min(qb), qa.max(qb))
}

/// Union-find representative of `q`, halving the path on the way.
fn find(component: &mut [NodeId], mut q: NodeId) -> NodeId {
    while component[q] != q {
        component[q] = component[component[q]];
        q = component[q];
    }
    q
}

/// Merges the union-find components of `a` and `b`.
fn union(component: &mut [NodeId], a: NodeId, b: NodeId) {
    let (ra, rb) = (find(component, a), find(component, b));
    component[ra.max(rb)] = ra.min(rb);
}

/// Reusable BFS over the coupling graph towards the root component.
#[derive(Default)]
struct PathSearch {
    /// BFS parent per physical qubit; `usize::MAX` while unseen.
    parent: Vec<NodeId>,
    queue: VecDeque<NodeId>,
    path: Vec<NodeId>,
}

impl PathSearch {
    /// Shortest physical path from `start` to the nearest physical qubit
    /// hosting a program qubit of the root component (`in_root`), start end
    /// first.
    fn path_to_root(
        &mut self,
        coupling: &Graph,
        phys_to_prog: &[NodeId],
        in_root: &[bool],
        start: NodeId,
    ) -> &[NodeId] {
        self.parent.clear();
        self.parent.resize(coupling.node_count(), usize::MAX);
        self.queue.clear();
        self.queue.push_back(start);
        self.parent[start] = start;
        let mut goal = None;
        'bfs: while let Some(p) = self.queue.pop_front() {
            for &nb in coupling.neighbors(p) {
                if self.parent[nb] != usize::MAX {
                    continue;
                }
                self.parent[nb] = p;
                if in_root[phys_to_prog[nb]] {
                    goal = Some(nb);
                    break 'bfs;
                }
                self.queue.push_back(nb);
            }
        }
        let goal = goal.expect("connected coupling graph always reaches the root component");
        self.path.clear();
        self.path.push(goal);
        let mut cur = goal;
        while cur != start {
            cur = self.parent[cur];
            self.path.push(cur);
        }
        self.path.reverse();
        &self.path
    }
}

impl Scratch {
    /// Appends to `order` the [`EdgeWalk`] order of the graph on
    /// `num_nodes` nodes with the body edges plus `extra`, walked from
    /// `extra`'s endpoints and never through `extra` itself.
    fn walk_from(&mut self, num_nodes: usize, extra: (NodeId, NodeId)) {
        self.walk_edges.clear();
        self.walk_edges.extend_from_slice(&self.body);
        self.walk_edges.push(extra);
        self.walk_edges.sort_unstable();
        self.walk_edges.dedup();

        // CSR adjacency. Filling it in sorted (a < b) edge order lists every
        // node's neighbours in ascending order, the order
        // `Graph::neighbors` reports and the walk depends on.
        self.offsets.clear();
        self.offsets.resize(num_nodes + 1, 0);
        for &(a, b) in &self.walk_edges {
            self.offsets[a + 1] += 1;
            self.offsets[b + 1] += 1;
        }
        for i in 0..num_nodes {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.targets.clear();
        self.targets.resize(self.offsets[num_nodes], 0);
        // `offsets[n]` serves as node `n`'s fill cursor and ends at node
        // `n + 1`'s start; shifting by one slot restores the starts.
        for &(a, b) in &self.walk_edges {
            self.targets[self.offsets[a]] = b;
            self.offsets[a] += 1;
            self.targets[self.offsets[b]] = a;
            self.offsets[b] += 1;
        }
        self.offsets.copy_within(0..num_nodes, 1);
        self.offsets[0] = 0;

        let (offsets, targets) = (&self.offsets, &self.targets);
        self.walk.walk(
            num_nodes,
            |u| &targets[offsets[u]..offsets[u + 1]],
            &[extra.0, extra.1],
            &[Edge::new(extra.0, extra.1)],
            &mut self.order,
        );
    }
}

impl<'a, 'r> Builder<'a, 'r> {
    fn new(arch: &'a Architecture, rng: &'r mut ChaCha8Rng, config: &GeneratorConfig) -> Self {
        let n = arch.num_qubits();
        // Random initial bijection between program and physical qubits.
        let mut phys_of: Vec<NodeId> = (0..n).collect();
        phys_of.shuffle(rng);
        let mut prog_at = vec![0; n];
        for (q, &p) in phys_of.iter().enumerate() {
            prog_at[p] = q;
        }
        let coupling = arch.coupling_graph();
        let couplers: Vec<Edge> = coupling.edges().collect();
        let candidates = top_swap_candidates(coupling, &couplers);
        Builder {
            arch,
            rng,
            prog_to_phys: phys_of.clone(),
            phys_to_prog: prog_at,
            mappings: Vec::with_capacity(n * config.num_swaps),
            initial: phys_of,
            circuit: Circuit::new(n),
            reference: Circuit::new(n),
            sections: Vec::with_capacity(config.num_swaps),
            prev_special: None,
            couplers,
            candidates,
            scratch: Scratch::default(),
        }
    }

    /// Adds one backbone section forcing exactly one SWAP (Algorithms 1–2).
    fn add_section(&mut self) -> Result<(), GenerateError> {
        let coupling = self.arch.coupling_graph();
        let &(swap_edge, saturate, partner) =
            self.candidates.choose(self.rng).ok_or_else(|| {
                GenerateError::UnsupportedArchitecture {
                    detail: "no SWAP can enable a new interaction".into(),
                }
            })?;

        // --- Algorithm 1: body edges (program-qubit pairs). ---
        let body = &mut self.scratch.body;
        body.clear();
        let saturate_degree = coupling.degree(saturate);
        for edge in &self.couplers {
            let incident_to_saturate = edge.contains(saturate);
            let has_higher_degree_endpoint = coupling.degree(edge.u) > saturate_degree
                || coupling.degree(edge.v) > saturate_degree;
            if incident_to_saturate || has_higher_degree_endpoint {
                body.push(program_pair(&self.phys_to_prog, edge.u, edge.v));
            }
        }
        body.sort_unstable();
        body.dedup();
        let special = program_pair(&self.phys_to_prog, saturate, partner);
        debug_assert!(body.binary_search(&special).is_err());

        // --- Connectors: make body ∪ {special} one component that also ---
        // --- touches the previous special gate's qubits.               ---
        self.connect(special);
        let scratch = &mut self.scratch;
        scratch.body.extend_from_slice(&scratch.connectors);
        scratch.body.sort_unstable();

        // --- Algorithm 2: gate ordering. ---
        let num_program = self.circuit.num_qubits();
        scratch.order.clear();
        if let Some(prev) = self.prev_special {
            scratch.walk_from(num_program, prev);
        }
        let first_half = scratch.order.len();
        scratch.walk_from(num_program, special);
        scratch.order[first_half..].reverse();

        // --- Emit the section into the logical and reference circuits. ---
        let mut body_indices = Vec::with_capacity(scratch.order.len());
        for edge in &scratch.order {
            body_indices.push(self.circuit.gate_count());
            let gate = Gate::cx(edge.u, edge.v);
            self.circuit.push(gate);
            self.reference
                .push(gate.map_qubits(|q| self.prog_to_phys[q]));
        }
        // SWAP, mapping update, then the special gate under the new mapping.
        self.mappings.extend_from_slice(&self.prog_to_phys);
        self.reference.push(Gate::swap(swap_edge.u, swap_edge.v));
        self.apply_swap(swap_edge.u, swap_edge.v);
        let special_index = self.circuit.gate_count();
        let special_gate = Gate::cx(special.0, special.1);
        self.circuit.push(special_gate);
        self.reference
            .push(special_gate.map_qubits(|q| self.prog_to_phys[q]));

        self.sections.push(Section {
            body_indices,
            special_index,
            swap_physical: (swap_edge.u, swap_edge.v),
            special_pair: special,
        });
        self.prev_special = Some(special);
        Ok(())
    }

    fn apply_swap(&mut self, a: NodeId, b: NodeId) {
        let qa = self.phys_to_prog[a];
        let qb = self.phys_to_prog[b];
        self.phys_to_prog[a] = qb;
        self.phys_to_prog[b] = qa;
        self.prog_to_phys[qa] = b;
        self.prog_to_phys[qb] = a;
    }

    /// Collects in `scratch.connectors` the connector gates (coupler edges
    /// under the current mapping) that make the body edges in
    /// `scratch.body` a *single* connected component on their own — one
    /// that also contains at least one qubit of the previous special gate.
    ///
    /// Connectivity must hold without the special edge (and without the
    /// previous special edge): the first-half BFS covers the body through the
    /// previous special gate's qubits and the second-half BFS covers it
    /// through the new special gate's qubits, and both orderings are only
    /// complete when the body itself is connected.
    fn connect(&mut self, special: (NodeId, NodeId)) {
        let num_program = self.circuit.num_qubits();
        let Scratch {
            body,
            connectors,
            component,
            in_root,
            paths,
            ..
        } = &mut self.scratch;
        connectors.clear();
        component.clear();
        component.extend(0..num_program);
        for &(a, b) in body.iter() {
            union(component, a, b);
        }
        let seed = *body.first().expect("section body is never empty");
        loop {
            // The component of the body (plus connectors) holding its first
            // edge.
            let root = find(component, seed.0);
            in_root.clear();
            for q in 0..num_program {
                let inside = find(component, q) == root;
                in_root.push(inside);
            }

            // A program qubit that still needs to be reached: an endpoint of
            // an unconnected body edge, or the previous special gate's qubit.
            let mut target = body.iter().chain(connectors.iter()).find_map(|&(a, b)| {
                if !in_root[a] {
                    Some(a)
                } else if !in_root[b] {
                    Some(b)
                } else {
                    None
                }
            });
            if target.is_none() {
                if let Some(prev) = self.prev_special {
                    if !in_root[prev.0] && !in_root[prev.1] {
                        target = Some(prev.0);
                    }
                }
            }
            let Some(target) = target else {
                return;
            };

            // Shortest physical path from the target's location to the root
            // component; every hop becomes a connector gate.
            let path = paths.path_to_root(
                self.arch.coupling_graph(),
                &self.phys_to_prog,
                in_root,
                self.prog_to_phys[target],
            );
            for window in path.windows(2) {
                let pair = program_pair(&self.phys_to_prog, window[0], window[1]);
                if pair != special
                    && body.binary_search(&pair).is_err()
                    && !connectors.contains(&pair)
                {
                    connectors.push(pair);
                    union(component, pair.0, pair.1);
                }
            }
        }
    }

    /// Inserts redundant padding gates until the two-qubit gate target is met,
    /// plus cosmetic single-qubit gates (Algorithm 3, final loop).
    fn pad(&mut self, config: &GeneratorConfig) {
        let n = self.circuit.num_qubits();
        let mut two_qubit_gates = self.circuit.two_qubit_gate_count();
        while two_qubit_gates < config.target_two_qubit_gates {
            let section_idx = self.rng.gen_range(0..self.sections.len());
            let edge = *self
                .couplers
                .choose(self.rng)
                .expect("architecture has couplers");
            let mapping = &self.mappings[section_idx * n..(section_idx + 1) * n];
            // Program pair occupying this coupler while section `section_idx`
            // executes (mapping snapshots are program→physical, invert lazily).
            let qa = mapping
                .iter()
                .position(|&p| p == edge.u)
                .expect("full occupancy");
            let qb = mapping
                .iter()
                .position(|&p| p == edge.v)
                .expect("full occupancy");
            let gate = Gate::cx(qa.min(qb), qa.max(qb));
            self.insert_padding(section_idx, gate);
            two_qubit_gates += 1;
        }
        let singles = (two_qubit_gates as f64 * config.single_qubit_ratio) as usize;
        let kinds = OneQubitKind::ALL;
        for _ in 0..singles {
            let section_idx = self.rng.gen_range(0..self.sections.len());
            let qubit = self.rng.gen_range(0..n);
            let kind = kinds[self.rng.gen_range(0..kinds.len())];
            self.insert_padding(section_idx, Gate::one(kind, qubit));
        }
    }

    /// Inserts `gate` at a random position inside section `section_idx`'s
    /// body (always between the previous special gate and this section's
    /// special gate), mirrors it into the reference solution under that
    /// section's mapping, and shifts all recorded indices.
    fn insert_padding(&mut self, section_idx: usize, gate: Gate) {
        let section = &self.sections[section_idx];
        let low = section
            .body_indices
            .first()
            .copied()
            .unwrap_or(section.special_index);
        let high = section.special_index;
        let pos = self.rng.gen_range(low..=high);
        let n = self.circuit.num_qubits();
        let mapping = &self.mappings[section_idx * n..(section_idx + 1) * n];
        let physical_gate = gate.map_qubits(|q| mapping[q]);

        self.circuit.insert(pos, gate);
        // The reference circuit has one extra SWAP gate per preceding section.
        self.reference.insert(pos + section_idx, physical_gate);

        // Sections are in program order, so only this one and the later ones
        // hold indices at or past `pos`.
        for section in &mut self.sections[section_idx..] {
            for idx in &mut section.body_indices {
                if *idx >= pos {
                    *idx += 1;
                }
            }
            if section.special_index >= pos {
                section.special_index += 1;
            }
        }
    }

    fn finish(self, arch: &Architecture, config: &GeneratorConfig) -> QubikosCircuit {
        let mapping = Mapping::from_prog_to_phys(self.initial, arch.num_qubits());
        QubikosCircuit::new(
            self.circuit,
            self.sections.len(),
            arch.name(),
            mapping,
            self.reference,
            self.sections,
            config.seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_arch::devices;

    #[test]
    fn rejects_zero_swaps() {
        let arch = devices::grid(3, 3);
        let err = generate(&arch, &GeneratorConfig::new(0, 10)).unwrap_err();
        assert_eq!(err, GenerateError::ZeroSwaps);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn rejects_complete_coupling_graph() {
        let arch = qubikos_arch::Architecture::new(
            "complete-4",
            qubikos_graph::generators::complete_graph(4),
        )
        .expect("connected");
        let err = generate(&arch, &GeneratorConfig::new(1, 10)).unwrap_err();
        assert!(matches!(err, GenerateError::UnsupportedArchitecture { .. }));
    }

    #[test]
    fn rejects_tiny_architecture() {
        let arch = devices::line(2);
        let err = generate(&arch, &GeneratorConfig::new(1, 10)).unwrap_err();
        assert!(matches!(err, GenerateError::UnsupportedArchitecture { .. }));
    }

    #[test]
    fn generates_requested_swap_count_and_size() {
        let arch = devices::grid(3, 3);
        let config = GeneratorConfig::new(3, 40).with_seed(5);
        let bench = generate(&arch, &config).expect("generates");
        assert_eq!(bench.optimal_swaps(), 3);
        assert_eq!(bench.sections().len(), 3);
        assert!(bench.circuit().two_qubit_gate_count() >= 40);
        assert_eq!(bench.reference_solution().swap_count(), 3);
        assert_eq!(bench.architecture(), "grid-3x3");
        // Single-qubit padding was added.
        assert!(bench.circuit().gate_count() > bench.circuit().two_qubit_gate_count());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let arch = devices::aspen4();
        let config = GeneratorConfig::new(2, 60).with_seed(11);
        let a = generate(&arch, &config).expect("generates");
        let b = generate(&arch, &config).expect("generates");
        assert_eq!(a, b);
        let c = generate(&arch, &config.with_seed(12)).expect("generates");
        assert_ne!(a.circuit(), c.circuit());
    }

    #[test]
    fn backbone_indices_point_at_two_qubit_gates() {
        let arch = devices::grid(3, 3);
        let bench = generate(&arch, &GeneratorConfig::new(2, 35).with_seed(3)).expect("generates");
        for section in bench.sections() {
            for &idx in &section.backbone_indices() {
                assert!(bench.circuit().gates()[idx].is_two_qubit());
            }
            let special = bench.circuit().gates()[section.special_index];
            let (a, b) = special.qubit_pair().expect("two-qubit");
            assert_eq!((a.min(b), a.max(b)), section.special_pair);
        }
    }

    #[test]
    fn works_on_every_evaluation_architecture() {
        for kind in qubikos_arch::DeviceKind::EVALUATION {
            let arch = kind.build();
            let bench =
                generate(&arch, &GeneratorConfig::new(2, 50).with_seed(1)).expect("generates");
            assert_eq!(bench.optimal_swaps(), 2);
            assert_eq!(bench.reference_solution().swap_count(), 2);
        }
    }

    #[test]
    fn zero_single_qubit_ratio_emits_only_two_qubit_gates() {
        let arch = devices::grid(3, 3);
        let config = GeneratorConfig::new(1, 20)
            .with_seed(2)
            .with_single_qubit_ratio(0.0);
        let bench = generate(&arch, &config).expect("generates");
        assert_eq!(
            bench.circuit().gate_count(),
            bench.circuit().two_qubit_gate_count()
        );
    }
}
