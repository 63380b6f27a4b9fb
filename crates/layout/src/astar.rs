//! A QMAP-style per-layer A* router.
//!
//! QMAP's published heuristic mapper partitions the circuit into layers of
//! independent gates and, for each layer, searches over SWAP sequences until
//! every gate of the layer acts on coupled qubits. This module implements
//! that design with a bounded A* search per layer: nodes are mappings,
//! transitions are single SWAPs on couplers incident to the layer's qubits,
//! the path cost is the number of SWAPs, and the heuristic is the summed
//! excess distance of the layer's gates. When the node budget runs out the
//! search falls back to the best partial state found so far and continues
//! greedily, so routing always terminates.
//!
//! The circuit-derived state (dependency DAG, layering, single-qubit gate
//! schedule) comes from [`crate::kernel`]; the per-layer search is the
//! QMAP-specific policy this module keeps.
//!
//! # State representation
//!
//! A budget-exhausting layer stores tens of thousands of states, so the
//! search generates children without allocating:
//!
//! * **Arena.** States live in one flat `Vec<u32>` of physical positions,
//!   one row per state, strided by the number of program qubits; parent id,
//!   producing coupler, path cost and hash sit in a side vector.
//! * **State table.** `best_g` is an open-addressing table keyed by a 64-bit
//!   Zobrist hash of the assignment (the XOR of one key per (program qubit,
//!   physical qubit) pair), which a SWAP updates in O(1). A hit counts only
//!   if the stored row equals the candidate slice, so a hash collision costs
//!   a longer probe and never merges two states: the table is exact.
//! * **Heuristic delta.** Gates of one layer act on disjoint qubits, so a
//!   program qubit belongs to at most one pair. With a per-layer `pair_of`
//!   index and the expanded state's physical→program inverse, a child's
//!   heuristic is its parent's plus the change of at most two pairs.
//! * **Late materialisation.** A child is a SWAP applied in place to the
//!   expanded state's scratch row; it is copied into the arena only if it
//!   improves `best_g`, then the SWAP is undone.
//! * **Reuse.** The coupler list and its per-qubit incidence index are built
//!   once per route; arena, table, heap and inverse map are cleared between
//!   layers, never dropped.
//!
//! # Why the results are unchanged
//!
//! The representation changes, the search does not. The open list pops by
//! `(f, g, insertion id)`, and ids are handed out in the order improving
//! children are found, which is coupler order within an expansion; a popped
//! state whose assignment was since reached more cheaply is skipped as
//! stale; the fallback keeps the first state with the lowest heuristic and
//! completes it with the same greedy walk. Since every one of those
//! decisions sees the same integers in the same order as a search over
//! full assignment vectors would, the SWAP stream is bit-identical to it —
//! the unit tests keep that straightforward search as a reference and check
//! the two against each other, with and without forced hash collisions.

use crate::kernel::{check_fit, RoutingProblem};
use crate::mapping::Mapping;
use crate::placement::greedy_bfs_placement;
use crate::result::RoutedCircuit;
use crate::router::{RouteError, Router};
use qubikos_arch::Architecture;
use qubikos_circuit::{Circuit, Gate};
use qubikos_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Tuning knobs of the QMAP-style router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AStarConfig {
    /// RNG seed (reserved; the search itself is deterministic).
    pub seed: u64,
    /// Maximum number of states expanded per layer before falling back to a
    /// greedy completion of that layer.
    pub max_expansions_per_layer: usize,
}

impl Default for AStarConfig {
    fn default() -> Self {
        AStarConfig {
            seed: 0,
            max_expansions_per_layer: 4000,
        }
    }
}

impl AStarConfig {
    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// QMAP-style layer-by-layer A* router.
#[derive(Debug, Clone, Default)]
pub struct AStarRouter {
    config: AStarConfig,
}

impl AStarRouter {
    /// Creates a router with the given configuration.
    pub fn new(config: AStarConfig) -> Self {
        AStarRouter { config }
    }
}

impl AStarRouter {
    /// Routes `circuit` from a caller-supplied initial mapping — the same
    /// per-layer search as [`Router::route`], with the placement stage
    /// skipped. This is the hook the composed-router construction kit uses
    /// to pair the QMAP search with any
    /// [`PlacementStrategy`](crate::kernel::PlacementStrategy) — see
    /// [`crate::composed`].
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::TooManyQubits`] if the circuit does not fit.
    pub fn route_with_initial_mapping(
        &self,
        circuit: &Circuit,
        arch: &Architecture,
        initial: &Mapping,
    ) -> Result<RoutedCircuit, RouteError> {
        check_fit(circuit, arch)?;
        let initial = initial.clone();
        let mut mapping = initial.clone();
        let problem = RoutingProblem::forward_only(circuit);
        let view = problem.forward();
        let dag = view.dag();
        let mut out = Circuit::new(arch.num_qubits());
        let mut search = LayerSearch::<SplitMix>::new(
            arch,
            mapping.num_program(),
            self.config.max_expansions_per_layer,
        );

        for layer in dag.layers() {
            // Find a SWAP sequence that makes every gate of this layer executable.
            let pairs: Vec<(usize, usize)> =
                layer.iter().map(|&node| dag.qubit_pair(node)).collect();
            let swaps = search.solve_layer(&pairs, &mapping);

            // Gates within a layer act on disjoint qubits, so each one can be
            // emitted the moment its pair becomes adjacent — later SWAPs of
            // the same layer are then free to move its qubits again.
            let mut emitted = vec![false; layer.len()];
            let emit_ready = |mapping: &Mapping, out: &mut Circuit, emitted: &mut Vec<bool>| {
                for (k, &node) in layer.iter().enumerate() {
                    if emitted[k] {
                        continue;
                    }
                    let (a, b) = pairs[k];
                    if arch.are_coupled(mapping.physical(a), mapping.physical(b)) {
                        view.emit(node, mapping, out);
                        emitted[k] = true;
                    }
                }
            };
            emit_ready(&mapping, &mut out, &mut emitted);
            for (pa, pb) in swaps {
                out.push(Gate::swap(pa, pb));
                mapping.apply_swap_physical(pa, pb);
                emit_ready(&mapping, &mut out, &mut emitted);
            }
            // Safety net: if the search's fallback left a pair apart, walk it
            // together along a shortest path so routing always completes.
            for (k, &node) in layer.iter().enumerate() {
                if emitted[k] {
                    continue;
                }
                let (a, b) = pairs[k];
                crate::kernel::force_adjacent(arch, &mut mapping, a, b, |u, v| {
                    out.push(Gate::swap(u, v));
                });
                view.emit(node, &mapping, &mut out);
            }
        }
        view.emit_trailing(&mapping, &mut out);

        Ok(RoutedCircuit {
            physical_circuit: out,
            initial_mapping: initial,
            final_mapping: mapping,
            tool: self.name().to_string(),
        })
    }
}

impl Router for AStarRouter {
    fn route(&self, circuit: &Circuit, arch: &Architecture) -> Result<RoutedCircuit, RouteError> {
        check_fit(circuit, arch)?;
        let initial = greedy_bfs_placement(circuit, arch);
        self.route_with_initial_mapping(circuit, arch, &initial)
    }

    fn name(&self) -> &str {
        "qmap"
    }
}

/// Marks "no program qubit", "no pair" and the root's missing parent.
const NONE: u32 = u32::MAX;

/// Source of the 64-bit Zobrist keys that hash a search state: the key of
/// "program qubit `q` sits on physical qubit `p`". A state's hash is the XOR
/// of its qubits' keys, so a SWAP updates it in O(1).
trait Zobrist {
    fn key(q: usize, p: usize) -> u64;
}

/// The production key function: SplitMix64's finalizer over `(q, p)`.
struct SplitMix;

impl Zobrist for SplitMix {
    fn key(q: usize, p: usize) -> u64 {
        let mut z = ((q as u64) << 32 | p as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Per-state bookkeeping kept beside the position arena.
#[derive(Debug, Clone, Copy)]
struct StateMeta {
    /// Zobrist hash of the state's assignment.
    hash: u64,
    /// Path cost (SWAPs from the layer's start mapping).
    g: usize,
    /// Parent state id, [`NONE`] for the root.
    parent: u32,
    /// Index of the coupler whose SWAP produced the state.
    coupler: u32,
    /// A later state reached the same assignment more cheaply, so this
    /// state's open-list entry is stale.
    superseded: bool,
}

/// Hash-keyed table from assignment to the id of the cheapest state seen
/// with that assignment: open addressing with linear probing. A slot only
/// matches when both the hash and the full position slice agree, so a hash
/// collision costs a longer probe, never a wrong answer. Slots carry a
/// generation stamp, which makes clearing between layers O(1).
#[derive(Debug, Default)]
struct StateTable {
    /// `(stamp, state id)`; a slot is occupied iff its stamp is current.
    slots: Vec<(u32, u32)>,
    stamp: u32,
    len: usize,
}

/// Outcome of a [`StateTable::probe`]: the matching slot, or the vacant
/// slot where the assignment would be inserted.
enum Probe {
    Found(usize),
    Vacant(usize),
}

impl StateTable {
    fn clear(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![(0, 0); 1024];
        }
        if self.stamp == u32::MAX {
            self.slots.fill((0, 0));
            self.stamp = 0;
        }
        self.stamp += 1;
        self.len = 0;
    }

    /// Finds the slot holding `positions` (hash `hash`), comparing the full
    /// slice against the `stride`-wide rows of `arena`.
    fn probe(
        &self,
        hash: u64,
        positions: &[u32],
        arena: &[u32],
        meta: &[StateMeta],
        stride: usize,
    ) -> Probe {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (stamp, id) = self.slots[i];
            if stamp != self.stamp {
                return Probe::Vacant(i);
            }
            let id = id as usize;
            if meta[id].hash == hash && arena[id * stride..(id + 1) * stride] == *positions {
                return Probe::Found(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The state id stored in an occupied slot.
    fn id(&self, slot: usize) -> usize {
        self.slots[slot].1 as usize
    }

    /// Points an occupied slot at a cheaper state of the same assignment.
    fn replace(&mut self, slot: usize, id: usize) {
        self.slots[slot].1 = id as u32;
    }

    /// Fills a vacant slot, doubling the table past half load.
    fn insert(&mut self, slot: usize, id: usize, meta: &[StateMeta]) {
        self.slots[slot] = (self.stamp, id as u32);
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            let grown = vec![(0, 0); 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            let mask = self.slots.len() - 1;
            for (stamp, id) in old {
                if stamp != self.stamp {
                    continue;
                }
                let mut i = meta[id as usize].hash as usize & mask;
                while self.slots[i].0 == self.stamp {
                    i = (i + 1) & mask;
                }
                self.slots[i] = (self.stamp, id);
            }
        }
    }
}

/// The per-layer A* search with its scratch buffers, built once per route
/// and cleared (never dropped) between layers.
struct LayerSearch<'a, Z: Zobrist> {
    arch: &'a Architecture,
    max_expansions: usize,
    /// Couplers in [`Architecture::couplers`] order — the candidate order.
    couplers: Vec<(NodeId, NodeId)>,
    /// Coupler indices incident to each physical qubit, CSR-style:
    /// `incident[incident_start[p]..incident_start[p + 1]]`.
    incident_start: Vec<usize>,
    incident: Vec<u32>,
    /// Program qubits of the current route: the arena's stride.
    stride: usize,
    /// Physical position of every program qubit, one `stride` row per state.
    arena: Vec<u32>,
    meta: Vec<StateMeta>,
    table: StateTable,
    /// Min-heap on `(f, g, state id)`.
    open: BinaryHeap<Reverse<(usize, usize, usize)>>,
    /// Positions of the state being expanded; a child is this with one SWAP
    /// applied in place and undone after its table lookup.
    positions: Vec<u32>,
    /// Physical → program inverse of `positions` ([`NONE`] when empty);
    /// all [`NONE`] between expansions.
    inverse: Vec<u32>,
    /// The layer pair each program qubit belongs to ([`NONE`] if none).
    pair_of: Vec<u32>,
    /// Excess distance of each pair under the state being expanded.
    excess: Vec<usize>,
    /// Bitset over coupler indices: the expansion's candidate SWAPs.
    candidates: Vec<u64>,
    zobrist: std::marker::PhantomData<Z>,
}

impl<'a, Z: Zobrist> LayerSearch<'a, Z> {
    fn new(arch: &'a Architecture, num_program: usize, max_expansions: usize) -> Self {
        // Qubits and coupler indices are stored as `u32`, `NONE` reserved.
        assert!(
            arch.num_qubits().max(arch.num_couplers()) < NONE as usize,
            "architecture too large for the A* state arena"
        );
        let couplers: Vec<(NodeId, NodeId)> = arch.couplers().map(|e| (e.u, e.v)).collect();
        let mut incident_start = vec![0usize; arch.num_qubits() + 1];
        for &(u, v) in &couplers {
            incident_start[u + 1] += 1;
            incident_start[v + 1] += 1;
        }
        for p in 0..arch.num_qubits() {
            incident_start[p + 1] += incident_start[p];
        }
        let mut fill = incident_start.clone();
        let mut incident = vec![0u32; 2 * couplers.len()];
        for (c, &(u, v)) in couplers.iter().enumerate() {
            for p in [u, v] {
                incident[fill[p]] = c as u32;
                fill[p] += 1;
            }
        }
        LayerSearch {
            arch,
            max_expansions,
            candidates: vec![0; couplers.len().div_ceil(64)],
            couplers,
            incident_start,
            incident,
            stride: num_program,
            arena: Vec::new(),
            meta: Vec::new(),
            table: StateTable::default(),
            open: BinaryHeap::new(),
            positions: Vec::with_capacity(num_program),
            inverse: vec![NONE; arch.num_qubits()],
            pair_of: vec![NONE; num_program],
            excess: Vec::new(),
            zobrist: std::marker::PhantomData,
        }
    }

    /// Excess distance of pair `(a, b)` under the current `positions`.
    fn pair_excess(&self, (a, b): (usize, usize)) -> usize {
        self.arch
            .distance(self.positions[a] as usize, self.positions[b] as usize)
            .saturating_sub(1)
    }

    /// A* over SWAP sequences until every pair in `pairs` is adjacent.
    fn solve_layer(
        &mut self,
        pairs: &[(usize, usize)],
        mapping: &Mapping,
    ) -> Vec<(NodeId, NodeId)> {
        debug_assert_eq!(mapping.num_program(), self.stride);
        self.positions.clear();
        self.positions
            .extend(mapping.as_slice().iter().map(|&p| p as u32));
        let start_h: usize = pairs.iter().map(|&pair| self.pair_excess(pair)).sum();
        if start_h == 0 {
            return Vec::new();
        }

        self.pair_of.fill(NONE);
        for (k, &(a, b)) in pairs.iter().enumerate() {
            self.pair_of[a] = k as u32;
            self.pair_of[b] = k as u32;
        }
        self.excess.clear();
        self.excess.resize(pairs.len(), 0);
        self.arena.clear();
        self.meta.clear();
        self.table.clear();
        self.open.clear();

        let hash = self
            .positions
            .iter()
            .enumerate()
            .fold(0, |h, (q, &p)| h ^ Z::key(q, p as usize));
        self.arena.extend_from_slice(&self.positions);
        self.meta.push(StateMeta {
            hash,
            g: 0,
            parent: NONE,
            coupler: NONE,
            superseded: false,
        });
        let Probe::Vacant(slot) =
            self.table
                .probe(hash, &self.positions, &self.arena, &self.meta, self.stride)
        else {
            unreachable!("the table is empty");
        };
        self.table.insert(slot, 0, &self.meta);
        self.open.push(Reverse((start_h, 0, 0)));

        let mut expansions = 0usize;
        let mut best_fallback = (start_h, 0usize);

        while let Some(Reverse((f, g, id))) = self.open.pop() {
            if self.meta[id].superseded {
                continue; // stale entry
            }
            let h = f - g;
            if h == 0 {
                return self.reconstruct(id);
            }
            if h < best_fallback.0 {
                best_fallback = (h, id);
            }
            expansions += 1;
            if expansions > self.max_expansions {
                // Budget exhausted: finish the layer greedily from the most
                // promising state seen so far.
                let mut swaps = self.reconstruct(best_fallback.1);
                let mut assignment: Vec<NodeId> = self
                    .state(best_fallback.1)
                    .iter()
                    .map(|&p| p as usize)
                    .collect();
                swaps.extend(greedy_finish(pairs, self.arch, &mut assignment));
                return swaps;
            }
            self.expand(pairs, id, g, h);
        }

        // Open set exhausted without a goal (cannot happen on a connected
        // architecture, but stay safe): finish greedily from the start.
        let mut assignment = mapping.as_slice().to_vec();
        greedy_finish(pairs, self.arch, &mut assignment)
    }

    /// The positions row of state `id`.
    fn state(&self, id: usize) -> &[u32] {
        &self.arena[id * self.stride..(id + 1) * self.stride]
    }

    /// Pushes every improving child of state `id` (path cost `g`,
    /// heuristic `h`): one per coupler touching a physical qubit of a
    /// still-unsatisfied pair, in coupler order.
    fn expand(&mut self, pairs: &[(usize, usize)], id: usize, g: usize, h: usize) {
        let row = id * self.stride..(id + 1) * self.stride;
        self.positions.clear();
        self.positions.extend_from_slice(&self.arena[row]);
        for (q, &p) in self.positions.iter().enumerate() {
            self.inverse[p as usize] = q as u32;
        }
        for (k, &pair) in pairs.iter().enumerate() {
            let excess = self.pair_excess(pair);
            self.excess[k] = excess;
            if excess > 0 {
                for q in [pair.0, pair.1] {
                    let p = self.positions[q] as usize;
                    for &c in &self.incident[self.incident_start[p]..self.incident_start[p + 1]] {
                        self.candidates[c as usize / 64] |= 1 << (c % 64);
                    }
                }
            }
        }

        let parent_hash = self.meta[id].hash;
        for word in 0..self.candidates.len() {
            let mut bits = std::mem::take(&mut self.candidates[word]);
            while bits != 0 {
                let c = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.try_child(pairs, id, parent_hash, g + 1, h, c);
            }
        }

        for &p in &self.positions {
            self.inverse[p as usize] = NONE;
        }
    }

    /// Considers the child of the expanded state (`positions`, state
    /// `parent`) reached by a SWAP on coupler `c`, and materialises it
    /// only if it improves the best known path cost of its assignment.
    fn try_child(
        &mut self,
        pairs: &[(usize, usize)],
        parent: usize,
        parent_hash: u64,
        g: usize,
        parent_h: usize,
        c: usize,
    ) {
        let (u, v) = self.couplers[c];
        let (qu, qv) = (self.inverse[u], self.inverse[v]);
        let mut hash = parent_hash;
        if qu != NONE {
            hash ^= Z::key(qu as usize, u) ^ Z::key(qu as usize, v);
            self.positions[qu as usize] = v as u32;
        }
        if qv != NONE {
            hash ^= Z::key(qv as usize, v) ^ Z::key(qv as usize, u);
            self.positions[qv as usize] = u as u32;
        }

        let probe = self
            .table
            .probe(hash, &self.positions, &self.arena, &self.meta, self.stride);
        let improves = match probe {
            Probe::Found(slot) => self.meta[self.table.id(slot)].g > g,
            Probe::Vacant(_) => true,
        };
        if improves {
            // Only the (at most two) pairs holding a swapped qubit change
            // their excess; a pair holding both keeps its distance.
            let pair = |q: u32| {
                if q == NONE {
                    NONE
                } else {
                    self.pair_of[q as usize]
                }
            };
            let (pair_u, pair_v) = (pair(qu), pair(qv));
            let mut h = parent_h;
            if pair_u != pair_v {
                for k in [pair_u, pair_v] {
                    if k != NONE {
                        let k = k as usize;
                        h = h - self.excess[k] + self.pair_excess(pairs[k]);
                    }
                }
            }

            let id = self.meta.len();
            assert!(id < NONE as usize, "A* state ids are stored as u32");
            self.arena.extend_from_slice(&self.positions);
            self.meta.push(StateMeta {
                hash,
                g,
                parent: parent as u32,
                coupler: c as u32,
                superseded: false,
            });
            match probe {
                Probe::Found(slot) => {
                    let old = self.table.id(slot);
                    self.meta[old].superseded = true;
                    self.table.replace(slot, id);
                }
                Probe::Vacant(slot) => self.table.insert(slot, id, &self.meta),
            }
            self.open.push(Reverse((g + h, g, id)));
        }

        if qu != NONE {
            self.positions[qu as usize] = u as u32;
        }
        if qv != NONE {
            self.positions[qv as usize] = v as u32;
        }
    }

    /// Rebuilds the SWAP sequence leading to state `id`.
    fn reconstruct(&self, mut id: usize) -> Vec<(NodeId, NodeId)> {
        let mut swaps = Vec::new();
        while self.meta[id].parent != NONE {
            swaps.push(self.couplers[self.meta[id].coupler as usize]);
            id = self.meta[id].parent as usize;
        }
        swaps.reverse();
        swaps
    }
}

/// Moves each unsatisfied pair together along shortest paths.
fn greedy_finish(
    pairs: &[(usize, usize)],
    arch: &Architecture,
    assignment: &mut [NodeId],
) -> Vec<(NodeId, NodeId)> {
    let mut swaps = Vec::new();
    for &(a, b) in pairs {
        // `b` never moves while `a` walks towards it (the walk's next hop
        // is never `b`'s qubit), so one distance row serves the whole
        // path.
        let to_pb = arch.distance_row(assignment[b]);
        while to_pb[assignment[a]] > 1 {
            let pa = assignment[a];
            let next = arch
                .neighbors(pa)
                .iter()
                .copied()
                .min_by_key(|&n| to_pb[n])
                .expect("connected architecture");
            swaps.push((pa, next));
            for slot in assignment.iter_mut() {
                if *slot == pa {
                    *slot = next;
                } else if *slot == next {
                    *slot = pa;
                }
            }
        }
    }
    swaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_routing;
    use proptest::prelude::*;
    use qubikos_arch::devices;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    /// The straightforward per-layer search that [`LayerSearch`] replaced,
    /// kept as the differential reference: every state is a full assignment
    /// vector, `best_g` is a `HashMap` keyed by that vector, and each child
    /// recomputes the whole heuristic.
    fn reference_solve_layer(
        pairs: &[(usize, usize)],
        arch: &Architecture,
        mapping: &Mapping,
        max_expansions: usize,
    ) -> Vec<(NodeId, NodeId)> {
        type SearchState = (Vec<NodeId>, Option<(usize, (NodeId, NodeId))>);
        let heuristic = |assignment: &[NodeId]| -> usize {
            pairs
                .iter()
                .map(|&(a, b)| {
                    arch.distance(assignment[a], assignment[b])
                        .saturating_sub(1)
                })
                .sum()
        };
        let reconstruct = |states: &[SearchState], mut id: usize| {
            let mut swaps = Vec::new();
            while let Some((parent, swap)) = states[id].1 {
                swaps.push(swap);
                id = parent;
            }
            swaps.reverse();
            swaps
        };
        let start: Vec<NodeId> = mapping.as_slice().to_vec();
        if heuristic(&start) == 0 {
            return Vec::new();
        }
        let mut open: BinaryHeap<Reverse<(usize, usize, usize)>> = BinaryHeap::new();
        let mut states: Vec<SearchState> = vec![(start.clone(), None)];
        let mut best_g: HashMap<Vec<NodeId>, usize> = HashMap::new();
        best_g.insert(start.clone(), 0);
        open.push(Reverse((heuristic(&start), 0, 0)));
        let mut expansions = 0usize;
        let mut best_fallback = (heuristic(&start), 0usize);
        while let Some(Reverse((_, g, id))) = open.pop() {
            let assignment = states[id].0.clone();
            if best_g.get(&assignment).copied().unwrap_or(usize::MAX) < g {
                continue;
            }
            let h = heuristic(&assignment);
            if h == 0 {
                return reconstruct(&states, id);
            }
            if h < best_fallback.0 {
                best_fallback = (h, id);
            }
            expansions += 1;
            if expansions > max_expansions {
                let mut swaps = reconstruct(&states, best_fallback.1);
                let mut assignment = states[best_fallback.1].0.clone();
                swaps.extend(greedy_finish(pairs, arch, &mut assignment));
                return swaps;
            }
            let mut active = vec![false; arch.num_qubits()];
            for &(a, b) in pairs {
                if arch.distance(assignment[a], assignment[b]) > 1 {
                    active[assignment[a]] = true;
                    active[assignment[b]] = true;
                }
            }
            for edge in arch.couplers() {
                if !(active[edge.u] || active[edge.v]) {
                    continue;
                }
                let mut next = assignment.clone();
                for slot in next.iter_mut() {
                    if *slot == edge.u {
                        *slot = edge.v;
                    } else if *slot == edge.v {
                        *slot = edge.u;
                    }
                }
                let next_g = g + 1;
                if best_g.get(&next).copied().unwrap_or(usize::MAX) <= next_g {
                    continue;
                }
                best_g.insert(next.clone(), next_g);
                let next_id = states.len();
                states.push((next.clone(), Some((id, (edge.u, edge.v)))));
                open.push(Reverse((next_g + heuristic(&next), next_g, next_id)));
            }
        }
        let mut assignment = start;
        greedy_finish(pairs, arch, &mut assignment)
    }

    /// A key function that sends every state to the same hash, so every
    /// table lookup walks past colliding entries and only the full-slice
    /// comparison can tell states apart.
    struct Colliding;

    impl Zobrist for Colliding {
        fn key(_q: usize, _p: usize) -> u64 {
            0
        }
    }

    /// 1..=n/2 gate pairs on disjoint program qubits drawn from `0..n`.
    fn random_pairs(num_program: usize, rng: &mut ChaCha8Rng) -> Vec<(usize, usize)> {
        let mut qubits: Vec<usize> = (0..num_program).collect();
        qubits.shuffle(rng);
        let num_pairs = rng.gen_range(1..=num_program / 2);
        qubits
            .chunks_exact(2)
            .take(num_pairs)
            .map(|c| (c[0], c[1]))
            .collect()
    }

    /// Solves `layers` consecutive random layers on `arch` (a random mapping
    /// of 2..=n program qubits, fresh random pairs per layer) with one
    /// reused search, applying each layer's SWAPs before the next, and
    /// asserts every SWAP sequence equals the reference search's. Returns
    /// the number of states the search materialised.
    fn assert_matches_reference<Z: Zobrist>(
        arch: &Architecture,
        budget: usize,
        seed: u64,
        layers: usize,
    ) -> usize {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let num_program = rng.gen_range(2..=arch.num_qubits());
        let mut mapping = Mapping::random(num_program, arch.num_qubits(), &mut rng);
        let mut search = LayerSearch::<Z>::new(arch, num_program, budget);
        let mut states = 0;
        for layer in 0..layers {
            let pairs = random_pairs(num_program, &mut rng);
            let expected = reference_solve_layer(&pairs, arch, &mapping, budget);
            let got = search.solve_layer(&pairs, &mapping);
            assert_eq!(
                got,
                expected,
                "{} budget {budget} seed {seed} layer {layer}",
                arch.name()
            );
            states += search.meta.len();
            for &(a, b) in &got {
                mapping.apply_swap_physical(a, b);
            }
        }
        states
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The arena search returns exactly the reference search's SWAP
        /// sequence, including under budgets small enough to force the
        /// greedy fallback (1, 7) and at the production budget.
        #[test]
        fn layer_search_matches_reference(arch_ix in 0usize..4, budget_ix in 0usize..3, seed in 0u64..u64::MAX) {
            let arch = match arch_ix {
                0 => devices::line(7),
                1 => devices::grid(3, 3),
                2 => devices::grid(4, 4),
                _ => devices::aspen4(),
            };
            let budget = [1, 7, 4000][budget_ix];
            assert_matches_reference::<SplitMix>(&arch, budget, seed, 3);
        }
    }

    /// With every state hashed to the same key, each table lookup walks
    /// past colliding entries, so only the full-slice comparison decides
    /// state identity — and the SWAP sequences must still match.
    #[test]
    fn forced_hash_collisions_leave_the_search_unchanged() {
        let mut states = 0;
        for (arch, budget) in [
            (devices::aspen4(), 4000),
            (devices::grid(4, 4), 4000),
            (devices::grid(4, 4), 7),
        ] {
            for seed in 0..4 {
                states += assert_matches_reference::<Colliding>(&arch, budget, seed, 3);
            }
        }
        assert!(states > 1000, "only {states} states: too few collisions");
    }

    fn random_circuit(num_qubits: usize, gates: usize, seed: u64) -> Circuit {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut c = Circuit::new(num_qubits);
        for _ in 0..gates {
            let a = rng.gen_range(0..num_qubits);
            let mut b = rng.gen_range(0..num_qubits);
            while b == a {
                b = rng.gen_range(0..num_qubits);
            }
            c.push(Gate::cx(a, b));
        }
        c
    }

    #[test]
    fn routes_valid_circuits_on_grid() {
        let arch = devices::grid(3, 3);
        let circuit = random_circuit(8, 30, 31);
        let routed = AStarRouter::default().route(&circuit, &arch).expect("fits");
        validate_routing(&circuit, &arch, &routed).expect("valid");
    }

    #[test]
    fn routes_valid_circuits_on_aspen() {
        let arch = devices::aspen4();
        let circuit = random_circuit(12, 50, 5);
        let routed = AStarRouter::default().route(&circuit, &arch).expect("fits");
        validate_routing(&circuit, &arch, &routed).expect("valid");
    }

    #[test]
    fn executable_circuit_needs_no_swaps() {
        let arch = devices::line(5);
        let circuit = Circuit::from_gates(5, [Gate::cx(0, 1), Gate::cx(2, 3), Gate::cx(3, 4)]);
        let routed = AStarRouter::default().route(&circuit, &arch).expect("fits");
        assert_eq!(routed.swap_count(), 0);
    }

    #[test]
    fn tiny_expansion_budget_still_terminates() {
        let config = AStarConfig {
            seed: 0,
            max_expansions_per_layer: 1,
        };
        let arch = devices::grid(3, 3);
        let circuit = random_circuit(9, 40, 7);
        let routed = AStarRouter::new(config)
            .route(&circuit, &arch)
            .expect("fits");
        validate_routing(&circuit, &arch, &routed).expect("valid");
    }

    #[test]
    fn single_qubit_gates_survive() {
        let arch = devices::line(3);
        let circuit = Circuit::from_gates(3, [Gate::h(1), Gate::cx(0, 2), Gate::z(0)]);
        let routed = AStarRouter::default().route(&circuit, &arch).expect("fits");
        validate_routing(&circuit, &arch, &routed).expect("valid");
    }

    #[test]
    fn rejects_oversized_circuit() {
        let arch = devices::line(2);
        assert!(matches!(
            AStarRouter::default()
                .route(&random_circuit(3, 5, 0), &arch)
                .unwrap_err(),
            RouteError::TooManyQubits { .. }
        ));
    }

    #[test]
    fn config_builder() {
        assert_eq!(AStarConfig::default().with_seed(5).seed, 5);
        assert_eq!(AStarRouter::default().name(), "qmap");
    }
}
