//! Incremental SWAP scoring.
//!
//! The pre-kernel routers rescanned every front and extended-set gate for
//! every candidate SWAP of every decision — O(couplers × (front + extended))
//! per decision. A [`SwapScorer`] instead snapshots the scored gates once
//! per front change (`prepare`), maintains the running front/extended
//! distance sums across applied SWAPs (`apply`), and evaluates a candidate
//! as a delta over only the gates touching the two swapped physical qubits
//! (`swap_cost` / `front_total`) — O(gates-touching-the-two-qubits).
//!
//! Exactness: hop distances are small integers, so the running sums and
//! deltas are exact in `f64` and a delta-evaluated score is bit-identical
//! to a full rescan under uniform extended-set weighting (the Qiskit
//! default). With a `lookahead_decay` the weights are non-integral and the
//! accumulation order can differ from a rescan in the last ulp; routing
//! decisions may then differ only on exact score ties.

use crate::kernel::scratch::StampSet;
use crate::mapping::Mapping;
use qubikos_arch::Architecture;
use qubikos_circuit::{DagNodeId, DependencyDag};
use qubikos_graph::{DistanceRow, NodeId};
use std::sync::Arc;

/// Weighting of the extended-set (lookahead) term, mirroring
/// [`SabreConfig`](crate::SabreConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreParams {
    /// Weight of the extended-set term (0.0 disables lookahead).
    pub extended_set_weight: f64,
    /// Optional geometric decay across the extended set: gate `i` weighs
    /// `decay^i`. `None` is uniform weighting.
    pub lookahead_decay: Option<f64>,
}

impl ScoreParams {
    /// Parameters for a front-only scorer (t|ket⟩-style: no lookahead).
    pub fn front_only() -> Self {
        ScoreParams {
            extended_set_weight: 0.0,
            lookahead_decay: None,
        }
    }
}

/// One scored gate: its current physical endpoints, distance, and weight.
#[derive(Debug, Clone, Copy)]
struct Entry {
    phys_a: NodeId,
    phys_b: NodeId,
    dist: usize,
    /// Extended-set weight (`decay^i` or 1.0); unused for front entries.
    weight: f64,
    is_front: bool,
}

/// Incremental scorer for candidate SWAPs against the current front and
/// extended set. See the module docs for the contract.
#[derive(Debug, Clone, Default)]
pub struct SwapScorer {
    entries: Vec<Entry>,
    /// `touch[p]` = indices of entries with a physical endpoint on `p`.
    touch: Vec<Vec<u32>>,
    /// Physical qubits whose `touch`/`front_active` state is set (for O(touched) clearing).
    touched_phys: Vec<NodeId>,
    /// `front_active[p]`: some *front* gate has an endpoint on `p` — the
    /// candidate-SWAP activity rule.
    front_active: Vec<bool>,
    /// Number of front gates (the denominator of the basic term).
    front_len: usize,
    /// Running sum of front-gate distances (integer-valued, hence exact).
    front_sum: f64,
    /// Running weighted sum of extended-set distances.
    ext_sum: f64,
    /// Sum of extended-set weights (the lookahead denominator).
    ext_weight_sum: f64,
    /// Per-candidate dedupe of entries touching both swapped qubits.
    mark: StampSet,
    /// `held_rows[p]` = the distance row from `p`, held for the duration of
    /// the current front (one oracle fetch per source per `prepare` epoch
    /// instead of one point query per candidate pair). Rows are pure graph
    /// data — mapping-independent — so applied SWAPs never invalidate them.
    held_rows: Vec<Option<Arc<[usize]>>>,
    /// Sources with a held row, for O(held) clearing.
    held_list: Vec<NodeId>,
    /// Whether the oracle has a row-cache tier worth holding rows from
    /// (the dense matrix answers point queries in one array read already).
    use_rows: bool,
    /// Physical qubits of the current front gates — the pin set forwarded
    /// to the oracle's row cache, remapped on every [`Self::apply`].
    pin_buf: Vec<NodeId>,
}

impl SwapScorer {
    /// A scorer with no gates loaded; call [`Self::prepare`] before scoring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots the scored gates for the current `front` and `extended`
    /// sets under `mapping`. Must be called after every front change (and
    /// after any mapping change not reported through [`Self::apply`]).
    pub fn prepare(
        &mut self,
        front: &[DagNodeId],
        extended: &[DagNodeId],
        dag: &DependencyDag,
        mapping: &Mapping,
        arch: &Architecture,
        params: &ScoreParams,
    ) {
        for &p in &self.touched_phys {
            self.touch[p].clear();
            self.front_active[p] = false;
        }
        self.touched_phys.clear();
        for &q in &self.held_list {
            self.held_rows[q] = None;
        }
        self.held_list.clear();
        if self.touch.len() < arch.num_qubits() {
            self.touch.resize(arch.num_qubits(), Vec::new());
            self.front_active.resize(arch.num_qubits(), false);
        }
        if self.held_rows.len() < arch.num_qubits() {
            self.held_rows.resize(arch.num_qubits(), None);
        }
        self.use_rows = arch.oracle().row_tier().is_some();
        self.entries.clear();
        self.front_len = front.len();
        self.front_sum = 0.0;
        self.ext_sum = 0.0;
        self.ext_weight_sum = 0.0;

        for &node in front {
            let (pa, pb) = self.push_entry(node, dag, mapping, arch, 1.0, true);
            self.front_active[pa] = true;
            self.front_active[pb] = true;
        }
        for (i, &node) in extended.iter().enumerate() {
            let weight = match params.lookahead_decay {
                Some(d) => d.powi(i as i32),
                None => 1.0,
            };
            self.push_entry(node, dag, mapping, arch, weight, false);
        }

        // Kernel→oracle hint channel: pin the front qubits' rows so the
        // sources every candidate scan touches survive LRU eviction.
        if self.use_rows {
            self.pin_buf.clear();
            for &p in &self.touched_phys {
                if self.front_active[p] {
                    self.pin_buf.push(p);
                }
            }
            arch.pin_distance_sources(&self.pin_buf);
        }
    }

    fn push_entry(
        &mut self,
        node: DagNodeId,
        dag: &DependencyDag,
        mapping: &Mapping,
        arch: &Architecture,
        weight: f64,
        is_front: bool,
    ) -> (NodeId, NodeId) {
        let (a, b) = dag.qubit_pair(node);
        let (pa, pb) = (mapping.physical(a), mapping.physical(b));
        let dist = arch.distance(pa, pb);
        let index = self.entries.len() as u32;
        self.entries.push(Entry {
            phys_a: pa,
            phys_b: pb,
            dist,
            weight,
            is_front,
        });
        if is_front {
            self.front_sum += dist as f64;
        } else {
            self.ext_sum += weight * dist as f64;
            self.ext_weight_sum += weight;
        }
        for p in [pa, pb] {
            if self.touch[p].is_empty() && !self.front_active[p] {
                self.touched_phys.push(p);
            }
            self.touch[p].push(index);
        }
        (pa, pb)
    }

    /// Collects candidate SWAPs into `out`: the coupler edges with at least
    /// one endpoint hosting a qubit of some front gate, in coupler order.
    pub fn candidates_into(&self, arch: &Architecture, out: &mut Vec<(NodeId, NodeId)>) {
        out.clear();
        for edge in arch.couplers() {
            if self.front_active[edge.u] || self.front_active[edge.v] {
                out.push((edge.u, edge.v));
            }
        }
    }

    /// The row of distances from `q`, fetched from the oracle at most once
    /// per `prepare` epoch and held across the whole candidate scan.
    fn held_row(&mut self, q: NodeId, arch: &Architecture) -> &[usize] {
        if self.held_rows[q].is_none() {
            let row: Arc<[usize]> = match arch.distance_row(q) {
                DistanceRow::Shared(row) => row,
                DistanceRow::Borrowed(row) => Arc::from(row),
            };
            self.held_rows[q] = Some(row);
            self.held_list.push(q);
        }
        self.held_rows[q].as_deref().expect("just inserted")
    }

    /// The distance of `entry`'s gate if `(u, v)` were swapped.
    ///
    /// Every touched entry has at least one endpoint on `u` or `v`. If both
    /// endpoints move they exchange positions and the distance is
    /// unchanged; otherwise exactly one endpoint is fixed, and the held row
    /// of that *fixed* endpoint answers the query — so a whole candidate
    /// scan costs one row fetch per distinct gate endpoint instead of one
    /// oracle point query per (candidate × touched gate) pair.
    fn new_dist(&mut self, entry: Entry, u: NodeId, v: NodeId, arch: &Architecture) -> usize {
        let a_moved = entry.phys_a == u || entry.phys_a == v;
        let b_moved = entry.phys_b == u || entry.phys_b == v;
        match (a_moved, b_moved) {
            (true, true) | (false, false) => entry.dist,
            (true, false) => {
                let new_a = if entry.phys_a == u { v } else { u };
                if self.use_rows {
                    self.held_row(entry.phys_b, arch)[new_a]
                } else {
                    arch.distance(new_a, entry.phys_b)
                }
            }
            (false, true) => {
                let new_b = if entry.phys_b == u { v } else { u };
                if self.use_rows {
                    self.held_row(entry.phys_a, arch)[new_b]
                } else {
                    arch.distance(entry.phys_a, new_b)
                }
            }
        }
    }

    /// Distance-sum deltas `(Δfront, Δextended)` if `swap` were applied.
    fn deltas(&mut self, swap: (NodeId, NodeId), arch: &Architecture) -> (i64, f64) {
        let (u, v) = swap;
        self.mark.reset(self.entries.len());
        let mut d_front = 0i64;
        let mut d_ext = 0.0f64;
        for side in [u, v] {
            for i in 0..self.touch[side].len() {
                let idx = self.touch[side][i] as usize;
                if !self.mark.insert(idx) {
                    continue;
                }
                let entry = self.entries[idx];
                let new_dist = self.new_dist(entry, u, v, arch);
                if entry.is_front {
                    d_front += new_dist as i64 - entry.dist as i64;
                } else {
                    d_ext += entry.weight * (new_dist as f64 - entry.dist as f64);
                }
            }
        }
        (d_front, d_ext)
    }

    /// The LightSABRE cost (basic + weighted lookahead, *without* the decay
    /// factor) of applying `swap` to the current mapping. Only meaningful
    /// after a [`Self::prepare`] that loaded at least one front gate (SWAPs
    /// are only scored while some gate is blocked).
    pub fn swap_cost(
        &mut self,
        swap: (NodeId, NodeId),
        arch: &Architecture,
        params: &ScoreParams,
    ) -> f64 {
        let (d_front, d_ext) = self.deltas(swap, arch);
        let basic = (self.front_sum + d_front as f64) / self.front_len as f64;
        let lookahead = if self.ext_weight_sum == 0.0 {
            0.0
        } else {
            params.extended_set_weight * (self.ext_sum + d_ext) / self.ext_weight_sum
        };
        basic + lookahead
    }

    /// The summed front-gate distance (an integer) if `swap` were applied —
    /// the t|ket⟩-style greedy objective.
    pub fn front_total(&mut self, swap: (NodeId, NodeId), arch: &Architecture) -> i64 {
        let (d_front, _) = self.deltas(swap, arch);
        self.front_sum as i64 + d_front
    }

    /// Commits `swap` (already applied to the mapping by the caller): updates
    /// entry endpoints/distances, the running sums, and the per-qubit touch
    /// lists, in O(gates touching the swapped qubits).
    pub fn apply(&mut self, swap: (NodeId, NodeId), arch: &Architecture) {
        let (u, v) = swap;
        let resolve = |p: NodeId| {
            if p == u {
                v
            } else if p == v {
                u
            } else {
                p
            }
        };
        self.mark.reset(self.entries.len());
        // Collect indices first: the touch lists for u and v swap wholesale
        // below (an entry on u is on v afterwards and vice versa).
        for list in [u, v] {
            for i in 0..self.touch[list].len() {
                let idx = self.touch[list][i] as usize;
                if !self.mark.insert(idx) {
                    continue;
                }
                let entry = self.entries[idx];
                let new_dist = self.new_dist(entry, u, v, arch);
                let delta_front = new_dist as f64 - entry.dist as f64;
                let updated = &mut self.entries[idx];
                updated.phys_a = resolve(entry.phys_a);
                updated.phys_b = resolve(entry.phys_b);
                updated.dist = new_dist;
                if entry.is_front {
                    self.front_sum += delta_front;
                } else {
                    self.ext_sum += entry.weight * delta_front;
                }
            }
        }
        // Track both endpoints before mutating their state so the next
        // prepare() clears them.
        for p in [u, v] {
            if self.touch[p].is_empty() && !self.front_active[p] {
                self.touched_phys.push(p);
            }
        }
        self.touch.swap(u, v);
        self.front_active.swap(u, v);

        // Keep the pin set tracking the front: a pinned qubit that moved in
        // this swap now lives on the other physical qubit.
        if self.use_rows && !self.pin_buf.is_empty() {
            let mut changed = false;
            for p in &mut self.pin_buf {
                if *p == u {
                    *p = v;
                    changed = true;
                } else if *p == v {
                    *p = u;
                    changed = true;
                }
            }
            if changed {
                arch.pin_distance_sources(&self.pin_buf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_arch::devices;
    use qubikos_circuit::{Circuit, Gate};

    /// Brute-force reference: rescan every front/extended gate under the
    /// hypothetical swap, exactly as the pre-kernel SABRE did.
    fn reference_cost(
        swap: (NodeId, NodeId),
        front: &[DagNodeId],
        extended: &[DagNodeId],
        dag: &DependencyDag,
        mapping: &Mapping,
        arch: &Architecture,
        params: &ScoreParams,
    ) -> f64 {
        let resolve = |p: NodeId| {
            if p == swap.0 {
                swap.1
            } else if p == swap.1 {
                swap.0
            } else {
                p
            }
        };
        let gate_distance = |node: DagNodeId| -> f64 {
            let (a, b) = dag.qubit_pair(node);
            arch.distance(resolve(mapping.physical(a)), resolve(mapping.physical(b))) as f64
        };
        let basic: f64 = front.iter().map(|&n| gate_distance(n)).sum::<f64>() / front.len() as f64;
        let lookahead = if extended.is_empty() {
            0.0
        } else {
            let (sum, weights) =
                extended
                    .iter()
                    .enumerate()
                    .fold((0.0f64, 0.0f64), |(sum, weights), (i, &n)| {
                        let w = match params.lookahead_decay {
                            Some(d) => d.powi(i as i32),
                            None => 1.0,
                        };
                        (sum + w * gate_distance(n), weights + w)
                    });
            params.extended_set_weight * sum / weights
        };
        basic + lookahead
    }

    fn setup() -> (Architecture, DependencyDag, Mapping) {
        let arch = devices::grid(3, 3);
        let circuit = Circuit::from_gates(
            6,
            [
                Gate::cx(0, 5),
                Gate::cx(1, 4),
                Gate::cx(2, 3),
                Gate::cx(0, 3),
                Gate::cx(4, 5),
            ],
        );
        let dag = DependencyDag::from_circuit(&circuit);
        let mapping = Mapping::from_prog_to_phys(vec![0, 4, 8, 2, 6, 7], 9);
        (arch, dag, mapping)
    }

    #[test]
    fn delta_scores_match_full_rescan() {
        let (arch, dag, mapping) = setup();
        let front = [0, 1, 2];
        let extended = [3, 4];
        let params = ScoreParams {
            extended_set_weight: 0.5,
            lookahead_decay: None,
        };
        let mut scorer = SwapScorer::new();
        scorer.prepare(&front, &extended, &dag, &mapping, &arch, &params);
        for edge in arch.couplers() {
            let swap = (edge.u, edge.v);
            let fast = scorer.swap_cost(swap, &arch, &params);
            let slow = reference_cost(swap, &front, &extended, &dag, &mapping, &arch, &params);
            assert_eq!(fast, slow, "swap {swap:?} diverged");
        }
    }

    #[test]
    fn delta_scores_match_rescan_with_lookahead_decay() {
        let (arch, dag, mapping) = setup();
        let front = [0, 1, 2];
        let extended = [3, 4];
        let params = ScoreParams {
            extended_set_weight: 0.5,
            lookahead_decay: Some(0.8),
        };
        let mut scorer = SwapScorer::new();
        scorer.prepare(&front, &extended, &dag, &mapping, &arch, &params);
        for edge in arch.couplers() {
            let swap = (edge.u, edge.v);
            let fast = scorer.swap_cost(swap, &arch, &params);
            let slow = reference_cost(swap, &front, &extended, &dag, &mapping, &arch, &params);
            assert!(
                (fast - slow).abs() < 1e-9,
                "swap {swap:?}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn apply_keeps_scores_consistent_across_swap_chains() {
        let (arch, dag, mut mapping) = setup();
        let front = [0, 1, 2];
        let extended = [3, 4];
        let params = ScoreParams {
            extended_set_weight: 0.5,
            lookahead_decay: None,
        };
        let mut scorer = SwapScorer::new();
        scorer.prepare(&front, &extended, &dag, &mapping, &arch, &params);
        // Apply a chain of swaps; after each, delta scores must still match
        // a fresh rescan of the *new* mapping.
        for swap in [(0usize, 1usize), (4, 5), (1, 2), (0, 3)] {
            mapping.apply_swap_physical(swap.0, swap.1);
            scorer.apply(swap, &arch);
            for edge in arch.couplers() {
                let candidate = (edge.u, edge.v);
                let fast = scorer.swap_cost(candidate, &arch, &params);
                let slow =
                    reference_cost(candidate, &front, &extended, &dag, &mapping, &arch, &params);
                assert_eq!(fast, slow, "after {swap:?}, candidate {candidate:?}");
            }
        }
    }

    #[test]
    fn front_total_matches_reference_sum() {
        let (arch, dag, mapping) = setup();
        let front = [0, 1, 2];
        let mut scorer = SwapScorer::new();
        scorer.prepare(
            &front,
            &[],
            &dag,
            &mapping,
            &arch,
            &ScoreParams::front_only(),
        );
        for edge in arch.couplers() {
            let swap = (edge.u, edge.v);
            let resolve = |p: NodeId| {
                if p == swap.0 {
                    swap.1
                } else if p == swap.1 {
                    swap.0
                } else {
                    p
                }
            };
            let reference: i64 = front
                .iter()
                .map(|&n| {
                    let (a, b) = dag.qubit_pair(n);
                    arch.distance(resolve(mapping.physical(a)), resolve(mapping.physical(b))) as i64
                })
                .sum();
            assert_eq!(scorer.front_total(swap, &arch), reference);
        }
    }

    /// The same fixture as [`setup`], but on the sparse row-cache oracle so
    /// the held-row and pinning paths are exercised.
    fn setup_sparse() -> (Architecture, DependencyDag, Mapping) {
        let (dense, dag, mapping) = setup();
        let arch = Architecture::with_oracle(
            dense.name(),
            dense.coupling_graph().clone(),
            qubikos_graph::OracleKind::Sparse,
        )
        .expect("connected");
        (arch, dag, mapping)
    }

    #[test]
    fn held_row_scores_match_rescan_on_sparse_oracle() {
        let (arch, dag, mut mapping) = setup_sparse();
        let front = [0, 1, 2];
        let extended = [3, 4];
        let params = ScoreParams {
            extended_set_weight: 0.5,
            lookahead_decay: None,
        };
        let mut scorer = SwapScorer::new();
        scorer.prepare(&front, &extended, &dag, &mapping, &arch, &params);
        for edge in arch.couplers() {
            let swap = (edge.u, edge.v);
            let fast = scorer.swap_cost(swap, &arch, &params);
            let slow = reference_cost(swap, &front, &extended, &dag, &mapping, &arch, &params);
            assert_eq!(fast, slow, "swap {swap:?} diverged");
        }
        // Row economy: a full candidate scan used at most one row fetch per
        // distinct gate endpoint, not one point query per candidate pair.
        let stats = arch.oracle_stats();
        assert!(stats.rows_computed <= 12, "rows {}", stats.rows_computed);
        // The front qubits were pinned through the hint channel.
        let tier = arch.oracle().row_tier().expect("sparse tier");
        assert_eq!(tier.pinned_nodes(), 6);
        // Scores stay consistent across applied swaps (held rows are graph
        // data and survive mapping changes).
        for swap in [(0usize, 1usize), (4, 5), (1, 2)] {
            mapping.apply_swap_physical(swap.0, swap.1);
            scorer.apply(swap, &arch);
            for edge in arch.couplers() {
                let candidate = (edge.u, edge.v);
                let fast = scorer.swap_cost(candidate, &arch, &params);
                let slow =
                    reference_cost(candidate, &front, &extended, &dag, &mapping, &arch, &params);
                assert_eq!(fast, slow, "after {swap:?}, candidate {candidate:?}");
            }
        }
    }

    #[test]
    fn candidates_cover_exactly_the_active_couplers() {
        let (arch, dag, mapping) = setup();
        let front = [0];
        let mut scorer = SwapScorer::new();
        scorer.prepare(
            &front,
            &[],
            &dag,
            &mapping,
            &arch,
            &ScoreParams::front_only(),
        );
        let mut candidates = Vec::new();
        scorer.candidates_into(&arch, &mut candidates);
        let (a, b) = dag.qubit_pair(0);
        let (pa, pb) = (mapping.physical(a), mapping.physical(b));
        for edge in arch.couplers() {
            let expected = edge.u == pa || edge.u == pb || edge.v == pa || edge.v == pb;
            assert_eq!(candidates.contains(&(edge.u, edge.v)), expected);
        }
    }
}
