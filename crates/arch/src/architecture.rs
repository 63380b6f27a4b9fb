//! The [`Architecture`] type.

use qubikos_graph::{DistanceOracle, DistanceRow, Edge, Graph, NodeId, OracleKind, OracleStats};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Index of a physical qubit on a device.
pub type PhysicalQubit = NodeId;

/// Error building an [`Architecture`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchitectureError {
    /// The coupling graph had no qubits.
    Empty,
    /// The coupling graph was not connected; routing between the listed
    /// components would be impossible.
    Disconnected {
        /// Number of connected components found.
        components: usize,
    },
}

impl fmt::Display for ArchitectureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchitectureError::Empty => write!(f, "coupling graph has no qubits"),
            ArchitectureError::Disconnected { components } => write!(
                f,
                "coupling graph is disconnected ({components} components); routing is impossible"
            ),
        }
    }
}

impl Error for ArchitectureError {}

/// A named device: a connected coupling graph plus its distance oracle.
///
/// [`Architecture::new`] picks the oracle automatically: devices up to
/// [`qubikos_graph::DENSE_ORACLE_MAX_NODES`] qubits — every built-in device,
/// Eagle-127 and Osprey-433 included — get the eager dense matrix; larger
/// user-built graphs get the on-demand BFS oracle, a bounded, pinnable row
/// cache whose memory stays far below n². Every query is an exact hop
/// distance on both tiers, so the choice can never change a routing
/// result; [`Architecture::with_oracle`] overrides it for tests and
/// benchmarks.
///
/// # Example
///
/// ```
/// use qubikos_arch::Architecture;
/// use qubikos_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let arch = Architecture::new("ring-5", generators::cycle_graph(5))?;
/// assert_eq!(arch.num_qubits(), 5);
/// assert_eq!(arch.distance(0, 2), 2);
/// assert_eq!(arch.distance(0, 3), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Architecture {
    name: String,
    coupling: Graph,
    oracle: DistanceOracle,
}

impl Architecture {
    /// Builds an architecture from a coupling graph, selecting the distance
    /// oracle automatically from the qubit count.
    ///
    /// # Errors
    ///
    /// Returns [`ArchitectureError::Empty`] for an empty graph and
    /// [`ArchitectureError::Disconnected`] if the graph is not connected.
    pub fn new(name: impl Into<String>, coupling: Graph) -> Result<Self, ArchitectureError> {
        let kind = OracleKind::auto_for(coupling.node_count());
        Self::with_oracle(name, coupling, kind)
    }

    /// Builds an architecture with an explicitly chosen oracle kind,
    /// overriding the automatic size-based selection.
    ///
    /// # Errors
    ///
    /// Same contract as [`Architecture::new`].
    pub fn with_oracle(
        name: impl Into<String>,
        coupling: Graph,
        kind: OracleKind,
    ) -> Result<Self, ArchitectureError> {
        Self::with_oracle_capacity(name, coupling, kind, None)
    }

    /// Builds an architecture with an explicit oracle kind *and* row-cache
    /// capacity (`None` = [`qubikos_graph::default_row_capacity`] of the
    /// qubit count, `max(64, n/3)`; ignored by the dense matrix, which has
    /// no cache). Capacity is a performance knob, not
    /// identity: it does not participate in equality or serialization, and
    /// a deserialized architecture gets the default capacity back.
    ///
    /// # Errors
    ///
    /// Same contract as [`Architecture::new`].
    ///
    /// # Panics
    ///
    /// Panics if `row_capacity` is `Some(0)` for a cached oracle kind.
    pub fn with_oracle_capacity(
        name: impl Into<String>,
        coupling: Graph,
        kind: OracleKind,
        row_capacity: Option<usize>,
    ) -> Result<Self, ArchitectureError> {
        if coupling.node_count() == 0 {
            return Err(ArchitectureError::Empty);
        }
        let components = qubikos_graph::connected_components(&coupling).len();
        if components != 1 {
            return Err(ArchitectureError::Disconnected { components });
        }
        let oracle = DistanceOracle::build_with_capacity(&coupling, kind, row_capacity);
        Ok(Architecture {
            name: name.into(),
            coupling,
            oracle,
        })
    }

    /// Device name (e.g. `"aspen-4"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.coupling.node_count()
    }

    /// Number of coupler edges.
    pub fn num_couplers(&self) -> usize {
        self.coupling.edge_count()
    }

    /// The coupling graph.
    pub fn coupling_graph(&self) -> &Graph {
        &self.coupling
    }

    /// The distance oracle behind [`Self::distance`].
    pub fn oracle(&self) -> &DistanceOracle {
        &self.oracle
    }

    /// Which oracle implementation this architecture uses.
    pub fn oracle_kind(&self) -> OracleKind {
        self.oracle.kind()
    }

    /// Oracle usage counters (rows computed, cache hits); see
    /// [`OracleStats`] for the per-implementation semantics.
    pub fn oracle_stats(&self) -> OracleStats {
        self.oracle.stats()
    }

    /// Pins the distance rows for `qubits` in the oracle's row cache — the
    /// routing kernel's front-locality hint (see
    /// [`qubikos_graph::BfsOracle::pin_rows`]). A no-op for the dense
    /// matrix. Pinning is a replacement-policy hint only; it never changes
    /// a distance answer.
    pub fn pin_distance_sources(&self, qubits: &[PhysicalQubit]) {
        self.oracle.pin_rows(qubits);
    }

    /// Exact hop distance between two physical qubits.
    ///
    /// This is the single place the distance contract is defined; every
    /// router and lower bound scores through it (or through
    /// [`Self::distance_row`], which shares it):
    ///
    /// * Distances are exact BFS hop counts, identical for the dense and
    ///   sparse oracles — oracle choice never changes a result.
    /// * Qubits in range: the distance, `usize::MAX` only if the device
    ///   were disconnected (construction rejects that, so in practice never).
    /// * Qubits out of range: **debug builds panic**; release behaviour is
    ///   unspecified (panic or an unrelated value, depending on the oracle).
    ///   Callers that have not already validated their qubits must use
    ///   [`Self::try_distance`].
    pub fn distance(&self, a: PhysicalQubit, b: PhysicalQubit) -> usize {
        self.oracle.distance(a, b)
    }

    /// Checked [`Self::distance`]: `None` when either qubit is out of range.
    pub fn try_distance(&self, a: PhysicalQubit, b: PhysicalQubit) -> Option<usize> {
        self.oracle.try_distance(a, b)
    }

    /// Distances from `a` to every physical qubit, as one row.
    ///
    /// Fetching a row once and indexing it beats repeated
    /// [`Self::distance`] calls whenever one endpoint is fixed across many
    /// queries (candidate scans in placement and routing): on the sparse
    /// oracle it pins the row through one cache access instead of n.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn distance_row(&self, a: PhysicalQubit) -> DistanceRow<'_> {
        self.oracle.distance_row(a)
    }

    /// Returns `true` if `a` and `b` are coupled (a two-qubit gate can run on them).
    pub fn are_coupled(&self, a: PhysicalQubit, b: PhysicalQubit) -> bool {
        self.coupling.has_edge(a, b)
    }

    /// Neighbours of a physical qubit.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn neighbors(&self, q: PhysicalQubit) -> &[PhysicalQubit] {
        self.coupling.neighbors(q)
    }

    /// Degree of a physical qubit.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn degree(&self, q: PhysicalQubit) -> usize {
        self.coupling.degree(q)
    }

    /// Iterator over coupler edges.
    pub fn couplers(&self) -> impl Iterator<Item = Edge> + '_ {
        self.coupling.edges()
    }

    /// Average qubit degree — the paper's proxy for "dense" vs "sparse"
    /// connectivity when explaining why Rochester is harder than Sycamore.
    pub fn average_degree(&self) -> f64 {
        2.0 * self.num_couplers() as f64 / self.num_qubits() as f64
    }

    /// Graph diameter (largest qubit-to-qubit distance).
    pub fn diameter(&self) -> usize {
        self.oracle.diameter().unwrap_or(0)
    }
}

/// Structural identity: name, coupling graph, and oracle *kind*. Oracle
/// cache state and stats are usage artifacts, not identity.
impl PartialEq for Architecture {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.coupling == other.coupling
            && self.oracle.kind() == other.oracle.kind()
    }
}

impl Eq for Architecture {}

/// Serializes as `{name, coupling, oracle}` where `oracle` is the kind; the
/// oracle itself (derived data) is rebuilt on deserialization.
impl Serialize for Architecture {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("name".to_string(), self.name.serialize_value()),
            ("coupling".to_string(), self.coupling.serialize_value()),
            ("oracle".to_string(), self.oracle.kind().serialize_value()),
        ])
    }
}

impl Deserialize for Architecture {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let name = String::deserialize_value(value.object_field("name")?)?;
        let coupling = Graph::deserialize_value(value.object_field("coupling")?)?;
        let kind = OracleKind::deserialize_value(value.object_field("oracle")?)?;
        Architecture::with_oracle(name, coupling, kind)
            .map_err(|e| serde::Error::new(format!("invalid architecture: {e}")))
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} qubits, {} couplers, avg degree {:.2})",
            self.name,
            self.num_qubits(),
            self.num_couplers(),
            self.average_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubikos_graph::{generators, DENSE_ORACLE_MAX_NODES};

    #[test]
    fn builds_from_connected_graph() {
        let arch = Architecture::new("grid", generators::grid_graph(3, 3)).expect("connected");
        assert_eq!(arch.name(), "grid");
        assert_eq!(arch.num_qubits(), 9);
        assert_eq!(arch.num_couplers(), 12);
        assert_eq!(arch.distance(0, 8), 4);
        assert!(arch.are_coupled(0, 1));
        assert!(!arch.are_coupled(0, 8));
        assert_eq!(arch.neighbors(4).len(), 4);
        assert_eq!(arch.degree(0), 2);
        assert_eq!(arch.diameter(), 4);
        assert!((arch.average_degree() - 24.0 / 9.0).abs() < 1e-9);
        assert_eq!(arch.couplers().count(), 12);
    }

    #[test]
    fn small_devices_get_dense_large_get_sparse() {
        let small = Architecture::new("grid", generators::grid_graph(3, 3)).expect("connected");
        assert_eq!(small.oracle_kind(), OracleKind::Dense);
        assert_eq!(small.oracle_stats().rows_computed, 9);
        let big = Architecture::new("big-grid", generators::grid_graph(23, 23)).expect("connected");
        assert!(big.num_qubits() > DENSE_ORACLE_MAX_NODES);
        assert_eq!(big.oracle_kind(), OracleKind::Sparse);
        assert_eq!(big.oracle_stats().rows_computed, 0);
        assert!(big.oracle().row_tier().is_some());
    }

    #[test]
    fn capacity_override_and_pin_channel_thread_through() {
        let g = generators::grid_graph(9, 10);
        let arch = Architecture::with_oracle_capacity("g", g, OracleKind::Sparse, Some(7))
            .expect("connected");
        let tier = arch.oracle().row_tier().expect("cached kind");
        assert_eq!(tier.row_cache_capacity(), 7);
        arch.pin_distance_sources(&[0, 1, 2]);
        assert_eq!(tier.pinned_nodes(), 3);
        let _ = arch.distance(0, 89);
        let _ = arch.distance(0, 50);
        assert_eq!(arch.oracle_stats().pinned_hits, 1);
        // Capacity is not identity: same name/coupling/kind compare equal.
        let default_cap =
            Architecture::with_oracle("g", arch.coupling_graph().clone(), OracleKind::Sparse)
                .expect("connected");
        assert_eq!(arch, default_cap);
        // Dense architectures accept (and ignore) the pin hint.
        let dense = Architecture::new("d", generators::grid_graph(3, 3)).expect("connected");
        dense.pin_distance_sources(&[0]);
    }

    #[test]
    fn oracle_override_answers_identically() {
        let g = generators::grid_graph(3, 4);
        let dense = Architecture::with_oracle("g", g.clone(), OracleKind::Dense).expect("ok");
        let sparse = Architecture::with_oracle("g", g, OracleKind::Sparse).expect("ok");
        for a in 0..12 {
            for b in 0..12 {
                assert_eq!(dense.distance(a, b), sparse.distance(a, b));
                assert_eq!(dense.try_distance(a, b), sparse.try_distance(a, b));
            }
            assert_eq!(&dense.distance_row(a)[..], &sparse.distance_row(a)[..]);
        }
        assert_eq!(dense.diameter(), sparse.diameter());
        assert_eq!(dense.try_distance(0, 99), None);
        assert_eq!(sparse.try_distance(99, 0), None);
        // Sparse stats reflect usage; dense reports its eager rows.
        assert!(sparse.oracle_stats().queries > 0);
        assert!(sparse.oracle_stats().cache_hits > 0);
        assert_eq!(dense.oracle_stats().rows_computed, 12);
        // Kind differs, so they are structurally distinct architectures.
        assert_ne!(dense, sparse);
        assert_eq!(dense.oracle().node_count(), 12);
    }

    #[test]
    fn rejects_empty_graph() {
        assert_eq!(
            Architecture::new("none", Graph::new()).unwrap_err(),
            ArchitectureError::Empty
        );
    }

    #[test]
    fn rejects_disconnected_graph() {
        let mut g = generators::path_graph(3);
        g.add_node();
        match Architecture::new("broken", g).unwrap_err() {
            ArchitectureError::Disconnected { components } => assert_eq!(components, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        let text = ArchitectureError::Disconnected { components: 3 }.to_string();
        assert!(text.contains("3 components"));
        assert!(!ArchitectureError::Empty.to_string().is_empty());
    }

    #[test]
    fn display_mentions_name_and_size() {
        let arch = Architecture::new("line", generators::path_graph(4)).expect("connected");
        let text = arch.to_string();
        assert!(text.contains("line"));
        assert!(text.contains("4 qubits"));
    }

    #[test]
    fn single_qubit_architecture_is_valid() {
        let arch = Architecture::new("one", Graph::with_nodes(1)).expect("single qubit ok");
        assert_eq!(arch.num_qubits(), 1);
        assert_eq!(arch.diameter(), 0);
    }

    #[test]
    fn serde_round_trips_all_oracle_kinds() {
        for kind in [OracleKind::Dense, OracleKind::Sparse] {
            let arch =
                Architecture::with_oracle("rt", generators::grid_graph(3, 3), kind).expect("ok");
            let json = serde_json::to_string(&arch).expect("serialize");
            let back: Architecture = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, arch);
            assert_eq!(back.oracle_kind(), kind);
            assert_eq!(back.distance(0, 8), 4);
        }
    }

    /// The removed landmark tier is an unknown oracle kind at the input
    /// boundary: a typed error, not a panic.
    #[test]
    fn deserialize_rejects_the_removed_landmark_oracle() {
        let arch = Architecture::new("rt", generators::grid_graph(3, 3)).expect("ok");
        let json = serde_json::to_string(&arch)
            .expect("serialize")
            .replace(r#""Dense""#, r#""Landmark""#);
        assert!(json.contains(r#""oracle":"Landmark""#), "{json}");
        let err = serde_json::from_str::<Architecture>(&json).expect_err("unknown kind");
        assert!(!err.to_string().is_empty());
        for bad in ["landmark", "LANDMARK"] {
            let json = json.replace("Landmark", bad);
            assert!(
                serde_json::from_str::<Architecture>(&json).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn deserialize_rejects_invalid_coupling() {
        let err = serde_json::from_str::<Architecture>(
            r#"{"name":"bad","coupling":{"adjacency":[]},"oracle":"Dense"}"#,
        );
        assert!(err.is_err());
    }
}
