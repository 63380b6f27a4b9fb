//! Graph substrate for the QUBIKOS benchmark suite.
//!
//! Quantum layout synthesis manipulates two kinds of undirected graphs: the
//! *coupling graph* of a device (which pairs of physical qubits may interact)
//! and the *interaction graph* of a circuit (which pairs of program qubits
//! share a two-qubit gate). This crate provides the shared machinery both
//! need:
//!
//! * [`Graph`] — a compact adjacency-list undirected graph.
//! * [`traversal`] — BFS/DFS orders, BFS edge orders (used by the QUBIKOS
//!   backbone construction), connected components.
//! * [`distance`] — dense all-pairs shortest-path distances, the small-device
//!   workhorse of every SWAP-routing heuristic.
//! * [`csr`] — frozen compressed-sparse-row adjacency for cache-friendly BFS
//!   on routing-scale devices.
//! * [`oracle`] — the [`DistanceOracle`] abstraction: dense matrix (every
//!   built-in device) or on-demand BFS with a bounded, pinnable row cache
//!   (graphs above 512 nodes), one exact-distance query API.
//! * [`isomorphism`] — VF2-style subgraph monomorphism, used both to check
//!   that QUBIKOS interaction graphs cannot be embedded into the coupling
//!   graph and to implement QUEKO-style initial placement.
//! * [`weights`] — per-coupler SWAP-cost weights ([`CouplerWeights`]):
//!   uniform today, fidelity-derived heterogeneous costs as a scenario axis,
//!   threaded through the routing kernel's score multipliers.
//! * [`generators`] — deterministic generators for standard topologies.
//!
//! # Example
//!
//! ```
//! use qubikos_graph::{Graph, generators};
//!
//! let grid = generators::grid_graph(3, 3);
//! assert_eq!(grid.node_count(), 9);
//! assert_eq!(grid.edge_count(), 12);
//! assert!(grid.is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod distance;
pub mod generators;
pub mod graph;
pub mod isomorphism;
pub mod oracle;
pub mod traversal;
pub mod weights;

pub use csr::CsrGraph;
pub use distance::DistanceMatrix;
pub use graph::{Edge, Graph, NodeId};
pub use isomorphism::{find_subgraph_embedding, is_subgraph_isomorphic, Vf2Matcher};
pub use oracle::{
    default_row_capacity, BfsOracle, DistanceOracle, DistanceRow, OracleKind, OracleStats,
    DENSE_ORACLE_MAX_NODES, SPARSE_ROW_CACHE_CAPACITY,
};
pub use traversal::{bfs_distances, bfs_edge_order, bfs_order, connected_components};
pub use weights::CouplerWeights;
