//! Distance oracles: exact hop distances behind one query API.
//!
//! Every SWAP router and exact lower bound in the suite scores against
//! coupling-graph distances. There are two tiers:
//!
//! * The eagerly-built dense [`DistanceMatrix`]: one BFS per node, O(n²)
//!   memory, and a query is a single array read — no lock, no refcount, no
//!   shared counter. Every built-in device gets it: the table costs 126 KiB
//!   on Eagle-127 and 1.4 MiB on Osprey-433, and Eagle-127's builds in
//!   under half a millisecond.
//! * The on-demand [`BfsOracle`] for user-built graphs above
//!   [`DENSE_ORACLE_MAX_NODES`] nodes, where n² words stop being cheap. It
//!   keeps the adjacency in CSR form and computes distance *rows* on
//!   demand, recycling them through a stamped LRU cache so repeated queries
//!   against the same source (every candidate SWAP is scored against the
//!   same handful of front-gate qubits) cost one array read under a mutex.
//!
//! The cutoff is measured, not guessed. When Eagle-127 routed on the
//! cached tier, the shared oracle's mutex, row refcounts and atomic counters
//! made cold LightSABRE/t|ket⟩/ML-QLS evaluation about 5× slower than on the
//! dense table, and a 2-thread pipeline lost to a single thread. A landmark
//! bound tier for pruning candidate scans used to sit on top of the cached
//! tier; on heavy-hex its stretch was 9–11, most bound queries fell back to
//! exact rows, and plain cached rows were as fast, so it was removed.
//!
//! All answers are **exact** BFS hop distances — the sparse oracle is lazy,
//! not approximate — so selecting either tier can never change a routing
//! decision. [`DistanceOracle`] is the closed enum over the two, chosen
//! automatically by node count (see [`OracleKind::auto_for`]) with an
//! explicit override for tests and benchmarks.
//!
//! The row cache additionally supports **pinning**: the routing kernel
//! marks the physical qubits of the current front gates as pinned (via
//! [`BfsOracle::pin_rows`]), and eviction then only considers unpinned
//! rows, so the handful of rows every candidate scan touches survive
//! scattered queries that would otherwise cycle them out.

use crate::csr::CsrGraph;
use crate::distance::DistanceMatrix;
use crate::graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Largest node count for which [`OracleKind::auto_for`] picks the dense
/// matrix. Every built-in device, Osprey-433 included, sits below it, so
/// every routing query on them is one array read (a 512² table is 2 MiB);
/// only user-built graphs above it fall back to the cached row oracle.
pub const DENSE_ORACLE_MAX_NODES: usize = 512;

/// Floor on the number of distance rows the sparse oracle keeps resident.
/// The default capacity is [`default_row_capacity`] — `max(64, n/3)` — so
/// peak oracle memory stays well below the n² dense matrix while the cache
/// covers every qubit a routing front plausibly touches between evictions,
/// even on devices whose fronts span hundreds of qubits.
pub const SPARSE_ROW_CACHE_CAPACITY: usize = 64;

/// Default row-cache capacity for a device of `nodes` qubits: the
/// [`SPARSE_ROW_CACHE_CAPACITY`] floor, growing as `n/3` on large devices.
/// Routing fronts on device-width workloads touch O(n) distinct distance
/// sources per candidate scan; a capacity that scales with the device keeps
/// the per-decision working set resident (so front pinning has slots to
/// protect) while still staying a small fraction of the dense n² matrix.
pub fn default_row_capacity(nodes: usize) -> usize {
    (nodes / 3).max(SPARSE_ROW_CACHE_CAPACITY)
}

/// Which distance-oracle implementation an architecture uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OracleKind {
    /// Eager all-pairs [`DistanceMatrix`] (O(n²) memory, O(1) queries).
    Dense,
    /// On-demand [`BfsOracle`] (O(cache × n) memory, amortized O(1) queries
    /// against cached rows, one BFS per cache miss).
    Sparse,
}

impl OracleKind {
    /// The automatic selection rule: dense up to
    /// [`DENSE_ORACLE_MAX_NODES`] nodes, sparse above.
    pub fn auto_for(nodes: usize) -> OracleKind {
        if nodes <= DENSE_ORACLE_MAX_NODES {
            OracleKind::Dense
        } else {
            OracleKind::Sparse
        }
    }

    /// Stable lower-case name (`"dense"` / `"sparse"`).
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Dense => "dense",
            OracleKind::Sparse => "sparse",
        }
    }
}

/// Counters describing how an oracle has been used, for the bench layer's
/// per-route reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleStats {
    /// Point-distance queries answered. The dense matrix does not count its
    /// queries (an atomic increment would dominate its single array read),
    /// so this is 0 for [`OracleKind::Dense`].
    pub queries: u64,
    /// BFS rows computed. The dense matrix computes all `n` rows eagerly at
    /// construction; the sparse oracle counts every cache-miss BFS, so the
    /// value can exceed `n` when eviction recycles rows.
    pub rows_computed: u64,
    /// Queries answered from a cached row (always 0 for the dense matrix,
    /// which has no cache to hit).
    pub cache_hits: u64,
    /// The subset of `cache_hits` answered from a *pinned* row — the
    /// front-locality hits the kernel→oracle hint channel exists to create.
    pub pinned_hits: u64,
    /// Always 0: the landmark bound tier that counted its queries here was
    /// removed. Kept only because the repository benchmark still reads it.
    pub landmark_queries: u64,
    /// Always 0: candidate pruning, which recorded its survivors here, went
    /// with the landmark tier. Kept only because the repository benchmark
    /// still reads it.
    pub exact_fallbacks: u64,
}

impl OracleStats {
    /// The difference `self - earlier`, for per-route deltas over a shared
    /// oracle.
    #[must_use]
    pub fn since(&self, earlier: &OracleStats) -> OracleStats {
        OracleStats {
            queries: self.queries - earlier.queries,
            rows_computed: self.rows_computed - earlier.rows_computed,
            cache_hits: self.cache_hits - earlier.cache_hits,
            pinned_hits: self.pinned_hits - earlier.pinned_hits,
            landmark_queries: self.landmark_queries - earlier.landmark_queries,
            exact_fallbacks: self.exact_fallbacks - earlier.exact_fallbacks,
        }
    }
}

/// One cached distance row.
#[derive(Debug)]
struct Slot {
    node: u32,
    last_used: u64,
    row: Arc<[usize]>,
}

/// The stamped LRU row cache plus the BFS scratch buffers, all behind one
/// mutex so a row compute reuses the same allocations across route calls.
#[derive(Debug)]
struct RowCache {
    /// `slot_of[node]` = slot index holding that node's row, or `NO_SLOT`.
    slot_of: Vec<u32>,
    slots: Vec<Slot>,
    clock: u64,
    /// `pinned[node]` = the node is in the current pin set (whether or not
    /// its row is resident — pinning protects rows, it does not prefetch).
    pinned: Vec<bool>,
    /// The nodes currently pinned, so replacing the pin set is O(|pins|).
    pin_list: Vec<u32>,
    dist_scratch: Vec<usize>,
    queue_scratch: VecDeque<u32>,
}

const NO_SLOT: u32 = u32::MAX;

impl RowCache {
    fn new(nodes: usize) -> Self {
        RowCache {
            slot_of: vec![NO_SLOT; nodes],
            slots: Vec::new(),
            clock: 0,
            pinned: vec![false; nodes],
            pin_list: Vec::new(),
            dist_scratch: vec![0; nodes],
            queue_scratch: VecDeque::new(),
        }
    }

    /// Replaces the pin set. Previously pinned rows become ordinary LRU
    /// citizens; rows for `nodes` (once computed) survive eviction.
    fn set_pins(&mut self, nodes: &[NodeId]) {
        for &node in &self.pin_list {
            self.pinned[node as usize] = false;
        }
        self.pin_list.clear();
        for &node in nodes {
            if !self.pinned[node] {
                self.pinned[node] = true;
                self.pin_list.push(node as u32);
            }
        }
    }

    /// The cached row for `node` (with its pin flag), refreshing its LRU
    /// stamp.
    fn get(&mut self, node: NodeId) -> Option<(Arc<[usize]>, bool)> {
        let slot = self.slot_of[node];
        if slot == NO_SLOT {
            return None;
        }
        self.clock += 1;
        let slot = &mut self.slots[slot as usize];
        slot.last_used = self.clock;
        Some((Arc::clone(&slot.row), self.pinned[node]))
    }

    /// Computes the BFS row for `node` and caches it, evicting the least
    /// recently used *unpinned* row once `capacity` slots are full (the
    /// plain LRU victim if every resident row is pinned — the cache must
    /// stay bounded even under an oversized pin set).
    fn compute_and_insert(
        &mut self,
        csr: &CsrGraph,
        node: NodeId,
        capacity: usize,
    ) -> Arc<[usize]> {
        csr.bfs_into(node, &mut self.dist_scratch, &mut self.queue_scratch);
        let row: Arc<[usize]> = Arc::from(&self.dist_scratch[..]);
        self.clock += 1;
        let slot_index = if self.slots.len() < capacity {
            self.slots.push(Slot {
                node: node as u32,
                last_used: self.clock,
                row: Arc::clone(&row),
            });
            self.slots.len() - 1
        } else {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !self.pinned[s.node as usize])
                .min_by_key(|(_, s)| s.last_used)
                .or_else(|| {
                    self.slots
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.last_used)
                })
                .map(|(i, _)| i)
                .expect("capacity is at least one slot");
            self.slot_of[self.slots[victim].node as usize] = NO_SLOT;
            self.slots[victim] = Slot {
                node: node as u32,
                last_used: self.clock,
                row: Arc::clone(&row),
            };
            victim
        };
        self.slot_of[node] = slot_index as u32;
        row
    }
}

/// On-demand exact-distance oracle over a CSR adjacency.
///
/// Queries are answered from BFS rows computed lazily and recycled through a
/// bounded LRU cache; see the module docs for the design rationale. All
/// distances are exact hop counts, so any two oracles over the same graph —
/// and the dense matrix — agree on every query regardless of cache state,
/// query order, or thread interleaving. Only the [`OracleStats`] counters
/// are schedule-dependent.
///
/// The oracle is internally synchronized (`&self` queries from any number of
/// threads); cloning produces an oracle over the same graph with a cold
/// cache and zeroed stats.
#[derive(Debug)]
pub struct BfsOracle {
    csr: CsrGraph,
    capacity: usize,
    cache: Mutex<RowCache>,
    queries: AtomicU64,
    rows_computed: AtomicU64,
    cache_hits: AtomicU64,
    pinned_hits: AtomicU64,
    /// `(diameter, connected)` of the graph, computed once on first use by a
    /// full BFS sweep that bypasses the row cache.
    extent: OnceLock<(Option<usize>, bool)>,
}

impl BfsOracle {
    /// An oracle over `graph` with the default row-cache capacity
    /// ([`default_row_capacity`] of the node count).
    pub fn new(graph: &Graph) -> Self {
        Self::with_row_capacity(graph, default_row_capacity(graph.node_count()))
    }

    /// An oracle over `graph` caching at most `capacity` rows.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_row_capacity(graph: &Graph, capacity: usize) -> Self {
        assert!(capacity > 0, "row cache needs at least one slot");
        let csr = CsrGraph::from_graph(graph);
        let nodes = csr.node_count();
        BfsOracle {
            csr,
            capacity,
            cache: Mutex::new(RowCache::new(nodes)),
            queries: AtomicU64::new(0),
            rows_computed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            pinned_hits: AtomicU64::new(0),
            extent: OnceLock::new(),
        }
    }

    /// Number of nodes the oracle answers for.
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// Maximum number of rows the cache holds.
    pub fn row_cache_capacity(&self) -> usize {
        self.capacity
    }

    /// Number of rows currently cached (bounded by the capacity — the
    /// structural guarantee behind the O(capacity × n) memory bound).
    pub fn cached_rows(&self) -> usize {
        self.lock_cache().slots.len()
    }

    /// Replaces the set of pinned rows with `nodes` — the kernel→oracle
    /// hint channel. Pinned rows are skipped by LRU eviction (unless every
    /// resident row is pinned), so the distance sources a routing front
    /// queries on every candidate scan stay resident across scattered
    /// intervening queries. Pinning does not prefetch: a pinned node's row
    /// is still computed lazily on first query.
    ///
    /// Pinning is purely a replacement-policy hint; it never changes any
    /// distance answer. Out-of-range nodes are debug-asserted.
    pub fn pin_rows(&self, nodes: &[NodeId]) {
        debug_assert!(
            nodes.iter().all(|&n| n < self.node_count()),
            "pinned node out of range"
        );
        self.lock_cache().set_pins(nodes);
    }

    /// Number of nodes currently in the pin set (resident or not).
    pub fn pinned_nodes(&self) -> usize {
        self.lock_cache().pin_list.len()
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, RowCache> {
        // A panic while holding the lock can only leave a *valid* cache
        // behind (rows are inserted fully formed), so poisoning is not a
        // correctness signal worth propagating.
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Exact hop distance between `a` and `b` (`usize::MAX` when
    /// disconnected). See [`Self::try_distance`] for the checked variant.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range (checked in debug builds; in
    /// release builds the underlying indexing panics).
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let n = self.node_count();
        debug_assert!(a < n && b < n, "node out of range");
        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.lock_cache();
        // Distances are symmetric: either endpoint's row answers the query,
        // which roughly halves the misses for scattered access patterns.
        if let Some((row, pinned)) = cache.get(a) {
            self.record_hit(pinned);
            return row[b];
        }
        if let Some((row, pinned)) = cache.get(b) {
            self.record_hit(pinned);
            return row[a];
        }
        self.rows_computed.fetch_add(1, Ordering::Relaxed);
        cache.compute_and_insert(&self.csr, a, self.capacity)[b]
    }

    fn record_hit(&self, pinned: bool) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        if pinned {
            self.pinned_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Checked [`Self::distance`]: `None` when either node is out of range.
    pub fn try_distance(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let n = self.node_count();
        (a < n && b < n).then(|| self.distance(a, b))
    }

    /// The full distance row from `a`, shared with the cache (cheap to
    /// clone, stays valid across later queries and evictions).
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn distance_row(&self, a: NodeId) -> Arc<[usize]> {
        assert!(a < self.node_count(), "node out of range");
        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.lock_cache();
        if let Some((row, pinned)) = cache.get(a) {
            self.record_hit(pinned);
            return row;
        }
        self.rows_computed.fetch_add(1, Ordering::Relaxed);
        cache.compute_and_insert(&self.csr, a, self.capacity)
    }

    /// Usage counters since construction (or since the last clone).
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            queries: self.queries.load(Ordering::Relaxed),
            rows_computed: self.rows_computed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            pinned_hits: self.pinned_hits.load(Ordering::Relaxed),
            ..OracleStats::default()
        }
    }

    fn extent(&self) -> (Option<usize>, bool) {
        *self.extent.get_or_init(|| {
            let n = self.node_count();
            if n == 0 {
                return (None, true);
            }
            // One BFS per node with a single reusable buffer: O(n·m) time,
            // O(n) memory, no cache pollution — the sweep runs at most once.
            let mut dist = vec![0usize; n];
            let mut queue = VecDeque::new();
            let mut max = 0;
            let mut connected = true;
            for start in 0..n {
                self.csr.bfs_into(start, &mut dist, &mut queue);
                for &d in &dist {
                    if d == usize::MAX {
                        connected = false;
                    } else {
                        max = max.max(d);
                    }
                }
            }
            let diameter = (connected && n >= 2).then_some(max);
            (diameter, connected)
        })
    }

    /// Largest finite distance, or `None` if the graph has fewer than two
    /// nodes or is disconnected (the [`DistanceMatrix::diameter`] contract).
    pub fn diameter(&self) -> Option<usize> {
        self.extent().0
    }

    /// `true` if every pair of nodes has a finite distance.
    pub fn is_connected(&self) -> bool {
        self.extent().1
    }
}

impl Clone for BfsOracle {
    /// Clones the graph structure with a cold cache and zeroed stats — a
    /// clone answers identically but re-derives its rows.
    fn clone(&self) -> Self {
        let nodes = self.csr.node_count();
        BfsOracle {
            csr: self.csr.clone(),
            capacity: self.capacity,
            cache: Mutex::new(RowCache::new(nodes)),
            queries: AtomicU64::new(0),
            rows_computed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            pinned_hits: AtomicU64::new(0),
            extent: self.extent.clone(),
        }
    }
}

impl PartialEq for BfsOracle {
    /// Structural equality: same graph and capacity. Cache contents and
    /// stats are usage artifacts, not identity.
    fn eq(&self, other: &Self) -> bool {
        self.csr == other.csr && self.capacity == other.capacity
    }
}

impl Eq for BfsOracle {}

/// A borrowed or shared distance row, depending on the oracle behind it.
///
/// Derefs to `[usize]`; `row[b]` is the distance from the row's source to
/// `b`.
#[derive(Debug, Clone)]
pub enum DistanceRow<'a> {
    /// A row borrowed straight out of the dense matrix.
    Borrowed(&'a [usize]),
    /// A row shared with the sparse oracle's cache.
    Shared(Arc<[usize]>),
}

impl Deref for DistanceRow<'_> {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        match self {
            DistanceRow::Borrowed(row) => row,
            DistanceRow::Shared(row) => row,
        }
    }
}

/// The distance oracle of an architecture: dense matrix or sparse
/// on-demand BFS — one query API (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistanceOracle {
    /// Eager all-pairs matrix.
    Dense(DistanceMatrix),
    /// Lazy cached-row oracle (boxed: its cache and counters are several
    /// times the size of the matrix handle).
    Sparse(Box<BfsOracle>),
}

impl DistanceOracle {
    /// Builds the oracle [`OracleKind::auto_for`] selects for the graph's
    /// size.
    pub fn auto(graph: &Graph) -> Self {
        Self::build(graph, OracleKind::auto_for(graph.node_count()))
    }

    /// Builds the requested oracle kind, overriding the automatic rule.
    pub fn build(graph: &Graph, kind: OracleKind) -> Self {
        Self::build_with_capacity(graph, kind, None)
    }

    /// Builds the requested oracle kind with an explicit row-cache
    /// capacity (`None` = [`default_row_capacity`] of the node count). The
    /// dense matrix has no cache; its capacity is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `row_capacity` is `Some(0)` for a cached kind.
    pub fn build_with_capacity(
        graph: &Graph,
        kind: OracleKind,
        row_capacity: Option<usize>,
    ) -> Self {
        match kind {
            OracleKind::Dense => DistanceOracle::Dense(DistanceMatrix::new(graph)),
            OracleKind::Sparse => {
                let capacity =
                    row_capacity.unwrap_or_else(|| default_row_capacity(graph.node_count()));
                DistanceOracle::Sparse(Box::new(BfsOracle::with_row_capacity(graph, capacity)))
            }
        }
    }

    /// Which implementation this oracle is.
    pub fn kind(&self) -> OracleKind {
        match self {
            DistanceOracle::Dense(_) => OracleKind::Dense,
            DistanceOracle::Sparse(_) => OracleKind::Sparse,
        }
    }

    /// The bounded row-cache oracle, when this is the sparse tier.
    pub fn row_tier(&self) -> Option<&BfsOracle> {
        match self {
            DistanceOracle::Dense(_) => None,
            DistanceOracle::Sparse(oracle) => Some(oracle),
        }
    }

    /// Forwards a pin set to the row cache (see [`BfsOracle::pin_rows`]);
    /// a no-op for the dense matrix, which keeps every row resident.
    pub fn pin_rows(&self, nodes: &[NodeId]) {
        if let Some(tier) = self.row_tier() {
            tier.pin_rows(nodes);
        }
    }

    /// Number of nodes the oracle answers for.
    pub fn node_count(&self) -> usize {
        match self {
            DistanceOracle::Dense(matrix) => matrix.node_count(),
            DistanceOracle::Sparse(oracle) => oracle.node_count(),
        }
    }

    /// Exact hop distance between `a` and `b` (`usize::MAX` when
    /// disconnected).
    ///
    /// # Panics
    ///
    /// Out-of-range nodes are debug-asserted; release behaviour is
    /// unspecified (panic or an unrelated value). Use [`Self::try_distance`]
    /// when the indices are not already validated.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        match self {
            DistanceOracle::Dense(matrix) => matrix.get(a, b),
            DistanceOracle::Sparse(oracle) => oracle.distance(a, b),
        }
    }

    /// Checked [`Self::distance`]: `None` when either node is out of range.
    pub fn try_distance(&self, a: NodeId, b: NodeId) -> Option<usize> {
        match self {
            DistanceOracle::Dense(matrix) => matrix.try_get(a, b),
            DistanceOracle::Sparse(oracle) => oracle.try_distance(a, b),
        }
    }

    /// The distances from `a` to every node.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn distance_row(&self, a: NodeId) -> DistanceRow<'_> {
        match self {
            DistanceOracle::Dense(matrix) => DistanceRow::Borrowed(matrix.row(a)),
            DistanceOracle::Sparse(oracle) => DistanceRow::Shared(oracle.distance_row(a)),
        }
    }

    /// Largest finite distance (see [`DistanceMatrix::diameter`]).
    pub fn diameter(&self) -> Option<usize> {
        match self {
            DistanceOracle::Dense(matrix) => matrix.diameter(),
            DistanceOracle::Sparse(oracle) => oracle.diameter(),
        }
    }

    /// `true` if every pair of nodes has a finite distance.
    pub fn is_connected(&self) -> bool {
        match self {
            DistanceOracle::Dense(matrix) => matrix.is_connected(),
            DistanceOracle::Sparse(oracle) => oracle.is_connected(),
        }
    }

    /// Usage counters. For the dense matrix: `rows_computed = n` (eager),
    /// queries and hits uncounted (0) — see [`OracleStats`].
    pub fn stats(&self) -> OracleStats {
        match self {
            DistanceOracle::Dense(matrix) => OracleStats {
                rows_computed: matrix.node_count() as u64,
                ..OracleStats::default()
            },
            DistanceOracle::Sparse(oracle) => oracle.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;

    #[test]
    fn auto_rule_matches_threshold() {
        assert_eq!(OracleKind::auto_for(1), OracleKind::Dense);
        assert_eq!(
            OracleKind::auto_for(DENSE_ORACLE_MAX_NODES),
            OracleKind::Dense
        );
        assert_eq!(
            OracleKind::auto_for(DENSE_ORACLE_MAX_NODES + 1),
            OracleKind::Sparse
        );
        assert_eq!(OracleKind::Dense.name(), "dense");
        assert_eq!(OracleKind::Sparse.name(), "sparse");

        // Every built-in device size, Osprey-433 included, is dense.
        assert_eq!(OracleKind::auto_for(433), OracleKind::Dense);
        let small = generators::grid_graph(3, 3);
        assert_eq!(DistanceOracle::auto(&small).kind(), OracleKind::Dense);
        let large = generators::grid_graph(23, 23);
        assert_eq!(DistanceOracle::auto(&large).kind(), OracleKind::Sparse);
    }

    #[test]
    fn sparse_answers_match_dense_on_grid() {
        let g = generators::grid_graph(5, 6);
        let dense = DistanceMatrix::new(&g);
        let sparse = BfsOracle::new(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(sparse.distance(a, b), dense.get(a, b), "({a}, {b})");
            }
        }
        assert_eq!(sparse.diameter(), dense.diameter());
        assert!(sparse.is_connected());
    }

    #[test]
    fn rows_match_and_survive_eviction() {
        let g = generators::grid_graph(4, 4);
        let dense = DistanceMatrix::new(&g);
        let sparse = BfsOracle::with_row_capacity(&g, 2);
        // Fetch every row with a 2-slot cache: each fetch evicts, but every
        // returned row stays valid (Arc) and exact.
        let rows: Vec<Arc<[usize]>> = g.nodes().map(|a| sparse.distance_row(a)).collect();
        for (a, row) in rows.iter().enumerate() {
            assert_eq!(&row[..], dense.row(a), "row {a}");
        }
        assert!(sparse.cached_rows() <= 2);
        assert_eq!(sparse.stats().rows_computed, g.node_count() as u64);
    }

    #[test]
    fn cache_hits_are_counted_and_symmetric() {
        let g = generators::path_graph(10);
        let oracle = BfsOracle::new(&g);
        assert_eq!(oracle.distance(0, 9), 9);
        let after_first = oracle.stats();
        assert_eq!(after_first.rows_computed, 1);
        assert_eq!(after_first.cache_hits, 0);
        // Same source row: hit.
        assert_eq!(oracle.distance(0, 4), 4);
        // Symmetric query answered by the cached source row: also a hit.
        assert_eq!(oracle.distance(5, 0), 5);
        let stats = oracle.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.rows_computed, 1);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(
            stats.since(&after_first),
            OracleStats {
                queries: 2,
                rows_computed: 0,
                cache_hits: 2,
                ..OracleStats::default()
            }
        );
    }

    /// Satellite contract: a 1-slot cache and an over-provisioned cache are
    /// both still exact — capacity is a performance knob, never a
    /// correctness input.
    #[test]
    fn extreme_capacities_stay_exact() {
        let g = generators::grid_graph(4, 5);
        let dense = DistanceMatrix::new(&g);
        let n = g.node_count();
        for capacity in [1, n, n * 2] {
            let sparse = BfsOracle::with_row_capacity(&g, capacity);
            for a in g.nodes() {
                for b in g.nodes() {
                    assert_eq!(sparse.distance(a, b), dense.get(a, b), "cap {capacity}");
                }
            }
            assert!(sparse.cached_rows() <= capacity);
        }
        let generous = BfsOracle::with_row_capacity(&g, n);
        for a in g.nodes() {
            let _ = generous.distance_row(a);
        }
        // With capacity >= n nothing is ever evicted.
        assert_eq!(generous.cached_rows(), n);
        assert_eq!(generous.stats().rows_computed, n as u64);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_is_rejected() {
        let _ = BfsOracle::with_row_capacity(&generators::path_graph(3), 0);
    }

    /// Satellite contract: pinned rows survive eviction; unpinned rows
    /// still evict in LRU stamp order.
    #[test]
    fn pinned_rows_survive_and_unpinned_evict_in_stamp_order() {
        let g = generators::path_graph(8);
        let oracle = BfsOracle::with_row_capacity(&g, 3);
        oracle.pin_rows(&[0]);
        let _ = oracle.distance_row(0); // cache: {0*} (pinned)
        let _ = oracle.distance_row(1); // cache: {0*, 1}
        let _ = oracle.distance_row(2); // cache: {0*, 1, 2}
        let _ = oracle.distance(1, 7); // refresh 1: stamp order now 2 < 1
        let before = oracle.stats().rows_computed;
        let _ = oracle.distance_row(3); // full: evicts 2 (stalest unpinned), NOT pinned 0
        let _ = oracle.distance(0, 5); // pinned row still resident
        let _ = oracle.distance(1, 5); // refreshed row still resident
        assert_eq!(oracle.stats().rows_computed, before + 1);
        let _ = oracle.distance_row(2); // 2 was the eviction victim: recompute
        assert_eq!(oracle.stats().rows_computed, before + 2);
    }

    #[test]
    fn all_pinned_cache_falls_back_to_plain_lru() {
        let g = generators::path_graph(6);
        let oracle = BfsOracle::with_row_capacity(&g, 2);
        oracle.pin_rows(&[0, 1]);
        let _ = oracle.distance_row(0);
        let _ = oracle.distance_row(1);
        // Every slot is pinned; inserting a third row must still succeed
        // (bounded memory beats the pin hint) by evicting the stalest row.
        let _ = oracle.distance_row(2);
        assert_eq!(oracle.cached_rows(), 2);
        let before = oracle.stats().rows_computed;
        let _ = oracle.distance(1, 3); // row 1 survived (row 0 was stalest)
        assert_eq!(oracle.stats().rows_computed, before);
    }

    #[test]
    fn pinned_hits_are_counted_and_pin_set_is_replaceable() {
        let g = generators::path_graph(8);
        let oracle = BfsOracle::new(&g);
        oracle.pin_rows(&[3, 3, 4]); // duplicates collapse
        assert_eq!(oracle.pinned_nodes(), 2);
        let _ = oracle.distance(3, 0); // miss (pinning does not prefetch)
        let _ = oracle.distance(3, 1); // pinned hit
        let _ = oracle.distance(5, 3); // symmetric pinned hit via row 3
        let stats = oracle.stats();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.pinned_hits, 2);
        // Replacing the pin set unpins 3 and 4; hits on row 3 are now plain.
        oracle.pin_rows(&[5]);
        assert_eq!(oracle.pinned_nodes(), 1);
        let _ = oracle.distance(3, 2);
        let stats = oracle.stats();
        assert_eq!(stats.cache_hits, 3);
        assert_eq!(stats.pinned_hits, 2);
        // Clearing pins entirely.
        oracle.pin_rows(&[]);
        assert_eq!(oracle.pinned_nodes(), 0);
    }

    #[test]
    fn lru_evicts_the_stalest_row() {
        let g = generators::path_graph(6);
        let oracle = BfsOracle::with_row_capacity(&g, 2);
        let _ = oracle.distance(0, 1); // cache: {0}
        let _ = oracle.distance(1, 2); // cache: {0, 1}
        let _ = oracle.distance(0, 3); // refresh 0
        let _ = oracle.distance(2, 3); // evicts 1, cache: {0, 2}
        let before = oracle.stats().rows_computed;
        let _ = oracle.distance(0, 5); // still cached
        let _ = oracle.distance(2, 5); // still cached
        assert_eq!(oracle.stats().rows_computed, before);
        let _ = oracle.distance(1, 5); // 1 was evicted: recompute
        assert_eq!(oracle.stats().rows_computed, before + 1);
    }

    #[test]
    fn disconnected_graphs_report_max_and_no_diameter() {
        let mut g = generators::path_graph(3);
        let isolated = g.add_node();
        let oracle = BfsOracle::new(&g);
        assert_eq!(oracle.distance(0, isolated), usize::MAX);
        assert_eq!(oracle.diameter(), None);
        assert!(!oracle.is_connected());
        let auto = DistanceOracle::auto(&g);
        assert_eq!(auto.try_distance(0, isolated), Some(usize::MAX));
        assert!(!auto.is_connected());
    }

    #[test]
    fn try_distance_checks_bounds() {
        let g = generators::path_graph(4);
        for oracle in [
            DistanceOracle::build(&g, OracleKind::Dense),
            DistanceOracle::build(&g, OracleKind::Sparse),
        ] {
            assert_eq!(oracle.try_distance(0, 3), Some(3));
            assert_eq!(oracle.try_distance(0, 4), None);
            assert_eq!(oracle.try_distance(9, 0), None);
        }
    }

    #[test]
    fn clone_answers_identically_with_cold_state() {
        let g = generators::grid_graph(4, 4);
        let oracle = BfsOracle::new(&g);
        let _ = oracle.distance(0, 15);
        let clone = oracle.clone();
        assert_eq!(clone.stats(), OracleStats::default());
        assert_eq!(clone.cached_rows(), 0);
        assert_eq!(clone.distance(0, 15), oracle.distance(0, 15));
        assert_eq!(clone, oracle);
    }

    #[test]
    fn distance_row_agrees_between_oracles() {
        let g = generators::cycle_graph(9);
        let dense = DistanceOracle::build(&g, OracleKind::Dense);
        let sparse = DistanceOracle::build(&g, OracleKind::Sparse);
        for a in g.nodes() {
            assert_eq!(&dense.distance_row(a)[..], &sparse.distance_row(a)[..]);
        }
        assert_eq!(dense.diameter(), sparse.diameter());
        assert_eq!(dense.node_count(), sparse.node_count());
        assert!(sparse.row_tier().is_some());
        assert!(dense.row_tier().is_none());
        dense.pin_rows(&[0]); // no-op, must not panic
    }

    #[test]
    fn build_with_capacity_threads_through_both_cached_kinds() {
        // Sparse is the one row-cached kind left: the capacity must reach its
        // cache, while the dense matrix, which has no cache, ignores it.
        let g = generators::grid_graph(3, 4);
        let oracle = DistanceOracle::build_with_capacity(&g, OracleKind::Sparse, Some(5));
        assert_eq!(
            oracle.row_tier().expect("cached kind").row_cache_capacity(),
            5
        );
        let default = DistanceOracle::build_with_capacity(&g, OracleKind::Sparse, None);
        assert_eq!(
            default
                .row_tier()
                .expect("cached kind")
                .row_cache_capacity(),
            default_row_capacity(g.node_count())
        );
        let dense = DistanceOracle::build_with_capacity(&g, OracleKind::Dense, Some(5));
        assert!(dense.row_tier().is_none());
    }

    #[test]
    fn default_capacity_floors_small_devices_and_scales_large_ones() {
        // Small and mid-size devices keep the 64-row floor; device-width
        // fronts on large lattices get n/3 slots so pinning has room to
        // protect the per-decision working set.
        assert_eq!(default_row_capacity(0), SPARSE_ROW_CACHE_CAPACITY);
        assert_eq!(default_row_capacity(127), SPARSE_ROW_CACHE_CAPACITY);
        assert_eq!(default_row_capacity(192), SPARSE_ROW_CACHE_CAPACITY);
        assert_eq!(default_row_capacity(433), 144);
        assert!(default_row_capacity(433) < 433);
    }

    #[test]
    fn tiny_graphs() {
        let empty = BfsOracle::new(&Graph::new());
        assert_eq!(empty.node_count(), 0);
        assert_eq!(empty.diameter(), None);
        assert!(empty.is_connected());
        let single = BfsOracle::new(&Graph::with_nodes(1));
        assert_eq!(single.distance(0, 0), 0);
        assert_eq!(single.diameter(), None);
        assert!(single.is_connected());
    }

    #[test]
    fn concurrent_queries_agree_with_dense() {
        let g = generators::grid_graph(8, 9);
        let dense = DistanceMatrix::new(&g);
        let oracle = BfsOracle::with_row_capacity(&g, 4);
        let n = g.node_count();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let oracle = &oracle;
                let dense = &dense;
                scope.spawn(move || {
                    for a in (t..n).step_by(4) {
                        for b in 0..n {
                            assert_eq!(oracle.distance(a, b), dense.get(a, b));
                        }
                    }
                });
            }
        });
        assert!(oracle.cached_rows() <= 4);
    }

    /// A random connected graph: a random spanning tree (each node links to
    /// a random earlier node) plus arbitrary extra edges.
    fn random_connected_graph(n: usize, parents: &[usize], extras: &[(usize, usize)]) -> Graph {
        let mut g = Graph::with_nodes(n);
        for (node, &p) in parents.iter().enumerate().take(n - 1) {
            let node = node + 1;
            g.add_edge(node, p % node);
        }
        for &(a, b) in extras {
            let (a, b) = (a % n, b % n);
            if a != b {
                g.add_edge(a, b);
            }
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The satellite contract: the sparse oracle and the dense matrix
        /// agree on every pair of every random connected graph, including
        /// under a pathologically small cache.
        #[test]
        fn dense_equals_sparse_on_random_connected_graphs(
            n in 2usize..48,
            parents in proptest::collection::vec(0usize..1000, 47..48),
            extras in proptest::collection::vec((0usize..1000, 0usize..1000), 0..30),
            capacity in 1usize..6,
        ) {
            let g = random_connected_graph(n, &parents, &extras);
            prop_assert!(g.is_connected());
            let dense = DistanceMatrix::new(&g);
            let sparse = BfsOracle::with_row_capacity(&g, capacity);
            for a in g.nodes() {
                for b in g.nodes() {
                    prop_assert_eq!(sparse.distance(a, b), dense.get(a, b));
                }
            }
            prop_assert_eq!(sparse.diameter(), dense.diameter());
            prop_assert!(sparse.cached_rows() <= capacity);
        }
    }
}
