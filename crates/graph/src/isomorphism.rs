//! Subgraph monomorphism (VF2-style backtracking).
//!
//! Quantum layout synthesis asks whether a circuit's interaction graph can be
//! embedded into the device coupling graph: if it can, the circuit is
//! executable without SWAPs (this is how QUEKO benchmarks are solved), and if
//! it cannot, at least one SWAP is required — the property the QUBIKOS
//! generator engineers deliberately.
//!
//! The matcher searches for a **non-induced** embedding: an injective map
//! from pattern nodes to target nodes such that every pattern edge maps onto
//! a target edge. Target edges with no pattern counterpart are allowed, which
//! is exactly the layout-synthesis notion of "isomorphic to a subgraph".

use crate::graph::{Graph, NodeId};

/// Outcome of an embedding search that may have a node limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmbeddingSearch {
    /// An embedding, as `map[pattern_node] == target_node`.
    Found(Vec<NodeId>),
    /// The search was exhaustive: no embedding exists.
    NotFound,
    /// The node limit ran out first; the answer is unknown.
    GaveUp,
}

/// Backtracking subgraph-monomorphism matcher in the spirit of VF2.
///
/// The matcher owns references to the pattern and target graphs and performs
/// a depth-first search over partial injective mappings, ordering pattern
/// nodes so that each newly matched node is adjacent to the already-matched
/// core whenever possible and pruning candidates whose degree is too small.
///
/// # Example
///
/// ```
/// use qubikos_graph::{generators, Vf2Matcher};
///
/// let pattern = generators::path_graph(3);
/// let target = generators::grid_graph(2, 2);
/// let embedding = Vf2Matcher::new(&pattern, &target).find_embedding();
/// assert!(embedding.is_some());
/// ```
#[derive(Debug)]
pub struct Vf2Matcher<'a> {
    pattern: &'a Graph,
    target: &'a Graph,
    node_limit: Option<u64>,
}

impl<'a> Vf2Matcher<'a> {
    /// Creates a matcher for embedding `pattern` into `target`.
    pub fn new(pattern: &'a Graph, target: &'a Graph) -> Self {
        Vf2Matcher {
            pattern,
            target,
            node_limit: None,
        }
    }

    /// Limits the number of search-tree nodes explored.
    ///
    /// When the limit is reached the search gives up:
    /// [`Self::find_embedding`] then behaves as if no embedding exists, and
    /// [`Self::search`] reports [`EmbeddingSearch::GaveUp`]. Useful to
    /// bound worst-case runtime on large hard instances where the caller
    /// only wants a cheap feasibility probe.
    pub fn with_node_limit(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Finds one embedding, returned as `map[pattern_node] == target_node`.
    ///
    /// Returns `None` if no embedding exists (or the node limit was hit).
    pub fn find_embedding(&self) -> Option<Vec<NodeId>> {
        match self.search() {
            EmbeddingSearch::Found(mapping) => Some(mapping),
            EmbeddingSearch::NotFound | EmbeddingSearch::GaveUp => None,
        }
    }

    /// Searches for one embedding, telling an exhaustive "no" apart from
    /// running out of the node limit.
    pub fn search(&self) -> EmbeddingSearch {
        let np = self.pattern.node_count();
        let nt = self.target.node_count();
        if np == 0 {
            return EmbeddingSearch::Found(Vec::new());
        }
        if np > nt || self.pattern.edge_count() > self.target.edge_count() {
            return EmbeddingSearch::NotFound;
        }
        // Quick degree-sequence pruning: the k-th largest pattern degree must
        // not exceed the k-th largest target degree.
        let pd = self.pattern.degree_sequence();
        let td = self.target.degree_sequence();
        for (p, t) in pd.iter().zip(td.iter()) {
            if p > t {
                return EmbeddingSearch::NotFound;
            }
        }

        let order = self.match_order();
        let mut mapping = vec![usize::MAX; np];
        let mut used = vec![false; nt];
        let mut budget = Budget {
            left: self.node_limit.unwrap_or(u64::MAX),
            ran_out: false,
        };
        if self.extend(&order, 0, &mut mapping, &mut used, &mut budget) {
            EmbeddingSearch::Found(mapping)
        } else if budget.ran_out {
            EmbeddingSearch::GaveUp
        } else {
            EmbeddingSearch::NotFound
        }
    }

    /// Returns `true` if at least one embedding exists.
    pub fn is_isomorphic_to_subgraph(&self) -> bool {
        self.find_embedding().is_some()
    }

    /// Chooses the order in which pattern nodes are matched: highest degree
    /// first, then preferring nodes adjacent to the already-ordered prefix so
    /// that adjacency constraints prune early.
    fn match_order(&self) -> Vec<NodeId> {
        let np = self.pattern.node_count();
        let mut order: Vec<NodeId> = Vec::with_capacity(np);
        let mut placed = vec![false; np];
        while order.len() < np {
            let best = self
                .pattern
                .nodes()
                .filter(|&n| !placed[n])
                .max_by_key(|&n| {
                    let attached = self
                        .pattern
                        .neighbors(n)
                        .iter()
                        .filter(|&&m| placed[m])
                        .count();
                    (attached, self.pattern.degree(n))
                })
                .expect("unplaced node must exist");
            placed[best] = true;
            order.push(best);
        }
        order
    }

    fn extend(
        &self,
        order: &[NodeId],
        depth: usize,
        mapping: &mut Vec<NodeId>,
        used: &mut Vec<bool>,
        budget: &mut Budget,
    ) -> bool {
        if depth == order.len() {
            return true;
        }
        if budget.left == 0 {
            budget.ran_out = true;
            return false;
        }
        budget.left -= 1;

        let p = order[depth];
        let p_deg = self.pattern.degree(p);
        // Candidate targets: restrict to neighbours of an already-mapped
        // pattern neighbour when one exists, otherwise all unused nodes.
        let anchor = self
            .pattern
            .neighbors(p)
            .iter()
            .copied()
            .find(|&q| mapping[q] != usize::MAX);

        let try_candidate = |cand: NodeId,
                             mapping: &mut Vec<NodeId>,
                             used: &mut Vec<bool>,
                             budget: &mut Budget|
         -> bool {
            if used[cand] || self.target.degree(cand) < p_deg {
                return false;
            }
            // Every already-mapped pattern neighbour must be adjacent in the target.
            for &q in self.pattern.neighbors(p) {
                let tq = mapping[q];
                if tq != usize::MAX && !self.target.has_edge(cand, tq) {
                    return false;
                }
            }
            mapping[p] = cand;
            used[cand] = true;
            if self.extend(order, depth + 1, mapping, used, budget) {
                return true;
            }
            mapping[p] = usize::MAX;
            used[cand] = false;
            false
        };

        match anchor {
            Some(q) => {
                let around = mapping[q];
                for &cand in self.target.neighbors(around) {
                    if try_candidate(cand, mapping, used, budget) {
                        return true;
                    }
                }
            }
            None => {
                for cand in self.target.nodes() {
                    if try_candidate(cand, mapping, used, budget) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Search nodes left to a node-limited [`Vf2Matcher`], and whether a branch
/// was cut for lack of them.
struct Budget {
    left: u64,
    ran_out: bool,
}

/// Convenience wrapper: does `pattern` embed into a subgraph of `target`?
pub fn is_subgraph_isomorphic(pattern: &Graph, target: &Graph) -> bool {
    Vf2Matcher::new(pattern, target).is_isomorphic_to_subgraph()
}

/// Convenience wrapper returning one embedding (`map[pattern] == target`),
/// or `None` if the pattern cannot be embedded.
pub fn find_subgraph_embedding(pattern: &Graph, target: &Graph) -> Option<Vec<NodeId>> {
    Vf2Matcher::new(pattern, target).find_embedding()
}

/// Every automorphism of `graph`, as maps `sigma[node] == image`, the
/// identity included; `None` when enumerating them would take more than
/// `node_limit` search nodes.
///
/// A backtracking search assigns images in BFS vertex order (one BFS per
/// connected component). A candidate image must be unused, have the same
/// degree, be adjacent to the images of every already-mapped neighbour (it
/// is drawn from the neighbours of its BFS parent's image), and have
/// exactly as many already-mapped neighbours as the vertex itself — so a
/// complete map preserves edges *and* non-edges. The group of every
/// built-in device enumerates in well under a thousand nodes except
/// Osprey-433 (about seven thousand); highly symmetric graphs such as
/// large cliques hit any practical limit.
///
/// # Example
///
/// ```
/// use qubikos_graph::{automorphisms, generators};
///
/// let square = generators::cycle_graph(4);
/// let group = automorphisms(&square, 1 << 16).expect("small group");
/// assert_eq!(group.len(), 8); // the dihedral group of the square
/// ```
pub fn automorphisms(graph: &Graph, node_limit: u64) -> Option<Vec<Vec<NodeId>>> {
    const UNMAPPED: NodeId = usize::MAX;
    let n = graph.node_count();
    if n == 0 {
        return Some(vec![Vec::new()]);
    }
    // BFS order, each node's BFS parent (whose image bounds the node's
    // candidates), and per position the neighbours ordered earlier.
    let mut order = Vec::with_capacity(n);
    let mut parent = vec![None; n];
    let mut seen = vec![false; n];
    for start in graph.nodes() {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        let mut head = order.len();
        order.push(start);
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &v in graph.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = Some(u);
                    order.push(v);
                }
            }
        }
    }
    let mut rank = vec![0; n];
    for (i, &v) in order.iter().enumerate() {
        rank[v] = i;
    }
    let earlier: Vec<Vec<NodeId>> = order
        .iter()
        .map(|&v| {
            graph
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&w| rank[w] < rank[v])
                .collect()
        })
        .collect();

    let mut image = vec![UNMAPPED; n];
    let mut used = vec![false; n];
    let mut cursor = vec![0usize; n];
    let mut group = Vec::new();
    let mut nodes = 0u64;
    let mut depth = 0usize;
    loop {
        let p = order[depth];
        let candidates = parent[p].map(|q| graph.neighbors(image[q]));
        let len = candidates.map_or(n, <[NodeId]>::len);
        let mut next = None;
        while cursor[depth] < len {
            let c = candidates.map_or(cursor[depth], |cs| cs[cursor[depth]]);
            cursor[depth] += 1;
            let fits = !used[c]
                && graph.degree(c) == graph.degree(p)
                && earlier[depth].iter().all(|&w| graph.has_edge(c, image[w]))
                && graph.neighbors(c).iter().filter(|&&w| used[w]).count() == earlier[depth].len();
            if fits {
                next = Some(c);
                break;
            }
        }
        match next {
            Some(c) => {
                if nodes == node_limit {
                    return None;
                }
                nodes += 1;
                image[p] = c;
                if depth + 1 == n {
                    group.push(image.clone());
                    image[p] = UNMAPPED;
                } else {
                    used[c] = true;
                    depth += 1;
                    cursor[depth] = 0;
                }
            }
            None => {
                if depth == 0 {
                    return Some(group);
                }
                depth -= 1;
                let q = order[depth];
                used[image[q]] = false;
                image[q] = UNMAPPED;
            }
        }
    }
}

/// Checks that `mapping` is a valid monomorphism from `pattern` into `target`.
///
/// Used by tests and by callers that obtained an embedding from elsewhere
/// (e.g. a routing tool's initial placement) and want to validate it.
pub fn verify_embedding(pattern: &Graph, target: &Graph, mapping: &[NodeId]) -> bool {
    if mapping.len() != pattern.node_count() {
        return false;
    }
    let mut used = vec![false; target.node_count()];
    for &t in mapping {
        if t >= target.node_count() || used[t] {
            return false;
        }
        used[t] = true;
    }
    pattern
        .edges()
        .all(|e| target.has_edge(mapping[e.u], mapping[e.v]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_embeds_into_grid() {
        let pattern = generators::path_graph(5);
        let target = generators::grid_graph(3, 3);
        let m = find_subgraph_embedding(&pattern, &target).expect("embedding exists");
        assert!(verify_embedding(&pattern, &target, &m));
    }

    #[test]
    fn star_too_wide_for_grid() {
        // A degree-5 hub cannot embed into a grid whose max degree is 4.
        let pattern = generators::star_graph(6);
        let target = generators::grid_graph(3, 3);
        assert!(!is_subgraph_isomorphic(&pattern, &target));
    }

    #[test]
    fn triangle_does_not_embed_into_bipartite_grid() {
        let pattern = generators::cycle_graph(3);
        let target = generators::grid_graph(4, 4);
        assert!(!is_subgraph_isomorphic(&pattern, &target));
    }

    #[test]
    fn graph_embeds_into_itself() {
        let g = generators::grid_graph(3, 4);
        let m = find_subgraph_embedding(&g, &g).expect("identity-like embedding");
        assert!(verify_embedding(&g, &g, &m));
    }

    #[test]
    fn empty_pattern_always_embeds() {
        let pattern = Graph::new();
        let target = generators::path_graph(3);
        assert_eq!(find_subgraph_embedding(&pattern, &target), Some(vec![]));
    }

    #[test]
    fn pattern_larger_than_target_fails_fast() {
        let pattern = generators::path_graph(5);
        let target = generators::path_graph(3);
        assert!(!is_subgraph_isomorphic(&pattern, &target));
    }

    #[test]
    fn isolated_pattern_nodes_are_allowed() {
        let mut pattern = generators::path_graph(2);
        pattern.add_node();
        let target = generators::grid_graph(2, 2);
        let m = find_subgraph_embedding(&pattern, &target).expect("embedding exists");
        assert!(verify_embedding(&pattern, &target, &m));
    }

    #[test]
    fn cycle_embeds_into_same_length_cycle_but_not_shorter() {
        let c6 = generators::cycle_graph(6);
        assert!(is_subgraph_isomorphic(&c6, &generators::cycle_graph(6)));
        assert!(!is_subgraph_isomorphic(&c6, &generators::cycle_graph(5)));
        // A 6-cycle embeds into a 2x3 grid (which is exactly a 6-cycle).
        assert!(is_subgraph_isomorphic(&c6, &generators::grid_graph(2, 3)));
    }

    #[test]
    fn node_limit_gives_up() {
        let pattern = generators::grid_graph(3, 3);
        let target = generators::grid_graph(5, 5);
        let found = Vf2Matcher::new(&pattern, &target)
            .with_node_limit(1)
            .find_embedding();
        assert!(found.is_none());
        let found = Vf2Matcher::new(&pattern, &target).find_embedding();
        assert!(found.is_some());
        // The three-valued search tells the give-up apart from a proof.
        let limited = Vf2Matcher::new(&pattern, &target).with_node_limit(1);
        assert_eq!(limited.search(), EmbeddingSearch::GaveUp);
        let too_big = Vf2Matcher::new(&target, &pattern).with_node_limit(1);
        assert_eq!(too_big.search(), EmbeddingSearch::NotFound);
        let triangle = generators::cycle_graph(3);
        let exhaustive = Vf2Matcher::new(&triangle, &target).with_node_limit(1_000);
        assert_eq!(exhaustive.search(), EmbeddingSearch::NotFound);
    }

    #[test]
    fn verify_embedding_rejects_bad_maps() {
        let pattern = generators::path_graph(3);
        let target = generators::path_graph(3);
        assert!(!verify_embedding(&pattern, &target, &[0, 0, 1])); // not injective
        assert!(!verify_embedding(&pattern, &target, &[0, 2, 1])); // breaks an edge
        assert!(!verify_embedding(&pattern, &target, &[0, 1])); // wrong length
        assert!(verify_embedding(&pattern, &target, &[0, 1, 2]));
    }

    /// Every map is an edge-preserving bijection, the identity is among
    /// them, and no map repeats.
    fn assert_is_group_of(graph: &Graph, group: &[Vec<NodeId>]) {
        let n = graph.node_count();
        let identity: Vec<NodeId> = (0..n).collect();
        assert!(group.contains(&identity), "identity missing");
        for sigma in group {
            assert!(verify_embedding(graph, graph, sigma), "{sigma:?}");
        }
        let mut distinct = group.to_vec();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), group.len(), "duplicate automorphism");
    }

    #[test]
    fn automorphism_group_sizes_of_small_topologies() {
        for (graph, size) in [
            (generators::path_graph(5), 2),
            (generators::grid_graph(3, 3), 8),
            (generators::grid_graph(2, 3), 4),
            (generators::cycle_graph(6), 12),
            (generators::star_graph(5), 24),
            (generators::complete_graph(4), 24),
            (generators::path_graph(1), 1),
        ] {
            let group = automorphisms(&graph, 1 << 16).expect("within the limit");
            assert_eq!(group.len(), size, "{graph:?}");
            assert_is_group_of(&graph, &group);
        }
    }

    #[test]
    fn automorphisms_cover_disconnected_graphs() {
        // Two disjoint edges plus an isolated node: swap within each edge
        // and swap the edges, 2 * 2 * 2 = 8 maps; the isolated node is fixed.
        let graph = Graph::from_edges(5, [(0, 1), (2, 3)]);
        let group = automorphisms(&graph, 1 << 16).expect("within the limit");
        assert_eq!(group.len(), 8);
        assert_is_group_of(&graph, &group);
        assert!(group.iter().all(|sigma| sigma[4] == 4));
        assert_eq!(automorphisms(&Graph::new(), 1), Some(vec![Vec::new()]));
    }

    #[test]
    fn automorphisms_respect_the_node_limit() {
        let k8 = generators::complete_graph(8);
        assert_eq!(automorphisms(&k8, 100), None);
        // 8! maps need far more than 2^16 search nodes.
        assert_eq!(automorphisms(&k8, 1 << 16), None);
        let k5 = generators::complete_graph(5);
        assert_eq!(automorphisms(&k5, 1 << 16).map(|g| g.len()), Some(120));
    }

    #[test]
    fn complete_graph_embedding_requires_clique() {
        let k4 = generators::complete_graph(4);
        assert!(!is_subgraph_isomorphic(&k4, &generators::grid_graph(3, 3)));
        assert!(is_subgraph_isomorphic(&k4, &generators::complete_graph(5)));
    }
}
