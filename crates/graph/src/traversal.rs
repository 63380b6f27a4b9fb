//! Breadth-first traversal utilities.
//!
//! The QUBIKOS backbone construction orders the gates of a section by the
//! order in which a BFS visits the edges of the section's interaction graph
//! (Algorithm 2 of the paper), so besides the usual node orders and distance
//! maps this module exposes [`bfs_edge_order`] and its buffer-reusing form
//! [`EdgeWalk`].

use crate::graph::{Edge, Graph, NodeId};
use std::collections::VecDeque;

/// Nodes reachable from `start`, in BFS visitation order.
///
/// # Panics
///
/// Panics if `start` is out of range.
pub fn bfs_order(graph: &Graph, start: NodeId) -> Vec<NodeId> {
    bfs_order_multi(graph, &[start])
}

/// Nodes reachable from any of `starts`, in BFS visitation order.
///
/// All start nodes are seeded at distance zero, matching the paper's BFS
/// "starting from q1 and q7" construction.
///
/// # Panics
///
/// Panics if any start node is out of range.
pub fn bfs_order_multi(graph: &Graph, starts: &[NodeId]) -> Vec<NodeId> {
    let mut visited = vec![false; graph.node_count()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    for &s in starts {
        assert!(s < graph.node_count(), "start node {s} out of range");
        if !visited[s] {
            visited[s] = true;
            queue.push_back(s);
            order.push(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in graph.neighbors(u) {
            if !visited[v] {
                visited[v] = true;
                order.push(v);
                queue.push_back(v);
            }
        }
    }
    order
}

/// Edges visited by a BFS from `starts`, in first-visited order.
///
/// An edge is reported the first time either endpoint is dequeued while the
/// other endpoint is adjacent to it, i.e. in the order a textbook BFS scans
/// edges (tree edges and cross edges alike). Each edge is reported exactly
/// once. Edges in `skip` are never reported and never traversed.
///
/// This is the gate ordering primitive of QUBIKOS backbone sections: gates
/// earlier in the BFS edge order can be made to precede gates later in it by
/// emitting them in this order. [`EdgeWalk`] runs the same walk over any
/// adjacency with reusable buffers.
///
/// # Panics
///
/// Panics if any start node is out of range.
pub fn bfs_edge_order(graph: &Graph, starts: &[NodeId], skip: &[Edge]) -> Vec<Edge> {
    let mut order = Vec::new();
    EdgeWalk::default().walk(
        graph.node_count(),
        |u| graph.neighbors(u),
        starts,
        skip,
        &mut order,
    );
    order
}

/// Reusable state of the [`bfs_edge_order`] walk.
///
/// One walk needs a per-node mark and a queue; keeping them in an
/// `EdgeWalk` lets a caller that walks many small graphs (the generator
/// walks two per backbone section) run every walk without allocating.
#[derive(Debug, Default, Clone)]
pub struct EdgeWalk {
    marks: Vec<Mark>,
    queue: VecDeque<NodeId>,
}

/// Progress of one node through an [`EdgeWalk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Unseen,
    Queued,
    Popped,
}

impl EdgeWalk {
    /// Appends to `order` the edges a BFS from `starts` visits, in
    /// [`bfs_edge_order`]'s order, over the graph on `node_count` nodes whose
    /// neighbours of `u` are `neighbors(u)`.
    ///
    /// An edge `{u, v}` scanned from the dequeued node `u` was already
    /// reported exactly when `v` was dequeued earlier, so the popped marks
    /// double as the reported-edge set. This relies on `neighbors` listing
    /// each neighbour once, as every simple-graph adjacency does.
    ///
    /// # Panics
    ///
    /// Panics if any start node is out of range.
    pub fn walk<'g>(
        &mut self,
        node_count: usize,
        neighbors: impl Fn(NodeId) -> &'g [NodeId],
        starts: &[NodeId],
        skip: &[Edge],
        order: &mut Vec<Edge>,
    ) {
        self.marks.clear();
        self.marks.resize(node_count, Mark::Unseen);
        self.queue.clear();
        for &s in starts {
            assert!(s < node_count, "start node {s} out of range");
            if self.marks[s] == Mark::Unseen {
                self.marks[s] = Mark::Queued;
                self.queue.push_back(s);
            }
        }
        while let Some(u) = self.queue.pop_front() {
            self.marks[u] = Mark::Popped;
            for &v in neighbors(u) {
                let e = Edge::new(u, v);
                if skip.contains(&e) {
                    continue;
                }
                match self.marks[v] {
                    Mark::Popped => {}
                    Mark::Queued => order.push(e),
                    Mark::Unseen => {
                        order.push(e);
                        self.marks[v] = Mark::Queued;
                        self.queue.push_back(v);
                    }
                }
            }
        }
    }
}

/// Shortest-path (hop) distance from `start` to every node.
///
/// Unreachable nodes get `usize::MAX`.
///
/// # Panics
///
/// Panics if `start` is out of range.
pub fn bfs_distances(graph: &Graph, start: NodeId) -> Vec<usize> {
    assert!(
        start < graph.node_count(),
        "start node {start} out of range"
    );
    let mut dist = vec![usize::MAX; graph.node_count()];
    dist[start] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for &v in graph.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Connected components, each as a sorted list of node ids.
///
/// Components are ordered by their smallest node id.
pub fn connected_components(graph: &Graph) -> Vec<Vec<NodeId>> {
    let mut visited = vec![false; graph.node_count()];
    let mut components = Vec::new();
    for start in graph.nodes() {
        if visited[start] {
            continue;
        }
        let mut component = Vec::new();
        let mut queue = VecDeque::new();
        visited[start] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            component.push(u);
            for &v in graph.neighbors(u) {
                if !visited[v] {
                    visited[v] = true;
                    queue.push_back(v);
                }
            }
        }
        component.sort_unstable();
        components.push(component);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_order_on_path() {
        let g = generators::path_graph(5);
        assert_eq!(bfs_order(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_order(&g, 2), vec![2, 1, 3, 0, 4]);
    }

    #[test]
    fn bfs_order_multi_seeds_all_starts() {
        let g = generators::path_graph(6);
        let order = bfs_order_multi(&g, &[0, 5]);
        assert_eq!(order.len(), 6);
        assert_eq!(order[0], 0);
        assert_eq!(order[1], 5);
    }

    #[test]
    fn bfs_order_ignores_unreachable() {
        let mut g = generators::path_graph(3);
        g.add_node();
        assert_eq!(bfs_order(&g, 0), vec![0, 1, 2]);
    }

    #[test]
    fn bfs_edge_order_covers_component_edges_once() {
        let g = generators::cycle_graph(5);
        let order = bfs_edge_order(&g, &[0], &[]);
        assert_eq!(order.len(), g.edge_count());
        let unique: std::collections::BTreeSet<_> = order.iter().collect();
        assert_eq!(unique.len(), order.len());
    }

    #[test]
    fn bfs_edge_order_respects_skip() {
        let g = generators::cycle_graph(4);
        let skip = [Edge::new(0, 3)];
        let order = bfs_edge_order(&g, &[0], &skip);
        assert_eq!(order.len(), 3);
        assert!(!order.contains(&Edge::new(0, 3)));
    }

    #[test]
    fn bfs_edge_order_starts_at_seed_edges() {
        let g = generators::path_graph(4);
        let order = bfs_edge_order(&g, &[1], &[]);
        // Both edges incident to node 1 come before the far edge.
        assert_eq!(order[2], Edge::new(2, 3));
    }

    /// The walk as first written: a visited flag plus explicit
    /// reported-edge and skip sets.
    fn reference_edge_order(graph: &Graph, starts: &[NodeId], skip: &[Edge]) -> Vec<Edge> {
        let mut visited = vec![false; graph.node_count()];
        let mut reported = std::collections::BTreeSet::new();
        let skipped: std::collections::BTreeSet<Edge> = skip.iter().copied().collect();
        let mut order = Vec::new();
        let mut queue = VecDeque::new();
        for &s in starts {
            if !visited[s] {
                visited[s] = true;
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                let e = Edge::new(u, v);
                if skipped.contains(&e) {
                    continue;
                }
                if reported.insert(e) {
                    order.push(e);
                }
                if !visited[v] {
                    visited[v] = true;
                    queue.push_back(v);
                }
            }
        }
        order
    }

    #[test]
    fn edge_walk_matches_the_set_based_walk_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(15);
        let mut walk = EdgeWalk::default();
        let mut order = Vec::new();
        for _ in 0..300 {
            let n = rng.gen_range(2..14);
            let mut g = Graph::with_nodes(n);
            for _ in 0..rng.gen_range(0..3 * n) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b {
                    g.add_edge(a, b);
                }
            }
            let starts: Vec<NodeId> = (0..rng.gen_range(1..4))
                .map(|_| rng.gen_range(0..n))
                .collect();
            let mut skip: Vec<Edge> = g.edges().filter(|_| rng.gen_range(0..5) == 0).collect();
            skip.push(Edge::new(starts[0], (starts[0] + 1) % n));
            let expected = reference_edge_order(&g, &starts, &skip);
            assert_eq!(bfs_edge_order(&g, &starts, &skip), expected);
            // A reused walk appends exactly the same edges.
            order.clear();
            order.push(Edge::new(0, 1));
            walk.walk(n, |u| g.neighbors(u), &starts, &skip, &mut order);
            assert_eq!(order[1..], expected[..]);
        }
    }

    #[test]
    fn bfs_distances_on_grid() {
        let g = generators::grid_graph(3, 3);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[8], 4);
        assert_eq!(d[4], 2);
    }

    #[test]
    fn bfs_distances_unreachable_is_max() {
        let mut g = generators::path_graph(2);
        let isolated = g.add_node();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[isolated], usize::MAX);
    }

    #[test]
    fn components_of_disjoint_graph() {
        let mut g = generators::path_graph(3);
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        let comps = connected_components(&g);
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3, 4]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bfs_order_panics_out_of_range() {
        let g = generators::path_graph(2);
        let _ = bfs_order(&g, 9);
    }
}
