use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use rand::Rng;

use crate::NodeId;

/// Errors from topology construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// The requested node count is too small for the requested shape.
    TooFewNodes {
        /// Minimum node count the constructor supports.
        minimum: usize,
        /// Requested node count.
        actual: usize,
    },
    /// An edge endpoint is out of range.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Total number of nodes.
        n: usize,
    },
    /// A random-graph constructor failed to produce a connected graph
    /// within its retry budget.
    CouldNotConnect {
        /// Number of attempts made.
        attempts: usize,
    },
    /// The resulting graph is not strongly connected.
    NotConnected,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::TooFewNodes { minimum, actual } => {
                write!(f, "need at least {minimum} nodes, got {actual}")
            }
            TopologyError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for {n} nodes")
            }
            TopologyError::CouldNotConnect { attempts } => {
                write!(
                    f,
                    "failed to generate a connected graph in {attempts} attempts"
                )
            }
            TopologyError::NotConnected => write!(f, "graph is not strongly connected"),
        }
    }
}

impl Error for TopologyError {}

/// A static directed communication graph (the paper's network model).
///
/// All constructors produce *strongly connected* graphs, as required by the
/// convergence theorem. Undirected shapes (ring, grid, …) are represented
/// by edges in both directions.
///
/// The complete graph ([`Topology::complete`], the paper's simulation
/// topology) is stored implicitly as its node count, so it costs O(1)
/// memory instead of n(n−1) ids; every other shape stores one sorted
/// out-neighbor list per node. Both answer [`Topology::neighbors`] with
/// the same [`Neighbors`] view in the same ascending order, and equality
/// is semantic: two topologies are equal when they have the same nodes
/// and the same neighbor sets, whichever way they are stored.
///
/// # Example
///
/// ```
/// use distclass_net::Topology;
///
/// let t = Topology::grid(3, 4);
/// assert_eq!(t.len(), 12);
/// assert!(t.is_strongly_connected());
/// assert_eq!(t.neighbors(0), &[1, 4]); // right and down from the corner
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    adj: Adjacency,
}

#[derive(Debug, Clone)]
enum Adjacency {
    /// Every node links to every other node.
    Complete { n: usize },
    /// One strictly ascending out-neighbor list per node.
    Lists(Vec<Vec<NodeId>>),
}

/// A node's out-neighbors, in ascending id order: a borrowed sorted list,
/// or the implicit "every node but me" of the complete graph.
///
/// Cheap to copy; no operation allocates except [`Neighbors::to_vec`].
/// On the complete graph `get`, `contains` and `len` are O(1) arithmetic;
/// on a list `contains` is a binary search.
#[derive(Clone, Copy)]
pub struct Neighbors<'a>(View<'a>);

#[derive(Clone, Copy)]
enum View<'a> {
    List(&'a [NodeId]),
    AllBut { node: NodeId, n: usize },
}

impl<'a> Neighbors<'a> {
    /// A view of an explicit neighbor list, which must be strictly
    /// ascending (`contains` binary-searches it).
    pub(crate) fn list(ids: &'a [NodeId]) -> Self {
        Neighbors(View::List(ids))
    }

    /// `true` unless an explicit list breaks the ascending-order invariant
    /// that `contains` relies on.
    pub(crate) fn is_strictly_ascending(&self) -> bool {
        match self.0 {
            View::List(ids) => ids.windows(2).all(|w| w[0] < w[1]),
            View::AllBut { .. } => true,
        }
    }

    /// Number of neighbors.
    pub fn len(&self) -> usize {
        match self.0 {
            View::List(ids) => ids.len(),
            View::AllBut { n, .. } => n - 1,
        }
    }

    /// `true` when the node has no out-neighbors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k`-th neighbor in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    pub fn get(&self, k: usize) -> NodeId {
        match self.0 {
            View::List(ids) => ids[k],
            View::AllBut { node, n } => {
                assert!(k < n - 1, "neighbor index {k} out of range for {n} nodes");
                k + usize::from(k >= node)
            }
        }
    }

    /// `true` when `to` is one of the neighbors.
    pub fn contains(&self, to: NodeId) -> bool {
        match self.0 {
            View::List(ids) => ids.binary_search(&to).is_ok(),
            View::AllBut { node, n } => to != node && to < n,
        }
    }

    /// The neighbors in ascending id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = NodeId> + 'a {
        let view = *self;
        (0..view.len()).map(move |k| view.get(k))
    }

    /// The neighbors collected into a vector.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

impl fmt::Debug for Neighbors<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Neighbors<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl PartialEq<[NodeId]> for Neighbors<'_> {
    fn eq(&self, other: &[NodeId]) -> bool {
        self.iter().eq(other.iter().copied())
    }
}

impl<const N: usize> PartialEq<&[NodeId; N]> for Neighbors<'_> {
    fn eq(&self, other: &&[NodeId; N]) -> bool {
        *self == other[..]
    }
}

impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        match (&self.adj, &other.adj) {
            (Adjacency::Complete { n: a }, Adjacency::Complete { n: b }) => a == b,
            (Adjacency::Lists(a), Adjacency::Lists(b)) => a == b,
            _ => {
                self.len() == other.len()
                    && (0..self.len()).all(|i| self.neighbors(i) == other.neighbors(i))
            }
        }
    }
}

impl Eq for Topology {}

impl Topology {
    /// Builds a topology from explicit directed edges.
    ///
    /// Duplicate edges and self-loops are rejected implicitly: duplicates
    /// are deduplicated, self-loops ignored.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NodeOutOfRange`] for invalid endpoints and
    /// [`TopologyError::NotConnected`] if the graph is not strongly
    /// connected.
    pub fn from_directed_edges(
        n: usize,
        edges: &[(NodeId, NodeId)],
    ) -> Result<Self, TopologyError> {
        let mut out = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a >= n {
                return Err(TopologyError::NodeOutOfRange { node: a, n });
            }
            if b >= n {
                return Err(TopologyError::NodeOutOfRange { node: b, n });
            }
            if a != b && !out[a].contains(&b) {
                out[a].push(b);
            }
        }
        for nbrs in &mut out {
            nbrs.sort_unstable();
        }
        let topo = Topology::from_lists(out);
        if !topo.is_strongly_connected() {
            return Err(TopologyError::NotConnected);
        }
        Ok(topo)
    }

    /// Builds a topology from undirected edges (each becomes two directed
    /// edges).
    ///
    /// # Errors
    ///
    /// Same as [`Topology::from_directed_edges`].
    pub fn from_undirected_edges(
        n: usize,
        edges: &[(NodeId, NodeId)],
    ) -> Result<Self, TopologyError> {
        let mut directed = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in edges {
            directed.push((a, b));
            directed.push((b, a));
        }
        Topology::from_directed_edges(n, &directed)
    }

    /// The complete graph on `n` nodes (the paper's simulation topology),
    /// stored implicitly: O(1) memory at any `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn complete(n: usize) -> Self {
        assert!(n >= 2, "complete graph needs at least 2 nodes");
        Topology {
            adj: Adjacency::Complete { n },
        }
    }

    /// A bidirectional ring.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 2, "ring needs at least 2 nodes");
        let out = (0..n)
            .map(|i| {
                let mut nbrs = vec![(i + 1) % n, (i + n - 1) % n];
                nbrs.sort_unstable();
                nbrs.dedup();
                nbrs
            })
            .collect();
        Topology::from_lists(out)
    }

    /// A directed cycle `0 → 1 → … → n−1 → 0` — the sparsest strongly
    /// connected graph, a worst case for convergence speed.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn directed_cycle(n: usize) -> Self {
        assert!(n >= 2, "cycle needs at least 2 nodes");
        let out = (0..n).map(|i| vec![(i + 1) % n]).collect();
        Topology::from_lists(out)
    }

    /// A bidirectional path (line) graph.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn line(n: usize) -> Self {
        assert!(n >= 2, "line needs at least 2 nodes");
        let out = (0..n)
            .map(|i| {
                let mut nbrs = Vec::new();
                if i > 0 {
                    nbrs.push(i - 1);
                }
                if i + 1 < n {
                    nbrs.push(i + 1);
                }
                nbrs
            })
            .collect();
        Topology::from_lists(out)
    }

    /// A star: node 0 is the hub connected to every leaf (both directions).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn star(n: usize) -> Self {
        assert!(n >= 2, "star needs at least 2 nodes");
        let mut out = vec![Vec::new(); n];
        out[0] = (1..n).collect();
        for (leaf, nbrs) in out.iter_mut().enumerate().skip(1) {
            nbrs.push(0);
            let _ = leaf;
        }
        Topology::from_lists(out)
    }

    /// A `rows × cols` 4-neighbor grid.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols < 2` or either dimension is zero.
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1 && rows * cols >= 2, "grid too small");
        let idx = |r: usize, c: usize| r * cols + c;
        let mut out = vec![Vec::new(); rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                let mut nbrs = Vec::new();
                if r > 0 {
                    nbrs.push(idx(r - 1, c));
                }
                if r + 1 < rows {
                    nbrs.push(idx(r + 1, c));
                }
                if c > 0 {
                    nbrs.push(idx(r, c - 1));
                }
                if c + 1 < cols {
                    nbrs.push(idx(r, c + 1));
                }
                nbrs.sort_unstable();
                out[idx(r, c)] = nbrs;
            }
        }
        Topology::from_lists(out)
    }

    /// An `rows × cols` torus: a grid with wrap-around edges, so every node
    /// has exactly four neighbors (a common sensor-array idealization with
    /// no boundary effects).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 3 (smaller tori degenerate into
    /// multi-edges).
    pub fn torus(rows: usize, cols: usize) -> Self {
        assert!(rows >= 3 && cols >= 3, "torus needs both sides >= 3");
        let idx = |r: usize, c: usize| r * cols + c;
        let mut out = vec![Vec::new(); rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                let mut nbrs = vec![
                    idx((r + rows - 1) % rows, c),
                    idx((r + 1) % rows, c),
                    idx(r, (c + cols - 1) % cols),
                    idx(r, (c + 1) % cols),
                ];
                nbrs.sort_unstable();
                nbrs.dedup();
                out[idx(r, c)] = nbrs;
            }
        }
        Topology::from_lists(out)
    }

    /// An Erdős–Rényi `G(n, p)` graph (undirected), retried until strongly
    /// connected.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::TooFewNodes`] if `n < 2` and
    /// [`TopologyError::CouldNotConnect`] if 100 attempts all fail.
    pub fn erdos_renyi<R: Rng>(n: usize, p: f64, rng: &mut R) -> Result<Self, TopologyError> {
        if n < 2 {
            return Err(TopologyError::TooFewNodes {
                minimum: 2,
                actual: n,
            });
        }
        const ATTEMPTS: usize = 100;
        for _ in 0..ATTEMPTS {
            let mut edges = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen::<f64>() < p {
                        edges.push((a, b));
                    }
                }
            }
            if let Ok(t) = Topology::from_undirected_edges(n, &edges) {
                return Ok(t);
            }
        }
        Err(TopologyError::CouldNotConnect { attempts: ATTEMPTS })
    }

    /// A random geometric graph: nodes placed uniformly in the unit square,
    /// connected when within `radius` — the classic sensor-network
    /// deployment model. Retried until connected.
    ///
    /// Returns the topology together with the node positions `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::TooFewNodes`] if `n < 2` and
    /// [`TopologyError::CouldNotConnect`] if 100 attempts all fail.
    pub fn random_geometric<R: Rng>(
        n: usize,
        radius: f64,
        rng: &mut R,
    ) -> Result<(Self, Vec<(f64, f64)>), TopologyError> {
        if n < 2 {
            return Err(TopologyError::TooFewNodes {
                minimum: 2,
                actual: n,
            });
        }
        const ATTEMPTS: usize = 100;
        let r2 = radius * radius;
        for _ in 0..ATTEMPTS {
            let pos: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
            let mut edges = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    let dx = pos[a].0 - pos[b].0;
                    let dy = pos[a].1 - pos[b].1;
                    if dx * dx + dy * dy <= r2 {
                        edges.push((a, b));
                    }
                }
            }
            if let Ok(t) = Topology::from_undirected_edges(n, &edges) {
                return Ok((t, pos));
            }
        }
        Err(TopologyError::CouldNotConnect { attempts: ATTEMPTS })
    }

    /// Wraps per-node sorted out-neighbor lists.
    fn from_lists(out: Vec<Vec<NodeId>>) -> Self {
        Topology {
            adj: Adjacency::Lists(out),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        match &self.adj {
            Adjacency::Complete { n } => *n,
            Adjacency::Lists(out) => out.len(),
        }
    }

    /// `true` when the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The out-neighbors of `node`, in ascending id order. The view
    /// borrows the topology and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> Neighbors<'_> {
        match &self.adj {
            Adjacency::Complete { n } => {
                assert!(node < *n, "node {node} out of range for {n} nodes");
                Neighbors(View::AllBut { node, n: *n })
            }
            Adjacency::Lists(out) => Neighbors::list(&out[node]),
        }
    }

    /// Out-degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        match &self.adj {
            Adjacency::Complete { n } => n * (n - 1),
            Adjacency::Lists(out) => out.iter().map(Vec::len).sum(),
        }
    }

    /// `true` when every node can reach every other node.
    pub fn is_strongly_connected(&self) -> bool {
        let out = match &self.adj {
            Adjacency::Complete { n } => return *n > 0,
            Adjacency::Lists(out) => out,
        };
        let n = out.len();
        if n == 0 {
            return false;
        }
        if self.reachable_from(0).iter().any(|&r| !r) {
            return false;
        }
        // Strong connectivity also needs reachability in the reversed graph.
        let mut rev = vec![Vec::new(); n];
        for (a, nbrs) in out.iter().enumerate() {
            for &b in nbrs {
                rev[b].push(a);
            }
        }
        let rev_topo = Topology::from_lists(rev);
        rev_topo.reachable_from(0).iter().all(|&r| r)
    }

    /// The diameter (longest shortest path) of the graph, in hops.
    ///
    /// # Panics
    ///
    /// Panics if the graph is not strongly connected.
    pub fn diameter(&self) -> usize {
        if let Adjacency::Complete { .. } = self.adj {
            return 1;
        }
        let mut best = 0;
        for s in 0..self.len() {
            let dist = self.bfs_distances(s);
            for d in &dist {
                let d = d.expect("diameter requires a strongly connected graph");
                best = best.max(d);
            }
        }
        best
    }

    /// BFS hop distances from `source` (`None` for unreachable nodes).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn bfs_distances(&self, source: NodeId) -> Vec<Option<usize>> {
        let out = match &self.adj {
            Adjacency::Complete { n } => {
                let mut dist = vec![Some(1); *n];
                dist[source] = Some(0);
                return dist;
            }
            Adjacency::Lists(out) => out,
        };
        let mut dist = vec![None; out.len()];
        let mut queue = VecDeque::new();
        dist[source] = Some(0);
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("visited nodes have distances");
            for &v in &out[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    fn reachable_from(&self, source: NodeId) -> Vec<bool> {
        self.bfs_distances(source)
            .into_iter()
            .map(|d| d.is_some())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn complete_graph_shape() {
        let t = Topology::complete(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.edge_count(), 20);
        assert!(t.is_strongly_connected());
        assert_eq!(t.diameter(), 1);
        assert_eq!(t.neighbors(2), &[0, 1, 3, 4]);
    }

    fn explicit_complete(n: usize) -> Topology {
        let edges: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
            .collect();
        Topology::from_directed_edges(n, &edges).expect("complete graph is connected")
    }

    #[test]
    fn implicit_complete_matches_explicit_edge_lists() {
        for n in [2, 3, 5, 64] {
            let implicit = Topology::complete(n);
            let explicit = explicit_complete(n);
            assert!(matches!(implicit.adj, Adjacency::Complete { .. }));
            assert!(matches!(explicit.adj, Adjacency::Lists(_)));
            assert_eq!(implicit, explicit, "n = {n}");
            assert_eq!(implicit.len(), explicit.len());
            assert_eq!(implicit.edge_count(), explicit.edge_count());
            assert_eq!(implicit.diameter(), explicit.diameter());
            assert!(implicit.is_strongly_connected());
            for i in 0..n {
                let (a, b) = (implicit.neighbors(i), explicit.neighbors(i));
                assert_eq!(implicit.degree(i), explicit.degree(i));
                assert!(a.iter().eq(b.iter()), "n = {n}, node {i}");
                assert_eq!(
                    (0..a.len()).map(|k| a.get(k)).collect::<Vec<_>>(),
                    b.to_vec()
                );
                for to in 0..=n {
                    assert_eq!(a.contains(to), b.contains(to), "n = {n}, {i} -> {to}");
                }
                assert_eq!(implicit.bfs_distances(i), explicit.bfs_distances(i));
            }
        }
    }

    #[test]
    fn semantic_equality_tells_graphs_apart() {
        assert_ne!(Topology::complete(3), Topology::complete(4));
        assert_ne!(Topology::complete(4), Topology::ring(4));
        // On three nodes the bidirectional ring is the complete graph.
        assert_eq!(Topology::complete(3), Topology::ring(3));
    }

    #[test]
    fn complete_graph_is_implicit_at_a_million_nodes() {
        // Materialized, this graph would hold 2^40 ids (8 TiB); implicit,
        // every query below is arithmetic.
        let n = 1 << 20;
        let t = Topology::complete(n);
        assert_eq!(t.len(), n);
        assert_eq!(t.degree(0), n - 1);
        assert_eq!(t.degree(n - 1), n - 1);
        assert_eq!(t.edge_count(), n * (n - 1));
        let nb = t.neighbors(5);
        assert_eq!(nb.len(), n - 1);
        assert_eq!(nb.get(0), 0);
        assert_eq!(nb.get(4), 4);
        assert_eq!(nb.get(5), 6);
        assert_eq!(nb.get(n - 2), n - 1);
        assert!(!nb.contains(5));
        assert!(nb.contains(0) && nb.contains(n - 1));
        assert!(!nb.contains(n));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn implicit_neighbor_index_is_bounds_checked() {
        let _ = Topology::complete(4).neighbors(0).get(3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn implicit_neighbors_of_a_stranger_panics() {
        let _ = Topology::complete(4).neighbors(4);
    }

    #[test]
    fn ring_shape() {
        let t = Topology::ring(6);
        assert_eq!(t.degree(0), 2);
        assert!(t.is_strongly_connected());
        assert_eq!(t.diameter(), 3);
    }

    #[test]
    fn two_node_ring_dedups() {
        let t = Topology::ring(2);
        assert_eq!(t.neighbors(0), &[1]);
        assert_eq!(t.neighbors(1), &[0]);
    }

    #[test]
    fn directed_cycle_is_strongly_connected() {
        let t = Topology::directed_cycle(5);
        assert_eq!(t.degree(0), 1);
        assert!(t.is_strongly_connected());
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn line_and_star() {
        let line = Topology::line(4);
        assert_eq!(line.diameter(), 3);
        assert_eq!(line.neighbors(0), &[1]);
        assert_eq!(line.neighbors(1), &[0, 2]);

        let star = Topology::star(5);
        assert_eq!(star.degree(0), 4);
        assert_eq!(star.degree(3), 1);
        assert_eq!(star.diameter(), 2);
    }

    #[test]
    fn grid_shape() {
        let t = Topology::grid(3, 3);
        assert!(t.is_strongly_connected());
        assert_eq!(t.diameter(), 4);
        assert_eq!(t.degree(4), 4); // center
        assert_eq!(t.degree(0), 2); // corner
    }

    #[test]
    fn torus_is_four_regular_and_connected() {
        let t = Topology::torus(4, 5);
        assert_eq!(t.len(), 20);
        assert!(t.is_strongly_connected());
        assert!((0..20).all(|i| t.degree(i) == 4));
        // Wrap-around shrinks the diameter below the open grid's.
        assert!(t.diameter() < Topology::grid(4, 5).diameter());
    }

    #[test]
    #[should_panic(expected = "torus needs both sides >= 3")]
    fn tiny_torus_rejected() {
        let _ = Topology::torus(2, 5);
    }

    #[test]
    fn from_directed_edges_requires_strong_connectivity() {
        // 0 → 1 but no way back.
        assert_eq!(
            Topology::from_directed_edges(2, &[(0, 1)]),
            Err(TopologyError::NotConnected)
        );
        let ok = Topology::from_directed_edges(2, &[(0, 1), (1, 0)]).unwrap();
        assert!(ok.is_strongly_connected());
    }

    #[test]
    fn from_edges_validates_range() {
        assert_eq!(
            Topology::from_directed_edges(2, &[(0, 5)]),
            Err(TopologyError::NodeOutOfRange { node: 5, n: 2 })
        );
    }

    #[test]
    fn from_edges_ignores_self_loops_and_duplicates() {
        let t = Topology::from_undirected_edges(2, &[(0, 0), (0, 1), (0, 1), (1, 0)]).unwrap();
        assert_eq!(t.neighbors(0), &[1]);
        assert_eq!(t.edge_count(), 2);
    }

    #[test]
    fn erdos_renyi_connected() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Topology::erdos_renyi(30, 0.2, &mut rng).unwrap();
        assert!(t.is_strongly_connected());
        assert_eq!(t.len(), 30);
    }

    #[test]
    fn erdos_renyi_rejects_tiny() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(matches!(
            Topology::erdos_renyi(1, 0.5, &mut rng),
            Err(TopologyError::TooFewNodes { .. })
        ));
    }

    #[test]
    fn erdos_renyi_gives_up_on_impossible_density() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(matches!(
            Topology::erdos_renyi(50, 0.0, &mut rng),
            Err(TopologyError::CouldNotConnect { .. })
        ));
    }

    #[test]
    fn random_geometric_connected_with_positions() {
        let mut rng = StdRng::seed_from_u64(11);
        let (t, pos) = Topology::random_geometric(40, 0.4, &mut rng).unwrap();
        assert!(t.is_strongly_connected());
        assert_eq!(pos.len(), 40);
        for (x, y) in pos {
            assert!((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn bfs_distances_on_line() {
        let t = Topology::line(4);
        let d = t.bfs_distances(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn display_of_errors() {
        assert!(!TopologyError::NotConnected.to_string().is_empty());
    }
}
