//! Undirected weighted graphs over dense `u32` node ids.

use std::collections::{btree_map, btree_set};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rand::Rng;
use tempo_trace::stats::perturb_weight;

/// One undirected weighted edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Smaller endpoint.
    pub a: u32,
    /// Larger endpoint.
    pub b: u32,
    /// Weight (a dynamic event count, possibly perturbed).
    pub w: f64,
}

/// An undirected graph with `f64` edge weights over `u32` node ids.
///
/// This single representation backs the weighted call graph (WCG), the
/// procedure-grain `TRG_select`, and the chunk-grain `TRG_place`. Node ids
/// are procedure indices or global chunk indices depending on context; the
/// graph itself is agnostic.
///
/// Storage is a `BTreeMap` keyed by canonical `(min, max)` pairs plus an
/// adjacency index, so all iteration orders are deterministic — important
/// because greedy placement breaks weight ties by edge order, and the paper
/// notes such ties are otherwise "decided arbitrarily" (§5.1).
#[derive(Clone, PartialEq, Default)]
pub struct WeightedGraph {
    edges: BTreeMap<(u32, u32), f64>,
    adj: BTreeMap<u32, BTreeSet<u32>>,
}

impl WeightedGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        WeightedGraph::default()
    }

    /// Canonicalizes an endpoint pair.
    #[inline]
    fn key(a: u32, b: u32) -> (u32, u32) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Adds `w` to the weight of edge `{a, b}`, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics on self-loops (`a == b`); interleaving of a block with itself
    /// is meaningless for placement.
    pub fn add_weight(&mut self, a: u32, b: u32, w: f64) {
        assert_ne!(a, b, "self-loops are not representable");
        // Every mutator keeps `edges` and `adj` in sync, so an existing
        // edge is already in both adjacency sets. A new edge stores
        // `0.0 + w`, the sum onto an empty weight (`-0.0` becomes `0.0`).
        match self.edges.entry(Self::key(a, b)) {
            btree_map::Entry::Occupied(mut e) => *e.get_mut() += w,
            btree_map::Entry::Vacant(e) => {
                e.insert(0.0 + w);
                self.adj.entry(a).or_default().insert(b);
                self.adj.entry(b).or_default().insert(a);
            }
        }
    }

    /// The weight of edge `{a, b}`, or 0 if absent.
    #[inline]
    pub fn weight(&self, a: u32, b: u32) -> f64 {
        if a == b {
            return 0.0;
        }
        self.edges.get(&Self::key(a, b)).copied().unwrap_or(0.0)
    }

    /// Returns `true` if the edge exists.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        a != b && self.edges.contains_key(&Self::key(a, b))
    }

    /// Removes edge `{a, b}`, returning its weight if it existed.
    pub fn remove_edge(&mut self, a: u32, b: u32) -> Option<f64> {
        let w = self.edges.remove(&Self::key(a, b))?;
        if let Some(s) = self.adj.get_mut(&a) {
            s.remove(&b);
            if s.is_empty() {
                self.adj.remove(&a);
            }
        }
        if let Some(s) = self.adj.get_mut(&b) {
            s.remove(&a);
            if s.is_empty() {
                self.adj.remove(&b);
            }
        }
        Some(w)
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Number of nodes incident to at least one edge.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Iterates over all edges in canonical key order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().map(|(&(a, b), &w)| Edge { a, b, w })
    }

    /// Iterates over nodes with at least one incident edge, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = u32> + '_ {
        self.adj.keys().copied()
    }

    /// Neighbors of `n` in ascending order (empty if `n` has no edges).
    pub fn neighbors(&self, n: u32) -> Neighbors<'_> {
        Neighbors {
            inner: self.adj.get(&n).map(|s| s.iter()),
        }
    }

    /// Sum of the weights of edges incident to `n`.
    pub fn degree_weight(&self, n: u32) -> f64 {
        self.neighbors(n).map(|m| self.weight(n, m)).sum()
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.values().sum()
    }

    /// The heaviest edge, breaking weight ties by canonical key order
    /// (smallest `(a, b)` wins). `None` for an empty graph.
    pub fn heaviest_edge(&self) -> Option<Edge> {
        let mut best: Option<Edge> = None;
        for (&(a, b), &w) in &self.edges {
            match &best {
                Some(e) if w <= e.w => {}
                _ => best = Some(Edge { a, b, w }),
            }
        }
        best
    }

    /// Merges node `v` into node `u`: every edge `{v, r}` becomes `{u, r}`
    /// (weights summed when both exist, as in Pettis–Hansen's working-graph
    /// merge), the edge `{u, v}` disappearing.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`.
    pub fn merge_nodes(&mut self, u: u32, v: u32) {
        assert_ne!(u, v, "cannot merge a node into itself");
        self.remove_edge(u, v);
        let vs: Vec<u32> = self.neighbors(v).collect();
        for r in vs {
            let w = self
                .remove_edge(v, r)
                .expect("neighbor list is in sync with edge map");
            if r != u {
                self.add_weight(u, r, w);
            }
        }
        self.adj.remove(&v);
    }

    /// Adds every edge of `other` into this graph, summing weights where
    /// both graphs carry the edge — the profile-merge operation.
    ///
    /// Edge weights are integer event counts (each trace event adds 1.0),
    /// so merging is exact below 2^53 and therefore commutative and
    /// associative: any merge order produces the same graph.
    pub fn merge_from(&mut self, other: &WeightedGraph) {
        for e in other.edges() {
            self.add_weight(e.a, e.b, e.w);
        }
    }

    /// Multiplies every edge weight by `factor` in place — the aging step
    /// of a decaying profile window.
    ///
    /// Each weight is scaled by one IEEE multiplication, so the result is
    /// deterministic for a given graph and factor. Edges whose weight
    /// underflows to exactly zero are removed so a long-decayed graph does
    /// not accumulate dead entries.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite or not strictly positive.
    pub fn scale_weights(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be finite and positive"
        );
        let mut dead: Vec<(u32, u32)> = Vec::new();
        for (&key, w) in &mut self.edges {
            *w *= factor;
            if *w == 0.0 {
                dead.push(key);
            }
        }
        for (a, b) in dead {
            self.remove_edge(a, b);
        }
    }

    /// Subtracts every edge weight of `other` from this graph, removing
    /// edges whose weight reaches zero (or would go negative) — the
    /// inverse of [`merge_from`](WeightedGraph::merge_from) for retiring an
    /// epoch from a sliding window.
    ///
    /// Because weights are integer event counts (exact in `f64` below
    /// 2^53), subtracting a graph that was previously merged in restores
    /// the pre-merge graph bit-for-bit, including the edge set: an edge
    /// contributed solely by the retired epoch lands on exactly `0.0` and
    /// is removed. Edges present in `other` but absent here are ignored.
    pub fn subtract_from(&mut self, other: &WeightedGraph) {
        for e in other.edges() {
            let key = Self::key(e.a, e.b);
            if let Some(w) = self.edges.get_mut(&key) {
                *w -= e.w;
                if *w <= 0.0 {
                    self.remove_edge(e.a, e.b);
                }
            }
        }
    }

    /// Returns a copy with every weight multiplied by `exp(s·X)`,
    /// `X ~ N(0, 1)` — the paper's §5.1 profile perturbation. `s = 0`
    /// returns an identical copy.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn perturbed<R: Rng + ?Sized>(&self, s: f64, rng: &mut R) -> WeightedGraph {
        let mut out = self.clone();
        for w in out.edges.values_mut() {
            *w = perturb_weight(rng, *w, s);
        }
        out
    }
}

impl fmt::Debug for WeightedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WeightedGraph({} nodes, {} edges, total weight {})",
            self.node_count(),
            self.edge_count(),
            self.total_weight()
        )
    }
}

impl FromIterator<(u32, u32, f64)> for WeightedGraph {
    fn from_iter<I: IntoIterator<Item = (u32, u32, f64)>>(iter: I) -> Self {
        let mut g = WeightedGraph::new();
        for (a, b, w) in iter {
            g.add_weight(a, b, w);
        }
        g
    }
}

/// Iterator over the neighbors of a node, produced by
/// [`WeightedGraph::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'g> {
    inner: Option<btree_set::Iter<'g, u32>>,
}

impl Iterator for Neighbors<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        self.inner.as_mut()?.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            Some(it) => it.size_hint(),
            None => (0, Some(0)),
        }
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn add_and_query() {
        let mut g = WeightedGraph::new();
        g.add_weight(1, 2, 3.0);
        g.add_weight(2, 1, 2.0); // same undirected edge
        assert_eq!(g.weight(1, 2), 5.0);
        assert_eq!(g.weight(2, 1), 5.0);
        assert_eq!(g.weight(1, 3), 0.0);
        assert_eq!(g.weight(1, 1), 0.0);
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(1, 3));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loops() {
        let mut g = WeightedGraph::new();
        g.add_weight(3, 3, 1.0);
    }

    #[test]
    fn neighbors_sorted() {
        let g: WeightedGraph = [(5, 1, 1.0), (5, 9, 1.0), (5, 3, 1.0)]
            .into_iter()
            .collect();
        let n: Vec<u32> = g.neighbors(5).collect();
        assert_eq!(n, vec![1, 3, 9]);
        assert_eq!(g.neighbors(42).count(), 0);
    }

    #[test]
    fn heaviest_edge_breaks_ties_deterministically() {
        let g: WeightedGraph = [(2, 3, 5.0), (0, 1, 5.0), (4, 5, 1.0)]
            .into_iter()
            .collect();
        let e = g.heaviest_edge().unwrap();
        assert_eq!((e.a, e.b), (0, 1)); // tie -> smallest key
        assert!(WeightedGraph::new().heaviest_edge().is_none());
    }

    #[test]
    fn remove_edge_cleans_adjacency() {
        let mut g: WeightedGraph = [(1, 2, 3.0)].into_iter().collect();
        assert_eq!(g.remove_edge(2, 1), Some(3.0));
        assert_eq!(g.remove_edge(2, 1), None);
        assert_eq!(g.node_count(), 0);
        assert!(g.is_empty());
    }

    #[test]
    fn merge_nodes_sums_parallel_edges() {
        // u=0, v=1; both connect to 2; v also connects to 3.
        let mut g: WeightedGraph = [(0, 1, 10.0), (0, 2, 1.0), (1, 2, 2.0), (1, 3, 4.0)]
            .into_iter()
            .collect();
        g.merge_nodes(0, 1);
        assert_eq!(g.weight(0, 2), 3.0);
        assert_eq!(g.weight(0, 3), 4.0);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.neighbors(1).count(), 0);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn degree_and_total_weight() {
        let g: WeightedGraph = [(0, 1, 1.5), (0, 2, 2.5), (1, 2, 4.0)]
            .into_iter()
            .collect();
        assert_eq!(g.degree_weight(0), 4.0);
        assert_eq!(g.total_weight(), 8.0);
    }

    #[test]
    fn perturbed_preserves_structure() {
        let g: WeightedGraph = [(0, 1, 100.0), (1, 2, 50.0)].into_iter().collect();
        let mut rng = StdRng::seed_from_u64(3);
        let p = g.perturbed(0.1, &mut rng);
        assert_eq!(p.edge_count(), 2);
        assert!(p.weight(0, 1) > 0.0);
        assert_ne!(p.weight(0, 1), 100.0);
        // Zero scale is the identity.
        let q = g.perturbed(0.0, &mut rng);
        assert_eq!(q.weight(0, 1), 100.0);
        assert_eq!(q.weight(1, 2), 50.0);
    }

    #[test]
    fn merge_from_sums_shared_edges_and_adopts_new_ones() {
        let mut a: WeightedGraph = [(0, 1, 2.0), (1, 2, 3.0)].into_iter().collect();
        let b: WeightedGraph = [(1, 0, 5.0), (2, 3, 7.0)].into_iter().collect();
        a.merge_from(&b);
        assert_eq!(a.weight(0, 1), 7.0);
        assert_eq!(a.weight(1, 2), 3.0);
        assert_eq!(a.weight(2, 3), 7.0);
        assert_eq!(a.edge_count(), 3);
        // Identity: merging an empty graph changes nothing.
        let before = a.clone();
        a.merge_from(&WeightedGraph::new());
        assert_eq!(a, before);
    }

    #[test]
    fn scale_weights_multiplies_in_place() {
        let mut g: WeightedGraph = [(0, 1, 8.0), (1, 2, 2.0)].into_iter().collect();
        g.scale_weights(0.5);
        assert_eq!(g.weight(0, 1), 4.0);
        assert_eq!(g.weight(1, 2), 1.0);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn subtract_from_inverts_merge_from() {
        let base: WeightedGraph = [(0, 1, 2.0), (1, 2, 3.0)].into_iter().collect();
        let epoch: WeightedGraph = [(0, 1, 5.0), (2, 3, 7.0)].into_iter().collect();
        let mut g = base.clone();
        g.merge_from(&epoch);
        g.subtract_from(&epoch);
        // Exact inverse: weights restore and epoch-only edges vanish,
        // adjacency included.
        assert_eq!(g, base);
        assert_eq!(g.node_count(), 3);
        // Subtracting edges we never had is a no-op.
        let mut h = base.clone();
        h.subtract_from(&[(5, 6, 1.0)].into_iter().collect());
        assert_eq!(h, base);
    }

    #[test]
    fn edges_iterate_in_key_order() {
        let g: WeightedGraph = [(9, 1, 1.0), (0, 5, 1.0), (1, 2, 1.0)]
            .into_iter()
            .collect();
        let keys: Vec<(u32, u32)> = g.edges().map(|e| (e.a, e.b)).collect();
        assert_eq!(keys, vec![(0, 5), (1, 2), (1, 9)]);
    }
}
