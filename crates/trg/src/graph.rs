//! Undirected weighted graphs over sparse `u32` node ids.

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

/// A node's edges as `(neighbour, weight)`, ascending by neighbour.
type Row = Vec<(u32, f64)>;

/// An undirected graph with `f64` edge weights over `u32` node ids.
///
/// This single representation backs the weighted call graph (WCG), the
/// procedure-grain `TRG_select`, and the chunk-grain `TRG_place`. Node ids
/// are procedure indices or global chunk indices depending on context; the
/// graph itself is agnostic.
///
/// Storage is one sorted row per node: the nodes that have an edge, in
/// ascending id order, each with its `(neighbour, weight)` entries sorted
/// by neighbour. An edge sits in both endpoints' rows with the same
/// weight bits. Memory is O(nodes + edges) whatever the ids' magnitude,
/// and every iteration order is deterministic — important because greedy
/// placement breaks weight ties by edge order, and the paper notes such
/// ties are otherwise "decided arbitrarily" (§5.1). Edges iterate in
/// canonical `(min, max)` key order: row `a`'s entries above `a`, rows
/// ascending.
///
/// Equality compares the edge sets and weights, not allocation shape.
#[derive(Clone, PartialEq, Default)]
pub struct WeightedGraph {
    /// Nodes with at least one edge, ascending.
    ids: Vec<u32>,
    /// `rows[i]`: the edges of `ids[i]`; never empty.
    rows: Vec<Row>,
    /// Number of edges: half the row entries.
    edges: usize,
}

/// Position of neighbour `m` in `row`, or where it would be inserted.
#[inline]
fn find(row: &[(u32, f64)], m: u32) -> Result<usize, usize> {
    row.binary_search_by_key(&m, |e| e.0)
}

/// Adds `src`'s weights to `dst`'s shared entries and inserts the others
/// as `0.0 + w` — one sorted merge, in place. Returns the entries added.
fn merge_row(dst: &mut Row, src: &[(u32, f64)]) -> usize {
    let (mut i, mut fresh) = (0, 0);
    for &(m, w) in src {
        while i < dst.len() && dst[i].0 < m {
            i += 1;
        }
        if i < dst.len() && dst[i].0 == m {
            dst[i].1 += w;
        } else {
            fresh += 1;
        }
    }
    if fresh == 0 {
        return 0;
    }
    // Open `fresh` slots at the end and merge backwards into them.
    let mut i = dst.len();
    dst.resize(i + fresh, (0, 0.0));
    let mut k = dst.len();
    for &(m, w) in src.iter().rev() {
        while i > 0 && dst[i - 1].0 > m {
            i -= 1;
            k -= 1;
            dst[k] = dst[i];
        }
        k -= 1;
        if i > 0 && dst[i - 1].0 == m {
            i -= 1;
            dst[k] = dst[i];
        } else {
            dst[k] = (m, 0.0 + w);
        }
    }
    fresh
}

impl WeightedGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        WeightedGraph::default()
    }

    /// Appends node `n`'s row, sorted by neighbour, to a graph being
    /// built in ascending node order; the caller supplies both copies of
    /// every edge. The row is stored at its exact length.
    pub(crate) fn push_row(&mut self, n: u32, row: &[(u32, f64)]) {
        debug_assert!(self.ids.last().is_none_or(|&m| m < n));
        debug_assert!(row.windows(2).all(|p| p[0].0 < p[1].0));
        if !row.is_empty() {
            self.ids.push(n);
            self.rows.push(row.to_vec());
            self.edges += row.len();
        }
    }

    /// Finishes a graph built by [`push_row`](Self::push_row): each edge
    /// was counted from both of its rows.
    pub(crate) fn rows_pushed(mut self) -> Self {
        self.edges /= 2;
        self
    }

    /// The row index of node `n`.
    #[inline]
    fn slot(&self, n: u32) -> Option<usize> {
        self.ids.binary_search(&n).ok()
    }

    /// The row of node `n`, created empty (the caller fills it) if absent.
    fn row_or_insert(&mut self, n: u32) -> &mut Row {
        let i = match self.ids.binary_search(&n) {
            Ok(i) => i,
            Err(i) => {
                self.ids.insert(i, n);
                self.rows.insert(i, Vec::new());
                i
            }
        };
        &mut self.rows[i]
    }

    /// Drops the rows left empty, keeping `ids` beside them.
    fn drop_empty_rows(&mut self) {
        if self.rows.iter().all(|r| !r.is_empty()) {
            return;
        }
        let rows = std::mem::take(&mut self.rows);
        let ids = std::mem::take(&mut self.ids);
        for (n, row) in ids.into_iter().zip(rows) {
            if !row.is_empty() {
                self.ids.push(n);
                self.rows.push(row);
            }
        }
    }

    /// Removes `m` from node `n`'s row (and the row, if that empties it),
    /// returning the weight it had.
    fn remove_entry(&mut self, n: u32, m: u32) -> Option<f64> {
        let i = self.slot(n)?;
        let row = &mut self.rows[i];
        let (_, w) = row.remove(find(row, m).ok()?);
        if row.is_empty() {
            self.ids.remove(i);
            self.rows.remove(i);
        }
        Some(w)
    }

    /// Adds `w` to the weight of edge `{a, b}`, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics on self-loops (`a == b`); interleaving of a block with itself
    /// is meaningless for placement.
    pub fn add_weight(&mut self, a: u32, b: u32, w: f64) {
        assert_ne!(a, b, "self-loops are not representable");
        // A new edge stores `0.0 + w`, the sum onto an empty weight
        // (`-0.0` becomes `0.0`); `b`'s row takes the same bits.
        let row = self.row_or_insert(a);
        let sum = match find(row, b) {
            Ok(i) => {
                row[i].1 += w;
                row[i].1
            }
            Err(i) => {
                row.insert(i, (b, 0.0 + w));
                self.edges += 1;
                0.0 + w
            }
        };
        let row = self.row_or_insert(b);
        match find(row, a) {
            Ok(i) => row[i].1 = sum,
            Err(i) => row.insert(i, (a, sum)),
        }
    }

    /// The weight of edge `{a, b}`, or 0 if absent.
    #[inline]
    pub fn weight(&self, a: u32, b: u32) -> f64 {
        let row = self.row(a);
        find(row, b).map_or(0.0, |i| row[i].1)
    }

    /// Returns `true` if the edge exists.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        find(self.row(a), b).is_ok()
    }

    /// Removes edge `{a, b}`, returning its weight if it existed.
    pub fn remove_edge(&mut self, a: u32, b: u32) -> Option<f64> {
        if a == b {
            return None;
        }
        let w = self.remove_entry(a, b)?;
        self.remove_entry(b, a);
        self.edges -= 1;
        Some(w)
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Returns `true` if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges == 0
    }

    /// Number of nodes incident to at least one edge.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Iterates over all edges in canonical key order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.ids.iter().zip(&self.rows).flat_map(|(&a, row)| {
            row[row.partition_point(|e| e.0 < a)..]
                .iter()
                .map(move |&(b, w)| Edge { a, b, w })
        })
    }

    /// Iterates over nodes with at least one incident edge, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = u32> + '_ {
        self.ids.iter().copied()
    }

    /// The edges of `n` as `(neighbour, weight)`, ascending by neighbour
    /// (empty if `n` has no edges).
    #[inline]
    pub fn row(&self, n: u32) -> &[(u32, f64)] {
        self.slot(n).map_or(&[], |i| &self.rows[i])
    }

    /// Neighbors of `n` in ascending order (empty if `n` has no edges).
    pub fn neighbors(&self, n: u32) -> Neighbors<'_> {
        Neighbors {
            inner: self.row(n).iter(),
        }
    }

    /// Sum of the weights of edges incident to `n`.
    pub fn degree_weight(&self, n: u32) -> f64 {
        self.row(n).iter().map(|e| e.1).sum()
    }

    /// Sum of all edge weights, in canonical key order.
    pub fn total_weight(&self) -> f64 {
        self.edges().map(|e| e.w).sum()
    }

    /// The heaviest edge, breaking weight ties by canonical key order
    /// (smallest `(a, b)` wins). `None` for an empty graph.
    pub fn heaviest_edge(&self) -> Option<Edge> {
        let mut best: Option<Edge> = None;
        for e in self.edges() {
            match &best {
                Some(b) if e.w <= b.w => {}
                _ => best = Some(e),
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
        let Some(iv) = self.slot(v) else {
            return;
        };
        self.ids.remove(iv);
        let mut moved = self.rows.remove(iv);
        self.edges -= moved.len();
        if let Ok(i) = find(&moved, u) {
            moved.remove(i);
            self.remove_entry(u, v);
        }
        // Each neighbour `r` swaps its entry for `v` into one for `u`.
        for &(r, w) in &moved {
            let i = self.slot(r).expect("rows hold both copies of an edge");
            let row = &mut self.rows[i];
            let at_v = find(row, v).expect("rows hold both copies of an edge");
            match find(row, u) {
                Ok(at_u) => {
                    row[at_u].1 += w;
                    row.remove(at_v);
                }
                Err(at_u) => {
                    row[at_v] = (u, 0.0 + w);
                    if at_u > at_v {
                        row[at_v..at_u].rotate_left(1);
                    } else {
                        row[at_u..=at_v].rotate_right(1);
                    }
                }
            }
        }
        if !moved.is_empty() {
            let fresh = merge_row(self.row_or_insert(u), &moved);
            self.edges += fresh;
        }
    }

    /// Adds every edge of `other` into this graph, summing weights where
    /// both graphs carry the edge — the profile-merge operation. Each of
    /// `other`'s rows is merged into this graph's as one sorted merge.
    ///
    /// Edge weights are integer event counts (each trace event adds 1.0),
    /// so merging is exact below 2^53 and therefore commutative and
    /// associative: any merge order produces the same graph.
    pub fn merge_from(&mut self, other: &WeightedGraph) {
        if other.is_empty() {
            return;
        }
        let mut merge = RowMerge::new(self);
        for (&n, row) in other.ids.iter().zip(&other.rows) {
            merge.row(n, row);
        }
        merge.finish();
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
        let mut dead = 0;
        for row in &mut self.rows {
            let mut zeros = 0;
            for e in row.iter_mut() {
                e.1 *= factor;
                zeros += usize::from(e.1 == 0.0);
            }
            if zeros > 0 {
                row.retain(|e| e.1 != 0.0);
                dead += zeros;
            }
        }
        if dead > 0 {
            self.edges -= dead / 2;
            self.drop_empty_rows();
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
        let mut dead = 0;
        for (&n, src) in other.ids.iter().zip(&other.rows) {
            let Some(i) = self.slot(n) else {
                continue;
            };
            let row = &mut self.rows[i];
            let before = row.len();
            let mut src = src.iter().peekable();
            row.retain_mut(|e| {
                while src.next_if(|s| s.0 < e.0).is_some() {}
                match src.next_if(|s| s.0 == e.0) {
                    Some(s) => {
                        e.1 -= s.1;
                        e.1 > 0.0 || e.1.is_nan()
                    }
                    None => true,
                }
            });
            dead += before - row.len();
        }
        if dead > 0 {
            self.edges -= dead / 2;
            self.drop_empty_rows();
        }
    }

    /// Returns a copy with every weight multiplied by `exp(s·X)`,
    /// `X ~ N(0, 1)` — the paper's §5.1 profile perturbation. `s = 0`
    /// returns an identical copy. One sample is drawn per edge, in
    /// canonical key order, and both copies of the edge take it.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn perturbed<R: Rng + ?Sized>(&self, s: f64, rng: &mut R) -> WeightedGraph {
        let mut out = self.clone();
        for i in 0..out.ids.len() {
            let a = out.ids[i];
            let upper = out.rows[i].partition_point(|e| e.0 < a);
            for j in upper..out.rows[i].len() {
                let (b, w) = out.rows[i][j];
                let w = perturb_weight(rng, w, s);
                out.rows[i][j].1 = w;
                let k = out.slot(b).expect("rows hold both copies of an edge");
                let at = find(&out.rows[k], a).expect("rows hold both copies of an edge");
                out.rows[k][at].1 = w;
            }
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

/// Collects `(a, b, w)` triples as if by one
/// [`add_weight`](WeightedGraph::add_weight) call each, in order: a
/// repeated edge sums its weights in input order. The rows are built in
/// bulk, by one stable sort of the directed entries.
///
/// # Panics
///
/// Panics on a self-loop.
impl FromIterator<(u32, u32, f64)> for WeightedGraph {
    fn from_iter<I: IntoIterator<Item = (u32, u32, f64)>>(iter: I) -> Self {
        let mut entries: Vec<(u32, u32, f64)> = Vec::new();
        for (a, b, w) in iter {
            assert_ne!(a, b, "self-loops are not representable");
            entries.push((a, b, w));
            entries.push((b, a, w));
        }
        entries.sort_by_key(|&(n, m, _)| (n, m));
        let mut g = WeightedGraph::new();
        for (n, m, w) in entries {
            if g.ids.last() != Some(&n) {
                g.ids.push(n);
                g.rows.push(Vec::new());
            }
            let row = g.rows.last_mut().expect("a row was just pushed");
            match row.last_mut() {
                Some(last) if last.0 == m => last.1 += w,
                _ => {
                    row.push((m, 0.0 + w));
                    g.edges += 1;
                }
            }
        }
        g.edges /= 2;
        g
    }
}

/// A merge of incoming sorted rows, in ascending node order, into a
/// graph: each one merges into the graph's row for that node as one sorted
/// merge ([`merge_row`]), in place, or becomes the row of a node the graph
/// lacked. The incoming rows must hold both copies of every edge.
pub(crate) struct RowMerge<'g> {
    graph: &'g mut WeightedGraph,
    /// Where the search for the next incoming node starts.
    at: usize,
    /// Rows of nodes the graph lacked, ascending, spliced in by
    /// [`finish`](Self::finish).
    added: Vec<(u32, Row)>,
    /// Row entries added: two per new edge.
    fresh: usize,
}

impl<'g> RowMerge<'g> {
    /// Starts merging into `graph`.
    pub(crate) fn new(graph: &'g mut WeightedGraph) -> Self {
        RowMerge {
            graph,
            at: 0,
            added: Vec::new(),
            fresh: 0,
        }
    }

    /// Merges node `n`'s incoming row; `n` exceeds every node merged
    /// before it.
    pub(crate) fn row(&mut self, n: u32, src: &[(u32, f64)]) {
        if src.is_empty() {
            return;
        }
        let ids = &self.graph.ids;
        self.at += ids[self.at..].partition_point(|&m| m < n);
        if ids.get(self.at) == Some(&n) {
            self.fresh += merge_row(&mut self.graph.rows[self.at], src);
        } else {
            self.fresh += src.len();
            let row = src.iter().map(|&(m, w)| (m, 0.0 + w)).collect();
            self.added.push((n, row));
        }
    }

    /// Splices in the rows of new nodes and counts the new edges.
    pub(crate) fn finish(self) {
        let graph = self.graph;
        graph.edges += self.fresh / 2;
        if self.added.is_empty() {
            return;
        }
        let ids = std::mem::take(&mut graph.ids);
        let rows = std::mem::take(&mut graph.rows);
        let mut old = ids.into_iter().zip(rows).peekable();
        for (n, row) in self.added {
            while let Some((m, r)) = old.next_if(|(m, _)| *m < n) {
                graph.ids.push(m);
                graph.rows.push(r);
            }
            graph.ids.push(n);
            graph.rows.push(row);
        }
        for (m, r) in old {
            graph.ids.push(m);
            graph.rows.push(r);
        }
    }
}

/// Iterator over the neighbors of a node, produced by
/// [`WeightedGraph::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'g> {
    inner: std::slice::Iter<'g, (u32, f64)>,
}

impl Iterator for Neighbors<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        self.inner.next().map(|e| e.0)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_graph::ReferenceGraph;
    use proptest::prelude::*;
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

    /// One mutation of the graph-versus-reference proptest.
    #[derive(Debug, Clone)]
    enum Op {
        Add(u32, u32, f64),
        Remove(u32, u32),
        MergeNodes(u32, u32),
        MergeFrom(Vec<(u32, u32, f64)>),
        SubtractFrom(Vec<(u32, u32, f64)>),
        Decay,
        Perturb(u64),
    }

    /// Node ids: mostly a dense handful, so edges collide and merge, plus
    /// two far-apart ids a dense table could not afford.
    const NODES: [u32; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4_000_000_000, u32::MAX];

    /// Up to `len` random edges with integer weights, no self-loops.
    fn edges_from(seed: u64, len: usize) -> Vec<(u32, u32, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let a = NODES[rng.gen_range(0..NODES.len())];
                let b = NODES[rng.gen_range(0..NODES.len())];
                (a, b, f64::from(rng.gen_range(1u32..6)))
            })
            .filter(|(a, b, _)| a != b)
            .collect()
    }

    /// Decodes one sampled `(kind, a, b, seed)` into an operation, adds
    /// weighted towards growth so the graphs stay interesting.
    fn op((kind, a, b, seed): (u32, usize, usize, u64)) -> Op {
        let (a, b) = (NODES[a], NODES[b]);
        let w = f64::from((seed % 5) as u32 + 1);
        match kind {
            _ if a == b && kind < 11 => Op::Decay,
            0..=5 => Op::Add(a, b, w),
            6 | 7 => Op::Remove(a, b),
            8..=10 => Op::MergeNodes(a, b),
            11 => Op::MergeFrom(edges_from(seed, 8)),
            12 => Op::SubtractFrom(edges_from(seed, 8)),
            13 => Op::Decay,
            _ => Op::Perturb(seed),
        }
    }

    fn reference_of(edges: &[(u32, u32, f64)]) -> ReferenceGraph {
        let mut r = ReferenceGraph::default();
        for &(a, b, w) in edges {
            r.add_weight(a, b, w);
        }
        r
    }

    fn bits(edges: impl IntoIterator<Item = (u32, u32, f64)>) -> Vec<(u32, u32, u64)> {
        edges
            .into_iter()
            .map(|(a, b, w)| (a, b, w.to_bits()))
            .collect()
    }

    /// Every order and every weight bit a caller can observe.
    fn assert_same(g: &WeightedGraph, r: &ReferenceGraph) -> Result<(), String> {
        prop_assert_eq!(bits(g.edges().map(|e| (e.a, e.b, e.w))), bits(r.edges()));
        prop_assert_eq!(g.nodes().collect::<Vec<_>>(), r.nodes());
        prop_assert_eq!(g.node_count(), r.node_count());
        prop_assert_eq!(g.edge_count(), r.edge_count());
        prop_assert_eq!(g.is_empty(), r.edge_count() == 0);
        prop_assert_eq!(
            g.heaviest_edge().map(|e| (e.a, e.b, e.w.to_bits())),
            r.heaviest_edge().map(|(a, b, w)| (a, b, w.to_bits()))
        );
        prop_assert_eq!(g.total_weight().to_bits(), r.total_weight().to_bits());
        for n in (0..10).chain([4_000_000_000, u32::MAX]) {
            prop_assert_eq!(g.neighbors(n).collect::<Vec<_>>(), r.neighbors(n));
            prop_assert_eq!(g.neighbors(n).len(), r.neighbors(n).len());
            prop_assert_eq!(g.degree_weight(n).to_bits(), r.degree_weight(n).to_bits());
            let row: Vec<(u32, f64)> = r
                .neighbors(n)
                .iter()
                .map(|&m| (m, r.weight(n, m)))
                .collect();
            prop_assert_eq!(g.row(n), row.as_slice());
        }
        // Equality sees content, not allocation history.
        let rebuilt: WeightedGraph = r.edges().into_iter().collect();
        prop_assert_eq!(g, &rebuilt);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sorted_rows_match_the_btree_reference(
            start_seed in any::<u64>(),
            start_len in 0usize..24,
            ops in prop::collection::vec((0u32..15, 0usize..12, 0usize..12, any::<u64>()), 0..40),
        ) {
            let start = edges_from(start_seed, start_len);
            let mut g: WeightedGraph = start.iter().copied().collect();
            let mut r = reference_of(&start);
            assert_same(&g, &r)?;
            for sample in ops {
                match op(sample) {
                    Op::Add(a, b, w) => {
                        g.add_weight(a, b, w);
                        r.add_weight(a, b, w);
                    }
                    Op::Remove(a, b) => {
                        prop_assert_eq!(
                            g.remove_edge(a, b).map(f64::to_bits),
                            r.remove_edge(a, b).map(f64::to_bits)
                        );
                    }
                    Op::MergeNodes(u, v) => {
                        g.merge_nodes(u, v);
                        r.merge_nodes(u, v);
                    }
                    Op::MergeFrom(edges) => {
                        g.merge_from(&edges.iter().copied().collect());
                        r.merge_from(&reference_of(&edges));
                    }
                    Op::SubtractFrom(edges) => {
                        g.subtract_from(&edges.iter().copied().collect());
                        r.subtract_from(&reference_of(&edges));
                    }
                    Op::Decay => {
                        g.scale_weights(0.5);
                        r.scale_weights(0.5);
                    }
                    Op::Perturb(seed) => {
                        g = g.perturbed(0.3, &mut StdRng::seed_from_u64(seed));
                        r = r.perturbed(0.3, &mut StdRng::seed_from_u64(seed));
                    }
                }
                assert_same(&g, &r)?;
            }
        }
    }

    #[test]
    fn far_apart_ids_cost_only_their_rows() {
        let mut g: WeightedGraph = [(0, u32::MAX, 1.0), (4_000_000_000, 7, 2.0)]
            .into_iter()
            .collect();
        g.merge_nodes(7, u32::MAX);
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![0, 7, 4_000_000_000]);
        assert_eq!(g.rows.len(), 3);
        assert_eq!(g.weight(0, 7), 1.0);
    }

    #[test]
    fn collect_sums_repeated_edges_in_input_order() {
        // 0.1 + 0.2 + 0.3 != 0.1 + (0.2 + 0.3): the order is observable.
        let g: WeightedGraph = [(1, 2, 0.1), (2, 1, 0.2), (1, 2, 0.3)]
            .into_iter()
            .collect();
        let mut h = WeightedGraph::new();
        h.add_weight(1, 2, 0.1);
        h.add_weight(2, 1, 0.2);
        h.add_weight(1, 2, 0.3);
        assert_eq!(g.weight(1, 2).to_bits(), h.weight(1, 2).to_bits());
        assert_eq!(g.weight(2, 1).to_bits(), h.weight(1, 2).to_bits());
        assert_eq!(g, h);
    }
}
