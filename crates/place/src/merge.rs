//! The greedy merge loop every merging placement shares.
//!
//! PH (§2), HKC (§5), GBSC and GBSC-SA (§4, §6) and both §4 ablations run
//! one skeleton: take the heaviest edge of a working copy of a selection
//! graph, combine the two nodes it joins, and fold the edge away with
//! [`WeightedGraph::merge_nodes`]. The pair merged at each step depends on
//! the selection graph alone, never on a combine step, so [`merge_order`]
//! runs that loop once, up front, and [`greedy_merge`] folds over the
//! order it returns, owning the node tables and the budget. An algorithm
//! supplies the order, the procedures that start as nodes, and a
//! [`Combine`] step that prices each merge in work units and decides how
//! the two nodes sit together: as one chain (PH's byte adjacency,
//! `ph::chain_layout`) or at cache-relative offsets (Figure 4's
//! `merge_nodes` scan, `gbsc::offset_tuples`). GBSC-SA also reads the
//! order ahead, to know at which merge each pair-database association is
//! first costed.

use tempo_program::ProcId;
use tempo_trg::{ProfileData, WeightedGraph};

use crate::budget::BudgetExhausted;
use crate::PlacementContext;

/// Node label of a procedure that is not a merge node (an unpopular
/// procedure under an offset merger).
const NO_NODE: u32 = u32::MAX;

/// The node tables of a greedy merge: the node each procedure belongs to,
/// and each live node's members, indexed by the node's label (the
/// procedure index it started from).
#[derive(Debug)]
pub(crate) struct Nodes {
    node_of: Vec<u32>,
    members: Vec<Vec<ProcId>>,
}

impl Nodes {
    /// The node procedure `p` belongs to; never equal to a live node's
    /// label when `p` is not part of the merge.
    #[inline]
    pub(crate) fn node_of(&self, p: u32) -> u32 {
        self.node_of[p as usize]
    }

    /// The members of node `n`, in the order its combine steps left them.
    pub(crate) fn members(&self, n: u32) -> &[ProcId] {
        &self.members[n as usize]
    }

    /// The members of node `n`, for a combine step to reorder in place.
    pub(crate) fn members_mut(&mut self, n: u32) -> &mut [ProcId] {
        &mut self.members[n as usize]
    }

    /// Every live node as `(label, members)`, in label order.
    #[allow(clippy::cast_possible_truncation)] // labels are procedure indices
    pub(crate) fn live(&self) -> impl Iterator<Item = (u32, &[ProcId])> {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(n, m)| (n as u32, m.as_slice()))
    }

    /// Appends node `v`'s members to node `u`'s and relabels them.
    fn join(&mut self, u: u32, v: u32) {
        let moved = std::mem::take(&mut self.members[v as usize]);
        for p in &moved {
            self.node_of[p.as_usize()] = u;
        }
        self.members[u as usize].extend(moved);
    }
}

/// One algorithm's share of a greedy merge.
pub(crate) trait Combine {
    /// Work units that merging node `v` into node `u` costs; the driver
    /// charges them before the merge runs, so a budget of one unit stops
    /// the very first merge.
    fn charge(&self, nodes: &Nodes, u: u32, v: u32) -> u64;

    /// Decides how node `v` joins node `u`. It runs before the driver
    /// appends `v`'s members to `u`'s, so `nodes` still tells the two
    /// apart; a step may reorder either node's members in place.
    fn combine(&mut self, nodes: &mut Nodes, u: u32, v: u32);
}

/// The greedy merges of `selection`, in order: each step takes the
/// heaviest working edge (ties to the smallest endpoint pair) and yields
/// `(u, v)`, node `v` folding into node `u`.
pub(crate) fn merge_order(selection: &WeightedGraph) -> Vec<(u32, u32)> {
    let mut working = selection.clone();
    let mut order = Vec::new();
    while let Some(e) = working.heaviest_edge() {
        order.push((e.a, e.b));
        working.merge_nodes(e.a, e.b);
    }
    order
}

/// [`merge_order`] over the reference graph: the order every placement
/// test compares against.
#[cfg(test)]
pub(crate) fn reference_order(
    selection: &crate::reference_graph::ReferenceGraph,
) -> Vec<(u32, u32)> {
    let mut working = selection.clone();
    let mut order = Vec::new();
    while let Some((a, b, _)) = working.heaviest_edge() {
        order.push((a, b));
        working.merge_nodes(a, b);
    }
    order
}

/// Merges `nodes` pair by pair along `order` (from [`merge_order`]),
/// charging every merge to the context's budget. Returns the final node
/// tables.
///
/// # Errors
///
/// Returns [`BudgetExhausted`] when a merge's charge trips the budget.
pub(crate) fn greedy_merge(
    ctx: &PlacementContext<'_>,
    order: &[(u32, u32)],
    nodes: impl IntoIterator<Item = ProcId>,
    step: &mut impl Combine,
) -> Result<Nodes, BudgetExhausted> {
    let n = ctx.program.len();
    let mut tables = Nodes {
        node_of: vec![NO_NODE; n],
        members: vec![Vec::new(); n],
    };
    for id in nodes {
        tables.node_of[id.as_usize()] = id.index();
        tables.members[id.as_usize()].push(id);
    }
    for &(u, v) in order {
        ctx.charge(step.charge(&tables, u, v))?;
        step.combine(&mut tables, u, v);
        tables.join(u, v);
    }
    Ok(tables)
}

/// The WCG restricted to popular procedures: the selection graph of HKC
/// and WCG+offsets, whose unpopular procedures become gap fillers as in
/// GBSC.
pub(crate) fn popular_wcg(profile: &ProfileData) -> WeightedGraph {
    let popular = |n: u32| profile.popular.is_popular(ProcId::new(n));
    let mut graph = WeightedGraph::new();
    for e in profile.wcg.edges() {
        if popular(e.a) && popular(e.b) {
            graph.add_weight(e.a, e.b, e.w);
        }
    }
    graph
}
