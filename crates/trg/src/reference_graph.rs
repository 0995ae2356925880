//! The `BTreeMap` + `BTreeSet` weighted graph that backed every profile
//! graph before the sorted-row [`WeightedGraph`](crate::WeightedGraph).
//! It is compiled only into tests, as the reference whose iteration
//! orders, tie rules and weight bits the shipped graph must reproduce.
//! The placement crate's tests include this same file.

#![allow(dead_code)] // each including crate uses a different subset

use std::collections::{btree_map, BTreeMap, BTreeSet};

use rand::Rng;
use tempo_trace::stats::perturb_weight;

/// The reference graph: canonical `(min, max)` keys plus an adjacency
/// index, exactly as first written.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReferenceGraph {
    edges: BTreeMap<(u32, u32), f64>,
    adj: BTreeMap<u32, BTreeSet<u32>>,
}

impl ReferenceGraph {
    fn key(a: u32, b: u32) -> (u32, u32) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    pub fn add_weight(&mut self, a: u32, b: u32, w: f64) {
        assert_ne!(a, b, "self-loops are not representable");
        match self.edges.entry(Self::key(a, b)) {
            btree_map::Entry::Occupied(mut e) => *e.get_mut() += w,
            btree_map::Entry::Vacant(e) => {
                e.insert(0.0 + w);
                self.adj.entry(a).or_default().insert(b);
                self.adj.entry(b).or_default().insert(a);
            }
        }
    }

    pub fn weight(&self, a: u32, b: u32) -> f64 {
        if a == b {
            return 0.0;
        }
        self.edges.get(&Self::key(a, b)).copied().unwrap_or(0.0)
    }

    pub fn remove_edge(&mut self, a: u32, b: u32) -> Option<f64> {
        let w = self.edges.remove(&Self::key(a, b))?;
        for (n, m) in [(a, b), (b, a)] {
            if let Some(s) = self.adj.get_mut(&n) {
                s.remove(&m);
                if s.is_empty() {
                    self.adj.remove(&n);
                }
            }
        }
        Some(w)
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Every edge as `(a, b, w)`, `a < b`, in canonical key order.
    pub fn edges(&self) -> Vec<(u32, u32, f64)> {
        self.edges.iter().map(|(&(a, b), &w)| (a, b, w)).collect()
    }

    pub fn nodes(&self) -> Vec<u32> {
        self.adj.keys().copied().collect()
    }

    pub fn neighbors(&self, n: u32) -> Vec<u32> {
        self.adj
            .get(&n)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    pub fn degree_weight(&self, n: u32) -> f64 {
        self.neighbors(n).iter().map(|&m| self.weight(n, m)).sum()
    }

    pub fn total_weight(&self) -> f64 {
        self.edges.values().sum()
    }

    /// The heaviest edge as `(a, b, w)`, ties to the smallest key.
    pub fn heaviest_edge(&self) -> Option<(u32, u32, f64)> {
        let mut best: Option<(u32, u32, f64)> = None;
        for (&(a, b), &w) in &self.edges {
            match &best {
                Some(e) if w <= e.2 => {}
                _ => best = Some((a, b, w)),
            }
        }
        best
    }

    pub fn merge_nodes(&mut self, u: u32, v: u32) {
        assert_ne!(u, v, "cannot merge a node into itself");
        self.remove_edge(u, v);
        for r in self.neighbors(v) {
            let w = self.remove_edge(v, r).expect("adjacency in sync");
            if r != u {
                self.add_weight(u, r, w);
            }
        }
        self.adj.remove(&v);
    }

    pub fn merge_from(&mut self, other: &ReferenceGraph) {
        for (a, b, w) in other.edges() {
            self.add_weight(a, b, w);
        }
    }

    pub fn scale_weights(&mut self, factor: f64) {
        let mut dead = Vec::new();
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

    pub fn subtract_from(&mut self, other: &ReferenceGraph) {
        for (a, b, ow) in other.edges() {
            if let Some(w) = self.edges.get_mut(&(a, b)) {
                *w -= ow;
                if *w <= 0.0 {
                    self.remove_edge(a, b);
                }
            }
        }
    }

    pub fn perturbed<R: Rng + ?Sized>(&self, s: f64, rng: &mut R) -> ReferenceGraph {
        let mut out = self.clone();
        for w in out.edges.values_mut() {
            *w = perturb_weight(rng, *w, s);
        }
        out
    }
}
