//! The dynamic Voronoi cell tree (paper §4.1, Figures 2 and 3).
//!
//! Level 1 partitions the space into one cell per closest pivot; a cell
//! whose bucket exceeds capacity splits one level deeper, re-partitioning
//! its objects by the *next* pivot in their permutation — the recursive
//! Voronoi partitioning. Leaves own storage buckets; internal nodes route
//! by permutation prefix.

use std::collections::BTreeMap;

use simcloud_storage::BucketId;

/// A node of the cell tree. Children are keyed by pivot index (the next
/// entry of the permutation prefix); `BTreeMap` keeps traversal order
/// deterministic.
#[derive(Debug)]
pub enum Node {
    /// Inner cell that has been split (paper Fig. 3: e.g. `C_1` split into
    /// `C_1,2 … C_1,n`).
    Internal {
        /// Children keyed by next pivot index.
        children: BTreeMap<u16, Node>,
    },
    /// Leaf cell holding a bucket of records.
    Leaf(LeafCell),
}

/// Leaf metadata. Distance bounds are maintained only under the
/// distance-routing strategy; they power the range-pivot pruning rule.
#[derive(Debug, Clone)]
pub struct LeafCell {
    /// Bucket owning this cell's records.
    pub bucket: BucketId,
    /// Number of records in the bucket (cached).
    pub count: usize,
    /// Length of the bucket's record stream (cached): what reading the
    /// whole cell appends to a buffer, so a search reserves exactly that.
    pub stream_bytes: usize,
    /// Depth of this leaf = length of its permutation prefix.
    pub level: usize,
    /// Per-prefix-level (min, max) of `d(o, p_prefix[k])` over stored
    /// objects; empty when the index stores permutations only.
    pub dist_bounds: Vec<(f64, f64)>,
}

impl LeafCell {
    fn new(bucket: BucketId, level: usize) -> Self {
        Self {
            bucket,
            count: 0,
            stream_bytes: 0,
            level,
            dist_bounds: Vec::new(),
        }
    }

    /// Folds an object's prefix distances into the bounds.
    pub fn update_bounds(&mut self, prefix_distances: &[f64]) {
        if self.dist_bounds.is_empty() {
            self.dist_bounds = prefix_distances.iter().map(|&d| (d, d)).collect();
        } else {
            for (slot, &d) in self.dist_bounds.iter_mut().zip(prefix_distances) {
                if d < slot.0 {
                    slot.0 = d;
                }
                if d > slot.1 {
                    slot.1 = d;
                }
            }
        }
    }
}

/// The cell tree: a forest rooted at level-1 Voronoi cells, plus the bucket
/// id allocator.
#[derive(Debug)]
pub struct CellTree {
    /// Level-1 cells keyed by closest-pivot index.
    roots: BTreeMap<u16, Node>,
    next_bucket: u64,
}

/// Statistics of the tree shape (reported by experiment harnesses; the
/// shape determines candidate-set granularity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeShape {
    /// Number of leaf cells.
    pub leaves: usize,
    /// Number of internal (split) cells.
    pub internal: usize,
    /// Maximum leaf depth.
    pub max_depth: usize,
    /// Total records across leaves.
    pub records: usize,
}

impl Default for CellTree {
    fn default() -> Self {
        Self::new()
    }
}

impl CellTree {
    /// Empty tree.
    pub fn new() -> Self {
        Self {
            roots: BTreeMap::new(),
            next_bucket: 1,
        }
    }

    /// Locates the leaf for a permutation prefix, creating the level-1 cell
    /// on first touch. Returns the leaf and its prefix depth.
    ///
    /// `prefix` must be at least as long as the deepest existing cell on the
    /// routing path (enforced by the index configuration's `max_level`).
    pub fn locate_mut(&mut self, prefix: &[u16]) -> &mut LeafCell {
        assert!(!prefix.is_empty(), "empty permutation prefix");
        fn alloc(next: &mut u64) -> BucketId {
            let id = BucketId(*next);
            *next += 1;
            id
        }
        let roots = &mut self.roots;
        let next_bucket = &mut self.next_bucket;
        let first = prefix[0];
        let mut node = roots
            .entry(first)
            .or_insert_with(|| Node::Leaf(LeafCell::new(alloc(next_bucket), 1)));
        let mut depth = 1;
        loop {
            match node {
                Node::Leaf(leaf) => return leaf,
                Node::Internal { children } => {
                    let key = *prefix.get(depth).unwrap_or_else(|| {
                        panic!(
                            "permutation prefix of length {} too short for tree depth {}",
                            prefix.len(),
                            depth + 1
                        )
                    });
                    depth += 1;
                    node = children
                        .entry(key)
                        .or_insert_with(|| Node::Leaf(LeafCell::new(alloc(next_bucket), depth)));
                }
            }
        }
    }

    fn descend_mut<'a>(mut node: &'a mut Node, prefix: &[u16]) -> &'a mut Node {
        let mut depth = 1;
        loop {
            match node {
                Node::Leaf(_) => return node,
                Node::Internal { children } => {
                    let key = prefix[depth];
                    depth += 1;
                    node = children.get_mut(&key).expect("path exists");
                }
            }
        }
    }

    /// Replaces the leaf at `prefix` with an internal node and returns the
    /// replaced leaf (the index re-inserts its records one level deeper).
    pub fn split_leaf(&mut self, prefix: &[u16]) -> LeafCell {
        let first = prefix[0];
        let node = Self::descend_mut(self.roots.get_mut(&first).expect("root exists"), prefix);
        match std::mem::replace(
            node,
            Node::Internal {
                children: BTreeMap::new(),
            },
        ) {
            Node::Leaf(leaf) => leaf,
            Node::Internal { .. } => unreachable!("split target must be a leaf"),
        }
    }

    /// Level-1 cells keyed by closest-pivot index (read access for query
    /// traversals).
    pub fn roots(&self) -> &BTreeMap<u16, Node> {
        &self.roots
    }

    /// Visits every leaf with its permutation prefix.
    pub fn for_each_leaf<'a>(&'a self, mut f: impl FnMut(&[u16], &'a LeafCell)) {
        let mut prefix = Vec::new();
        for (&k, node) in &self.roots {
            prefix.push(k);
            Self::walk(node, &mut prefix, &mut f);
            prefix.pop();
        }
    }

    fn walk<'a>(node: &'a Node, prefix: &mut Vec<u16>, f: &mut impl FnMut(&[u16], &'a LeafCell)) {
        match node {
            Node::Leaf(leaf) => f(prefix, leaf),
            Node::Internal { children } => {
                for (&k, child) in children {
                    prefix.push(k);
                    Self::walk(child, prefix, f);
                    prefix.pop();
                }
            }
        }
    }

    /// Tree shape statistics.
    pub fn shape(&self) -> TreeShape {
        let mut shape = TreeShape::default();
        let mut stack: Vec<&Node> = self.roots.values().collect();
        while let Some(node) = stack.pop() {
            match node {
                Node::Leaf(l) => {
                    shape.leaves += 1;
                    shape.records += l.count;
                    shape.max_depth = shape.max_depth.max(l.level);
                }
                Node::Internal { children } => {
                    shape.internal += 1;
                    stack.extend(children.values());
                }
            }
        }
        shape
    }

    /// Renders an ASCII sketch of the tree (used by `examples/voronoi_demo`
    /// to reproduce the paper's Figure 3).
    pub fn render(&self, pivot_labels: bool) -> String {
        let mut out = String::new();
        self.for_each_leaf(|prefix, leaf| {
            let path: Vec<String> = prefix
                .iter()
                .map(|p| {
                    if pivot_labels {
                        format!("p{}", p + 1)
                    } else {
                        (p + 1).to_string()
                    }
                })
                .collect();
            out.push_str(&format!(
                "C_{{{}}} (level {}, {} objects)\n",
                path.join(","),
                leaf.level,
                leaf.count
            ));
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_creates_level1_cells() {
        let mut t = CellTree::new();
        let l = t.locate_mut(&[3, 1, 2]);
        assert_eq!(l.level, 1);
        l.count = 5;
        let l2 = t.locate_mut(&[3, 0, 1]);
        assert_eq!(l2.count, 5, "same level-1 cell (closest pivot 3)");
        let l3 = t.locate_mut(&[1, 3, 2]);
        assert_eq!(l3.count, 0, "different closest pivot, different cell");
        assert_eq!(t.shape().leaves, 2);
    }

    #[test]
    fn distinct_buckets_per_cell() {
        let mut t = CellTree::new();
        let b1 = t.locate_mut(&[0, 1]).bucket;
        let b2 = t.locate_mut(&[1, 0]).bucket;
        assert_ne!(b1, b2);
    }

    #[test]
    fn split_replaces_leaf_and_routes_deeper() {
        let mut t = CellTree::new();
        t.locate_mut(&[2, 0, 1]).count = 10;
        let old = t.split_leaf(&[2]);
        assert_eq!(old.count, 10);
        assert_eq!(old.level, 1);
        // After the split, routing descends to level 2 children.
        let l = t.locate_mut(&[2, 0, 1]);
        assert_eq!(l.level, 2);
        assert_eq!(l.count, 0);
        let l2 = t.locate_mut(&[2, 1, 0]);
        assert_eq!(l2.level, 2);
        let shape = t.shape();
        assert_eq!(shape.internal, 1);
        assert_eq!(shape.leaves, 2);
        assert_eq!(shape.max_depth, 2);
    }

    #[test]
    fn nested_splits() {
        let mut t = CellTree::new();
        t.locate_mut(&[0, 1, 2]);
        t.split_leaf(&[0]);
        t.locate_mut(&[0, 1, 2]);
        t.split_leaf(&[0, 1]);
        let l = t.locate_mut(&[0, 1, 2]);
        assert_eq!(l.level, 3);
        assert_eq!(t.shape().max_depth, 3);
        assert_eq!(t.shape().internal, 2);
    }

    #[test]
    fn for_each_leaf_reports_prefixes() {
        let mut t = CellTree::new();
        t.locate_mut(&[1, 0]);
        t.locate_mut(&[0, 1]);
        t.split_leaf(&[0]);
        t.locate_mut(&[0, 1]);
        t.locate_mut(&[0, 2]);
        let mut seen = Vec::new();
        t.for_each_leaf(|prefix, _| seen.push(prefix.to_vec()));
        assert!(seen.contains(&vec![1]));
        assert!(seen.contains(&vec![0, 1]));
        assert!(seen.contains(&vec![0, 2]));
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn bounds_updates() {
        let mut leaf = LeafCell::new(BucketId(1), 2);
        leaf.update_bounds(&[1.0, 5.0]);
        leaf.update_bounds(&[3.0, 2.0]);
        assert_eq!(leaf.dist_bounds, vec![(1.0, 3.0), (2.0, 5.0)]);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_prefix_panics_after_split() {
        let mut t = CellTree::new();
        t.locate_mut(&[0, 1]);
        t.split_leaf(&[0]);
        let _ = t.locate_mut(&[0]); // needs depth 2 now
    }

    #[test]
    fn render_mentions_cells() {
        let mut t = CellTree::new();
        t.locate_mut(&[1, 0]).count = 3;
        let s = t.render(true);
        assert!(s.contains("C_{p2}"), "render output: {s}");
        assert!(s.contains("3 objects"));
    }
}
