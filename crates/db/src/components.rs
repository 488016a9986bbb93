//! Connected components as one flat table, and the disjoint sets that
//! find them.
//!
//! [`DisjointSets`] is the union-find every sign-off pass shares:
//! extraction joins shapes (and the pieces of gate-split diffusion) into
//! components, and min-area joins touching same-layer shapes into
//! merged regions. [`Components`] is what extraction leaves behind in the
//! spatial index's memo: each component's member shapes in one
//! contiguous run, as [`PlanPairs`](crate::PlanPairs) keeps its pairs,
//! and each shape's component ids in a second run, so DRC's same-net
//! spacing exemption reads a shape's components without a per-call
//! table of its own.

use std::ops::Range;

/// Disjoint sets over the nodes `0..n`, by union by rank and path
/// halving, so a tree stays shallow whatever order the unions come in
/// (a rail of abutting shapes found end to end would otherwise chain).
/// `find` is iterative.
#[derive(Debug, Clone)]
pub struct DisjointSets {
    parent: Vec<u32>,
    /// Per root, an upper bound on its tree's height.
    rank: Vec<u8>,
}

impl DisjointSets {
    /// `n` singleton sets.
    pub fn new(n: usize) -> DisjointSets {
        DisjointSets {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// The root of `i`'s set.
    #[inline]
    pub fn find(&mut self, mut i: u32) -> u32 {
        while self.parent[i as usize] != i {
            let grandparent = self.parent[self.parent[i as usize] as usize];
            self.parent[i as usize] = grandparent;
            i = grandparent;
        }
        i
    }

    /// Joins the sets of `a` and `b`.
    #[inline]
    pub fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a) as usize, self.find(b) as usize);
        if ra == rb {
            return;
        }
        let (low, high) = if self.rank[ra] < self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[low] = high as u32;
        if self.rank[low] == self.rank[high] {
            self.rank[high] += 1;
        }
    }
}

/// The connected components of an object's shapes, canonical: each
/// component's members ascending, components ordered by their member
/// lists, and each shape's component ids ascending. A shape that belongs
/// to no component (a well, an implant, a diffusion that poly covers
/// completely) lists none; a gate-split diffusion shape lists one per
/// component its pieces joined.
///
/// Built by [`from_sets`](Components::from_sets); memoised per rule deck
/// by [`SpatialIndex::components`](crate::SpatialIndex::components).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Component `c`'s members are `members[first[c]..first[c + 1]]`.
    first: Vec<u32>,
    members: Vec<u32>,
    /// Shape `i`'s component ids are `ids[shape_first[i]..shape_first[i + 1]]`.
    shape_first: Vec<u32>,
    ids: Vec<u32>,
}

/// The empty table: no component, and every shape in none.
impl Default for Components {
    fn default() -> Components {
        Components {
            first: vec![0],
            members: Vec::new(),
            shape_first: vec![0],
            ids: Vec::new(),
        }
    }
}

impl Components {
    /// The table of `sets`' components. `nodes` yields, for each shape in
    /// order, the nodes that stand for it: its own index, the nodes of
    /// its pieces, or none. A component is the set of shapes with a node
    /// in one set; a set that holds no yielded node is no component.
    ///
    /// One pass numbers the components in order of their smallest member
    /// and lists each shape's ids; a second fills the member runs from
    /// those lists, so each run comes out ascending. Two components can
    /// share their smallest member only through a shape with several
    /// nodes, and a stable sort of the runs orders such ties by the
    /// members that follow.
    pub fn from_sets<I>(sets: &mut DisjointSets, nodes: I) -> Components
    where
        I: IntoIterator<Item = Range<u32>>,
    {
        const NONE: u32 = u32::MAX;
        // Per root, its component; per component, the last shape listed.
        let mut slot = vec![NONE; sets.parent.len()];
        let mut last: Vec<u32> = Vec::new();
        let mut shape_first = vec![0u32];
        let mut ids: Vec<u32> = Vec::new();
        for (shape, range) in nodes.into_iter().enumerate() {
            let shape = shape as u32;
            for node in range {
                let root = sets.find(node) as usize;
                if slot[root] == NONE {
                    slot[root] = last.len() as u32;
                    last.push(NONE);
                }
                let c = slot[root];
                if last[c as usize] != shape {
                    last[c as usize] = shape;
                    ids.push(c);
                }
            }
            shape_first.push(ids.len() as u32);
        }
        // Count each component's members into `first[c + 1]`, prefix-sum,
        // then fill with `first[c]` as the write cursor, which leaves it
        // at the next component's start: one shift restores the offsets.
        let mut first = vec![0u32; last.len() + 1];
        for &c in &ids {
            first[c as usize + 1] += 1;
        }
        for c in 0..last.len() {
            first[c + 1] += first[c];
        }
        let mut members = vec![0u32; ids.len()];
        for (shape, run) in shape_first.windows(2).enumerate() {
            for &c in &ids[run[0] as usize..run[1] as usize] {
                members[first[c as usize] as usize] = shape as u32;
                first[c as usize] += 1;
            }
        }
        first.rotate_right(1);
        first[0] = 0;
        let mut table = Components {
            first,
            members,
            shape_first,
            ids,
        };
        let mut order: Vec<u32> = (0..table.len() as u32).collect();
        order.sort_by(|&a, &b| table.members(a as usize).cmp(table.members(b as usize)));
        if order.iter().enumerate().any(|(k, &c)| k as u32 != c) {
            table.reorder(&order);
        }
        table
    }

    /// Renumbers the components so that old component `order[k]` becomes
    /// component `k`, keeping each shape's ids ascending.
    fn reorder(&mut self, order: &[u32]) {
        let mut new_id = vec![0u32; order.len()];
        let mut first = Vec::with_capacity(self.first.len());
        let mut members = Vec::with_capacity(self.members.len());
        first.push(0);
        for (k, &c) in order.iter().enumerate() {
            new_id[c as usize] = k as u32;
            members.extend_from_slice(self.members(c as usize));
            first.push(members.len() as u32);
        }
        for id in &mut self.ids {
            *id = new_id[*id as usize];
        }
        for run in self.shape_first.windows(2) {
            let ids = &mut self.ids[run[0] as usize..run[1] as usize];
            if ids.len() > 1 {
                ids.sort_unstable();
            }
        }
        self.first = first;
        self.members = members;
    }

    /// The number of components.
    pub fn len(&self) -> usize {
        self.first.len() - 1
    }

    /// True if no shape belongs to a component.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Component `c`'s member shape indices, ascending.
    pub fn members(&self, c: usize) -> &[u32] {
        &self.members[self.first[c] as usize..self.first[c + 1] as usize]
    }

    /// Every component's members, in component order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(|c| self.members(c))
    }

    /// The ids of the components shape `i` belongs to, ascending; empty
    /// for a shape in none, or past the shapes the table was built on.
    pub fn of(&self, i: usize) -> &[u32] {
        match self.shape_first.get(i..i + 2) {
            Some(run) => &self.ids[run[0] as usize..run[1] as usize],
            None => &[],
        }
    }

    /// True if shapes `i` and `j` belong to one component.
    pub fn share(&self, i: usize, j: usize) -> bool {
        let b = self.of(j);
        self.of(i).iter().any(|c| b.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each shape stands for its own node.
    fn plain(sets: &mut DisjointSets, shapes: u32) -> Components {
        Components::from_sets(sets, (0..shapes).map(|i| i..i + 1))
    }

    #[test]
    fn a_long_chain_finds_one_root() {
        let mut sets = DisjointSets::new(100_000);
        for i in 1..100_000 {
            sets.union(i - 1, i);
        }
        let root = sets.find(0);
        assert!((0..100_000).all(|i| sets.find(i) == root));
    }

    #[test]
    fn members_ascend_and_components_order_by_smallest_member() {
        let mut sets = DisjointSets::new(6);
        sets.union(4, 1);
        sets.union(5, 0);
        sets.union(3, 5);
        let table = plain(&mut sets, 6);
        let lists: Vec<&[u32]> = table.iter().collect();
        assert_eq!(lists, [&[0, 3, 5][..], &[1, 4], &[2]]);
        assert_eq!(table.of(3), [0]);
        assert_eq!(table.of(4), [1]);
        assert!(table.share(0, 5) && !table.share(0, 4));
        assert!(table.of(6).is_empty(), "past the table");
    }

    /// Shape 0 has two nodes (5 and 6) in two sets, each joined with
    /// later shapes; both components start with it, and the next member
    /// orders them: the set found first, {0, 3}, goes second.
    #[test]
    fn ties_on_a_shared_first_member_order_by_the_next() {
        let mut sets = DisjointSets::new(7);
        sets.union(5, 3);
        sets.union(6, 1);
        sets.union(2, 4);
        let nodes = [5..7, 1..2, 2..3, 3..4, 4..5];
        let table = Components::from_sets(&mut sets, nodes);
        let lists: Vec<&[u32]> = table.iter().collect();
        assert_eq!(lists, [&[0, 1][..], &[0, 3], &[2, 4]]);
        assert_eq!(table.of(0), [0, 1]);
        assert_eq!(table.of(1), [0]);
        assert_eq!(table.of(3), [1]);
        assert!(table.share(1, 0) && table.share(3, 0) && !table.share(1, 3));
    }

    /// A shape without nodes is in no component, and a set holding none
    /// of the yielded nodes is none.
    #[test]
    fn shapes_without_nodes_join_nothing() {
        let mut sets = DisjointSets::new(4);
        sets.union(0, 1);
        sets.union(1, 3);
        let table = Components::from_sets(&mut sets, [0..1, 1..1, 2..3]);
        let lists: Vec<&[u32]> = table.iter().collect();
        assert_eq!(lists, [&[0][..], &[2]]);
        assert!(table.of(1).is_empty());
        assert!(!table.share(0, 1));
        assert_eq!(Components::default().len(), 0);
        assert!(Components::default().of(0).is_empty());
    }
}
