//! Layout objects: the unit the successive compactor abuts.

use amgen_geom::{Rect, Vector};
use amgen_tech::Layer;

use crate::shape::{NetId, Shape};
use crate::spatial::SpatialIndex;

/// A named connection point used by the routing routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name (e.g. `"g1"`, `"out"`).
    pub name: String,
    /// Layer the port geometry lives on.
    pub layer: Layer,
    /// Port geometry.
    pub rect: Rect,
    /// Potential, if assigned.
    pub net: Option<NetId>,
}

/// Identifies a [`Group`] within its object.
///
/// Groups are positional and never removed, so ids are stable indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(pub(crate) u32);

impl GroupId {
    /// The group's position in [`LayoutObject::groups`].
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a position in [`LayoutObject::groups`].
    pub fn from_index(i: usize) -> GroupId {
        GroupId(i as u32)
    }
}

/// How a group's generated geometry is re-derived after the compactor has
/// moved one of its variable edges (the paper's Fig. 5b: *"the contact row
/// was rebuilt and the array of contact-rectangles was recalculated"*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildKind {
    /// The group's shapes on the given cut layer are a generated array:
    /// delete them and re-place the maximal equidistant array inside the
    /// remaining (conductor) shapes of the group.
    ContactArray {
        /// The cut layer whose array is regenerated.
        cut: Layer,
    },
}

/// A named set of shapes that the compactor rebuilds as a unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Group name (diagnostic).
    pub name: String,
    /// Indices into the owning object's shape list.
    pub shapes: Vec<usize>,
    /// Rebuild rule, if the group is regenerated geometry.
    pub rebuild: Option<RebuildKind>,
}

/// A named, flat collection of shapes with ports, groups and a local net
/// table.
///
/// Hierarchy in the paper is *constructive*: `trans2 = trans1` copies a
/// data structure, and `compact(...)` folds an object's shapes into the
/// growing main object. Accordingly [`LayoutObject`] supports cloning,
/// transformation and [`absorb`](LayoutObject::absorb); it does not keep
/// references to children.
#[derive(Debug, Clone, Default)]
pub struct LayoutObject {
    name: String,
    shapes: Vec<Shape>,
    nets: Vec<String>,
    ports: Vec<Port>,
    groups: Vec<Group>,
    /// Lazily computed bounding box. Invalidated by every geometry
    /// mutation; [`absorb`](LayoutObject::absorb) updates it in place so
    /// the successive compactor never rescans the whole grown structure.
    bbox: std::sync::OnceLock<Rect>,
    /// Lazily built spatial index (see [`SpatialIndex`]), with the
    /// connected-component memo inside it. Derived state like `bbox`:
    /// dropped by every geometry mutation, rebuilt on the next
    /// [`spatial_index`](LayoutObject::spatial_index) call, and
    /// invisible to equality. Boxed so an unbuilt index costs one
    /// pointer — `LayoutObject` moves by value through the DSL
    /// interpreter's `Value` enum.
    index: std::sync::OnceLock<Box<SpatialIndex>>,
}

/// Equality is over the logical content; whether the bounding box
/// happens to be cached is not observable.
impl PartialEq for LayoutObject {
    fn eq(&self, other: &LayoutObject) -> bool {
        self.name == other.name
            && self.shapes == other.shapes
            && self.nets == other.nets
            && self.ports == other.ports
            && self.groups == other.groups
    }
}

impl LayoutObject {
    /// Creates an empty object.
    pub fn new(name: impl Into<String>) -> LayoutObject {
        LayoutObject {
            name: name.into(),
            ..LayoutObject::default()
        }
    }

    /// Creates an empty object with room for `shapes` shapes — the
    /// arena-style constructor for replicated assembly (a chip-scale
    /// build that [`absorb`](LayoutObject::absorb)s hundreds of blocks
    /// should not regrow its shape vector a dozen times).
    pub fn with_capacity(name: impl Into<String>, shapes: usize) -> LayoutObject {
        let mut obj = LayoutObject::new(name);
        obj.shapes.reserve(shapes);
        obj
    }

    /// Reserves room for at least `additional` more shapes.
    pub fn reserve(&mut self, additional: usize) {
        self.shapes.reserve(additional);
    }

    /// Spare shape capacity already allocated (diagnostic; lets bench
    /// code verify that reservation avoided reallocation churn).
    pub fn shape_capacity(&self) -> usize {
        self.shapes.capacity()
    }

    /// The spatial index over the current shapes, built on first use.
    ///
    /// Derived state: any geometry mutation drops it, together with its
    /// memoised connected components, and the next call rebuilds it from
    /// scratch. Queries return shape indices in linear-scan (ascending)
    /// order — see [`SpatialIndex`] for the determinism and
    /// candidate-semantics contracts.
    pub fn spatial_index(&self) -> &SpatialIndex {
        self.index
            .get_or_init(|| Box::new(SpatialIndex::build(&self.shapes)))
    }

    /// The object's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the object.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Returns the id of the named net, creating it if needed.
    pub fn net(&mut self, name: &str) -> NetId {
        if let Some(i) = self.nets.iter().position(|n| n == name) {
            NetId(i as u32)
        } else {
            self.nets.push(name.to_string());
            NetId((self.nets.len() - 1) as u32)
        }
    }

    /// Looks up a net by name without creating it.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n == name)
            .map(|i| NetId(i as u32))
    }

    /// The name of a net.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.nets[id.index()]
    }

    /// All net names.
    pub fn net_names(&self) -> &[String] {
        &self.nets
    }

    /// Adds a shape, returning its index.
    pub fn push(&mut self, s: Shape) -> usize {
        if let Some(bb) = self.bbox.get() {
            let bb = bb.union_bbox(&s.rect);
            self.bbox = bb.into();
        }
        self.index.take();
        self.shapes.push(s);
        self.shapes.len() - 1
    }

    /// All shapes.
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// Mutable access to all shapes. Drops the cached bounding box and
    /// the spatial index — the caller may move any edge.
    pub fn shapes_mut(&mut self) -> &mut [Shape] {
        self.bbox.take();
        self.index.take();
        &mut self.shapes
    }

    /// Shapes on one layer.
    pub fn shapes_on(&self, layer: Layer) -> impl Iterator<Item = &Shape> + '_ {
        self.shapes.iter().filter(move |s| s.layer == layer)
    }

    /// True if the object has no shapes.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Number of shapes.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Bounding box over all shapes. Cached: the first call scans (or
    /// reads the spatial index's cached bound when one is built), later
    /// calls are a load until the geometry is next mutated.
    pub fn bbox(&self) -> Rect {
        *self.bbox.get_or_init(|| match self.index.get() {
            Some(ix) => ix.bbox(),
            None => self
                .shapes
                .iter()
                .fold(Rect::EMPTY, |acc, s| acc.union_bbox(&s.rect)),
        })
    }

    /// Bounding box over one layer. Served from the spatial index's
    /// cached per-layer bounds when the index is built; a linear scan
    /// otherwise.
    pub fn bbox_on(&self, layer: Layer) -> Rect {
        match self.index.get() {
            Some(ix) => ix.bounds_on(layer),
            None => self
                .shapes_on(layer)
                .fold(Rect::EMPTY, |acc, s| acc.union_bbox(&s.rect)),
        }
    }

    /// Adds a port.
    pub fn push_port(&mut self, port: Port) {
        self.ports.push(port);
    }

    /// The first port with the given name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// The most recently added port with the given name — module
    /// generators push their top-level bus ports last, so this resolves a
    /// name to the module-level terminal even when absorbed sub-objects
    /// carried ports of the same name.
    pub fn last_port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().rev().find(|p| p.name == name)
    }

    /// All ports.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Adds a group over existing shape indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn add_group(
        &mut self,
        name: impl Into<String>,
        shapes: Vec<usize>,
        rebuild: Option<RebuildKind>,
    ) -> GroupId {
        for &i in &shapes {
            assert!(i < self.shapes.len(), "group index {i} out of range");
        }
        self.groups.push(Group {
            name: name.into(),
            shapes,
            rebuild,
        });
        GroupId((self.groups.len() - 1) as u32)
    }

    /// All groups.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// One group.
    pub fn group(&self, id: GroupId) -> &Group {
        &self.groups[id.0 as usize]
    }

    /// Removes the shapes at the given indices, remapping group indices.
    ///
    /// Groups that referenced a removed shape simply lose that member.
    pub fn remove_shapes(&mut self, indices: &[usize]) {
        if indices.is_empty() {
            return;
        }
        let mut removed = vec![false; self.shapes.len()];
        for &i in indices {
            removed[i] = true;
        }
        // Build old-index → new-index map.
        let mut remap = vec![usize::MAX; self.shapes.len()];
        let mut next = 0usize;
        for (i, &r) in removed.iter().enumerate() {
            if !r {
                remap[i] = next;
                next += 1;
            }
        }
        self.bbox.take();
        self.index.take();
        let mut keep = Vec::with_capacity(next);
        for (i, s) in self.shapes.drain(..).enumerate() {
            if !removed[i] {
                keep.push(s);
            }
        }
        self.shapes = keep;
        for g in &mut self.groups {
            g.shapes.retain(|&i| !removed[i]);
            for i in &mut g.shapes {
                *i = remap[*i];
            }
        }
    }

    /// Appends new shapes to a group.
    pub fn extend_group(&mut self, id: GroupId, new_shapes: Vec<usize>) {
        for &i in &new_shapes {
            assert!(i < self.shapes.len(), "group index {i} out of range");
        }
        self.groups[id.0 as usize].shapes.extend(new_shapes);
    }

    /// Translates all geometry (shapes and ports).
    pub fn translate(&mut self, v: Vector) {
        self.bbox.take();
        self.index.take();
        for s in &mut self.shapes {
            *s = s.translated(v);
        }
        for p in &mut self.ports {
            p.rect = p.rect.translated(v);
        }
    }

    /// Returns a mirrored copy about the vertical line `x = axis_x`.
    ///
    /// Edge mobility flags follow the mirror (an East-variable edge
    /// becomes West-variable), as do port rectangles.
    #[must_use]
    pub fn mirrored_x(&self, axis_x: i64) -> LayoutObject {
        let mut out = self.clone();
        out.bbox.take();
        out.index.take();
        for s in &mut out.shapes {
            *s = s.mirrored_x(axis_x);
        }
        for p in &mut out.ports {
            p.rect = Rect::new(
                2 * axis_x - p.rect.x1,
                p.rect.y0,
                2 * axis_x - p.rect.x0,
                p.rect.y1,
            );
        }
        out
    }

    /// Returns a mirrored copy about the horizontal line `y = axis_y`.
    #[must_use]
    pub fn mirrored_y(&self, axis_y: i64) -> LayoutObject {
        let mut out = self.clone();
        out.bbox.take();
        out.index.take();
        for s in &mut out.shapes {
            *s = s.mirrored_y(axis_y);
        }
        for p in &mut out.ports {
            p.rect = Rect::new(
                p.rect.x0,
                2 * axis_y - p.rect.y1,
                p.rect.x1,
                2 * axis_y - p.rect.y0,
            );
        }
        out
    }

    /// Returns a copy with every net (and port) name prefixed —
    /// used when assembling blocks so internal nets of different modules
    /// cannot collide by name.
    #[must_use]
    pub fn prefixed(&self, prefix: &str) -> LayoutObject {
        let mut out = self.clone();
        for n in &mut out.nets {
            *n = format!("{prefix}{n}");
        }
        for p in &mut out.ports {
            p.name = format!("{prefix}{}", p.name);
        }
        out
    }

    /// Renames a net. If the new name already exists, the two nets are
    /// merged (all shapes and ports move to the existing id). Port
    /// *names* are left untouched — they are addresses, not potentials.
    pub fn rename_net(&mut self, old: &str, new: &str) {
        let Some(old_id) = self.find_net(old) else {
            return;
        };
        if let Some(new_id) = self.find_net(new) {
            if new_id == old_id {
                return;
            }
            for s in &mut self.shapes {
                if s.net == Some(old_id) {
                    s.net = Some(new_id);
                }
            }
            for p in &mut self.ports {
                if p.net == Some(old_id) {
                    p.net = Some(new_id);
                }
            }
            // The old slot keeps its (now unused) name; blank it so the
            // name cannot be found again.
            self.nets[old_id.index()] = format!("<renamed:{old}>");
        } else {
            self.nets[old_id.index()] = new.to_string();
        }
    }

    /// Renames a net *and* any port named `old` — the serve path of
    /// cache α-renaming, where a canonical placeholder label stands for
    /// both the potential and the port address. Net merging semantics
    /// are those of [`rename_net`](LayoutObject::rename_net).
    pub fn rename_label(&mut self, old: &str, new: &str) {
        self.rename_net(old, new);
        for p in &mut self.ports {
            if p.name == old {
                p.name = new.to_string();
            }
        }
    }

    /// Folds `other` (translated by `v`) into this object.
    ///
    /// Nets are re-mapped **by name**: a net called `"g"` in both objects
    /// becomes one potential. Ports and groups are carried over (group
    /// indices shifted). Returns the index offset at which `other`'s
    /// shapes were appended.
    pub fn absorb(&mut self, other: &LayoutObject, v: Vector) -> usize {
        // Incremental cache update: the union's bounding box is the
        // union of the two bounding boxes, no rescan needed.
        if let Some(bb) = self.bbox.take() {
            if other.shapes.is_empty() {
                self.bbox = bb.into();
            } else {
                self.bbox = bb.union_bbox(&other.bbox().translated(v)).into();
            }
        }
        self.index.take();
        let offset = self.shapes.len();
        self.shapes.reserve(other.shapes.len());
        self.ports.reserve(other.ports.len());
        self.groups.reserve(other.groups.len());
        // Net remap by name.
        let remap: Vec<NetId> = other.nets.iter().map(|n| self.net(n)).collect();
        for s in &other.shapes {
            let mut s = s.translated(v);
            s.net = s.net.map(|old| remap[old.index()]);
            self.shapes.push(s);
        }
        for p in &other.ports {
            self.ports.push(Port {
                name: p.name.clone(),
                layer: p.layer,
                rect: p.rect.translated(v),
                net: p.net.map(|old| remap[old.index()]),
            });
        }
        for g in &other.groups {
            self.groups.push(Group {
                name: g.name.clone(),
                shapes: g.shapes.iter().map(|&i| i + offset).collect(),
                rebuild: g.rebuild,
            });
        }
        offset
    }
}

impl std::fmt::Display for LayoutObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} shapes, bbox {})",
            self.name,
            self.shapes.len(),
            self.bbox()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::EdgeFlags;
    use amgen_geom::Dir;
    use amgen_tech::Tech;

    fn tech() -> Tech {
        Tech::bicmos_1u()
    }

    #[test]
    fn nets_are_deduplicated_by_name() {
        let mut obj = LayoutObject::new("x");
        let a = obj.net("g");
        let b = obj.net("d");
        let a2 = obj.net("g");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(obj.net_name(a), "g");
        assert_eq!(obj.find_net("d"), Some(b));
        assert_eq!(obj.find_net("nope"), None);
    }

    #[test]
    fn rename_label_covers_net_and_port() {
        let t = tech();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        let id = obj.net("\u{1}a");
        let mut s = Shape::new(m1, Rect::new(0, 0, 10, 10));
        s.net = Some(id);
        obj.push(s);
        obj.push_port(Port {
            name: "\u{1}a".into(),
            layer: m1,
            rect: Rect::new(0, 0, 10, 10),
            net: Some(id),
        });
        obj.rename_label("\u{1}a", "d1");
        assert_eq!(obj.net_name(id), "d1");
        assert!(obj.port("d1").is_some());
        assert!(obj.port("\u{1}a").is_none());
    }

    #[test]
    fn bbox_over_layers() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, 10, 10)));
        obj.push(Shape::new(m1, Rect::new(20, 0, 40, 5)));
        assert_eq!(obj.bbox(), Rect::new(0, 0, 40, 10));
        assert_eq!(obj.bbox_on(poly), Rect::new(0, 0, 10, 10));
        assert_eq!(obj.bbox_on(m1), Rect::new(20, 0, 40, 5));
        assert!(obj.bbox_on(t.layer("metal2").unwrap()).is_empty());
    }

    #[test]
    fn bbox_cache_tracks_every_mutation() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let scan = |o: &LayoutObject| {
            o.shapes()
                .iter()
                .fold(Rect::EMPTY, |acc, s| acc.union_bbox(&s.rect))
        };
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, 10, 10)));
        assert_eq!(obj.bbox(), scan(&obj));
        // push after a cached read extends the cache.
        obj.push(Shape::new(poly, Rect::new(20, -5, 30, 5)));
        assert_eq!(obj.bbox(), scan(&obj));
        // Mutating an edge through shapes_mut invalidates.
        obj.shapes_mut()[1].rect = Rect::new(20, -5, 50, 5);
        assert_eq!(obj.bbox(), scan(&obj));
        // translate invalidates.
        obj.translate(Vector::new(7, 3));
        assert_eq!(obj.bbox(), scan(&obj));
        // absorb updates incrementally (cache was warm).
        let mut other = LayoutObject::new("y");
        other.push(Shape::new(poly, Rect::new(0, 0, 100, 2)));
        obj.absorb(&other, Vector::new(-200, 0));
        assert_eq!(obj.bbox(), scan(&obj));
        // remove_shapes invalidates.
        obj.remove_shapes(&[2]);
        assert_eq!(obj.bbox(), scan(&obj));
        // Mirrors recompute on the copy.
        assert_eq!(obj.mirrored_x(3).bbox(), scan(&obj.mirrored_x(3)));
        assert_eq!(obj.mirrored_y(-1).bbox(), scan(&obj.mirrored_y(-1)));
        // Cache state is invisible to equality.
        let warm = obj.clone();
        warm.bbox();
        let mut cold = obj.clone();
        cold.shapes_mut();
        assert_eq!(warm, cold);
    }

    /// Mutate-after-query must never serve stale index results: every
    /// geometry mutation drops the lazily built spatial index, and the
    /// component memo inside it, exactly like the bbox cache. Guards the
    /// invalidation list against new mutators forgetting the index.
    #[test]
    fn spatial_index_tracks_every_mutation() {
        const DECK: u32 = 7;
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let everywhere = Rect::new(-1_000_000, -1_000_000, 1_000_000, 1_000_000);
        let stamp = std::cell::Cell::new(0usize);
        let check = |o: &LayoutObject| {
            let got = o.spatial_index().query_overlapping(poly, &everywhere);
            let scan: Vec<usize> = o
                .shapes()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.layer == poly)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, scan, "index out of sync with shape vector");
            assert_eq!(
                o.bbox_on(poly),
                o.shapes_on(poly)
                    .fold(Rect::EMPTY, |acc, s| acc.union_bbox(&s.rect)),
                "bbox_on fast path out of sync"
            );
            // The memo is cold: this extraction runs, and its result is
            // what the next lookup returns.
            stamp.set(stamp.get() + 1);
            let fresh = vec![vec![stamp.get()]];
            let got = o.spatial_index().components(DECK, || fresh.clone());
            assert_eq!(*got, fresh[..], "component memo survived a mutation");
            let got = o.spatial_index().components(DECK, || unreachable!());
            assert_eq!(*got, fresh[..], "component memo not kept");
        };
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(poly, Rect::new(0, 0, 10, 10)));
        check(&obj);
        // push after a query invalidates.
        obj.push(Shape::new(poly, Rect::new(20, -5, 30, 5)));
        check(&obj);
        // Moving an edge through shapes_mut invalidates.
        obj.shapes_mut()[1].rect = Rect::new(20, -5, 50, 5);
        check(&obj);
        // translate invalidates.
        obj.translate(Vector::new(7, 3));
        check(&obj);
        // absorb invalidates.
        let mut other = LayoutObject::new("y");
        other.push(Shape::new(poly, Rect::new(0, 0, 100, 2)));
        obj.absorb(&other, Vector::new(-200, 0));
        check(&obj);
        // remove_shapes invalidates.
        obj.remove_shapes(&[0]);
        check(&obj);
        // Mirror copies rebuild on the copy.
        check(&obj.mirrored_x(3));
        check(&obj.mirrored_y(-1));
        // Net renames keep the memo: it holds geometry, not names.
        let kept = obj
            .spatial_index()
            .components(DECK, || unreachable!())
            .into_owned();
        obj.net("a");
        obj.rename_net("a", "b");
        obj.rename_label("b", "c");
        let p = obj.prefixed("b:");
        for o in [&obj, &p] {
            assert_eq!(
                *o.spatial_index().components(DECK, || unreachable!()),
                kept[..]
            );
        }
        // Index state is invisible to equality.
        let warm = obj.clone();
        warm.spatial_index();
        let mut cold = obj.clone();
        cold.shapes_mut();
        assert_eq!(warm, cold);
    }

    #[test]
    fn with_capacity_reserves_and_absorb_extends() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let mut obj = LayoutObject::with_capacity("chip", 64);
        assert!(obj.shape_capacity() >= 64);
        let base = obj.shape_capacity();
        let mut blk = LayoutObject::new("b");
        for i in 0..8 {
            blk.push(Shape::new(poly, Rect::new(i * 4, 0, i * 4 + 2, 2)));
        }
        for r in 0..8 {
            obj.absorb(&blk, Vector::new(0, r * 10));
        }
        assert_eq!(obj.len(), 64);
        assert_eq!(
            obj.shape_capacity(),
            base,
            "no reallocation within the reservation"
        );
        obj.reserve(100);
        assert!(obj.shape_capacity() >= 164);
    }

    #[test]
    fn absorb_remaps_nets_by_name() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let mut a = LayoutObject::new("a");
        let ga = a.net("g");
        a.push(Shape::new(poly, Rect::new(0, 0, 10, 10)).with_net(ga));

        let mut b = LayoutObject::new("b");
        let xb = b.net("x"); // different first net: ids diverge
        let gb = b.net("g");
        b.push(Shape::new(poly, Rect::new(0, 0, 5, 5)).with_net(gb));
        b.push(Shape::new(poly, Rect::new(7, 7, 9, 9)).with_net(xb));

        let off = a.absorb(&b, Vector::new(100, 0));
        assert_eq!(off, 1);
        // The absorbed "g" shape shares a's "g" potential.
        assert_eq!(a.shapes()[1].net, Some(ga));
        // "x" got a fresh id in a.
        let xa = a.find_net("x").unwrap();
        assert_eq!(a.shapes()[2].net, Some(xa));
        assert_ne!(xa, ga);
        // Geometry was translated.
        assert_eq!(a.shapes()[1].rect, Rect::new(100, 0, 105, 5));
    }

    #[test]
    fn absorb_shifts_group_indices() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let ct = t.layer("contact").unwrap();
        let mut a = LayoutObject::new("a");
        a.push(Shape::new(poly, Rect::new(0, 0, 10, 10)));

        let mut b = LayoutObject::new("b");
        let i0 = b.push(Shape::new(poly, Rect::new(0, 0, 4, 4)));
        let i1 = b.push(Shape::new(ct, Rect::new(1, 1, 2, 2)));
        b.add_group(
            "row",
            vec![i0, i1],
            Some(RebuildKind::ContactArray { cut: ct }),
        );

        a.absorb(&b, Vector::ZERO);
        assert_eq!(a.groups().len(), 1);
        assert_eq!(a.groups()[0].shapes, vec![1, 2]);
    }

    #[test]
    fn remove_shapes_remaps_groups() {
        let t = tech();
        let poly = t.layer("poly").unwrap();
        let mut obj = LayoutObject::new("x");
        let i0 = obj.push(Shape::new(poly, Rect::new(0, 0, 1, 1)));
        let i1 = obj.push(Shape::new(poly, Rect::new(2, 0, 3, 1)));
        let i2 = obj.push(Shape::new(poly, Rect::new(4, 0, 5, 1)));
        obj.add_group("g", vec![i0, i1, i2], None);
        obj.remove_shapes(&[i1]);
        assert_eq!(obj.len(), 2);
        assert_eq!(obj.groups()[0].shapes, vec![0, 1]);
        assert_eq!(obj.shapes()[1].rect, Rect::new(4, 0, 5, 1));
    }

    #[test]
    fn mirror_x_flips_ports_and_edge_flags() {
        let t = tech();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(
            Shape::new(m1, Rect::new(0, 0, 10, 4))
                .with_edges(EdgeFlags::FIXED.with_variable(Dir::East)),
        );
        obj.push_port(Port {
            name: "p".into(),
            layer: m1,
            rect: Rect::new(8, 0, 10, 4),
            net: None,
        });
        let m = obj.mirrored_x(0);
        assert_eq!(m.shapes()[0].rect, Rect::new(-10, 0, 0, 4));
        assert!(m.shapes()[0].edges.is_variable(Dir::West));
        assert_eq!(m.port("p").unwrap().rect, Rect::new(-10, 0, -8, 4));
        // Double mirror restores the original geometry.
        let mm = m.mirrored_x(0);
        assert_eq!(mm.shapes()[0].rect, obj.shapes()[0].rect);
    }

    #[test]
    fn translate_moves_everything() {
        let t = tech();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        obj.push(Shape::new(m1, Rect::new(0, 0, 10, 4)));
        obj.push_port(Port {
            name: "p".into(),
            layer: m1,
            rect: Rect::new(0, 0, 2, 2),
            net: None,
        });
        obj.translate(Vector::new(5, 7));
        assert_eq!(obj.bbox(), Rect::new(5, 7, 15, 11));
        assert_eq!(obj.port("p").unwrap().rect, Rect::new(5, 7, 7, 9));
    }

    #[test]
    fn prefixed_renames_nets_and_ports() {
        let t = tech();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("blk");
        let s = obj.net("s");
        obj.push(Shape::new(m1, Rect::new(0, 0, 10, 10)).with_net(s));
        obj.push_port(Port {
            name: "s".into(),
            layer: m1,
            rect: Rect::new(0, 0, 10, 10),
            net: Some(s),
        });
        let p = obj.prefixed("b:");
        assert!(p.find_net("b:s").is_some());
        assert!(p.find_net("s").is_none());
        assert!(p.port("b:s").is_some());
    }

    #[test]
    fn rename_net_simple() {
        let t = tech();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        let s = obj.net("s");
        obj.push(Shape::new(m1, Rect::new(0, 0, 10, 10)).with_net(s));
        obj.rename_net("s", "vdd");
        assert!(obj.find_net("vdd").is_some());
        assert!(obj.find_net("s").is_none());
        assert_eq!(obj.net_name(obj.shapes()[0].net.unwrap()), "vdd");
    }

    #[test]
    fn rename_net_merges_into_existing() {
        let t = tech();
        let m1 = t.layer("metal1").unwrap();
        let mut obj = LayoutObject::new("x");
        let a = obj.net("a");
        let b = obj.net("b");
        obj.push(Shape::new(m1, Rect::new(0, 0, 10, 10)).with_net(a));
        obj.push(Shape::new(m1, Rect::new(20, 0, 30, 10)).with_net(b));
        obj.rename_net("a", "b");
        assert_eq!(obj.shapes()[0].net, obj.shapes()[1].net);
        assert!(obj.find_net("a").is_none());
    }

    #[test]
    fn rename_missing_net_is_a_noop() {
        let mut obj = LayoutObject::new("x");
        obj.rename_net("ghost", "real");
        assert!(obj.find_net("real").is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn group_with_bad_index_panics() {
        let mut obj = LayoutObject::new("x");
        obj.add_group("bad", vec![0], None);
    }
}
