//! Order-insensitive layout signatures.
//!
//! The order optimizer's subset-dominance memoization needs to decide in
//! O(1) whether two partial layouts are geometrically identical: two
//! different compaction orders of the **same subset of objects** often
//! land every shape at the same coordinates, and the whole subtree under
//! the second arrival is redundant. [`LayoutSignature`] summarises a
//! layout as its bounding box, shape count and a **commutative** hash of
//! the shapes, so the summary is independent of the order in which the
//! shapes were inserted (and of net-id numbering, which also varies with
//! insertion order — nets are hashed by *name*).

use amgen_geom::Rect;

use crate::object::LayoutObject;
use crate::shape::{Shape, ShapeRole};

/// A cheap, order-insensitive geometric summary of a [`LayoutObject`].
///
/// Two objects with equal signatures have the same bounding box, the same
/// number of shapes and (up to the negligible collision probability of a
/// 64-bit multiset hash) the same multiset of shapes — layer, geometry,
/// net *name*, edge flags, role and keepout all included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayoutSignature {
    /// Bounding box over all shapes.
    pub bbox: Rect,
    /// Number of shapes.
    pub shapes: usize,
    /// Commutative multiset hash over the shapes.
    pub hash: u64,
}

/// SplitMix64 finalizer: mixes one word into an avalanche.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_str(s: &str) -> u64 {
    // FNV-1a; stable across runs (unlike `DefaultHasher` seeding).
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl LayoutObject {
    /// Each shape's hash, in shape order, stable across net-id numbering
    /// (a net is hashed by name, not id). Each net name is hashed once
    /// per call, not once per shape on the net.
    pub fn shape_hashes(&self) -> impl Iterator<Item = u64> + '_ {
        let nets: Vec<u64> = self.net_names().iter().map(|n| hash_str(n)).collect();
        self.shapes().iter().map(move |s| shape_hash(s, &nets))
    }

    /// Computes the object's [`LayoutSignature`] in one pass over the
    /// shapes; the bounding box is the cached [`bbox`](LayoutObject::bbox).
    ///
    /// The shape hashes are combined with wrapping addition, so the result
    /// does not depend on the order of the shape list — exactly what the
    /// optimizer's dominance table needs when different compaction orders
    /// produce the same geometry.
    ///
    /// Wrapping **addition** (never XOR) is load-bearing: under XOR two
    /// identical shapes would cancel to `0` and an object holding a
    /// duplicated shape would collide with the object missing both
    /// copies. Addition makes each extra copy shift the sum, and the
    /// `shapes` count field backstops the remaining `k·2⁶⁴` wraparound
    /// cases, so a duplicated shape always changes the signature. The
    /// generation cache keys on this hash — a silent collision here
    /// would become a wrong-layout cache hit there.
    pub fn signature(&self) -> LayoutSignature {
        LayoutSignature {
            bbox: self.bbox(),
            shapes: self.len(),
            hash: self.shape_hashes().fold(0u64, u64::wrapping_add),
        }
    }
}

/// Hashes one shape; `nets[i]` is the hash of net `i`'s name.
fn shape_hash(s: &Shape, nets: &[u64]) -> u64 {
    let mut h = mix(s.rect.x0 as u64 ^ mix(s.rect.y0 as u64));
    h = mix(h ^ s.rect.x1 as u64 ^ mix(s.rect.y1 as u64));
    h = mix(h ^ ((s.layer.index() as u64) << 8));
    if let Some(net) = s.net {
        h = mix(h ^ nets[net.index()]);
    }
    let role = match s.role {
        ShapeRole::Normal => 0u64,
        ShapeRole::DeviceActive => 1,
        ShapeRole::SubstrateContact => 2,
    };
    // EdgeFlags has no public accessor for the raw bits; fold the four
    // directions explicitly.
    let mut flag_bits = 0u64;
    for (i, d) in amgen_geom::Dir::ALL.iter().enumerate() {
        if s.edges.is_variable(*d) {
            flag_bits |= 1 << i;
        }
    }
    mix(h ^ (role << 5) ^ (flag_bits << 1) ^ (s.keepout as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;
    use amgen_geom::Rect;
    use amgen_tech::Tech;

    #[test]
    fn signature_is_order_insensitive() {
        let t = Tech::bicmos_1u();
        let poly = t.layer("poly").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let mut a = LayoutObject::new("a");
        a.push(Shape::new(poly, Rect::new(0, 0, 10, 10)));
        a.push(Shape::new(m1, Rect::new(20, 0, 30, 10)));
        let mut b = LayoutObject::new("b");
        b.push(Shape::new(m1, Rect::new(20, 0, 30, 10)));
        b.push(Shape::new(poly, Rect::new(0, 0, 10, 10)));
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn signature_is_net_numbering_insensitive() {
        let t = Tech::bicmos_1u();
        let m1 = t.layer("metal1").unwrap();
        let mut a = LayoutObject::new("a");
        let a_vdd = a.net("vdd");
        let _ = a.net("gnd");
        a.push(Shape::new(m1, Rect::new(0, 0, 10, 10)).with_net(a_vdd));
        let mut b = LayoutObject::new("b");
        let _ = b.net("gnd");
        let b_vdd = b.net("vdd");
        b.push(Shape::new(m1, Rect::new(0, 0, 10, 10)).with_net(b_vdd));
        assert_ne!(a_vdd, b_vdd);
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn signature_distinguishes_geometry_and_properties() {
        let t = Tech::bicmos_1u();
        let poly = t.layer("poly").unwrap();
        let m1 = t.layer("metal1").unwrap();
        let base = {
            let mut o = LayoutObject::new("o");
            o.push(Shape::new(poly, Rect::new(0, 0, 10, 10)));
            o.signature()
        };
        let moved = {
            let mut o = LayoutObject::new("o");
            o.push(Shape::new(poly, Rect::new(1, 0, 11, 10)));
            o.signature()
        };
        let other_layer = {
            let mut o = LayoutObject::new("o");
            o.push(Shape::new(m1, Rect::new(0, 0, 10, 10)));
            o.signature()
        };
        let keepout = {
            let mut o = LayoutObject::new("o");
            o.push(Shape::new(poly, Rect::new(0, 0, 10, 10)).with_keepout());
            o.signature()
        };
        assert_ne!(base, moved);
        assert_ne!(base.hash, other_layer.hash);
        assert_ne!(base.hash, keepout.hash);
    }

    /// Regression for the classic multiset-hash pitfall: combining by
    /// XOR lets two identical shapes cancel to 0, colliding with the
    /// empty object (and 1 copy collide with 3 copies). Additive
    /// combination must keep every multiplicity distinct — at the raw
    /// `hash` level, not just via the shape count.
    #[test]
    fn duplicated_shapes_change_the_signature() {
        let t = Tech::bicmos_1u();
        let poly = t.layer("poly").unwrap();
        let shape = Shape::new(poly, Rect::new(0, 0, 10, 10));
        let copies = |n: usize| {
            let mut o = LayoutObject::new("o");
            for _ in 0..n {
                o.push(shape);
            }
            o.signature()
        };
        let (zero, one, two, three) = (copies(0), copies(1), copies(2), copies(3));
        // XOR would have given two.hash == 0 == zero.hash and
        // three.hash == one.hash; addition keeps them all apart.
        assert_ne!(two.hash, zero.hash);
        assert_ne!(two.hash, 0);
        assert_ne!(three.hash, one.hash);
        assert_ne!(one.hash, two.hash);
        // And the count field guards even a hypothetical hash wrap.
        assert_ne!((two.shapes, two.hash), (zero.shapes, zero.hash));
    }

    #[test]
    fn empty_signature_is_stable() {
        let a = LayoutObject::new("a").signature();
        assert_eq!(a.shapes, 0);
        assert_eq!(a.hash, 0);
        assert!(a.bbox.is_empty());
    }
}
