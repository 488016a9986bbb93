//! Group rebuild after variable-edge movement.
//!
//! Fig. 5b of the paper: after the compactor shrinks the metal of a
//! contact row, *"the contact row was rebuilt and the array of
//! contact-rectangles was recalculated"*.

use amgen_core::GenCtx;
use amgen_db::{LayoutObject, RebuildKind, Shape};
use amgen_prim::Primitives;

/// Rebuilds the group at `gid` if it carries a rebuild rule.
///
/// For [`RebuildKind::ContactArray`] the group's shapes on the cut layer
/// are deleted and the maximal equidistant array is re-placed inside the
/// frame spanned by the group's remaining shapes. Returns `true` when the
/// geometry changed.
///
/// If the recomputed frame cannot hold a single cut, the group is left
/// untouched (the shrink limits of the engine should prevent this).
pub fn rebuild_group(ctx: &GenCtx, obj: &mut LayoutObject, gid: usize) -> bool {
    let Some(group) = obj.groups().get(gid) else {
        return false;
    };
    let Some(RebuildKind::ContactArray { cut }) = group.rebuild else {
        return false;
    };
    let mut span = ctx.span_fine(amgen_core::Stage::Compact, || {
        format!("rebuild:{}", group.name)
    });
    let member_indices: Vec<usize> = group.shapes.clone();
    let cut_indices: Vec<usize> = member_indices
        .iter()
        .copied()
        .filter(|&i| obj.shapes()[i].layer == cut)
        .collect();
    let net = cut_indices.first().and_then(|&i| obj.shapes()[i].net);
    let prim = Primitives::new(ctx);
    let others: Vec<Shape> = member_indices
        .iter()
        .copied()
        .filter(|i| !cut_indices.contains(i))
        .map(|i| obj.shapes()[i])
        .collect();
    let Some(frame) = prim.frame_of_shapes(others.iter(), cut) else {
        return false;
    };
    let Ok(new_rects) = prim.array_in_frame(frame, cut) else {
        return false;
    };
    if new_rects.is_empty() {
        return false;
    }
    let old_rects: Vec<_> = cut_indices.iter().map(|&i| obj.shapes()[i].rect).collect();
    if old_rects == new_rects {
        return false;
    }
    // Replace the cuts. `remove_shapes` remaps the group indices; the
    // group id itself is stable.
    obj.remove_shapes(&cut_indices);
    let mut added = Vec::with_capacity(new_rects.len());
    for r in new_rects {
        let mut s = Shape::new(cut, r);
        if let Some(n) = net {
            s = s.with_net(n);
        }
        added.push(obj.push(s));
    }
    span.arg("cuts_before", old_rects.len());
    span.arg("cuts_after", added.len());
    obj.extend_group(amgen_db::GroupId::from_index(gid), added);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_db::RebuildKind;
    use amgen_geom::{um, Rect};
    use amgen_tech::Tech;

    /// Builds a horizontal contact row of the given metal width and
    /// returns (object, group id as usize).
    fn row(tech: &GenCtx, w: i64) -> (LayoutObject, usize) {
        let prim = Primitives::new(tech);
        let poly = tech.layer("poly").unwrap();
        let m1 = tech.layer("metal1").unwrap();
        let ct = tech.layer("contact").unwrap();
        let mut obj = LayoutObject::new("row");
        let a = prim.inbox(&mut obj, poly, Some(w), None).unwrap();
        let b = prim.inbox(&mut obj, m1, None, None).unwrap();
        let cuts = prim.array(&mut obj, ct).unwrap();
        let mut members = vec![a, b];
        members.extend(cuts);
        obj.add_group("row", members, Some(RebuildKind::ContactArray { cut: ct }));
        (obj, 0)
    }

    #[test]
    fn rebuild_without_change_is_a_noop() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let (mut obj, gid) = row(&t, um(10));
        let before = obj.shapes().to_vec();
        assert!(!rebuild_group(&t, &mut obj, gid));
        assert_eq!(obj.shapes(), &before[..]);
    }

    #[test]
    fn rebuild_after_shrink_recalculates_contacts() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let ct = t.layer("contact").unwrap();
        let (mut obj, gid) = row(&t, um(20));
        let n_before = obj.shapes_on(ct).count();
        assert!(n_before >= 5);
        // Shrink both conductor rects to half width (as the compactor
        // would after moving a variable edge).
        for s in obj.shapes_mut() {
            if t.kind(s.layer) != amgen_tech::LayerKind::Cut {
                s.rect = Rect::new(s.rect.x0, s.rect.y0, s.rect.x0 + um(10), s.rect.y1);
            }
        }
        assert!(rebuild_group(&t, &mut obj, gid));
        let n_after = obj.shapes_on(ct).count();
        assert!(n_after < n_before, "{n_after} < {n_before}");
        assert!(n_after >= 1);
        // All recalculated cuts are enclosed by the shrunk conductors.
        let poly = t.layer("poly").unwrap();
        let frame = Primitives::new(&t)
            .frame_of_shapes(obj.shapes_on(poly), ct)
            .unwrap();
        for s in obj.shapes_on(ct) {
            assert!(frame.contains_rect(&s.rect));
        }
        // The group's index list is consistent.
        for &i in &obj.groups()[gid].shapes {
            assert!(i < obj.len());
        }
    }

    #[test]
    fn rebuild_refuses_to_drop_all_contacts() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let (mut obj, gid) = row(&t, um(10));
        // Shrink conductors to something hopeless (narrower than a cut).
        for s in obj.shapes_mut() {
            if t.kind(s.layer) != amgen_tech::LayerKind::Cut {
                s.rect = Rect::new(s.rect.x0, s.rect.y0, s.rect.x0 + 500, s.rect.y1);
            }
        }
        let before: Vec<_> = obj.shapes().to_vec();
        assert!(!rebuild_group(&t, &mut obj, gid));
        assert_eq!(obj.shapes(), &before[..], "group left untouched");
    }

    #[test]
    fn rebuild_preserves_cut_net() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let ct = t.layer("contact").unwrap();
        let (mut obj, gid) = row(&t, um(12));
        let net = obj.net("sig");
        for s in obj.shapes_mut() {
            s.net = Some(net);
        }
        for s in obj.shapes_mut() {
            if t.kind(s.layer) != amgen_tech::LayerKind::Cut {
                s.rect = Rect::new(s.rect.x0, s.rect.y0, s.rect.x0 + um(6), s.rect.y1);
            }
        }
        assert!(rebuild_group(&t, &mut obj, gid));
        for s in obj.shapes_on(ct) {
            assert_eq!(s.net, Some(net));
        }
    }

    #[test]
    fn rebuild_on_group_without_rule_is_noop() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let poly = t.layer("poly").unwrap();
        let mut obj = LayoutObject::new("x");
        let i = obj.push(Shape::new(poly, Rect::new(0, 0, 10, 10)));
        obj.add_group("plain", vec![i], None);
        assert!(!rebuild_group(&t, &mut obj, 0));
        assert!(!rebuild_group(&t, &mut obj, 99), "out of range is a noop");
    }
}
