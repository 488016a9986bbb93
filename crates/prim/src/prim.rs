//! The primitive shape functions.

use amgen_core::{FaultSite, GenCtx, Stage};
use amgen_db::{LayoutObject, NetId, Shape, ShapeRole};
use amgen_geom::{Coord, Rect};
use amgen_tech::{Layer, LayerKind, RuleSet};

use crate::error::PrimError;

/// Design-rule-driven geometry generators bound to one technology.
///
/// All functions take the object being built; sizes are **minimums** —
/// when a rectangle cannot be placed inside the existing geometry, the
/// outer rectangles are expanded automatically (paper §2.2).
#[derive(Debug, Clone)]
pub struct Primitives {
    ctx: GenCtx,
}

impl Primitives {
    /// Binds the primitives to a generation context.
    pub fn new(ctx: &GenCtx) -> Primitives {
        Primitives { ctx: ctx.clone() }
    }

    /// The shared generation context.
    pub fn ctx(&self) -> &GenCtx {
        &self.ctx
    }

    /// The compiled rule kernel.
    pub fn rules(&self) -> &RuleSet {
        &self.ctx
    }

    /// Robustness probe shared by the public primitives: cancellation /
    /// deadline checkpoint plus the two fault-injection sites (the call
    /// itself and the rule lookups it is about to perform on `layer`).
    fn probe(&self, primitive: &'static str, layer: Layer) -> Result<(), PrimError> {
        self.ctx.checkpoint(Stage::Prim)?;
        self.ctx.fault_check(FaultSite::PrimCall, primitive)?;
        self.ctx
            .fault_check(FaultSite::RuleLookup, self.ctx.layer_name(layer))?;
        Ok(())
    }

    /// The frame inside which a shape on `inner` may be placed: the
    /// intersection of every existing non-cut shape deflated by its
    /// required enclosure of `inner`. `None` when the object is empty or
    /// the intersection vanished.
    pub fn frame(&self, obj: &LayoutObject, inner: Layer) -> Option<Rect> {
        self.frame_of_shapes(obj.shapes().iter(), inner)
    }

    /// [`Primitives::frame`] over an explicit shape set (used by the
    /// compactor when rebuilding a single group).
    pub fn frame_of_shapes<'a, I>(&self, shapes: I, inner: Layer) -> Option<Rect>
    where
        I: Iterator<Item = &'a Shape>,
    {
        let mut frame: Option<Rect> = None;
        for s in shapes {
            if self.ctx.kind(s.layer) == LayerKind::Cut {
                continue;
            }
            let margin = self.ctx.enclosure(s.layer, inner);
            let avail = s.rect.inflated(-margin);
            frame = Some(match frame {
                None => avail,
                Some(f) => Rect::new(
                    f.x0.max(avail.x0),
                    f.y0.max(avail.y0),
                    f.x1.min(avail.x1),
                    f.y1.min(avail.y1),
                ),
            });
        }
        frame
    }

    /// Expands every non-cut shape of the object by `(ex, ey)` on each
    /// side — the paper's *"all outer rectangles are expanded"*.
    fn expand_all(&self, obj: &mut LayoutObject, ex: Coord, ey: Coord) {
        if ex == 0 && ey == 0 {
            return;
        }
        for s in obj.shapes_mut() {
            if self.ctx.kind(s.layer) != LayerKind::Cut {
                s.rect = s.rect.inflated_xy(ex, ey);
            }
        }
    }

    /// Ensures the frame for `inner` is at least `need_w × need_h`,
    /// expanding the outers symmetrically when necessary. Returns the
    /// final frame.
    fn ensure_frame(
        &self,
        obj: &mut LayoutObject,
        inner: Layer,
        need_w: Coord,
        need_h: Coord,
    ) -> Rect {
        let frame = self.frame(obj, inner).unwrap_or_else(|| {
            let c = obj.bbox().center();
            Rect::new(c.x, c.y, c.x, c.y)
        });
        let (fw, fh) = (frame.width().max(0), frame.height().max(0));
        let ex = if need_w > fw {
            self.ctx.snap_up((need_w - fw + 1) / 2)
        } else {
            0
        };
        let ey = if need_h > fh {
            self.ctx.snap_up((need_h - fh + 1) / 2)
        } else {
            0
        };
        if ex > 0 || ey > 0 {
            self.expand_all(obj, ex, ey);
        }
        self.frame(obj, inner).unwrap_or(frame)
    }

    /// `INBOX(layer, W, L)` — creates a rectangle on `layer`.
    ///
    /// * On an **empty** object it is the seed rectangle: `w × l` with
    ///   lower-left at the origin, each dimension defaulting to the
    ///   layer's minimum width.
    /// * On a non-empty object the rectangle is placed **inside** the
    ///   existing geometry (honouring every enclosure rule). Omitted
    ///   dimensions fill the available frame; requested dimensions are
    ///   minimums. If the rectangle cannot fit, the outers are expanded.
    ///
    /// Returns the new shape's index.
    pub fn inbox(
        &self,
        obj: &mut LayoutObject,
        layer: Layer,
        w: Option<Coord>,
        l: Option<Coord>,
    ) -> Result<usize, PrimError> {
        self.probe("inbox", layer)?;
        let _stage = self.ctx.stage_fine(Stage::Prim, || "inbox");
        let min_w = self.ctx.min_width(layer).max(self.ctx.grid());
        if obj.is_empty() {
            let w = self.ctx.snap_up(w.unwrap_or(min_w).max(min_w));
            let l = self.ctx.snap_up(l.unwrap_or(min_w).max(min_w));
            return Ok(obj.push(Shape::new(layer, Rect::new(0, 0, w, l))));
        }
        // Minimum acceptable size: explicit value or layer minimum.
        let need_w = self.ctx.snap_up(w.unwrap_or(min_w).max(min_w));
        let need_h = self.ctx.snap_up(l.unwrap_or(min_w).max(min_w));
        let frame = self.ensure_frame(obj, layer, need_w, need_h);
        // Omitted dimensions fill the frame; explicit ones are centred.
        let fw = if w.is_none() {
            frame.width().max(need_w)
        } else {
            need_w
        };
        let fh = if l.is_none() {
            frame.height().max(need_h)
        } else {
            need_h
        };
        let rect = Rect::centered_at(frame.center(), fw, fh);
        Ok(obj.push(Shape::new(layer, rect)))
    }

    /// Pure array computation: the maximal equidistant grid of `cut`
    /// squares inside `frame` (used by [`Primitives::array`] and by the
    /// compactor's contact-array rebuild).
    ///
    /// Returns an empty vector when not even one cut fits.
    pub fn array_in_frame(&self, frame: Rect, cut: Layer) -> Result<Vec<Rect>, PrimError> {
        if self.ctx.kind(cut) != LayerKind::Cut {
            return Err(PrimError::NotACut {
                layer: self.ctx.layer_name(cut).to_string(),
            });
        }
        let size = self.ctx.cut_size(cut)?;
        let space = self.ctx.min_spacing(cut, cut).ok_or_else(|| {
            PrimError::MissingRule(format!("space {0} {0}", self.ctx.layer_name(cut)))
        })?;
        let positions = |lo: Coord, hi: Coord| -> Vec<Coord> {
            let span = hi - lo;
            if span < size {
                return Vec::new();
            }
            // Maximum n with n*size + (n-1)*space <= span.
            let n = ((span + space) / (size + space)).max(1);
            if n == 1 {
                return vec![lo + (span - size) / 2];
            }
            // First flush at lo, last flush at hi - size, rest equidistant
            // ("the contacts are placed equidistantly to minimize the
            // contact resistance").
            let travel = span - size;
            (0..n).map(|i| lo + travel * i / (n - 1)).collect()
        };
        let xs = positions(frame.x0, frame.x1);
        let ys = positions(frame.y0, frame.y1);
        let mut out = Vec::with_capacity(xs.len() * ys.len());
        for &y in &ys {
            for &x in &xs {
                out.push(Rect::new(x, y, x + size, y + size));
            }
        }
        Ok(out)
    }

    /// `ARRAY(cut)` — fills the object's frame with the maximum number of
    /// equidistant cut squares; expands the outers so that at least one
    /// fits (paper §2.2). Returns the new shapes' indices.
    pub fn array(&self, obj: &mut LayoutObject, cut: Layer) -> Result<Vec<usize>, PrimError> {
        self.probe("array", cut)?;
        let _stage = self.ctx.stage_fine(Stage::Prim, || "array");
        if obj.is_empty() {
            return Err(PrimError::EmptyObject { primitive: "array" });
        }
        if self.ctx.kind(cut) != LayerKind::Cut {
            return Err(PrimError::NotACut {
                layer: self.ctx.layer_name(cut).to_string(),
            });
        }
        let size = self.ctx.cut_size(cut)?;
        let frame = self.ensure_frame(obj, cut, size, size);
        let rects = self.array_in_frame(frame, cut)?;
        debug_assert!(!rects.is_empty(), "frame was expanded to fit one cut");
        Ok(rects
            .into_iter()
            .map(|r| obj.push(Shape::new(cut, r)))
            .collect())
    }

    /// Places a rectangle on `layer` **around** the existing structure:
    /// the union bounding box of every shape inflated by the required
    /// enclosure of that shape's layer by `layer`, plus `extra`.
    ///
    /// Typical uses: the n-well around a PMOS device, implants around
    /// diffusions, the base region around an emitter.
    pub fn around(
        &self,
        obj: &mut LayoutObject,
        layer: Layer,
        extra: Coord,
    ) -> Result<usize, PrimError> {
        self.probe("around", layer)?;
        let _stage = self.ctx.stage_fine(Stage::Prim, || "around");
        if obj.is_empty() {
            return Err(PrimError::EmptyObject {
                primitive: "around",
            });
        }
        let mut r = Rect::EMPTY;
        for s in obj.shapes() {
            let margin = self.ctx.enclosure(layer, s.layer) + extra;
            r = r.union_bbox(&s.rect.inflated(margin));
        }
        // Honour the layer's own minimum width.
        let min_w = self.ctx.min_width(layer);
        if r.width() < min_w || r.height() < min_w {
            r = Rect::centered_at(r.center(), r.width().max(min_w), r.height().max(min_w));
        }
        Ok(obj.push(Shape::new(layer, r)))
    }

    /// Places a **ring** of four rectangles on `layer` around the current
    /// structure.
    ///
    /// `width` defaults to the layer's minimum width; `clearance` (gap
    /// between the structure's bounding box and the ring's inner edge)
    /// defaults to the largest spacing rule between `layer` and any layer
    /// present in the object. Returns the four shape indices in
    /// bottom/top/left/right order.
    pub fn ring(
        &self,
        obj: &mut LayoutObject,
        layer: Layer,
        width: Option<Coord>,
        clearance: Option<Coord>,
    ) -> Result<[usize; 4], PrimError> {
        self.probe("ring", layer)?;
        let _stage = self.ctx.stage_fine(Stage::Prim, || "ring");
        if obj.is_empty() {
            return Err(PrimError::EmptyObject { primitive: "ring" });
        }
        let w = self.ctx.snap_up(
            width
                .unwrap_or_else(|| self.ctx.min_width(layer))
                .max(self.ctx.grid()),
        );
        let cl = clearance.unwrap_or_else(|| {
            obj.shapes()
                .iter()
                .map(|s| self.ctx.clearance(layer, s.layer))
                .max()
                .unwrap_or(0)
        });
        let inner = obj.bbox().inflated(cl);
        let outer = inner.inflated(w);
        let bottom = Rect::new(outer.x0, outer.y0, outer.x1, inner.y0);
        let top = Rect::new(outer.x0, inner.y1, outer.x1, outer.y1);
        let left = Rect::new(outer.x0, inner.y0, inner.x0, inner.y1);
        let right = Rect::new(inner.x1, inner.y0, outer.x1, inner.y1);
        Ok([
            obj.push(Shape::new(layer, bottom)),
            obj.push(Shape::new(layer, top)),
            obj.push(Shape::new(layer, left)),
            obj.push(Shape::new(layer, right)),
        ])
    }

    /// `TWORECTS(gate, diff, W, L)` — the MOS transistor core: two
    /// overlapping rectangles forming a gate crossing.
    ///
    /// The channel is `L` wide (x) and `W` tall (y) with its lower-left at
    /// the origin. The gate stripe extends beyond the diffusion by the
    /// `extend gate diff` rule; the diffusion extends beyond the gate by
    /// the `extend diff gate` rule (source/drain landing). Defaults:
    /// `W` = diffusion minimum width, `L` = gate minimum width.
    ///
    /// The diffusion shape is tagged [`ShapeRole::DeviceActive`] so the
    /// latch-up check (Fig. 1) knows it must be covered.
    ///
    /// Returns `(gate_index, diff_index)`.
    pub fn two_rects(
        &self,
        obj: &mut LayoutObject,
        gate: Layer,
        diff: Layer,
        w: Option<Coord>,
        l: Option<Coord>,
    ) -> Result<(usize, usize), PrimError> {
        self.probe("two_rects", gate)?;
        let _stage = self.ctx.stage_fine(Stage::Prim, || "two_rects");
        let w = self.ctx.snap_up(
            w.unwrap_or_else(|| self.ctx.min_width(diff))
                .max(self.ctx.min_width(diff)),
        );
        let l = self.ctx.snap_up(
            l.unwrap_or_else(|| self.ctx.min_width(gate))
                .max(self.ctx.min_width(gate)),
        );
        let gate_ext = self.ctx.extension(gate, diff);
        let diff_ext = self.ctx.extension(diff, gate);
        let gate_rect = Rect::new(0, -gate_ext, l, w + gate_ext);
        let diff_rect = Rect::new(-diff_ext, 0, l + diff_ext, w);
        let gi = obj.push(Shape::new(gate, gate_rect));
        let di = obj.push(Shape::new(diff, diff_rect).with_role(ShapeRole::DeviceActive));
        Ok((gi, di))
    }

    /// Produces an **angle adaptor**: the corner patch where a horizontal
    /// wire `h` meets a vertical wire `v` on the same layer. The patch
    /// spans the vertical wire's x-range and the horizontal wire's
    /// y-range, guaranteeing a rule-clean corner for wires of different
    /// widths.
    ///
    /// Returns the new shape's index.
    pub fn angle_adaptor(
        &self,
        obj: &mut LayoutObject,
        layer: Layer,
        h: Rect,
        v: Rect,
        net: Option<NetId>,
    ) -> Result<usize, PrimError> {
        let patch = Rect::new(v.x0, h.y0, v.x1, h.y1);
        if patch.is_empty() {
            return Err(PrimError::NoCorner);
        }
        // The patch must connect to both wires.
        let touches = |a: &Rect, b: &Rect| a.overlaps(b) || a.abuts(b);
        if !touches(&patch, &h) || !touches(&patch, &v) {
            return Err(PrimError::NoCorner);
        }
        let mut s = Shape::new(layer, patch);
        if let Some(n) = net {
            s = s.with_net(n);
        }
        Ok(obj.push(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_geom::um;
    use amgen_tech::Tech;

    fn setup() -> (GenCtx,) {
        (GenCtx::from_tech(&Tech::bicmos_1u()),)
    }

    #[test]
    fn inbox_seed_uses_min_width_defaults() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let poly = t.layer("poly")?;
        let mut obj = LayoutObject::new("x");
        let i = p.inbox(&mut obj, poly, None, None)?;
        let r = obj.shapes()[i].rect;
        assert_eq!(r.width(), t.min_width(poly));
        assert_eq!(r.height(), t.min_width(poly));
        assert_eq!(r.ll(), amgen_geom::Point::ORIGIN);
        Ok(())
    }

    #[test]
    fn inbox_seed_respects_explicit_dims() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let poly = t.layer("poly")?;
        let mut obj = LayoutObject::new("x");
        let i = p.inbox(&mut obj, poly, Some(um(10)), Some(um(2)))?;
        let r = obj.shapes()[i].rect;
        assert_eq!((r.width(), r.height()), (um(10), um(2)));
        Ok(())
    }

    #[test]
    fn inbox_seed_clamps_to_min_width() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let m1 = t.layer("metal1")?;
        let mut obj = LayoutObject::new("x");
        let i = p.inbox(&mut obj, m1, Some(100), None)?;
        assert_eq!(obj.shapes()[i].rect.width(), t.min_width(m1));
        Ok(())
    }

    #[test]
    fn inbox_inside_fills_frame_when_dims_omitted() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let poly = t.layer("poly")?;
        let m1 = t.layer("metal1")?;
        let mut obj = LayoutObject::new("x");
        p.inbox(&mut obj, poly, Some(um(10)), Some(um(2)))?;
        let i = p.inbox(&mut obj, m1, None, None)?;
        // No poly→metal1 enclosure rule, so metal fills the poly rect.
        assert_eq!(obj.shapes()[i].rect, obj.shapes()[0].rect);
        Ok(())
    }

    #[test]
    fn inbox_expands_outers_when_too_small() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let poly = t.layer("poly")?;
        let m1 = t.layer("metal1")?;
        let mut obj = LayoutObject::new("x");
        // Seed poly is 1000 wide, metal1 min width is 1500: poly must grow.
        p.inbox(&mut obj, poly, None, None)?;
        let i = p.inbox(&mut obj, m1, None, None)?;
        let poly_r = obj.shapes()[0].rect;
        let m1_r = obj.shapes()[i].rect;
        assert!(poly_r.width() >= t.min_width(m1));
        assert!(m1_r.width() >= t.min_width(m1));
        assert!(poly_r.contains_rect(&m1_r));
        Ok(())
    }

    #[test]
    fn contact_row_three_calls_fig2() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let poly = t.layer("poly")?;
        let m1 = t.layer("metal1")?;
        let ct = t.layer("contact")?;
        let mut row = LayoutObject::new("gatecon");
        p.inbox(&mut row, poly, Some(um(10)), None)?;
        p.inbox(&mut row, m1, None, None)?;
        let cuts = p.array(&mut row, ct)?;
        assert!(cuts.len() >= 2, "a 10 um row holds several contacts");
        // Every contact is enclosed by both poly and metal1 by >= 500.
        let poly_r = row.shapes()[0].rect;
        let m1_r = row.shapes()[1].rect;
        for &i in &cuts {
            let c = row.shapes()[i].rect;
            assert!(poly_r.inflated(-t.enclosure(poly, ct)).contains_rect(&c));
            assert!(m1_r.inflated(-t.enclosure(m1, ct)).contains_rect(&c));
        }
        // Contacts are pairwise spaced by at least the rule.
        let space = t.min_spacing(ct, ct).ok_or("no contact spacing rule")?;
        for (a, &i) in cuts.iter().enumerate() {
            for &j in &cuts[a + 1..] {
                let (ri, rj) = (row.shapes()[i].rect, row.shapes()[j].rect);
                let dx = ri.gap_along(&rj, amgen_geom::Axis::X);
                let dy = ri.gap_along(&rj, amgen_geom::Axis::Y);
                assert!(dx >= space || dy >= space, "{ri} vs {rj}");
            }
        }
        Ok(())
    }

    #[test]
    fn array_expands_to_fit_one_cut() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let poly = t.layer("poly")?;
        let ct = t.layer("contact")?;
        let mut obj = LayoutObject::new("x");
        // A minimum-size poly square: far too small for a contact + enclosure.
        p.inbox(&mut obj, poly, None, None)?;
        let cuts = p.array(&mut obj, ct)?;
        assert_eq!(cuts.len(), 1);
        let c = obj.shapes()[cuts[0]].rect;
        let poly_r = obj.shapes()[0].rect;
        assert!(poly_r.inflated(-t.enclosure(poly, ct)).contains_rect(&c));
        Ok(())
    }

    #[test]
    fn array_on_empty_object_is_an_error() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let ct = t.layer("contact")?;
        let mut obj = LayoutObject::new("x");
        assert!(matches!(
            p.array(&mut obj, ct),
            Err(PrimError::EmptyObject { .. })
        ));
        Ok(())
    }

    #[test]
    fn array_rejects_non_cut_layer() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let poly = t.layer("poly")?;
        let mut obj = LayoutObject::new("x");
        p.inbox(&mut obj, poly, None, None)?;
        assert!(matches!(
            p.array(&mut obj, poly),
            Err(PrimError::NotACut { .. })
        ));
        Ok(())
    }

    #[test]
    fn array_count_scales_with_row_length() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let poly = t.layer("poly")?;
        let m1 = t.layer("metal1")?;
        let ct = t.layer("contact")?;
        let mut counts = Vec::new();
        for w in [um(4), um(10), um(20)] {
            let mut row = LayoutObject::new("r");
            p.inbox(&mut row, poly, Some(w), None)?;
            p.inbox(&mut row, m1, None, None)?;
            counts.push(p.array(&mut row, ct)?.len());
        }
        assert!(counts[0] < counts[1] && counts[1] < counts[2], "{counts:?}");
        Ok(())
    }

    #[test]
    fn around_covers_with_enclosure() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let pdiff = t.layer("pdiff")?;
        let nwell = t.layer("nwell")?;
        let mut obj = LayoutObject::new("x");
        p.inbox(&mut obj, pdiff, Some(um(4)), Some(um(4)))?;
        let i = p.around(&mut obj, nwell, 0)?;
        let well = obj.shapes()[i].rect;
        let diff = obj.shapes()[0].rect;
        let enc = t.enclosure(nwell, pdiff);
        assert!(well.inflated(-enc).contains_rect(&diff));
        Ok(())
    }

    #[test]
    fn around_on_empty_is_an_error() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let nwell = t.layer("nwell")?;
        let mut obj = LayoutObject::new("x");
        assert!(matches!(
            p.around(&mut obj, nwell, 0),
            Err(PrimError::EmptyObject { .. })
        ));
        Ok(())
    }

    #[test]
    fn ring_surrounds_structure() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let poly = t.layer("poly")?;
        let pdiff = t.layer("pdiff")?;
        let mut obj = LayoutObject::new("x");
        p.inbox(&mut obj, poly, Some(um(5)), Some(um(5)))?;
        let core_bbox = obj.bbox();
        let ring = p.ring(&mut obj, pdiff, None, None)?;
        // The four ring shapes do not overlap the core and enclose it.
        for &i in &ring {
            assert!(!obj.shapes()[i].rect.overlaps(&core_bbox));
            assert_eq!(obj.shapes()[i].layer, pdiff);
        }
        let ring_bbox = ring
            .iter()
            .fold(Rect::EMPTY, |acc, &i| acc.union_bbox(&obj.shapes()[i].rect));
        assert!(ring_bbox.contains_rect(&core_bbox));
        // Clearance respects the poly/pdiff spacing rule.
        let cl = t.clearance(pdiff, poly);
        for &i in &ring {
            let g = obj.shapes()[i].rect;
            assert!(
                g.gap_along(&core_bbox, amgen_geom::Axis::X) >= cl
                    || g.gap_along(&core_bbox, amgen_geom::Axis::Y) >= cl
            );
        }
        Ok(())
    }

    #[test]
    fn two_rects_builds_a_gate_crossing() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let poly = t.layer("poly")?;
        let pdiff = t.layer("pdiff")?;
        let mut obj = LayoutObject::new("m");
        let (gi, di) = p.two_rects(&mut obj, poly, pdiff, Some(um(10)), Some(um(1)))?;
        let g = obj.shapes()[gi].rect;
        let d = obj.shapes()[di].rect;
        assert!(g.overlaps(&d), "gate crosses diffusion");
        // Gate extends beyond diffusion vertically by the extension rule.
        assert_eq!(g.y1 - d.y1, t.extension(poly, pdiff));
        assert_eq!(d.y0 - g.y0, t.extension(poly, pdiff));
        // Diffusion extends beyond gate horizontally (source/drain).
        assert_eq!(d.x1 - g.x1, t.extension(pdiff, poly));
        assert_eq!(g.x0 - d.x0, t.extension(pdiff, poly));
        // Channel size as requested.
        assert_eq!(g.width(), um(1));
        assert_eq!(d.height(), um(10));
        assert_eq!(obj.shapes()[di].role, ShapeRole::DeviceActive);
        Ok(())
    }

    #[test]
    fn two_rects_defaults_to_minimum_device() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let poly = t.layer("poly")?;
        let ndiff = t.layer("ndiff")?;
        let mut obj = LayoutObject::new("m");
        let (gi, di) = p.two_rects(&mut obj, poly, ndiff, None, None)?;
        assert_eq!(obj.shapes()[gi].rect.width(), t.min_width(poly));
        assert_eq!(obj.shapes()[di].rect.height(), t.min_width(ndiff));
        Ok(())
    }

    #[test]
    fn angle_adaptor_patches_a_corner() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let m1 = t.layer("metal1")?;
        let mut obj = LayoutObject::new("w");
        let h = Rect::new(0, 0, um(10), um(2)); // horizontal, 2 um wide
        let v = Rect::new(um(10), 0, um(11), um(8)); // vertical, 1 um wide
        obj.push(Shape::new(m1, h));
        obj.push(Shape::new(m1, v));
        let i = p.angle_adaptor(&mut obj, m1, h, v, None)?;
        let patch = obj.shapes()[i].rect;
        assert_eq!(patch, Rect::new(um(10), 0, um(11), um(2)));
        Ok(())
    }

    #[test]
    fn angle_adaptor_rejects_disjoint_wires() -> Result<(), Box<dyn std::error::Error>> {
        let (t,) = setup();
        let p = Primitives::new(&t);
        let m1 = t.layer("metal1")?;
        let mut obj = LayoutObject::new("w");
        let h = Rect::new(0, 0, um(2), um(1));
        let v = Rect::new(um(10), um(10), um(11), um(20));
        assert_eq!(
            p.angle_adaptor(&mut obj, m1, h, v, None),
            Err(PrimError::NoCorner)
        );
        Ok(())
    }
}
