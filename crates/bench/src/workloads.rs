//! Shared workload builders for the figure benches.

use amgen::modgen::centroid::{centroid_diff_pair, CentroidParams};
use amgen::modgen::diffpair::{diff_pair, DiffPairParams};
use amgen::modgen::{contact_row, ContactRowParams, MosType};
use amgen::prelude::*;

/// The benchmark technology (the paper's process class).
pub fn tech() -> Tech {
    Tech::bicmos_1u()
}

/// A latch-up workload: `n` active stripes in a row, substrate contacts
/// every `every` stripes.
pub fn latchup_workload(tech: &Tech, n: usize, every: usize) -> LayoutObject {
    let pdiff = tech.layer("pdiff").unwrap();
    let mut obj = LayoutObject::new("latchup");
    for i in 0..n {
        let x = i as i64 * um(12);
        obj.push(
            Shape::new(pdiff, Rect::new(x, 0, x + um(8), um(6))).with_role(ShapeRole::DeviceActive),
        );
        if i % every == 0 {
            obj.push(
                Shape::new(pdiff, Rect::new(x, um(10), x + um(2), um(12)))
                    .with_role(ShapeRole::SubstrateContact),
            );
        }
    }
    obj
}

/// The three contact-row variants of Fig. 3.
pub fn fig3_rows(ctx: &GenCtx) -> [LayoutObject; 3] {
    let poly = ctx.poly().unwrap();
    [
        contact_row(ctx, poly, &ContactRowParams::new()).unwrap(),
        contact_row(ctx, poly, &ContactRowParams::new().with_w(um(10))).unwrap(),
        contact_row(
            ctx,
            poly,
            &ContactRowParams::new().with_w(um(8)).with_l(um(6)),
        )
        .unwrap(),
    ]
}

/// The Fig. 6 differential pair.
pub fn fig6_pair(ctx: &GenCtx) -> LayoutObject {
    diff_pair(
        ctx,
        &DiffPairParams::new(MosType::P).with_w(um(10)).with_l(um(2)),
    )
    .unwrap()
}

/// The Fig. 10 / block E centroid pair in the paper's configuration.
pub fn fig10_centroid(ctx: &GenCtx) -> LayoutObject {
    centroid_diff_pair(
        ctx,
        &CentroidParams::paper(MosType::N)
            .with_w(um(6))
            .with_l(um(1)),
    )
    .unwrap()
}

/// The L-shape-with-notch workload where compaction order matters (see
/// `amgen-opt`'s tests), extended to `k` movable squares.
pub fn opt_steps(tech: &Tech, k: usize) -> Vec<Step> {
    let poly = tech.layer("poly").unwrap();
    let mut seed = LayoutObject::new("L");
    seed.push(Shape::new(poly, Rect::new(0, 0, um(1), um(8))));
    seed.push(Shape::new(poly, Rect::new(0, 0, um(8), um(1))));
    let mut out = vec![Step::new(seed, Dir::East, CompactOptions::new())];
    for i in 0..k {
        let y0 = (i as i64 % 3) * um(3);
        let mut sq = LayoutObject::new("sq");
        sq.push(Shape::new(poly, Rect::new(0, y0, um(2), y0 + um(2))));
        out.push(Step::new(sq, Dir::East, CompactOptions::new()));
    }
    out
}

/// The prototype tile for the chip workload: the full Fig. 9 amplifier
/// (blocks A–F with guard rings and routing), generated once through a
/// cache-aware context. Chip assembly replicates this object — the
/// generation cost is paid upfront, so `fig_chip` measures assembly.
pub fn chip_prototype(tech: &Tech) -> LayoutObject {
    let ctx = GenCtx::from_tech(tech).with_default_cache();
    amgen::amp::build_amplifier(&ctx).unwrap().0
}

/// The `fig_chip` workload: the prototype amplifier tiled `rep` times
/// in a near-square grid, with a shared metal2 rail and a
/// substrate-contact stripe per row — a full-chip-scale layout that
/// keeps the spacing, latch-up and connectivity passes busy.
pub fn fig_chip(tech: &Tech, proto: &LayoutObject, rep: usize) -> LayoutObject {
    let m2 = tech.layer("metal2").unwrap();
    let pdiff = tech.layer("pdiff").unwrap();
    let bb = proto.bbox();
    let pitch_x = bb.width() + um(20);
    let pitch_y = bb.height() + um(40);
    let cols = (rep as u64).isqrt().max(1) as usize;
    let rows = rep.div_ceil(cols);
    let mut chip = LayoutObject::with_capacity("fig_chip", rep * proto.len() + 2 * rows);
    for i in 0..rep {
        let (r, c) = (i / cols, i % cols);
        let v = Vector::new(c as i64 * pitch_x - bb.x0, r as i64 * pitch_y - bb.y0);
        chip.absorb(proto, v);
    }
    let chip_bb = chip.bbox();
    for r in 0..rows {
        let y = r as i64 * pitch_y - um(34);
        chip.push(Shape::new(
            m2,
            Rect::new(chip_bb.x0, y, chip_bb.x1, y + um(4)),
        ));
        chip.push(
            Shape::new(
                pdiff,
                Rect::new(chip_bb.x0, y + um(6), chip_bb.x1, y + um(8)),
            )
            .with_role(ShapeRole::SubstrateContact),
        );
    }
    chip
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build() {
        let t = tech();
        assert!(latchup_workload(&t, 10, 3).len() > 10);
        let ctx = GenCtx::from_tech(&t);
        let rows = fig3_rows(&ctx);
        assert!(rows[1].bbox().width() > rows[0].bbox().width());
        assert!(!fig6_pair(&ctx).is_empty());
        assert!(!fig10_centroid(&ctx).is_empty());
        assert_eq!(opt_steps(&t, 4).len(), 5);
    }

    #[test]
    fn fig_chip_scales_with_replication() {
        let t = tech();
        let proto = chip_prototype(&t);
        let chip4 = fig_chip(&t, &proto, 4);
        assert_eq!(chip4.len(), 4 * proto.len() + 2 * 2);
        let chip9 = fig_chip(&t, &proto, 9);
        assert_eq!(chip9.len(), 9 * proto.len() + 2 * 3);
        assert!(chip9.bbox().width() > chip4.bbox().width());
        // The chip's per-row substrate stripes do not regress latch-up:
        // the replicated amplifier was latch-up clean and stays clean.
        let ctx = GenCtx::from_tech(&t);
        assert!(amgen::drc::latchup::check_latchup(&ctx, &chip9).is_empty());
    }
}
