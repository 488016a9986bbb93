//! Byte-identity parity gate for the spatial index: every consumer that
//! was rewritten onto the index (DRC checks, the latch-up pass,
//! connectivity extraction, parasitics) must reproduce its pre-index
//! linear-scan output *exactly* — same violations, same nets, same
//! parasitics, same order — on the figure workloads and on a two-tile
//! chip of the `cmos_08` amplifier (the `chip_scale` bench audits the
//! `bicmos_1u` chip). This is what keeps the content-addressed generation
//! cache and layout signatures stable across the indexed rewrite.

use amgen::drc::{latchup, Drc};
use amgen::modgen::centroid::{centroid_diff_pair, CentroidParams};
use amgen::modgen::diffpair::{diff_pair, DiffPairParams};
use amgen::modgen::{contact_row, ContactRowParams, MosType};
use amgen::prelude::*;
use amgen_bench::workloads::fig_chip;

fn fig01_workload(tech: &GenCtx, n: usize, every: usize) -> LayoutObject {
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

fn assert_parity(tech: &GenCtx, obj: &LayoutObject) {
    let drc = Drc::new(tech);
    let indexed = drc.check(obj);
    let scan = drc.check_scan(obj);
    assert_eq!(indexed, scan, "DRC violations diverged on {}", obj.name());

    let ex = Extractor::new(tech);
    assert_eq!(
        ex.connectivity(obj),
        ex.connectivity_scan(obj),
        "extracted nets diverged on {}",
        obj.name()
    );
    assert_eq!(
        ex.parasitics(obj),
        ex.parasitics_scan(obj),
        "parasitics diverged on {}",
        obj.name()
    );
}

#[test]
fn fig01_latchup_parity_across_contact_densities() {
    let tech = GenCtx::from_tech(&Tech::bicmos_1u());
    for (n, every) in [(8, 3), (32, 3), (64, 64), (128, 5)] {
        let obj = fig01_workload(&tech, n, every);
        let indexed = latchup::latchup_remainder(&tech, &obj);
        let scan = latchup::latchup_remainder_scan(&tech, &obj);
        assert_eq!(
            indexed.rects(),
            scan.rects(),
            "latch-up remainder diverged at n={n}, every={every}"
        );
        assert_parity(&tech, &obj);
    }
}

#[test]
fn fig03_contact_row_parity() {
    let tech = GenCtx::from_tech(&Tech::bicmos_1u());
    let poly = tech.layer("poly").unwrap();
    for params in [
        ContactRowParams::new(),
        ContactRowParams::new().with_w(um(10)),
        ContactRowParams::new().with_w(um(8)).with_l(um(6)),
    ] {
        let row = contact_row(&tech, poly, &params).unwrap();
        assert_parity(&tech, &row);
    }
}

#[test]
fn fig06_diff_pair_parity() {
    let tech = GenCtx::from_tech(&Tech::bicmos_1u());
    let pair = diff_pair(
        &tech,
        &DiffPairParams::new(MosType::P).with_w(um(10)).with_l(um(2)),
    )
    .unwrap();
    assert_parity(&tech, &pair);
}

#[test]
fn fig10_centroid_parity() {
    let tech = GenCtx::from_tech(&Tech::bicmos_1u());
    let centroid = centroid_diff_pair(
        &tech,
        &CentroidParams::paper(MosType::N)
            .with_w(um(6))
            .with_l(um(1)),
    )
    .unwrap();
    assert_parity(&tech, &centroid);
}

#[test]
fn cmos_fig_chip_parity() {
    let tech = Tech::cmos_08();
    let ctx = GenCtx::from_tech(&tech).with_default_cache();
    let (proto, _) = amgen::amp::build_amplifier_cmos(&ctx).unwrap();
    let chip = fig_chip(&tech, &proto, 2);
    assert_parity(&GenCtx::from_tech(&tech), &chip);
}
