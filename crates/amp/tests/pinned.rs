//! Pins both amplifier variants in every deck they build in: the
//! order-sensitive layout digest, the shape count and every
//! [`AmpReport`] field. A change to block generation, placement,
//! routing or measurement in either variant shows here, including the
//! CMOS variant's known spacing violation.

use amgen_amp::{build_amplifier, build_amplifier_cmos, AmpReport};
use amgen_core::{CanonParam, GenCtx};
use amgen_tech::Tech;

fn check(
    (amp, report): (amgen_db::LayoutObject, AmpReport),
    hash: u64,
    shapes: usize,
    expected: AmpReport,
) {
    assert_eq!(
        CanonParam::object(&amp),
        CanonParam::Object {
            hash,
            shapes: shapes as u64
        }
    );
    assert_eq!(amp.len(), shapes);
    // Debug prints each f64 in its shortest round-trip form, so equal
    // strings mean equal fields.
    assert_eq!(format!("{report:?}"), format!("{expected:?}"));
}

fn blocks(sizes: [(&str, f64, f64); 6]) -> Vec<(String, f64, f64)> {
    sizes.map(|(n, w, h)| (n.to_string(), w, h)).to_vec()
}

#[test]
fn bicmos_amplifier_in_bicmos_1u() {
    let ctx = GenCtx::from_tech(&Tech::bicmos_1u());
    check(
        build_amplifier(&ctx).unwrap(),
        6_292_718_071_311_157_699,
        1348,
        AmpReport {
            width_um: 482.5,
            height_um: 106.0,
            blocks: blocks([
                ("cascode", 25.0, 50.0),
                ("current_mirror", 56.0, 28.0),
                ("centroid_pair", 67.0, 47.0),
                ("interdigit", 28.0, 28.0),
                ("centroid_pair", 127.0, 47.0),
                ("npn_pair", 63.0, 18.0),
            ]),
            shorts: 0,
            spacing: 0,
            latchup_clean: true,
            output_cap_ff: 297.211,
        },
    );
}

#[test]
fn cmos_amplifier_in_cmos_08() {
    let ctx = GenCtx::from_tech(&Tech::cmos_08());
    check(
        build_amplifier_cmos(&ctx).unwrap(),
        13_374_123_920_597_125_078,
        1446,
        AmpReport {
            width_um: 386.1,
            height_um: 90.4,
            blocks: blocks([
                ("cascode", 20.0, 46.4),
                ("current_mirror", 44.8, 25.6),
                ("centroid_pair", 53.6, 44.0),
                ("interdigit", 22.4, 25.6),
                ("centroid_pair", 106.4, 44.0),
                ("interdigit", 22.4, 27.6),
            ]),
            shorts: 0,
            spacing: 1,
            latchup_clean: true,
            output_cap_ff: 194.8156,
        },
    );
}

#[test]
fn cmos_amplifier_in_bicmos_1u() {
    let ctx = GenCtx::from_tech(&Tech::bicmos_1u());
    check(
        build_amplifier_cmos(&ctx).unwrap(),
        4_389_142_486_963_905_468,
        1364,
        AmpReport {
            width_um: 447.5,
            height_um: 94.0,
            blocks: blocks([
                ("cascode", 25.0, 50.0),
                ("current_mirror", 56.0, 28.0),
                ("centroid_pair", 67.0, 47.0),
                ("interdigit", 28.0, 28.0),
                ("centroid_pair", 127.0, 47.0),
                ("interdigit", 28.0, 30.0),
            ]),
            shorts: 0,
            spacing: 1,
            latchup_clean: true,
            output_cap_ff: 183.057,
        },
    );
}
