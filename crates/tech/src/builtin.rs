//! Built-in technology decks.
//!
//! The paper's amplifier was laid out in a proprietary *1 µm
//! Siemens-BiCMOS* process. The [`BICMOS_1U`] deck below is a **synthetic
//! substitute** with public-domain-typical values (λ ≈ 0.5 µm scalable
//! rules): every algorithm reads rules only through the [`Tech`] rule
//! kernel, so absolute rule values shift absolute areas but not the
//! qualitative behaviour the paper demonstrates. [`CMOS_08`] is a second, plain-CMOS
//! deck used to exercise technology independence (the same module source
//! generates rule-clean layouts in either deck).

use crate::tech::Tech;

/// Synthetic 1 µm BiCMOS rule deck (stand-in for the Siemens process of
/// the paper's §3). Distances in nanometres.
pub const BICMOS_1U: &str = "\
tech bicmos_1u
grid 50
latchup 50000
# ---- layers: name kind gds ----
layer nwell well 1
layer buried buried 2
layer pdiff diffusion 3
layer ndiff diffusion 4
layer base diffusion 5
layer emitter diffusion 6
layer nplus implant 7
layer pplus implant 8
layer poly poly 10
layer contact cut 15
layer metal1 metal 20
layer via1 cut 25
layer metal2 metal 30
# ---- minimum widths ----
width nwell 5000
width buried 4000
width pdiff 1500
width ndiff 1500
width base 2000
width emitter 1500
width poly 1000
width metal1 1500
width metal2 1500
# ---- spacings ----
space nwell nwell 4000
space buried buried 5000
space pdiff pdiff 1500
space ndiff ndiff 1500
space pdiff ndiff 2000
space base base 2000
space emitter emitter 1500
space poly poly 1500
space poly pdiff 500
space poly ndiff 500
space poly base 1000
space contact contact 1000
space metal1 metal1 1500
space via1 via1 1500
space metal2 metal2 2000
space base pdiff 2000
space base ndiff 2000
space buried pdiff 3000
space buried ndiff 3000
# ---- enclosures ----
enclose metal1 contact 500
enclose poly contact 500
enclose pdiff contact 500
enclose ndiff contact 500
enclose base contact 750
enclose emitter contact 500
enclose metal1 via1 500
enclose metal2 via1 500
enclose nwell pdiff 2500
enclose nwell ndiff 1500
enclose buried base 2000
enclose base emitter 1000
enclose buried contact 750
enclose nplus ndiff 500
enclose pplus pdiff 500
# ---- extensions ----
extend poly pdiff 1000
extend poly ndiff 1000
extend pdiff poly 1500
extend ndiff poly 1500
# ---- cuts ----
cutsize contact 1000
cutsize via1 1000
connect contact poly metal1
connect contact pdiff metal1
connect contact ndiff metal1
connect contact base metal1
connect contact emitter metal1
connect contact buried metal1
connect via1 metal1 metal2
# ---- parasitics: cap <layer> <aF/um^2> <aF/um>, sheetres in mohm/sq ----
cap poly 58 44
cap metal1 31 44
cap metal2 15 50
cap pdiff 350 250
cap ndiff 250 200
cap base 400 300
cap emitter 500 350
cap buried 100 80
sheetres poly 25000
sheetres metal1 70
sheetres metal2 40
sheetres pdiff 50000
sheetres ndiff 40000
sheetres base 150000
sheetres emitter 30000
sheetres buried 20000
minarea metal1 4
minarea metal2 4
";

/// Plain 0.8 µm CMOS rule deck, used to demonstrate that module sources
/// are technology independent. Distances in nanometres.
pub const CMOS_08: &str = "\
tech cmos_08
grid 50
latchup 40000
layer nwell well 1
layer pdiff diffusion 3
layer ndiff diffusion 4
layer nplus implant 7
layer pplus implant 8
layer poly poly 10
layer contact cut 15
layer metal1 metal 20
layer via1 cut 25
layer metal2 metal 30
width nwell 4000
width pdiff 1200
width ndiff 1200
width poly 800
width metal1 1200
width metal2 1200
space nwell nwell 3200
space pdiff pdiff 1200
space ndiff ndiff 1200
space pdiff ndiff 1600
space poly poly 1200
space poly pdiff 400
space poly ndiff 400
space contact contact 800
space metal1 metal1 1200
space via1 via1 1200
space metal2 metal2 1600
enclose metal1 contact 400
enclose poly contact 400
enclose pdiff contact 400
enclose ndiff contact 400
enclose metal1 via1 400
enclose metal2 via1 400
enclose nwell pdiff 2000
enclose nwell ndiff 1200
enclose nplus ndiff 400
enclose pplus pdiff 400
extend poly pdiff 800
extend poly ndiff 800
extend pdiff poly 1200
extend ndiff poly 1200
cutsize contact 800
cutsize via1 800
connect contact poly metal1
connect contact pdiff metal1
connect contact ndiff metal1
connect via1 metal1 metal2
cap poly 72 55
cap metal1 38 55
cap metal2 19 62
cap pdiff 430 310
cap ndiff 310 250
sheetres poly 22000
sheetres metal1 60
sheetres metal2 35
sheetres pdiff 45000
sheetres ndiff 36000
minarea metal1 3
minarea metal2 3
";

impl Tech {
    /// The synthetic 1 µm BiCMOS technology (see [`BICMOS_1U`]).
    ///
    /// # Panics
    ///
    /// Never — the deck is validated by tests.
    pub fn bicmos_1u() -> Tech {
        Tech::parse(BICMOS_1U).expect("built-in bicmos_1u deck is valid")
    }

    /// The 0.8 µm CMOS technology (see [`CMOS_08`]).
    pub fn cmos_08() -> Tech {
        Tech::parse(CMOS_08).expect("built-in cmos_08 deck is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    #[test]
    fn bicmos_deck_parses() {
        let t = Tech::bicmos_1u();
        assert_eq!(t.name(), "bicmos_1u");
        assert_eq!(t.layer_count(), 13);
        assert_eq!(t.latchup_distance(), 50_000);
    }

    #[test]
    fn cmos_deck_parses() {
        let t = Tech::cmos_08();
        assert_eq!(t.name(), "cmos_08");
        assert!(
            t.layer("buried").is_err(),
            "plain CMOS has no bipolar layers"
        );
    }

    #[test]
    fn bicmos_has_bipolar_layers() {
        let t = Tech::bicmos_1u();
        for name in ["buried", "base", "emitter"] {
            let l = t.layer(name).unwrap();
            assert!(t.kind(l).is_conductor(), "{name}");
        }
    }

    #[test]
    fn conductors_have_widths_and_caps() {
        for t in [Tech::bicmos_1u(), Tech::cmos_08()] {
            for l in t.layers() {
                if t.kind(l).is_conductor() {
                    assert!(t.min_width(l) > 0, "{}: {}", t.name(), t.layer_name(l));
                    let cc = t.cap_coeffs(l);
                    assert!(cc.area_af_per_um2 > 0.0, "{}", t.layer_name(l));
                }
            }
        }
    }

    #[test]
    fn cut_layers_have_sizes_and_connections() {
        for t in [Tech::bicmos_1u(), Tech::cmos_08()] {
            for l in t.layers() {
                if t.kind(l) == LayerKind::Cut {
                    assert!(t.cut_size(l).unwrap() > 0);
                    assert!(
                        !t.connected_pairs(l).is_empty(),
                        "{}: cut {} connects nothing",
                        t.name(),
                        t.layer_name(l)
                    );
                }
            }
        }
    }

    #[test]
    fn contact_enclosures_present_for_all_contacted_conductors() {
        let t = Tech::bicmos_1u();
        let ct = t.layer("contact").unwrap();
        for &(a, b) in t.connected_pairs(ct) {
            for side in [a, b] {
                assert!(
                    t.enclosure(side, ct) > 0,
                    "{} must enclose contact",
                    t.layer_name(side)
                );
            }
        }
    }

    #[test]
    fn cmos_rules_are_tighter_than_bicmos() {
        let b = Tech::bicmos_1u();
        let c = Tech::cmos_08();
        let bp = b.layer("poly").unwrap();
        let cp = c.layer("poly").unwrap();
        assert!(c.min_width(cp) < b.min_width(bp));
    }

    #[test]
    fn round_trip_built_in_decks() {
        for t in [Tech::bicmos_1u(), Tech::cmos_08()] {
            let t2 = Tech::parse(&t.to_tech_file()).unwrap();
            assert_eq!(t.layer_count(), t2.layer_count());
            assert_eq!(t.latchup_distance(), t2.latchup_distance());
        }
    }
}
