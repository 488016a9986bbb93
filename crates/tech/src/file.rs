//! The tech-file format: a tiny line-oriented rule deck.
//!
//! The paper keeps design rules in a *technology description file* separate
//! from module code. The format here is deliberately minimal so decks stay
//! reviewable:
//!
//! ```text
//! tech bicmos_1u          # header, exactly once
//! grid 50                 # manufacturing grid, du
//! latchup 50000           # latch-up coverage distance, du
//! layer poly poly 10      # name kind gds-layer [gds-datatype]
//! width poly 1000
//! space poly poly 1500    # symmetric pair spacing
//! enclose metal1 contact 500
//! extend poly pdiff 1000
//! cutsize contact 1000
//! connect contact poly metal1
//! cap metal1 30 80        # aF/um^2  aF/um
//! sheetres poly 25000     # milliohm per square
//! ```
//!
//! `#` starts a comment; blank lines are ignored.

use crate::error::TechError;
use crate::layer::LayerKind;
use crate::tech::{Tech, TechBuilder};

impl Tech {
    /// Parses a technology from tech-file text.
    ///
    /// # Example
    /// ```
    /// use amgen_tech::Tech;
    /// let deck = "tech demo\nlayer poly poly 10\nwidth poly 1000\n";
    /// let t = Tech::parse(deck).unwrap();
    /// assert_eq!(t.name(), "demo");
    /// assert_eq!(t.min_width(t.layer("poly").unwrap()), 1000);
    /// ```
    pub fn parse(text: &str) -> Result<Tech, TechError> {
        let mut builder: Option<TechBuilder> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = lineno + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut it = content.split_whitespace();
            let keyword = it.next().expect("non-empty line has a first token");
            let rest: Vec<&str> = it.collect();
            let err = |message: String| TechError::Parse { line, message };
            let int = |s: &str| -> Result<i64, TechError> {
                s.parse::<i64>()
                    .map_err(|_| err(format!("expected integer, got `{s}`")))
            };
            // Capacitances and areas: finite and non-negative.
            let float = |s: &str| -> Result<f64, TechError> {
                s.parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .ok_or_else(|| err(format!("expected a finite number >= 0, got `{s}`")))
            };
            let gds = |s: &str| -> Result<i16, TechError> {
                i16::try_from(int(s)?)
                    .ok()
                    .filter(|v| *v >= 0)
                    .ok_or_else(|| err(format!("GDS number must be in 0..=32767, got `{s}`")))
            };
            if keyword == "tech" {
                if builder.is_some() {
                    return Err(err("duplicate `tech` header".into()));
                }
                let name = rest
                    .first()
                    .ok_or_else(|| err("`tech` needs a name".into()))?;
                builder = Some(Tech::builder(*name));
                continue;
            }
            let b = builder
                .take()
                .ok_or_else(|| err("first line must be `tech <name>`".into()))?;
            let b = match (keyword, rest.as_slice()) {
                ("grid", [g]) => b.grid(int(g)?),
                ("latchup", [d]) => b.latchup_distance(int(d)?),
                ("layer", [name, kind, number, datatype @ ..]) if datatype.len() <= 1 => {
                    let k = LayerKind::parse(kind)
                        .ok_or_else(|| err(format!("unknown layer kind `{kind}`")))?;
                    let mut b = b.layer(name, k, gds(number)?)?;
                    if let Some(dt) = datatype.first() {
                        b.last_layer_mut()
                            .expect("layer just declared")
                            .gds_datatype = gds(dt)?;
                    }
                    b
                }
                ("width", [l, w]) => b.width(l, int(w)?)?,
                ("space", [a, bb, s]) => b.space(a, bb, int(s)?)?,
                ("enclose", [o, i, e]) => b.enclose(o, i, int(e)?)?,
                ("extend", [a, bb, e]) => b.extend(a, bb, int(e)?)?,
                ("cutsize", [l, s]) => b.cut_size(l, int(s)?)?,
                ("connect", [c, a, bb]) => b.connect(c, a, bb)?,
                ("cap", [l, area, fringe]) => b.cap(l, float(area)?, float(fringe)?)?,
                ("sheetres", [l, r]) => b.sheet_res(l, int(r)?)?,
                ("minarea", [l, a]) => b.min_area(l, float(a)?)?,
                _ => {
                    return Err(err(format!(
                        "unrecognised statement `{keyword}` with {} argument(s)",
                        rest.len()
                    )))
                }
            };
            builder = Some(b);
        }
        builder
            .ok_or(TechError::Parse {
                line: 0,
                message: "empty tech file".into(),
            })?
            .build()
    }

    /// Serialises the technology back to tech-file text.
    ///
    /// `Tech::parse(&t.to_tech_file())` reproduces an equivalent deck.
    pub fn to_tech_file(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("tech {}\n", self.name()));
        out.push_str(&format!("grid {}\n", self.grid()));
        if self.latchup_distance() > 0 {
            out.push_str(&format!("latchup {}\n", self.latchup_distance()));
        }
        for l in self.layers() {
            let info = self.info(l);
            if info.gds_datatype != 0 {
                out.push_str(&format!(
                    "layer {} {} {} {}\n",
                    info.name,
                    info.kind.keyword(),
                    info.gds_layer,
                    info.gds_datatype
                ));
            } else {
                out.push_str(&format!(
                    "layer {} {} {}\n",
                    info.name,
                    info.kind.keyword(),
                    info.gds_layer
                ));
            }
        }
        for l in self.layers() {
            let w = self.min_width(l);
            if w > 0 {
                out.push_str(&format!("width {} {}\n", self.layer_name(l), w));
            }
        }
        let layers: Vec<_> = self.layers().collect();
        for (i, &a) in layers.iter().enumerate() {
            for &b in &layers[i..] {
                if let Some(s) = self.min_spacing(a, b) {
                    out.push_str(&format!(
                        "space {} {} {}\n",
                        self.layer_name(a),
                        self.layer_name(b),
                        s
                    ));
                }
            }
        }
        for &o in &layers {
            for &i in &layers {
                let e = self.enclosure(o, i);
                if e > 0 {
                    out.push_str(&format!(
                        "enclose {} {} {}\n",
                        self.layer_name(o),
                        self.layer_name(i),
                        e
                    ));
                }
            }
        }
        for &a in &layers {
            for &b in &layers {
                let e = self.extension(a, b);
                if e > 0 {
                    out.push_str(&format!(
                        "extend {} {} {}\n",
                        self.layer_name(a),
                        self.layer_name(b),
                        e
                    ));
                }
            }
        }
        for &l in &layers {
            if let Ok(s) = self.cut_size(l) {
                out.push_str(&format!("cutsize {} {}\n", self.layer_name(l), s));
            }
        }
        for &(c, a, b) in self.connections() {
            out.push_str(&format!(
                "connect {} {} {}\n",
                self.layer_name(c),
                self.layer_name(a),
                self.layer_name(b)
            ));
        }
        for &l in &layers {
            let cc = self.cap_coeffs(l);
            if cc.area_af_per_um2 != 0.0 || cc.fringe_af_per_um != 0.0 {
                out.push_str(&format!(
                    "cap {} {} {}\n",
                    self.layer_name(l),
                    cc.area_af_per_um2,
                    cc.fringe_af_per_um
                ));
            }
        }
        for &l in &layers {
            if let Some(r) = self.sheet_res_mohm(l) {
                out.push_str(&format!("sheetres {} {}\n", self.layer_name(l), r));
            }
        }
        for &l in &layers {
            let a = self.min_area_um2(l);
            if a > 0.0 {
                out.push_str(&format!("minarea {} {}\n", self.layer_name(l), a));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECK: &str = "\
# demo deck
tech demo
grid 50
latchup 40000
layer poly poly 10
layer metal1 metal 20 7
layer contact cut 15
width poly 1000
width metal1 1500
space poly poly 1500
space metal1 metal1 1500
enclose metal1 contact 500
enclose poly contact 500
extend poly metal1 250
cutsize contact 1000
connect contact poly metal1
cap metal1 30 80
sheetres poly 25000
";

    #[test]
    fn parses_full_deck() {
        let t = Tech::parse(DECK).unwrap();
        assert_eq!(t.name(), "demo");
        assert_eq!(t.grid(), 50);
        assert_eq!(t.latchup_distance(), 40_000);
        let m1 = t.layer("metal1").unwrap();
        assert_eq!(t.info(m1).gds_datatype, 7);
        assert_eq!(t.min_width(m1), 1_500);
        let ct = t.layer("contact").unwrap();
        assert_eq!(t.cut_size(ct).unwrap(), 1_000);
        let poly = t.layer("poly").unwrap();
        assert_eq!(t.extension(poly, m1), 250);
        assert!(t.connects(ct, poly, m1));
    }

    #[test]
    fn round_trip_is_equivalent() {
        let t = Tech::parse(DECK).unwrap();
        let text = t.to_tech_file();
        let t2 = Tech::parse(&text).unwrap();
        assert_eq!(t.name(), t2.name());
        assert_eq!(t.grid(), t2.grid());
        assert_eq!(t.latchup_distance(), t2.latchup_distance());
        assert_eq!(t.layer_count(), t2.layer_count());
        for (a, b) in t.layers().zip(t2.layers()) {
            assert_eq!(t.info(a), t2.info(b));
            assert_eq!(t.min_width(a), t2.min_width(b));
            assert_eq!(t.cap_coeffs(a), t2.cap_coeffs(b));
            assert_eq!(t.sheet_res_mohm(a), t2.sheet_res_mohm(b));
        }
        let pairs: Vec<_> = t.layers().collect();
        for &a in &pairs {
            let a2 = t2.layer(t.layer_name(a)).unwrap();
            for &b in &pairs {
                let b2 = t2.layer(t.layer_name(b)).unwrap();
                assert_eq!(t.min_spacing(a, b), t2.min_spacing(a2, b2));
                assert_eq!(t.enclosure(a, b), t2.enclosure(a2, b2));
                assert_eq!(t.extension(a, b), t2.extension(a2, b2));
            }
        }
    }

    #[test]
    fn missing_header_is_an_error() {
        let e = Tech::parse("grid 50\n").unwrap_err();
        assert!(matches!(e, TechError::Parse { line: 1, .. }));
    }

    #[test]
    fn empty_file_is_an_error() {
        assert!(Tech::parse("# nothing here\n").is_err());
    }

    #[test]
    fn unknown_statement_reports_line() {
        let deck = "tech x\nfrobnicate a b\n";
        let e = Tech::parse(deck).unwrap_err();
        assert!(matches!(e, TechError::Parse { line: 2, .. }));
    }

    #[test]
    fn bad_integer_reports_line() {
        let deck = "tech x\nlayer poly poly ten\n";
        let e = Tech::parse(deck).unwrap_err();
        assert!(matches!(e, TechError::Parse { line: 2, .. }));
    }

    #[test]
    fn unknown_kind_reports_line() {
        let deck = "tech x\nlayer poly mystery 10\n";
        let e = Tech::parse(deck).unwrap_err();
        assert!(matches!(e, TechError::Parse { line: 2, .. }));
    }

    #[test]
    fn rule_for_undeclared_layer_fails() {
        let deck = "tech x\nwidth poly 100\n";
        assert!(matches!(Tech::parse(deck), Err(TechError::UnknownLayer(_))));
    }

    #[test]
    fn duplicate_header_rejected() {
        let deck = "tech x\ntech y\n";
        assert!(matches!(
            Tech::parse(deck),
            Err(TechError::Parse { line: 2, .. })
        ));
    }

    fn parse_err(deck: &str) -> TechError {
        Tech::parse(deck).expect_err(deck)
    }

    #[test]
    fn gds_numbers_outside_0_to_32767_are_rejected() {
        for layer in ["40000", "-1", "10 70000", "10 -3"] {
            let e = parse_err(&format!("tech x\nlayer poly poly {layer}\n"));
            assert!(
                matches!(e, TechError::Parse { line: 2, .. }),
                "{layer}: {e}"
            );
        }
        let t = Tech::parse("tech x\nlayer poly poly 32767 32767\n").unwrap();
        let info = t.info(t.layer("poly").unwrap());
        assert_eq!((info.gds_layer, info.gds_datatype), (32767, 32767));
    }

    #[test]
    fn cap_coefficients_must_be_finite_and_non_negative() {
        for cap in ["NaN 80", "inf 80", "30 -inf", "-0.5 80", "30 -2"] {
            let e = parse_err(&format!("tech x\nlayer m metal 20\ncap m {cap}\n"));
            assert!(matches!(e, TechError::Parse { line: 3, .. }), "{cap}: {e}");
        }
    }

    #[test]
    fn min_area_must_be_a_finite_number() {
        for area in ["NaN", "inf", "-1"] {
            let e = parse_err(&format!("tech x\nlayer m metal 20\nminarea m {area}\n"));
            assert!(matches!(e, TechError::Parse { line: 3, .. }), "{area}: {e}");
        }
    }

    #[test]
    fn negative_latchup_distance_is_rejected() {
        let e = parse_err("tech x\nlatchup -100\n");
        assert!(matches!(&e, TechError::InvalidValue { rule, value: -100 } if rule == "latchup"));
    }

    #[test]
    fn grid_below_one_is_rejected() {
        for g in [0, -7] {
            let e = parse_err(&format!("tech x\ngrid {g}\n"));
            assert_eq!(
                e,
                TechError::InvalidValue {
                    rule: "grid".into(),
                    value: g
                }
            );
        }
    }
}
