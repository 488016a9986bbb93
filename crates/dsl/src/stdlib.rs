//! The paper's module sources, verbatim where the paper prints them.

/// Fig. 2: the contact row. *"With these three primitive function-calls a
/// complete parameterizable contact row is described without specifying
/// or calculating an exact coordinate and without evaluating a design
/// rule."*
pub const FIG2_CONTACT_ROW: &str = r#"
ENT ContactRow(layer, <W>, <L>)
  INBOX(layer, W, L)
  INBOX("metal1")
  ARRAY("contact")
"#;

/// Fig. 7: the hierarchical MOS differential pair (five compaction
/// steps). Needs [`FIG2_CONTACT_ROW`] loaded as well.
pub const FIG7_DIFF_PAIR: &str = r#"
ENT Trans(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L)
  polycon = ContactRow(layer = "poly", L = L)
  compact(polycon, SOUTH, "poly")   // step 1
  diffcon = ContactRow(layer = "pdiff", L = W)
  compact(diffcon, EAST, "pdiff")   // step 2

ENT DiffPair(<W>, <L>)
  trans1 = Trans(W = W, L = L)
  trans2 = trans1 // copy of trans1
  diffcon = ContactRow(layer = "pdiff", L = W)
  compact(trans1, WEST, "pdiff")  // step 3
  compact(trans2, WEST, "pdiff")  // step 4
  compact(diffcon, WEST, "pdiff") // step 5
"#;

/// An inter-digitated transistor written with the language's loop —
/// *"this language features loops, conditional statements ..."*.
pub const INTERDIGIT: &str = r#"
ENT Finger(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L)
  diffcon = ContactRow(layer = "pdiff", L = W)
  compact(diffcon, EAST, "pdiff")

ENT Interdigit(<n>, <W>, <L>)
  seed = ContactRow(layer = "pdiff", L = W)
  compact(seed, WEST, "pdiff")
  FOR i = 1 TO n
    t = Finger(W = W, L = L)
    compact(t, EAST, "pdiff")
  END
"#;

/// A stacked transistor written in the language: `n` series gates over
/// one diffusion strip, contact rows only at the ends — one of the module
/// types the paper names (*"stacked transistors"*). The loop makes the
/// stack length a parameter.
pub const STACKED: &str = r#"
ENT Gate(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L)

ENT Stacked(<n>, <W>, <L>)
  s = ContactRow(layer = "pdiff", L = W)
  compact(s, WEST, "pdiff")
  FOR i = 1 TO n
    g = Gate(W = W, L = L)
    compact(g, EAST, "pdiff")
  END
  d = ContactRow(layer = "pdiff", L = W)
  compact(d, EAST, "pdiff")
"#;

/// The placement of the paper's block E written **in the language**: a
/// centroidal cross-coupled arrangement with dummies — side dummies,
/// interleaved A/B pairs, centre dummies, the mirrored half, side
/// dummies, every unit separated by a shared source row.
///
/// The paper reports *"the source code for this complex module has a
/// length of about 180 lines"*; with loops and parameters the same
/// arrangement needs a fraction of that here (the harness counts the
/// lines). Internal bus wiring is the native generator's job
/// (`amgen-modgen::centroid`) — the language covers the matched
/// placement, which is what the 180 lines mostly bought in 1996.
pub const CENTROID_PLACEMENT: &str = r#"
ENT Gate(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L)

ENT SRow(<W>)
  INBOX("pdiff", L = W)
  INBOX("metal1")
  ARRAY("contact")

ENT Dummies(<n>, <W>, <L>)
  FOR i = 1 TO n
    g = Gate(W = W, L = L)
    compact(g, EAST, "pdiff")
  END

ENT Pair(<W>, <L>)
  g1 = Gate(W = W, L = L)
  compact(g1, EAST, "pdiff")
  d = SRow(W = W)
  compact(d, EAST, "pdiff")
  g2 = Gate(W = W, L = L)
  compact(g2, EAST, "pdiff")

ENT CentroidE(<side>, <center>, <W>, <L>)
  s0 = SRow(W = W)
  compact(s0, WEST, "pdiff")
  dl = Dummies(n = side, W = W, L = L)
  compact(dl, EAST, "pdiff")
  s1 = SRow(W = W)
  compact(s1, EAST, "pdiff")
  a1 = Pair(W = W, L = L)
  compact(a1, EAST, "pdiff")
  s2 = SRow(W = W)
  compact(s2, EAST, "pdiff")
  b1 = Pair(W = W, L = L)
  compact(b1, EAST, "pdiff")
  s3 = SRow(W = W)
  compact(s3, EAST, "pdiff")
  dc = Dummies(n = center, W = W, L = L)
  compact(dc, EAST, "pdiff")
  s4 = SRow(W = W)
  compact(s4, EAST, "pdiff")
  b2 = Pair(W = W, L = L)
  compact(b2, EAST, "pdiff")
  s5 = SRow(W = W)
  compact(s5, EAST, "pdiff")
  a2 = Pair(W = W, L = L)
  compact(a2, EAST, "pdiff")
  s6 = SRow(W = W)
  compact(s6, EAST, "pdiff")
  dr = Dummies(n = side, W = W, L = L)
  compact(dr, EAST, "pdiff")
  s7 = SRow(W = W)
  compact(s7, EAST, "pdiff")
"#;

/// A module with two topology alternatives — the backtracking facility:
/// a contact row laid out horizontally or vertically; the rating function
/// picks whichever suits the context.
pub const VARIANT_ROW: &str = r#"
ENT FlexRow(layer, <S>)
  VARIANT
    INBOX(layer, W = S)   // horizontal row
  OR
    INBOX(layer, L = S)   // vertical row
  END
  INBOX("metal1")
  ARRAY("contact")
"#;

/// Every library source above as `(name, source)`, in load order.
pub const ALL: [(&str, &str); 6] = [
    ("FIG2_CONTACT_ROW", FIG2_CONTACT_ROW),
    ("FIG7_DIFF_PAIR", FIG7_DIFF_PAIR),
    ("INTERDIGIT", INTERDIGIT),
    ("STACKED", STACKED),
    ("CENTROID_PLACEMENT", CENTROID_PLACEMENT),
    ("VARIANT_ROW", VARIANT_ROW),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use amgen_core::GenCtx;
    use amgen_tech::Tech;

    #[test]
    fn all_stdlib_sources_parse() {
        for (name, src) in ALL {
            if let Err(e) = crate::parser::parse(src) {
                panic!("{name}: {e}");
            }
        }
    }

    #[test]
    fn stdlib_loads_into_an_interpreter() {
        let mut i = Interpreter::new(GenCtx::from_tech(&Tech::bicmos_1u()));
        for (name, src) in ALL {
            if let Err(e) = i.load(src) {
                panic!("{name}: {e}");
            }
        }
    }

    #[test]
    fn stacked_builds_n_series_gates() {
        let t = GenCtx::from_tech(&Tech::bicmos_1u());
        let mut i = Interpreter::new(t.clone());
        i.load(FIG2_CONTACT_ROW).unwrap();
        i.load(STACKED).unwrap();
        let out = i.run("m = Stacked(n = 4, W = 6, L = 1)\n").unwrap();
        let poly = t.layer("poly").unwrap();
        let gates = out["m"]
            .shapes_on(poly)
            .filter(|s| s.rect.height() > 3 * s.rect.width())
            .count();
        assert_eq!(gates, 4);
        // Only the two end rows carry contacts.
        let ct = t.layer("contact").unwrap();
        let pdiff = t.layer("pdiff").unwrap();
        let diff_cuts = out["m"]
            .shapes_on(ct)
            .filter(|c| {
                out["m"]
                    .shapes_on(pdiff)
                    .any(|d| d.rect.contains_rect(&c.rect))
            })
            .count();
        let one_row = {
            let mut j = Interpreter::new(t.clone());
            j.load(FIG2_CONTACT_ROW).unwrap();
            let o = j.run("r = ContactRow(layer = \"pdiff\", L = 6)\n").unwrap();
            o["r"].shapes_on(ct).count()
        };
        assert_eq!(diff_cuts, 2 * one_row);
    }
}
