//! The MOS transistor module — the `Trans` entity of the paper's Fig. 7.
//!
//! ```text
//! ENT Trans(<W>, <L>)
//!   TWORECTS("poly", "pdiff", W, L)
//!   polycon = ContactRow(layer = "poly", L = L)
//!   diffcon = ContactRow(layer = "pdiff", W = W)
//!   compact(polycon, SOUTH, "poly")   // step 1
//!   compact(diffcon, SOUTH, "pdiff")  // step 2
//! ```
//!
//! Here the transistor is built with a vertical gate stripe (channel
//! width `W` along y), the gate contact row attached `SOUTH`, and the
//! source/drain contact rows attached `WEST`/`EAST` so they merge into the
//! diffusion. The poly contact row is created with **variable edges** —
//! the feature the paper highlights in the magnified part of Fig. 6b:
//! *"the metal-edges of the poly-contacts were moved so that the
//! diffusion-contacts could be placed closer to the transistors"*.

use amgen_compact::{CompactOptions, Compactor};
use amgen_core::{FaultSite, GenCtx, Stage};
use amgen_db::LayoutObject;
use amgen_geom::{Coord, Dir};
use amgen_prim::Primitives;

use crate::contact_row::{contact_row, ContactRowParams};
use crate::error::ModgenError;

/// Device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosType {
    /// n-channel: `ndiff` with an `nplus` implant.
    N,
    /// p-channel: `pdiff` in an `nwell` with a `pplus` implant.
    P,
}

impl MosType {
    /// The diffusion layer name for this polarity.
    pub fn diff_layer(self) -> &'static str {
        match self {
            MosType::N => "ndiff",
            MosType::P => "pdiff",
        }
    }

    /// The interned diffusion layer for this polarity — no string lookup.
    pub fn diff(
        self,
        rules: &amgen_tech::RuleSet,
    ) -> Result<amgen_tech::Layer, amgen_tech::TechError> {
        match self {
            MosType::N => rules.ndiff(),
            MosType::P => rules.pdiff(),
        }
    }
}

/// Parameters of a single MOS transistor module.
#[derive(Debug, Clone)]
pub struct MosParams {
    /// Polarity.
    pub mos: MosType,
    /// Channel width (y); `None` selects the minimum device.
    pub w: Option<Coord>,
    /// Channel length (x); `None` selects the minimum device.
    pub l: Option<Coord>,
    /// Gate net name (port name).
    pub g_net: String,
    /// Source net name.
    pub s_net: String,
    /// Drain net name.
    pub d_net: String,
    /// Attach a gate contact row (off for array fingers that share a
    /// strap).
    pub gate_contact: bool,
    /// Draw the implant (and, for PMOS, the n-well).
    pub implants: bool,
}

impl MosParams {
    /// Default-named nets (`g`/`s`/`d`), gate contact and implants on.
    pub fn new(mos: MosType) -> MosParams {
        MosParams {
            mos,
            w: None,
            l: None,
            g_net: "g".into(),
            s_net: "s".into(),
            d_net: "d".into(),
            gate_contact: true,
            implants: true,
        }
    }

    /// Sets the channel width.
    #[must_use]
    pub fn with_w(mut self, w: Coord) -> Self {
        self.w = Some(w);
        self
    }

    /// Sets the channel length.
    #[must_use]
    pub fn with_l(mut self, l: Coord) -> Self {
        self.l = Some(l);
        self
    }

    /// Renames the three terminals.
    #[must_use]
    pub fn with_nets(mut self, g: &str, s: &str, d: &str) -> Self {
        self.g_net = g.into();
        self.s_net = s.into();
        self.d_net = d.into();
        self
    }

    /// Disables the gate contact row.
    #[must_use]
    pub fn without_gate_contact(mut self) -> Self {
        self.gate_contact = false;
        self
    }

    /// Disables implant/well decoration.
    #[must_use]
    pub fn without_implants(mut self) -> Self {
        self.implants = false;
        self
    }
}

/// Generates a contacted MOS transistor: gate crossing, gate contact row
/// (south), and source/drain contact rows merged into the diffusion
/// (west/east). Ports are named after the three net parameters.
pub fn mos_transistor(tech: &GenCtx, params: &MosParams) -> Result<LayoutObject, ModgenError> {
    let key = crate::cached::module_key(tech, "mos_transistor", |k| {
        k.push(crate::cached::mos_code(params.mos));
        k.push(params.w);
        k.push(params.l);
        k.push(params.g_net.clone());
        k.push(params.s_net.clone());
        k.push(params.d_net.clone());
        k.push(params.gate_contact);
        k.push(params.implants);
    });
    tech.generate_cached(Stage::Modgen, key, || mos_transistor_uncached(tech, params))
}

fn mos_transistor_uncached(tech: &GenCtx, params: &MosParams) -> Result<LayoutObject, ModgenError> {
    let _stage = tech.stage(Stage::Modgen, || "mos_transistor");
    tech.checkpoint(Stage::Modgen)?;
    tech.fault_check(FaultSite::ModgenEntry, "mos_transistor")?;
    let prim = Primitives::new(tech);
    let c = Compactor::new(tech);
    let poly = tech.poly()?;
    let diff = params.mos.diff(tech)?;

    // TWORECTS: the gate crossing.
    let mut core = LayoutObject::new("trans");
    let (gate_idx, _diff_idx) = prim.two_rects(&mut core, poly, diff, params.w, params.l)?;
    let g_id = core.net(&params.g_net);
    core.shapes_mut()[gate_idx].net = Some(g_id);
    let w_eff = core.shapes()[gate_idx].rect.height(); // incl. gate extension
    let _ = w_eff;

    let mut main = LayoutObject::with_capacity(
        format!(
            "mos_{}",
            match params.mos {
                MosType::N => "n",
                MosType::P => "p",
            }
        ),
        core.len() + 24,
    );
    c.compact(&mut main, &core, Dir::West, &CompactOptions::new())?;

    // Step 1: the gate contact row, attached south, poly irrelevant.
    if params.gate_contact {
        let polycon = contact_row(
            tech,
            poly,
            &ContactRowParams::new()
                .with_net(&params.g_net)
                .with_variable_edges(),
        )?;
        c.compact(
            &mut main,
            &polycon,
            Dir::South,
            &CompactOptions::new().ignoring(poly),
        )?;
    }

    // Steps 2a/2b: source west, drain east, diffusion irrelevant (rows
    // merge into the device diffusion).
    let w_actual = main.bbox_on(diff).height();
    let s_row = contact_row(
        tech,
        diff,
        &ContactRowParams::new()
            .with_l(w_actual)
            .with_net(&params.s_net),
    )?;
    c.compact(
        &mut main,
        &s_row,
        Dir::West,
        &CompactOptions::new().ignoring(diff),
    )?;
    let d_row = contact_row(
        tech,
        diff,
        &ContactRowParams::new()
            .with_l(w_actual)
            .with_net(&params.d_net),
    )?;
    c.compact(
        &mut main,
        &d_row,
        Dir::East,
        &CompactOptions::new().ignoring(diff),
    )?;

    // Decoration: implant, and n-well for PMOS.
    if params.implants {
        match params.mos {
            MosType::N => {
                let nplus = tech.nplus()?;
                prim.around(&mut main, nplus, 0)?;
            }
            MosType::P => {
                let pplus = tech.pplus()?;
                prim.around(&mut main, pplus, 0)?;
                let nwell = tech.nwell()?;
                prim.around(&mut main, nwell, 0)?;
            }
        }
    }
    Ok(main)
}

/// Generates a transistor *finger*: the gate crossing, an optional gate
/// contact row (south, variable edges), and **one** diffusion contact row
/// attached east — the paper's `Trans` entity verbatim (one `polycon`,
/// one `diffcon`). Chains of fingers compacted `WEST` share their rows,
/// which is how the differential pair of Fig. 6 gets *"two transistors,
/// three diffusion-contact-rows and two poly-contacts"*.
pub fn mos_finger(
    tech: &GenCtx,
    mos: MosType,
    w: Option<Coord>,
    l: Option<Coord>,
    g_net: &str,
    row_net: &str,
    gate_contact: bool,
) -> Result<LayoutObject, ModgenError> {
    // The nets are pure relabelings of identical geometry: cache the
    // canonical (α-renamed) finger so a diff pair's two fingers (and a
    // centroid quad's four) share one entry. `g_net == row_net` would
    // merge the two potentials at build time, which α-renaming cannot
    // reproduce — that (shorted) corner case is keyed literally.
    if tech.cache_active() && g_net != row_net {
        let key = crate::cached::module_key(tech, "mos_finger", |k| {
            k.push(crate::cached::mos_code(mos));
            k.push(w);
            k.push(l);
            k.push(gate_contact);
        });
        let mut finger = tech.generate_cached(Stage::Modgen, key, || {
            mos_finger_uncached(
                tech,
                mos,
                w,
                l,
                crate::cached::ALPHA_A,
                crate::cached::ALPHA_B,
                gate_contact,
            )
        })?;
        finger.rename_label(crate::cached::ALPHA_A, g_net);
        finger.rename_label(crate::cached::ALPHA_B, row_net);
        return Ok(finger);
    }
    let key = crate::cached::module_key(tech, "mos_finger", |k| {
        k.push(crate::cached::mos_code(mos));
        k.push(w);
        k.push(l);
        k.push(g_net);
        k.push(row_net);
        k.push(gate_contact);
    });
    tech.generate_cached(Stage::Modgen, key, || {
        mos_finger_uncached(tech, mos, w, l, g_net, row_net, gate_contact)
    })
}

fn mos_finger_uncached(
    tech: &GenCtx,
    mos: MosType,
    w: Option<Coord>,
    l: Option<Coord>,
    g_net: &str,
    row_net: &str,
    gate_contact: bool,
) -> Result<LayoutObject, ModgenError> {
    let _stage = tech.stage(Stage::Modgen, || "mos_finger");
    tech.checkpoint(Stage::Modgen)?;
    tech.fault_check(FaultSite::ModgenEntry, "mos_finger")?;
    let prim = Primitives::new(tech);
    let c = Compactor::new(tech);
    let poly = tech.poly()?;
    let diff = mos.diff(tech)?;

    let mut core = LayoutObject::new("finger");
    let (gate_idx, _) = prim.two_rects(&mut core, poly, diff, w, l)?;
    let g_id = core.net(g_net);
    core.shapes_mut()[gate_idx].net = Some(g_id);

    let mut main = LayoutObject::with_capacity("finger", core.len() + 16);
    c.compact(&mut main, &core, Dir::West, &CompactOptions::new())?;
    if gate_contact {
        let polycon = contact_row(
            tech,
            poly,
            &ContactRowParams::new()
                .with_net(g_net)
                .with_variable_edges(),
        )?;
        c.compact(
            &mut main,
            &polycon,
            Dir::South,
            &CompactOptions::new().ignoring(poly),
        )?;
    }
    let w_actual = main.bbox_on(diff).height();
    let row = contact_row(
        tech,
        diff,
        &ContactRowParams::new().with_l(w_actual).with_net(row_net),
    )?;
    c.compact(
        &mut main,
        &row,
        Dir::East,
        &CompactOptions::new().ignoring(diff),
    )?;
    Ok(main)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen_drc::Drc;
    use amgen_extract::Extractor;
    use amgen_geom::um;
    use amgen_tech::Tech;

    fn tech() -> GenCtx {
        GenCtx::from_tech(&Tech::bicmos_1u())
    }

    #[test]
    fn nmos_is_drc_clean() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = mos_transistor(&t, &MosParams::new(MosType::N).with_w(um(10)).with_l(um(2)))?;
        let v = Drc::new(&t).check_spacing(&m);
        assert!(v.is_empty(), "{v:?}");
        let v = Drc::new(&t).check_widths(&m);
        assert!(v.is_empty(), "{v:?}");
        let v = Drc::new(&t).check_enclosures(&m);
        assert!(v.is_empty(), "{v:?}");
        Ok(())
    }

    #[test]
    fn pmos_gets_well_and_implant() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = mos_transistor(&t, &MosParams::new(MosType::P).with_w(um(8)))?;
        let nwell = t.layer("nwell")?;
        let pdiff = t.layer("pdiff")?;
        let well = m.bbox_on(nwell);
        assert!(!well.is_empty());
        let enc = t.enclosure(nwell, pdiff);
        assert!(well.inflated(-enc).contains_rect(&m.bbox_on(pdiff)));
        Ok(())
    }

    #[test]
    fn terminals_are_three_distinct_nets() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = mos_transistor(&t, &MosParams::new(MosType::N).with_w(um(10)))?;
        let nets = Extractor::new(&t).connectivity(&m);
        // The gate net, source net and drain net are distinct components
        // (diffusion under the gate merges s and d geometrically only via
        // the channel region, which is one ndiff rect — so s/d/“channel”
        // form one component; declared conflicts must still be empty).
        let conflicts: Vec<_> = nets.iter().filter(|n| n.is_conflict()).collect();
        // The shared diffusion rectangle legitimately joins s and d (the
        // channel); every other component carries at most one name.
        assert!(conflicts.len() <= 1, "{conflicts:?}");
        assert!(m.port("g").is_some());
        assert!(m.port("s").is_some());
        assert!(m.port("d").is_some());
        Ok(())
    }

    #[test]
    fn source_drain_rows_merge_into_diffusion() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = mos_transistor(&t, &MosParams::new(MosType::N).with_w(um(10)).with_l(um(1)))?;
        let ndiff = t.layer("ndiff")?;
        // The diffusion shapes form one connected region spanning the rows
        // and the channel.
        let region: amgen_geom::Region = m.shapes_on(ndiff).map(|s| s.rect).collect();
        let mut merged = region.clone();
        merged.normalize();
        // All diffusion overlaps/abuts into one extent horizontally.
        let bbox = region.bbox();
        assert!(bbox.width() > um(5), "rows extend the diffusion");
        // No diffusion gap: covered area equals a single band? The rows
        // and channel may differ in height, so just check x-continuity by
        // sampling.
        let y_mid = bbox.y0 + bbox.height() / 2;
        let step = t.grid();
        let mut x = bbox.x0;
        while x < bbox.x1 {
            let probe = amgen_geom::Rect::new(x, y_mid, x + step, y_mid + step);
            assert!(region.intersects(&probe), "diffusion gap at x={x}");
            x += step;
        }
        Ok(())
    }

    #[test]
    fn gate_contact_can_be_omitted() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let with = mos_transistor(&t, &MosParams::new(MosType::N).with_w(um(6)))?;
        let without = mos_transistor(
            &t,
            &MosParams::new(MosType::N)
                .with_w(um(6))
                .without_gate_contact(),
        )?;
        assert!(without.len() < with.len());
        assert!(without.port("g").is_none());
        assert!(without.bbox().height() < with.bbox().height());
        Ok(())
    }

    #[test]
    fn custom_net_names_become_ports() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let m = mos_transistor(
            &t,
            &MosParams::new(MosType::N).with_nets("bias", "vss", "out"),
        )?;
        assert!(m.port("bias").is_some());
        assert!(m.port("vss").is_some());
        assert!(m.port("out").is_some());
        Ok(())
    }

    #[test]
    fn minimum_device_works_in_both_decks() -> Result<(), Box<dyn std::error::Error>> {
        for tech in [Tech::bicmos_1u(), Tech::cmos_08()] {
            let t = GenCtx::from_tech(&tech);
            let m = mos_transistor(&t, &MosParams::new(MosType::N))?;
            let v = Drc::new(&t).check_spacing(&m);
            assert!(v.is_empty(), "{}: {v:?}", t.name());
        }
        Ok(())
    }

    #[test]
    fn wider_channel_grows_the_device() -> Result<(), Box<dyn std::error::Error>> {
        let t = tech();
        let a = mos_transistor(&t, &MosParams::new(MosType::N).with_w(um(5)))?;
        let b = mos_transistor(&t, &MosParams::new(MosType::N).with_w(um(20)))?;
        assert!(b.bbox().height() > a.bbox().height());
        Ok(())
    }
}
