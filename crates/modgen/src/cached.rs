//! The one entry every module generator runs through.
//!
//! A public generator is its name, a key closure and a build closure
//! handed to [`generate`], which owns the whole entry protocol:
//!
//! 1. with an active [`GenCache`](amgen_core::GenCache) (installed, and
//!    no fault hook — chaos runs must probe every site), the key closure
//!    canonicalizes the designer-facing parameters into a [`GenKey`]
//!    (entity name + compiled-rule brand + parameter vector); otherwise
//!    it never runs and no cache is consulted;
//! 2. a keyed call checkpoints (so cached serving still honours the
//!    run's cancellation and deadline), then serves a hit: no `modgen`
//!    span, no stage time, only the `cache.hit` instant and counter;
//! 3. otherwise it opens the [`Stage::Modgen`] guard under the
//!    generator's name, checkpoints, probes [`FaultSite::ModgenEntry`],
//!    builds, and stores the result when the build succeeded — errors
//!    (budget, cancellation, faults) are never stored and always re-run.
//!
//! Layout-only generators and the ones that also return a value
//! (`poly_resistor`, `matched_resistor_pair`, `mos_capacitor`) share the
//! entry through [`Module`].
//!
//! # α-renaming of net labels
//!
//! Net (and port) labels are *designer-facing addresses*, not geometry:
//! `mos_finger(.., "g1", "d1", ..)` and `mos_finger(.., "g2", "s", ..)`
//! produce structurally identical layouts that differ only in labels.
//! Keying on the labels would give every such call its own cache entry
//! and defeat intra-build dedup (a diff pair's two fingers, a centroid
//! quad's four). Generators whose labels are pure relabelings therefore
//! cache the *canonical* form: the key omits the labels, the build runs
//! under reserved placeholder labels ([`ALPHA_A`]/[`ALPHA_B`]), and the
//! served module — hit or miss — is α-renamed to the caller's labels via
//! [`LayoutObject::rename_label`](amgen_db::LayoutObject::rename_label).
//! Placeholders start with a control byte no parser or caller can
//! produce, so they can never collide with real labels.

use std::sync::Arc;

use amgen_core::{CachedModule, FaultSite, GenCtx, GenKey, Stage};
use amgen_db::LayoutObject;

use crate::error::ModgenError;
use crate::mos::MosType;

/// First canonical placeholder label (a gate net, a row net).
pub(crate) const ALPHA_A: &str = "\u{1}a";
/// Second canonical placeholder label.
pub(crate) const ALPHA_B: &str = "\u{1}b";

/// A generator's result as the cache stores it: the layout, plus the
/// scalar outputs in the generator's return order.
pub(crate) trait Module: Sized {
    fn to_cached(&self) -> CachedModule;
    fn from_cached(m: &CachedModule) -> Self;
}

impl Module for LayoutObject {
    fn to_cached(&self) -> CachedModule {
        CachedModule::layout(self.clone())
    }
    fn from_cached(m: &CachedModule) -> Self {
        m.layout.clone()
    }
}

impl Module for (LayoutObject, f64) {
    fn to_cached(&self) -> CachedModule {
        CachedModule {
            layout: self.0.clone(),
            scalars: vec![self.1],
        }
    }
    fn from_cached(m: &CachedModule) -> Self {
        (m.layout.clone(), m.scalars[0])
    }
}

impl Module for (LayoutObject, f64, f64) {
    fn to_cached(&self) -> CachedModule {
        CachedModule {
            layout: self.0.clone(),
            scalars: vec![self.1, self.2],
        }
    }
    fn from_cached(m: &CachedModule) -> Self {
        (m.layout.clone(), m.scalars[0], m.scalars[1])
    }
}

/// Runs generator `name` through the entry protocol (see the module
/// docs): `fill` pushes the key's parameters and runs only while caching
/// is active; `build` is the generator body.
pub(crate) fn generate<M: Module>(
    ctx: &GenCtx,
    name: &'static str,
    fill: impl FnOnce(&mut GenKey),
    build: impl FnOnce() -> Result<M, ModgenError>,
) -> Result<M, ModgenError> {
    let key = ctx.cache_active().then(|| {
        let mut key = GenKey::module(name, ctx.id());
        fill(&mut key);
        key
    });
    if let Some(key) = &key {
        ctx.checkpoint(Stage::Modgen)?;
        if let Some(hit) = ctx.cache_get(Stage::Modgen, key) {
            return Ok(M::from_cached(&hit));
        }
    }
    let built = {
        let _stage = ctx.stage(Stage::Modgen, || name);
        ctx.checkpoint(Stage::Modgen)?;
        ctx.fault_check(FaultSite::ModgenEntry, name)?;
        build()?
    };
    if let Some(key) = key {
        ctx.cache_put(key, Arc::new(built.to_cached()));
    }
    Ok(built)
}

/// Stable key code for a device polarity.
pub(crate) fn mos_code(m: MosType) -> u64 {
    match m {
        MosType::N => 0,
        MosType::P => 1,
    }
}
