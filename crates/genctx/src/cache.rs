//! Content-addressed memoization of generated modules.
//!
//! Generation in this environment is *pure*: the layout produced by a
//! module generator or a DSL entity is fully determined by the entity
//! name, its parameter values, the compiled technology and (for DSL
//! entities) the source of the entity library. [`GenCache`] exploits
//! that purity: results are stored under a canonical [`GenKey`] and a
//! repeated build with the same key returns the stored
//! [`Arc`]`<`[`CachedModule`]`>` instead of re-running primitives,
//! compaction, DRC and routing.
//!
//! The cache is only as correct as the key, so canonicalization is
//! strict:
//!
//! * float parameters are keyed by [`f64::to_bits`] **after** folding
//!   `-0.0` to `0.0` (the two compare equal and generate identical
//!   layouts, so they must share a key), and `NaN` is rejected with a
//!   typed [`GenError`] — `NaN != NaN`, so a NaN-keyed entry could
//!   never be correct, and downstream coordinate math would silently
//!   turn it into `0`;
//! * layout-object parameters (a guard ring's core, an optimizer step)
//!   are keyed by an **order-sensitive** digest over shapes, ports,
//!   groups and the object name — stricter than the commutative
//!   [`LayoutSignature`], because stage behaviour may depend on shape
//!   order;
//! * the key carries the [`RuleSet`](amgen_tech::RuleSet) compile brand
//!   (`tech_id`) and a caller-supplied `source` hash (the DSL
//!   interpreter hashes its whole entity library), so retargeting or
//!   redefining an entity can never serve a stale layout.
//!
//! Robustness semantics (PR 5) are preserved by the [`GenCtx`](crate::GenCtx) entry
//! points, not here: errors are never inserted, and a context with an
//! installed fault hook bypasses the cache entirely so chaos tests
//! observe every probe.
//!
//! ```
//! use amgen_core::cache::{CanonParam, GenCache, GenKey, CachedModule};
//! use amgen_core::Stage;
//! use std::sync::Arc;
//!
//! let cache = GenCache::new();
//! let mut key = GenKey::module("contact_row", 7);
//! key.push(CanonParam::num(Stage::Modgen, 1.5).unwrap());
//! assert!(cache.get(&key).is_none());
//! cache.put(key.clone(), Arc::new(CachedModule::layout(Default::default())));
//! assert!(cache.get(&key).is_some());
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use amgen_db::{LayoutObject, LayoutSignature};

use crate::{GenError, Stage};

/// One canonicalized parameter of a [`GenKey`].
///
/// Every designer-facing parameter type maps onto exactly one variant,
/// chosen so that *value equality implies key equality* (the float rule)
/// and *key equality implies identical generation* (the object digest).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CanonParam {
    /// A signed integer (coordinates, counts).
    Int(i64),
    /// An unsigned integer (indices, layer numbers).
    UInt(u64),
    /// A float, canonicalized to its IEEE-754 bit pattern with `-0.0`
    /// folded to `0.0`; built only through [`CanonParam::num`].
    Bits(u64),
    /// A string (net names, port names).
    Str(String),
    /// A boolean flag.
    Flag(bool),
    /// An absent optional parameter, or a field delimiter.
    None,
    /// Digest of a [`LayoutObject`] parameter; built through
    /// [`CanonParam::object`].
    Object {
        /// Order-sensitive digest over name, shapes, ports and groups.
        hash: u64,
        /// Shape count (cheap second check against digest collisions).
        shapes: u64,
    },
}

/// FNV-1a step: digest one 64-bit word into `h`.
#[inline]
fn mix(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// FNV-1a over a byte string, plus a terminator so `("ab","c")` and
/// `("a","bc")` digest differently.
#[inline]
fn mix_str(h: &mut u64, s: &str) {
    for b in s.as_bytes() {
        mix(h, u64::from(*b));
    }
    mix(h, 0xff);
}

impl CanonParam {
    /// Canonicalizes a float parameter.
    ///
    /// `-0.0` is folded to `0.0` so the two (equal) values share one
    /// key; `NaN` is rejected with a typed [`GenError`] charged to
    /// `stage` — a NaN parameter is always a caller bug (`NaN != NaN`
    /// breaks key equality, and coordinate scaling would silently cast
    /// it to `0`).
    ///
    /// ```
    /// use amgen_core::cache::CanonParam;
    /// use amgen_core::Stage;
    ///
    /// assert_eq!(
    ///     CanonParam::num(Stage::Dsl, -0.0).unwrap(),
    ///     CanonParam::num(Stage::Dsl, 0.0).unwrap(),
    /// );
    /// assert!(CanonParam::num(Stage::Dsl, f64::NAN).is_err());
    /// ```
    pub fn num(stage: Stage, v: f64) -> Result<CanonParam, GenError> {
        if v.is_nan() {
            return Err(GenError::stage_msg(
                stage,
                "NaN parameter cannot be canonicalized (NaN != NaN breaks value equality)",
            ));
        }
        let v = if v == 0.0 { 0.0 } else { v };
        Ok(CanonParam::Bits(v.to_bits()))
    }

    /// Digests a [`LayoutObject`] parameter.
    ///
    /// The digest is **order-sensitive** over the shape list (two
    /// objects with the same shape *multiset* but different order are
    /// distinct keys — compaction walks shapes in order) and covers the
    /// object name, per-shape hashes (geometry, layer, net, edge
    /// properties), ports and groups, so any input difference that
    /// could change a generated result changes the key.
    pub fn object(o: &LayoutObject) -> CanonParam {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        mix_str(&mut h, o.name());
        for shape in o.shape_hashes() {
            mix(&mut h, shape);
        }
        mix(&mut h, 0xa5a5);
        for p in o.ports() {
            mix_str(&mut h, &p.name);
            mix(&mut h, p.layer.index() as u64);
            for c in [p.rect.x0, p.rect.y0, p.rect.x1, p.rect.y1] {
                mix(&mut h, c as u64);
            }
            match p.net {
                Some(id) => mix_str(&mut h, o.net_name(id)),
                None => mix(&mut h, 0),
            }
        }
        mix(&mut h, 0x5a5a);
        for g in o.groups() {
            mix_str(&mut h, &g.name);
            for &i in &g.shapes {
                mix(&mut h, i as u64);
            }
            match g.rebuild {
                Some(amgen_db::RebuildKind::ContactArray { cut }) => {
                    mix(&mut h, 1 + cut.index() as u64);
                }
                None => mix(&mut h, 0),
            }
        }
        CanonParam::Object {
            hash: h,
            shapes: o.len() as u64,
        }
    }
}

impl From<i64> for CanonParam {
    fn from(v: i64) -> CanonParam {
        CanonParam::Int(v)
    }
}

impl From<u64> for CanonParam {
    fn from(v: u64) -> CanonParam {
        CanonParam::UInt(v)
    }
}

impl From<usize> for CanonParam {
    fn from(v: usize) -> CanonParam {
        CanonParam::UInt(v as u64)
    }
}

impl From<bool> for CanonParam {
    fn from(v: bool) -> CanonParam {
        CanonParam::Flag(v)
    }
}

impl From<&str> for CanonParam {
    fn from(v: &str) -> CanonParam {
        CanonParam::Str(v.to_owned())
    }
}

impl From<String> for CanonParam {
    fn from(v: String) -> CanonParam {
        CanonParam::Str(v)
    }
}

impl<T: Into<CanonParam>> From<Option<T>> for CanonParam {
    fn from(v: Option<T>) -> CanonParam {
        match v {
            Some(v) => v.into(),
            None => CanonParam::None,
        }
    }
}

/// The canonical content address of one generated module.
///
/// Two keys compare equal exactly when the generation they describe is
/// guaranteed to produce structurally identical results: same entity
/// name, same canonicalized parameter vector, same compiled-rule brand
/// and same source hash.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GenKey {
    /// Entity / generator name.
    pub entity: String,
    /// [`RuleSet::id`](amgen_tech::RuleSet::id) brand of the compiled
    /// technology the result was generated under.
    pub tech_id: u32,
    /// Hash of the defining source (the DSL entity library); `0` for
    /// built-in Rust generators, whose "source" is the crate itself.
    pub source: u64,
    /// Canonicalized parameters, in declaration order.
    pub params: Vec<CanonParam>,
}

impl GenKey {
    /// Key for a built-in Rust module generator (`source = 0`).
    pub fn module(entity: impl Into<String>, tech_id: u32) -> GenKey {
        GenKey::entity(entity, tech_id, 0)
    }

    /// Key for a source-defined entity (DSL), carrying the library hash.
    pub fn entity(entity: impl Into<String>, tech_id: u32, source: u64) -> GenKey {
        GenKey {
            entity: entity.into(),
            tech_id,
            source,
            params: Vec::new(),
        }
    }

    /// Appends one canonicalized parameter.
    pub fn push(&mut self, p: impl Into<CanonParam>) -> &mut GenKey {
        self.params.push(p.into());
        self
    }
}

/// A memoized generation result: the layout plus any auxiliary scalar
/// outputs (extracted resistance, capacitance) some generators return
/// alongside it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CachedModule {
    /// The generated layout.
    pub layout: LayoutObject,
    /// Auxiliary scalar outputs, in the generator's return order
    /// (empty for layout-only generators).
    pub scalars: Vec<f64>,
}

impl CachedModule {
    /// Wraps a layout-only result.
    pub fn layout(layout: LayoutObject) -> CachedModule {
        CachedModule {
            layout,
            scalars: Vec::new(),
        }
    }
}

/// One precomputed compaction-order variant of a module (Badaoui/Vemuri
/// style multi-placement entry): the order, its rating components and
/// the signature of the layout it compacts to.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementVariant {
    /// Step order (indices into the caller's step list).
    pub order: Vec<usize>,
    /// Combined weighted score (lower is better).
    pub score: f64,
    /// Area component, µm².
    pub area_um2: f64,
    /// Weighted parasitic capacitance component, aF.
    pub cap_af: f64,
    /// Signature of the compacted layout this order produces.
    pub signature: LayoutSignature,
}

/// The stored variant set for one optimizer key: the winning layout and
/// the top-k orders, best first. A warm `optimize_order` call
/// instantiates `variants[0]` in O(1) instead of re-searching.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantTable {
    /// The layout produced by the best order.
    pub layout: LayoutObject,
    /// Top-k complete orders, sorted by (score, order) — best first,
    /// deterministic ties.
    pub variants: Vec<PlacementVariant>,
}

/// A module entry plus its LRU tick.
#[derive(Debug)]
struct Slot<V> {
    value: V,
    last_used: u64,
}

const SHARDS: usize = 16;

/// Default total module-entry capacity.
const DEFAULT_CAPACITY: usize = 4096;

/// Sharded, content-addressed store of generated modules and optimizer
/// variant tables.
///
/// * lookups hash the [`GenKey`] to one of 16 shards, each behind its
///   own mutex, so parallel search workers rarely contend;
/// * eviction is least-recently-used per shard, driven by a global
///   atomic tick — every tick is unique, so eviction order is
///   deterministic for a deterministic operation sequence;
/// * hit/miss/evict accounting lives in [`Metrics`](crate::Metrics),
///   bumped by the [`GenCtx`](crate::GenCtx) entry points (the raw
///   cache is policy-free).
#[derive(Debug)]
pub struct GenCache {
    shards: [Mutex<HashMap<GenKey, Slot<Arc<CachedModule>>>>; SHARDS],
    variants: Mutex<HashMap<GenKey, Slot<Arc<VariantTable>>>>,
    tick: AtomicU64,
    per_shard: usize,
    variant_capacity: usize,
}

impl Default for GenCache {
    fn default() -> GenCache {
        GenCache::new()
    }
}

impl GenCache {
    /// A cache with the default capacity (4096 module entries, 512
    /// variant tables).
    pub fn new() -> GenCache {
        GenCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache holding at most `capacity` module entries (rounded up to
    /// a multiple of the shard count) and `capacity / 8` variant
    /// tables, with a floor of one entry each.
    pub fn with_capacity(capacity: usize) -> GenCache {
        GenCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            variants: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            per_shard: (capacity / SHARDS).max(1),
            variant_capacity: (capacity / 8).max(1),
        }
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    fn shard(&self, key: &GenKey) -> &Mutex<HashMap<GenKey, Slot<Arc<CachedModule>>>> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Looks up a module entry, refreshing its LRU tick on a hit.
    pub fn get(&self, key: &GenKey) -> Option<Arc<CachedModule>> {
        let mut map = self.shard(key).lock().unwrap();
        let slot = map.get_mut(key)?;
        slot.last_used = self.next_tick();
        Some(Arc::clone(&slot.value))
    }

    /// Inserts (or refreshes) a module entry; returns how many entries
    /// were evicted to stay within capacity.
    pub fn put(&self, key: GenKey, value: Arc<CachedModule>) -> u64 {
        let tick = self.next_tick();
        let mut map = self.shard(&key).lock().unwrap();
        map.insert(
            key,
            Slot {
                value,
                last_used: tick,
            },
        );
        Self::evict(&mut map, self.per_shard)
    }

    /// Looks up a variant table, refreshing its LRU tick on a hit.
    pub fn variants_get(&self, key: &GenKey) -> Option<Arc<VariantTable>> {
        let mut map = self.variants.lock().unwrap();
        let slot = map.get_mut(key)?;
        slot.last_used = self.next_tick();
        Some(Arc::clone(&slot.value))
    }

    /// Inserts (or refreshes) a variant table; returns evictions.
    pub fn variants_put(&self, key: GenKey, value: Arc<VariantTable>) -> u64 {
        let tick = self.next_tick();
        let mut map = self.variants.lock().unwrap();
        map.insert(
            key,
            Slot {
                value,
                last_used: tick,
            },
        );
        Self::evict(&mut map, self.variant_capacity)
    }

    fn evict<V>(map: &mut HashMap<GenKey, Slot<V>>, capacity: usize) -> u64 {
        let mut evicted = 0;
        while map.len() > capacity {
            // Ticks are globally unique, so the minimum is unambiguous
            // and eviction is deterministic.
            let oldest = map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            match oldest {
                Some(k) => {
                    map.remove(&k);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    /// Every module entry, sorted by key — the deterministic iteration
    /// order [`GenCache::snapshot`](crate::snapshot) serializes.
    /// (Variant tables are not exported: they rebuild on demand and
    /// carry search-internal state not worth persisting.)
    pub(crate) fn export_modules(&self) -> Vec<(GenKey, Arc<CachedModule>)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let map = s.lock().unwrap();
            out.extend(
                map.iter()
                    .map(|(k, slot)| (k.clone(), Arc::clone(&slot.value))),
            );
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Number of stored module entries (excludes variant tables).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// True when no module entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every module entry and variant table.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap().clear();
        }
        self.variants.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(name: &str) -> LayoutObject {
        LayoutObject::new(name)
    }

    #[test]
    fn zero_and_negative_zero_share_a_key() {
        let a = CanonParam::num(Stage::Modgen, 0.0).unwrap();
        let b = CanonParam::num(Stage::Modgen, -0.0).unwrap();
        assert_eq!(a, b);
        // ... and the raw bit patterns would NOT have matched:
        assert_ne!((0.0f64).to_bits(), (-0.0f64).to_bits());
        // Ordinary distinct values stay distinct.
        assert_ne!(a, CanonParam::num(Stage::Modgen, 1.0).unwrap());
    }

    #[test]
    fn nan_is_rejected_with_a_typed_error() {
        let err = CanonParam::num(Stage::Dsl, f64::NAN).unwrap_err();
        assert_eq!(err.stage, Stage::Dsl);
        assert!(err.to_string().contains("NaN"), "{err}");
    }

    #[test]
    fn keys_distinguish_entity_tech_source_and_params() {
        let mut a = GenKey::module("row", 1);
        a.push(3i64).push("gnd").push(true);
        let mut b = a.clone();
        assert_eq!(a, b);
        b.push(CanonParam::None);
        assert_ne!(a, b);
        assert_ne!(GenKey::module("row", 1), GenKey::module("row", 2));
        assert_ne!(GenKey::module("row", 1), GenKey::module("col", 1));
        assert_ne!(GenKey::entity("row", 1, 7), GenKey::entity("row", 1, 8));
    }

    #[test]
    fn object_params_cover_ports_and_order() {
        use amgen_geom::Rect;
        use amgen_tech::Tech;

        let tech = Tech::bicmos_1u();
        let rules = tech.compile_arc();
        let metal = rules.layer("metal1").unwrap();
        let poly = rules.layer("poly").unwrap();

        let mut a = obj("core");
        a.push(amgen_db::Shape::new(metal, Rect::new(0, 0, 10, 10)));
        a.push(amgen_db::Shape::new(poly, Rect::new(0, 0, 4, 4)));
        let mut b = obj("core");
        b.push(amgen_db::Shape::new(poly, Rect::new(0, 0, 4, 4)));
        b.push(amgen_db::Shape::new(metal, Rect::new(0, 0, 10, 10)));
        // Same multiset, different order: distinct digests.
        assert_ne!(CanonParam::object(&a), CanonParam::object(&b));

        // Adding a port changes the digest even with identical shapes.
        let mut c = a.clone();
        c.push_port(amgen_db::Port {
            name: "out".into(),
            layer: metal,
            rect: Rect::new(0, 0, 10, 10),
            net: None,
        });
        assert_ne!(CanonParam::object(&a), CanonParam::object(&c));
    }

    #[test]
    fn cache_round_trips_and_counts_len() {
        let cache = GenCache::new();
        let key = GenKey::module("m", 1);
        assert!(cache.get(&key).is_none());
        assert!(cache.is_empty());
        cache.put(key.clone(), Arc::new(CachedModule::layout(obj("m"))));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key).unwrap().layout.name(), "m");
        cache.clear();
        assert!(cache.get(&key).is_none());
    }

    #[test]
    fn eviction_is_lru_and_counted() {
        // Capacity 16 => one entry per shard; the second insert into a
        // shard evicts the older one.
        let cache = GenCache::with_capacity(16);
        let mut keys = Vec::new();
        for i in 0..64u64 {
            let mut k = GenKey::module("m", 1);
            k.push(i);
            keys.push(k);
        }
        let mut evicted = 0;
        for k in &keys {
            evicted += cache.put(k.clone(), Arc::new(CachedModule::default()));
        }
        assert!(evicted > 0, "64 inserts into 16 slots must evict");
        assert!(cache.len() <= 16);
        // The most recent insert in its shard is always resident.
        assert!(cache.get(keys.last().unwrap()).is_some());
    }

    #[test]
    fn variant_tables_store_separately() {
        let cache = GenCache::new();
        let key = GenKey::module("opt", 1);
        assert!(cache.variants_get(&key).is_none());
        cache.variants_put(
            key.clone(),
            Arc::new(VariantTable {
                layout: obj("best"),
                variants: vec![],
            }),
        );
        assert_eq!(cache.variants_get(&key).unwrap().layout.name(), "best");
        // Module map unaffected.
        assert!(cache.get(&key).is_none());
        assert!(cache.is_empty());
    }
}
