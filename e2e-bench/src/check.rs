//! Output checks. Every operation the benchmark times is also checked:
//! a served response must have the expected outcome class and repeat
//! its first payload byte for byte; a native draw must repeat its first
//! layout signature and sign-off counts. A failed check counts the
//! operation as failed.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

use amgen::db::LayoutSignature;
use amgen::serve::json::{self, Json};

/// Failure messages kept for the report; the count is always exact.
const KEPT_FAILURES: usize = 8;

/// Attempted and failed operations, with the first few failure reasons.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose outcome differed from the expected one.
    pub failed: u64,
    /// The first failure reasons.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation and its check result.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = check {
            self.fail(reason);
        }
    }

    /// Counts a failure that is not tied to one operation's count (a
    /// server counter that must stay 0, a replay mismatch).
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(reason);
        }
    }

    /// Folds another tally (one client thread's) into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        for reason in other.failures {
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(reason);
            }
        }
        self.failed += other.failed;
    }
}

/// Remembers the first output seen for each input key and checks every
/// later output for the same key against it.
#[derive(Debug)]
pub struct Ledger<V> {
    first: HashMap<String, V>,
}

impl<V> Default for Ledger<V> {
    fn default() -> Self {
        Ledger {
            first: HashMap::new(),
        }
    }
}

impl<V: PartialEq + Debug> Ledger<V> {
    /// Records `value` as the reference for `key`, or checks it against
    /// the reference recorded earlier.
    pub fn check(&mut self, key: &str, value: V) -> Result<(), String> {
        match self.first.get(key) {
            None => {
                self.first.insert(key.to_string(), value);
                Ok(())
            }
            Some(first) if *first == value => Ok(()),
            Some(first) => Err(format!(
                "`{key}`: output differs from its first occurrence ({first:?} vs {value:?})"
            )),
        }
    }
}

/// What a request must produce: success, or a refusal with exactly
/// this wire code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `ok: true`.
    Ok,
    /// `ok: false` with this `error.code`, and no fuel spent.
    Refused(&'static str),
}

/// Length and 64-bit hash of a deterministic payload: enough to check
/// byte identity without keeping every payload in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Payload length, bytes.
    pub len: usize,
    /// SipHash of the payload (fixed keys, so stable within a build).
    pub hash: u64,
}

/// The digest of a deterministic payload.
pub fn digest(payload: &str) -> Digest {
    let mut h = std::hash::DefaultHasher::new();
    payload.hash(&mut h);
    Digest {
        len: payload.len(),
        hash: h.finish(),
    }
}

/// The parts of a checked response the benchmark keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Digest of the deterministic payload: the response without its
    /// `stats` section.
    pub digest: Digest,
    /// `stats.fuel_used`.
    pub fuel_used: f64,
    /// `stats.wall_us`: the server's own `checked_run_full` time.
    pub wall_us: f64,
    /// `stats.cache_hits`.
    pub cache_hits: f64,
    /// `stats.cache_misses`.
    pub cache_misses: f64,
}

fn stat(stats: &Json, key: &str) -> Result<f64, String> {
    stats
        .get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("response stats lack `{key}`"))
}

/// Checks one response frame against the request's id and expected
/// outcome class.
pub fn check_response(frame: &[u8], id: &str, expect: Expect) -> Result<Served, String> {
    let text =
        std::str::from_utf8(frame).map_err(|e| format!("`{id}`: response not UTF-8: {e}"))?;
    let doc = json::parse(text).map_err(|e| format!("`{id}`: response not JSON: {e}"))?;
    let Json::Obj(mut map) = doc else {
        return Err(format!("`{id}`: response is not an object"));
    };
    if map.get("id").and_then(Json::as_str) != Some(id) {
        return Err(format!("`{id}`: response id does not echo the request"));
    }
    let code = map
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .map(str::to_string);
    let ok = map.get("ok").and_then(Json::as_bool);
    let stats = map
        .remove("stats")
        .ok_or_else(|| format!("`{id}`: response has no stats"))?;
    let served = Served {
        digest: digest(&Json::Obj(map).to_string()),
        fuel_used: stat(&stats, "fuel_used")?,
        wall_us: stat(&stats, "wall_us")?,
        cache_hits: stat(&stats, "cache_hits")?,
        cache_misses: stat(&stats, "cache_misses")?,
    };
    match (expect, ok, code.as_deref()) {
        (Expect::Ok, Some(true), None) => Ok(served),
        (Expect::Refused(want), Some(false), Some(got)) if got == want => {
            if served.fuel_used == 0.0 {
                Ok(served)
            } else {
                Err(format!(
                    "`{id}`: refused with {} fuel spent, expected none",
                    served.fuel_used
                ))
            }
        }
        _ => Err(format!(
            "`{id}`: expected {expect:?}, got ok={ok:?} code={code:?}"
        )),
    }
}

/// The sign-off of one native layout: what a repeated draw of the same
/// input must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signoff {
    /// Order-insensitive geometric summary.
    pub signature: LayoutSignature,
    /// `Drc::check` violations.
    pub drc: usize,
    /// `check_latchup` violations.
    pub latchup: usize,
    /// Nets found by `Extractor::connectivity`.
    pub nets: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use amgen::geom::Rect;

    const OK: &str = r#"{"diagnostics":[],"id":"r","layouts":{},"ok":true,"protocol":1,"stats":{"cache_hits":1,"cache_misses":0,"fuel_used":3,"wall_us":40}}"#;
    const REFUSED: &str = r#"{"diagnostics":[],"error":{"code":"ADMISSION_REFUSED","phase":"admission"},"id":"b","ok":false,"protocol":1,"stats":{"cache_hits":0,"cache_misses":0,"fuel_used":0,"wall_us":90}}"#;

    #[test]
    fn outcome_class_must_match() {
        let served = check_response(OK.as_bytes(), "r", Expect::Ok).unwrap();
        let without_stats = r#"{"diagnostics":[],"id":"r","layouts":{},"ok":true,"protocol":1}"#;
        assert_eq!(served.digest, digest(without_stats));
        assert_eq!(served.wall_us, 40.0);
        assert!(check_response(OK.as_bytes(), "r", Expect::Refused("LINT_REJECTED")).is_err());
        assert!(check_response(OK.as_bytes(), "other", Expect::Ok).is_err());
        let refused = Expect::Refused("ADMISSION_REFUSED");
        assert!(check_response(REFUSED.as_bytes(), "b", refused).is_ok());
        assert!(check_response(REFUSED.as_bytes(), "b", Expect::Refused("LINT_REJECTED")).is_err());
        assert!(check_response(REFUSED.as_bytes(), "b", Expect::Ok).is_err());
        let spent = REFUSED.replace("\"fuel_used\":0", "\"fuel_used\":7");
        assert!(check_response(spent.as_bytes(), "b", refused).is_err());
    }

    #[test]
    fn tampered_payload_counts_as_a_failed_op() {
        let mut ledger = Ledger::default();
        let mut tally = Tally::default();
        let first = check_response(OK.as_bytes(), "r", Expect::Ok).unwrap();
        tally.record(ledger.check("r", first.digest));
        let tampered = OK.replace("\"layouts\":{}", "\"layouts\":{\"x\":1}");
        let again = check_response(tampered.as_bytes(), "r", Expect::Ok).unwrap();
        tally.record(ledger.check("r", again.digest));
        // A different stats section is not a payload difference.
        let warmer = OK.replace("\"wall_us\":40", "\"wall_us\":41");
        let same = check_response(warmer.as_bytes(), "r", Expect::Ok).unwrap();
        tally.record(ledger.check("r", same.digest));
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        assert_eq!(tally.failures.len(), 1);
    }

    #[test]
    fn tampered_signature_counts_as_a_failed_op() {
        let signoff = Signoff {
            signature: LayoutSignature {
                bbox: Rect::new(0, 0, 10, 10),
                shapes: 4,
                hash: 0xfeed,
            },
            drc: 0,
            latchup: 0,
            nets: 2,
        };
        let mut tampered = signoff;
        tampered.signature.hash ^= 1;
        let mut ledger = Ledger::default();
        let mut tally = Tally::default();
        tally.record(ledger.check("contact_row/bicmos_1u/w4", signoff));
        tally.record(ledger.check("contact_row/bicmos_1u/w4", signoff));
        tally.record(ledger.check("contact_row/bicmos_1u/w4", tampered));
        tally.record(ledger.check("contact_row/cmos_08/w4", tampered));
        assert_eq!((tally.attempted, tally.failed), (4, 1));
    }

    #[test]
    fn tally_keeps_an_exact_count_and_a_few_reasons() {
        let mut tally = Tally::default();
        for i in 0..20 {
            tally.record(Err(format!("op {i}")));
        }
        let mut other = Tally::default();
        other.record(Ok(()));
        tally.absorb(other);
        assert_eq!((tally.attempted, tally.failed), (21, 20));
        assert_eq!(tally.failures.len(), KEPT_FAILURES);
    }
}
