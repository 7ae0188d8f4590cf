//! Fixture: determinism-clean code — BTree containers, injected time,
//! context-derived randomness, symbolic duration floors.
use std::collections::BTreeMap;
#[cfg(test)]
use std::collections::HashSet;

pub fn configure(session: &mut Session, now_ms: f64) -> BTreeMap<String, f64> {
    session.override_pointer_move_min_duration(HLISA_MIN_MOVE_MS);
    let mut out = BTreeMap::new();
    out.insert("now".to_string(), now_ms);
    out
}
