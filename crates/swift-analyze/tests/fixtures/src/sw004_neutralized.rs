//! SW004 negative fixture: every unordered iteration here is
//! immediately neutralized — collected into an ordered container,
//! reduced to an order-insensitive aggregate, or sorted before use.
//! A line-local lexical match flags all four sites; the taint engine
//! must stay silent on every one of them.

use std::collections::{BTreeMap, HashMap};

pub fn snapshot(slots: &HashMap<u32, u64>) -> BTreeMap<u32, u64> {
    slots.iter().map(|(&k, &v)| (k, v)).collect()
}

pub fn occupancy(slots: &HashMap<u32, u64>) -> usize {
    slots.values().count()
}

pub fn total_bytes(slots: &HashMap<u32, u64>) -> u64 {
    slots.values().sum()
}

pub fn ordered_keys(slots: &HashMap<u32, u64>) -> Vec<u32> {
    let mut keys: Vec<u32> = slots.keys().copied().collect();
    keys.sort_unstable();
    keys
}
