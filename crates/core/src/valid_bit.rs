//! The valid-bit reuse test (§3.3's alternative mechanism).
//!
//! > "Another possibility is to add to each RTM entry a valid bit. When a
//! > trace is stored its valid bit is set. For every register/memory
//! > write, all the RTM entries with a matching register/memory location
//! > in its input list are invalidated. The latter approach requires a
//! > much simpler reuse test (just checking the valid bit)."
//!
//! [`InvalidatingRtm`] implements that scheme: a slab of entries with a
//! reverse index from input location to the entries that read it. The
//! processor notifies every architectural write via
//! [`ReuseBackend::on_write`], which conservatively invalidates — even a
//! *silent* write (same value) kills the entry, which is exactly the
//! reuse this scheme forfeits relative to the full value comparison. The
//! `reproduce validbit` experiment quantifies the gap.
//!
//! Capacity semantics mirror the RTM geometry: the same total entry
//! count and the same per-PC limit, with invalid-first / oldest-next
//! replacement (a valid-bit design would naturally prefer reclaiming
//! dead entries).

use crate::ilr::SetAssocGeometry;
use crate::rtm::{ReuseBackend, RtmStats};
use crate::trace::TraceRecord;
use tlr_isa::Loc;
use tlr_util::FxHashMap;

/// One slab slot.
struct Slot {
    rec: TraceRecord,
    valid: bool,
    /// Insertion order stamp (for oldest-first replacement).
    stamp: u64,
}

/// The valid-bit Reuse Trace Memory.
pub struct InvalidatingRtm {
    geometry: SetAssocGeometry,
    slots: Vec<Option<Slot>>,
    /// Per slot id, bumped by every eviction and never reset, so a
    /// reverse-index reference to an earlier occupant goes stale.
    generations: Vec<u32>,
    /// Ids of emptied slots, reused before anything is evicted.
    free: Vec<u32>,
    /// PC → slot ids, most recently stored last.
    by_pc: FxHashMap<u32, Vec<u32>>,
    /// Input location → (slot id, generation) that must die when the
    /// location is written.
    watchers: FxHashMap<Loc, Vec<(u32, u32)>>,
    stamp: u64,
    stats: RtmStats,
    invalidations: u64,
}

impl InvalidatingRtm {
    /// Empty memory with the given geometry (total capacity and per-PC
    /// limit are taken from it).
    pub fn new(geometry: SetAssocGeometry) -> Self {
        let cap = geometry.capacity() as usize;
        Self {
            geometry,
            slots: Vec::with_capacity(cap.min(4096)),
            generations: Vec::with_capacity(cap.min(4096)),
            free: Vec::new(),
            by_pc: FxHashMap::default(),
            watchers: FxHashMap::default(),
            stamp: 0,
            stats: RtmStats::default(),
            invalidations: 0,
        }
    }

    /// Entries invalidated by writes so far.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Currently resident *valid* entries.
    pub fn valid_entries(&self) -> u64 {
        self.slots.iter().flatten().filter(|s| s.valid).count() as u64
    }

    /// An empty slot id: a freed one, else a new one below capacity,
    /// else one emptied by evicting an invalid entry if any, else the
    /// oldest.
    fn allocate(&mut self) -> u32 {
        if let Some(id) = self.free.pop() {
            return id;
        }
        if self.slots.len() < self.geometry.capacity() as usize {
            self.slots.push(None);
            self.generations.push(0);
            return (self.slots.len() - 1) as u32;
        }
        let victim = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
            .min_by_key(|(_, s)| (s.valid, s.stamp))
            .map(|(i, _)| i as u32)
            .expect("capacity > 0, so a victim exists");
        self.evict(victim);
        self.free.pop().expect("eviction freed a slot")
    }

    /// Empty slot `id`, free it, and make its watchers stale.
    fn evict(&mut self, id: u32) {
        if let Some(slot) = self.slots[id as usize].take() {
            let pc = slot.rec.start_pc;
            if let Some(list) = self.by_pc.get_mut(&pc) {
                list.retain(|x| *x != id);
                if list.is_empty() {
                    self.by_pc.remove(&pc);
                }
            }
            let generation = &mut self.generations[id as usize];
            *generation = generation.wrapping_add(1);
            self.free.push(id);
            self.stats.evictions += 1;
        }
    }
}

impl ReuseBackend for InvalidatingRtm {
    fn lookup(&mut self, pc: u32, _state: &dyn Fn(Loc) -> u64) -> Option<TraceRecord> {
        self.stats.lookups += 1;
        let list = self.by_pc.get(&pc)?;
        // Most recently stored first; the reuse test is just the valid
        // bit — no value comparison.
        let hit = list.iter().rev().find_map(|id| {
            let slot = self.slots[*id as usize].as_ref()?;
            slot.valid.then(|| slot.rec.clone())
        });
        if hit.is_some() {
            self.stats.hits += 1;
        }
        hit
    }

    fn insert(&mut self, rec: TraceRecord, state: &dyn Fn(Loc) -> u64) {
        // Per-PC limit: evict this PC's oldest entry when full.
        if let Some(list) = self.by_pc.get(&rec.start_pc) {
            if list.len() >= self.geometry.per_pc as usize {
                let victim = list[0];
                self.evict(victim);
            }
        }
        // The entry is born valid only if its recorded live-in values
        // still equal the architectural state at store time: a trace
        // that overwrote its own inputs (a loop counter, say) is dead on
        // arrival under this scheme.
        let valid = rec.ins.iter().all(|(loc, val)| state(*loc) == *val);
        let id = self.allocate();
        self.stamp += 1;
        let generation = self.generations[id as usize];
        for (loc, _) in rec.ins.iter() {
            self.watchers
                .entry(*loc)
                .or_default()
                .push((id, generation));
        }
        self.by_pc.entry(rec.start_pc).or_default().push(id);
        self.slots[id as usize] = Some(Slot {
            rec,
            valid,
            stamp: self.stamp,
        });
        self.stats.stores += 1;
    }

    fn on_write(&mut self, loc: Loc) {
        let Some(watchers) = self.watchers.remove(&loc) else {
            return;
        };
        for (id, generation) in watchers {
            if self.generations[id as usize] != generation {
                continue;
            }
            if let Some(slot) = self.slots[id as usize].as_mut() {
                if slot.valid {
                    slot.valid = false;
                    self.invalidations += 1;
                }
            }
        }
    }

    fn stats(&self) -> RtmStats {
        self.stats
    }

    fn resident(&self) -> u64 {
        self.slots.iter().flatten().count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pc: u32, ins: &[(Loc, u64)], outs: &[(Loc, u64)]) -> TraceRecord {
        TraceRecord {
            start_pc: pc,
            next_pc: pc + 3,
            len: 3,
            ins: ins.to_vec().into_boxed_slice(),
            outs: outs.to_vec().into_boxed_slice(),
            mix: Default::default(),
        }
    }

    const R1: Loc = Loc::IntReg(1);
    const R2: Loc = Loc::IntReg(2);

    fn geometry() -> SetAssocGeometry {
        SetAssocGeometry {
            sets: 4,
            ways: 2,
            per_pc: 2,
        }
    }

    #[test]
    fn valid_entry_hits_without_value_comparison() {
        let mut rtm = InvalidatingRtm::new(geometry());
        let state = |loc: Loc| if loc == R1 { 5 } else { 0 };
        rtm.insert(rec(10, &[(R1, 5)], &[(R2, 9)]), &state);
        // The lookup's state closure is ignored by this backend.
        let wrong_state = |_: Loc| 12345u64;
        assert!(rtm.lookup(10, &wrong_state).is_some());
    }

    #[test]
    fn write_to_input_invalidates() {
        let mut rtm = InvalidatingRtm::new(geometry());
        let state = |loc: Loc| if loc == R1 { 5 } else { 0 };
        rtm.insert(rec(10, &[(R1, 5)], &[(R2, 9)]), &state);
        rtm.on_write(R1);
        assert!(rtm.lookup(10, &|_| 0).is_none());
        assert_eq!(rtm.invalidations(), 1);
        assert_eq!(rtm.valid_entries(), 0);
        // A silent write (same value) also kills it — the scheme's
        // conservatism.
        rtm.insert(rec(10, &[(R1, 5)], &[(R2, 9)]), &state);
        rtm.on_write(R1); // architecturally rewrote 5 with 5
        assert!(rtm.lookup(10, &|_| 0).is_none());
    }

    #[test]
    fn self_clobbering_trace_is_dead_on_arrival() {
        let mut rtm = InvalidatingRtm::new(geometry());
        // Live-in r1=5, but by store time r1 holds 6 (the trace wrote it).
        let state = |loc: Loc| if loc == R1 { 6 } else { 0 };
        rtm.insert(rec(10, &[(R1, 5)], &[(R1, 6)]), &state);
        assert!(rtm.lookup(10, &|_| 0).is_none());
        assert_eq!(rtm.valid_entries(), 0);
    }

    #[test]
    fn writes_to_unrelated_locations_do_not_invalidate() {
        let mut rtm = InvalidatingRtm::new(geometry());
        let state = |loc: Loc| if loc == R1 { 5 } else { 0 };
        rtm.insert(rec(10, &[(R1, 5)], &[]), &state);
        rtm.on_write(R2);
        rtm.on_write(Loc::Mem(99));
        assert!(rtm.lookup(10, &|_| 0).is_some());
    }

    #[test]
    fn per_pc_limit_evicts_oldest() {
        let mut rtm = InvalidatingRtm::new(geometry()); // per_pc = 2
        let state = |_: Loc| 0u64;
        rtm.insert(rec(10, &[], &[(R2, 1)]), &state);
        rtm.insert(rec(10, &[], &[(R2, 2)]), &state);
        rtm.insert(rec(10, &[], &[(R2, 3)]), &state);
        assert_eq!(rtm.resident(), 2);
        // Newest wins the lookup.
        let hit = rtm.lookup(10, &|_| 0).unwrap();
        assert_eq!(hit.outs[0].1, 3);
    }

    #[test]
    fn capacity_eviction_prefers_invalid_entries() {
        let g = SetAssocGeometry {
            sets: 1,
            ways: 1,
            per_pc: 2,
        }; // capacity 2
        let mut rtm = InvalidatingRtm::new(g);
        let state = |_: Loc| 0u64;
        rtm.insert(rec(1, &[(R1, 0)], &[]), &state);
        rtm.insert(rec(2, &[(R2, 0)], &[]), &state);
        rtm.on_write(R1); // entry for pc 1 is now invalid
        rtm.insert(rec(3, &[], &[]), &state); // evicts the invalid one
        assert!(rtm.lookup(2, &|_| 0).is_some(), "valid entry survived");
        assert!(rtm.lookup(3, &|_| 0).is_some());
        assert!(rtm.lookup(1, &|_| 0).is_none());
    }

    #[test]
    fn per_pc_evictions_free_their_slots() {
        let g = SetAssocGeometry {
            sets: 1,
            ways: 2,
            per_pc: 2,
        }; // capacity 4
        let mut rtm = InvalidatingRtm::new(g);
        let state = |_: Loc| 0u64;
        for v in 1..=3 {
            rtm.insert(rec(10, &[], &[(R2, v)]), &state);
        }
        rtm.insert(rec(20, &[], &[]), &state);
        rtm.insert(rec(30, &[], &[]), &state);
        assert_eq!(rtm.resident(), 4);
        assert_eq!(rtm.stats().evictions, 1, "only the per-PC eviction");
        for pc in [10, 20, 30] {
            assert!(rtm.lookup(pc, &|_| 0).is_some(), "pc {pc}");
        }
    }

    #[test]
    fn reused_slot_ignores_the_previous_occupants_inputs() {
        let g = SetAssocGeometry {
            sets: 1,
            ways: 1,
            per_pc: 2,
        }; // capacity 2
        let mut rtm = InvalidatingRtm::new(g);
        let state = |_: Loc| 0u64;
        rtm.insert(rec(1, &[(R1, 0)], &[]), &state);
        rtm.insert(rec(2, &[(R2, 0)], &[]), &state);
        rtm.insert(rec(3, &[], &[]), &state); // evicts pc 1, the oldest
        assert!(rtm.lookup(1, &|_| 0).is_none());
        rtm.on_write(R1); // pc 1's live-in, not pc 3's
        assert!(rtm.lookup(3, &|_| 0).is_some(), "pc 3 survives the write");
        assert_eq!(rtm.invalidations(), 0);
    }
}
