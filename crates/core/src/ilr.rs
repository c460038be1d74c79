//! Instruction-level reusability (§2, §4.2).
//!
//! An executed instruction is *reusable* when some earlier execution of
//! the same static instruction (same PC) had exactly the same inputs —
//! the same read locations with the same values. Sodani & Sohi's reuse
//! buffer tests this in hardware; the limit study uses an unbounded
//! history ([`InstrReuseTable`]), and the realistic study (Figure 9, the
//! `ILR NE` / `ILR EXP` heuristics) uses a finite set-associative buffer
//! with the same entry count as the RTM ([`FiniteIlrBuffer`]).
//!
//! Inputs are compared via the 128-bit [`tlr_isa::DynInstr::input_signature`];
//! at ~2^64 birthday bound a false "reusable" verdict is beyond the reach
//! of any run we perform.

use tlr_isa::DynInstr;
use tlr_util::{FxHashMap, FxHashSet};

/// Unbounded per-PC history of input signatures — the "perfect engine"
/// of Figure 3.
#[derive(Default)]
pub struct InstrReuseTable {
    history: FxHashMap<u32, FxHashSet<u128>>,
    observed: u64,
    reusable: u64,
}

impl InstrReuseTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Test whether `d` is reusable, then record its inputs. The first
    /// execution with given inputs is (by definition) not reusable.
    pub fn probe_insert(&mut self, d: &DynInstr) -> bool {
        self.observed += 1;
        let sig = d.input_signature();
        let set = self.history.entry(d.pc).or_default();
        let reusable = !set.insert(sig);
        if reusable {
            self.reusable += 1;
        }
        reusable
    }

    /// Instructions observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Instructions found reusable so far.
    pub fn reusable(&self) -> u64 {
        self.reusable
    }

    /// Percentage of observed instructions that were reusable
    /// (0–100; 0 when nothing observed).
    pub fn reusability_pct(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            100.0 * self.reusable as f64 / self.observed as f64
        }
    }

    /// Number of static instructions tracked.
    pub fn static_instrs(&self) -> usize {
        self.history.len()
    }

    /// Total distinct input tuples stored (table footprint).
    pub fn stored_tuples(&self) -> usize {
        self.history.values().map(|s| s.len()).sum()
    }
}

/// Geometry of a set-associative, per-PC-grouped reuse structure.
///
/// `sets × ways × per_pc` entries: `sets` is indexed by the PC's low
/// bits, each set holds up to `ways` distinct PCs, and each PC group
/// holds up to `per_pc` entries with LRU replacement at both levels.
/// This is the organization the paper gives for the RTM (§4.6); the
/// finite ILR buffer mirrors it so that "as many entries as the RTM"
/// compares like with like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetAssocGeometry {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Distinct PCs per set.
    pub ways: u32,
    /// Entries per PC group.
    pub per_pc: u32,
}

impl SetAssocGeometry {
    /// Total entry capacity.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.per_pc as u64
    }

    /// Set index for a PC.
    #[inline]
    pub fn set_of(&self, pc: u32) -> usize {
        debug_assert!(self.sets.is_power_of_two());
        (pc & (self.sets - 1)) as usize
    }
}

/// Per-group state derived from a group's entries (the RTM's probe key
/// and tag array; `()` for stores that keep none). [`SetAssocStore`] and
/// [`PcGroup::move_to_mru`] report every change they make to a group's
/// entries, so it never falls out of step with them.
pub(crate) trait GroupIndex<T>: Default {
    /// `entries` gained its last element. When that is the only element,
    /// the group has just been created or handed over from an evicted PC,
    /// and the index starts afresh.
    fn pushed(&mut self, entries: &[T]);
    /// The entry at `idx` was removed.
    fn removed(&mut self, idx: usize);
    /// The entry at `idx` moved to the MRU end.
    fn moved_to_mru(&mut self, idx: usize);
}

impl<T> GroupIndex<T> for () {
    fn pushed(&mut self, _entries: &[T]) {}
    fn removed(&mut self, _idx: usize) {}
    fn moved_to_mru(&mut self, _idx: usize) {}
}

/// One PC group: LRU-ordered entries (most recent last).
pub(crate) struct PcGroup<T, K = ()> {
    pub(crate) pc: u32,
    /// Entries, LRU-ordered: index 0 = least recently used.
    pub(crate) entries: Vec<T>,
    /// Tick of last touch, for group-level LRU.
    pub(crate) last_touch: u64,
    /// State derived from `entries`, kept in step with them.
    pub(crate) index: K,
}

impl<T, K: GroupIndex<T>> PcGroup<T, K> {
    /// Move the entry at `idx` to the MRU end. Callers reach the group
    /// through [`SetAssocStore::group_mut`], which has already stamped
    /// its recency.
    pub(crate) fn move_to_mru(&mut self, idx: usize) {
        self.entries[idx..].rotate_left(1);
        self.index.moved_to_mru(idx);
    }
}

/// A victim rule over a full set's PC groups: returns the index of the
/// group to evict.
pub(crate) type GroupVictim<'a, T, K> = dyn FnMut(&[PcGroup<T, K>]) -> usize + 'a;

/// A two-level LRU set-associative store, generic over the entry payload
/// and a per-group index. Shared by [`FiniteIlrBuffer`] and the RTM.
pub(crate) struct SetAssocStore<T, K = ()> {
    geometry: SetAssocGeometry,
    sets: Vec<Vec<PcGroup<T, K>>>,
    tick: u64,
    /// Entries currently resident.
    pub(crate) resident: u64,
}

impl<T, K: GroupIndex<T>> SetAssocStore<T, K> {
    pub(crate) fn new(geometry: SetAssocGeometry) -> Self {
        assert!(
            geometry.sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(geometry.ways >= 1 && geometry.per_pc >= 1);
        Self {
            geometry,
            sets: (0..geometry.sets).map(|_| Vec::new()).collect(),
            tick: 0,
            resident: 0,
        }
    }

    pub(crate) fn geometry(&self) -> SetAssocGeometry {
        self.geometry
    }

    /// Find the group for `pc`, if resident. Bumps the group's LRU tick.
    pub(crate) fn group_mut(&mut self, pc: u32) -> Option<&mut PcGroup<T, K>> {
        self.tick += 1;
        let set = &mut self.sets[self.geometry.set_of(pc)];
        let group = set.iter_mut().find(|g| g.pc == pc)?;
        group.last_touch = self.tick;
        Some(group)
    }

    /// Insert `entry` into `pc`'s group under pure LRU replacement at
    /// both levels — the paper's hard-wired behaviour. Returns the
    /// number of entries evicted.
    pub(crate) fn insert(&mut self, pc: u32, entry: T) -> u64 {
        self.insert_with(pc, entry, &mut |_| 0, &mut lru_group_victim)
    }

    /// Insert `entry` into `pc`'s group, creating the group if absent and
    /// delegating victim choice to the callers' policy: when the group is
    /// full, `entry_victim` picks the entry index to evict (entries are
    /// in LRU→MRU order, so `0` is pure LRU); when the set is full of
    /// other PCs' groups, `group_victim` picks the group to evict.
    /// Returns the number of entries evicted.
    pub(crate) fn insert_with(
        &mut self,
        pc: u32,
        entry: T,
        entry_victim: &mut dyn FnMut(&[T]) -> usize,
        group_victim: &mut GroupVictim<'_, T, K>,
    ) -> u64 {
        self.tick += 1;
        let per_pc = self.geometry.per_pc as usize;
        let ways = self.geometry.ways as usize;
        let set = &mut self.sets[self.geometry.set_of(pc)];
        let mut evicted = 0u64;
        let group = match set.iter_mut().position(|g| g.pc == pc) {
            Some(i) => &mut set[i],
            None => {
                // A full set hands the evicted group's entry vector and
                // index to the new group instead of freeing them.
                let (entries, index) = if set.len() == ways {
                    let victim = group_victim(set).min(set.len() - 1);
                    let PcGroup {
                        mut entries, index, ..
                    } = set.swap_remove(victim);
                    evicted += entries.len() as u64;
                    self.resident -= entries.len() as u64;
                    entries.clear();
                    (entries, index)
                } else {
                    (Vec::with_capacity(per_pc.min(4)), K::default())
                };
                set.push(PcGroup {
                    pc,
                    entries,
                    last_touch: 0,
                    index,
                });
                let last = set.len() - 1;
                &mut set[last]
            }
        };
        group.last_touch = self.tick;
        if group.entries.len() == per_pc {
            let victim = entry_victim(&group.entries).min(group.entries.len() - 1);
            group.entries.remove(victim);
            group.index.removed(victim);
            evicted += 1;
            self.resident -= 1;
        }
        group.entries.push(entry);
        group.index.pushed(&group.entries);
        self.resident += 1;
        evicted
    }

    /// Iterate all resident entries for snapshotting: groups within each
    /// set in least-recently-touched-first order, entries within a group
    /// in LRU→MRU order. Re-inserting entries in this order into an empty
    /// store of the same geometry reproduces the replacement state.
    pub(crate) fn iter_lru(&self) -> impl Iterator<Item = (u32, &T)> {
        self.sets.iter().flat_map(|set| {
            let mut groups: Vec<&PcGroup<T, K>> = set.iter().collect();
            groups.sort_by_key(|g| g.last_touch);
            groups
                .into_iter()
                .flat_map(|g| g.entries.iter().map(move |e| (g.pc, e)))
        })
    }
}

/// The default group-level victim rule: least recently touched.
pub(crate) fn lru_group_victim<T, K>(groups: &[PcGroup<T, K>]) -> usize {
    groups
        .iter()
        .enumerate()
        .min_by_key(|(_, g)| g.last_touch)
        .map(|(i, _)| i)
        .expect("victim requested for a non-empty set")
}

/// Finite instruction-level reuse buffer for the `ILR NE` / `ILR EXP`
/// heuristics: same geometry as the RTM, storing input signatures.
pub struct FiniteIlrBuffer {
    store: SetAssocStore<u128>,
    observed: u64,
    reusable: u64,
}

impl FiniteIlrBuffer {
    /// New buffer with the given geometry.
    pub fn new(geometry: SetAssocGeometry) -> Self {
        Self {
            store: SetAssocStore::new(geometry),
            observed: 0,
            reusable: 0,
        }
    }

    /// Test-and-record, like [`InstrReuseTable::probe_insert`] but under
    /// finite capacity: entries evicted by LRU stop contributing.
    pub fn probe_insert(&mut self, d: &DynInstr) -> bool {
        self.observed += 1;
        let sig = d.input_signature();
        if let Some(group) = self.store.group_mut(d.pc) {
            if let Some(idx) = group.entries.iter().position(|s| *s == sig) {
                group.move_to_mru(idx);
                self.reusable += 1;
                return true;
            }
        }
        self.store.insert(d.pc, sig);
        false
    }

    /// Entries resident.
    pub fn resident(&self) -> u64 {
        self.store.resident
    }

    /// Capacity.
    pub fn capacity(&self) -> u64 {
        self.store.geometry().capacity()
    }

    /// Percentage of observed instructions found reusable.
    pub fn reusability_pct(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            100.0 * self.reusable as f64 / self.observed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_isa::{Loc, OpClass};

    fn di(pc: u32, reads: &[(Loc, u64)]) -> DynInstr {
        DynInstr {
            pc,
            next_pc: pc + 1,
            class: OpClass::IntAlu,
            reads: reads.iter().copied().collect(),
            writes: Default::default(),
        }
    }

    #[test]
    fn first_execution_not_reusable_second_is() {
        let mut t = InstrReuseTable::new();
        let d = di(10, &[(Loc::IntReg(1), 5)]);
        assert!(!t.probe_insert(&d));
        assert!(t.probe_insert(&d));
        assert!(t.probe_insert(&d));
        assert_eq!(t.observed(), 3);
        assert_eq!(t.reusable(), 2);
        assert!((t.reusability_pct() - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn different_inputs_not_reusable() {
        let mut t = InstrReuseTable::new();
        assert!(!t.probe_insert(&di(10, &[(Loc::IntReg(1), 5)])));
        assert!(!t.probe_insert(&di(10, &[(Loc::IntReg(1), 6)])));
        // Either past input now matches.
        assert!(t.probe_insert(&di(10, &[(Loc::IntReg(1), 5)])));
        assert!(t.probe_insert(&di(10, &[(Loc::IntReg(1), 6)])));
        assert_eq!(t.stored_tuples(), 2);
        assert_eq!(t.static_instrs(), 1);
    }

    #[test]
    fn pc_disambiguates() {
        let mut t = InstrReuseTable::new();
        assert!(!t.probe_insert(&di(10, &[(Loc::IntReg(1), 5)])));
        // Same inputs at a different PC: separate history.
        assert!(!t.probe_insert(&di(11, &[(Loc::IntReg(1), 5)])));
        assert_eq!(t.static_instrs(), 2);
    }

    #[test]
    fn zero_input_instructions_always_reusable_after_first() {
        let mut t = InstrReuseTable::new();
        let d = di(0, &[]); // e.g. `li` — constant generation
        assert!(!t.probe_insert(&d));
        for _ in 0..10 {
            assert!(t.probe_insert(&d));
        }
    }

    #[test]
    fn geometry_capacity_matches_paper_configs() {
        // §4.6: 512 / 4K / 32K / 256K entries.
        let g512 = SetAssocGeometry {
            sets: 32,
            ways: 4,
            per_pc: 4,
        };
        let g4k = SetAssocGeometry {
            sets: 128,
            ways: 4,
            per_pc: 8,
        };
        let g32k = SetAssocGeometry {
            sets: 256,
            ways: 8,
            per_pc: 16,
        };
        let g256k = SetAssocGeometry {
            sets: 2048,
            ways: 8,
            per_pc: 16,
        };
        assert_eq!(g512.capacity(), 512);
        assert_eq!(g4k.capacity(), 4096);
        assert_eq!(g32k.capacity(), 32768);
        assert_eq!(g256k.capacity(), 262144);
    }

    #[test]
    fn finite_buffer_evicts_per_pc_lru() {
        let g = SetAssocGeometry {
            sets: 1,
            ways: 1,
            per_pc: 2,
        };
        let mut b = FiniteIlrBuffer::new(g);
        let d1 = di(0, &[(Loc::IntReg(1), 1)]);
        let d2 = di(0, &[(Loc::IntReg(1), 2)]);
        let d3 = di(0, &[(Loc::IntReg(1), 3)]);
        assert!(!b.probe_insert(&d1));
        assert!(!b.probe_insert(&d2));
        assert_eq!(b.resident(), 2);
        // Touch d1 so d2 becomes LRU; inserting d3 evicts d2.
        assert!(b.probe_insert(&d1));
        assert!(!b.probe_insert(&d3));
        assert_eq!(b.resident(), 2);
        assert!(b.probe_insert(&d1));
        assert!(!b.probe_insert(&d2), "d2 must have been evicted");
    }

    #[test]
    fn finite_buffer_evicts_pc_groups() {
        // One set, one way: a second PC evicts the first PC's group.
        let g = SetAssocGeometry {
            sets: 1,
            ways: 1,
            per_pc: 4,
        };
        let mut b = FiniteIlrBuffer::new(g);
        let a = di(0, &[(Loc::IntReg(1), 1)]);
        let c = di(1, &[(Loc::IntReg(1), 1)]);
        assert!(!b.probe_insert(&a));
        assert!(!b.probe_insert(&c)); // evicts PC 0's group
        assert!(!b.probe_insert(&a)); // a is gone
    }

    #[test]
    fn finite_buffer_sets_isolate_pcs() {
        // Two sets: PCs 0 and 1 land in different sets and never clash.
        let g = SetAssocGeometry {
            sets: 2,
            ways: 1,
            per_pc: 1,
        };
        let mut b = FiniteIlrBuffer::new(g);
        let a = di(0, &[(Loc::IntReg(1), 1)]);
        let c = di(1, &[(Loc::IntReg(1), 1)]);
        assert!(!b.probe_insert(&a));
        assert!(!b.probe_insert(&c));
        assert!(b.probe_insert(&a));
        assert!(b.probe_insert(&c));
    }

    #[test]
    fn finite_tracks_infinite_when_capacity_sufficient() {
        let g = SetAssocGeometry {
            sets: 64,
            ways: 8,
            per_pc: 16,
        };
        let mut fin = FiniteIlrBuffer::new(g);
        let mut inf = InstrReuseTable::new();
        // Working set well under capacity: identical verdicts.
        for round in 0..4u64 {
            for pc in 0..50u32 {
                let d = di(pc, &[(Loc::IntReg(1), round % 2)]);
                assert_eq!(
                    fin.probe_insert(&d),
                    inf.probe_insert(&d),
                    "pc={pc} round={round}"
                );
            }
        }
    }
}
