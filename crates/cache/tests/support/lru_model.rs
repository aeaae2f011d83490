//! The recency-list LRU reference model, shared by the cache property
//! tests (`tests/properties.rs`) and the stamp-wrap differential in
//! `src/set_assoc.rs`, which both include this file with `#[path]`.

/// A naive LRU cache: each set is a recency list, least recent first,
/// holding `(line, dirty)`. It knows nothing of ways, stamps or keys, so
/// it checks `SetAssocCache`'s victim rule from outside.
pub(crate) struct LruModel {
    sets: Vec<Vec<(u64, bool)>>,
    ways: usize,
}

impl LruModel {
    pub(crate) fn new(ways: u32, sets: u64) -> Self {
        Self {
            sets: vec![Vec::new(); sets as usize],
            ways: ways as usize,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    /// Moves `line` to the most recent end, merging `dirty`; on a miss
    /// inserts it, evicting the least recent line of a full set. Returns
    /// whether it hit and the written-back address of a dirty victim.
    pub(crate) fn reference(&mut self, addr: u64, dirty: bool) -> (bool, Option<u64>) {
        let line = addr / 64;
        let ways = self.ways;
        let index = self.set_of(line);
        let set = &mut self.sets[index];
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            let (_, was_dirty) = set.remove(pos);
            set.push((line, was_dirty || dirty));
            return (true, None);
        }
        let mut writeback = None;
        if set.len() == ways {
            let (victim, victim_dirty) = set.remove(0);
            writeback = victim_dirty.then_some(victim * 64);
        }
        set.push((line, dirty));
        (false, writeback)
    }

    pub(crate) fn probe(&self, addr: u64) -> bool {
        let line = addr / 64;
        self.sets[self.set_of(line)].iter().any(|&(l, _)| l == line)
    }
}
