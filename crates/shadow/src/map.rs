//! Direct-mapped shadow memory.
//!
//! For every aligned 8-byte granule of application memory, the shadow
//! holds `slots` 64-bit cells ("shadow states" in Archer's terminology —
//! Archer keeps four per granule; ARBALEST reserves bits inside them,
//! §V-B). Cells are `AtomicU64`, updated with compare-and-swap, so the
//! analysis is fully concurrent and lock-free on the hot path, as the
//! paper requires (§IV-C).
//!
//! Shadow pages are materialised on first touch in a lock-free
//! [`PageTable`], which stands in for the direct address mapping of the
//! LLVM sanitizer runtimes: finding a granule's cell takes a few plain
//! loads, so the CAS is the only synchronisation an update pays. Resident
//! shadow bytes, table nodes included, are tracked for the Fig. 9 space
//! measurement.

use arbalest_sync::PageTable;
use std::sync::atomic::{AtomicU64, Ordering};

/// Log2 of the application bytes covered by one shadow page.
const APP_PAGE_SHIFT: u32 = 12;
/// Application bytes covered per shadow page.
const APP_PAGE_BYTES: u64 = 1 << APP_PAGE_SHIFT;
/// Granules per shadow page.
const GRANULES_PER_PAGE: usize = (APP_PAGE_BYTES / 8) as usize;

/// One shadow page: `slots` cells for each granule of a 4 KiB page.
type ShadowPage = Box<[AtomicU64]>;

/// Sparse direct-mapped shadow over the logical address space.
pub struct ShadowMemory {
    slots: usize,
    pages: PageTable<ShadowPage>,
}

impl ShadowMemory {
    /// Create a shadow with `slots` 64-bit cells per 8-byte granule.
    pub fn new(slots: usize) -> ShadowMemory {
        assert!(slots >= 1);
        ShadowMemory { slots, pages: PageTable::new() }
    }

    /// Cells per granule.
    pub fn slots(&self) -> usize {
        self.slots
    }

    fn new_page(&self) -> ShadowPage {
        (0..GRANULES_PER_PAGE * self.slots).map(|_| AtomicU64::new(0)).collect()
    }

    /// Resident shadow bytes (Fig. 9 accounting): every page and every
    /// node of the table that holds them.
    pub fn resident_bytes(&self) -> u64 {
        (self.pages.len() * GRANULES_PER_PAGE * self.slots * 8) as u64 + self.pages.node_bytes()
    }

    /// Drop every resident shadow page, returning the bytes freed.
    ///
    /// Evicted granules read back as the all-zero word, so callers that
    /// interpret shadow state must switch to a conservative ("May") mode
    /// after eviction rather than trusting the reset state. This is the
    /// memory-pressure escape hatch for long-lived analysis sessions.
    pub fn evict_all(&mut self) -> u64 {
        let before = self.resident_bytes();
        self.pages.clear();
        before - self.resident_bytes()
    }

    #[inline]
    fn page(&self, addr: u64) -> &ShadowPage {
        self.pages.get_or_init(addr >> APP_PAGE_SHIFT, || self.new_page())
    }

    #[inline]
    fn cell_index(&self, addr: u64, slot: usize) -> usize {
        debug_assert!(slot < self.slots);
        let granule = ((addr & (APP_PAGE_BYTES - 1)) >> 3) as usize;
        granule * self.slots + slot
    }

    /// Relaxed load of a shadow cell. Untouched shadow reads as zero.
    #[inline]
    pub fn load(&self, addr: u64, slot: usize) -> u64 {
        match self.pages.get(addr >> APP_PAGE_SHIFT) {
            Some(p) => p[self.cell_index(addr, slot)].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Unconditional store to a shadow cell.
    #[inline]
    pub fn store(&self, addr: u64, slot: usize, value: u64) {
        self.page(addr)[self.cell_index(addr, slot)].store(value, Ordering::Relaxed);
    }

    /// Lock-free read-modify-write of a shadow cell via CAS, the paper's
    /// update discipline. `f` maps the current value to the desired value;
    /// returns the (old, new) pair that finally committed.
    #[inline]
    pub fn update(&self, addr: u64, slot: usize, f: impl FnMut(u64) -> u64) -> (u64, u64) {
        let (old, new, _) = self.update_counted(addr, slot, f);
        (old, new)
    }

    /// [`update`](Self::update) that also reports how many CAS attempts
    /// failed before the write committed (0 on the uncontended fast
    /// path). The detector's observability layer counts these retries.
    #[inline]
    pub fn update_counted(
        &self,
        addr: u64,
        slot: usize,
        mut f: impl FnMut(u64) -> u64,
    ) -> (u64, u64, u32) {
        let cell = &self.page(addr)[self.cell_index(addr, slot)];
        let mut cur = cell.load(Ordering::Relaxed);
        let mut retries = 0u32;
        loop {
            let next = f(cur);
            match cell.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return (cur, next, retries),
                Err(c) => {
                    cur = c;
                    retries = retries.saturating_add(1);
                }
            }
        }
    }

    /// Apply `f` to every granule cell in `[addr, addr + len)` (8-byte
    /// aligned range), slot fixed.
    pub fn update_range(&self, addr: u64, len: u64, slot: usize, mut f: impl FnMut(u64) -> u64) {
        let mut a = addr & !7;
        let end = addr + len;
        while a < end {
            self.update(a, slot, &mut f);
            a += 8;
        }
    }

    /// Copy slot contents for a range from another shadow (used for
    /// definedness propagation across memcpy-style transfers).
    pub fn copy_range_from(&self, src: &ShadowMemory, src_addr: u64, dst_addr: u64, len: u64, slot: usize) {
        let granules = len.div_ceil(8);
        for g in 0..granules {
            let v = src.load(src_addr + g * 8, slot);
            self.store(dst_addr + g * 8, slot, v);
        }
    }

    /// Dump every resident page as a `(page_index, cells)` pair, sorted by
    /// page index so two dumps of identical shadow state are identical
    /// byte-for-byte. Cell layout inside a page is `granule * slots +
    /// slot`, the same order [`restore_pages`](Self::restore_pages)
    /// expects back.
    pub fn snapshot_pages(&self) -> Vec<(u64, Vec<u64>)> {
        let mut out = Vec::with_capacity(self.pages.len());
        self.pages.for_each(|idx, p| {
            out.push((idx, p.iter().map(|c| c.load(Ordering::Relaxed)).collect()));
        });
        out
    }

    /// Replace all resident state with pages dumped by
    /// [`snapshot_pages`](Self::snapshot_pages). Returns `false` (leaving
    /// the shadow evicted-to-zero) if any page's cell count does not match
    /// this shadow's `slots` layout — a snapshot from a different
    /// configuration must never be installed as wrong state.
    pub fn restore_pages(&mut self, dump: &[(u64, Vec<u64>)]) -> bool {
        self.pages.clear();
        if dump.iter().any(|(_, cells)| cells.len() != GRANULES_PER_PAGE * self.slots) {
            return false;
        }
        for (idx, cells) in dump {
            let page: ShadowPage = cells.iter().map(|&v| AtomicU64::new(v)).collect();
            self.pages.get_or_init(*idx, || page);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_zero_and_store_load() {
        let s = ShadowMemory::new(1);
        assert_eq!(s.load(0x1000, 0), 0);
        assert_eq!(s.resident_bytes(), 0);
        s.store(0x1000, 0, 77);
        assert_eq!(s.load(0x1000, 0), 77);
        assert!(s.resident_bytes() > 0);
    }

    #[test]
    fn slots_are_independent() {
        let s = ShadowMemory::new(3);
        s.store(0x2000, 0, 1);
        s.store(0x2000, 1, 2);
        s.store(0x2000, 2, 3);
        assert_eq!(s.load(0x2000, 0), 1);
        assert_eq!(s.load(0x2000, 1), 2);
        assert_eq!(s.load(0x2000, 2), 3);
    }

    #[test]
    fn granules_are_independent_within_a_page() {
        let s = ShadowMemory::new(2);
        s.store(0x3000, 0, 10);
        s.store(0x3008, 0, 20);
        s.store(0x3000, 1, 11);
        assert_eq!(s.load(0x3000, 0), 10);
        assert_eq!(s.load(0x3008, 0), 20);
        assert_eq!(s.load(0x3008, 1), 0);
    }

    #[test]
    fn sub_granule_addresses_share_a_cell() {
        let s = ShadowMemory::new(1);
        s.store(0x4003, 0, 5);
        assert_eq!(s.load(0x4000, 0), 5);
        assert_eq!(s.load(0x4007, 0), 5);
        assert_eq!(s.load(0x4008, 0), 0);
    }

    #[test]
    fn update_is_atomic_under_contention() {
        let s = std::sync::Arc::new(ShadowMemory::new(1));
        let mut handles = vec![];
        for _ in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    s.update(0x5000, 0, |v| v + 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.load(0x5000, 0), 80_000);
    }

    #[test]
    fn update_range_touches_every_granule() {
        let s = ShadowMemory::new(1);
        s.update_range(0x6000, 64, 0, |v| v + 1);
        for g in 0..8 {
            assert_eq!(s.load(0x6000 + g * 8, 0), 1);
        }
        assert_eq!(s.load(0x6040, 0), 0);
    }

    #[test]
    fn update_range_partial_tail_rounds_to_granule() {
        let s = ShadowMemory::new(1);
        s.update_range(0x7000, 12, 0, |_| 9);
        assert_eq!(s.load(0x7000, 0), 9);
        assert_eq!(s.load(0x7008, 0), 9);
        assert_eq!(s.load(0x7010, 0), 0);
    }

    #[test]
    fn copy_range_from_propagates() {
        let a = ShadowMemory::new(1);
        let b = ShadowMemory::new(1);
        a.store(0x100, 0, 42);
        a.store(0x108, 0, 43);
        b.copy_range_from(&a, 0x100, 0x900, 16, 0);
        assert_eq!(b.load(0x900, 0), 42);
        assert_eq!(b.load(0x908, 0), 43);
    }

    #[test]
    fn snapshot_restore_round_trips_and_is_sorted() {
        let s = ShadowMemory::new(2);
        s.store(0x9000, 0, 7);
        s.store(0x9000, 1, 8);
        s.store(0x1000, 0, 9);
        let dump = s.snapshot_pages();
        assert_eq!(dump.len(), 2);
        assert!(dump[0].0 < dump[1].0, "pages must be sorted by index");
        let mut t = ShadowMemory::new(2);
        assert!(t.restore_pages(&dump));
        assert_eq!(t.load(0x9000, 0), 7);
        assert_eq!(t.load(0x9000, 1), 8);
        assert_eq!(t.load(0x1000, 0), 9);
        assert_eq!(t.resident_bytes(), s.resident_bytes());
        assert_eq!(t.snapshot_pages(), dump);
    }

    #[test]
    fn restore_rejects_mismatched_layout() {
        let s = ShadowMemory::new(1);
        s.store(0x1000, 0, 1);
        let dump = s.snapshot_pages();
        let mut t = ShadowMemory::new(2);
        assert!(!t.restore_pages(&dump));
        assert_eq!(t.resident_bytes(), 0, "failed restore must leave zero state");
    }

    #[test]
    fn resident_accounting_scales_with_slots() {
        let s1 = ShadowMemory::new(1);
        let s4 = ShadowMemory::new(4);
        s1.store(0x1000, 0, 1);
        s4.store(0x1000, 0, 1);
        // The page grows with the slots; the table nodes above it do not.
        assert_eq!(s4.resident_bytes() - s1.resident_bytes(), 3 * APP_PAGE_BYTES);
        let s8 = ShadowMemory::new(8);
        s8.store(0x1000, 0, 1);
        assert_eq!(s8.resident_bytes() - s4.resident_bytes(), 4 * APP_PAGE_BYTES);
    }
}
