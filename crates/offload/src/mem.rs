//! Paged, atomically-accessed logical memories — one per device.
//!
//! Every simulated memory is a sparse [`PageTable`] of 4 KiB pages of
//! `AtomicU64` words, so an access finds its page with a few plain loads
//! and no lock. All data accesses go through relaxed atomics so that
//! *buggy benchmark programs* — ones that genuinely race, which this suite
//! must be able to execute — stay well-defined Rust while still exhibiting
//! nondeterministic values, exactly like hardware.
//!
//! The allocator is a bump allocator with a fixed inter-block gap. Bump
//! allocation keeps successive corresponding-variable (CV) allocations
//! adjacent in the device window — the layout property that makes
//! mapping-related buffer overflows read a *neighbouring* CV (§IV-D of the
//! paper) rather than trap. Freed blocks stay recorded (dead) so tools can
//! diagnose use-after-free-style accesses.

use crate::addr::{device_base, DeviceId};
use crate::error::RuntimeError;
use arbalest_sync::{Mutex, PageTable};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Log2 of the page size in bytes.
pub const PAGE_SHIFT: u32 = 12;
/// Page size in bytes.
pub const PAGE_BYTES: u64 = 1 << PAGE_SHIFT;
/// 64-bit words per page.
pub const WORDS_PER_PAGE: usize = (PAGE_BYTES / 8) as usize;

/// Gap (bytes) left between consecutive allocations. Doubles as the
/// physical room for red zones in the AddressSanitizer model.
pub const BLOCK_GAP: u64 = 64;

type Page = Box<[AtomicU64; WORDS_PER_PAGE]>;

fn new_page() -> Page {
    // Zero-initialised; `AtomicU64` is repr(transparent) over u64 but we
    // build it safely element by element via a Vec to avoid unsafe.
    let v: Vec<AtomicU64> = (0..WORDS_PER_PAGE).map(|_| AtomicU64::new(0)).collect();
    v.into_boxed_slice().try_into().expect("page size")
}

/// A live or dead heap block within an address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First byte of the block.
    pub start: u64,
    /// Length in bytes.
    pub len: u64,
    /// False once freed.
    pub live: bool,
}

impl Block {
    /// Whether `addr` falls inside the block.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.start + self.len
    }
}

/// One device's memory: sparse pages + a bump allocator + block registry.
pub struct AddressSpace {
    device: DeviceId,
    pages: PageTable<Page>,
    next: AtomicU64,
    blocks: Mutex<BTreeMap<u64, Block>>,
    live_bytes: AtomicU64,
    peak_live_bytes: AtomicU64,
}

impl AddressSpace {
    /// Create the memory for `device`, starting allocation at the device's
    /// logical window base.
    pub fn new(device: DeviceId) -> Self {
        AddressSpace {
            device,
            pages: PageTable::new(),
            next: AtomicU64::new(device_base(device) + BLOCK_GAP),
            blocks: Mutex::new(BTreeMap::new()),
            live_bytes: AtomicU64::new(0),
            peak_live_bytes: AtomicU64::new(0),
        }
    }

    /// The owning device.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Allocate `len` bytes (8-byte aligned), returning the block's base
    /// logical address. A [`BLOCK_GAP`] separates consecutive blocks.
    pub fn alloc(&self, len: u64) -> u64 {
        let rounded = (len + 7) & !7;
        let addr = self.next.fetch_add(rounded + BLOCK_GAP, Ordering::Relaxed);
        self.blocks.lock().insert(addr, Block { start: addr, len, live: true });
        let live = self.live_bytes.fetch_add(len, Ordering::Relaxed) + len;
        self.peak_live_bytes.fetch_max(live, Ordering::Relaxed);
        addr
    }

    /// Free the block at `addr`, returning its length. The block stays
    /// recorded as dead so tools can classify later accesses. Freeing an
    /// unknown or dead block is a bug in the simulator's user; it is
    /// reported as a typed error rather than a panic so the runtime can
    /// surface it to tools and keep going.
    pub fn free(&self, addr: u64) -> Result<u64, RuntimeError> {
        let mut blocks = self.blocks.lock();
        let Some(block) = blocks.get_mut(&addr) else {
            return Err(RuntimeError::UnknownFree { addr });
        };
        if !block.live {
            return Err(RuntimeError::DoubleFree { addr });
        }
        block.live = false;
        self.live_bytes.fetch_sub(block.len, Ordering::Relaxed);
        Ok(block.len)
    }

    /// Look up the block covering `addr` (live or dead).
    pub fn block_at(&self, addr: u64) -> Option<Block> {
        let blocks = self.blocks.lock();
        blocks
            .range(..=addr)
            .next_back()
            .map(|(_, b)| *b)
            .filter(|b| b.contains(addr))
    }

    /// Snapshot of all blocks ever allocated (live and dead), ascending.
    pub fn blocks(&self) -> Vec<Block> {
        self.blocks.lock().values().copied().collect()
    }

    /// Currently live allocated bytes.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of live allocated bytes.
    pub fn peak_live_bytes(&self) -> u64 {
        self.peak_live_bytes.load(Ordering::Relaxed)
    }

    /// Number of materialised (touched-by-write) pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Bytes of backing storage actually materialised.
    pub fn resident_bytes(&self) -> u64 {
        self.page_count() as u64 * PAGE_BYTES
    }

    #[inline]
    fn page_for_write(&self, page_idx: u64) -> &Page {
        self.pages.get_or_init(page_idx, new_page)
    }

    /// Load an aligned 64-bit word. Untouched memory reads as zero without
    /// materialising a page.
    #[inline]
    pub fn load_word(&self, addr: u64) -> u64 {
        debug_assert_eq!(addr & 7, 0, "unaligned word load at {addr:#x}");
        match self.pages.get(addr >> PAGE_SHIFT) {
            Some(p) => p[((addr & (PAGE_BYTES - 1)) >> 3) as usize].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Store an aligned 64-bit word.
    #[inline]
    pub fn store_word(&self, addr: u64, value: u64) {
        debug_assert_eq!(addr & 7, 0, "unaligned word store at {addr:#x}");
        let page_idx = addr >> PAGE_SHIFT;
        let page = self.page_for_write(page_idx);
        page[((addr & (PAGE_BYTES - 1)) >> 3) as usize].store(value, Ordering::Relaxed);
    }

    /// Atomic read-modify-write of an aligned 64-bit word (backs the
    /// simulated `omp atomic` constructs). Returns the previous value.
    pub fn fetch_update_word(&self, addr: u64, mut f: impl FnMut(u64) -> u64) -> u64 {
        debug_assert_eq!(addr & 7, 0, "unaligned atomic at {addr:#x}");
        let page_idx = addr >> PAGE_SHIFT;
        let page = self.page_for_write(page_idx);
        let cell = &page[((addr & (PAGE_BYTES - 1)) >> 3) as usize];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = f(cur);
            match cell.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(prev) => return prev,
                Err(c) => cur = c,
            }
        }
    }

    /// Atomic add on an aligned 64-bit word; returns the previous value.
    pub fn fetch_add_word(&self, addr: u64, delta: u64) -> u64 {
        self.fetch_update_word(addr, |v| v.wrapping_add(delta))
    }

    /// Load `size` ∈ {1,2,4,8} bytes at `addr` (must not cross an 8-byte
    /// boundary), zero-extended.
    #[inline]
    pub fn load(&self, addr: u64, size: usize) -> u64 {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        debug_assert_eq!(addr % size as u64, 0, "misaligned load");
        let word = self.load_word(addr & !7);
        if size == 8 {
            word
        } else {
            let shift = (addr & 7) * 8;
            let mask = (1u64 << (size * 8)) - 1;
            (word >> shift) & mask
        }
    }

    /// Store the low `size` bytes of `value` at `addr` (no 8-byte boundary
    /// crossing). Sub-word stores are atomic read-modify-write so racing
    /// neighbours are never corrupted.
    #[inline]
    pub fn store(&self, addr: u64, size: usize, value: u64) {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        debug_assert_eq!(addr % size as u64, 0, "misaligned store");
        if size == 8 {
            self.store_word(addr, value);
            return;
        }
        let page_idx = addr >> PAGE_SHIFT;
        let page = self.page_for_write(page_idx);
        let cell = &page[((addr & (PAGE_BYTES - 1)) >> 3) as usize];
        let shift = (addr & 7) * 8;
        let mask = ((1u64 << (size * 8)) - 1) << shift;
        let bits = (value << shift) & mask;
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (cur & !mask) | bits;
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }
}

/// Word-wise copy of `len` bytes between (possibly distinct) spaces.
/// `len`, `src` and `dst` must be 8-byte aligned — the runtime only ever
/// transfers whole shadow granules, mirroring ARBALEST's 8-byte tracking
/// granularity.
pub fn copy(src: &AddressSpace, src_addr: u64, dst: &AddressSpace, dst_addr: u64, len: u64) {
    debug_assert_eq!(src_addr & 7, 0);
    debug_assert_eq!(dst_addr & 7, 0);
    let words = len.div_ceil(8);
    for w in 0..words {
        let v = src.load_word(src_addr + w * 8);
        dst.store_word(dst_addr + w * 8, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(DeviceId::ACCEL0)
    }

    #[test]
    fn alloc_is_bump_with_gap_and_aligned() {
        let s = space();
        let a = s.alloc(24);
        let b = s.alloc(10);
        assert_eq!(a % 8, 0);
        assert_eq!(b % 8, 0);
        assert_eq!(b, a + 24 + BLOCK_GAP);
        assert!(crate::addr::device_of(a) == DeviceId::ACCEL0);
    }

    #[test]
    fn load_store_word_roundtrip() {
        let s = space();
        let a = s.alloc(64);
        s.store_word(a + 16, 0xABCD_EF01_2345_6789);
        assert_eq!(s.load_word(a + 16), 0xABCD_EF01_2345_6789);
        assert_eq!(s.load_word(a + 24), 0);
    }

    #[test]
    fn subword_store_preserves_neighbours() {
        let s = space();
        let a = s.alloc(8);
        s.store_word(a, u64::MAX);
        s.store(a + 2, 2, 0x1234);
        let w = s.load_word(a);
        assert_eq!((w >> 16) & 0xFFFF, 0x1234);
        assert_eq!(w & 0xFFFF, 0xFFFF);
        assert_eq!(w >> 32, 0xFFFF_FFFF);
        assert_eq!(s.load(a + 2, 2), 0x1234);
    }

    #[test]
    fn all_sizes_roundtrip() {
        let s = space();
        let a = s.alloc(8);
        s.store(a, 1, 0xAB);
        s.store(a + 4, 4, 0xDEADBEEF);
        assert_eq!(s.load(a, 1), 0xAB);
        assert_eq!(s.load(a + 4, 4), 0xDEADBEEF);
    }

    #[test]
    fn untouched_reads_zero_without_pages() {
        let s = space();
        let a = s.alloc(1 << 20);
        assert_eq!(s.load_word(a + 4096 * 17), 0);
        assert_eq!(s.page_count(), 0);
        s.store_word(a, 1);
        assert_eq!(s.page_count(), 1);
    }

    #[test]
    fn block_tracking_and_free() {
        let s = space();
        let a = s.alloc(100);
        let b = s.alloc(50);
        assert_eq!(s.live_bytes(), 150);
        assert_eq!(s.peak_live_bytes(), 150);
        let blk = s.block_at(a + 99).unwrap();
        assert_eq!(blk.start, a);
        assert!(blk.live);
        assert!(s.block_at(a + 100).is_none(), "gap is unowned");
        assert_eq!(s.free(a), Ok(100));
        assert_eq!(s.live_bytes(), 50);
        assert_eq!(s.peak_live_bytes(), 150);
        let blk = s.block_at(a).unwrap();
        assert!(!blk.live, "freed block stays recorded as dead");
        let blk_b = s.block_at(b).unwrap();
        assert!(blk_b.live);
    }

    #[test]
    fn double_and_unknown_free_return_typed_errors() {
        let s = space();
        let a = s.alloc(8);
        assert_eq!(s.free(a), Ok(8));
        assert_eq!(s.free(a), Err(RuntimeError::DoubleFree { addr: a }));
        assert_eq!(s.free(a + 1), Err(RuntimeError::UnknownFree { addr: a + 1 }));
        // The block stays recorded dead and live accounting is untouched.
        assert!(!s.block_at(a).unwrap().live);
        assert_eq!(s.live_bytes(), 0);
    }

    #[test]
    fn copy_between_spaces() {
        let host = AddressSpace::new(DeviceId::HOST);
        let dev = space();
        let h = host.alloc(32);
        let d = dev.alloc(32);
        for i in 0..4 {
            host.store_word(h + i * 8, 100 + i);
        }
        copy(&host, h, &dev, d, 32);
        for i in 0..4 {
            assert_eq!(dev.load_word(d + i * 8), 100 + i);
        }
    }

    #[test]
    fn concurrent_subword_stores_do_not_corrupt() {
        let s = std::sync::Arc::new(space());
        let a = s.alloc(8);
        let mut handles = vec![];
        for lane in 0..4u64 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.store(a + lane * 2, 2, lane + 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for lane in 0..4u64 {
            assert_eq!(s.load(a + lane * 2, 2), lane + 1);
        }
    }
}
