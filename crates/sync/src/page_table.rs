//! A sparse radix table over 52-bit page indices, read without locks.
//!
//! Device memory, shadow memory and the race engine's per-location history
//! each map a page index (an address shifted right by 12) to a page made on
//! first touch. [`PageTable`] is that map for all three. A 4-bit root and
//! six levels of 256-slot nodes resolve the index; every slot is a
//! [`OnceLock`], so a node or page is created exactly once, by whichever
//! thread touches it first, and is never moved or freed while the table is
//! shared. A lookup is seven plain loads: no lock, hash, reference count or
//! allocation. Only [`PageTable::clear`], which needs `&mut self`, frees
//! anything.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;

/// Bits of the page indices a table resolves: a 64-bit address less its
/// 12 in-page bits. Higher index bits are ignored.
const PAGE_INDEX_BITS: u32 = 52;

/// Slots per interior node below the root (4 KiB of slots).
const NODE_SLOTS: usize = 256;
/// Slots of the root, which resolves the index bits the six node levels
/// leave over.
const ROOT_SLOTS: usize = 1 << (PAGE_INDEX_BITS - 6 * NODE_SLOTS.trailing_zeros());

/// One level of the table: a lazily created child per slot.
struct Node<C, const N: usize> {
    slots: [OnceLock<C>; N],
}

/// A page, held in the slots of the bottom level.
struct Leaf<P>(P);

/// What is made, counted when it is made.
#[derive(Default)]
struct Made {
    pages: AtomicUsize,
    node_bytes: AtomicU64,
}

/// What a node slot holds: a boxed node one level down, or a page.
trait Child: Sized {
    type Page;
    /// Page-index bits resolved below this child (0 for a page).
    const BITS: u32;
    fn get(&self, idx: u64) -> Option<&Self::Page>;
    /// The page at `idx` under `slot`, creating the child and what lies
    /// between it and the page.
    fn get_or_make<'a>(
        slot: &'a OnceLock<Self>,
        idx: u64,
        made: &Made,
        page: impl FnOnce() -> Self::Page,
    ) -> &'a Self::Page;
    fn for_each(&self, idx: u64, f: &mut impl FnMut(u64, &Self::Page));
}

impl<C: Child, const N: usize> Node<C, N> {
    fn new() -> Self {
        Node { slots: [const { OnceLock::new() }; N] }
    }

    #[inline]
    fn slot(&self, idx: u64) -> &OnceLock<C> {
        &self.slots[(idx >> C::BITS) as usize & (N - 1)]
    }

    #[inline]
    fn get(&self, idx: u64) -> Option<&C::Page> {
        self.slot(idx).get()?.get(idx)
    }

    fn get_or_make(&self, idx: u64, made: &Made, page: impl FnOnce() -> C::Page) -> &C::Page {
        C::get_or_make(self.slot(idx), idx, made, page)
    }

    fn for_each(&self, base: u64, f: &mut impl FnMut(u64, &C::Page)) {
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(child) = slot.get() {
                child.for_each(base | ((i as u64) << C::BITS), f);
            }
        }
    }
}

impl<C: Child, const N: usize> Child for Box<Node<C, N>> {
    type Page = C::Page;
    const BITS: u32 = C::BITS + N.trailing_zeros();

    #[inline]
    fn get(&self, idx: u64) -> Option<&C::Page> {
        Node::get(self, idx)
    }

    fn get_or_make<'a>(
        slot: &'a OnceLock<Self>,
        idx: u64,
        made: &Made,
        page: impl FnOnce() -> C::Page,
    ) -> &'a C::Page {
        let node = slot.get_or_init(|| {
            made.node_bytes.fetch_add(std::mem::size_of::<Node<C, N>>() as u64, Relaxed);
            Box::new(Node::new())
        });
        node.get_or_make(idx, made, page)
    }

    fn for_each(&self, base: u64, f: &mut impl FnMut(u64, &C::Page)) {
        Node::for_each(self, base, f);
    }
}

impl<P> Child for Leaf<P> {
    type Page = P;
    const BITS: u32 = 0;

    #[inline]
    fn get(&self, _idx: u64) -> Option<&P> {
        Some(&self.0)
    }

    fn get_or_make<'a>(
        slot: &'a OnceLock<Self>,
        _idx: u64,
        made: &Made,
        page: impl FnOnce() -> P,
    ) -> &'a P {
        &slot
            .get_or_init(|| {
                made.pages.fetch_add(1, Relaxed);
                Leaf(page())
            })
            .0
    }

    fn for_each(&self, idx: u64, f: &mut impl FnMut(u64, &P)) {
        f(idx, &self.0);
    }
}

type L6<P> = Box<Node<Leaf<P>, NODE_SLOTS>>;
type L5<P> = Box<Node<L6<P>, NODE_SLOTS>>;
type L4<P> = Box<Node<L5<P>, NODE_SLOTS>>;
type L3<P> = Box<Node<L4<P>, NODE_SLOTS>>;
type L2<P> = Box<Node<L3<P>, NODE_SLOTS>>;
type L1<P> = Box<Node<L2<P>, NODE_SLOTS>>;

/// Sparse map from page index to `P`, with lock-free reads and
/// create-once pages. `P` is usually a `Box`, so the bottom level's slots
/// stay pointer-sized.
pub struct PageTable<P> {
    root: Node<L1<P>, ROOT_SLOTS>,
    made: Made,
}

impl<P> PageTable<P> {
    /// An empty table: the root's slots and nothing else.
    pub fn new() -> Self {
        PageTable { root: Node::new(), made: Made::default() }
    }

    /// The page at `idx`, if it was made. Never allocates.
    #[inline]
    pub fn get(&self, idx: u64) -> Option<&P> {
        self.root.get(idx)
    }

    /// The page at `idx`, made by `page` (and the nodes on its path
    /// created) if it was not there. When threads race to make the same
    /// page, one runs `page` and the others wait for its result.
    #[inline]
    pub fn get_or_init(&self, idx: u64, page: impl FnOnce() -> P) -> &P {
        match self.get(idx) {
            Some(p) => p,
            None => self.make(idx, page),
        }
    }

    #[cold]
    fn make(&self, idx: u64, page: impl FnOnce() -> P) -> &P {
        self.root.get_or_make(idx, &self.made, page)
    }

    /// Pages made so far.
    pub fn len(&self) -> usize {
        self.made.pages.load(Relaxed)
    }

    /// Whether no page was made.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of the nodes made below the root, which lives inline in the
    /// table; the pages' contents are not counted.
    pub fn node_bytes(&self) -> u64 {
        self.made.node_bytes.load(Relaxed)
    }

    /// Visit every page in ascending index order.
    pub fn for_each(&self, mut f: impl FnMut(u64, &P)) {
        self.root.for_each(0, &mut f);
    }

    /// Drop every page and node, leaving an empty table.
    pub fn clear(&mut self) {
        *self = PageTable::new();
    }
}

impl<P> Default for PageTable<P> {
    fn default() -> Self {
        PageTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Barrier;

    const MAX_INDEX: u64 = u64::MAX >> 12;

    #[test]
    fn levels_cover_the_page_index() {
        assert_eq!(<L1<()> as Child>::BITS + ROOT_SLOTS.trailing_zeros(), PAGE_INDEX_BITS);
        assert_eq!(MAX_INDEX, (1u64 << PAGE_INDEX_BITS) - 1);
    }

    #[test]
    fn get_of_an_untouched_index_allocates_nothing() {
        let t: PageTable<Box<u64>> = PageTable::new();
        let empty = t.node_bytes();
        for idx in [0, 1, 255, 256, 1 << 28, MAX_INDEX] {
            assert!(t.get(idx).is_none());
        }
        assert_eq!(t.node_bytes(), empty);
        assert!(t.is_empty());
        t.get_or_init(1 << 28, || Box::new(7));
        assert!(t.get((1 << 28) + 1).is_none());
        assert!(t.get(1 << 29).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pages_are_made_once_and_read_back() {
        let t: PageTable<Box<u64>> = PageTable::new();
        assert_eq!(**t.get_or_init(5, || Box::new(50)), 50);
        assert_eq!(**t.get_or_init(5, || Box::new(99)), 50, "second init is ignored");
        assert_eq!(t.get(5).map(|b| **b), Some(50));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn a_far_page_pays_for_its_path_of_nodes() {
        let t: PageTable<Box<u64>> = PageTable::new();
        let empty = t.node_bytes();
        t.get_or_init(0, || Box::new(0));
        let one_path = t.node_bytes() - empty;
        assert_eq!(one_path, 6 * std::mem::size_of::<Node<L6<()>, NODE_SLOTS>>() as u64);
        // A neighbour shares the whole path; a page in another 2^48 block
        // shares only the root.
        t.get_or_init(1, || Box::new(1));
        assert_eq!(t.node_bytes() - empty, one_path);
        t.get_or_init(MAX_INDEX, || Box::new(2));
        assert_eq!(t.node_bytes() - empty, 2 * one_path);
    }

    #[test]
    fn for_each_visits_sparse_indices_in_ascending_order() {
        let t: PageTable<Box<u64>> = PageTable::new();
        let idxs = [MAX_INDEX, 0, 1 << 40, 3, (1 << 28) + 17, 256, 255, 1 << 47, MAX_INDEX - 1];
        for &i in &idxs {
            t.get_or_init(i, || Box::new(i));
        }
        let mut seen = Vec::new();
        t.for_each(|i, p| {
            assert_eq!(**p, i, "page handed over with its own index");
            seen.push(i);
        });
        let mut want = idxs.to_vec();
        want.sort_unstable();
        assert_eq!(seen, want);
        assert_eq!(t.len(), idxs.len());
    }

    #[test]
    fn clear_drops_everything() {
        let drops = std::sync::Arc::new(AtomicU32::new(0));
        struct Counted(std::sync::Arc<AtomicU32>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Relaxed);
            }
        }
        let mut t: PageTable<Counted> = PageTable::new();
        let empty = t.node_bytes();
        for i in [0, 9, 1 << 30, MAX_INDEX] {
            t.get_or_init(i, || Counted(drops.clone()));
        }
        t.clear();
        assert_eq!(drops.load(Relaxed), 4);
        assert!(t.is_empty());
        assert_eq!(t.node_bytes(), empty);
        assert!(t.get(9).is_none());
        let mut visited = 0;
        t.for_each(|_, _| visited += 1);
        assert_eq!(visited, 0);
    }

    #[test]
    fn racing_first_touches_make_each_page_exactly_once() {
        const THREADS: usize = 4;
        const PAGES: u64 = 300;
        let t: PageTable<Box<u64>> = PageTable::new();
        let made = AtomicU32::new(0);
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for i in 0..PAGES {
                        // Spread over several subtrees so nodes race too.
                        let idx = ((i % 3) << 40) | (i * 257);
                        let p = t.get_or_init(idx, || {
                            made.fetch_add(1, Relaxed);
                            Box::new(idx)
                        });
                        assert_eq!(**p, idx);
                    }
                });
            }
        });
        assert_eq!(made.load(Relaxed), PAGES as u32, "one init per page");
        assert_eq!(t.len(), PAGES as usize);
        let mut n = 0;
        t.for_each(|i, p| {
            assert_eq!(**p, i);
            n += 1;
        });
        assert_eq!(n, PAGES);
    }

    /// Writers first-touch pages while readers look the same pages up and
    /// check every value they find. `cargo test --release -p arbalest-sync
    /// -- --ignored` runs it.
    #[test]
    #[ignore]
    fn stress_first_touch_against_concurrent_readers() {
        const WRITERS: usize = 2;
        const READERS: usize = 2;
        const ROUNDS: u64 = 40;
        const PAGES: u64 = 4096;
        for round in 0..ROUNDS {
            let t: PageTable<Box<[AtomicU64; 8]>> = PageTable::new();
            let made = AtomicU32::new(0);
            let start = Barrier::new(WRITERS + READERS);
            // A different spread of indices each round: dense runs, far
            // subtrees and the top of the index range.
            let idx_of = |i: u64| match round % 3 {
                0 => i,
                1 => ((i % 7) << 44) | ((i * 4099) & ((1 << 40) - 1)),
                _ => MAX_INDEX - i * 511,
            };
            std::thread::scope(|s| {
                for w in 0..WRITERS as u64 {
                    let (t, made, start) = (&t, &made, &start);
                    s.spawn(move || {
                        start.wait();
                        for k in 0..PAGES {
                            let i = if w % 2 == 0 { k } else { PAGES - 1 - k };
                            let idx = idx_of(i);
                            let page = t.get_or_init(idx, || {
                                made.fetch_add(1, Relaxed);
                                Box::new(std::array::from_fn(|_| AtomicU64::new(idx)))
                            });
                            for cell in page.iter() {
                                assert_eq!(cell.load(Relaxed), idx);
                            }
                        }
                    });
                }
                for r in 0..READERS as u64 {
                    let (t, start) = (&t, &start);
                    s.spawn(move || {
                        start.wait();
                        let mut found = 0u64;
                        while found < PAGES {
                            found = 0;
                            for k in 0..PAGES {
                                let idx = idx_of((k + r * 97) % PAGES);
                                if let Some(page) = t.get(idx) {
                                    for cell in page.iter() {
                                        assert_eq!(cell.load(Relaxed), idx, "torn page");
                                    }
                                    found += 1;
                                }
                            }
                        }
                    });
                }
            });
            assert_eq!(made.load(Relaxed), PAGES as u32, "round {round}: one init per page");
            assert_eq!(t.len(), PAGES as usize);
            let mut prev = None;
            t.for_each(|i, _| {
                assert!(prev < Some(i), "ascending");
                prev = Some(i);
            });
        }
    }
}
