//! Augmented AVL interval tree.
//!
//! ARBALEST keeps one interval per mapped variable / array section,
//! mapping the CV's device address range back to the owning buffer and OV
//! address (§IV-C). Lookups are O(log m) where m is the number of mapped
//! sections; the detector amortises them with a last-lookup cache.
//!
//! Intervals are half-open `[lo, hi)` keyed by `lo`. The tree supports
//! overlapping intervals (needed transiently when stale dead entries
//! coexist with fresh ones), a stabbing query, and an overlap query —
//! the overflow extension (§IV-D) asks "which interval owns this
//! address?" and compares it with the interval the program *meant*.

/// An augmented AVL interval tree with `u64` endpoints.
pub struct IntervalTree<V> {
    root: Option<Box<Node<V>>>,
    len: usize,
}

struct Node<V> {
    lo: u64,
    hi: u64,
    value: V,
    /// Max `hi` in this subtree (the interval-tree augmentation).
    max: u64,
    height: i32,
    left: Option<Box<Node<V>>>,
    right: Option<Box<Node<V>>>,
}

impl<V> Node<V> {
    fn new(lo: u64, hi: u64, value: V) -> Box<Node<V>> {
        Box::new(Node { lo, hi, value, max: hi, height: 1, left: None, right: None })
    }
}

fn height<V>(n: &Option<Box<Node<V>>>) -> i32 {
    n.as_ref().map_or(0, |n| n.height)
}

fn subtree_max<V>(n: &Option<Box<Node<V>>>) -> u64 {
    n.as_ref().map_or(0, |n| n.max)
}

fn fixup<V>(n: &mut Box<Node<V>>) {
    n.height = 1 + height(&n.left).max(height(&n.right));
    n.max = n.hi.max(subtree_max(&n.left)).max(subtree_max(&n.right));
}

fn balance_factor<V>(n: &Node<V>) -> i32 {
    height(&n.left) - height(&n.right)
}

fn rotate_right<V>(mut n: Box<Node<V>>) -> Box<Node<V>> {
    let mut l = n.left.take().expect("rotate_right needs left child");
    n.left = l.right.take();
    fixup(&mut n);
    l.right = Some(n);
    fixup(&mut l);
    l
}

fn rotate_left<V>(mut n: Box<Node<V>>) -> Box<Node<V>> {
    let mut r = n.right.take().expect("rotate_left needs right child");
    n.right = r.left.take();
    fixup(&mut n);
    r.left = Some(n);
    fixup(&mut r);
    r
}

fn rebalance<V>(mut n: Box<Node<V>>) -> Box<Node<V>> {
    fixup(&mut n);
    let bf = balance_factor(&n);
    if bf > 1 {
        if balance_factor(n.left.as_ref().expect("bf>1 implies left")) < 0 {
            n.left = Some(rotate_left(n.left.take().expect("checked")));
        }
        rotate_right(n)
    } else if bf < -1 {
        if balance_factor(n.right.as_ref().expect("bf<-1 implies right")) > 0 {
            n.right = Some(rotate_right(n.right.take().expect("checked")));
        }
        rotate_left(n)
    } else {
        n
    }
}

fn insert_node<V>(slot: Option<Box<Node<V>>>, new: Box<Node<V>>) -> Box<Node<V>> {
    let Some(mut n) = slot else { return new };
    if new.lo < n.lo {
        n.left = Some(insert_node(n.left.take(), new));
    } else if new.lo > n.lo {
        n.right = Some(insert_node(n.right.take(), new));
    } else {
        // `insert` removes an equal key first, so this cannot happen.
        unreachable!("duplicate key reached insert_node");
    }
    rebalance(n)
}

fn take_min<V>(mut n: Box<Node<V>>) -> (Box<Node<V>>, Option<Box<Node<V>>>) {
    if n.left.is_none() {
        let right = n.right.take();
        fixup(&mut n);
        return (n, right);
    }
    let (min, rest) = take_min(n.left.take().expect("checked"));
    n.left = rest;
    (min, Some(rebalance(n)))
}

fn remove_node<V>(slot: Option<Box<Node<V>>>, lo: u64, removed: &mut Option<(u64, u64, V)>) -> Option<Box<Node<V>>> {
    let mut n = slot?;
    if lo < n.lo {
        n.left = remove_node(n.left.take(), lo, removed);
        Some(rebalance(n))
    } else if lo > n.lo {
        n.right = remove_node(n.right.take(), lo, removed);
        Some(rebalance(n))
    } else {
        let left = n.left.take();
        let right = n.right.take();
        *removed = Some((n.lo, n.hi, n.value));
        match (left, right) {
            (None, r) => r,
            (l, None) => l,
            (Some(l), Some(r)) => {
                let (mut min, rest) = take_min(r);
                min.left = Some(l);
                min.right = rest;
                Some(rebalance(min))
            }
        }
    }
}

impl<V> IntervalTree<V> {
    /// An empty tree.
    pub fn new() -> Self {
        IntervalTree { root: None, len: 0 }
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate resident bytes (Fig. 9 accounting).
    pub fn approx_bytes(&self) -> u64 {
        (self.len * std::mem::size_of::<Node<V>>()) as u64
    }

    /// Insert `[lo, hi)` → `value`. Returns the previous value if an
    /// interval with the same `lo` existed (its `hi` is overwritten).
    ///
    /// An empty interval (`lo >= hi`) covers no address and is ignored —
    /// zero-length buffers can legally be mapped, and the tree must not
    /// bring the analysis down over them.
    pub fn insert(&mut self, lo: u64, hi: u64, value: V) -> Option<V> {
        if lo >= hi {
            return None;
        }
        // Handle same-key replacement without the recursive placeholder
        // path: remove first, then insert.
        let old = self.remove(lo).map(|(_, _, v)| v);
        let root = self.root.take();
        self.root = Some(insert_node(root, Node::new(lo, hi, value)));
        self.len += 1;
        old
    }

    /// Remove the interval starting exactly at `lo`.
    pub fn remove(&mut self, lo: u64) -> Option<(u64, u64, V)> {
        let mut removed = None;
        let root = self.root.take();
        self.root = remove_node(root, lo, &mut removed);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Stabbing query: the interval containing `point`, if any. When
    /// several contain it, an arbitrary one is returned (the detector
    /// never keeps live overlapping intervals).
    pub fn stab(&self, point: u64) -> Option<(u64, u64, &V)> {
        self.stab_with_depth(point).map(|(lo, hi, v, _)| (lo, hi, v))
    }

    /// [`stab`](Self::stab) that also reports how many tree nodes the
    /// search visited — the detector's observability layer histograms
    /// this as the effective lookup depth.
    pub fn stab_with_depth(&self, point: u64) -> Option<(u64, u64, &V, u32)> {
        let mut visited = 0u32;
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            visited += 1;
            if point < subtree_max(&n.left) && n.left.is_some() {
                // Left subtree may contain it; classic interval search
                // walks left when the left max exceeds the point.
                if let Some((lo, hi, v)) = stab_in(n.left.as_deref(), point, &mut visited) {
                    return Some((lo, hi, v, visited));
                }
            }
            if n.lo <= point && point < n.hi {
                return Some((n.lo, n.hi, &n.value, visited));
            }
            cur = if point < n.lo { n.left.as_deref() } else { n.right.as_deref() };
        }
        None
    }

    /// All intervals overlapping `[lo, hi)`, in ascending `lo` order.
    pub fn overlaps(&self, lo: u64, hi: u64) -> Vec<(u64, u64, &V)> {
        let mut out = Vec::new();
        collect_overlaps(self.root.as_deref(), lo, hi, &mut out);
        out
    }

    /// All intervals in ascending `lo` order.
    pub fn iter_ordered(&self) -> Vec<(u64, u64, &V)> {
        let mut out = Vec::new();
        in_order(self.root.as_deref(), &mut out);
        out
    }

    /// Validate AVL + augmentation invariants (test support).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        fn check<V>(n: Option<&Node<V>>, min: Option<u64>, max_key: Option<u64>) -> (i32, u64) {
            let Some(n) = n else { return (0, 0) };
            if let Some(m) = min {
                assert!(n.lo > m, "BST order violated");
            }
            if let Some(m) = max_key {
                assert!(n.lo < m, "BST order violated");
            }
            let (lh, lm) = check(n.left.as_deref(), min, Some(n.lo));
            let (rh, rm) = check(n.right.as_deref(), Some(n.lo), max_key);
            assert!((lh - rh).abs() <= 1, "AVL balance violated");
            let h = 1 + lh.max(rh);
            assert_eq!(n.height, h, "height cache wrong");
            let m = n.hi.max(lm).max(rm);
            assert_eq!(n.max, m, "max augmentation wrong");
            (h, m)
        }
        check(self.root.as_deref(), None, None);
    }
}

impl<V> Default for IntervalTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

fn stab_in<'a, V>(
    n: Option<&'a Node<V>>,
    point: u64,
    visited: &mut u32,
) -> Option<(u64, u64, &'a V)> {
    let n = n?;
    *visited += 1;
    if n.max <= point {
        return None;
    }
    if let Some(hit) = stab_in(n.left.as_deref(), point, visited) {
        return Some(hit);
    }
    if n.lo <= point && point < n.hi {
        return Some((n.lo, n.hi, &n.value));
    }
    if point >= n.lo {
        stab_in(n.right.as_deref(), point, visited)
    } else {
        None
    }
}

fn collect_overlaps<'a, V>(n: Option<&'a Node<V>>, lo: u64, hi: u64, out: &mut Vec<(u64, u64, &'a V)>) {
    let Some(n) = n else { return };
    if n.max <= lo {
        return;
    }
    collect_overlaps(n.left.as_deref(), lo, hi, out);
    if n.lo < hi && lo < n.hi {
        out.push((n.lo, n.hi, &n.value));
    }
    if n.lo < hi {
        collect_overlaps(n.right.as_deref(), lo, hi, out);
    }
}

fn in_order<'a, V>(n: Option<&'a Node<V>>, out: &mut Vec<(u64, u64, &'a V)>) {
    let Some(n) = n else { return };
    in_order(n.left.as_deref(), out);
    out.push((n.lo, n.hi, &n.value));
    in_order(n.right.as_deref(), out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_stab_remove() {
        let mut t = IntervalTree::new();
        t.insert(10, 20, "a");
        t.insert(30, 40, "b");
        t.insert(20, 30, "c");
        t.check_invariants();
        assert_eq!(t.len(), 3);
        assert_eq!(t.stab(15).unwrap().2, &"a");
        assert_eq!(t.stab(20).unwrap().2, &"c");
        assert_eq!(t.stab(39).unwrap().2, &"b");
        assert!(t.stab(40).is_none());
        assert!(t.stab(9).is_none());
        let (lo, hi, v) = t.remove(20).unwrap();
        assert_eq!((lo, hi, v), (20, 30, "c"));
        assert!(t.stab(25).is_none());
        t.check_invariants();
    }

    #[test]
    fn empty_interval_is_ignored() {
        let mut t = IntervalTree::new();
        assert_eq!(t.insert(10, 10, "zero"), None);
        assert_eq!(t.insert(20, 10, "inverted"), None);
        assert!(t.is_empty());
        assert!(t.stab(10).is_none());
        t.check_invariants();
    }

    #[test]
    fn same_key_insert_replaces() {
        let mut t = IntervalTree::new();
        t.insert(10, 20, 1);
        let old = t.insert(10, 25, 2);
        assert_eq!(old, Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.stab(22).unwrap().2, &2);
    }

    #[test]
    fn overlaps_query() {
        let mut t = IntervalTree::new();
        for i in 0..10u64 {
            t.insert(i * 100, i * 100 + 50, i);
        }
        let hits = t.overlaps(120, 420);
        let keys: Vec<u64> = hits.iter().map(|(lo, _, _)| *lo).collect();
        assert_eq!(keys, vec![100, 200, 300, 400]);
        assert!(t.overlaps(50, 100).is_empty());
    }

    #[test]
    fn large_sequential_and_random_removal_keeps_invariants() {
        let mut t = IntervalTree::new();
        for i in 0..500u64 {
            t.insert(i * 10, i * 10 + 10, i);
        }
        t.check_invariants();
        assert!(height_of(&t) <= 12, "AVL height must be logarithmic");
        for i in (0..500u64).step_by(2) {
            assert!(t.remove(i * 10).is_some());
        }
        t.check_invariants();
        assert_eq!(t.len(), 250);
        assert!(t.stab(15).is_some());
        assert!(t.stab(5).is_none());
    }

    fn height_of<V>(t: &IntervalTree<V>) -> i32 {
        t.root.as_ref().map_or(0, |n| n.height)
    }

    #[test]
    fn iter_ordered_is_sorted() {
        let mut t = IntervalTree::new();
        for lo in [50u64, 10, 90, 30, 70] {
            t.insert(lo, lo + 5, ());
        }
        let keys: Vec<u64> = t.iter_ordered().iter().map(|(lo, _, _)| *lo).collect();
        assert_eq!(keys, vec![10, 30, 50, 70, 90]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use std::collections::HashMap;

    /// Model: a flat map of lo -> hi (+ value).
    #[derive(Default)]
    struct Model {
        m: HashMap<u64, (u64, u32)>,
    }

    impl Model {
        fn stab(&self, p: u64) -> Option<u32> {
            self.m
                .iter()
                .find(|(lo, (hi, _))| **lo <= p && p < *hi)
                .map(|(_, (_, v))| *v)
        }
    }

    /// Deterministic xorshift64* generator (hermetic proptest replacement).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn behaves_like_model() {
        for seed in 1..=64u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15));
            let mut tree = IntervalTree::new();
            let mut model = Model::default();
            for step in 0..200 {
                let op = rng.below(3) as u8;
                let lo = rng.below(64);
                let len = 1 + rng.below(15);
                let v = rng.next() as u32;
                // Keep model intervals non-overlapping like the detector's:
                // each key owns [lo*100, lo*100+len).
                let lo_scaled = lo * 100;
                let hi = lo_scaled + len;
                match op {
                    0 => {
                        tree.insert(lo_scaled, hi, v);
                        model.m.insert(lo_scaled, (hi, v));
                    }
                    1 => {
                        let a = tree.remove(lo_scaled).map(|(_, _, v)| v);
                        let b = model.m.remove(&lo_scaled).map(|(_, v)| v);
                        assert_eq!(a, b, "remove mismatch (seed {seed} step {step})");
                    }
                    _ => {
                        let p = lo_scaled + len / 2;
                        let a = tree.stab(p).map(|(_, _, v)| *v);
                        let b = model.stab(p);
                        assert_eq!(a, b, "stab mismatch (seed {seed} step {step})");
                    }
                }
                tree.check_invariants();
                assert_eq!(tree.len(), model.m.len(), "len mismatch (seed {seed} step {step})");
            }
        }
    }

    /// §IV-C's O(log m) CV lookup, counted in nodes rather than timed:
    /// with m sections mapped in order or shuffled, the tree keeps the
    /// AVL height bound and a stab visits at most two root-to-leaf paths.
    #[test]
    fn stab_visits_stay_logarithmic_in_mapped_sections() {
        for m in [1u64, 8, 64, 512, 4096] {
            let mut shuffled: Vec<u64> = (0..m).collect();
            let mut rng = Rng(m.wrapping_mul(0x9E3779B97F4A7C15));
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for order in [(0..m).collect(), shuffled] {
                let mut tree = IntervalTree::new();
                for &i in &order {
                    tree.insert(i * 64, i * 64 + 48, i);
                }
                tree.check_invariants();
                let height = tree.root.as_ref().map_or(0, |n| n.height);
                let avl_bound = 1.4405 * ((m + 2) as f64).log2();
                assert!(f64::from(height) <= avl_bound, "m={m}: height {height}");
                let mut max_visits = 0;
                for i in 0..m {
                    for point in [i * 64, i * 64 + 24, i * 64 + 47] {
                        let (lo, _, v, visits) = tree.stab_with_depth(point).expect("mapped");
                        assert_eq!((lo, *v), (i * 64, i), "m={m}: stab({point})");
                        max_visits = max_visits.max(visits);
                    }
                }
                assert!(
                    max_visits <= 2 * height as u32,
                    "m={m}: a stab visited {max_visits} nodes at height {height}"
                );
            }
        }
    }
}
