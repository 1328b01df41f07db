//! Vector clocks and epochs (FastTrack's `tid@clock` pairs).

/// Number of thread slots the engine can hand out (`u16`). The shadow
/// word's Table II TID field keeps the low 12 bits of a slot.
pub const MAX_TIDS: usize = 1 << 16;

/// A FastTrack epoch: one thread's scalar clock at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    /// Thread slot.
    pub tid: u16,
    /// Scalar clock value.
    pub clock: u64,
}

impl Epoch {
    /// The "never accessed" epoch.
    pub const ZERO: Epoch = Epoch { tid: 0, clock: 0 };

    /// `self ⪯ vc` — the epoch happens-before (or equals) the clock.
    #[inline]
    pub fn leq(self, vc: &VectorClock) -> bool {
        self.clock <= vc.get(self.tid)
    }

    /// True when this is the zero epoch.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.clock == 0
    }
}

/// A growable vector clock indexed by thread slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock {
    slots: Vec<u64>,
}

impl VectorClock {
    /// The empty (all-zero) clock.
    pub const fn new() -> Self {
        VectorClock { slots: Vec::new() }
    }

    /// Component for `tid` (0 when never set).
    #[inline]
    pub fn get(&self, tid: u16) -> u64 {
        self.slots.get(tid as usize).copied().unwrap_or(0)
    }

    /// Set a component.
    pub fn set(&mut self, tid: u16, value: u64) {
        let idx = tid as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, 0);
        }
        self.slots[idx] = value;
    }

    /// Raise a component to at least `value`.
    pub fn raise(&mut self, tid: u16, value: u64) {
        if value > self.get(tid) {
            self.set(tid, value);
        }
    }

    /// Increment own component; returns the new value.
    pub fn tick(&mut self, tid: u16) -> u64 {
        let v = self.get(tid) + 1;
        self.set(tid, v);
        v
    }

    /// Pointwise maximum (`self ⊔= other`).
    pub fn join(&mut self, other: &VectorClock) {
        if other.slots.len() > self.slots.len() {
            self.slots.resize(other.slots.len(), 0);
        }
        for (a, b) in self.slots.iter_mut().zip(other.slots.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// `self ⪯ other` pointwise.
    pub fn leq(&self, other: &VectorClock) -> bool {
        self.slots.iter().enumerate().all(|(i, v)| *v <= other.get(i as u16))
    }

    /// The epoch of `tid` in this clock.
    #[inline]
    pub fn epoch(&self, tid: u16) -> Epoch {
        Epoch { tid, clock: self.get(tid) }
    }

    /// Heap bytes held.
    pub fn approx_bytes(&self) -> u64 {
        (self.slots.capacity() * 8) as u64
    }

    /// Raw slot values (index = thread slot), for state snapshots. Pairs
    /// with [`VectorClock::from_slots`]: `from_slots(vc.slot_values().to_vec())`
    /// compares equal to `vc`, including trailing zeros, so a snapshot
    /// round trip is exact.
    pub fn slot_values(&self) -> &[u64] {
        &self.slots
    }

    /// Rebuild a clock from values dumped by [`VectorClock::slot_values`].
    pub fn from_slots(slots: Vec<u64>) -> VectorClock {
        VectorClock { slots }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_tick() {
        let mut vc = VectorClock::new();
        assert_eq!(vc.get(5), 0);
        vc.set(5, 10);
        assert_eq!(vc.get(5), 10);
        assert_eq!(vc.tick(5), 11);
        assert_eq!(vc.tick(2), 1);
        assert_eq!(vc.get(2), 1);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VectorClock::new();
        a.set(0, 3);
        a.set(2, 7);
        let mut b = VectorClock::new();
        b.set(0, 5);
        b.set(1, 1);
        a.join(&b);
        assert_eq!(a.get(0), 5);
        assert_eq!(a.get(1), 1);
        assert_eq!(a.get(2), 7);
    }

    #[test]
    fn epoch_leq() {
        let mut vc = VectorClock::new();
        vc.set(3, 9);
        assert!(Epoch { tid: 3, clock: 9 }.leq(&vc));
        assert!(Epoch { tid: 3, clock: 8 }.leq(&vc));
        assert!(!Epoch { tid: 3, clock: 10 }.leq(&vc));
        assert!(Epoch { tid: 7, clock: 0 }.leq(&vc));
        assert!(!Epoch { tid: 7, clock: 1 }.leq(&vc));
    }

    #[test]
    fn vc_leq() {
        let mut a = VectorClock::new();
        a.set(0, 1);
        let mut b = VectorClock::new();
        b.set(0, 2);
        b.set(1, 1);
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
    }

    #[test]
    fn happens_before_transitivity_via_join() {
        // t0 ticks, forks t1 (join of t0's clock); t1's work is ordered
        // after t0's pre-fork work.
        let mut t0 = VectorClock::new();
        t0.tick(0);
        let e = t0.epoch(0);
        let mut t1 = VectorClock::new();
        t1.join(&t0);
        t1.tick(1);
        assert!(e.leq(&t1));
    }
}
