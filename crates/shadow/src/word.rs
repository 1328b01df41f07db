//! Bit-packed shadow state encodings.
//!
//! The default layout is the paper's Table II, 64 bits per 8-byte
//! application granule:
//!
//! | Field              | Size    |
//! |--------------------|---------|
//! | IsOVValid          | 1 bit   |
//! | IsCVValid          | 1 bit   |
//! | IsOVInitialized    | 1 bit   |
//! | IsCVInitialized    | 1 bit   |
//! | TID (thread id)    | 12 bits |
//! | Scalar clock       | 42 bits |
//! | IsWrite            | 1 bit   |
//! | Access size        | 2 bits  |
//! | Address offset     | 3 bits  |
//!
//! The §IV-C multi-device extension widens validity/initialisation to one
//! bit per storage location — host plus up to seven accelerators — by
//! narrowing the scalar clock; state stays O(n+1) bits in a single word,
//! preserving the lock-free CAS update discipline.
//!
//! Both layouts decode to the same [`GranuleState`], which the VSM logic
//! in `arbalest-core` operates on.

/// Decoded per-granule shadow state, layout-independent.
///
/// `valid_mask`/`init_mask` bit 0 describes the OV (host storage); bit
/// `d` (1-based) describes the CV on accelerator `d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GranuleState {
    /// Which storage locations hold the last write's value.
    pub valid_mask: u8,
    /// Which storage locations have ever been initialised.
    pub init_mask: u8,
    /// Thread-slot id of the last recorded access.
    pub tid: u16,
    /// Scalar clock of the last recorded access.
    pub clock: u64,
    /// Whether the last recorded access was a write.
    pub is_write: bool,
    /// Size of the last access in bytes (1, 2, 4 or 8).
    pub access_size: u8,
    /// Byte offset (0..7) of the last access within the granule.
    pub addr_offset: u8,
}

impl Default for GranuleState {
    /// The all-zero shadow word: nothing valid, nothing initialised —
    /// VSM's *invalid* starting state. (`access_size` defaults to 1, the
    /// size class encoded by zero bits.)
    fn default() -> Self {
        GranuleState {
            valid_mask: 0,
            init_mask: 0,
            tid: 0,
            clock: 0,
            is_write: false,
            access_size: 1,
            addr_offset: 0,
        }
    }
}

impl GranuleState {
    /// Bit index of the host (OV) in the masks.
    pub const HOST_BIT: u8 = 0;

    /// Mask bit for a storage location: 0 = OV, `d` = accelerator `d`'s CV.
    #[inline]
    pub fn bit(loc: u8) -> u8 {
        1 << loc
    }

    /// Whether the OV currently holds the valid value.
    #[inline]
    pub fn ov_valid(&self) -> bool {
        self.valid_mask & 1 != 0
    }

    /// Whether the CV on location `loc` holds the valid value.
    #[inline]
    pub fn valid(&self, loc: u8) -> bool {
        self.valid_mask & Self::bit(loc) != 0
    }

    /// Whether location `loc` was ever initialised.
    #[inline]
    pub fn initialised(&self, loc: u8) -> bool {
        self.init_mask & Self::bit(loc) != 0
    }
}

/// Size class encoding for the 2-bit access-size field.
#[inline]
fn size_class(size: u8) -> u64 {
    match size {
        1 => 0,
        2 => 1,
        4 => 2,
        _ => 3, // 8
    }
}

#[inline]
fn class_size(class: u64) -> u8 {
    1 << class
}

/// Shadow word layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Exact Table II layout: one accelerator, 42-bit clock.
    TableII,
    /// §IV-C extension: 8-bit validity/init masks (host + 7 accelerators),
    /// 30-bit clock.
    MultiDevice,
}

impl Layout {
    /// Pick the layout for a device count (accelerators, excluding host).
    pub fn for_accelerators(n: u16) -> Layout {
        if n <= 1 {
            Layout::TableII
        } else {
            Layout::MultiDevice
        }
    }

    /// Maximum representable clock value before wrap-around.
    pub fn clock_max(self) -> u64 {
        match self {
            Layout::TableII => (1 << 42) - 1,
            Layout::MultiDevice => (1 << 30) - 1,
        }
    }

    /// Maximum representable thread-slot id.
    pub fn tid_max(self) -> u16 {
        (1 << 12) - 1
    }

    /// Encode a state into a 64-bit shadow word. The thread slot keeps
    /// its low 12 bits and the clock its low [`Layout::clock_max`] bits:
    /// both fields only annotate reports.
    pub fn encode(self, s: GranuleState) -> u64 {
        let tid = s.tid & self.tid_max();
        let clock = s.clock & self.clock_max();
        match self {
            Layout::TableII => {
                // bit0 IsOVValid | bit1 IsCVValid | bit2 IsOVInit |
                // bit3 IsCVInit | 4..16 TID | 16..58 clock |
                // 58 IsWrite | 59..61 size | 61..64 offset
                let mut w = 0u64;
                w |= (s.valid_mask as u64 & 0b01) | ((s.valid_mask as u64 >> 1) & 0b01) << 1;
                w |= ((s.init_mask as u64 & 0b01) << 2) | (((s.init_mask as u64 >> 1) & 0b01) << 3);
                w |= (tid as u64) << 4;
                w |= clock << 16;
                w |= (s.is_write as u64) << 58;
                w |= size_class(s.access_size) << 59;
                w |= (s.addr_offset as u64 & 0b111) << 61;
                w
            }
            Layout::MultiDevice => {
                // 0..8 valid mask | 8..16 init mask | 16..28 TID |
                // 28..58 clock | 58 IsWrite | 59..61 size | 61..64 offset
                let mut w = 0u64;
                w |= s.valid_mask as u64;
                w |= (s.init_mask as u64) << 8;
                w |= (tid as u64) << 16;
                w |= clock << 28;
                w |= (s.is_write as u64) << 58;
                w |= size_class(s.access_size) << 59;
                w |= (s.addr_offset as u64 & 0b111) << 61;
                w
            }
        }
    }

    /// Decode a 64-bit shadow word.
    pub fn decode(self, w: u64) -> GranuleState {
        match self {
            Layout::TableII => GranuleState {
                valid_mask: ((w & 0b01) | ((w >> 1) & 0b01) << 1) as u8,
                init_mask: (((w >> 2) & 0b01) | (((w >> 3) & 0b01) << 1)) as u8,
                tid: ((w >> 4) & 0xFFF) as u16,
                clock: (w >> 16) & self.clock_max(),
                is_write: (w >> 58) & 1 != 0,
                access_size: class_size((w >> 59) & 0b11),
                addr_offset: ((w >> 61) & 0b111) as u8,
            },
            Layout::MultiDevice => GranuleState {
                valid_mask: (w & 0xFF) as u8,
                init_mask: ((w >> 8) & 0xFF) as u8,
                tid: ((w >> 16) & 0xFFF) as u16,
                clock: (w >> 28) & self.clock_max(),
                is_write: (w >> 58) & 1 != 0,
                access_size: class_size((w >> 59) & 0b11),
                addr_offset: ((w >> 61) & 0b111) as u8,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GranuleState {
        GranuleState {
            valid_mask: 0b10,
            init_mask: 0b11,
            tid: 0x6AB,
            clock: 123_456_789,
            is_write: true,
            access_size: 4,
            addr_offset: 5,
        }
    }

    #[test]
    fn table_ii_roundtrip() {
        let l = Layout::TableII;
        assert_eq!(l.decode(l.encode(sample())), sample());
    }

    #[test]
    fn multi_device_roundtrip() {
        let l = Layout::MultiDevice;
        let mut s = sample();
        s.valid_mask = 0b1010_0101;
        s.init_mask = 0b1111_0001;
        assert_eq!(l.decode(l.encode(s)), s);
    }

    #[test]
    fn table_ii_field_positions_match_the_paper() {
        let l = Layout::TableII;
        // The all-zero word is the default (invalid) state.
        assert_eq!(l.encode(GranuleState::default()), 0);
        assert_eq!(l.decode(0), GranuleState::default());
        // IsOVValid is bit 0.
        let s = GranuleState { valid_mask: 0b01, ..Default::default() };
        assert_eq!(l.encode(s), 1);
        // IsCVValid is bit 1.
        let s = GranuleState { valid_mask: 0b10, ..Default::default() };
        assert_eq!(l.encode(s), 2);
        // IsOVInitialized is bit 2, IsCVInitialized bit 3.
        let s = GranuleState { init_mask: 0b01, ..Default::default() };
        assert_eq!(l.encode(s), 4);
        let s = GranuleState { init_mask: 0b10, ..Default::default() };
        assert_eq!(l.encode(s), 8);
        // TID occupies bits 4..16 (12 bits).
        let s = GranuleState { tid: 0xFFF, ..Default::default() };
        assert_eq!(l.encode(s), 0xFFF << 4);
        // Clock occupies 42 bits starting at 16.
        let s = GranuleState { clock: l.clock_max(), ..Default::default() };
        assert_eq!(l.encode(s) >> 16 & l.clock_max(), l.clock_max());
    }

    #[test]
    fn clock_wraps_at_capacity() {
        let l = Layout::TableII;
        let s = GranuleState { clock: l.clock_max() + 5, access_size: 1, ..Default::default() };
        assert_eq!(l.decode(l.encode(s)).clock, 4);
    }

    #[test]
    fn tid_keeps_its_low_12_bits() {
        for l in [Layout::TableII, Layout::MultiDevice] {
            let s = GranuleState { tid: 4096 + 10, access_size: 1, ..Default::default() };
            let back = l.decode(l.encode(s));
            assert_eq!(back.tid, 10);
            assert_eq!(back.clock, 0, "the slot does not spill into the clock");
        }
    }

    #[test]
    fn access_size_classes() {
        for size in [1u8, 2, 4, 8] {
            for l in [Layout::TableII, Layout::MultiDevice] {
                let s = GranuleState { access_size: size, ..Default::default() };
                assert_eq!(l.decode(l.encode(s)).access_size, size);
            }
        }
    }

    #[test]
    fn layout_choice() {
        assert_eq!(Layout::for_accelerators(0), Layout::TableII);
        assert_eq!(Layout::for_accelerators(1), Layout::TableII);
        assert_eq!(Layout::for_accelerators(2), Layout::MultiDevice);
        assert_eq!(Layout::for_accelerators(7), Layout::MultiDevice);
    }

    #[test]
    fn granule_state_mask_helpers() {
        let s = GranuleState { valid_mask: 0b011, init_mask: 0b100, ..Default::default() };
        assert!(s.ov_valid());
        assert!(s.valid(1));
        assert!(!s.valid(2));
        assert!(s.initialised(2));
        assert!(!s.initialised(0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;

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

    fn random_state(rng: &mut Rng, layout: Layout) -> GranuleState {
        let mask_max = match layout {
            Layout::TableII => 0b11u64,
            Layout::MultiDevice => 0xFF,
        };
        GranuleState {
            valid_mask: rng.below(mask_max + 1) as u8,
            init_mask: rng.below(mask_max + 1) as u8,
            tid: rng.below(4096) as u16,
            clock: rng.below(layout.clock_max() + 1),
            is_write: rng.below(2) == 1,
            access_size: [1u8, 2, 4, 8][rng.below(4) as usize],
            addr_offset: rng.below(8) as u8,
        }
    }

    #[test]
    fn table_ii_roundtrips() {
        let l = Layout::TableII;
        let mut rng = Rng(0x1234_5678_9ABC_DEF1);
        for _ in 0..4096 {
            let s = random_state(&mut rng, l);
            assert_eq!(l.decode(l.encode(s)), s, "{s:?}");
        }
    }

    #[test]
    fn multi_roundtrips() {
        let l = Layout::MultiDevice;
        let mut rng = Rng(0x0BAD_CAFE_DEAD_BEEF);
        for _ in 0..4096 {
            let s = random_state(&mut rng, l);
            assert_eq!(l.decode(l.encode(s)), s, "{s:?}");
        }
    }

    #[test]
    fn encodings_are_injective_modulo_fields() {
        let l = Layout::MultiDevice;
        let mut rng = Rng(0x5EED_5EED_5EED_5EED);
        for _ in 0..4096 {
            let a = random_state(&mut rng, l);
            let b = random_state(&mut rng, l);
            if a != b {
                assert_ne!(l.encode(a), l.encode(b), "{a:?} vs {b:?}");
            }
        }
    }
}
