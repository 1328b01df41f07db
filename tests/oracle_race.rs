//! Differential test of the FastTrack race engine against a reference
//! happens-before model.
//!
//! The reference follows the task and lock rules of Atzeni &
//! Gopalakrishnan's operational semantics for OpenMP race analysis. Every
//! task keeps a full vector clock over unbounded task ids, and every
//! access keeps the clock it ran at. An access races a prior access to a
//! shared byte when one of the two writes and the prior clock is not
//! pointwise below the current one. There are no epochs and no slots.
//!
//! Seeded programs of fork/end/join/acquire/release/access events drive
//! the reference and `RaceEngine`'s public API side by side:
//!
//! * 8-byte mode: every access covers a whole granule. Per granule, the
//!   first access the engine flags must be the first one the reference
//!   flags, and every engine race must be a reference race.
//! * mixed-size mode: accesses of 1, 2, 4 or 8 aligned bytes. Every
//!   engine race must be a reference race. The engine keeps one
//!   last-write epoch per granule, so it forgets an earlier disjoint
//!   write; the races it misses that way are counted and printed.
//!
//! Programs include runs of more than 4096 tasks in total, a long-lived
//! task outlasting thousands of siblings, and more than 4096 tasks alive
//! at once. Malformed streams, as a served trace may carry, must neither
//! panic, nor allocate in proportion to a task id, nor let two live tasks
//! share a slot. Each program builds and drops its own engine, and two
//! threads run programs in turn.

use arbalest::race::{RaceEngine, RaceSnapshot};
use arbalest_ir::rng::SplitMix64;
use std::collections::HashMap;
use std::rc::Rc;

const HOST: u32 = 0;
const BASE: u64 = 0x10_0000;

#[derive(Debug, Clone, Copy)]
enum Ev {
    Fork { parent: u32, child: u32 },
    End(u32),
    Join { waiter: u32, joined: u32 },
    Acquire(u32, u64),
    Release(u32, u64),
    Access { task: u32, addr: u64, size: u8, write: bool },
}

impl Ev {
    fn tasks(self) -> [u32; 2] {
        match self {
            Ev::Fork { parent, child } => [parent, child],
            Ev::Join { waiter, joined } => [waiter, joined],
            Ev::End(t) | Ev::Acquire(t, _) | Ev::Release(t, _) | Ev::Access { task: t, .. } => {
                [t, t]
            }
        }
    }

    fn apply(self, engine: &RaceEngine) -> bool {
        match self {
            Ev::Fork { parent, child } => engine.fork(parent, child),
            Ev::End(t) => engine.end(t),
            Ev::Join { waiter, joined } => engine.join(waiter, joined),
            Ev::Acquire(t, l) => engine.acquire(t, l),
            Ev::Release(t, l) => engine.release(t, l),
            Ev::Access { task, addr, size, write } => {
                let checked = if write {
                    engine.check_write(task, addr, size)
                } else {
                    engine.check_read(task, addr, size)
                };
                return checked.race.is_some();
            }
        }
        false
    }
}

/// A vector clock over unbounded task ids: `(task, count)` sorted by task.
type Clock = Vec<(u32, u64)>;

fn get(c: &Clock, t: u32) -> u64 {
    c.binary_search_by_key(&t, |e| e.0).map_or(0, |i| c[i].1)
}

fn set(c: &mut Clock, t: u32, v: u64) {
    match c.binary_search_by_key(&t, |e| e.0) {
        Ok(i) => c[i].1 = v,
        Err(i) => c.insert(i, (t, v)),
    }
}

/// Pointwise maximum.
fn join_into(a: &mut Clock, b: &Clock) {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x.0 == y.0 => {
                i += 1;
                j += 1;
                (x.0, x.1.max(y.1))
            }
            (Some(&x), Some(&y)) if x.0 < y.0 => {
                i += 1;
                x
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (_, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        out.push(next);
    }
    *a = out;
}

/// `a ⊑ b` pointwise.
fn leq(a: &Clock, b: &Clock) -> bool {
    let mut j = 0;
    a.iter().all(|&(t, v)| {
        while j < b.len() && b[j].0 < t {
            j += 1;
        }
        v <= if j < b.len() && b[j].0 == t { b[j].1 } else { 0 }
    })
}

/// The reference model.
struct Reference {
    tasks: HashMap<u32, Rc<Clock>>,
    locks: HashMap<u64, Rc<Clock>>,
    /// Per byte: the prior accesses (clock, is-write) not yet subsumed.
    bytes: HashMap<u64, Vec<(Rc<Clock>, bool)>>,
}

impl Reference {
    fn new() -> Reference {
        let tasks = HashMap::from([(HOST, Rc::new(vec![(HOST, 1)]))]);
        Reference { tasks, locks: HashMap::new(), bytes: HashMap::new() }
    }

    fn clock(&mut self, t: u32) -> &mut Clock {
        Rc::make_mut(self.tasks.get_mut(&t).expect("well-formed program"))
    }

    fn tick(&mut self, t: u32) {
        let c = self.clock(t);
        let v = get(c, t) + 1;
        set(c, t, v);
    }

    /// Apply one event; true when it is an access racing a prior one.
    fn apply(&mut self, ev: Ev) -> bool {
        match ev {
            Ev::Fork { parent, child } => {
                let mut c = (*self.tasks[&parent]).clone();
                set(&mut c, child, 1);
                self.tasks.insert(child, Rc::new(c));
                self.tick(parent);
            }
            Ev::End(_) => {}
            Ev::Join { waiter, joined } => {
                let j = self.tasks[&joined].clone();
                join_into(self.clock(waiter), &j);
                self.tick(waiter);
            }
            Ev::Acquire(t, l) => {
                if let Some(lc) = self.locks.get(&l).cloned() {
                    join_into(self.clock(t), &lc);
                }
            }
            Ev::Release(t, l) => {
                let c = self.tasks[&t].clone();
                join_into(Rc::make_mut(self.locks.entry(l).or_default()), &c);
                self.tick(t);
            }
            Ev::Access { task, addr, size, write } => {
                let cur = self.tasks[&task].clone();
                let mut memo: Vec<(*const Clock, bool)> = Vec::new();
                let mut ordered = |a: &Rc<Clock>| match memo.iter().find(|m| m.0 == Rc::as_ptr(a)) {
                    Some(&(_, o)) => o,
                    None => {
                        let o = leq(a, &cur);
                        memo.push((Rc::as_ptr(a), o));
                        o
                    }
                };
                let mut raced = false;
                for b in addr..addr + u64::from(size) {
                    let history = self.bytes.entry(b).or_default();
                    raced |= history.iter().any(|(a, aw)| (*aw || write) && !ordered(a));
                    // A prior access ordered before this one is subsumed
                    // when this is a write or both are reads: whatever
                    // later access races it races this one too.
                    history.retain(|(a, aw)| !(ordered(a) && (write || !*aw)));
                    history.push((cur.clone(), write));
                }
                return raced;
            }
        }
        false
    }
}

#[derive(Debug, Default)]
struct Outcome {
    divergences: Vec<String>,
    /// Accesses the reference flags on granules the engine has flagged
    /// nothing on yet, and how many of them the engine misses.
    raced: u64,
    misses: u64,
    /// Event indices the engine flagged.
    engine_flags: Vec<usize>,
}

/// Run a well-formed program through the engine and the reference.
fn run(events: &[Ev], exact: bool) -> Outcome {
    let engine = RaceEngine::new();
    let mut reference = Reference::new();
    let mut last_use: HashMap<u32, usize> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        for t in ev.tasks() {
            last_use.insert(t, i);
        }
    }
    let mut out = Outcome::default();
    let mut first_engine: HashMap<u64, usize> = HashMap::new();
    let mut first_reference: HashMap<u64, usize> = HashMap::new();
    for (i, &ev) in events.iter().enumerate() {
        let engine_raced = ev.apply(&engine);
        let reference_raced = reference.apply(ev);
        if let Ev::Access { addr, .. } = ev {
            let granule = addr & !7;
            let engine_silent = !first_engine.contains_key(&granule);
            if engine_raced {
                out.engine_flags.push(i);
                first_engine.entry(granule).or_insert(i);
                if !reference_raced {
                    out.divergences
                        .push(format!("event {i} {ev:?}: engine race, none in the reference"));
                }
            }
            if reference_raced {
                first_reference.entry(granule).or_insert(i);
                if engine_silent {
                    out.raced += 1;
                    out.misses += u64::from(!engine_raced);
                }
            }
        }
        for t in ev.tasks() {
            if last_use[&t] == i && t != HOST {
                reference.tasks.remove(&t);
            }
        }
    }
    if exact {
        let mut granules: Vec<u64> =
            first_engine.keys().chain(first_reference.keys()).copied().collect();
        granules.sort_unstable();
        granules.dedup();
        for g in granules {
            let (e, r) = (first_engine.get(&g), first_reference.get(&g));
            if e != r {
                out.divergences.push(format!(
                    "granule {g:#x}: engine first flags event {e:?}, the reference {r:?}"
                ));
            }
        }
    }
    out
}

/// Program builder over a seeded stream.
struct Gen {
    rng: SplitMix64,
    events: Vec<Ev>,
    running: Vec<u32>,
    ended: Vec<u32>,
    next: u32,
    /// Locks held, with their holder.
    held: Vec<(u64, u32)>,
    granules: u64,
    mixed: bool,
}

impl Gen {
    fn new(seed: u64, mixed: bool, granules: u64) -> Gen {
        Gen {
            rng: SplitMix64::new(seed),
            events: Vec::new(),
            running: vec![HOST],
            ended: Vec::new(),
            next: 1,
            held: Vec::new(),
            granules,
            mixed,
        }
    }

    fn any(&mut self, of: &[u32]) -> u32 {
        of[self.rng.below(of.len() as u64) as usize]
    }

    fn fork(&mut self, parent: u32) -> u32 {
        let child = self.next;
        self.next += 1;
        self.events.push(Ev::Fork { parent, child });
        self.running.push(child);
        child
    }

    fn end(&mut self, t: u32) {
        self.running.retain(|&r| r != t);
        self.ended.push(t);
        self.events.push(Ev::End(t));
    }

    fn join(&mut self, waiter: u32, joined: u32) {
        self.events.push(Ev::Join { waiter, joined });
    }

    fn access(&mut self, task: u32) {
        let granule = BASE + 8 * self.rng.below(self.granules);
        let size = if self.mixed { 1u8 << self.rng.below(4) } else { 8 };
        let offset = self.rng.below(u64::from(8 / size)) * u64::from(size);
        let write = self.rng.chance(1, 2);
        self.events.push(Ev::Access { task, addr: granule + offset, size, write });
    }

    /// One random event of a small program.
    fn step(&mut self) {
        let running = self.running.clone();
        match self.rng.below(100) {
            0..=44 => {
                let t = self.any(&running);
                self.access(t);
            }
            45..=59 if running.len() < 48 => {
                let p = self.any(&running);
                self.fork(p);
            }
            60..=71 => {
                let free: Vec<u32> = running
                    .iter()
                    .copied()
                    .filter(|&t| t != HOST && self.held.iter().all(|h| h.1 != t))
                    .collect();
                if !free.is_empty() {
                    let t = self.any(&free);
                    self.end(t);
                }
            }
            72..=85 if !self.ended.is_empty() => {
                let waiter = self.any(&running);
                let ended = self.ended.clone();
                let joined = self.any(&ended);
                self.join(waiter, joined);
            }
            86..=92 => {
                let lock = self.rng.below(3);
                if self.held.iter().all(|h| h.0 != lock) {
                    let t = self.any(&running);
                    self.held.push((lock, t));
                    self.events.push(Ev::Acquire(t, lock));
                }
            }
            93..=99 if !self.held.is_empty() => {
                let (lock, t) =
                    self.held.swap_remove(self.rng.below(self.held.len() as u64) as usize);
                self.events.push(Ev::Release(t, lock));
            }
            _ => {}
        }
    }
}

fn random_program(seed: u64, mixed: bool) -> Vec<Ev> {
    let mut g = Gen::new(seed, mixed, 6);
    let steps = 100 + g.rng.below(300);
    for _ in 0..steps {
        g.step();
    }
    g.events
}

/// More than 4096 tasks in total, forked, ended and joined by the host a
/// few at a time, beside one long-lived task that outlasts them all.
fn many_total_tasks(seed: u64) -> Vec<Ev> {
    let mut g = Gen::new(seed, false, 8);
    let long = g.fork(HOST);
    g.access(long);
    let mut pending = Vec::new();
    while g.next <= 4300 {
        let c = g.fork(HOST);
        if g.rng.chance(1, 8) {
            g.access(c);
        }
        if g.rng.chance(1, 16) {
            let gc = g.fork(c);
            g.access(gc);
            g.end(gc);
            g.join(c, gc);
        }
        g.end(c);
        pending.push(c);
        if pending.len() as u64 > g.rng.below(4) {
            for p in std::mem::take(&mut pending) {
                g.join(HOST, p);
            }
        }
        if g.rng.chance(1, 32) {
            let k = g.fork(long);
            g.access(k);
            g.end(k);
            g.join(long, k);
        }
        if g.rng.chance(1, 64) {
            g.access(long);
        }
        if g.rng.chance(1, 64) {
            g.access(HOST);
        }
    }
    g.access(long);
    g.end(long);
    g.join(HOST, long);
    g.access(HOST);
    g.events
}

/// More than 4096 tasks alive at once, then a wave on recycled slots.
fn many_live_tasks(seed: u64) -> Vec<Ev> {
    let mut g = Gen::new(seed, false, 8);
    let mut live = Vec::new();
    for _ in 0..4200 {
        let c = g.fork(HOST);
        if g.rng.chance(1, 16) {
            g.access(c);
        }
        live.push(c);
    }
    for c in live {
        if g.rng.chance(1, 64) {
            g.access(c);
        }
        g.end(c);
        g.join(HOST, c);
    }
    for _ in 0..200 {
        let c = g.fork(HOST);
        if g.rng.chance(1, 4) {
            g.access(c);
        }
        g.end(c);
        if g.rng.chance(1, 2) {
            g.join(HOST, c);
        }
    }
    g.access(HOST);
    g.events
}

/// An untrusted stream: huge and sparse task ids, joins of unknown or
/// running tasks, tasks that never end, forks of registered ids, and
/// events by tasks never forked.
fn malformed_stream(seed: u64) -> Vec<Ev> {
    let mut rng = SplitMix64::new(seed);
    let mut ids = vec![HOST, 1, 2, 3, u32::MAX, u32::MAX - 1, 1 << 31, 4097];
    ids.extend((0..8).map(|_| rng.next_u64() as u32));
    let id = |rng: &mut SplitMix64| ids[rng.below(ids.len() as u64) as usize];
    let mut events = Vec::new();
    for _ in 0..rng.range(200, 600) {
        let (a, b) = (id(&mut rng), id(&mut rng));
        events.push(match rng.below(6) {
            0 => Ev::Fork { parent: a, child: b },
            1 => Ev::End(a),
            2 => Ev::Join { waiter: a, joined: b },
            3 => Ev::Acquire(a, rng.below(4)),
            4 => Ev::Release(a, rng.below(4)),
            _ => Ev::Access {
                task: a,
                addr: BASE + 8 * rng.below(8),
                size: 8,
                write: rng.chance(1, 2),
            },
        });
    }
    // A flood of never-ending tasks under sparse ids.
    let parent = id(&mut rng);
    for _ in 0..rng.range(100, 5000) {
        events.push(Ev::Fork { parent, child: rng.next_u64() as u32 });
    }
    events
}

/// No two unreleased tasks share a slot, a task on a recycled slot
/// started above every earlier owner, and a pooled slot has no live owner.
fn assert_no_aliasing(snap: &RaceSnapshot, what: &str) {
    let mut by_slot: HashMap<u16, Vec<_>> = HashMap::new();
    for t in &snap.tasks {
        by_slot.entry(t.tid).or_default().push(t);
    }
    for (slot, owners) in &by_slot {
        let live: Vec<_> = owners.iter().filter(|t| !t.released).collect();
        assert!(live.len() <= 1, "{what}: slot {slot} is live in tasks {live:?}");
        let pooled = snap.free_slots.iter().filter(|f| f.0 == *slot).count();
        assert!(pooled + live.len() <= 1, "{what}: slot {slot} is pooled and live");
        for done in owners.iter().filter(|t| t.released) {
            if let Some(l) = live.first() {
                assert!(l.own > done.own, "{what}: slot {slot} reused below its last owner");
            }
            assert!(
                snap.free_slots.iter().all(|f| f.0 != *slot || f.1 >= done.own),
                "{what}: slot {slot} pooled below its last owner"
            );
        }
    }
}

fn check(events: &[Ev], exact: bool, what: &str) -> Outcome {
    let out = run(events, exact);
    assert!(out.divergences.is_empty(), "{what}: {:#?}", out.divergences);
    out
}

/// Seeds `seeds` of both modes and malformed streams, split over two
/// threads that each build and drop one engine per program. Prints the
/// mixed-size misses.
fn sweep(seeds: std::ops::Range<u64>) {
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u64)
            .map(|w| {
                let seeds = seeds.clone();
                s.spawn(move || {
                    let (mut raced, mut misses) = (0, 0);
                    for seed in seeds.filter(|s| s % 2 == w) {
                        check(&random_program(seed, false), true, &format!("8-byte seed {seed}"));
                        let out = check(
                            &random_program(seed, true),
                            false,
                            &format!("mixed seed {seed}"),
                        );
                        raced += out.raced;
                        misses += out.misses;
                        let stream = malformed_stream(seed);
                        let engine = RaceEngine::new();
                        for ev in &stream {
                            ev.apply(&engine);
                        }
                        let snap = engine.to_snapshot();
                        assert_no_aliasing(&snap, &format!("malformed seed {seed}"));
                        assert_eq!(RaceEngine::from_snapshot(&snap).to_snapshot(), snap);
                        assert!(
                            engine.approx_bytes() < 8 << 20,
                            "malformed seed {seed}: {} bytes",
                            engine.approx_bytes()
                        );
                    }
                    (raced, misses)
                })
            })
            .collect();
        let (raced, misses) = workers
            .into_iter()
            .map(|w| w.join().expect("sweep worker"))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        println!("mixed-size mode: the engine missed {misses} of {raced} reference races");
    });
}

fn big_programs(seed: u64) {
    for (name, events) in
        [("many-total", many_total_tasks(seed)), ("many-live", many_live_tasks(seed))]
    {
        let out = check(&events, true, &format!("{name} seed {seed}"));
        assert!(out.engine_flags.len() as u64 + out.misses > 0, "{name} seed {seed} raced nowhere");
    }
}

#[test]
fn wraparound_race_is_caught() {
    // Task 1 stays live while tasks 2..=4096 fork, end and are joined;
    // task 5000 then writes task 1's granule, ordered after none of it.
    let mut events = vec![
        Ev::Fork { parent: HOST, child: 1 },
        Ev::Access { task: 1, addr: BASE, size: 8, write: true },
    ];
    for t in 2..=4096 {
        events.extend([
            Ev::Fork { parent: HOST, child: t },
            Ev::End(t),
            Ev::Join { waiter: HOST, joined: t },
        ]);
    }
    events.push(Ev::Fork { parent: HOST, child: 5000 });
    events.push(Ev::Access { task: 5000, addr: BASE, size: 8, write: true });
    let out = check(&events, true, "wraparound");
    assert_eq!(out.engine_flags, vec![events.len() - 1]);
}

#[test]
fn disjoint_bytes_of_shared_reads_do_not_race() {
    // Two concurrent reads of bytes 0..4, then a concurrent write of
    // bytes 4..8: no byte is shared, so no race.
    // The same reads of another granule, then an overlapping write: race.
    let mut events: Vec<Ev> = (1..=3).map(|c| Ev::Fork { parent: HOST, child: c }).collect();
    for (granule, write) in [(BASE, BASE + 4), (BASE + 8, BASE + 10)] {
        events.extend([
            Ev::Access { task: 1, addr: granule, size: 4, write: false },
            Ev::Access { task: 2, addr: granule, size: 4, write: false },
            Ev::Access { task: 3, addr: write, size: 2, write: true },
        ]);
    }
    let out = check(&events, true, "shared reads");
    assert_eq!(out.engine_flags, vec![events.len() - 1], "only the overlapping write races");
}

#[test]
fn mini_sweep_agrees_with_the_reference() {
    sweep(0..48);
    big_programs(1);
}

#[test]
#[ignore = "long sweep; run explicitly (ci.sh runs it in release)"]
fn long_sweep_agrees_with_the_reference() {
    sweep(0..3000);
    for seed in 2..10 {
        big_programs(seed);
    }
}
