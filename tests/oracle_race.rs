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
//! at once. Kernel-shaped programs re-read inputs and rewrite their own
//! output in the same epoch, so many of their accesses repeat an earlier
//! one; the sweep prints that share. Malformed streams, as a served trace
//! may carry, must neither panic, nor allocate in proportion to a task id,
//! nor let two live tasks share a slot. Each program builds and drops its
//! own engine, and two threads run programs in turn.
//!
//! Both sweeps pin the engine's verdicts and states as goldens: the number
//! of flagged accesses, a digest of the flagged (mode, seed, event)
//! triples and a digest of every program's final snapshot. A change that
//! alters a verdict on purpose updates them and says why.

use arbalest::race::{RaceEngine, RaceSnapshot};
use arbalest_ir::rng::SplitMix64;
use std::collections::{HashMap, HashSet, VecDeque};
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
    /// The engine's state after the last event.
    snapshot: Option<RaceSnapshot>,
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
    out.snapshot = Some(engine.to_snapshot());
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

/// A kernel-shaped program, as a `parallel for` leaves it. Per region the
/// host forks a team of 2–4 tasks. Each task re-reads a shared input
/// window, and reads and writes its own output chunk, in several rounds;
/// some rounds update the chunk inside a critical section. Then the team
/// ends and the host joins it. Some regions overlap two chunks or have a
/// task write the input, so races occur. `elem` is the access size: 8, or
/// 4 so that neighbouring chunks share granules.
fn kernel_program(seed: u64, elem: u8) -> Vec<Ev> {
    const LOCK: u64 = 0;
    let mut rng = SplitMix64::new(seed);
    let e = u64::from(elem);
    let (input, output) = (BASE, BASE + 0x1000);
    let access = |task, addr, write| Ev::Access { task, addr, size: elem, write };
    let mut events = Vec::new();
    let mut next = 1;
    for _ in 0..rng.range(2, 5) {
        let team: Vec<u32> = (next..next + rng.range(2, 4) as u32).collect();
        next += team.len() as u32;
        events.extend(team.iter().map(|&child| Ev::Fork { parent: HOST, child }));
        let (first, window, chunk) = (rng.below(4), rng.range(1, 4), rng.range(1, 4));
        let overlap = u64::from(rng.chance(1, 4));
        let input_writer = rng.chance(1, 5).then(|| rng.below(team.len() as u64) as usize);
        let mut scripts: Vec<VecDeque<Ev>> = Vec::new();
        for (k, &t) in team.iter().enumerate() {
            let start = output + e * (k as u64 * chunk).saturating_sub(overlap);
            let mut script = VecDeque::new();
            for round in 0..rng.range(2, 4) {
                // A stencil's reads: each element's window overlaps the next.
                for i in 0..chunk {
                    let reads = (i..i + window).map(|j| access(t, input + e * (first + j), false));
                    script.extend(reads);
                }
                let critical = rng.chance(1, 4);
                if critical {
                    script.push_back(Ev::Acquire(t, LOCK));
                }
                let write_first = rng.chance(1, 2);
                for i in 0..chunk {
                    let a = start + e * i;
                    script.extend([access(t, a, !write_first), access(t, a, write_first)]);
                }
                if critical {
                    script.push_back(Ev::Release(t, LOCK));
                }
                if input_writer == Some(k) && round == 1 {
                    script.push_back(access(t, input + e * first, true));
                }
            }
            script.push_back(Ev::End(t));
            scripts.push(script);
        }
        // Interleave the scripts at random, one holder of the lock at a time.
        let mut holder = None;
        loop {
            let ready: Vec<usize> = (0..scripts.len())
                .filter(|&k| match scripts[k].front() {
                    Some(Ev::Acquire(..)) => holder.is_none(),
                    next => next.is_some(),
                })
                .collect();
            if ready.is_empty() {
                break;
            }
            let k = ready[rng.below(ready.len() as u64) as usize];
            let ev = scripts[k].pop_front().expect("a ready script has an event");
            match ev {
                Ev::Acquire(t, _) => holder = Some(t),
                Ev::Release(..) => holder = None,
                _ => {}
            }
            events.push(ev);
        }
        events.extend(team.iter().map(|&joined| Ev::Join { waiter: HOST, joined }));
        if rng.chance(1, 3) {
            events.push(access(HOST, input + e * rng.below(8), true));
        }
    }
    events
}

/// The accesses of `events`, and how many of them repeat the task's
/// previous access to the same bytes with the same kind, with no sync
/// event of that task and no write to the granule in between.
fn count_repeats(events: &[Ev]) -> (u64, u64) {
    let mut live: HashSet<(u32, u64, u8, bool)> = HashSet::new();
    let (mut accesses, mut repeats) = (0, 0);
    for &ev in events {
        match ev {
            Ev::Access { task, addr, size, write } => {
                accesses += 1;
                repeats += u64::from(live.contains(&(task, addr, size, write)));
                if write {
                    live.retain(|&(_, a, _, _)| a & !7 != addr & !7);
                }
                live.insert((task, addr, size, write));
            }
            _ => {
                let [a, b] = ev.tasks();
                live.retain(|&(t, ..)| t != a && t != b);
            }
        }
    }
    (accesses, repeats)
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

/// FNV-1a, for digests that do not depend on hashing seeds.
fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// What a sweep saw, summed over its programs.
#[derive(Debug, Default)]
struct Tally {
    /// Accesses the engine flagged.
    flags: u64,
    /// Sum of the digests of the flagged (mode, seed, event) triples.
    flag_digest: u64,
    /// Sum of the digests of every program's final snapshot.
    state_digest: u64,
    /// Mixed-size mode: reference races on granules the engine had not
    /// flagged yet, and how many of them the engine missed.
    raced: u64,
    misses: u64,
    /// Kernel-shaped programs: accesses, and same-epoch repeats among them.
    kernel_accesses: u64,
    kernel_repeats: u64,
}

impl Tally {
    fn note(&mut self, mode: &str, seed: u64, flags: &[usize], snap: &RaceSnapshot) {
        self.flags += flags.len() as u64;
        for i in flags {
            self.flag_digest =
                self.flag_digest.wrapping_add(fnv(format!("{mode} {seed} {i}").as_bytes()));
        }
        self.state_digest =
            self.state_digest.wrapping_add(fnv(format!("{mode} {seed} {snap:?}").as_bytes()));
    }

    fn add(self, o: Tally) -> Tally {
        Tally {
            flags: self.flags + o.flags,
            flag_digest: self.flag_digest.wrapping_add(o.flag_digest),
            state_digest: self.state_digest.wrapping_add(o.state_digest),
            raced: self.raced + o.raced,
            misses: self.misses + o.misses,
            kernel_accesses: self.kernel_accesses + o.kernel_accesses,
            kernel_repeats: self.kernel_repeats + o.kernel_repeats,
        }
    }

    fn note_checked(&mut self, mode: &str, seed: u64, out: &Outcome) {
        let snap = out.snapshot.as_ref().expect("run keeps the final state");
        self.note(mode, seed, &out.engine_flags, snap);
    }
}

/// One seed of every mode: 8-byte and mixed-size random programs, kernel
/// programs of 8- and 4-byte elements, and a malformed stream.
fn sweep_seed(seed: u64, tally: &mut Tally) {
    let out = check(&random_program(seed, false), true, &format!("8-byte seed {seed}"));
    tally.note_checked("8-byte", seed, &out);
    let out = check(&random_program(seed, true), false, &format!("mixed seed {seed}"));
    tally.note_checked("mixed", seed, &out);
    tally.raced += out.raced;
    tally.misses += out.misses;
    for elem in [8, 4] {
        let events = kernel_program(seed, elem);
        let out = check(&events, elem == 8, &format!("kernel-{elem} seed {seed}"));
        tally.note_checked(&format!("kernel-{elem}"), seed, &out);
        let (accesses, repeats) = count_repeats(&events);
        tally.kernel_accesses += accesses;
        tally.kernel_repeats += repeats;
    }
    let stream = malformed_stream(seed);
    let engine = RaceEngine::new();
    let flags: Vec<usize> = (0..stream.len()).filter(|&i| stream[i].apply(&engine)).collect();
    let snap = engine.to_snapshot();
    assert_no_aliasing(&snap, &format!("malformed seed {seed}"));
    assert_eq!(RaceEngine::from_snapshot(&snap).to_snapshot(), snap);
    assert!(
        engine.approx_bytes() < 8 << 20,
        "malformed seed {seed}: {} bytes",
        engine.approx_bytes()
    );
    tally.note("malformed", seed, &flags, &snap);
}

/// Seeds `seeds` of every mode, split over two threads that each build
/// and drop one engine per program. Prints the mixed-size misses and the
/// kernel programs' repeat share, and checks the repeats are at least 30%
/// of their accesses.
fn sweep(seeds: std::ops::Range<u64>) -> Tally {
    let tally = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u64)
            .map(|w| {
                let seeds = seeds.clone();
                s.spawn(move || {
                    let mut tally = Tally::default();
                    for seed in seeds.filter(|s| s % 2 == w) {
                        sweep_seed(seed, &mut tally);
                    }
                    tally
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("sweep worker"))
            .fold(Tally::default(), Tally::add)
    });
    println!(
        "mixed-size mode: the engine missed {} of {} reference races",
        tally.misses, tally.raced
    );
    let share = tally.kernel_repeats as f64 / tally.kernel_accesses.max(1) as f64;
    println!(
        "kernel programs: {} of {} accesses repeat a same-epoch access ({:.1}%)",
        tally.kernel_repeats,
        tally.kernel_accesses,
        100.0 * share
    );
    assert!(share >= 0.3, "kernel programs repeat too little: {tally:?}");
    println!(
        "verdict goldens: {} flags, flag digest {:#018x}, state digest {:#018x}",
        tally.flags, tally.flag_digest, tally.state_digest
    );
    tally
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

/// Flags, flag digest and state digest of a sweep.
fn goldens(t: Tally) -> (u64, u64, u64) {
    (t.flags, t.flag_digest, t.state_digest)
}

#[test]
fn mini_sweep_agrees_with_the_reference() {
    let tally = sweep(0..48);
    // 3438 8-byte, 2373 mixed, 312 + 210 kernel and 1914 malformed flags.
    let expected = (8247, 0x6b76_47c8_d446_b72d, 0x8d11_01db_e8a2_1860);
    assert_eq!(goldens(tally), expected, "the mini sweep's verdicts or states changed");
    big_programs(1);
}

#[test]
#[ignore = "long sweep; run explicitly (ci.sh runs it in release)"]
fn long_sweep_agrees_with_the_reference() {
    let tally = sweep(0..3000);
    // 232,779 8-byte, 161,398 mixed, 19,989 + 14,188 kernel and 115,294
    // malformed flags.
    let expected = (543_648, 0x8dfd_f0aa_42db_2529, 0xad70_c8ab_0b8b_584a);
    assert_eq!(goldens(tally), expected, "the long sweep's verdicts or states changed");
    for seed in 2..10 {
        big_programs(seed);
    }
}
