//! The engine's per-thread state under concurrency: repeat slots read
//! without the page lock while another thread writes, task cells cached
//! on one thread while another issues their sync events, and engines that
//! share a thread or replace their history.

use arbalest_race::{RaceEngine, RaceInfo};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

const HOST: u32 = 0;
const BASE: u64 = 0x4000;
const GRANULES: u64 = 64;

/// Spin until `ready` holds.
fn wait_for(ready: impl Fn() -> bool) {
    while !ready() {
        std::thread::yield_now();
    }
}

/// One round of two sibling tasks on two threads: the reader re-reads
/// `GRANULES` granules `reps` times, the writer writes one of them once,
/// after the reader has made a round-dependent number of reads. Returns
/// the races flagged. With `ordered`, the host ends and joins the reader,
/// then forks the writer, before the write. Unordered, the reader's next
/// read of the written granule must race too: the write cleared its slot.
fn two_thread_round(round: usize, reps: usize, ordered: bool) -> usize {
    let e = RaceEngine::new();
    let (reader, writer) = (1, 2);
    e.fork(HOST, reader);
    if !ordered {
        e.fork(HOST, writer);
    }
    let total = GRANULES as usize * reps;
    let start_write_at = (round * 97) % (total + 1);
    let target = BASE + 8 * (round as u64 % GRANULES);
    let reads = AtomicUsize::new(0);
    let writer_may_run = AtomicBool::new(!ordered);
    let races = std::thread::scope(|s| {
        let read = s.spawn(|| {
            let mut races = 0;
            for _ in 0..reps {
                for g in 0..GRANULES {
                    races += usize::from(e.check_read(reader, BASE + 8 * g, 8).race.is_some());
                    reads.fetch_add(1, Ordering::Release);
                }
            }
            races
        });
        let write = s.spawn(|| {
            wait_for(|| writer_may_run.load(Ordering::Acquire));
            wait_for(|| reads.load(Ordering::Acquire) >= start_write_at);
            usize::from(e.check_write(writer, target, 8).race.is_some())
        });
        if ordered {
            wait_for(|| reads.load(Ordering::Acquire) == total);
            e.end(reader);
            e.join(HOST, reader);
            e.fork(HOST, writer);
            writer_may_run.store(true, Ordering::Release);
        }
        read.join().expect("reader") + write.join().expect("writer")
    });
    if !ordered {
        let again = e.check_read(reader, target, 8).race;
        assert!(again.is_some_and(|r| r.prev_was_write), "round {round}: a stale repeat slot");
    }
    races
}

fn two_threads(rounds: usize, reps: usize) {
    for round in 0..rounds {
        let races = two_thread_round(round, reps, false);
        assert!(races >= 1, "round {round}: a sibling's write to a re-read granule went unflagged");
        let races = two_thread_round(round, reps, true);
        assert_eq!(races, 0, "round {round}: the ordered variant flagged {races} races");
    }
}

#[test]
fn a_write_among_repeated_reads_races_on_every_interleaving() {
    two_threads(200, 16);
}

#[test]
#[ignore = "stress; ci.sh runs it in release"]
fn a_write_among_repeated_reads_races_on_every_interleaving_stress() {
    two_threads(5000, 64);
}

/// Run `f` on a thread of its own and wait for it.
fn elsewhere(f: impl FnOnce() + Send) {
    std::thread::scope(|s| s.spawn(f).join().expect("other thread"));
}

#[test]
fn a_cached_cell_sees_sync_events_made_on_another_thread() {
    let e = RaceEngine::new();
    e.fork(HOST, 1);
    e.fork(HOST, 2);
    let (a, b, c) = (BASE, BASE + 8, BASE + 16);
    // Each step caches task 1's cell on this thread first.
    let cache = || assert!(e.check_read(1, BASE + 0x100, 8).race.is_none());

    // acquire: task 1 continues after task 2's write and release.
    cache();
    elsewhere(|| {
        e.check_write(2, a, 8);
        e.release(2, 7);
        e.acquire(1, 7);
    });
    assert!(e.check_write(1, a, 8).race.is_none(), "the acquire orders task 2's write");

    // release and fork tick task 1's clock.
    let syncs: [&(dyn Fn() + Sync); 2] = [&|| e.release(1, 8), &|| e.fork(1, 3)];
    for sync in syncs {
        cache();
        let before = e.epoch_of(1);
        elsewhere(sync);
        let after = e.epoch_of(1);
        assert_eq!((after.tid, after.clock), (before.tid, before.clock + 1));
        assert_eq!(e.check_read(1, BASE + 0x100, 8).epoch, after);
    }

    // join: task 1 continues after task 3's write.
    cache();
    let before = e.epoch_of(1);
    elsewhere(|| {
        e.check_write(3, b, 8);
        e.end(3);
        e.join(1, 3);
    });
    assert_eq!(e.epoch_of(1).clock, before.clock + 1);
    assert!(e.check_write(1, b, 8).race.is_none(), "the join orders task 3's write");

    // Without a sync event, another thread's write stays unordered.
    cache();
    elsewhere(|| {
        e.check_write(2, c, 8);
    });
    assert!(e.check_read(1, c, 8).race.is_some());
}

#[test]
fn engines_sharing_a_thread_keep_their_own_cells() {
    // The same task ids at the same sync generation, on one thread: task
    // 1 holds another slot in each engine, and only `b` forks it before
    // the host's write of `x`.
    let x = BASE;
    let a = RaceEngine::new();
    a.check_write(HOST, x, 8);
    a.fork(HOST, 7);
    a.fork(HOST, 1);
    let b = RaceEngine::new();
    b.fork(HOST, 1);
    b.check_write(HOST, x, 8);
    b.fork(HOST, 7);
    assert_ne!(a.epoch_of(1), b.epoch_of(1));
    for _ in 0..4 {
        let (ca, cb) = (a.check_read(1, x, 8), b.check_read(1, x, 8));
        assert_eq!(ca.epoch, a.epoch_of(1));
        assert_eq!(cb.epoch, b.epoch_of(1));
        assert!(ca.race.is_none(), "in `a` the fork follows the host's write");
        assert!(cb.race.is_some(), "in `b` the host writes after the fork");
    }
}

#[test]
fn restored_and_evicted_engines_carry_no_stale_repeats() {
    // Task 2's write of `x` sits in a repeat slot of the live engine. A
    // restored engine keeps the state but not the slot; an evicted one
    // keeps neither. Task 2 repeating the write, then task 1 reading `x`,
    // must report the same race everywhere.
    let x = BASE;
    let build = || {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        e.check_write(2, x, 8);
        e.check_write(2, x, 8);
        e
    };
    let next_race = |e: &RaceEngine| -> Option<RaceInfo> {
        assert!(e.check_write(2, x, 8).race.is_none());
        e.check_read(1, x, 8).race
    };
    let live = build();
    let restored = RaceEngine::from_snapshot(&live.to_snapshot());
    let mut evicted = build();
    evicted.evict_history();
    let race = next_race(&live);
    assert!(race.is_some_and(|r| r.prev_was_write));
    assert_eq!(next_race(&restored), race);
    assert_eq!(next_race(&evicted), race);
}
