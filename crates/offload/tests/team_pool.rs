//! The hot team under the kernel constructs: `par_for`, `teams` and
//! `par_reduce` run their members on parked threads, member 0 on the
//! thread that encounters the construct.
//!
//! Thread counts are process-wide, so this binary holds one ordinary
//! test: no other test forks beside it. The `#[ignore]`d stress test runs
//! alone in CI:
//! `cargo test --release -p arbalest-offload --test team_pool -- --ignored`.

use arbalest_core::{Arbalest, ArbalestConfig};
use arbalest_offload::prelude::*;
use arbalest_sync::Mutex;
use std::collections::HashSet;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::ThreadId;

const TEAM: usize = 4;

/// Payload of a member's deliberate panic: the member's index.
#[derive(Debug, PartialEq)]
struct Boom(usize);

/// Sync events and member accesses, in arrival order.
#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<Ev>>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Create { parent: u32, child: u32 },
    Access(u32),
    End(u32),
    Join { waiter: u32, joined: u32 },
}

impl Tool for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }
    fn on_access(&self, ev: &AccessEvent) {
        self.events.lock().push(Ev::Access(ev.task.0));
    }
    fn on_sync(&self, ev: &SyncEvent) {
        let e = match *ev {
            SyncEvent::TaskCreate { parent, child } => {
                Ev::Create { parent: parent.0, child: child.0 }
            }
            SyncEvent::TaskEnd { task } => Ev::End(task.0),
            SyncEvent::TaskJoin { waiter, joined } => {
                Ev::Join { waiter: waiter.0, joined: joined.0 }
            }
            _ => return,
        };
        self.events.lock().push(e);
    }
}

/// Runs `body` as a synchronous target region on a fresh team-4 runtime.
fn in_region(body: impl FnOnce(&KernelCtx) + Send + 'static) {
    let rt = Runtime::new(Config::default().team_size(TEAM));
    rt.target().run(body);
}

/// Member threads of `forks` back-to-back `par_for(0..TEAM)` in one region.
fn member_threads(forks: usize) -> HashSet<ThreadId> {
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let s = seen.clone();
    in_region(move |k| {
        for _ in 0..forks {
            k.par_for(0..TEAM, |_, _| {
                s.lock().insert(std::thread::current().id());
            });
        }
    });
    let seen = seen.lock().clone();
    seen
}

/// Checks one region's fork shape: every `TaskCreate` of the kernel's
/// children precedes any child access, each child ends exactly once, and
/// every `TaskJoin` follows the last `TaskEnd`.
fn assert_fork_shape(events: &[Ev], kernel: u32, members: usize, what: &str) {
    let children: Vec<u32> = events
        .iter()
        .filter_map(|e| match *e {
            Ev::Create { parent, child } if parent == kernel => Some(child),
            _ => None,
        })
        .collect();
    assert_eq!(children.len(), members, "{what}: one task per member");
    let is_child = |t: u32| children.contains(&t);
    let pos = |f: &dyn Fn(&Ev) -> bool| -> Vec<usize> {
        events.iter().enumerate().filter(|(_, e)| f(e)).map(|(i, _)| i).collect()
    };
    let creates = pos(&|e| matches!(*e, Ev::Create { parent, .. } if parent == kernel));
    let accesses = pos(&|e| matches!(*e, Ev::Access(t) if is_child(t)));
    let ends = pos(&|e| matches!(*e, Ev::End(t) if is_child(t)));
    let joins = pos(&|e| matches!(*e, Ev::Join { waiter, .. } if waiter == kernel));
    assert!(!accesses.is_empty(), "{what}: members accessed nothing");
    assert!(creates.last() < accesses.first(), "{what}: an access before a TaskCreate");
    for &c in &children {
        let n = events.iter().filter(|e| **e == Ev::End(c)).count();
        assert_eq!(n, 1, "{what}: child {c} ended {n} times");
    }
    assert_eq!(joins.len(), members, "{what}: one join per member");
    assert!(ends.last() < joins.first(), "{what}: a TaskJoin before the last TaskEnd");
}

/// A team-4 `par_for(0..400)` whose member `victim` panics once every
/// member has started, with the other members' iterations still to run.
/// Returns the caught payload and how many iterations had run when the
/// caller caught it.
fn fork_with_panicking_member(victim: usize) -> (Boom, usize) {
    struct Release<'a>(&'a Barrier);
    impl Drop for Release<'_> {
        fn drop(&mut self) {
            self.0.wait();
        }
    }
    let r = Arc::new(AtomicUsize::new(0));
    let payload = Arc::new(Mutex::new(None));
    let p = payload.clone();
    in_region(move |k| {
        let barrier = Barrier::new(TEAM);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            k.par_for(0..400, |_, i| {
                let member = i / 100;
                if i % 100 == 0 && member == victim {
                    // The others start their iterations only once this
                    // member is unwinding.
                    let _release = Release(&barrier);
                    panic_any(Boom(member));
                }
                if i % 100 == 0 {
                    barrier.wait();
                }
                r.fetch_add(1, Ordering::SeqCst);
            });
        }));
        let ran = r.load(Ordering::SeqCst);
        let err = caught.expect_err("the member's panic reaches the caller");
        *p.lock() = Some((*err.downcast::<Boom>().expect("the member's own payload"), ran));
    });
    let caught = payload.lock().take().expect("the region ran");
    caught
}

#[test]
fn kernel_constructs_run_on_the_hot_team() {
    // Reuse: the thread-per-member runtime ran these on 4000 threads.
    let threads = member_threads(1000);
    assert!(threads.len() <= TEAM, "{} distinct member threads", threads.len());

    // Placement: member 0 runs on the thread that runs the target body.
    let placed = Arc::new(Mutex::new(Vec::new()));
    let p = placed.clone();
    in_region(move |k| {
        let body = std::thread::current().id();
        k.par_for(0..TEAM, |_, i| {
            if i == 0 {
                p.lock().push((body, std::thread::current().id()));
            }
        });
        k.teams(TEAM, |_, team| {
            if team == 0 {
                p.lock().push((body, std::thread::current().id()));
            }
        });
    });
    let placed = placed.lock().clone();
    assert_eq!(placed.len(), 2);
    assert!(placed.iter().all(|(body, member0)| body == member0), "{placed:?}");

    // Event shape of each construct.
    for what in ["par_for", "teams", "par_reduce"] {
        let rec = Arc::new(Recorder::default());
        let rt = Runtime::with_tool(Config::default().team_size(TEAM), rec.clone());
        let a = rt.alloc_with::<i64>("a", 64, |i| i as i64);
        let kernel = rt
            .target()
            .map(Map::tofrom(&a))
            .run(move |k| match what {
                "par_for" => k.par_for(0..64, |k, i| k.write(&a, i, k.read(&a, i) + 1)),
                "teams" => k.teams(TEAM, |k, t| {
                    for i in t * 16..(t + 1) * 16 {
                        k.write(&a, i, k.read(&a, i) + 1);
                    }
                }),
                _ => {
                    let sum = k.par_reduce(0..64, 0, |k, i| k.read(&a, i), |x, y| x + y);
                    assert_eq!(sum, 64 * 63 / 2);
                }
            })
            .id();
        assert_fork_shape(&rec.events.lock(), kernel.0, TEAM, what);
    }

    // Panics reach the caller with their own payload, after every other
    // member's iterations have run.
    for victim in [0, 2] {
        let (payload, ran) = fork_with_panicking_member(victim);
        assert_eq!(payload, Boom(victim));
        assert_eq!(ran, 300, "member {victim}'s panic: the other members' iterations");
    }
    // No worker was lost to a panic.
    let threads = member_threads(100);
    assert!(threads.len() <= TEAM, "{} distinct member threads after panics", threads.len());

    // Nesting over borrowed data: each slot of a stack vector is written
    // once by the 16 members of teams(4) x par_for(team 4).
    let written = Arc::new(Mutex::new(Vec::new()));
    let w = written.clone();
    in_region(move |k| {
        let slots: Vec<AtomicU64> = (0..256).map(|_| AtomicU64::new(0)).collect();
        k.teams(TEAM, |k, team| {
            k.par_for(team * 64..(team + 1) * 64, |_, i| {
                slots[i].fetch_add(1, Ordering::SeqCst);
            });
        });
        *w.lock() = slots.iter().map(|s| s.load(Ordering::SeqCst)).collect();
    });
    assert_eq!(*written.lock(), vec![1; 256]);
}

/// Four host threads, each with its own runtime and detector at team 4,
/// drive 2000 forks mixing nested `teams`, `par_for` and `par_reduce`;
/// every 50th fork has a panicking member, which the test catches.
#[test]
#[ignore]
fn four_runtimes_fork_concurrently_through_panics() {
    const FORKS: usize = 2000;
    std::thread::scope(|s| {
        for host in 0..4 {
            s.spawn(move || {
                let tool = Arc::new(Arbalest::new(ArbalestConfig::default()));
                let rt = Runtime::with_tool(Config::default().team_size(TEAM), tool);
                let a = rt.alloc_with::<i64>("a", 64, |i| i as i64);
                let caught = Arc::new(AtomicUsize::new(0));
                let c = caught.clone();
                rt.target().map(Map::tofrom(&a)).run(move |k| {
                    for fork in 0..FORKS {
                        let victim = (fork % 50 == 49).then_some((fork / 50) % TEAM);
                        let panics = |t: usize| {
                            if Some(t) == victim {
                                panic_any(Boom(t));
                            }
                        };
                        let r = catch_unwind(AssertUnwindSafe(|| match fork % 3 {
                            0 => k.par_for(0..64, |k, i| {
                                panics(i / 16);
                                k.write(&a, i, k.read(&a, i));
                            }),
                            1 => k.teams(2, |k, team| {
                                k.par_for(team * 32..(team + 1) * 32, |k, i| {
                                    panics((i % 32) / 8);
                                    k.read(&a, i);
                                });
                            }),
                            _ => {
                                let sum = k.par_reduce(
                                    0..64,
                                    0,
                                    |k, i| {
                                        panics(i / 16);
                                        k.read(&a, i)
                                    },
                                    |x, y| x + y,
                                );
                                assert_eq!(sum, 64 * 63 / 2, "host {host} fork {fork}");
                            }
                        }));
                        match (r, victim) {
                            (Ok(()), None) => {}
                            (Err(e), Some(v)) if e.downcast_ref::<Boom>() == Some(&Boom(v)) => {
                                c.fetch_add(1, Ordering::SeqCst);
                            }
                            (r, v) => {
                                panic!("host {host} fork {fork}: victim {v:?}, ok {}", r.is_ok())
                            }
                        }
                    }
                });
                assert_eq!(caught.load(Ordering::SeqCst), FORKS / 50, "host {host}");
            });
        }
    });
}
