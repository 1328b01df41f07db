//! The hot team: the threads that run kernel team members.
//!
//! libomp keeps its thread team parked between parallel regions, and so
//! does this module. [`fork`] runs member 0 on the encountering thread,
//! as libomp's primary thread does, and hands members 1..n to idle
//! workers taken from one process-wide list; a worker is spawned only
//! when none is idle. Each worker parks on its own condvar. When its
//! member returns it rejoins the idle list *before* it counts down the
//! fork's latch, so the next fork finds it idle, and idle workers never
//! outnumber the peak number of members running at once. Workers never
//! spin and never retire.
//!
//! Which thread runs a member changes no happens-before edge: the runtime
//! emits each member's task events itself, and OpenMP orders implicit
//! tasks, not threads.

use arbalest_sync::{Condvar, Mutex};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// A team member's body, called with its member index.
type Member<'a> = dyn Fn(usize) + Sync + 'a;

/// A panic's payload, as `catch_unwind` returns it.
type Payload = Box<dyn Any + Send>;

/// Counts a fork's members down and keeps the first member panic.
struct Latch {
    /// Members not yet counted, and the first panic among those counted.
    state: Mutex<(usize, Option<Payload>)>,
    done: Condvar,
}

impl Latch {
    fn count_down(&self, members: usize, panic: Option<Payload>) {
        let mut state = self.state.lock();
        state.0 -= members;
        if state.1.is_none() {
            state.1 = panic;
        }
        if state.0 == 0 {
            self.done.notify_one();
        }
    }

    /// Block until every member is counted; returns the first panic.
    fn wait(&self) -> Option<Payload> {
        let mut state = self.state.lock();
        while state.0 > 0 {
            self.done.wait(&mut state);
        }
        state.1.take()
    }
}

/// One member handed to a worker.
struct Job {
    /// The fork's member closure, its lifetime erased (see [`fork`]).
    member: &'static Member<'static>,
    index: usize,
    latch: Arc<Latch>,
}

/// A worker: the job it runs next, and the condvar it parks on.
struct Worker {
    job: Mutex<Option<Job>>,
    wake: Condvar,
}

/// Workers with no job; the most recently parked is taken first.
static IDLE: Mutex<Vec<Arc<Worker>>> = Mutex::new(Vec::new());

/// Run `member(0)` .. `member(n - 1)` at once, member 0 on this thread,
/// and return when all have returned.
///
/// If a member panics, `fork` re-raises the first member panic, with its
/// own payload, once every member has finished. If a worker cannot be
/// spawned, no further member starts (member 0 neither), and `fork`
/// panics once the members already started have finished, as
/// `std::thread::scope` does; that panic wins over a member's.
pub(crate) fn fork(n: usize, member: &Member<'_>) {
    if n == 0 {
        return;
    }
    let latch = Arc::new(Latch { state: Mutex::new((n, None)), done: Condvar::new() });
    // SAFETY: workers call `member` only through the jobs handed out
    // below, and a worker counts its member down only after its call has
    // returned and its reference is dropped. `fork` neither returns nor
    // unwinds before the latch has counted every member: `hand_out`
    // reports a failed spawn as an error instead of panicking, member 0
    // runs under `catch_unwind`, and the latch is waited for on every
    // path. So no worker uses the reference after `member`'s borrow ends.
    let erased = unsafe { std::mem::transmute::<&Member<'_>, &'static Member<'static>>(member) };
    let mut spawn_error = None;
    for index in 1..n {
        if let Err(e) = hand_out(Job { member: erased, index, latch: latch.clone() }) {
            // Members index..n never start, and member 0 is not run.
            latch.count_down(n - index + 1, None);
            spawn_error = Some(e);
            break;
        }
    }
    if spawn_error.is_none() {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| member(0)));
        latch.count_down(1, outcome.err());
    }
    let first_panic = latch.wait();
    if let Some(e) = spawn_error {
        panic!("failed to spawn a kernel team thread: {e}");
    }
    if let Some(payload) = first_panic {
        panic::resume_unwind(payload);
    }
}

/// Give `job` to an idle worker, or to a new one if none is idle.
fn hand_out(job: Job) -> std::io::Result<()> {
    let idle = IDLE.lock().pop();
    match idle {
        Some(worker) => {
            *worker.job.lock() = Some(job);
            worker.wake.notify_one();
            Ok(())
        }
        None => {
            let worker = Arc::new(Worker { job: Mutex::new(Some(job)), wake: Condvar::new() });
            std::thread::Builder::new().spawn(move || work(worker)).map(drop)
        }
    }
}

/// A worker's life: run each job it is handed, then park.
fn work(me: Arc<Worker>) {
    loop {
        let job = {
            let mut slot = me.job.lock();
            loop {
                match slot.take() {
                    Some(job) => break job,
                    None => me.wake.wait(&mut slot),
                }
            }
        };
        let (outcome, latch) = {
            let Job { member, index, latch } = job;
            (panic::catch_unwind(AssertUnwindSafe(|| member(index))), latch)
        };
        // Idle before the fork can return, so its next fork reuses this
        // worker instead of spawning one.
        IDLE.lock().push(me.clone());
        latch.count_down(1, outcome.err());
    }
}
