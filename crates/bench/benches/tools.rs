//! End-to-end per-tool overhead on a fixed kernel — the timed companion
//! to `fig8`: one memory-bound kernel (saxpy over a mapped array) run
//! native and under each of the five tools.
//!
//! Also includes the ablation benches DESIGN.md calls out:
//! * `arbalest_no_races` — VSM only, race engine off (how much of
//!   ARBALEST's cost is Archer's, §VI-E);
//! * `arbalest_no_cache` — interval-tree lookups without the one-entry
//!   cache (§IV-C's amortisation claim).
//!
//! Self-contained timing harness (`harness = false`, no external crates).

use arbalest_baselines::by_name;
use arbalest_core::{Arbalest, ArbalestConfig};
use arbalest_obs::Registry;
use arbalest_offload::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 4096;

fn saxpy(rt: &Runtime) -> f64 {
    let x = rt.alloc_with::<f64>("x", N, |i| i as f64);
    let y = rt.alloc_with::<f64>("y", N, |_| 1.0);
    rt.target().map(Map::to(&x)).map(Map::tofrom(&y)).run(move |k| {
        k.par_for(0..N, |k, i| {
            let v = 2.0 * k.read(&x, i) + k.read(&y, i);
            k.write(&y, i, v);
        });
    });
    rt.read(&y, N - 1)
}

/// Run `f` under warm-up + measurement and print ms/iter.
fn bench(name: &str, mut f: impl FnMut() -> f64) {
    let warmup = Duration::from_millis(300);
    let measure = Duration::from_secs(2);
    let start = Instant::now();
    while start.elapsed() < warmup {
        std::hint::black_box(f());
    }
    let mut iters = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < measure {
        std::hint::black_box(f());
        iters += 1;
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;
    println!("saxpy_4k/{name:<20} {ms:>9.3} ms/iter  ({iters} iters)");
}

fn main() {
    bench("native", || saxpy(&Runtime::new(Config::default().team_size(2))));
    for tool in ["arbalest", "archer", "asan", "msan", "memcheck"] {
        bench(tool, || {
            let t = by_name(tool, &Registry::new()).expect("known tool");
            let rt = Runtime::with_tool(Config::default().team_size(2), t);
            saxpy(&rt)
        });
    }
    bench("arbalest_no_races", || {
        let tool = Arc::new(Arbalest::new(ArbalestConfig {
            check_races: false,
            ..Default::default()
        }));
        let rt = Runtime::with_tool(Config::default().team_size(2), tool);
        saxpy(&rt)
    });
    bench("arbalest_no_cache", || {
        let tool = Arc::new(Arbalest::new(ArbalestConfig {
            lookup_cache: false,
            ..Default::default()
        }));
        let rt = Runtime::with_tool(Config::default().team_size(2), tool);
        saxpy(&rt)
    });
}
