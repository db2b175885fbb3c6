//! Run every registered experiment on one shared context and write the
//! combined report (the data behind EXPERIMENTS.md) to stdout.
//!
//! Experiments are pure functions of the shared context, so they run on a
//! worker pool (one worker per core); output is buffered per experiment
//! and printed in registry order, so the report reads the same as the
//! sequential one. Set `P2PQ_JOBS=N` (a positive integer) to choose the
//! worker count, `P2PQ_JOBS=1` for sequential execution; any other value
//! exits 2.

use bench_support::{registry, ExperimentContext};
use std::ffi::OsStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Worker count from a `P2PQ_JOBS` value: one per core when unset, and
/// an error for anything but a positive integer, so a mistyped setting
/// never silently runs at the core count.
fn jobs_from_setting(value: Option<&OsStr>) -> Result<usize, String> {
    let Some(v) = value else {
        return Ok(std::thread::available_parallelism().map_or(1, |n| n.get()));
    };
    v.to_str()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("invalid P2PQ_JOBS {v:?}; expected a positive integer, e.g. 4"))
}

fn exit_on_err<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn main() {
    let jobs = exit_on_err(jobs_from_setting(std::env::var_os("P2PQ_JOBS").as_deref()));
    let ctx = exit_on_err(ExperimentContext::from_env());
    println!("# Experiment report (scale: {:?})", ctx.scale);
    println!(
        "# trace: {} connections, {} filtered sessions, {} observed days\n",
        ctx.trace.connections.len(),
        ctx.ft.sessions.len(),
        ctx.obs.n_days()
    );

    let reg = registry();
    let results: Vec<OnceLock<(String, std::time::Duration)>> =
        reg.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(reg.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(e) = reg.get(i) else { break };
                let t = std::time::Instant::now();
                let out = (e.run)(&ctx);
                results[i]
                    .set((out, t.elapsed()))
                    .expect("each experiment runs once");
            });
        }
    });

    for (e, slot) in reg.iter().zip(&results) {
        let (out, took) = slot.get().expect("worker pool covered every experiment");
        println!("## [{}] {}\n", e.id, e.title);
        print!("{out}");
        println!("\n(took {took:.1?})\n");
    }
    telemetry::info!(
        "[bench] {} experiments in {:.1?} wall",
        reg.len(),
        t0.elapsed()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_setting_is_strict() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(jobs_from_setting(None), Ok(cores));
        assert_eq!(jobs_from_setting(Some(OsStr::new("4"))), Ok(4));
        assert_eq!(jobs_from_setting(Some(OsStr::new("1"))), Ok(1));
        for bad in ["0", "", "four", "-1"] {
            let err = jobs_from_setting(Some(OsStr::new(bad))).unwrap_err();
            assert!(err.contains("positive integer"), "{err:?}");
        }
    }
}
