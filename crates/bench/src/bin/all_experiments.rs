//! Run every registered experiment on one shared context and write the
//! combined report (the data behind EXPERIMENTS.md) to stdout.
//!
//! Experiments are pure functions of the shared context, so they run on a
//! worker pool (one worker per core); output is buffered per experiment
//! and printed in registry order, so the report reads the same as the
//! sequential one. Set `P2PQ_JOBS=1` to force sequential execution.

use bench_support::{registry, ExperimentContext};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

fn n_jobs(n_experiments: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = match std::env::var("P2PQ_JOBS") {
        Ok(v) => v.parse().unwrap_or(cores),
        Err(_) => cores,
    };
    jobs.clamp(1, n_experiments.max(1))
}

fn main() {
    let ctx = ExperimentContext::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
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
        for _ in 0..n_jobs(reg.len()) {
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
