//! Shoot-out of all eight policies across all four workloads — a compact
//! version of the paper's whole evaluation, run in parallel on the sweep
//! pool.
//!
//! ```text
//! cargo run --release --example policy_shootout [refs] [cache_blocks]
//! ```

use predictive_prefetch::prelude::*;
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let refs: usize = args.next().map(|s| s.parse().expect("refs")).unwrap_or(100_000);
    let cache: usize = args.next().map(|s| s.parse().expect("cache blocks")).unwrap_or(1024);

    let specs = [
        PolicySpec::NoPrefetch,
        PolicySpec::NextLimit,
        PolicySpec::Tree,
        PolicySpec::TreeNextLimit,
        PolicySpec::TreeLvc,
        PolicySpec::TreeThreshold(0.05),
        PolicySpec::TreeChildren(3),
        PolicySpec::PerfectSelector,
    ];

    println!("generating 4 traces × {refs} refs ...");
    let traces: Arc<[Trace]> = TraceKind::ALL.iter().map(|k| k.generate(refs, 2024)).collect();

    let cells: Vec<(usize, SimConfig)> = (0..traces.len())
        .flat_map(|ti| specs.iter().map(move |&s| (ti, SimConfig::new(cache, s))))
        .collect();
    println!("running {} simulations in parallel ({cache}-block cache) ...\n", cells.len());
    let results = run_cells_checkpointed(&traces, &cells, &HarnessOpts::default())
        .expect("cell list indexes the traces above")
        .completed_cells();

    print!("{:<22}", "miss rate (%)");
    for k in TraceKind::ALL {
        print!("{:>9}", k.name());
    }
    println!();
    for &spec in &specs {
        print!("{:<22}", spec.name());
        for (ti, _) in TraceKind::ALL.iter().enumerate() {
            let cell = results
                .iter()
                .find(|c| c.trace_index == ti && c.result.config.policy == spec)
                .expect("cell");
            print!("{:>9.2}", 100.0 * cell.result.metrics.miss_rate());
        }
        println!();
    }

    println!("\nvirtual elapsed time per reference (µs, Section 3 timing model):");
    for &spec in &specs {
        print!("{:<22}", spec.name());
        for (ti, _) in TraceKind::ALL.iter().enumerate() {
            let cell = results
                .iter()
                .find(|c| c.trace_index == ti && c.result.config.policy == spec)
                .expect("cell");
            let m = &cell.result.metrics;
            print!("{:>9.0}", 1000.0 * m.elapsed_ms / m.refs as f64);
        }
        println!();
    }
}
