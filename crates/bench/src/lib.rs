//! # prefetch-bench
//!
//! Criterion micro-benchmarks for the substrates (tree operations, cache
//! operations, model evaluation, end-to-end simulation throughput) and the
//! `figures` binary that regenerates every table and figure of the paper.
//!
//! Run the full reproduction:
//!
//! ```text
//! cargo run --release -p prefetch-bench --bin figures -- all
//! ```
//!
//! or a single artifact (`fig6`, `table2`, ...), with options:
//!
//! ```text
//! figures -- fig6 --refs 400000 --seed 1999 --out results/
//! figures -- all --quick          # scaled-down smoke run
//! ```

#![forbid(unsafe_code)]

/// Re-export so benches and the binary share one entry point.
pub use prefetch_sim::experiments;

pub mod perf {
    //! Machine-readable performance artifacts (`figures --bench-json`).
    //!
    //! One [`ExperimentPerf`] snapshot per experiment — wall time,
    //! references simulated, simulation throughput, cells run, and the
    //! per-phase profile — rendered by [`render_bench_json`] as a single
    //! JSON document (hand-rolled: the vendored serde derives are inert).

    use prefetch_telemetry::{Phase, PhaseTimes};

    /// Performance snapshot of one experiment run.
    #[derive(Clone, Debug)]
    pub struct ExperimentPerf {
        /// Experiment id (`fig6`, `table2`, ...).
        pub id: String,
        /// Wall-clock time of the experiment (ms).
        pub wall_ms: f64,
        /// References simulated by freshly-run cells.
        pub refs: u64,
        /// Sweep cells that produced a result (fresh + restored).
        pub cells: u64,
        /// Per-phase profile summed over the experiment's cells (all
        /// zero unless the harness ran with profiling enabled).
        pub phases: PhaseTimes,
    }

    impl ExperimentPerf {
        /// Simulation throughput; zero when the wall time rounds to zero.
        pub fn refs_per_sec(&self) -> f64 {
            if self.wall_ms <= 0.0 {
                0.0
            } else {
                self.refs as f64 / (self.wall_ms / 1e3)
            }
        }
    }

    fn fmt_f64(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    /// Schema tag embedded in every bench artifact.
    pub const BENCH_SCHEMA: &str = "pfsim-bench/v1";

    /// Render the whole artifact. `refs`/`seed` echo the sweep
    /// configuration so an artifact is self-describing.
    pub fn render_bench_json(refs: usize, seed: u64, experiments: &[ExperimentPerf]) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\":\"{BENCH_SCHEMA}\",\"refs\":{refs},\"seed\":{seed},\"experiments\":["
        ));
        for (i, e) in experiments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":\"{}\",\"wall_ms\":{},\"refs\":{},\"refs_per_sec\":{},\"cells\":{},\
                 \"phases_ms\":{{",
                e.id,
                fmt_f64(e.wall_ms),
                e.refs,
                fmt_f64(e.refs_per_sec()),
                e.cells,
            ));
            for (j, phase) in Phase::ALL.into_iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", phase.name(), fmt_f64(e.phases.ms(phase))));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn bench_json_shape_is_stable() {
            let mut phases = PhaseTimes::default();
            phases.add_ns(Phase::TreeUpdate, 2_000_000);
            let perf = ExperimentPerf {
                id: "fig6".to_string(),
                wall_ms: 500.0,
                refs: 1000,
                cells: 4,
                phases,
            };
            let json = render_bench_json(8000, 1999, &[perf]);
            assert_eq!(
                json,
                "{\"schema\":\"pfsim-bench/v1\",\"refs\":8000,\"seed\":1999,\"experiments\":[\
                 {\"id\":\"fig6\",\"wall_ms\":500,\"refs\":1000,\"refs_per_sec\":2000,\
                 \"cells\":4,\"phases_ms\":{\"tree_update\":2,\"candidate_selection\":0,\
                 \"cost_benefit\":0,\"cache_ops\":0,\"io_submission\":0}}]}"
            );
        }

        #[test]
        fn throughput_guards_zero_wall_time() {
            let perf = ExperimentPerf {
                id: "x".to_string(),
                wall_ms: 0.0,
                refs: 10,
                cells: 1,
                phases: PhaseTimes::default(),
            };
            assert_eq!(perf.refs_per_sec(), 0.0);
            let json = render_bench_json(1, 1, &[perf]);
            assert!(json.contains("\"refs_per_sec\":0"));
        }

        #[test]
        fn empty_artifact_is_valid() {
            assert_eq!(
                render_bench_json(0, 0, &[]),
                "{\"schema\":\"pfsim-bench/v1\",\"refs\":0,\"seed\":0,\"experiments\":[]}"
            );
        }
    }
}
