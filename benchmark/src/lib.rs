//! `pfbench`: the repo's one benchmark — end-to-end host cost, simulated
//! quality and memory of `pfsim` and `pfserve` over six workloads, with a
//! per-layer trace taken from outside. See `benchmark/README.md`.

pub mod calib;
pub mod compare;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod proc;
pub mod report;
pub mod run;
pub mod serve;
pub mod sim;
pub mod spans;
pub mod stats;

use prefetch_trace::synth::TraceKind;
use report::RunResult;
use run::Ctx;

/// Run the workload `ctx` names.
pub fn run_workload(ctx: &Ctx) -> Result<RunResult, String> {
    let cal = &mut calib::Calibrator::new();
    match ctx.workload.as_str() {
        "sim-cello" => sim::run(ctx, cal, TraceKind::Cello),
        "sim-cad" => sim::run(ctx, cal, TraceKind::Cad),
        "serve-mux" => serve::run(ctx, cal, serve::Variant::Mux),
        "serve-t2" => serve::run(ctx, cal, serve::Variant::T2),
        "serve-wal" => serve::run(ctx, cal, serve::Variant::Wal),
        "serve-recover" => serve::run(ctx, cal, serve::Variant::Recover),
        other => Err(format!("unknown workload {other:?}")),
    }
}
