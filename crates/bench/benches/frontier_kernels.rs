//! Criterion benches for the batched cost-benefit pricing loop that powers
//! the frontier hot path: the model's per-call arithmetic vs
//! `kernel::net_benefit_batch` over a `DepthTable`, across batch sizes.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use prefetch_core::kernel::{self, DepthTable};
use prefetch_core::{CostBenefitModel, SystemParams};
use rand::{Rng, SeedableRng};

const BATCH_SIZES: [usize; 5] = [1, 4, 16, 64, 256];
const MAX_DEPTH: u32 = 8;
const SEED: u64 = 1999;

/// Candidate-shaped SoA columns: `p_x ∈ (0, 1]`, `p_b ≤ p_x`,
/// `d_b ∈ 1..=MAX_DEPTH`.
fn batch_inputs(n: usize) -> (Vec<f64>, Vec<f64>, Vec<u32>) {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(SEED ^ n as u64);
    let mut p_b = Vec::with_capacity(n);
    let mut p_x = Vec::with_capacity(n);
    let mut d_b = Vec::with_capacity(n);
    for _ in 0..n {
        let px: f64 = rng.gen_range(1e-6..1.0);
        p_b.push(px * rng.gen_range(1e-6..1.0));
        p_x.push(px);
        d_b.push(rng.gen_range(1..=MAX_DEPTH));
    }
    (p_b, p_x, d_b)
}

fn bench_kernels(c: &mut Criterion) {
    let params = SystemParams::patterson();
    let model = CostBenefitModel::patterson();
    let mut dt = DepthTable::default();
    dt.rebuild(&params, model.s(), MAX_DEPTH);

    let mut g = c.benchmark_group("kernel/net_benefit");
    for n in BATCH_SIZES {
        let (p_b, p_x, d_b) = batch_inputs(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("per_call_{n}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..n {
                    acc += model.net_benefit(p_b[i], d_b[i], p_x[i]);
                }
                black_box(acc)
            })
        });
        g.bench_function(format!("batch_{n}"), |b| {
            let mut out = Vec::new();
            b.iter(|| {
                kernel::net_benefit_batch(&p_b, &p_x, &d_b, &dt, params.t_driver, &mut out);
                black_box(out[n - 1])
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
