//! The batched pricing loop's determinism contract:
//!
//! * [`kernel::net_benefit_batch`] is **bit-identical** to the per-call
//!   `CostBenefitModel::net_benefit` arithmetic, across batch sizes
//!   0..=257 (exhaustive) and random inputs (proptest);
//! * the `s`-derived memo (ΔT_pf table + frontier-seed cutoff) rebuilds
//!   exactly when `s` changes, and its cutoff always equals the model's
//!   fresh `min_useful_probability(1.0, 1)`.

use prefetch_cache::BufferCache;
use prefetch_core::kernel::{self, DepthTable};
use prefetch_core::policy::PeriodActivity;
use prefetch_core::{CostBenefitEngine, CostBenefitModel, EngineConfig, ModelConfig, SystemParams};
use prefetch_trace::BlockId;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const MAX_DEPTH: u32 = 8;

/// Deterministic candidate-shaped SoA data: `p_x ∈ (0, 1]`,
/// `p_b = p_x·frac ≤ p_x`, `d_b ∈ 1..=MAX_DEPTH`.
fn batch_inputs(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<u32>) {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut p_b = Vec::with_capacity(n);
    let mut p_x = Vec::with_capacity(n);
    let mut d_b = Vec::with_capacity(n);
    for _ in 0..n {
        let px: f64 = rng.gen_range(1e-6..1.0);
        let frac: f64 = rng.gen_range(1e-6..1.0);
        p_b.push(px * frac);
        p_x.push(px);
        d_b.push(rng.gen_range(1..=MAX_DEPTH));
    }
    (p_b, p_x, d_b)
}

/// A fresh model whose prefetch-rate estimate is exactly `s`.
fn model_at(params: SystemParams, s: f64) -> CostBenefitModel {
    CostBenefitModel::new(params, ModelConfig { s_initial: s, ..ModelConfig::default() })
}

/// Price one batch through the loop and assert every lane carries the
/// bits of the model's per-call `net_benefit`.
fn assert_batch_matches_per_call(model: &CostBenefitModel, n: usize, seed: u64) {
    let mut dt = DepthTable::default();
    dt.rebuild(model.params(), model.s(), MAX_DEPTH);
    let (p_b, p_x, d_b) = batch_inputs(n, seed);
    let mut out = vec![f64::NAN; 3]; // stale contents must be replaced
    kernel::net_benefit_batch(&p_b, &p_x, &d_b, &dt, model.params().t_driver, &mut out);
    assert_eq!(out.len(), n);
    for i in 0..n {
        assert_eq!(
            out[i].to_bits(),
            model.net_benefit(p_b[i], d_b[i], p_x[i]).to_bits(),
            "lane {i} of {n}, s {}",
            model.s()
        );
    }
}

/// Every batch size 0..=257, bit-identical to the per-call arithmetic.
#[test]
fn batch_bit_identical_for_batch_sizes_0_to_257() {
    for (si, s) in [0.0, 0.92, 4.7].into_iter().enumerate() {
        let model = model_at(SystemParams::patterson(), s);
        for n in 0..=257usize {
            assert_batch_matches_per_call(&model, n, (si as u64) << 32 | n as u64);
        }
    }
}

/// The same pin along an `s` trajectory the model itself produces.
#[test]
fn batch_net_matches_per_call_model_arithmetic() {
    let mut model = CostBenefitModel::patterson();
    for round in 0..40u32 {
        model.observe_period(round % 5);
        assert_batch_matches_per_call(&model, 97, round as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random batches, random `s`, random `T_cpu`: the loop agrees with
    /// the per-call arithmetic bit-for-bit.
    #[test]
    fn random_batches_bit_identical_to_per_call(
        seed in 0u64..1 << 48,
        n in 0usize..300,
        s in 0.0f64..16.0,
        t_cpu in 1.0f64..640.0,
    ) {
        assert_batch_matches_per_call(&model_at(SystemParams::with_t_cpu(t_cpu), s), n, seed);
    }
}

/// Satellite regression: the memoized seed cutoff (and the ΔT_pf table it
/// rides with) rebuilds exactly when `s`'s bits change — never otherwise —
/// and always equals the model's freshly computed cutoff.
///
/// The memo is refreshed at the top of each `prefetch_round` against the
/// `s` *entering* the round (the trailing `observe_period` lands in the
/// next round's refresh). So round `k` rebuilds iff
/// `s_entering(k) != s_entering(k−1)`.
#[test]
fn seed_cutoff_rebuilds_only_when_s_changes() {
    // s_alpha = 1.0 pins s to the previous period's prefetch count, so
    // idle periods hold s at exactly 0.0 and the memo must go quiet.
    let cfg = EngineConfig {
        model: ModelConfig { s_alpha: 1.0, s_initial: 0.0, ..ModelConfig::default() },
        ..EngineConfig::default()
    };
    let mut e = CostBenefitEngine::new(SystemParams::patterson(), cfg);
    // Train a strong cycle so later rounds actually issue prefetches
    // (s jumps to the issue count, forcing rebuilds).
    for _ in 0..40 {
        for b in [1u64, 2, 3, 4] {
            e.record_reference(BlockId(b));
        }
    }
    let mut cache = BufferCache::new(16);
    assert_eq!(e.depth_table_rebuilds(), 1, "construction builds the memo once");
    // s the memo currently reflects: training alone never touches s.
    let mut s_memoized = e.model().s().to_bits();
    let mut rebuilds_before = e.depth_table_rebuilds();
    let mut quiet_rounds = 0;
    let mut rebuild_rounds = 0;
    // Phase 1: cold references (unique blocks, no predictions) keep s at
    // 0.0; phase 2: the trained cycle makes prefetches flow and s move;
    // phase 3: cold again, s decays back toward a fixed point.
    let stream: Vec<u64> =
        (1000..1020u64).chain([1, 2, 3, 4].repeat(10)).chain(2000..2010u64).collect();
    for &b in &stream {
        e.record_reference(BlockId(b));
        let s_entering = e.model().s().to_bits();
        // What the memoized cutoff must be after this round's refresh:
        // the model's formula evaluated at the s entering the round.
        let want_cutoff = e.model().min_useful_probability(1.0, 1).to_bits();
        let mut act = PeriodActivity::default();
        e.prefetch_round(BlockId(b), &mut cache, &mut act);
        if cache.contains(BlockId(b)) {
            cache.reference(BlockId(b));
        }
        let delta = e.depth_table_rebuilds() - rebuilds_before;
        let expected = u64::from(s_entering != s_memoized);
        assert_eq!(delta, expected, "memo rebuilt on an unchanged s (or missed a change)");
        match delta {
            0 => quiet_rounds += 1,
            _ => rebuild_rounds += 1,
        }
        // Whatever happened, the memoized cutoff must equal the model's
        // fresh computation for the s the memo was built against.
        assert_eq!(
            e.seed_cutoff().to_bits(),
            want_cutoff,
            "memoized cutoff diverged from the model's formula"
        );
        s_memoized = s_entering;
        rebuilds_before = e.depth_table_rebuilds();
    }
    assert!(quiet_rounds > 0, "expected rounds where s held and the memo went untouched");
    assert!(rebuild_rounds > 0, "expected rounds where s moved and the memo rebuilt");
}
