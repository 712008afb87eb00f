//! The assembled cost-benefit model (paper Figure 4).
//!
//! Figure 4's block diagram has constant inputs (`T_hit`, `T_driver`,
//! `T_disk`, `T_cpu`) and dynamically calculated inputs: `s`, the average
//! number of blocks prefetched per access period, and `h`, the fraction of
//! prefetched blocks that are eventually referenced. [`CostBenefitModel`]
//! owns both kinds and exposes the paper's four derived quantities —
//! benefit `B(b)`, prefetch-ejection cost `C_pr`, demand-shrink cost
//! `C_dc`, and overhead `T_oh` — with the dynamic state threaded through.

use crate::params::SystemParams;
use crate::{benefit, cost, overhead};

/// Tunables of the cost-benefit scheme beyond the system constants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelConfig {
    /// Re-prefetch lead `x` (periods before expected use a re-prefetch of
    /// an ejected block would be issued), Eq. 11. The paper leaves `x`
    /// free; 1 is the most conservative choice that keeps bufferage
    /// positive.
    pub x: u32,
    /// EWMA smoothing for the `s` estimate, in (0, 1]; smaller = smoother.
    pub s_alpha: f64,
    /// Initial `s` before any observation.
    pub s_initial: f64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig { x: 1, s_alpha: 0.05, s_initial: 1.0 }
    }
}

/// Dynamic cost-benefit state: the `s` and `h` boxes of Figure 4.
#[derive(Clone, Debug)]
pub struct CostBenefitModel {
    params: SystemParams,
    config: ModelConfig,
    /// EWMA of prefetches per access period.
    s: f64,
    /// Lifetime prefetches issued.
    prefetches_issued: u64,
    /// Lifetime prefetched blocks that were referenced before ejection.
    prefetches_hit: u64,
}

impl CostBenefitModel {
    /// A model with the given constants and tunables.
    pub fn new(params: SystemParams, config: ModelConfig) -> Self {
        params.validate();
        assert!(config.s_alpha > 0.0 && config.s_alpha <= 1.0, "s_alpha must be in (0,1]");
        assert!(config.s_initial >= 0.0 && config.s_initial.is_finite());
        CostBenefitModel {
            params,
            config,
            s: config.s_initial,
            prefetches_issued: 0,
            prefetches_hit: 0,
        }
    }

    /// Model with paper defaults.
    pub fn patterson() -> Self {
        Self::new(SystemParams::patterson(), ModelConfig::default())
    }

    /// The system constants.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// The tunables.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Current estimate of `s`, the prefetches per access period.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Current estimate of `h`, the prefetch hit ratio (1.0 before any
    /// prefetch has resolved).
    pub fn h(&self) -> f64 {
        if self.prefetches_issued == 0 {
            1.0
        } else {
            self.prefetches_hit as f64 / self.prefetches_issued as f64
        }
    }

    /// Record the number of prefetches issued in the period that just
    /// ended; updates the `s` EWMA.
    pub fn observe_period(&mut self, prefetches: u32) {
        self.prefetches_issued += prefetches as u64;
        let a = self.config.s_alpha;
        self.s = (1.0 - a) * self.s + a * prefetches as f64;
    }

    /// Record that a previously prefetched block was referenced while still
    /// cached (feeds `h`).
    pub fn observe_prefetch_hit(&mut self) {
        self.prefetches_hit += 1;
    }

    /// `B(b)` (Eq. 1) for a candidate at distance `d_b` with path
    /// probability `p_b` whose path parent has probability `p_x`.
    pub fn benefit(&self, p_b: f64, d_b: u32, p_x: f64) -> f64 {
        benefit::benefit(p_b, d_b, p_x, &self.params, self.s)
    }

    /// Expected stall saving of prefetching at distance `d_b` with path
    /// probability `p_b`: `p_b · ΔT_pf(d_b)` (Eq. 2 weighted by the
    /// probability of the path materializing). This is the calibration
    /// counterpart of a realized prefetch hit's `T_disk − stall`; unlike
    /// the marginal `B(b)` used for the issue decision, the two are
    /// commensurable totals.
    pub fn expected_saving(&self, p_b: f64, d_b: u32) -> f64 {
        p_b * crate::timing::delta_t_pf(d_b, &self.params, self.s)
    }

    /// `T_oh` (Eq. 14) for the same candidate.
    pub fn t_oh(&self, p_b: f64, p_x: f64) -> f64 {
        overhead::t_oh(p_b, p_x, &self.params)
    }

    /// Net desirability `B(b) − T_oh(b)` used to rank candidates
    /// (Section 7, step 3).
    pub fn net_benefit(&self, p_b: f64, d_b: u32, p_x: f64) -> f64 {
        self.benefit(p_b, d_b, p_x) - self.t_oh(p_b, p_x)
    }

    /// The smallest path probability at which a candidate at distance
    /// `d_child` under a path parent of probability `p_x` can have
    /// positive net benefit. Derived by solving `B − T_oh > 0` for `p`:
    ///
    /// ```text
    /// p·ΔT(d) − p_x·ΔT(d−1) − (1 − p/p_x)·T_driver > 0
    ///   ⟺ p > (p_x·ΔT(d−1) + T_driver) / (ΔT(d) + T_driver/p_x)
    /// ```
    ///
    /// Used to prune candidate enumeration: children below this
    /// probability (and all their descendants at greater depth and lower
    /// probability when ΔT's increments shrink) can never be prefetched.
    pub fn min_useful_probability(&self, p_x: f64, d_child: u32) -> f64 {
        debug_assert!(p_x > 0.0 && d_child >= 1);
        let dt_child = crate::timing::delta_t_pf(d_child, &self.params, self.s);
        let dt_parent = crate::timing::delta_t_pf(d_child - 1, &self.params, self.s);
        let denom = dt_child + self.params.t_driver / p_x;
        if denom <= 0.0 {
            return f64::INFINITY;
        }
        (p_x * dt_parent + self.params.t_driver) / denom
    }

    /// `C_pr` (Eq. 11) of ejecting a prefetched block expected in
    /// `d_remaining` periods with path probability `p_b`.
    pub fn prefetch_eject_cost(&self, p_b: f64, d_remaining: u32) -> f64 {
        cost::prefetch_eject_cost(p_b, d_remaining, self.config.x, &self.params, self.s)
    }

    /// `C_dc` (Eq. 13) of shrinking the demand cache at marginal hit rate
    /// `marginal_hit_rate`.
    pub fn demand_eject_cost(&self, marginal_hit_rate: f64) -> f64 {
        cost::demand_eject_cost(marginal_hit_rate, &self.params)
    }

    /// The constant `T_driver + T_stall(x)` factor every Eq. 11 cost in one
    /// victim scan shares (`s` only changes between periods). Non-negative;
    /// when it is zero, every prefetch ejection cost collapses to `0.0` and
    /// ordering degenerates to recency.
    pub fn eject_scale(&self) -> f64 {
        self.params.t_driver + crate::timing::t_stall(self.config.x, &self.params, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s_ewma_converges_to_observed_rate() {
        let mut m = CostBenefitModel::patterson();
        for _ in 0..500 {
            m.observe_period(3);
        }
        assert!((m.s() - 3.0).abs() < 0.01, "s = {}", m.s());
    }

    #[test]
    fn h_tracks_hit_fraction() {
        let mut m = CostBenefitModel::patterson();
        assert_eq!(m.h(), 1.0);
        m.observe_period(4);
        m.observe_prefetch_hit();
        assert_eq!(m.h(), 0.25);
    }

    #[test]
    fn net_benefit_subtracts_overhead() {
        let m = CostBenefitModel::patterson();
        let b = m.benefit(0.5, 1, 1.0);
        let oh = m.t_oh(0.5, 1.0);
        assert!((m.net_benefit(0.5, 1, 1.0) - (b - oh)).abs() < 1e-12);
        assert!(oh > 0.0);
    }

    #[test]
    fn wrappers_agree_with_free_functions() {
        let m = CostBenefitModel::patterson();
        let p = SystemParams::patterson();
        assert_eq!(m.prefetch_eject_cost(0.4, 6), cost::prefetch_eject_cost(0.4, 6, 1, &p, m.s()));
        assert_eq!(m.demand_eject_cost(0.02), cost::demand_eject_cost(0.02, &p));
        assert_eq!(m.benefit(0.4, 2, 0.8), benefit::benefit(0.4, 2, 0.8, &p, m.s()));
    }

    #[test]
    #[should_panic(expected = "s_alpha")]
    fn invalid_alpha_panics() {
        CostBenefitModel::new(
            SystemParams::patterson(),
            ModelConfig { s_alpha: 0.0, ..ModelConfig::default() },
        );
    }
}
