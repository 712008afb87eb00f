//! The batched cost-benefit pricing loop and its `ΔT_pf` memo.
//!
//! The engine's per-period hot loop scores every frontier candidate with
//! the paper's net desirability — benefit `B(b)` (Eq. 1) minus overhead
//! `T_oh` (Eq. 14). [`net_benefit_batch`] evaluates that over
//! struct-of-arrays columns (`p_b[]`, `p_x[]`, `d_b[]` → `net[]`) instead
//! of one candidate at a time, with the depth-dependent stall terms
//! `ΔT_pf(d)` pre-tabulated in a [`DepthTable`] (they depend only on
//! `(params, s)`, which change at most once per access period).
//!
//! There is one implementation: a plain safe loop the compiler is free to
//! auto-vectorise. Hand-dispatched AVX2/AVX-512 instantiations of the same
//! body measure 0.72–1.11× of it at the batch sizes the frontier produces
//! (EXPERIMENTS.md, "batched cost-benefit kernels"), so there are none.
//!
//! ## Determinism contract
//!
//! The loop is element-wise with a fixed operation order (multiply,
//! divide, subtract, `max` — each IEEE-754 correctly rounded; no FMA
//! contraction, no reassociation, no fast-math), so lane `i` produces the
//! bits of [`crate::model::CostBenefitModel::net_benefit`] on every batch
//! size — which the tests in `crates/core/tests/kernels.rs` enforce.

use crate::params::SystemParams;
use crate::timing;

/// Memo table of `ΔT_pf(d)` (Eq. 2) for `d = 0..=max_depth`, valid for one
/// `(params, s)` pair. `s` only moves between access periods
/// ([`crate::model::CostBenefitModel::observe_period`]), so the engine
/// rebuilds this once per `s` update instead of recomputing `t_stall`
/// inside every benefit call.
#[derive(Clone, Debug, Default)]
pub struct DepthTable {
    dt: Vec<f64>,
}

impl DepthTable {
    /// Fill the table for `d = 0..=max_depth` from the scalar reference
    /// [`timing::delta_t_pf`] (bit-identical by construction).
    pub fn rebuild(&mut self, params: &SystemParams, s: f64, max_depth: u32) {
        self.dt.clear();
        self.dt.extend((0..=max_depth).map(|d| timing::delta_t_pf(d, params, s)));
    }

    /// `ΔT_pf(d)`; panics when `d` exceeds the tabulated depth.
    #[inline]
    pub fn get(&self, d: u32) -> f64 {
        self.dt[d as usize]
    }

    /// The raw table (`[ΔT_pf(0), …, ΔT_pf(max_depth)]`).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.dt
    }

    /// Entry count (`max_depth + 1` after a rebuild, 0 before).
    #[inline]
    pub fn len(&self) -> usize {
        self.dt.len()
    }

    /// True before the first [`Self::rebuild`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dt.is_empty()
    }

    /// Table-based [`crate::model::CostBenefitModel::min_useful_probability`]:
    /// the same formula with `ΔT_pf` read from the memo instead of
    /// recomputed, bit-identical because the tabulated values are the very
    /// outputs of the scalar `delta_t_pf` the model calls.
    #[inline]
    pub fn min_useful_probability(&self, t_driver: f64, p_x: f64, d_child: u32) -> f64 {
        debug_assert!(p_x > 0.0 && d_child >= 1);
        let dt_child = self.get(d_child);
        let dt_parent = self.get(d_child - 1);
        let denom = dt_child + t_driver / p_x;
        if denom <= 0.0 {
            return f64::INFINITY;
        }
        (p_x * dt_parent + t_driver) / denom
    }
}

/// One net-benefit lane, operation-for-operation the composition of
/// `benefit::benefit` and `overhead::t_oh` with `ΔT_pf` pre-read.
#[inline(always)]
fn net_lane(p_b: f64, p_x: f64, dt_d: f64, dt_dm1: f64, t_driver: f64) -> f64 {
    let b = p_b * dt_d - p_x * dt_dm1;
    let oh = (1.0 - p_b / p_x).max(0.0) * t_driver;
    b - oh
}

/// Batched net desirability `B(b) − T_oh(b)` (Eq. 1 minus Eq. 14):
/// `out[i] = p_b[i]·ΔT(d_b[i]) − p_x[i]·ΔT(d_b[i]−1)
///           − max(1 − p_b[i]/p_x[i], 0)·T_driver`.
/// `out` is cleared and resized to the batch length.
pub fn net_benefit_batch(
    p_b: &[f64],
    p_x: &[f64],
    d_b: &[u32],
    dt: &DepthTable,
    t_driver: f64,
    out: &mut Vec<f64>,
) {
    let n = p_b.len();
    assert!(p_x.len() == n && d_b.len() == n, "SoA columns must have equal length");
    debug_assert!(d_b.iter().all(|&d| d >= 1 && (d as usize) < dt.len()));
    let dt = dt.as_slice();
    out.clear();
    out.extend((0..n).map(|i| {
        let d = d_b[i] as usize;
        net_lane(p_b[i], p_x[i], dt[d], dt[d - 1], t_driver)
    }));
}

/// Handle through which the `benchmark/` harness reaches
/// [`net_benefit_batch`]; it compiles against [`active`] and the method,
/// so both keep their signatures. There is nothing to select.
#[derive(Debug)]
pub struct KernelImpl;

impl KernelImpl {
    /// [`net_benefit_batch`].
    pub fn net_benefit_batch(
        &self,
        p_b: &[f64],
        p_x: &[f64],
        d_b: &[u32],
        dt: &DepthTable,
        t_driver: f64,
        out: &mut Vec<f64>,
    ) {
        net_benefit_batch(p_b, p_x, d_b, dt, t_driver, out);
    }
}

/// The one [`KernelImpl`].
pub fn active() -> &'static KernelImpl {
    &KernelImpl
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(s: f64) -> DepthTable {
        let mut dt = DepthTable::default();
        dt.rebuild(&SystemParams::patterson(), s, 8);
        dt
    }

    #[test]
    fn depth_table_matches_scalar_timing() {
        let p = SystemParams::patterson();
        for s in [0.0, 0.7, 3.2] {
            let mut dt = DepthTable::default();
            dt.rebuild(&p, s, 8);
            assert_eq!(dt.len(), 9);
            for d in 0..=8 {
                assert_eq!(dt.get(d).to_bits(), timing::delta_t_pf(d, &p, s).to_bits());
            }
        }
    }

    #[test]
    fn net_lane_matches_model_net_benefit() {
        let m = crate::model::CostBenefitModel::patterson();
        let dt = table(m.s());
        for (p_b, d, p_x) in [(0.5, 1, 1.0), (0.25, 3, 0.5), (0.9, 8, 0.9), (1e-4, 2, 0.3)] {
            let got = net_lane(p_b, p_x, dt.get(d), dt.get(d - 1), m.params().t_driver);
            assert_eq!(got.to_bits(), m.net_benefit(p_b, d, p_x).to_bits());
        }
    }

    #[test]
    fn table_cutoff_matches_model_cutoff() {
        let m = crate::model::CostBenefitModel::patterson();
        let dt = table(m.s());
        for d in 1..=8 {
            for p_x in [1.0, 0.5, 0.01, 1e-6] {
                let got = dt.min_useful_probability(m.params().t_driver, p_x, d);
                assert_eq!(got.to_bits(), m.min_useful_probability(p_x, d).to_bits());
            }
        }
    }
}
