//! Simulation metrics: every quantity a table or figure of the paper
//! reports, plus a virtual-time extension.

/// Counters collected over one simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimMetrics {
    /// References processed.
    pub refs: u64,
    /// Hits in the demand cache.
    pub demand_hits: u64,
    /// Hits in the prefetch cache (Figure 9 numerator).
    pub prefetch_hits: u64,
    /// Demand fetches (misses in the combined cache — Figure 6 numerator).
    pub misses: u64,
    /// Prefetch disk reads issued (Figure 8 numerator; extra disk traffic).
    pub prefetches_issued: u64,
    /// Candidates the selector examined.
    pub candidates_considered: u64,
    /// Candidates chosen for prefetch that were already resident (Figure 7
    /// numerator; denominator is `candidates_considered`).
    pub candidates_already_cached: u64,
    /// Blocks ejected from the prefetch cache before being referenced.
    pub prefetch_evictions: u64,
    /// Demand buffers surrendered to prefetching.
    pub demand_evictions_for_prefetch: u64,
    /// Sum of tree probabilities over prefetched blocks (Figure 10).
    pub prefetch_probability_sum: f64,
    /// Accesses predictable from the tree cursor (Table 2 numerator).
    pub predictable: u64,
    /// Predictable accesses that nonetheless missed (Figure 14 numerator;
    /// denominator is `predictable`).
    pub predictable_missed: u64,
    /// Node visits that had a last-visited child on record (Table 3 /
    /// Figure 16 denominator).
    pub lvc_opportunities: u64,
    /// ... of which the access repeated the last-visited child (Table 3).
    pub lvc_repeats: u64,
    /// ... of which the last-visited child was already resident
    /// (Figure 16).
    pub lvc_cached: u64,
    /// Virtual elapsed time (ms) under the Section 3 timing model
    /// (extension; the paper reports only rates).
    pub elapsed_ms: f64,
    /// Virtual CPU stall time (ms) included in `elapsed_ms`.
    pub stall_ms: f64,
    /// With a finite disk array: total request queueing delay (ms).
    pub disk_queue_ms: f64,
    /// With a finite disk array: requests that found their disk busy.
    pub disk_queued_requests: u64,
    /// With a finite disk array: mean disk utilization over the run.
    pub disk_mean_utilization: f64,
    /// With fault injection: demand reads that hit an injected fault
    /// (each retry attempt that faults counts once).
    pub demand_faults: u64,
    /// With fault injection: retries issued for faulted demand reads.
    pub demand_retries: u64,
    /// With fault injection: demand reads abandoned after exhausting the
    /// retry budget (priced with the give-up penalty).
    pub demand_read_failures: u64,
    /// With fault injection: total exponential-backoff delay (ms) charged
    /// to the virtual clock while retrying demand reads.
    pub retry_backoff_ms: f64,
    /// With fault injection: prefetch submissions that faulted. The slot
    /// is released and `T_oh` stays charged — a priced mispredict.
    pub prefetch_faults: u64,
    /// With fault injection: prefetch faults that pushed their block over
    /// the quarantine threshold.
    pub blocks_quarantined: u64,
    /// With fault injection: prefetch candidates skipped because their
    /// block sits in quarantine.
    pub candidates_quarantined: u64,
    /// With fault injection: requests a slow-disk episode stretched.
    pub disk_slowed_requests: u64,
}

impl SimMetrics {
    /// Miss rate of the combined demand + prefetch cache (Figure 6), in
    /// percent of references.
    pub fn miss_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.misses as f64 / self.refs as f64
        }
    }

    /// Hit rate in the prefetch cache: prefetched blocks that were
    /// referenced, over blocks prefetched (Figure 9).
    pub fn prefetch_hit_rate(&self) -> f64 {
        if self.prefetches_issued == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.prefetches_issued as f64
        }
    }

    /// Average blocks prefetched per access period (Figure 8; also the
    /// measured `s` of Figure 11).
    pub fn prefetches_per_period(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.prefetches_issued as f64 / self.refs as f64
        }
    }

    /// Mean tree probability of prefetched blocks (Figure 10).
    pub fn mean_prefetch_probability(&self) -> f64 {
        if self.prefetches_issued == 0 {
            0.0
        } else {
            self.prefetch_probability_sum / self.prefetches_issued as f64
        }
    }

    /// Fraction of chosen candidates already resident (Figure 7).
    pub fn candidates_already_cached_frac(&self) -> f64 {
        if self.candidates_considered == 0 {
            0.0
        } else {
            self.candidates_already_cached as f64 / self.candidates_considered as f64
        }
    }

    /// Prediction accuracy (Table 2).
    pub fn prediction_accuracy(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.predictable as f64 / self.refs as f64
        }
    }

    /// Fraction of predictable accesses that were *not* already cached
    /// (Figure 14).
    pub fn predictable_not_cached_frac(&self) -> f64 {
        if self.predictable == 0 {
            0.0
        } else {
            self.predictable_missed as f64 / self.predictable as f64
        }
    }

    /// Fraction of node re-visits repeating the last-visited child
    /// (Table 3).
    pub fn lvc_repeat_rate(&self) -> f64 {
        if self.lvc_opportunities == 0 {
            0.0
        } else {
            self.lvc_repeats as f64 / self.lvc_opportunities as f64
        }
    }

    /// Fraction of last-visited children already resident when visited
    /// (Figure 16).
    pub fn lvc_cached_frac(&self) -> f64 {
        if self.lvc_opportunities == 0 {
            0.0
        } else {
            self.lvc_cached as f64 / self.lvc_opportunities as f64
        }
    }

    /// Total disk reads: demand fetches plus prefetches (the disk-traffic
    /// increase discussed with Figure 8 is
    /// `prefetches_issued / misses`).
    pub fn disk_reads(&self) -> u64 {
        self.misses + self.prefetches_issued
    }

    /// Total injected faults observed by the simulator (demand + prefetch
    /// paths). Zero whenever fault injection is off.
    pub fn total_faults(&self) -> u64 {
        self.demand_faults + self.prefetch_faults
    }

    /// Fraction of issued prefetches that never produced a hit — the
    /// wasted-prefetch fraction the resilience experiment reports (under
    /// faults this includes prefetches killed by the injector).
    pub fn wasted_prefetch_frac(&self) -> f64 {
        if self.prefetches_issued == 0 {
            0.0
        } else {
            (self.prefetches_issued - self.prefetch_hits) as f64 / self.prefetches_issued as f64
        }
    }

    /// Sanity-check the conservation laws every run must satisfy.
    ///
    /// # Panics
    /// Panics if a law is violated (simulator bug).
    pub fn check_invariants(&self) {
        assert_eq!(
            self.demand_hits + self.prefetch_hits + self.misses,
            self.refs,
            "hits + misses must equal references"
        );
        assert!(self.prefetch_hits <= self.prefetches_issued, "more prefetch hits than prefetches");
        assert!(self.predictable <= self.refs);
        assert!(self.predictable_missed <= self.predictable);
        assert!(self.lvc_repeats <= self.lvc_opportunities);
        assert!(self.lvc_cached <= self.lvc_opportunities);
        assert!(self.candidates_already_cached <= self.candidates_considered);
        assert!(self.stall_ms <= self.elapsed_ms + 1e-6);
        assert!((0.0..=1.0).contains(&self.miss_rate()));
        assert!((0.0..=1.0).contains(&self.prefetch_hit_rate()));
        assert!(self.disk_queue_ms >= 0.0);
        assert!(self.disk_queued_requests <= self.disk_reads());
        assert!((0.0..=1.0 + 1e-9).contains(&self.disk_mean_utilization));
        assert!(self.demand_retries <= self.demand_faults, "retries without faults");
        assert!(self.demand_read_failures <= self.misses, "more failures than demand reads");
        assert!(self.retry_backoff_ms >= 0.0);
        assert!(self.retry_backoff_ms <= self.stall_ms + 1e-6, "backoff outside stall time");
        assert!(self.blocks_quarantined <= self.prefetch_faults, "quarantine without faults");
        assert!(self.prefetch_faults <= self.prefetches_issued, "more faults than prefetches");
        assert!(self.candidates_quarantined <= self.candidates_considered);
        assert!((0.0..=1.0).contains(&self.wasted_prefetch_frac()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimMetrics {
        SimMetrics {
            refs: 100,
            demand_hits: 50,
            prefetch_hits: 20,
            misses: 30,
            prefetches_issued: 40,
            candidates_considered: 80,
            candidates_already_cached: 20,
            prefetch_probability_sum: 28.0,
            predictable: 60,
            predictable_missed: 15,
            lvc_opportunities: 50,
            lvc_repeats: 30,
            lvc_cached: 40,
            elapsed_ms: 1000.0,
            stall_ms: 100.0,
            ..SimMetrics::default()
        }
    }

    #[test]
    fn derived_rates() {
        let m = sample();
        m.check_invariants();
        assert!((m.miss_rate() - 0.30).abs() < 1e-12);
        assert!((m.prefetch_hit_rate() - 0.5).abs() < 1e-12);
        assert!((m.prefetches_per_period() - 0.4).abs() < 1e-12);
        assert!((m.mean_prefetch_probability() - 0.7).abs() < 1e-12);
        assert!((m.candidates_already_cached_frac() - 0.25).abs() < 1e-12);
        assert!((m.prediction_accuracy() - 0.6).abs() < 1e-12);
        assert!((m.predictable_not_cached_frac() - 0.25).abs() < 1e-12);
        assert!((m.lvc_repeat_rate() - 0.6).abs() < 1e-12);
        assert!((m.lvc_cached_frac() - 0.8).abs() < 1e-12);
        assert_eq!(m.disk_reads(), 70);
        assert!((m.wasted_prefetch_frac() - 0.5).abs() < 1e-12);
        assert_eq!(m.total_faults(), 0);
    }

    #[test]
    fn fault_counters_obey_invariants() {
        let m = SimMetrics {
            demand_faults: 10,
            demand_retries: 8,
            demand_read_failures: 2,
            retry_backoff_ms: 40.0,
            prefetch_faults: 5,
            blocks_quarantined: 2,
            candidates_quarantined: 7,
            disk_slowed_requests: 3,
            ..sample()
        };
        m.check_invariants();
        assert_eq!(m.total_faults(), 15);
    }

    #[test]
    #[should_panic(expected = "quarantine without faults")]
    fn quarantine_without_faults_is_a_bug() {
        let m = SimMetrics { blocks_quarantined: 1, ..sample() };
        m.check_invariants();
    }

    #[test]
    fn empty_metrics_are_all_zero() {
        let m = SimMetrics::default();
        m.check_invariants();
        assert_eq!(m.miss_rate(), 0.0);
        assert_eq!(m.prefetch_hit_rate(), 0.0);
        assert_eq!(m.mean_prefetch_probability(), 0.0);
    }

    #[test]
    #[should_panic(expected = "hits + misses")]
    fn invariant_violation_panics() {
        let m = SimMetrics { refs: 10, misses: 5, ..SimMetrics::default() };
        m.check_invariants();
    }
}
