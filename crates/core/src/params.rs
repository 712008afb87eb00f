//! System model parameters (paper Sections 3 and 8.1).
//!
//! All times are in **milliseconds**. The defaults are the constants the
//! paper takes from Patterson's informed-prefetching work: `T_hit = 0.243`,
//! `T_driver = 0.580`, `T_disk = 15.0`, and `T_cpu = 50.0` (varied between
//! 20 and 640 in Section 9.2.3 / Figures 11-12).

/// Timing constants of the uniprocessor system model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemParams {
    /// Time to read a block that is resident in the buffer cache (ms).
    pub t_hit: f64,
    /// Device-driver overhead to initiate any fetch: allocate a buffer,
    /// queue the request, service the completion interrupt (ms).
    pub t_driver: f64,
    /// Constant disk access time (ms); the model assumes enough disks that
    /// there is never congestion.
    pub t_disk: f64,
    /// Average computation time between two I/O requests (ms).
    pub t_cpu: f64,
}

impl SystemParams {
    /// The paper's constants (Section 8.1).
    pub fn patterson() -> Self {
        SystemParams { t_hit: 0.243, t_driver: 0.580, t_disk: 15.0, t_cpu: 50.0 }
    }

    /// Same constants with a different `T_cpu` (the Section 9.2.3 sweep).
    pub fn with_t_cpu(t_cpu: f64) -> Self {
        SystemParams { t_cpu, ..Self::patterson() }
    }

    /// Time of a full demand miss: `T_miss = T_driver + T_disk + T_hit`
    /// (Section 6.2).
    pub fn t_miss(&self) -> f64 {
        self.t_driver + self.t_disk + self.t_hit
    }

    /// Check that all parameters are finite and non-negative, reporting
    /// the first offender. Non-panicking form for callers that want a
    /// typed configuration error.
    pub fn check(&self) -> Result<(), String> {
        for (name, v) in [
            ("t_hit", self.t_hit),
            ("t_driver", self.t_driver),
            ("t_disk", self.t_disk),
            ("t_cpu", self.t_cpu),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be finite and >= 0, got {v}"));
            }
        }
        Ok(())
    }

    /// Validate that all parameters are finite and non-negative.
    ///
    /// # Panics
    /// Panics on invalid parameters; call at configuration boundaries.
    /// Prefer [`SystemParams::check`] where a recoverable error is wanted.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

impl Default for SystemParams {
    fn default() -> Self {
        Self::patterson()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterson_constants() {
        let p = SystemParams::patterson();
        assert_eq!(p.t_hit, 0.243);
        assert_eq!(p.t_driver, 0.580);
        assert_eq!(p.t_disk, 15.0);
        assert_eq!(p.t_cpu, 50.0);
        assert_eq!(SystemParams::default(), p);
    }

    #[test]
    fn t_miss_is_driver_plus_disk_plus_hit() {
        let p = SystemParams::patterson();
        assert!((p.t_miss() - 15.823).abs() < 1e-12);
    }

    #[test]
    fn with_t_cpu_overrides_only_cpu() {
        let p = SystemParams::with_t_cpu(640.0);
        assert_eq!(p.t_cpu, 640.0);
        assert_eq!(p.t_disk, 15.0);
    }

    #[test]
    #[should_panic(expected = "t_disk")]
    fn validate_rejects_negative() {
        SystemParams { t_disk: -1.0, ..SystemParams::patterson() }.validate();
    }
}
