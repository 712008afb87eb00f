//! Disk-array statistics: utilization and queueing delay.

/// Counters accumulated by [`crate::DiskArray::submit`].
#[derive(Clone, Debug, PartialEq)]
pub struct DiskStats {
    /// Requests served per disk.
    pub requests: Vec<u64>,
    /// Busy time per disk (ms).
    pub busy_ms: Vec<f64>,
    /// Total time requests spent queued before service (ms).
    pub queue_ms: f64,
    /// Requests that had to queue.
    pub queued_requests: u64,
    /// Latest completion time seen (proxy for makespan).
    pub horizon_ms: f64,
    /// Reads that occupied a disk but failed (fault injection).
    pub transient_errors: u64,
    /// Reads rejected instantly by an unavailable disk (fault injection).
    pub unavailable_rejections: u64,
    /// Reads served at a slow-episode-multiplied service time.
    pub slowed_requests: u64,
}

impl DiskStats {
    pub(crate) fn new(num_disks: usize) -> Self {
        DiskStats {
            requests: vec![0; num_disks],
            busy_ms: vec![0.0; num_disks],
            queue_ms: 0.0,
            queued_requests: 0,
            horizon_ms: 0.0,
            transient_errors: 0,
            unavailable_rejections: 0,
            slowed_requests: 0,
        }
    }

    pub(crate) fn record(&mut self, disk: usize, arrival: f64, start: f64, completion: f64) {
        self.requests[disk] += 1;
        self.busy_ms[disk] += completion - start;
        let wait = start - arrival;
        if wait > 0.0 {
            self.queue_ms += wait;
            self.queued_requests += 1;
        }
        self.horizon_ms = self.horizon_ms.max(completion);
    }

    /// Total requests across all disks.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().sum()
    }

    /// Total injected faults surfaced to callers (transient errors plus
    /// unavailability rejections).
    pub fn total_faults(&self) -> u64 {
        self.transient_errors + self.unavailable_rejections
    }

    /// Mean queueing delay per request (ms).
    pub fn mean_queue_delay(&self) -> f64 {
        let total = self.total_requests();
        if total == 0 {
            0.0
        } else {
            self.queue_ms / total as f64
        }
    }

    /// Fraction of requests that found their disk busy.
    pub fn queue_fraction(&self) -> f64 {
        let total = self.total_requests();
        if total == 0 {
            0.0
        } else {
            self.queued_requests as f64 / total as f64
        }
    }

    /// Utilization of disk `d` over the horizon (0 when idle forever).
    pub fn utilization(&self, d: usize) -> f64 {
        if self.horizon_ms <= 0.0 {
            0.0
        } else {
            self.busy_ms[d] / self.horizon_ms
        }
    }

    /// Mean utilization across disks.
    pub fn mean_utilization(&self) -> f64 {
        if self.busy_ms.is_empty() {
            return 0.0;
        }
        (0..self.busy_ms.len()).map(|d| self.utilization(d)).sum::<f64>()
            / self.busy_ms.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskArray, DiskArrayConfig, Striping};
    use prefetch_trace::BlockId;

    #[test]
    fn stats_track_queueing() {
        let mut a = DiskArray::new(DiskArrayConfig {
            num_disks: 1,
            service_ms: 10.0,
            striping: Striping::Hashed,
        })
        .unwrap();
        a.submit(BlockId(1), 0.0).unwrap(); // no wait
        a.submit(BlockId(2), 0.0).unwrap(); // waits 10
        a.submit(BlockId(3), 30.0).unwrap(); // no wait (disk idle at 20)
        let s = a.stats();
        assert_eq!(s.total_requests(), 3);
        assert_eq!(s.total_faults(), 0);
        assert_eq!(s.queued_requests, 1);
        assert!((s.mean_queue_delay() - 10.0 / 3.0).abs() < 1e-12);
        assert!((s.queue_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.horizon_ms, 40.0);
        // Busy 30 ms over a 40 ms horizon.
        assert!((s.utilization(0) - 0.75).abs() < 1e-12);
        assert!((s.mean_utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = DiskStats::new(4);
        assert_eq!(s.total_requests(), 0);
        assert_eq!(s.mean_queue_delay(), 0.0);
        assert_eq!(s.queue_fraction(), 0.0);
        assert_eq!(s.mean_utilization(), 0.0);
    }
}
