//! Collective-communication cost models.

use crate::link::LinkSpec;

/// Ring all-reduce of `bytes` across `n` devices over `link`:
/// `2·(n-1)/n · bytes / bw + (n-1) · latency` (the standard
/// bandwidth-optimal ring model NCCL implements). Zero for `n <= 1`.
pub fn ring_allreduce_time(link: &LinkSpec, n: usize, bytes: f64) -> f64 {
    if n <= 1 || bytes <= 0.0 {
        return 0.0;
    }
    let n_f = n as f64;
    2.0 * (n_f - 1.0) / n_f * bytes / link.bandwidth + (n_f - 1.0) * link.latency
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_device_is_free() {
        let l = LinkSpec::nvlink2();
        assert_eq!(ring_allreduce_time(&l, 1, 1e9), 0.0);
    }

    #[test]
    fn allreduce_grows_with_devices_then_saturates() {
        let l = LinkSpec::nvlink2();
        let bytes = 256e6;
        let t2 = ring_allreduce_time(&l, 2, bytes);
        let t4 = ring_allreduce_time(&l, 4, bytes);
        let t8 = ring_allreduce_time(&l, 8, bytes);
        assert!(t2 < t4 && t4 < t8);
        // Bandwidth term saturates at 2×bytes/bw; latency dominates growth.
        let bw_bound = 2.0 * bytes / l.bandwidth + 7.0 * l.latency;
        assert!(t8 <= bw_bound + 1e-12);
    }

    #[test]
    fn matches_hand_computation() {
        let l = LinkSpec { name: "t".into(), bandwidth: 100.0, latency: 1.0 };
        // n=4: 2*(3/4)*200/100 + 3*1 = 3 + 3 = 6.
        assert!((ring_allreduce_time(&l, 4, 200.0) - 6.0).abs() < 1e-12);
    }
}
