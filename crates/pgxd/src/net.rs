//! Network cost model for the simulated fabric.
//!
//! The paper's cluster (Table I) uses Mellanox Connect-IB at 56 Gb/s per
//! port. Our machines exchange data through in-process channels, so the
//! *observed* quantity is bytes moved; this model converts bytes into the
//! wire time that fabric would have charged, which the experiment harness
//! reports as "modeled communication time" next to measured wall time.

use std::time::Duration;

/// Latency + bandwidth model: `time(bytes) = latency + bytes / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way message latency charged per packet.
    pub latency: Duration,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
}

impl NetworkModel {
    /// The Table I fabric: 56 Gb/s InfiniBand, ~1.5 µs port-to-port latency
    /// (typical for the SX6512 switch generation).
    pub fn infiniband_56g() -> Self {
        NetworkModel {
            latency: Duration::from_nanos(1_500),
            bandwidth_bytes_per_sec: 56.0e9 / 8.0,
        }
    }

    /// Wire time for one packet of `bytes` payload.
    pub fn packet_time(&self, bytes: usize) -> Duration {
        let transfer = Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec);
        self.latency + transfer
    }

    /// [`packet_time`](NetworkModel::packet_time) scaled by a
    /// deterministic jitter factor in `[0.5, 1.5)` derived from `salt`
    /// (hashed with [`crate::fault::mix64`]). The fault plane uses this to
    /// make injected chunk delays track the modeled wire time of the
    /// chunk — big chunks jitter by more — while staying replayable from
    /// a seed.
    pub fn jittered_packet_time(&self, bytes: usize, salt: u64) -> Duration {
        let factor = 0.5 + (crate::fault::mix64(salt) % 1024) as f64 / 1024.0;
        self.packet_time(bytes).mul_f64(factor)
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::infiniband_56g()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_time_scales_with_bytes() {
        let net = NetworkModel::infiniband_56g();
        let small = net.packet_time(1024);
        let big = net.packet_time(1024 * 1024);
        assert!(big > small);
        // 1 MiB at 7 GB/s is ~150 µs.
        assert!(big > Duration::from_micros(100));
        assert!(big < Duration::from_micros(400));
    }

    #[test]
    fn zero_bytes_still_pays_latency() {
        let net = NetworkModel::infiniband_56g();
        assert_eq!(net.packet_time(0), net.latency);
    }

    #[test]
    fn jittered_packet_time_is_deterministic_and_bounded() {
        let net = NetworkModel::infiniband_56g();
        for salt in 0..256u64 {
            let base = net.packet_time(1 << 20);
            let jittered = net.jittered_packet_time(1 << 20, salt);
            assert_eq!(jittered, net.jittered_packet_time(1 << 20, salt));
            assert!(jittered >= base.mul_f64(0.5));
            assert!(jittered < base.mul_f64(1.5));
        }
        // Different salts actually spread.
        assert!(
            net.jittered_packet_time(1 << 20, 1) != net.jittered_packet_time(1 << 20, 2)
                || net.jittered_packet_time(1 << 20, 1) != net.jittered_packet_time(1 << 20, 3)
        );
    }
}
