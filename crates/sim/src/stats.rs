//! Per-rank accounting: where virtual time went and how much was
//! communicated.

/// Counters accumulated by one rank over a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnvStats {
    /// Virtual seconds spent computing (includes slowdown from external load).
    pub compute_time: f64,
    /// Virtual seconds spent in per-message send setup.
    pub send_time: f64,
    /// Virtual seconds spent in per-message receive overhead.
    pub recv_time: f64,
    /// Virtual seconds spent waiting for messages that had not yet arrived.
    pub wait_time: f64,
    /// Virtual seconds spent waiting at barriers (including barrier latency).
    pub barrier_time: f64,
    /// Point-to-point messages sent (multicast counts once per destination
    /// when unsupported by the network, once total when supported).
    pub messages_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub messages_received: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
}

impl EnvStats {
    /// Merges another rank's counters into this one (for cluster-wide sums).
    pub fn merge(&mut self, other: &EnvStats) {
        self.compute_time += other.compute_time;
        self.send_time += other.send_time;
        self.recv_time += other.recv_time;
        self.wait_time += other.wait_time;
        self.barrier_time += other.barrier_time;
        self.messages_sent += other.messages_sent;
        self.bytes_sent += other.bytes_sent;
        self.messages_received += other.messages_received;
        self.bytes_received += other.bytes_received;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_everything() {
        let mut a = EnvStats {
            compute_time: 1.0,
            send_time: 2.0,
            recv_time: 3.0,
            wait_time: 4.0,
            barrier_time: 5.0,
            messages_sent: 6,
            bytes_sent: 7,
            messages_received: 8,
            bytes_received: 9,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.compute_time, 2.0);
        assert_eq!(a.messages_sent, 12);
        assert_eq!(a.bytes_received, 18);
        assert_eq!(a.barrier_time, 10.0);
    }

    #[test]
    fn default_is_zero() {
        let s = EnvStats::default();
        assert_eq!(s.barrier_time, 0.0);
        assert_eq!(s.messages_sent, 0);
    }
}
