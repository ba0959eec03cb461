//! Network cost model: per-message setup, latency, bandwidth, multicast.
//!
//! The model is the classic postal/Hockney model the cluster-computing
//! literature of the era used: sending `n` bytes costs the *sender*
//! `send_setup` seconds of CPU, and the message arrives `latency + n ×
//! byte_time` seconds after the send completes. Two wire models are provided:
//!
//! * [`NetworkKind::PointToPoint`] — every message uses the full link
//!   independently. Fully deterministic; the default for experiments.
//! * [`NetworkKind::SharedBus`] — transmissions serialize on a single shared
//!   medium (10 Mbit/s Ethernet). Arbitration order depends on host thread
//!   scheduling, so virtual times can vary by a transmission's worth of time
//!   between runs; use it for Ethernet-contention studies, not for exact
//!   regression tests.
//!
//! Multicast (§3.6 of the paper) lets one send reach many destinations for a
//! single setup + transmission cost, as Ethernet broadcast frames do.

use std::sync::Mutex;

use crate::time::VTime;

/// Which wire model to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetworkKind {
    /// Independent full-bandwidth links between every pair (deterministic).
    #[default]
    PointToPoint,
    /// A single shared medium; transmissions serialize (Ethernet-like).
    SharedBus,
}

/// Parameters of the interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// CPU seconds the sender spends per message (packetization, syscalls).
    /// This is the cost that punishes fine-grained communication.
    pub send_setup: f64,
    /// Wire latency per message in seconds, not overlappable with compute.
    pub latency: f64,
    /// Seconds per payload byte (1 / bandwidth).
    pub byte_time: f64,
    /// CPU seconds the receiver spends per message delivered.
    pub recv_overhead: f64,
    /// Whether a single send may target multiple destinations at one cost.
    pub multicast: bool,
    /// Wire model.
    pub kind: NetworkKind,
}

impl NetworkSpec {
    /// Mid-1990s 10 Mbit/s shared Ethernet with a userspace message-passing
    /// library (P4-era constants: ~1 ms per-message software overhead,
    /// ~1.1 MB/s effective bandwidth), but modeled point-to-point so runs are
    /// deterministic.
    pub fn ethernet_10mbit() -> Self {
        NetworkSpec {
            send_setup: 1.0e-3,
            latency: 1.0e-3,
            byte_time: 1.0 / 1.1e6,
            recv_overhead: 0.5e-3,
            multicast: false,
            kind: NetworkKind::PointToPoint,
        }
    }

    /// The same constants with true shared-bus contention.
    pub fn ethernet_10mbit_shared() -> Self {
        NetworkSpec {
            kind: NetworkKind::SharedBus,
            ..Self::ethernet_10mbit()
        }
    }

    /// An idealized zero-cost network. Useful in unit tests where only data
    /// movement correctness matters.
    pub fn zero_cost() -> Self {
        NetworkSpec {
            send_setup: 0.0,
            latency: 0.0,
            byte_time: 0.0,
            recv_overhead: 0.0,
            multicast: true,
            kind: NetworkKind::PointToPoint,
        }
    }

    /// Enables or disables hardware multicast.
    pub fn with_multicast(mut self, on: bool) -> Self {
        self.multicast = on;
        self
    }

    /// Validates the parameters.
    ///
    /// # Panics
    /// Panics if any cost is negative or non-finite.
    pub fn validate(&self) {
        for (name, v) in [
            ("send_setup", self.send_setup),
            ("latency", self.latency),
            ("byte_time", self.byte_time),
            ("recv_overhead", self.recv_overhead),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "network parameter {name} must be finite and non-negative, got {v}"
            );
        }
    }

    /// Pure transmission time for `bytes` payload bytes (excludes setup and
    /// receive overhead).
    #[inline]
    pub fn transit_time(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 * self.byte_time
    }
}

impl Default for NetworkSpec {
    fn default() -> Self {
        Self::ethernet_10mbit()
    }
}

/// Shared runtime state of the interconnect (bus arbitration).
#[derive(Debug)]
pub struct NetworkState {
    spec: NetworkSpec,
    /// Virtual time at which the shared bus next becomes free.
    bus_free: Mutex<f64>,
}

impl NetworkState {
    /// Creates the runtime state for a spec.
    pub fn new(spec: NetworkSpec) -> Self {
        spec.validate();
        NetworkState {
            spec,
            bus_free: Mutex::new(0.0),
        }
    }

    /// The static parameters.
    #[inline]
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Computes the arrival time of a message handed to the network at
    /// `ready` (i.e. after the sender has paid its setup cost).
    pub fn arrival(&self, ready: VTime, bytes: usize) -> VTime {
        match self.spec.kind {
            NetworkKind::PointToPoint => ready + self.spec.transit_time(bytes),
            NetworkKind::SharedBus => {
                let mut free = self.bus_free.lock().expect("bus lock poisoned");
                let start = free.max(ready.as_secs());
                let done = start + self.spec.transit_time(bytes);
                *free = done;
                VTime::from_secs(done)
            }
        }
    }

    /// Whether the network has hardware multicast: if so, one transmission
    /// serves every destination of a multicast (the caller delivers the one
    /// arrival to each); if not, callers loop over unicast sends.
    pub fn multicast_supported(&self) -> bool {
        self.spec.multicast
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_cost() {
        let net = NetworkState::new(NetworkSpec {
            send_setup: 0.0,
            latency: 1.0e-3,
            byte_time: 1.0e-6,
            recv_overhead: 0.0,
            multicast: false,
            kind: NetworkKind::PointToPoint,
        });
        let a = net.arrival(VTime::from_secs(1.0), 1000);
        assert!((a.as_secs() - (1.0 + 1.0e-3 + 1.0e-3)).abs() < 1e-12);
    }

    #[test]
    fn shared_bus_serializes() {
        let net = NetworkState::new(NetworkSpec {
            send_setup: 0.0,
            latency: 0.0,
            byte_time: 1.0,
            recv_overhead: 0.0,
            multicast: false,
            kind: NetworkKind::SharedBus,
        });
        // Two 1-byte messages both ready at t=0: the second waits for the bus.
        let a = net.arrival(VTime::ZERO, 1);
        let b = net.arrival(VTime::ZERO, 1);
        assert_eq!(a.as_secs(), 1.0);
        assert_eq!(b.as_secs(), 2.0);
        // A message ready later than bus-free starts on time.
        let c = net.arrival(VTime::from_secs(10.0), 1);
        assert_eq!(c.as_secs(), 11.0);
    }

    #[test]
    fn zero_cost_network() {
        let net = NetworkState::new(NetworkSpec::zero_cost());
        assert_eq!(
            net.arrival(VTime::from_secs(2.0), 1 << 20),
            VTime::from_secs(2.0)
        );
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative")]
    fn negative_latency_rejected() {
        NetworkState::new(NetworkSpec {
            latency: -1.0,
            ..NetworkSpec::zero_cost()
        });
    }

    #[test]
    fn ethernet_preset_sane() {
        let s = NetworkSpec::ethernet_10mbit();
        s.validate();
        // 1 MB at ~1.1 MB/s ≈ 0.95 s.
        let t = s.transit_time(1 << 20);
        assert!(t > 0.9 && t < 1.0, "1 MiB transit was {t}");
    }
}
