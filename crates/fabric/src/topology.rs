//! Topology: how NICs are connected, and the paper's `Network` total.
//!
//! `Network = Wire + Switch` (§4): 274.81 ns direct, +108 ns when a switch
//! is on the path (382.81 ns, the configuration behind the paper's Table 1
//! and every end-to-end figure).

use crate::packet::Packet;
use crate::switch::SwitchModel;
use crate::wire::WireModel;
use bband_sim::{Pcg64, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Path shape between two NICs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// Back-to-back cable, no switch.
    Direct,
    /// One switch hop (the paper's Table 1 configuration).
    SingleSwitch,
}

/// The interconnect between the nodes of the evaluation setup.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    pub topology: Topology,
    pub wire: WireModel,
    pub switch: SwitchModel,
}

impl NetworkModel {
    /// The paper's configuration: ConnectX-4 EDR through one switch.
    pub fn paper_default() -> Self {
        NetworkModel::with_topology(Topology::SingleSwitch)
    }

    /// Direct back-to-back configuration (used when measuring `Wire` alone).
    pub fn direct() -> Self {
        NetworkModel::with_topology(Topology::Direct)
    }

    /// Any topology over the calibrated wire and switch.
    pub fn with_topology(topology: Topology) -> Self {
        NetworkModel {
            topology,
            wire: WireModel::default(),
            switch: SwitchModel::default(),
        }
    }

    /// Jitter-free copy for validation runs, with all transient switch
    /// state (busy horizons, contention counts) dropped.
    pub fn deterministic(mut self) -> Self {
        self.wire = self.wire.deterministic();
        self.switch = self.switch.deterministic();
        self.switch.reset_transients();
        self
    }

    /// Mean one-way latency — the analytical model's `Network` term.
    pub fn network_mean(&self, pkt: &Packet) -> SimDuration {
        match self.topology {
            Topology::Direct => self.wire.latency_mean(pkt),
            Topology::SingleSwitch => self.wire.latency_mean(pkt) + self.switch.latency_mean(pkt),
        }
    }

    /// Sampled one-way traversal for a packet departing at `depart`;
    /// includes switch queueing when contended.
    pub fn traverse(&mut self, depart: SimTime, pkt: &Packet, rng: &mut Pcg64) -> SimDuration {
        match self.topology {
            Topology::Direct => self.wire.latency(pkt, rng),
            Topology::SingleSwitch => {
                let to_switch = self.wire.latency(pkt, rng);
                let in_switch = self.switch.traverse(depart + to_switch, pkt, rng);
                // The paper folds both cable segments into its single `Wire`
                // term (it measures Wire on a direct link and attributes the
                // remainder to Switch), so the second segment is already
                // accounted inside `to_switch`'s calibration.
                to_switch + in_switch
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, PacketId, PacketKind};

    fn probe() -> Packet {
        Packet::message(PacketId(0), PacketKind::Send, NodeId(0), NodeId(1), 8)
    }

    #[test]
    fn network_total_matches_table1() {
        let net = NetworkModel::paper_default();
        let total = net.network_mean(&probe()).as_ns_f64();
        assert!(
            (total - 382.81).abs() < 0.001,
            "Network = Wire + Switch = {total}"
        );
    }

    #[test]
    fn direct_topology_is_wire_only() {
        let net = NetworkModel::direct();
        assert!((net.network_mean(&probe()).as_ns_f64() - 274.81).abs() < 0.001);
    }

    #[test]
    fn switch_difference_is_108ns() {
        // The paper measured Switch by differencing the two configurations.
        let with_sw = NetworkModel::paper_default().network_mean(&probe());
        let without = NetworkModel::direct().network_mean(&probe());
        assert!(((with_sw - without).as_ns_f64() - 108.0).abs() < 0.001);
    }

    #[test]
    fn deterministic_traverse_equals_mean() {
        let mut net = NetworkModel::paper_default().deterministic();
        let mut rng = Pcg64::new(5);
        let p = probe();
        let d = net.traverse(SimTime::from_ns(100), &p, &mut rng);
        assert_eq!(d, net.network_mean(&p));
    }
}
