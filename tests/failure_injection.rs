//! Failure injection: the reliability machinery of both layers (PCIe
//! data-link replay, IB transport go-back-N) recovering from injected
//! corruption and loss — behaviour the calibrated fast path never needs,
//! but a production system must have.

use breaking_band::fabric::{
    LossyFabric, NodeId, Packet, PacketId, PacketKind, Psn, RcReceiver, RcSender, RcVerdict,
};
use breaking_band::models::calibration::Calibration;
use breaking_band::models::fault::{run_e2e_under_faults_on, EnginePath, FaultPlan};
use breaking_band::models::latency::SizedLatencyModel;
use breaking_band::pcie::{DllReceiver, LossyLink, ReplayBuffer, RxVerdict, Tlp, TlpIdGen};
use breaking_band::sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Drive `total` packets through a dropping fabric with timeout-based
/// go-back-N; returns (delivered ids in order, retransmissions).
fn run_lossy_transport(drop_p: f64, seed: u64, total: u64) -> (Vec<u64>, u64) {
    let mut tx = RcSender::new(SimDuration::from_us(2));
    let mut rx = RcReceiver::new();
    let mut fabric = LossyFabric::new(drop_p, seed);
    let mut now = SimTime::ZERO;
    let step = SimDuration::from_ns(300);
    let mut delivered = Vec::new();
    // In-flight FIFO of (psn, packet) surviving the drop filter.
    let mut wire: VecDeque<(Psn, Packet)> = VecDeque::new();
    let mut sent = 0u64;
    let mut guard = 0u64;
    while delivered.len() < total as usize {
        guard += 1;
        assert!(guard < 200_000, "recovery loop diverged");
        now += step;
        // Send new packets while the window has room.
        while sent < total && tx.pending() < 8 {
            let pkt = Packet::message(PacketId(sent), PacketKind::Send, NodeId(0), NodeId(1), 8);
            let psn = tx.send(pkt, now);
            if !fabric.drops(&pkt) {
                wire.push_back((psn, pkt));
            }
            sent += 1;
        }
        // Deliver one in-flight packet.
        if let Some((psn, pkt)) = wire.pop_front() {
            match rx.on_packet(psn) {
                RcVerdict::Deliver { ack } => {
                    delivered.push(pkt.id.0);
                    tx.on_ack(ack);
                }
                RcVerdict::Nak { expected } => {
                    wire.clear(); // everything behind the gap is stale
                    for (p, k) in tx.on_nak(expected, now) {
                        if !fabric.drops(&k) {
                            wire.push_back((p, k));
                        }
                    }
                }
                RcVerdict::DuplicateAck { ack } => tx.on_ack(ack),
            }
        } else {
            // Nothing in flight: let the retransmission timer recover.
            for (p, k) in tx.on_timer(now) {
                if !fabric.drops(&k) {
                    wire.push_back((p, k));
                }
            }
        }
    }
    (delivered, tx.retransmissions)
}

#[test]
fn transport_recovers_from_heavy_loss() {
    let (delivered, retx) = run_lossy_transport(0.25, 7, 300);
    assert_eq!(delivered.len(), 300);
    assert!(
        delivered.windows(2).all(|w| w[1] == w[0] + 1),
        "RC transport must deliver exactly once, in order"
    );
    assert!(retx > 0, "loss must have forced retransmissions");
}

#[test]
fn transport_is_zero_cost_without_loss() {
    let (delivered, retx) = run_lossy_transport(0.0, 8, 300);
    assert_eq!(delivered.len(), 300);
    assert_eq!(retx, 0, "no loss, no retransmissions");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any loss rate up to 40%: eventual in-order exactly-once delivery.
    #[test]
    fn transport_recovery_any_loss_rate(
        drop_milli in 0u32..400,
        seed in 0u64..10_000,
    ) {
        let (delivered, _) = run_lossy_transport(drop_milli as f64 / 1000.0, seed, 120);
        prop_assert_eq!(delivered.len(), 120);
        prop_assert!(delivered.windows(2).all(|w| w[1] == w[0] + 1));
    }

    /// The data-link replay layer: corruption at any rate up to 30% still
    /// yields exactly-once in-order delivery.
    #[test]
    fn dll_replay_any_corruption_rate(
        corr_milli in 0u32..300,
        seed in 0u64..10_000,
    ) {
        let mut gen = TlpIdGen::new();
        let mut buf = ReplayBuffer::new(32);
        let mut rx = DllReceiver::new();
        let mut link = LossyLink::new(corr_milli as f64 / 1000.0, seed);
        let total = 200usize;
        let mut wire: VecDeque<(breaking_band::pcie::SeqNum, Tlp)> = VecDeque::new();
        let mut delivered: Vec<u64> = Vec::new();
        let mut sent = 0usize;
        let mut guard = 0u64;
        while delivered.len() < total {
            guard += 1;
            prop_assert!(guard < 100_000, "dll recovery diverged");
            while sent < total && buf.pending() < 16 {
                let t = Tlp::pio_chunk(gen.next());
                let seq = buf.send(t).expect("room checked");
                wire.push_back((seq, t));
                sent += 1;
            }
            let Some((seq, t)) = wire.pop_front() else {
                let expected = delivered.len() as u16 % breaking_band::pcie::replay::SEQ_MOD;
                for item in buf.nack(breaking_band::pcie::SeqNum(expected)) {
                    wire.push_back(item);
                }
                continue;
            };
            match rx.receive(seq, link.corrupts()) {
                RxVerdict::Accept { ack_up_to } => {
                    delivered.push(t.id.0);
                    buf.ack(ack_up_to);
                }
                RxVerdict::Nack { expected } => {
                    wire.clear();
                    for item in buf.nack(expected) {
                        wire.push_back(item);
                    }
                }
                RxVerdict::Duplicate { ack_up_to } => buf.ack(ack_up_to),
            }
        }
        prop_assert!(delivered.windows(2).all(|w| w[0] < w[1]));
    }

    /// The fault engine's fast path equals its reference event loop over
    /// random payload axes: cycles of eager and rendezvous sizes with
    /// repeats (or a single size), min-cost or threshold selection, with
    /// and without loss, and runs shorter than the cycle. The engine's
    /// per-size set-up and its one RC-to-MEM cursor for the message in
    /// flight must hold on every one; debug builds also check that one
    /// message's segments never land interleaved with another's.
    #[test]
    fn fault_engine_paths_agree_over_random_payload_axes(
        cycle in proptest::collection::vec(0usize..5, 0..7),
        single in 0usize..5,
        threshold_sel in any::<bool>(),
        threshold_log2 in 0u32..22,
        lossy in any::<bool>(),
        messages in 1u64..41,
        seed in any::<u64>(),
    ) {
        const SIZES: [u32; 5] = [8, 256, 4096, 65_536, 1 << 20];
        let mut plan = FaultPlan::none();
        plan.payload_bytes = SIZES[single];
        plan.payload_cycle = cycle.iter().map(|&i| SIZES[i]).collect();
        plan.rndv_threshold = threshold_sel.then_some(1 << threshold_log2);
        plan.loss_probability = if lossy { 1e-2 } else { 0.0 };
        let c = Calibration::default();
        let fast = run_e2e_under_faults_on(EnginePath::Fast, &c, &plan, messages, seed);
        let reference = run_e2e_under_faults_on(EnginePath::Reference, &c, &plan, messages, seed);
        prop_assert_eq!(&fast, &reference, "{:?}, {} messages, seed {}", plan, messages, seed);
        if !lossy {
            // Fault-free, every message takes its own size's model lifetime.
            let sized = SizedLatencyModel::from_calibration(&c);
            let totals: Vec<f64> = (0..messages)
                .map(|m| sized.total(plan.payload_for(m), plan.rndv_threshold).as_ns_f64())
                .collect();
            let stats = fast.expect("a fault-free run completes");
            prop_assert_eq!(stats.min_ns, totals.iter().copied().fold(f64::INFINITY, f64::min));
            prop_assert_eq!(stats.max_ns, totals.iter().copied().fold(0.0, f64::max));
        }
    }
}
