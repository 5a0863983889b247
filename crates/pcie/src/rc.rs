//! The Root Complex: "the main conductor of the PCIe subsystem" (§2).
//!
//! The RC connects processor and memory to the PCIe fabric. On the critical
//! path it does three things:
//!
//! * turns CPU MMIO writes (doorbell, PIO chunks) into downstream MWr TLPs,
//!   gated by posted-write credits — "the RC can generate transactions only
//!   if it has enough credits. Otherwise, it needs to wait for an UpdateFC
//!   DLLP from the NIC" (§4.2);
//! * answers NIC DMA-reads (MRd) with CplD TLPs after fetching from DRAM;
//! * executes NIC DMA-writes into host memory — the `RC-to-MEM(xB)` term —
//!   and ACKs every received TLP at the data-link layer.
//!
//! The RC itself is hardware logic; the paper ignores its per-transaction
//! generation cost ("in the order of a few cycles") and so do we: actions
//! depart at the instant their trigger fires unless credits stall them.

use crate::credit::FlowControl;
use crate::tlp::{Dllp, Tlp, TlpIdGen, TlpKind};
use bband_memsys::RcToMemModel;
use bband_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Something the RC wants the simulation to schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum RcAction {
    /// A TLP departs downstream (toward the NIC) at `depart`.
    SendTlp { depart: SimTime, tlp: Tlp },
    /// A DLLP departs downstream at `depart`.
    SendDllp { depart: SimTime, dllp: Dllp },
    /// The RC finished writing `tlp`'s payload into host memory at `at`;
    /// the write is now visible to CPU loads (CQ polls, receive buffers).
    MemWriteDone { at: SimTime, tlp: Tlp },
}

/// Root-complex state machine for one node.
#[derive(Debug)]
pub struct RootComplex {
    /// Posted-write credits toward the NIC.
    fc_down: FlowControl,
    /// Receiver-side credit bookkeeping for upstream traffic (drives
    /// UpdateFC DLLPs back to the NIC).
    fc_up_recv: FlowControl,
    /// MMIO writes waiting for credits.
    pending: VecDeque<Tlp>,
    /// Earliest instant the next stalled TLP may depart (set when credits
    /// arrive).
    rc_to_mem: RcToMemModel,
    /// DRAM fetch latency for answering DMA reads.
    mem_read_latency: SimDuration,
    ids: TlpIdGen,
    /// Count of MMIO writes that found credits immediately (diagnostics for
    /// the paper's "single core never exhausts credits" observation).
    pub immediate_issues: u64,
    /// Count of MMIO writes that had to wait for UpdateFC.
    pub stalled_issues: u64,
}

impl RootComplex {
    /// RC with calibrated defaults.
    pub fn new() -> Self {
        RootComplex::with_flow_control(FlowControl::connectx4_default())
    }

    /// RC with a custom credit pool (tests use tiny pools to exercise the
    /// stall path).
    pub fn with_flow_control(fc_down: FlowControl) -> Self {
        RootComplex {
            fc_down,
            fc_up_recv: FlowControl::connectx4_default(),
            pending: VecDeque::new(),
            rc_to_mem: RcToMemModel::default(),
            mem_read_latency: SimDuration::from_ns_f64(90.0),
            ids: TlpIdGen::new(),
            immediate_issues: 0,
            stalled_issues: 0,
        }
    }

    /// Replace the RC-to-memory cost model (what-if experiments).
    pub fn set_rc_to_mem(&mut self, model: RcToMemModel) {
        self.rc_to_mem = model;
    }

    /// Access the RC-to-memory cost model.
    pub fn rc_to_mem(&self) -> &RcToMemModel {
        &self.rc_to_mem
    }

    /// Allocate a TLP id from this node's pool.
    pub fn next_id(&mut self) -> crate::tlp::TlpId {
        self.ids.next()
    }

    /// The CPU performed an MMIO write (doorbell ring or PIO chunk) that
    /// must become a downstream MWr TLP. Appends the departure action to
    /// `out` if credits allow; otherwise the TLP queues until
    /// [`Self::on_update_fc_into`].
    pub fn mmio_write_into(&mut self, now: SimTime, tlp: Tlp, out: &mut Vec<RcAction>) {
        debug_assert_eq!(tlp.kind, TlpKind::MemWrite);
        if self.pending.is_empty() && self.fc_down.consume(&tlp).is_ok() {
            self.immediate_issues += 1;
            out.push(RcAction::SendTlp { depart: now, tlp });
        } else {
            self.stalled_issues += 1;
            self.pending.push_back(tlp);
        }
    }

    /// An UpdateFC DLLP arrived from the NIC: replenish credits and release
    /// as many stalled TLPs as now fit, appending their departures to `out`.
    pub fn on_update_fc_into(
        &mut self,
        now: SimTime,
        hdr: u32,
        data: u32,
        out: &mut Vec<RcAction>,
    ) {
        self.fc_down.replenish(hdr, data);
        while let Some(tlp) = self.pending.front() {
            if self.fc_down.consume(tlp).is_ok() {
                let tlp = self.pending.pop_front().expect("front exists");
                out.push(RcAction::SendTlp { depart: now, tlp });
            } else {
                break;
            }
        }
    }

    /// An upstream TLP (from the NIC) arrived at the RC. Appends the
    /// data-link ACK, credit updates, and the transaction-layer response
    /// to `out`.
    pub fn on_upstream_tlp_into(&mut self, now: SimTime, tlp: Tlp, out: &mut Vec<RcAction>) {
        out.push(RcAction::SendDllp {
            depart: now,
            dllp: Dllp::Ack { up_to: tlp.id },
        });
        if let Some((h, d)) = self.fc_up_recv.drain(&tlp) {
            out.push(RcAction::SendDllp {
                depart: now,
                dllp: Dllp::UpdateFc { hdr: h, data: d },
            });
        }
        match tlp.kind {
            TlpKind::MemWrite => {
                // RC-to-MEM: the payload (or CQE) lands in host memory after
                // the write-pipeline latency.
                let done = now + self.rc_to_mem.cost(tlp.payload as usize);
                out.push(RcAction::MemWriteDone { at: done, tlp });
            }
            TlpKind::MemRead => {
                // Fetch from DRAM, then ship the completion downstream.
                let id = self.ids.next();
                let cpl = Tlp::completion(id, tlp.id, tlp.req_len);
                out.push(RcAction::SendTlp {
                    depart: now + self.mem_read_latency,
                    tlp: cpl,
                });
            }
            TlpKind::CplD => {
                // RC-initiated reads don't occur on this critical path.
                debug_assert!(false, "unexpected CplD at RC");
            }
        }
    }

    /// True if no MMIO write ever waited for credits — the invariant the
    /// paper observes for a single-core injector.
    pub fn never_stalled(&self) -> bool {
        self.stalled_issues == 0
    }
}

impl Default for RootComplex {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlp::TlpId;

    fn mwr(rc: &mut RootComplex) -> Tlp {
        let id = rc.next_id();
        Tlp::pio_chunk(id)
    }

    fn mmio_write(rc: &mut RootComplex, now: SimTime, tlp: Tlp) -> Vec<RcAction> {
        let mut out = Vec::new();
        rc.mmio_write_into(now, tlp, &mut out);
        out
    }

    fn on_update_fc(rc: &mut RootComplex, now: SimTime, hdr: u32, data: u32) -> Vec<RcAction> {
        let mut out = Vec::new();
        rc.on_update_fc_into(now, hdr, data, &mut out);
        out
    }

    fn on_upstream_tlp(rc: &mut RootComplex, now: SimTime, tlp: Tlp) -> Vec<RcAction> {
        let mut out = Vec::new();
        rc.on_upstream_tlp_into(now, tlp, &mut out);
        out
    }

    #[test]
    fn mmio_write_departs_immediately_with_credits() {
        let mut rc = RootComplex::new();
        let t = SimTime::from_ns(100);
        let tlp = mwr(&mut rc);
        let actions = mmio_write(&mut rc, t, tlp);
        assert_eq!(actions, vec![RcAction::SendTlp { depart: t, tlp }]);
        assert!(rc.never_stalled());
    }

    #[test]
    fn exhausted_credits_stall_until_update_fc() {
        // 2 header credits only: the third write must wait.
        let mut rc = RootComplex::with_flow_control(FlowControl::new(2, 64, 1));
        let t = SimTime::from_ns(10);
        let t1 = mwr(&mut rc);
        assert_eq!(mmio_write(&mut rc, t, t1).len(), 1);
        let t2 = mwr(&mut rc);
        assert_eq!(mmio_write(&mut rc, t, t2).len(), 1);
        let stalled = mwr(&mut rc);
        assert!(mmio_write(&mut rc, t, stalled).is_empty());
        assert!(!rc.never_stalled());
        // UpdateFC releases it at the arrival time of the DLLP.
        let t2 = SimTime::from_ns(200);
        let released = on_update_fc(&mut rc, t2, 1, 4);
        assert_eq!(
            released,
            vec![RcAction::SendTlp {
                depart: t2,
                tlp: stalled
            }]
        );
    }

    #[test]
    fn stalled_queue_preserves_order() {
        let mut rc = RootComplex::with_flow_control(FlowControl::new(1, 64, 1));
        let t = SimTime::from_ns(1);
        let first = mwr(&mut rc);
        mmio_write(&mut rc, t, first);
        let a = mwr(&mut rc);
        let b = mwr(&mut rc);
        mmio_write(&mut rc, t, a);
        mmio_write(&mut rc, t, b);
        // hdr_limit is 1, so each UpdateFC releases exactly one stalled TLP,
        // in FIFO order.
        let mut ids: Vec<TlpId> = Vec::new();
        for ns in [50u64, 90] {
            for act in on_update_fc(&mut rc, SimTime::from_ns(ns), 1, 4) {
                match act {
                    RcAction::SendTlp { tlp, .. } => ids.push(tlp.id),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(ids, vec![a.id, b.id]);
    }

    #[test]
    fn upstream_mwr_generates_ack_and_memory_write() {
        let mut rc = RootComplex::new();
        let t = SimTime::from_ns(1000);
        let cqe = Tlp::cqe_write(TlpId(77));
        let actions = on_upstream_tlp(&mut rc, t, cqe);
        assert!(matches!(
            actions[0],
            RcAction::SendDllp {
                dllp: Dllp::Ack { up_to: TlpId(77) },
                ..
            }
        ));
        let done = actions
            .iter()
            .find_map(|a| match a {
                RcAction::MemWriteDone { at, .. } => Some(*at),
                _ => None,
            })
            .expect("memory write scheduled");
        // 64-byte CQE: RC-to-MEM(64B) ≈ 247.68 ns after arrival.
        let delta = done.since(t).as_ns_f64();
        assert!((delta - 247.68).abs() < 0.01, "RC-to-MEM(64B) = {delta}");
    }

    #[test]
    fn upstream_mrd_is_answered_with_cpld() {
        let mut rc = RootComplex::new();
        let t = SimTime::from_ns(500);
        let rd = Tlp::payload_fetch(TlpId(5), 256);
        let actions = on_upstream_tlp(&mut rc, t, rd);
        let (depart, cpl) = actions
            .iter()
            .find_map(|a| match a {
                RcAction::SendTlp { depart, tlp } => Some((*depart, *tlp)),
                _ => None,
            })
            .expect("completion scheduled");
        assert_eq!(cpl.kind, TlpKind::CplD);
        assert_eq!(cpl.answers, Some(TlpId(5)));
        assert_eq!(cpl.payload, 256, "CplD carries the requested bytes");
        assert!(depart > t, "DRAM fetch takes time");
    }

    #[test]
    fn every_upstream_tlp_is_acked() {
        let mut rc = RootComplex::new();
        let t = SimTime::from_ns(1);
        for i in 0..50u64 {
            let tlp = Tlp::payload_deliver(TlpId(i), 8);
            let acks = on_upstream_tlp(&mut rc, t, tlp)
                .into_iter()
                .filter(|a| {
                    matches!(
                        a,
                        RcAction::SendDllp {
                            dllp: Dllp::Ack { .. },
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(acks, 1);
        }
    }

    #[test]
    fn rc_to_mem_8b_matches_table1() {
        let rc = RootComplex::new();
        assert!((rc.rc_to_mem().eight_byte().as_ns_f64() - 240.96).abs() < 0.01);
    }
}
