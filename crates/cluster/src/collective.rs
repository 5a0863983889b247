//! Flow-level collectives over [`ClusterFabric`]: the shared
//! [`bband_fabric::schedule`] (dissemination barrier, binomial bcast,
//! folded recursive-doubling allreduce — the schedules `bband-mpi` runs
//! packet by packet — plus a bandwidth-optimal ring allreduce), driven as
//! synchronous communication rounds across hundreds to thousands of
//! simulated ranks. One schedule step is one round.
//!
//! Where `bband-mpi` runs a handful of ranks through the full per-packet
//! NIC/transport pipeline, this driver models each rank as an endpoint
//! clock plus per-message overheads and lets the fabric's per-port model
//! resolve contention, credits, and ECN. Rounds are synchronous: a rank
//! enters round `r+1` once its round-`r` send has left the NIC and its
//! round-`r` receive has been delivered — the standard flow-level
//! approximation (LogGP-style) for collective scaling studies.
//!
//! Determinism: within a round, sends are issued in ascending
//! `(depart, src, dst)` order, so a fabric walk's arbitration outcome is
//! a pure function of the schedule. Pooled and serial sweeps are
//! byte-identical.

use crate::flow::{ClusterFabric, Delivery, ResolvedHop, MAX_ROUTE_HOPS};
use bband_fabric::{segmented_wire_bytes, Schedule};
use bband_metrics as metrics;
use bband_sim::{SimDuration, SimTime};
use bband_trace as trace;
use std::cell::RefCell;

/// Collective operation to run at flow level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowCollective {
    /// Dissemination barrier: `ceil(log2 n)` rounds of 8-byte tokens.
    Barrier,
    /// Binomial-tree broadcast from rank 0 of a `bytes`-sized payload.
    Bcast { bytes: u32 },
    /// Recursive-doubling allreduce with the MPICH non-power-of-two
    /// fold.
    AllreduceRd { bytes: u32 },
    /// Ring allreduce: `2(n-1)` steps of `bytes/n` chunks — the
    /// bandwidth-optimal schedule large-message collectives use.
    AllreduceRing { bytes: u32 },
}

impl FlowCollective {
    pub fn name(&self) -> &'static str {
        match self {
            FlowCollective::Barrier => "barrier",
            FlowCollective::Bcast { .. } => "bcast",
            FlowCollective::AllreduceRd { .. } => "allreduce-rd",
            FlowCollective::AllreduceRing { .. } => "allreduce-ring",
        }
    }
}

/// Per-message endpoint costs: the host-side work bracketing each fabric
/// traversal, approximating the paper's LLP post/poll path.
#[derive(Debug, Clone, Copy)]
pub struct EndpointCosts {
    /// Descriptor build + doorbell before the NIC serializes (§4's
    /// `LLP_post` ballpark).
    pub send_overhead: SimDuration,
    /// Completion detection + buffer handoff after delivery.
    pub recv_overhead: SimDuration,
}

impl EndpointCosts {
    /// Calibrated to the paper's host-side figures: 175.42 ns post,
    /// ~100 ns poll-to-return.
    pub fn paper_default() -> Self {
        EndpointCosts {
            send_overhead: SimDuration::from_ns_f64(175.42),
            recv_overhead: SimDuration::from_ns_f64(100.0),
        }
    }
}

/// One directed transfer within a round.
#[derive(Debug, Clone, Copy)]
struct Xfer {
    src: u32,
    dst: u32,
    bytes: u32,
}

/// Result of one flow-level collective run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowReport {
    /// Virtual time from start until the last rank finishes.
    pub completion: SimDuration,
    /// Synchronous rounds executed.
    pub rounds: u32,
    /// Point-to-point messages carried by the fabric.
    pub messages: u64,
    /// Bytes (wire bytes, headers included) that crossed the topology's
    /// bisection — the numerator of achieved bisection goodput.
    pub bisection_bytes: u64,
}

/// Which driver loop runs a collective. Both give identical reports,
/// fabric state, counters and metrics; the fast path skips the fabric
/// walks whose outcome is already certain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectivePath {
    /// Isolated-pair replay on round-invariant schedules (the default).
    Fast,
    /// Walk every message: the `repro --reference` escape hatch and the
    /// equivalence tests' baseline.
    Reference,
}

/// Ranks `0..n` run `coll` on the fast path; returns the completion
/// report. The fabric's transient state is reset first so repeated runs
/// are independent.
pub fn run_flow_collective(
    fab: &mut ClusterFabric,
    n: u32,
    coll: FlowCollective,
    costs: EndpointCosts,
) -> FlowReport {
    run_flow_collective_on(CollectivePath::Fast, fab, n, coll, costs)
}

/// [`run_flow_collective`] on an explicit driver path.
///
/// **Isolated-pair replay.** A round-invariant schedule (the ring: every
/// round sends the same `(src, dst, chunk)` set) walks each pair's fixed
/// route once per round. A pair is *isolated* when no other pair's route
/// uses any of its egress ports or input buffers; its walks then interact
/// only with its own earlier walks. A message of an isolated pair is
/// *certified* when its walk is certain to be clean: the pair's previous
/// message was clean and has left every egress, and the pair's
/// reservations still live on the route's input buffers (those departed
/// less than the route's clearance earlier) leave room for one more
/// below the credit and ECN limits. A certified message delivers after
/// the pair's clean latency and is not walked. The pair's last few
/// certified messages stay unwalked and are walked for real when the pair
/// next fails certification, and at the end of the run; those walks are
/// clean and leave exactly the port state the full loop leaves. Skipped
/// walks' samples are added in bulk at the end.
///
/// Every run takes the full loop (every message walked, in global
/// `(depart, src, dst)` order) on [`CollectivePath::Reference`], with
/// telemetry on, inside a trace collector or a windowed metrics scope,
/// and on schedules that change from round to round.
pub fn run_flow_collective_on(
    path: CollectivePath,
    fab: &mut ClusterFabric,
    n: u32,
    coll: FlowCollective,
    costs: EndpointCosts,
) -> FlowReport {
    assert!(n >= 2, "collectives need at least two ranks");
    assert!(n <= fab.graph.hosts, "topology too small for {n} ranks");
    fab.reset_transients();
    SCRATCH.with(|s| s.borrow_mut().run(path, fab, n, coll, costs))
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The driver's buffers, kept per thread so repeated runs reuse them.
#[derive(Default)]
struct Scratch {
    clock: Vec<SimTime>,
    /// The current round's transfers (built once on round-invariant
    /// schedules).
    xfers: Vec<Xfer>,
    /// This round's messages still to walk: departure, transfer, index
    /// into `xfers`.
    pending: Vec<(SimTime, Xfer, u32)>,
    recv_at: Vec<SimTime>,
    sent_by: Vec<SimTime>,
    replay: PairReplay,
}

impl Scratch {
    fn run(
        &mut self,
        path: CollectivePath,
        fab: &mut ClusterFabric,
        n: u32,
        coll: FlowCollective,
        costs: EndpointCosts,
    ) -> FlowReport {
        let Scratch {
            clock,
            xfers,
            pending,
            recv_at,
            sent_by,
            replay,
        } = self;
        for v in [&mut *clock, &mut *recv_at, &mut *sent_by] {
            v.clear();
            v.resize(n as usize, SimTime::ZERO);
        }
        let schedule = coll.schedule();
        let bytes = coll.message_bytes(n);
        let invariant = coll.round_invariant();
        let replaying = path == CollectivePath::Fast
            && invariant
            && fab.telemetry().is_none()
            && !trace::enabled()
            && !metrics::windowed();
        if invariant {
            round_schedule_into(n, schedule, bytes, 0, xfers);
        }
        if replaying {
            replay.prepare(fab, xfers);
        }

        let rounds = schedule.steps(n);
        let mut messages = 0u64;
        let mut bisection_bytes = 0u64;
        let half = n / 2;
        let crosses = |x: Xfer| (x.src < half) != (x.dst < half);
        for r in 0..rounds {
            if !invariant {
                round_schedule_into(n, schedule, bytes, r, xfers);
            }
            debug_assert!(!xfers.is_empty(), "round {r} of {} is empty", coll.name());
            recv_at.fill(SimTime::ZERO);
            sent_by.fill(SimTime::ZERO);
            pending.clear();
            // Inject in rank order; certified messages settle at once,
            // the rest walk the fabric in global departure order — the
            // deterministic arbitration order.
            for (i, &x) in xfers.iter().enumerate() {
                let ready = clock[x.src as usize] + costs.send_overhead;
                let depart = fab.inject(x.src, ready, x.bytes);
                if replaying {
                    if let Some((deliver_at, wire_bytes)) = replay.certify(fab, i, depart) {
                        messages += 1;
                        if crosses(x) {
                            bisection_bytes += wire_bytes;
                        }
                        settle(
                            sent_by,
                            recv_at,
                            x,
                            depart,
                            deliver_at + costs.recv_overhead,
                        );
                        continue;
                    }
                }
                pending.push((depart, x, i as u32));
            }
            // Each rank sends at most once per step, so the keys are
            // unique and an unstable (allocation-free) sort is exact.
            pending.sort_unstable_by_key(|&(depart, x, _)| (depart, x.src, x.dst));
            for &(depart, x, i) in pending.iter() {
                let d = if replaying {
                    replay.walk(fab, i as usize, depart)
                } else {
                    fab.send(depart, x.src, x.dst, x.bytes)
                };
                messages += 1;
                if crosses(x) {
                    bisection_bytes += d.wire_bytes;
                }
                if d.ecn_marked {
                    fab.apply_ecn_backoff(x.src);
                }
                settle(
                    sent_by,
                    recv_at,
                    x,
                    depart,
                    d.deliver_at + costs.recv_overhead,
                );
            }
            for ((c, &sent), &recv) in clock.iter_mut().zip(sent_by.iter()).zip(recv_at.iter()) {
                *c = c.max_of(sent).max_of(recv);
            }
        }
        if replaying {
            replay.finish(fab);
        }

        let completion = clock
            .iter()
            .fold(SimTime::ZERO, |acc, &t| acc.max_of(t))
            .since(SimTime::ZERO);
        FlowReport {
            completion,
            rounds,
            messages,
            bisection_bytes,
        }
    }
}

/// Book one message: its sender is busy until it departs, its receiver
/// until it is delivered and handed off at `done`.
#[inline]
fn settle(
    sent_by: &mut [SimTime],
    recv_at: &mut [SimTime],
    x: Xfer,
    depart: SimTime,
    done: SimTime,
) {
    sent_by[x.src as usize] = sent_by[x.src as usize].max_of(depart);
    recv_at[x.dst as usize] = recv_at[x.dst as usize].max_of(done);
}

/// Per-pair replay state of a round-invariant schedule, indexed like
/// the schedule.
#[derive(Default)]
struct PairReplay {
    pairs: Vec<Pair>,
    /// Every pair's resolved route, back to back.
    hops: Vec<ResolvedHop>,
    /// Routes using each global port as egress / as input buffer
    /// (saturating: only "exactly one" matters).
    egress_uses: Vec<u8>,
    buffer_uses: Vec<u8>,
    /// Messages certified this run (walked later or never).
    certified: u64,
}

/// Departures of a pair's latest clean messages the replay tracks (a
/// power of two: `recent` is a ring).
const WINDOW: usize = 4;

struct Pair {
    first_hop: u32,
    hop_count: u32,
    bytes: u32,
    /// Isolated, with a clean walk possible: the only pairs certified.
    replayable: bool,
    /// Departure gap after which a clean message's reservations have
    /// expired (`ClusterFabric::clearance`).
    clearance: SimDuration,
    /// Egress serialization: the least gap after a clean message at which
    /// every egress on the route is idle again.
    egress_gap: SimDuration,
    /// Live reservations an input buffer on the route holds before the
    /// next walk would wait for credit or be ECN-marked.
    room: u32,
    /// Latency of the pair's clean walk.
    latency: SimDuration,
    wire_bytes: u64,
    /// Ring of the departures of the pair's trailing run of clean
    /// messages (walked or certified), oldest at `head`; the newest is
    /// the pair's last message.
    recent: [SimTime; WINDOW],
    head: u8,
    len: u8,
    /// The newest `unwalked` entries of `recent` are certified messages
    /// not walked yet.
    unwalked: u8,
    /// Some earlier message of the pair is not in `recent`; its
    /// reservations are known to have expired only once the oldest in
    /// `recent` has (reservations free in departure order).
    untracked: bool,
    /// Certified messages dropped from `recent` without a walk.
    skipped: u64,
}

impl Pair {
    fn route<'a>(&self, hops: &'a [ResolvedHop]) -> &'a [ResolvedHop] {
        &hops[self.first_hop as usize..(self.first_hop + self.hop_count) as usize]
    }

    /// The `k`-th newest entry of `recent` (`k < len`).
    #[inline]
    fn newest(&self, k: usize) -> SimTime {
        self.recent[(self.head as usize + self.len as usize - 1 - k) % WINDOW]
    }

    /// Append a clean message's departure, dropping the oldest entry
    /// when the window is full.
    #[inline]
    fn push_clean(&mut self, depart: SimTime) {
        if self.len as usize == WINDOW {
            if self.unwalked as usize == WINDOW {
                self.unwalked -= 1;
                self.skipped += 1;
            }
            self.head = ((self.head as usize + 1) % WINDOW) as u8;
            self.len -= 1;
            self.untracked = true;
        }
        self.recent[(self.head as usize + self.len as usize) % WINDOW] = depart;
        self.len += 1;
    }

    /// Certify the message departing at `depart` and track it as
    /// unwalked, or return false when its walk is not certain to be
    /// clean. It is certain when the pair's last message was clean and
    /// has left every egress (`egress_gap`), every earlier message not
    /// tracked in `recent` has expired, and the reservations still live
    /// on each input buffer leave room for one more.
    #[inline]
    fn certify(&mut self, depart: SimTime) -> bool {
        if !self.replayable || self.len == 0 {
            return false;
        }
        let last = self.newest(0);
        if depart >= last + self.clearance {
            // Every reservation of the pair has expired (they free in
            // departure order), so the unwalked messages are not needed
            // to rebuild the port state: restart the window with the
            // (expired) last message and this one.
            self.skipped += u64::from(self.unwalked);
            self.untracked |= self.len > 1;
            self.recent[0] = last;
            self.recent[1] = depart;
            self.head = 0;
            self.len = 2;
            self.unwalked = 1;
            return true;
        }
        if depart < last + self.egress_gap {
            return false;
        }
        // The live reservations are the newest entries; the newest one
        // is live (checked above).
        let len = self.len as usize;
        let mut live = 1;
        while live < len && depart < self.newest(live) + self.clearance {
            live += 1;
        }
        if live as u32 >= self.room || (live == len && (self.untracked || len == WINDOW)) {
            return false;
        }
        self.push_clean(depart);
        self.unwalked += 1;
        true
    }
}

impl PairReplay {
    /// Resolve every pair's route once and mark the isolated ones.
    fn prepare(&mut self, fab: &mut ClusterFabric, xfers: &[Xfer]) {
        let ports = fab.graph.total_ports as usize;
        for uses in [&mut self.egress_uses, &mut self.buffer_uses] {
            uses.clear();
            uses.resize(ports, 0);
        }
        self.pairs.clear();
        self.hops.clear();
        self.certified = 0;
        let mut buf = [ResolvedHop::default(); MAX_ROUTE_HOPS];
        for x in xfers {
            let len = fab.resolve(x.src, x.dst, &mut buf);
            for hop in &buf[..len] {
                let e = &mut self.egress_uses[hop.egress as usize];
                *e = e.saturating_add(1);
                if let Some(b) = hop.buffer {
                    let b = &mut self.buffer_uses[b as usize];
                    *b = b.saturating_add(1);
                }
            }
            let wire_bytes = segmented_wire_bytes(x.bytes, fab.cfg.mtu);
            self.pairs.push(Pair {
                first_hop: self.hops.len() as u32,
                hop_count: len as u32,
                bytes: x.bytes,
                replayable: false,
                clearance: SimDuration::ZERO,
                egress_gap: fab.cfg.switch_per_byte * wire_bytes,
                room: if len > 1 {
                    fab.reservation_room(x.bytes).min(u32::MAX as u64) as u32
                } else {
                    u32::MAX
                },
                latency: SimDuration::ZERO,
                wire_bytes,
                recent: [SimTime::ZERO; WINDOW],
                head: 0,
                len: 0,
                unwalked: 0,
                untracked: false,
                skipped: 0,
            });
            self.hops.extend_from_slice(&buf[..len]);
        }
        for p in &mut self.pairs {
            let isolated = p.route(&self.hops).iter().all(|h| {
                self.egress_uses[h.egress as usize] == 1
                    && h.buffer.is_none_or(|b| self.buffer_uses[b as usize] == 1)
            });
            if let Some(w) = fab.clearance(p.bytes, p.hop_count).filter(|_| isolated) {
                p.replayable = true;
                p.clearance = w;
            }
        }
    }

    /// Certify pair `i`'s message departing at `depart`: its delivery
    /// instant and wire bytes, or `None` when it must be walked. A pair
    /// that fails certification has its unwalked messages walked first.
    #[inline]
    fn certify(
        &mut self,
        fab: &mut ClusterFabric,
        i: usize,
        depart: SimTime,
    ) -> Option<(SimTime, u64)> {
        let p = &mut self.pairs[i];
        if !p.certify(depart) {
            if p.unwalked > 0 {
                self.walk_unwalked(fab, i);
            }
            return None;
        }
        self.certified += 1;
        Some((depart + p.latency, p.wire_bytes))
    }

    /// Walk pair `i`'s message for real.
    fn walk(&mut self, fab: &mut ClusterFabric, i: usize, depart: SimTime) -> Delivery {
        let p = &mut self.pairs[i];
        let d = fab.walk(depart, p.bytes, p.route(&self.hops));
        if p.replayable {
            debug_assert_eq!(p.unwalked, 0, "certified messages left unwalked");
            if d.queued.is_zero() && d.credit_waited.is_zero() && !d.ecn_marked {
                p.latency = d.deliver_at.since(depart);
                p.push_clean(depart);
            } else {
                p.len = 0;
                p.untracked = true;
            }
        }
        d
    }

    /// Walk pair `i`'s certified messages not walked yet, oldest first.
    /// Their ports are the pair's own and hold a subset of the
    /// reservations the full loop would hold, so each walk is clean and
    /// lands where it was certified to; the last one leaves the ports
    /// exactly as the full loop leaves them.
    fn walk_unwalked(&mut self, fab: &mut ClusterFabric, i: usize) {
        let p = &mut self.pairs[i];
        let route = p.route(&self.hops);
        for k in (0..p.unwalked as usize).rev() {
            let depart = p.newest(k);
            let d = fab.walk(depart, p.bytes, route);
            assert_eq!(
                d.deliver_at,
                depart + p.latency,
                "certified message walked unclean: {d:?}"
            );
            debug_assert!(d.queued.is_zero() && d.credit_waited.is_zero() && !d.ecn_marked);
        }
        p.unwalked = 0;
    }

    /// End of run: walk every unwalked message and add the skipped
    /// walks' counts and samples.
    fn finish(&mut self, fab: &mut ClusterFabric) {
        for i in 0..self.pairs.len() {
            self.walk_unwalked(fab, i);
            let p = &self.pairs[i];
            if p.skipped > 0 {
                fab.account_clean_walks(p.bytes, p.hop_count, p.latency, p.skipped);
            }
        }
    }
}

impl FlowCollective {
    /// Whether every round sends the same transfer set (only the ring).
    fn round_invariant(&self) -> bool {
        matches!(self, FlowCollective::AllreduceRing { .. })
    }

    /// The communication schedule this collective runs.
    fn schedule(&self) -> Schedule {
        match self {
            FlowCollective::Barrier => Schedule::Dissemination,
            FlowCollective::Bcast { .. } => Schedule::Binomial { root: 0 },
            FlowCollective::AllreduceRd { .. } => Schedule::RecursiveDoubling,
            FlowCollective::AllreduceRing { .. } => Schedule::Ring,
        }
    }

    /// Bytes each message of the collective carries on `n` ranks: 8-byte
    /// barrier tokens, the whole payload, or one ring chunk.
    fn message_bytes(&self, n: u32) -> u32 {
        match *self {
            FlowCollective::Barrier => 8,
            FlowCollective::Bcast { bytes } | FlowCollective::AllreduceRd { bytes } => bytes,
            FlowCollective::AllreduceRing { bytes } => {
                (bytes as u64).div_ceil(n as u64).max(1) as u32
            }
        }
    }
}

/// Fill `out` with the transfers of step `r` of `schedule` on `n` ranks,
/// in rank order.
fn round_schedule_into(n: u32, schedule: Schedule, bytes: u32, r: u32, out: &mut Vec<Xfer>) {
    out.clear();
    out.extend((0..n).filter_map(|src| {
        let dst = schedule.step(n, src, r).send_to?;
        Some(Xfer { src, dst, bytes })
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowConfig, Forwarding};
    use crate::topo::FabricGraph;

    fn fab(hosts_pow: u32) -> ClusterFabric {
        ClusterFabric::paper_default(FabricGraph::fat_tree(4, hosts_pow))
    }

    #[test]
    fn barrier_round_count_is_ceil_log2() {
        let costs = EndpointCosts::paper_default();
        for n in [2u32, 3, 5, 8, 13, 16] {
            let mut f = fab(2);
            let rep = run_flow_collective(&mut f, n, FlowCollective::Barrier, costs);
            assert_eq!(rep.rounds, n.next_power_of_two().trailing_zeros());
            assert_eq!(rep.messages, rep.rounds as u64 * n as u64);
            assert!(rep.completion > SimDuration::ZERO);
        }
    }

    #[test]
    fn bcast_reaches_everyone_in_log_rounds() {
        let costs = EndpointCosts::paper_default();
        let mut f = fab(2);
        let rep = run_flow_collective(&mut f, 11, FlowCollective::Bcast { bytes: 4096 }, costs);
        assert_eq!(rep.rounds, 4);
        // A binomial tree sends exactly n-1 messages in total.
        assert_eq!(rep.messages, 10);
    }

    #[test]
    fn allreduce_rd_matches_mpi_round_structure() {
        let costs = EndpointCosts::paper_default();
        // Power of two: log2(n) rounds, n messages per round.
        let mut f = fab(2);
        let rep = run_flow_collective(&mut f, 8, FlowCollective::AllreduceRd { bytes: 64 }, costs);
        assert_eq!(rep.rounds, 3);
        assert_eq!(rep.messages, 24);
        // Non-power-of-two: pre + core + post.
        let rep6 = run_flow_collective(&mut f, 6, FlowCollective::AllreduceRd { bytes: 64 }, costs);
        assert_eq!(rep6.rounds, 1 + 2 + 1);
        // Folded schedule costs more than its power-of-two core.
        let rep4 = run_flow_collective(&mut f, 4, FlowCollective::AllreduceRd { bytes: 64 }, costs);
        assert!(rep6.completion > rep4.completion);
    }

    #[test]
    fn ring_allreduce_runs_2n_minus_2_rounds() {
        let costs = EndpointCosts::paper_default();
        let mut f = fab(2);
        let rep = run_flow_collective(
            &mut f,
            10,
            FlowCollective::AllreduceRing { bytes: 1 << 20 },
            costs,
        );
        assert_eq!(rep.rounds, 18);
        assert_eq!(rep.messages, 180);
        assert!(rep.bisection_bytes > 0);
    }

    #[test]
    fn ring_beats_recursive_doubling_for_large_payloads() {
        let costs = EndpointCosts::paper_default();
        let mut f = fab(2);
        let n = 16;
        let bytes = 1 << 20; // 1 MiB
        let rd = run_flow_collective(&mut f, n, FlowCollective::AllreduceRd { bytes }, costs);
        let ring = run_flow_collective(&mut f, n, FlowCollective::AllreduceRing { bytes }, costs);
        assert!(
            ring.completion < rd.completion,
            "ring {:?} vs rd {:?}",
            ring.completion,
            rd.completion
        );
        // And the reverse for latency-bound tiny payloads.
        let rd8 = run_flow_collective(&mut f, n, FlowCollective::AllreduceRd { bytes: 8 }, costs);
        let ring8 =
            run_flow_collective(&mut f, n, FlowCollective::AllreduceRing { bytes: 8 }, costs);
        assert!(rd8.completion < ring8.completion);
    }

    /// The fast path must actually fire: on the 512-rank fat tree every
    /// ring pair is isolated, so all but each pair's first message and
    /// its trailing unwalked window are certified. Guards against a
    /// replay that silently never certifies (it would still be exact).
    #[test]
    fn ring_on_a_quiet_fat_tree_certifies_nearly_every_message() {
        let costs = EndpointCosts::paper_default();
        let mut f = ClusterFabric::paper_default(crate::fat_tree_for(512));
        let coll = FlowCollective::AllreduceRing { bytes: 4096 };
        let fast = run_flow_collective(&mut f, 512, coll, costs);
        let certified = SCRATCH.with(|s| s.borrow().replay.certified);
        assert!(
            certified * 10 >= fast.messages * 9,
            "{certified} of {} certified",
            fast.messages
        );
        let fast_counters = f.counters;
        let reference = run_flow_collective_on(CollectivePath::Reference, &mut f, 512, coll, costs);
        assert_eq!(fast, reference);
        assert_eq!(fast_counters, f.counters);
    }

    /// Drive one pair's replay directly with arbitrary departure gaps
    /// — including gaps inside the clearance and below the egress
    /// serialization — against a fabric that walks every message.
    fn replay_one_pair(cfg: FlowConfig, graph: FabricGraph, x: Xfer, gaps: &[u64]) {
        let mut reference = ClusterFabric::new(graph, cfg);
        let mut fast = reference.clean_clone();
        let mut replay = PairReplay::default();
        replay.prepare(&mut fast, &[x]);
        let mut depart = SimTime::ZERO;
        let (expected, want) = metrics::collect(|| {
            let mut t = SimTime::ZERO;
            gaps.iter()
                .map(|&gap| {
                    t += SimDuration::from_ps(gap);
                    reference.send(t, x.src, x.dst, x.bytes).deliver_at
                })
                .collect::<Vec<_>>()
        });
        let (got, have) = metrics::collect(|| {
            let got: Vec<SimTime> = gaps
                .iter()
                .map(|&gap| {
                    depart += SimDuration::from_ps(gap);
                    match replay.certify(&mut fast, 0, depart) {
                        Some((at, _)) => at,
                        None => replay.walk(&mut fast, 0, depart).deliver_at,
                    }
                })
                .collect();
            replay.finish(&mut fast);
            got
        });
        assert_eq!(got, expected, "{x:?} gaps {gaps:?}");
        assert_eq!(fast.counters, reference.counters);
        assert_eq!(
            metrics::MetricsSet::from_task(have),
            metrics::MetricsSet::from_task(want)
        );
        for g in 0..fast.graph.total_ports as usize {
            assert_eq!(
                fast.egress_occupancy(g, SimTime::ZERO),
                reference.egress_occupancy(g, SimTime::ZERO)
            );
            assert_eq!(
                fast.input_buffer_occupancy(g),
                reference.input_buffer_occupancy(g)
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        #[test]
        fn pair_replay_matches_walking_every_message(
            radix in 2u32..5,
            levels in 1u32..4,
            ends in 0u32..u32::MAX,
            octave in 0u32..14,
            buffer_draw in 0u32..6,
            ecn_draw in 0u32..8,
            store_and_forward in 0u32..2,
            gap_scale in 0u32..4,
            gap_draws in proptest::collection::vec(0u32..u32::MAX, 4..64),
        ) {
            let graph = FabricGraph::fat_tree(radix, levels);
            let src = ends % graph.hosts;
            let dst = (src + 1 + (ends / graph.hosts) % (graph.hosts - 1)) % graph.hosts;
            let bytes = 8u32 << octave;
            let mut cfg = FlowConfig::paper_default();
            let seg = segmented_wire_bytes(bytes, cfg.mtu);
            // From no room at all to room for a handful of reservations.
            cfg.input_buffer_bytes = match buffer_draw {
                0 => 64 << 10,
                k => seg * u64::from(k) + u64::from(ends % 7),
            };
            cfg.ecn_threshold = 0.4 + 0.1 * f64::from(ecn_draw);
            if store_and_forward == 1 {
                cfg.forwarding = Forwarding::StoreAndForward;
            }
            // Gaps around the clearance: at scale 0 mostly below the
            // egress serialization, at 3 mostly past every port.
            let ser = (cfg.switch_per_byte * seg).as_ps();
            let clearance = 2 * ser + 316_000;
            let span = (clearance >> (3 - gap_scale)) + ser;
            let gaps: Vec<u64> = gap_draws.iter().map(|&g| u64::from(g) % span).collect();
            replay_one_pair(cfg, graph, Xfer { src, dst, bytes }, &gaps);
        }
    }

    #[test]
    fn repeated_runs_are_identical() {
        let costs = EndpointCosts::paper_default();
        let mut f = fab(2);
        let a = run_flow_collective(
            &mut f,
            16,
            FlowCollective::AllreduceRd { bytes: 4096 },
            costs,
        );
        let b = run_flow_collective(
            &mut f,
            16,
            FlowCollective::AllreduceRd { bytes: 4096 },
            costs,
        );
        assert_eq!(a, b, "reset_transients makes runs independent");
    }
}
