//! The rank-scaling sweep: collectives across 128–4096 simulated ranks
//! on fat-tree and dragonfly fabrics, fanned out over [`WorkerPool`].
//!
//! Each (topology, rank-count) cell is an independent task: it builds a
//! fresh fabric, runs the four collectives under a metrics collector,
//! and reduces to a [`RankPoint`]. Tasks share nothing, so pooled and
//! serial sweeps are byte-identical — the same guarantee every other
//! `repro` surface ships, enforced by CI's byte-diff.

use crate::collective::{run_flow_collective_on, CollectivePath, EndpointCosts, FlowCollective};
use crate::flow::ClusterFabric;
use crate::telemetry::{TelemetryConfig, TelemetryReport};
use crate::topo::{FabricGraph, TopologyKind};
use bband_metrics as metrics;
use bband_sim::{SimDuration, WorkerPool};

/// One cell of the rank-scaling grid.
#[derive(Debug, Clone, PartialEq)]
pub struct RankPoint {
    /// `"fat-tree"` or `"dragonfly"`.
    pub topology: &'static str,
    /// Topology parameters, e.g. `"k=4,n=5"` or `"a=8,p=4,h=4,g=33"`.
    pub params: String,
    pub ranks: u32,
    /// Collective name (`barrier`, `bcast`, `allreduce-rd`, ...).
    pub collective: &'static str,
    pub rounds: u32,
    pub messages: u64,
    /// Completion time of the collective, ns.
    pub completion_ns: f64,
    /// Per-message fabric latency quantiles, ns.
    pub msg_p50_ns: f64,
    pub msg_p99_ns: f64,
    /// Congestion counters from the fabric walk.
    pub contended: u64,
    pub credit_waits: u64,
    pub ecn_marks: u64,
    /// Wire bytes that crossed the bisection, and the goodput they imply.
    pub bisection_bytes: u64,
    pub achieved_gbps: f64,
    /// Bisection capacity of the topology at the calibrated link rate.
    pub capacity_gbps: f64,
}

/// The smallest k=4 fat tree with at least `ranks` hosts.
pub fn fat_tree_for(ranks: u32) -> FabricGraph {
    let mut levels = 1;
    while 4u64.pow(levels) < ranks as u64 {
        levels += 1;
    }
    FabricGraph::fat_tree(4, levels)
}

/// The smallest balanced dragonfly (a = 2h, p = h, g = a·h + 1) with at
/// least `ranks` hosts: h=2 → 72 hosts, h=3 → 342, h=4 → 1056, h=5 →
/// 2550, h=6 → 5256.
pub fn dragonfly_for(ranks: u32) -> FabricGraph {
    let mut h = 1u32;
    loop {
        let a = 2 * h;
        let p = h;
        let g = a * h + 1;
        let hosts = (g * a * p) as u64;
        if hosts >= ranks as u64 {
            return FabricGraph::dragonfly(a, p, h);
        }
        h += 1;
    }
}

/// Payload used for the payload-carrying collectives in the sweep.
pub const SWEEP_PAYLOAD_BYTES: u32 = 4096;

const COLLECTIVES: [FlowCollective; 4] = [
    FlowCollective::Barrier,
    FlowCollective::Bcast {
        bytes: SWEEP_PAYLOAD_BYTES,
    },
    FlowCollective::AllreduceRd {
        bytes: SWEEP_PAYLOAD_BYTES,
    },
    FlowCollective::AllreduceRing {
        bytes: SWEEP_PAYLOAD_BYTES,
    },
];

/// Run the full grid: for every rank count, both topologies, all four
/// collectives. Results come back in grid order regardless of pool
/// width.
pub fn sweep_ranks(rank_counts: &[u32], pool: &WorkerPool) -> Vec<RankPoint> {
    sweep_ranks_on(CollectivePath::Fast, rank_counts, pool)
}

/// [`sweep_ranks`] with every collective on an explicit driver path; the
/// points are identical on both paths.
pub fn sweep_ranks_on(
    path: CollectivePath,
    rank_counts: &[u32],
    pool: &WorkerPool,
) -> Vec<RankPoint> {
    let tasks: Vec<(&'static str, u32)> = rank_counts
        .iter()
        .flat_map(|&r| [("fat-tree", r), ("dragonfly", r)])
        .collect();
    let cells = pool.map(tasks, move |_idx, (topo, ranks)| {
        sweep_cell(path, topo, ranks, None)
    });
    cells
        .into_iter()
        .flatten()
        .map(|(point, _)| point)
        .collect()
}

/// One grid cell with its telemetry recording attached.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryPoint {
    pub point: RankPoint,
    pub report: TelemetryReport,
}

/// The same grid as [`sweep_ranks`], with per-port telemetry recording
/// enabled on every cell's fabric. The `RankPoint`s are bit-identical to
/// a plain sweep's (observation never perturbs the simulation — tested),
/// and each cell carries the condensed [`TelemetryReport`] behind
/// `repro sweep-ranks --telemetry`.
pub fn sweep_ranks_telemetry(rank_counts: &[u32], pool: &WorkerPool) -> Vec<TelemetryPoint> {
    let tasks: Vec<(&'static str, u32)> = rank_counts
        .iter()
        .flat_map(|&r| [("fat-tree", r), ("dragonfly", r)])
        .collect();
    let cfg = TelemetryConfig::paper_default();
    let cells = pool.map(tasks, move |_idx, (topo, ranks)| {
        sweep_cell(CollectivePath::Fast, topo, ranks, Some(cfg))
    });
    cells
        .into_iter()
        .flatten()
        .map(|(point, report)| TelemetryPoint {
            point,
            report: report.expect("telemetry was enabled"),
        })
        .collect()
}

/// All four collectives on one (topology, ranks) cell, optionally with
/// telemetry recording (which always walks every message).
fn sweep_cell(
    path: CollectivePath,
    topo: &'static str,
    ranks: u32,
    telemetry: Option<TelemetryConfig>,
) -> Vec<(RankPoint, Option<TelemetryReport>)> {
    let graph = match topo {
        "fat-tree" => fat_tree_for(ranks),
        "dragonfly" => dragonfly_for(ranks),
        other => unreachable!("unknown topology {other}"),
    };
    let params = graph.params();
    let costs = EndpointCosts::paper_default();
    // One fabric per cell, reset between collectives: `reset_transients`
    // yields byte-identical runs (a tested invariant), and reusing the
    // allocation keeps the telemetry arrays' pages warm instead of
    // faulting in fresh ones per collective.
    let mut fab = ClusterFabric::paper_default(graph.clone());
    if let Some(cfg) = telemetry {
        fab.enable_telemetry(cfg);
    }
    COLLECTIVES
        .iter()
        .map(|&coll| {
            fab.reset_transients();
            let capacity_gbps = graph.bisection_links() as f64 * fab.link_rate_gbps();
            let (report, task) =
                metrics::collect(|| run_flow_collective_on(path, &mut fab, ranks, coll, costs));
            let set = metrics::MetricsSet::from_task(task);
            let msg = set.hist("fabric_msg_latency").expect("messages recorded");
            let completion_ns = report.completion.as_ns_f64();
            let achieved_gbps = if completion_ns > 0.0 {
                report.bisection_bytes as f64 * 8.0 / completion_ns
            } else {
                0.0
            };
            let tel_report = fab
                .telemetry()
                .map(|t| t.summarize(&fab.graph, &fab.counters));
            (
                RankPoint {
                    topology: topo,
                    params: params.clone(),
                    ranks,
                    collective: coll.name(),
                    rounds: report.rounds,
                    messages: report.messages,
                    completion_ns,
                    msg_p50_ns: msg.quantile_ns(0.50),
                    msg_p99_ns: msg.quantile_ns(0.99),
                    contended: fab.counters.contended,
                    credit_waits: fab.counters.credit_waits,
                    ecn_marks: fab.counters.ecn_marks,
                    bisection_bytes: report.bisection_bytes,
                    achieved_gbps,
                    capacity_gbps,
                },
                tel_report,
            )
        })
        .collect()
}

/// The 2-node calibration gate: a one-switch fabric walk vs the legacy
/// calibrated [`bband_fabric::NetworkModel`], compared in integer
/// picoseconds across payload sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoNodeCheck {
    pub model_ns: f64,
    pub fabric_ns: f64,
    /// True iff every payload matched bit-for-bit.
    pub exact: bool,
}

/// Compare the flow fabric's 2-host path against the legacy model for a
/// spread of payloads; `model_ns`/`fabric_ns` report the 8-byte probe.
pub fn two_node_equivalence() -> TwoNodeCheck {
    use bband_fabric::{NetworkModel, NodeId, Packet, PacketId, PacketKind};
    let fab = ClusterFabric::paper_default(FabricGraph::fat_tree(2, 1));
    let legacy = NetworkModel::paper_default().deterministic();
    let mut exact = true;
    let mut probe8 = (SimDuration::ZERO, SimDuration::ZERO);
    for payload in [8u32, 512, 4096] {
        let pkt = Packet::message(PacketId(0), PacketKind::Send, NodeId(0), NodeId(1), payload);
        let model = legacy.network_mean(&pkt);
        let fabric = fab.uncontended_latency(0, 1, payload);
        exact &= model == fabric;
        if payload == 8 {
            probe8 = (model, fabric);
        }
    }
    TwoNodeCheck {
        model_ns: probe8.0.as_ns_f64(),
        fabric_ns: probe8.1.as_ns_f64(),
        exact,
    }
}

/// Which topology a point's `topology` string maps to, for reporting.
pub fn kind_of(graph: &FabricGraph) -> &TopologyKind {
    &graph.kind
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_sizing_covers_the_sweep_range() {
        assert_eq!(fat_tree_for(128).hosts, 256); // 4^4
        assert_eq!(fat_tree_for(256).hosts, 256);
        assert_eq!(fat_tree_for(4096).hosts, 4096); // 4^6
        assert_eq!(dragonfly_for(128).hosts, 342); // h=3
        assert_eq!(dragonfly_for(1024).hosts, 1056); // h=4
        assert_eq!(dragonfly_for(4096).hosts, 5256); // h=6
        for r in [128u32, 512, 1024, 2048, 4096] {
            assert!(fat_tree_for(r).hosts >= r);
            assert!(dragonfly_for(r).hosts >= r);
        }
    }

    #[test]
    fn two_node_gate_is_exact() {
        let check = two_node_equivalence();
        assert!(check.exact, "{check:?}");
        assert!((check.model_ns - 382.81).abs() < 1e-9);
        assert_eq!(check.model_ns, check.fabric_ns);
    }

    /// The ISSUE's pooled-vs-serial acceptance test at >= 256 ranks:
    /// a 4-wide pool and a serial pool must produce byte-identical
    /// points (RankPoint derives PartialEq over every field, including
    /// the f64s, so this is exact equality, not approximate).
    #[test]
    fn pooled_sweep_equals_serial_at_256_ranks() {
        let ranks = [64u32, 256];
        let pooled = sweep_ranks(&ranks, &WorkerPool::with_threads(4));
        let serial = sweep_ranks(&ranks, &WorkerPool::with_threads(1));
        assert_eq!(pooled, serial);
        assert_eq!(pooled.len(), ranks.len() * 2 * 4);
    }

    /// Telemetry acceptance: pooled == serial on the telemetry sweep,
    /// telemetry-on RankPoints == plain sweep (observation does not
    /// perturb), and every cell reconciles bit-exactly.
    #[test]
    fn telemetry_sweep_is_deterministic_and_non_perturbing() {
        let ranks = [16u32, 64];
        let pooled = sweep_ranks_telemetry(&ranks, &WorkerPool::with_threads(4));
        let serial = sweep_ranks_telemetry(&ranks, &WorkerPool::with_threads(1));
        assert_eq!(pooled, serial);
        let plain = sweep_ranks(&ranks, &WorkerPool::with_threads(1));
        let tel_points: Vec<RankPoint> = pooled.iter().map(|t| t.point.clone()).collect();
        assert_eq!(tel_points, plain);
        for cell in &pooled {
            assert!(
                cell.report.conservation.exact(),
                "{}/{}ranks/{}: {:?}",
                cell.point.topology,
                cell.point.ranks,
                cell.point.collective,
                cell.report.conservation
            );
            assert_eq!(cell.report.messages, cell.point.messages);
        }
    }

    #[test]
    fn scaling_grows_completion_and_congestion() {
        let pool = WorkerPool::with_threads(1);
        let pts = sweep_ranks(&[16, 256], &pool);
        let pick = |ranks: u32, coll: &str| {
            pts.iter()
                .find(|p| p.ranks == ranks && p.collective == coll && p.topology == "fat-tree")
                .unwrap()
                .clone()
        };
        let small = pick(16, "allreduce-rd");
        let big = pick(256, "allreduce-rd");
        assert!(big.completion_ns > small.completion_ns);
        assert!(big.messages > small.messages);
        assert!(big.contended >= small.contended);
        // Goodput never exceeds the topology's bisection capacity.
        for p in &pts {
            assert!(
                p.achieved_gbps <= p.capacity_gbps * 1.000001,
                "{}/{} {} > {}",
                p.topology,
                p.collective,
                p.achieved_gbps,
                p.capacity_gbps
            );
        }
    }
}

#[cfg(test)]
mod saturation {
    use super::*;

    /// The congestion-knee separation the CI smoke step asserts on the
    /// artifact: on the bisection-scaling collective (recursive-doubling
    /// allreduce), a full-bisection fat tree saturates no link while the
    /// dragonfly knee cell saturates its oversubscribed global links.
    #[test]
    fn saturation_separates_dragonfly_knee_from_fat_tree() {
        let pool = WorkerPool::with_threads(4);
        let cells = sweep_ranks_telemetry(&[64, 256], &pool);
        for c in cells
            .iter()
            .filter(|c| c.point.collective == "allreduce-rd")
        {
            match (c.point.topology, c.point.ranks) {
                ("fat-tree", _) => assert_eq!(
                    c.report.saturated_links, 0,
                    "full-bisection fat tree must not saturate at {} ranks",
                    c.point.ranks
                ),
                ("dragonfly", 256) => {
                    assert!(c.report.saturated_links >= 1, "knee cell: {:?}", c.report);
                    // And the top hotspot is a global link -- the cause
                    // of the knee, not an artifact of ranking.
                    assert_eq!(c.report.hotspots[0].class, "global");
                }
                _ => {}
            }
        }
    }
}
