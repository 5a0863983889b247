//! Fast-vs-reference equivalence of the collective driver: isolated-pair
//! replay (`CollectivePath::Fast`) must leave everything observable
//! exactly as the full loop (`CollectivePath::Reference`) leaves it —
//! the report, the fabric's counters, every port's live state, and the
//! metrics recorded under a plain collector.

use bband_cluster::{
    run_flow_collective_on, ClusterFabric, CollectivePath, EndpointCosts, FabricGraph,
    FlowCollective, FlowConfig, FlowCounters, FlowReport, Forwarding,
};
use bband_metrics::{self as metrics, MetricsSet};
use bband_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// Everything a run leaves behind that the two paths must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: FlowReport,
    counters: FlowCounters,
    metrics: MetricsSet,
    /// Per global port: egress busy horizon past time zero and past the
    /// final clock, and reserved input-buffer bytes.
    ports: Vec<(SimDuration, SimDuration, u64)>,
}

fn run(path: CollectivePath, fab: &mut ClusterFabric, n: u32, coll: FlowCollective) -> Outcome {
    let costs = EndpointCosts::paper_default();
    let (report, task) = metrics::collect(|| run_flow_collective_on(path, fab, n, coll, costs));
    let end = SimTime::ZERO + report.completion;
    let ports = (0..fab.graph.total_ports as usize)
        .map(|g| {
            (
                fab.egress_occupancy(g, SimTime::ZERO),
                fab.egress_occupancy(g, end),
                fab.input_buffer_occupancy(g),
            )
        })
        .collect();
    Outcome {
        report,
        counters: fab.counters,
        metrics: MetricsSet::from_task(task),
        ports,
    }
}

/// Ring allreduce sends `2n(n-1)` messages; past this many ranks the
/// reference loop gets slow in unoptimized test builds. Larger rings are
/// covered by the deterministic 512-rank case in `collective.rs`.
const RING_RANK_CAP: u32 = 160;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random fat trees (radix 2-4, 1-5 levels) and dragonflies (a 1-4,
    /// p 1-3, h 1-3), ranks 2..=hosts, payloads 8 B-256 KiB, roomy and
    /// tiny input buffers (credit waits, ECN), cut-through and
    /// store-and-forward.
    #[test]
    fn fast_path_equals_reference(
        dragonfly in 0u32..2,
        radix in 2u32..5,
        levels in 1u32..6,
        routers in 1u32..5,
        hosts_per_router in 1u32..4,
        globals in 1u32..4,
        rank_draw in any::<u32>(),
        octave in 0u32..16,
        payload_draw in any::<u32>(),
        buffer in 0u32..3,
        buffer_draw in any::<u32>(),
        ecn_draw in 0u32..8,
        store_and_forward in 0u32..4,
        coll in 0u32..6,
    ) {
        let graph = if dragonfly == 1 {
            FabricGraph::dragonfly(routers, hosts_per_router, globals)
        } else {
            FabricGraph::fat_tree(radix, levels)
        };
        if graph.hosts < 2 {
            return;
        }
        let mut cfg = FlowConfig::paper_default();
        match buffer {
            0 => {}
            // Room for a few reservations: credit waits and ECN marks.
            1 => cfg.input_buffer_bytes = 1_000 + u64::from(buffer_draw % 12_000),
            // Smaller than most messages: they stream through.
            _ => cfg.input_buffer_bytes = 64 + u64::from(buffer_draw % 1_000),
        }
        cfg.ecn_threshold = 0.3 + 0.1 * f64::from(ecn_draw);
        if store_and_forward == 0 {
            cfg.forwarding = Forwarding::StoreAndForward;
        }
        let base = 8u32 << octave;
        let payload = (base + payload_draw % base).min(256 << 10);
        let coll = match coll {
            0 => FlowCollective::Barrier,
            1 => FlowCollective::Bcast { bytes: payload },
            2 => FlowCollective::AllreduceRd { bytes: payload },
            _ => FlowCollective::AllreduceRing { bytes: payload },
        };
        let mut n = 2 + rank_draw % (graph.hosts - 1);
        if matches!(coll, FlowCollective::AllreduceRing { .. }) {
            n = n.min(RING_RANK_CAP);
        }
        let mut fab = ClusterFabric::new(graph, cfg);
        let reference = run(CollectivePath::Reference, &mut fab, n, coll);
        let fast = run(CollectivePath::Fast, &mut fab, n, coll);
        prop_assert_eq!(fast, reference, "{:?} on {} ranks", coll, n);
    }
}

/// A dragonfly ring has coupled pairs (shared local and global links)
/// next to isolated ones; small buffers make some pairs ECN-bound. Both
/// kinds must interleave with the replayed ones exactly.
#[test]
fn contended_dragonfly_ring_matches_reference() {
    for buffer in [64 << 10, 9_000, 2_000] {
        let mut cfg = FlowConfig::paper_default();
        cfg.input_buffer_bytes = buffer;
        let mut fab = ClusterFabric::new(FabricGraph::dragonfly(4, 2, 2), cfg);
        let n = fab.graph.hosts;
        for bytes in [8u32, 4096, 64 << 10] {
            let coll = FlowCollective::AllreduceRing { bytes };
            let reference = run(CollectivePath::Reference, &mut fab, n, coll);
            let fast = run(CollectivePath::Fast, &mut fab, n, coll);
            assert_eq!(fast, reference, "buffer {buffer}, {bytes} B");
        }
    }
}

/// Telemetry, trace collectors and windowed metrics record per-walk
/// timestamps, so the fast path falls back to the full loop under each;
/// its results still match a plain fast run.
#[test]
fn observed_runs_fall_back_and_still_agree() {
    let costs = EndpointCosts::paper_default();
    let coll = FlowCollective::AllreduceRing { bytes: 4096 };
    let mut fab = ClusterFabric::paper_default(FabricGraph::fat_tree(4, 2));
    let plain = run_flow_collective_on(CollectivePath::Fast, &mut fab, 16, coll, costs);
    let (windowed, task) = metrics::collect_windowed(SimDuration::from_ps(1_000_000), || {
        run_flow_collective_on(CollectivePath::Fast, &mut fab, 16, coll, costs)
    });
    assert_eq!(windowed, plain);
    // Every hop sample landed in a window: no walk was skipped and
    // accounted in bulk.
    let set = MetricsSet::from_task(task);
    let per_window: u64 = set
        .window_series("fabric_hop")
        .expect("windowed hop series")
        .windows
        .iter()
        .map(|w| w.hist.count)
        .sum();
    assert_eq!(per_window, set.hist("fabric_hop").unwrap().count);
    let (traced, trace) = bband_trace::collect(1 << 16, || {
        run_flow_collective_on(CollectivePath::Fast, &mut fab, 16, coll, costs)
    });
    assert_eq!(traced, plain);
    let hops = trace
        .spans
        .iter()
        .filter(|s| s.name == "fabric_hop")
        .count() as u64;
    assert_eq!(fab.counters.messages, plain.messages);
    assert!(hops >= plain.messages, "every message walked under a trace");
}
