//! Shared plumbing for the `repro` harness binary and the Criterion
//! benches: one function per table/figure of the paper, each returning the
//! rendered text that regenerates it.

use bband_cluster::CollectivePath;
use bband_core::fault;
use bband_core::latency::Category;
use bband_core::tracepath;
use bband_core::validate::{validate_all, ValidationScale};
use bband_core::whatif::Component;
use bband_core::{hlp_breakdown, profiles};
use bband_core::{
    Breakdown, Calibration, EndToEndLatencyModel, InjectionModel, LlpLatencyModel,
    OverallInjectionModel, ScalingModel, WhatIf,
};
use bband_llp::LockGranularity;
use bband_metrics::MetricsSet;
use bband_microbench::{
    am_lat, credit_exhaustion_onset_with, eager_rndv_sweep, endpoint_injection,
    multicore_injection, osu_latency, put_bw, traced_am_lat, traced_endpoint_injection,
    traced_osu_latency, traced_put_bw, AmLatConfig, MulticoreConfig, OsuLatConfig, PutBwConfig,
    StackConfig, ThreadSweepConfig,
};
use bband_mpi::{collective_scaling_with, Collective};
use bband_report::{
    fabric_telemetry_json, metrics_json, rank_sweep_json, render_bar, render_critical_path,
    render_curves, render_fabric_heatmap, render_fault_check, render_flame, render_histogram,
    render_loss_sweep, render_quantiles, render_rank_sweep, render_recovery_attribution,
    render_size_sweep, render_table1, render_thread_sweep, segmented_fault_check, size_sweep_json,
    thread_sweep_json, to_json, ThreadBaseline, ThreadPoint, ZambreCheck,
};
use bband_sim::{SimDuration, WorkerPool};
use bband_trace::{per_message_attribution, Trace};
use serde_json::Value;
use std::time::Instant;

/// Experiment scale: smoke (CI bench gate), quick (tests), or full (the
/// harness default). `Smoke` renders every figure target at `Quick` sizes
/// and only shrinks the engine benchmark ([`bench_engine_json`]) further,
/// so the CI bench-smoke step stays cheap while still exercising both
/// engine paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Smoke,
    Quick,
    Full,
}

impl Scale {
    fn put_bw_messages(self) -> u64 {
        match self {
            Scale::Smoke | Scale::Quick => 3_000,
            Scale::Full => 20_000,
        }
    }

    /// Stable lowercase name for JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// Table 1.
pub fn table1() -> String {
    render_table1(&Calibration::default())
}

/// Figure 4: LLP_post phase breakdown.
pub fn fig4() -> String {
    render_bar(&InjectionModel::llp_post_breakdown(&Calibration::default()))
}

/// Figure 6: PCIe trace snippet (downstream transactions of put_bw).
pub fn fig6(scale: Scale) -> String {
    let report = put_bw(&PutBwConfig {
        stack: StackConfig::default(),
        messages: scale.put_bw_messages().min(64),
        warmup: 0,
        ..Default::default()
    });
    let mut out = String::from("Figure 6: PCIe trace of downstream PCIe transactions (put_bw)\n");
    let downstream = report.analyzer.downstream_tlps(None);
    for rec in downstream.iter().take(12) {
        out.push_str(&rec.render());
        out.push('\n');
    }
    out
}

/// Figure 7: distribution of the observed injection overhead.
pub fn fig7(scale: Scale) -> String {
    let report = put_bw(&PutBwConfig {
        stack: StackConfig::default(),
        messages: scale.put_bw_messages(),
        ..Default::default()
    });
    render_histogram(
        "Figure 7: observed injection overhead (put_bw, PCIe trace deltas)",
        &report.observed,
        0.0,
        500.0,
        25,
    )
}

/// Figure 8: LLP-level injection breakdown.
pub fn fig8() -> String {
    render_bar(&InjectionModel::from_calibration(&Calibration::default()).breakdown())
}

/// Figure 10: LLP-level latency breakdown (plus the am_lat observation).
pub fn fig10(scale: Scale) -> String {
    let c = Calibration::default();
    let model = LlpLatencyModel::from_calibration(&c);
    let mut out = render_bar(&model.breakdown());
    let obs = am_lat(&AmLatConfig {
        stack: StackConfig::default(),
        iterations: match scale {
            Scale::Smoke | Scale::Quick => 200,
            Scale::Full => 1_000,
        },
        warmup: 16,
        buffer_samples: false,
    });
    let corrected = obs.observed.summary().mean - 49.69 / 2.0;
    out.push_str(&format!(
        "  modeled total (incl. LLP_prog): {:.2} ns; observed (am_lat, corrected): {corrected:.2} ns\n",
        model.total().as_ns_f64(),
    ));
    out
}

/// Figure 11: HLP split between MPICH and UCP.
pub fn fig11() -> String {
    let c = Calibration::default();
    let mut out = render_bar(&hlp_breakdown::isend_split(&c));
    out.push('\n');
    out.push_str(&render_bar(&hlp_breakdown::rx_wait_split(&c)));
    out
}

/// Figure 12: overall injection breakdown.
pub fn fig12() -> String {
    render_bar(&OverallInjectionModel::from_calibration(&Calibration::default()).breakdown())
}

/// Figure 13: end-to-end latency breakdown.
pub fn fig13() -> String {
    let model = EndToEndLatencyModel::from_calibration(&Calibration::default());
    let b: Breakdown = model.breakdown();
    let mut out = render_bar(&b);
    out.push_str(&format!("  end-to-end total: {}\n", b.total()));
    out
}

/// Figure 14: HLP vs LLP during initiation and progress.
pub fn fig14() -> String {
    let c = Calibration::default();
    let mut out = String::new();
    for b in [
        hlp_breakdown::initiation_split(&c),
        hlp_breakdown::tx_progress_split(&c),
        hlp_breakdown::rx_progress_split(&c),
    ] {
        out.push_str(&render_bar(&b));
        out.push('\n');
    }
    out.push_str(&format!(
        "  RX/TX progress ratio: {:.2}x (paper: 4.78x)\n",
        hlp_breakdown::rx_to_tx_progress_ratio(&c)
    ));
    out
}

/// Figure 15: category breakdown of the end-to-end latency.
pub fn fig15() -> String {
    let model = EndToEndLatencyModel::from_calibration(&Calibration::default());
    let mut out = render_bar(&model.category_breakdown());
    for cat in [Category::Cpu, Category::Io, Category::Network] {
        out.push('\n');
        out.push_str(&render_bar(&model.category_sub_breakdown(cat)));
    }
    out
}

/// Figure 16: on-node time breakdown.
pub fn fig16() -> String {
    let model = EndToEndLatencyModel::from_calibration(&Calibration::default());
    let mut out = render_bar(&model.on_node_breakdown());
    for b in [
        model.initiator_split(),
        model.target_split(),
        model.target_io_split(),
    ] {
        out.push('\n');
        out.push_str(&render_bar(&b));
    }
    out
}

/// One panel of Figure 17.
pub fn fig17(panel: char) -> String {
    let w = WhatIf::new(Calibration::default());
    let (title, comps, latency): (&str, &[Component], bool) = match panel {
        'a' => (
            "Figure 17a: injection speedup vs CPU-component reduction",
            &Component::FIG17A,
            false,
        ),
        'b' => (
            "Figure 17b: latency speedup vs CPU-component reduction",
            &Component::FIG17B,
            true,
        ),
        'c' => (
            "Figure 17c: latency speedup vs I/O-component reduction",
            &Component::FIG17C,
            true,
        ),
        'd' => (
            "Figure 17d: latency speedup vs network-component reduction",
            &Component::FIG17D,
            true,
        ),
        other => panic!("unknown Figure 17 panel: {other}"),
    };
    let curves: Vec<_> = comps
        .iter()
        .map(|&c| (c, w.curve(c, latency, &WhatIf::GRID)))
        .collect();
    render_curves(title, &curves)
}

/// §7's headline claims, evaluated.
pub fn claims() -> String {
    let mut out = String::from("Section 7 claims:\n");
    for c in WhatIf::new(Calibration::default()).claims() {
        out.push_str(&format!(
            "  [{}] {} -> model {:.2}% (paper {:.2}%)\n",
            if c.holds { "ok" } else { "FAIL" },
            c.name,
            c.speedup_pct,
            c.paper_pct
        ));
    }
    out
}

/// Model-vs-observed validation table.
pub fn validation(scale: Scale) -> String {
    let s = match scale {
        Scale::Smoke | Scale::Quick => ValidationScale::quick(),
        Scale::Full => ValidationScale::default(),
    };
    let report = validate_all(&Calibration::default(), s, true);
    let mut out = String::from(
        "Model vs simulated observation (jittered system):\n\
         quantity                              model(ns)  observed(ns)  error\n",
    );
    for row in &report.rows {
        out.push_str(&format!(
            "  {:<36} {:>9.2} {:>12.2} {:>6.2}% [{}]\n",
            row.name,
            row.modeled_ns,
            row.observed_ns,
            row.error_frac * 100.0,
            if row.passes() { "ok" } else { "FAIL" }
        ));
    }
    out.push_str(&format!(
        "  recovery (e2e run, active fault plan): {} [{}]\n",
        report.counters.render_compact(),
        if report.counters.is_clean() {
            "clean"
        } else {
            "ENGAGED"
        }
    ));
    out
}

/// Extension experiments beyond the paper's figures.
pub fn ext_scaling() -> String {
    let m = ScalingModel::new(Calibration::default());
    let mut out = String::from(
        "Message-size scaling (UCT latency model; extension of §1's argument)
",
    );
    out.push_str(&format!(
        "  {:>10}  {:>12}  {:>10}
",
        "bytes", "latency", "network %"
    ));
    let mut x = 8u32;
    while x <= 1 << 20 {
        out.push_str(&format!(
            "  {x:>10}  {:>10.1}ns  {:>9.1}%
",
            m.latency_ns(x),
            m.network_share(x) * 100.0
        ));
        x *= 4;
    }
    out.push_str(&format!(
        "  network-majority crossover: {:?} bytes
",
        m.crossover_size(0.5)
    ));
    out
}

/// Eager-vs-rendezvous crossover, measured on the simulated stack.
pub fn ext_crossover() -> String {
    let rows = eager_rndv_sweep(
        &StackConfig::validation(),
        &[4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024],
    );
    let mut out = String::from(
        "Eager vs rendezvous (measured, deterministic)
",
    );
    for (p, e, r) in rows {
        out.push_str(&format!(
            "  {p:>8} B  eager {e:>10.1} ns  rndv {r:>10.1} ns  -> {}
",
            if e <= r { "eager" } else { "rendezvous" }
        ));
    }
    out
}

/// Multi-core credit-exhaustion onset (§4.2's excluded regime). A
/// `--faults` plan's `credits` block overrides the posted-credit pools,
/// and its `markov_stall` block parks the NICs in correlated stall
/// windows, so faulted configurations show the onset moving to fewer
/// cores.
pub fn ext_multicore() -> String {
    let plan = fault::active_plan();
    let credits = plan.credits.map(|c| (c.hdr, c.data, c.update_batch));
    let stalls = plan
        .markov_stall
        .filter(|m| !m.is_zero())
        .map(|m| (m.mean_up_ns, m.mean_down_ns));
    let onset = credit_exhaustion_onset_with(
        &StackConfig::validation(),
        &[1, 4, 16, 64, 128],
        credits,
        stalls,
    );
    let mut out = String::from(
        "Multi-core injection: RC posted-credit exhaustion
",
    );
    if let Some((h, d, b)) = credits {
        out.push_str(&format!(
            "  (credit override active: hdr={h} data={d} update_batch={b})\n"
        ));
    }
    if let Some((up, down)) = stalls {
        out.push_str(&format!(
            "  (Markov stall process active: mean up {up} ns, mean down {down} ns)\n"
        ));
    }
    for (cores, stalled) in onset {
        out.push_str(&format!(
            "  {cores:>4} cores: {}
",
            if stalled {
                "credits EXHAUSTED (RC stalls MMIO writes)"
            } else {
                "no stalls (the paper's single-core regime)"
            }
        ));
    }
    out
}

/// Collective scaling on the simulated stack: barrier and allreduce
/// completion vs rank count (⌈log₂N⌉ rounds over the point-to-point
/// layer). The sweep fans independent rank counts across the worker pool.
/// A `--faults` plan's `credits`/`markov_stall` blocks reach the live
/// fabric (its two fault knobs — it has no lossy wire), and engaged runs
/// report their recovery counters per rank count.
pub fn ext_collectives(scale: Scale) -> String {
    let counts: &[u32] = match scale {
        Scale::Smoke | Scale::Quick => &[2, 4, 8],
        Scale::Full => &[2, 4, 8, 16, 32],
    };
    let plan = fault::active_plan();
    let credits = plan.credits.map(|c| (c.hdr, c.data, c.update_batch));
    let stalls = plan
        .markov_stall
        .filter(|m| !m.is_zero())
        .map(|m| (m.mean_up_ns, m.mean_down_ns));
    let barrier = collective_scaling_with(counts, Collective::Barrier, 9, credits, stalls);
    let allreduce = collective_scaling_with(
        counts,
        Collective::Allreduce { bytes: 256 },
        9,
        credits,
        stalls,
    );
    let mut out = String::from("Collective scaling (deterministic, min-clock driver)\n");
    if credits.is_some() || stalls.is_some() {
        out.push_str("  (--faults credit/stall overrides active on the live fabric)\n");
    }
    out.push_str(&format!(
        "  {:>6}  {:>7}  {:>14}  {:>16}\n",
        "ranks", "rounds", "barrier", "allreduce 256B"
    ));
    for ((n, b), (_, a)) in barrier.iter().zip(&allreduce) {
        out.push_str(&format!(
            "  {n:>6}  {:>7}  {:>12.2}ns  {:>14.2}ns\n",
            b.rounds,
            b.completion.as_ns_f64(),
            a.completion.as_ns_f64()
        ));
        if !b.counters.is_clean() || !a.counters.is_clean() {
            out.push_str(&format!(
                "  {:>6}  recovery: barrier {}; allreduce {}\n",
                "",
                b.counters.render_compact(),
                a.counters.render_compact()
            ));
        }
    }
    out
}

/// Alternative system profiles (the §7 optimizations as whole systems).
pub fn ext_profiles() -> String {
    let mut out = String::from(
        "Alternative system calibrations (end-to-end latency)
",
    );
    for (name, c) in [
        ("ThunderX2 + ConnectX-4 (paper)", Calibration::default()),
        (
            "integrated-NIC SoC (Tofu-D-like)",
            profiles::integrated_nic_soc(),
        ),
        (
            "strongly-ordered CPU (x86-TSO)",
            profiles::strongly_ordered_cpu(),
        ),
        ("fast device memory", profiles::fast_device_memory()),
        ("GenZ-class switch (30 ns)", profiles::genz_switch()),
        ("PAM4 + FEC interconnect", profiles::pam4_fec_interconnect()),
    ] {
        let m = EndToEndLatencyModel::from_calibration(&c);
        out.push_str(&format!(
            "  {name:<34} {}
",
            m.total()
        ));
    }
    out
}

/// §6's four insights, evaluated on the calibrated system and on the
/// integrated-NIC profile (where insight 3 weakens — the point of §7.1).
pub fn ext_insights() -> String {
    let mut out = String::from(
        "Section 6 insights (calibrated system):
",
    );
    for i in bband_core::insights::all(&Calibration::default()) {
        out.push_str(&format!(
            "  [{}] Insight {}: {} (value {:.2})
",
            if i.holds { "ok" } else { "FAIL" },
            i.id,
            i.statement,
            i.value
        ));
    }
    out.push_str(
        "on the integrated-NIC SoC profile:
",
    );
    for i in bband_core::insights::all(&profiles::integrated_nic_soc()) {
        out.push_str(&format!(
            "  [{}] Insight {}: value {:.2}
",
            if i.holds { "ok" } else { "changed" },
            i.id,
            i.value
        ));
    }
    out
}

/// Extension: end-to-end latency under fabric loss — the fault-injection
/// sweep. The base plan comes from [`bband_core::fault::active_plan`]
/// (the `repro --faults` override, or fault-free), with the fabric loss
/// probability swept over [`fault::DEFAULT_LOSS_GRID`]; each grid point is
/// one pool task with an RNG stream derived from `(seed, index)`, so
/// pooled and `--serial` runs emit identical bytes.
pub fn ext_loss(scale: Scale) -> String {
    let base = fault::active_plan();
    let mut out = render_loss_sweep(
        "Latency under fabric loss (8-byte messages, go-back-N recovery)",
        &loss_sweep(scale),
    );
    if !base.is_zero() {
        out.push_str("  (active fault plan injects additional faults via --faults)\n");
    }
    out
}

/// The `latency_under_loss` sweep at a given scale, under the active fault
/// plan and seed override. Shared by [`ext_loss`] and the `repro` JSON
/// artifact so both emit identical points.
pub fn loss_sweep(scale: Scale) -> Vec<bband_core::LossPoint> {
    let messages = match scale {
        Scale::Smoke | Scale::Quick => 120,
        Scale::Full => 1_000,
    };
    fault::latency_under_loss(
        &Calibration::default(),
        &fault::active_plan(),
        &fault::DEFAULT_LOSS_GRID,
        messages,
        StackConfig::default().seed,
        &WorkerPool::new(),
    )
}

/// Per-scale shape of the `sweep-size` experiment: the payload grid and
/// the messages per grid point. Shared by the rendered target and the
/// JSON artifact so both swing through identical points.
fn size_sweep_shape(scale: Scale) -> (&'static [u32], u64) {
    match scale {
        Scale::Smoke | Scale::Quick => (&[8, 4096, 65_536, 1 << 20], 8),
        Scale::Full => (&tracepath::DEFAULT_SIZE_GRID, 64),
    }
}

/// The size sweep at a given scale: one pool task per payload, RNG streams
/// derived from `(seed, index)`, so pooled and `--serial` runs emit
/// identical bytes. The driver itself asserts every engine run reproduces
/// the sized analytical model bit-exactly.
fn size_sweep(scale: Scale) -> Vec<tracepath::SizeSweepPoint> {
    let (sizes, messages) = size_sweep_shape(scale);
    tracepath::sweep_message_sizes(
        &Calibration::default(),
        sizes,
        messages,
        StackConfig::default().seed,
        &WorkerPool::new(),
    )
    .0
}

/// Extension: the payload-size axis (`repro sweep-size`) — latency and
/// goodput from 8 B to 4 MB across the eager→rendezvous crossover, each
/// point a traced, metered engine run with per-size critical-path stage
/// attribution, plus the segmented-lossy fast-vs-reference fault check.
pub fn ext_sweep_size(scale: Scale) -> String {
    let c = Calibration::default();
    let crossover = bband_core::SizedLatencyModel::from_calibration(&c).crossover();
    let (sizes, messages) = size_sweep_shape(scale);
    let mut out = render_size_sweep(
        &format!(
            "Message-size sweep: {messages} e2e messages per point, \
             MTU segmentation + protocol selection ({} points)",
            sizes.len()
        ),
        &size_sweep(scale),
        crossover,
    );
    out.push_str(&render_fault_check(&segmented_fault_check(
        &c,
        12,
        StackConfig::default().seed,
    )));
    out
}

/// JSON artifact of the `sweep-size` target (`repro --json DIR sweep-size`):
/// the full curve with quantiles, stage attributions, the model crossover,
/// and the embedded fast-vs-reference fault check.
pub fn sweep_size_json_string(scale: Scale) -> String {
    let c = Calibration::default();
    let crossover = bband_core::SizedLatencyModel::from_calibration(&c).crossover();
    let fc = segmented_fault_check(&c, 12, StackConfig::default().seed);
    to_json(&size_sweep_json(
        &format!("sweep-size ({})", scale.name()),
        &size_sweep(scale),
        crossover,
        fc,
    ))
}

/// Per-scale shape of the `sweep-ranks` experiment: the rank grid shared
/// by the rendered target and the JSON artifact. Smoke and Quick are
/// identical on purpose: the committed artifact is regenerated at quick
/// scale by CI's byte-diff loop and asserted at smoke scale by the
/// sweep-ranks CI step, so both must swing through the same grid.
fn rank_sweep_shape(scale: Scale) -> &'static [u32] {
    match scale {
        Scale::Smoke | Scale::Quick => &[16, 64, 256],
        Scale::Full => &[128, 512, 1024, 2048, 4096],
    }
}

/// The rank sweep at a given scale: one pool task per (topology, ranks)
/// cell, each running barrier/bcast/allreduce-rd/allreduce-ring on a
/// fresh flow fabric. Cells share nothing, so pooled and `--serial` runs
/// emit identical bytes. `repro --reference` (the reference engine path)
/// also walks every collective message.
fn rank_sweep(scale: Scale) -> Vec<bband_cluster::RankPoint> {
    let path = match fault::active_engine_path() {
        fault::EnginePath::Fast => CollectivePath::Fast,
        fault::EnginePath::Reference => CollectivePath::Reference,
    };
    rank_sweep_on(path, scale)
}

fn rank_sweep_on(path: CollectivePath, scale: Scale) -> Vec<bband_cluster::RankPoint> {
    bband_cluster::sweep_ranks_on(path, rank_sweep_shape(scale), &WorkerPool::new())
}

fn rank_sweep_title(scale: Scale) -> String {
    let ranks = rank_sweep_shape(scale);
    format!(
        "Rank-scaling sweep: collectives on fat-tree and dragonfly fabrics \
         ({} rank counts up to {}, {} B payloads, credit flow control + ECN)",
        ranks.len(),
        ranks.last().unwrap(),
        bband_cluster::SWEEP_PAYLOAD_BYTES
    )
}

/// Extension: the cluster-scale rank axis (`repro sweep-ranks`) —
/// completion latency and achieved bisection goodput for four collectives
/// across fat-tree and dragonfly topologies, with per-port credit flow
/// control and ECN backpressure resolved by the flow fabric, plus the
/// 2-node bit-exactness gate against the calibrated `NetworkModel`.
pub fn ext_sweep_ranks(scale: Scale) -> String {
    render_rank_sweep(
        &rank_sweep_title(scale),
        &rank_sweep(scale),
        &bband_cluster::two_node_equivalence(),
    )
}

/// JSON artifact of the `sweep-ranks` target (`repro --json DIR
/// sweep-ranks`): the full grid with congestion counters and the embedded
/// 2-node equivalence gate.
pub fn sweep_ranks_json_string(scale: Scale) -> String {
    to_json(&rank_sweep_json(
        &format!("sweep-ranks ({})", scale.name()),
        &rank_sweep(scale),
        &bband_cluster::two_node_equivalence(),
    ))
}

/// The rank sweep with per-port telemetry recording: same grid, same
/// `RankPoint`s (observation never perturbs — tested in bband-cluster),
/// plus one condensed `TelemetryReport` per cell.
fn rank_sweep_telemetry(scale: Scale) -> Vec<bband_cluster::TelemetryPoint> {
    bband_cluster::sweep_ranks_telemetry(rank_sweep_shape(scale), &WorkerPool::new())
}

/// Extension: `repro sweep-ranks --telemetry` — the rank sweep table
/// followed by the per-cell fabric heatmaps: per-link-class utilization
/// over virtual-time windows, per-group global-link strips (dragonfly),
/// and the top-k contended-link table that names the links behind the
/// dragonfly congestion knee.
pub fn ext_sweep_ranks_telemetry(scale: Scale) -> String {
    let cells = rank_sweep_telemetry(scale);
    let points: Vec<bband_cluster::RankPoint> = cells.iter().map(|c| c.point.clone()).collect();
    let mut out = render_rank_sweep(
        &rank_sweep_title(scale),
        &points,
        &bband_cluster::two_node_equivalence(),
    );
    out.push('\n');
    out.push_str(&render_fabric_heatmap(
        "Fabric telemetry: link-class utilization heatmaps and contended links",
        &cells,
    ));
    out
}

/// JSON artifact of `repro sweep-ranks --telemetry` (also written by
/// `--json DIR sweep-ranks` so CI's byte-diff covers it): per-port
/// time-series condensed per cell, with the bit-exact conservation
/// reconciliation embedded.
pub fn fabric_telemetry_json_string(scale: Scale) -> String {
    to_json(&fabric_telemetry_json(
        &format!("sweep-ranks --telemetry ({})", scale.name()),
        &rank_sweep_telemetry(scale),
    ))
}

/// Per-scale shape of the `sweep-threads` experiment: the thread-count
/// grid and messages per thread, shared by the rendered target and the
/// JSON artifact. Smoke and Quick are identical on purpose: the committed
/// artifact is regenerated at quick scale by CI's byte-diff loop and
/// asserted at smoke scale by the sweep-threads CI step, so both must
/// swing through the same grid.
fn thread_sweep_shape(scale: Scale) -> (&'static [u32], u64) {
    match scale {
        Scale::Smoke | Scale::Quick => (&[1, 2, 4, 8], 400),
        Scale::Full => (&[1, 2, 3, 4, 5, 6, 7, 8], 1_000),
    }
}

/// One Zambre curve: `(name, endpoints(threads), lock granularity)`.
type ThreadCurve = (&'static str, fn(u32) -> u32, LockGranularity);

/// The three Zambre curves of the thread sweep: every thread through one
/// global-locked endpoint, per-endpoint locks over half as many
/// endpoints as threads, and one independent VI per thread.
const THREAD_CURVES: [ThreadCurve; 3] = [
    ("shared", |_| 1, LockGranularity::GlobalLock),
    (
        "per-endpoint",
        |t| (t / 2).max(1),
        LockGranularity::PerEndpointLock,
    ),
    ("independent", |t| t, LockGranularity::Independent),
];

/// The thread sweep at a given scale: one pool task per (curve, threads)
/// cell, each running [`endpoint_injection`] on a fresh cluster. Cells
/// share nothing, so pooled and `--serial` runs emit identical bytes.
fn thread_sweep(scale: Scale) -> Vec<ThreadPoint> {
    let (threads, messages) = thread_sweep_shape(scale);
    let cells: Vec<(usize, u32)> = (0..THREAD_CURVES.len())
        .flat_map(|c| threads.iter().map(move |&t| (c, t)))
        .collect();
    WorkerPool::new().map(cells, move |_, (curve_idx, t)| {
        let (curve, endpoints_of, lock) = THREAD_CURVES[curve_idx];
        let r = endpoint_injection(&ThreadSweepConfig {
            stack: StackConfig::validation(),
            threads: t,
            endpoints: endpoints_of(t),
            lock,
            messages_per_thread: messages,
            ring_depth: 16,
            credits: None,
            stalls: None,
        });
        ThreadPoint {
            curve,
            threads: r.threads,
            endpoints: r.endpoints,
            lock: r.lock.name(),
            rate_per_us: r.aggregate_rate_per_us,
            per_thread_ns: r.per_thread_overhead.as_ns_f64(),
            busy_posts: r.busy_posts,
            lock_acquisitions: r.lock_acquisitions,
            lock_contended: r.lock_contended,
            lock_wait_ns: r.lock_wait_time.as_ns_f64(),
            rc_stalled: r.rc_stalled,
            credit_waits: r.counters.credit_stalls,
        }
    })
}

/// The 1-thread equivalence gate: the sweep's 1-thread/1-endpoint point
/// (even under a global lock — one thread never contends) must land on
/// the exact virtual end time of the pre-refactor multicore driver.
fn thread_sweep_baseline(scale: Scale) -> ThreadBaseline {
    let (_, messages) = thread_sweep_shape(scale);
    let mc = multicore_injection(&MulticoreConfig {
        stack: StackConfig::validation(),
        cores: 1,
        messages_per_core: messages,
        ring_depth: 16,
        credits: None,
        stalls: None,
    });
    let sw = endpoint_injection(&ThreadSweepConfig {
        stack: StackConfig::validation(),
        threads: 1,
        endpoints: 1,
        lock: LockGranularity::GlobalLock,
        messages_per_thread: messages,
        ring_depth: 16,
        credits: None,
        stalls: None,
    });
    ThreadBaseline {
        multicore_ns: mc.per_core_overhead.as_ns_f64(),
        sweep_ns: sw.per_thread_overhead.as_ns_f64(),
        bit_exact: mc.per_core_overhead == sw.per_thread_overhead,
    }
}

/// The headline Zambre comparison from an already-run sweep: locked
/// shared endpoint vs independent VIs at the largest thread count.
fn zambre_check(points: &[ThreadPoint]) -> ZambreCheck {
    let max_threads = points.iter().map(|p| p.threads).max().unwrap_or(1);
    let rate = |curve: &str| {
        points
            .iter()
            .find(|p| p.curve == curve && p.threads == max_threads)
            .map(|p| p.rate_per_us)
            .unwrap_or(0.0)
    };
    let locked = rate("shared");
    let independent = rate("independent");
    let ratio = if locked > 0.0 {
        independent / locked
    } else {
        0.0
    };
    ZambreCheck {
        threads: max_threads,
        locked_rate_per_us: locked,
        independent_rate_per_us: independent,
        ratio,
        scalable: ratio >= 4.0,
    }
}

fn thread_sweep_title(scale: Scale) -> String {
    let (threads, messages) = thread_sweep_shape(scale);
    format!(
        "Thread-scaling sweep: message rate vs lock granularity over \
         first-class endpoints ({} thread counts up to {}, {} msgs/thread)",
        threads.len(),
        threads.last().unwrap(),
        messages
    )
}

/// Extension: the MPI+threads axis (`repro sweep-threads`) — Zambre et
/// al.'s scalable-endpoints experiment on the calibrated stack: aggregate
/// message rate for 1..=8 threads driving a single global-locked
/// endpoint, per-endpoint-locked shared endpoints, and independent VIs,
/// with the 1-thread bit-exactness gate against the pre-refactor
/// multicore path and the ≥4× scalability ratio at 8 threads.
pub fn ext_sweep_threads(scale: Scale) -> String {
    let points = thread_sweep(scale);
    let zambre = zambre_check(&points);
    render_thread_sweep(
        &thread_sweep_title(scale),
        &points,
        &thread_sweep_baseline(scale),
        &zambre,
    )
}

/// JSON artifact of the `sweep-threads` target (`repro --json DIR
/// sweep-threads`): the full grid with lock-contention counters and the
/// embedded equivalence + scalability gates.
pub fn sweep_threads_json_string(scale: Scale) -> String {
    let points = thread_sweep(scale);
    let zambre = zambre_check(&points);
    to_json(&thread_sweep_json(
        &format!("sweep-threads ({})", scale.name()),
        &points,
        &thread_sweep_baseline(scale),
        &zambre,
    ))
}

/// Extension: the whole-stack traced run — the end-to-end fault pipeline
/// recorded span by span on the virtual clock, rendered as a flame view
/// plus the trace-derived Figure-13 breakdown. Under a zero fault plan the
/// reconstruction is bit-exact against the analytical model (and says so);
/// under `--faults` the Recovery-layer events (drops, go-back-N rounds,
/// backoff gaps, replay windows) become visible by name.
pub fn ext_trace(scale: Scale) -> String {
    let c = Calibration::default();
    let plan = fault::active_plan();
    let messages = match scale {
        Scale::Smoke | Scale::Quick => 24,
        Scale::Full => 200,
    };
    let (res, trace) = tracepath::traced_e2e(&c, &plan, messages, StackConfig::default().seed);
    let mut out = render_flame(
        &format!(
            "Whole-stack trace: {messages} 8-byte e2e messages ({} fault plan)",
            if plan.is_zero() { "zero" } else { "active" }
        ),
        &trace,
    );
    out.push('\n');
    match tracepath::e2e_breakdown_from_trace(&trace) {
        Ok(b) => out.push_str(&render_bar(&b)),
        Err(e) => out.push_str(&format!("  ! {e}\n")),
    }
    out.push('\n');
    match tracepath::reconstruct(&trace) {
        Ok(cp) => {
            out.push_str(&render_critical_path(
                "DAG reconstruction (exposed vs hidden)",
                &cp,
            ));
            if plan.is_zero() {
                let model = EndToEndLatencyModel::from_calibration(&c).total();
                let seq_exact = tracepath::slice_sum_total(&trace) == model * messages;
                out.push_str(&format!(
                    "  sequential slice sum vs model x {messages}: {}\n",
                    if seq_exact { "bit-exact" } else { "MISMATCH" }
                ));
                // Zero-fault messages are independent chains, so the DAG
                // critical path is exactly one message's model total.
                out.push_str(&format!(
                    "  DAG critical path vs one-message model: {}\n",
                    if cp.length == model {
                        "bit-exact"
                    } else {
                        "MISMATCH"
                    }
                ));
            } else {
                // Lossy run: split the critical path into nominal vs
                // recovery exposed time and name, per message, the single
                // retransmission/backoff span that lengthened it.
                out.push('\n');
                match per_message_attribution(&trace, "HLP_rx_prog") {
                    Ok(msgs) => out.push_str(&render_recovery_attribution(
                        "Recovery attribution (lossy critical path)",
                        &cp,
                        &msgs,
                    )),
                    Err(e) => out.push_str(&format!("  ! {e}\n")),
                }
            }
        }
        Err(e) => out.push_str(&format!("  ! {e}\n")),
    }
    match res {
        Ok(stats) => out.push_str(&format!(
            "  completed {}/{}; recovery: {}\n",
            stats.completed,
            stats.messages,
            stats.counters.render_compact()
        )),
        Err(e) => out.push_str(&format!("  ! {e}\n")),
    }
    out
}

/// Live microbenchmarks that can run under the tracer
/// (`repro trace --bench <name>`). `multicore` runs a deliberately
/// credit-starved 8-core pool, so its DAG threads across cores through
/// the shared root complex and credit stalls surface as exposed time.
pub const TRACE_BENCHES: [&str; 4] = ["put_bw", "am_lat", "osu", "multicore"];

/// Run one traced live microbenchmark, returning a display label and the
/// recorded trace. Deterministic (validation) stacks, so the trace — and
/// therefore the Chrome export — is byte-stable run to run.
fn run_traced_bench(which: &str, scale: Scale) -> (String, Trace) {
    match which {
        "put_bw" => {
            let messages = match scale {
                Scale::Smoke | Scale::Quick => 1_500,
                Scale::Full => 8_000,
            };
            let cfg = PutBwConfig {
                stack: StackConfig::validation(),
                messages,
                warmup: 256,
                buffer_samples: false,
                ..Default::default()
            };
            let (_, trace) = traced_put_bw(&cfg);
            (format!("put_bw ({messages} msgs, deterministic)"), trace)
        }
        "am_lat" => {
            let iterations = match scale {
                Scale::Smoke | Scale::Quick => 200,
                Scale::Full => 1_000,
            };
            let cfg = AmLatConfig {
                stack: StackConfig::validation(),
                iterations,
                warmup: 16,
                buffer_samples: false,
            };
            let (_, trace) = traced_am_lat(&cfg);
            (format!("am_lat ({iterations} iters, deterministic)"), trace)
        }
        "osu" => {
            let iterations = match scale {
                Scale::Smoke | Scale::Quick => 150,
                Scale::Full => 1_000,
            };
            let cfg = OsuLatConfig {
                stack: StackConfig::validation(),
                iterations,
                warmup: 16,
                buffer_samples: false,
            };
            let (_, trace) = traced_osu_latency(&cfg);
            (
                format!("osu_latency ({iterations} iters, deterministic)"),
                trace,
            )
        }
        "multicore" => {
            let messages_per_thread = match scale {
                Scale::Smoke | Scale::Quick => 300,
                Scale::Full => 2_000,
            };
            // Congested on both axes on purpose: 4 header credits
            // replenished 2 at a time against 8 concurrent posters parks
            // MMIO writes at the RC (credit_wait stages), and 8 threads
            // sharing 4 per-endpoint-locked endpoints serialize in pairs
            // (lock_wait stages) — so the DAG threads across cores
            // through both the shared root complex and the lock chains.
            let cfg = ThreadSweepConfig {
                stack: StackConfig::validation(),
                threads: 8,
                endpoints: 4,
                lock: LockGranularity::PerEndpointLock,
                messages_per_thread,
                ring_depth: 16,
                credits: Some((4, 64, 2)),
                stalls: None,
            };
            let (_, trace) = traced_endpoint_injection(&cfg);
            (
                format!(
                    "endpoint_injection (8 threads x 4 locked endpoints x \
                     {messages_per_thread} msgs, starved credits)"
                ),
                trace,
            )
        }
        other => panic!("unknown trace bench {other}; known: {TRACE_BENCHES:?}"),
    }
}

/// Extension: a live microbenchmark under the tracer, reconstructed by
/// the same DAG pipeline the fault engine's traces flow through. For
/// `put_bw` the critical path is strictly shorter than the stage sum —
/// the hardware chain hides behind the serial CPU spine — and the
/// per-stage exposed/hidden split quantifies exactly what pipelining
/// buys. The zero-fault diff at the end cross-checks the live stack's
/// shared stages against the model-faithful fault engine.
pub fn ext_trace_bench(which: &str, scale: Scale) -> String {
    let (label, trace) = run_traced_bench(which, scale);
    let mut out = render_flame(&format!("Traced live microbenchmark: {label}"), &trace);
    out.push('\n');
    match tracepath::reconstruct(&trace) {
        Ok(cp) => {
            out.push_str(&render_critical_path(
                "DAG reconstruction (exposed vs hidden)",
                &cp,
            ));
            let ratio = if cp.stage_sum.as_ns_f64() > 0.0 {
                cp.length.as_ns_f64() / cp.stage_sum.as_ns_f64()
            } else {
                1.0
            };
            out.push_str(&format!(
                "  overlap: critical path is {:.1}% of the stage sum ({} hidden)\n",
                ratio * 100.0,
                cp.hidden_total()
            ));
            let split = cp.recovery_split();
            if split.recovery_total > SimDuration::ZERO {
                out.push_str(&format!(
                    "  recovery (credit waits / stall windows): {} exposed on the \
                     critical path, {} recorded in total\n",
                    split.recovery_exposed, split.recovery_total
                ));
            }
        }
        Err(e) => out.push_str(&format!("  ! {e}\n")),
    }
    // The multicore bench is deliberately congested (starved credits), so
    // a diff against the zero-fault single-message engine path would be
    // comparing different regimes; every other bench diffs when clean.
    if which != "multicore" && fault::active_plan().is_zero() {
        out.push('\n');
        out.push_str(&trace_diff(&trace));
    }
    out
}

/// Stage names with identical semantics in the live cluster and the
/// fault engine — the comparable subset [`trace_diff`] checks. The HLP
/// names are the paper's aggregate slices: the live MPI layer brackets
/// them around its finer-grained sub-steps (`ucp.tag_send`,
/// `ucp.recv_cb`, MPICH callbacks and epilogue), so `HLP_post` and
/// `HLP_rx_prog` mean the same thing in both pipelines — 26.56 ns and
/// 224.66 ns per 8-byte message.
const DIFF_STAGES: [&str; 8] = [
    "HLP_post",
    "HLP_rx_prog",
    "LLP_post",
    "LLP_prog",
    "TX PCIe",
    "RX PCIe",
    "Switch",
    "ack_flight",
];

/// Diff a live traced run against the model-faithful fault engine on the
/// zero-fault path: for every [`DIFF_STAGES`] name both pipelines emit,
/// compare the mean per-span duration. The two implementations share
/// nothing but the calibration, so agreement here means the live
/// cluster's per-stage charges really are the model's slices.
pub fn trace_diff(live: &Trace) -> String {
    let c = Calibration::default();
    let (res, reference) = tracepath::traced_e2e(
        &c,
        &fault::FaultPlan::none(),
        64,
        StackConfig::default().seed,
    );
    debug_assert!(res.is_ok());
    let live_sums = live.component_sums();
    let ref_sums = reference.component_sums();
    let mut out = String::from("trace-diff vs fault engine (zero-fault path, shared stages):\n");
    let mut worst = 0.0_f64;
    let mut shared = 0u32;
    for l in &live_sums {
        if !DIFF_STAGES.contains(&l.name) {
            continue;
        }
        let Some(r) = ref_sums.iter().find(|r| r.name == l.name) else {
            continue;
        };
        if l.count == 0 || r.count == 0 {
            continue;
        }
        let lm = l.total.as_ns_f64() / l.count as f64;
        let rm = r.total.as_ns_f64() / r.count as f64;
        if rm == 0.0 {
            continue;
        }
        let err = (lm - rm).abs() / rm;
        worst = worst.max(err);
        shared += 1;
        out.push_str(&format!(
            "  {:<18} live {lm:>9.2} ns  engine {rm:>9.2} ns  ({:+.2}%)\n",
            l.name,
            (lm - rm) / rm * 100.0
        ));
    }
    if shared == 0 {
        out.push_str("  trace-diff: MISMATCH (no shared stages)\n");
    } else if worst < 0.05 {
        out.push_str(&format!(
            "  trace-diff: OK ({shared} shared stages within 5%)\n"
        ));
    } else {
        out.push_str(&format!(
            "  trace-diff: MISMATCH (worst error {:.1}%)\n",
            worst * 100.0
        ));
    }
    out
}

/// Chrome trace-format JSON of the traced run (Perfetto-loadable). A fixed
/// message count keeps the artifact scale-independent; the active fault
/// plan and seed override apply, so `repro --faults ... trace` exports the
/// faulted timeline.
pub fn trace_chrome_json() -> String {
    let (_, trace) = tracepath::traced_e2e(
        &Calibration::default(),
        &fault::active_plan(),
        24,
        StackConfig::default().seed,
    );
    trace.to_chrome_json()
}

/// Chrome trace-format JSON of a traced live microbenchmark
/// (`repro trace --bench <which> --out trace.json`). Stage edges export
/// as flow arrows, so Perfetto draws the hardware chain threading
/// through the CPU spine.
pub fn trace_bench_chrome_json(which: &str, scale: Scale) -> String {
    run_traced_bench(which, scale).1.to_chrome_json()
}

/// The metered end-to-end run behind the `metrics` target: a fixed task
/// fan-out (so quick/full differ only in per-task message count), the
/// active fault plan and seed override applied, drained task-major. The
/// registry records on the virtual clock, so pooled and `--serial` runs
/// are byte-identical.
fn metered(scale: Scale) -> (String, Vec<bband_core::fault::FaultRunStats>, MetricsSet) {
    let plan = fault::active_plan();
    let messages_per_task = match scale {
        Scale::Smoke | Scale::Quick => 64,
        Scale::Full => 500,
    };
    const TASKS: u64 = 4;
    let (runs, set) = tracepath::metered_e2e(
        &Calibration::default(),
        &plan,
        messages_per_task,
        TASKS,
        StackConfig::default().seed,
        &WorkerPool::new(),
    );
    let title = format!(
        "Per-stage latency quantiles: {TASKS} tasks x {messages_per_task} 8-byte e2e messages \
         ({} fault plan)",
        if plan.is_zero() { "zero" } else { "active" }
    );
    (
        title,
        runs.into_iter().map(|(stats, _)| stats).collect(),
        set,
    )
}

/// Extension: the virtual-time metrics registry over the metered
/// end-to-end run — per-stage p50/p95/p99/p99.9 latency quantile tables
/// plus the recovery counters. On a zero fault plan every stage row is a
/// spike at its calibrated mean; under `--faults` the e2e histogram grows
/// the retransmission/backoff tail the quantiles pin down.
pub fn ext_metrics(scale: Scale) -> String {
    let (title, runs, set) = metered(scale);
    let mut out = render_quantiles(&title, &set);
    let completed: u64 = runs.iter().map(|r| r.completed).sum();
    let messages: u64 = runs.iter().map(|r| r.messages).sum();
    out.push_str(&format!("  completed {completed}/{messages} messages\n"));
    let mut counters = bband_profiling::RecoveryCounters::new();
    for r in &runs {
        counters.merge(&r.counters);
    }
    if !counters.is_clean() {
        out.push_str(&format!("  recovery: {}\n", counters.render_compact()));
    }
    out
}

/// Extension: the metrics target with the registry in time-windowed mode
/// (`repro metrics --windows N`): the aggregate quantile table plus a
/// per-window breakdown of the end-to-end latency distribution — `n`
/// fixed-width windows spanning the modeled run, so bursts and drift
/// that aggregate quantiles average away become visible rows. Windowed
/// merge is deterministic, so pooled == `--serial` holds here too.
pub fn ext_metrics_windowed(scale: Scale, n: u64) -> String {
    assert!(n > 0, "--windows needs at least one window");
    let plan = fault::active_plan();
    let messages_per_task = match scale {
        Scale::Smoke | Scale::Quick => 64,
        Scale::Full => 500,
    };
    const TASKS: u64 = 4;
    // Window width: the modeled span of one task's message stream split
    // into n windows. The virtual clock starts at zero, so this covers
    // the whole run (the last window absorbs fault-plan overshoot).
    let model = EndToEndLatencyModel::from_calibration(&Calibration::default()).total();
    let width = SimDuration::from_ps((model * messages_per_task).as_ps().div_ceil(n));
    let (runs, set) = tracepath::metered_e2e_windowed(
        &Calibration::default(),
        &plan,
        messages_per_task,
        TASKS,
        StackConfig::default().seed,
        width,
        &WorkerPool::new(),
    );
    let title = format!(
        "Per-stage latency quantiles ({n} virtual-time windows): {TASKS} tasks x \
         {messages_per_task} 8-byte e2e messages ({} fault plan)",
        if plan.is_zero() { "zero" } else { "active" }
    );
    let mut out = render_quantiles(&title, &set);
    let completed: u64 = runs.iter().map(|(r, _)| r.completed).sum();
    let messages: u64 = runs.iter().map(|(r, _)| r.messages).sum();
    out.push_str(&format!("  completed {completed}/{messages} messages\n"));
    out.push_str(&bband_report::render_windowed_quantiles(
        &set,
        "e2e_latency",
    ));
    out
}

/// JSON artifact of the `metrics` target (`repro metrics --out ...` and
/// `repro --json DIR metrics`): the quantile summaries and counters with
/// a stable schema.
pub fn metrics_json_string(scale: Scale) -> String {
    let (title, _, set) = metered(scale);
    to_json(&metrics_json(&title, &set))
}

/// Live microbenchmarks that can run under the metrics registry
/// (`repro metrics --bench <name>`): the per-iteration latencies feed the
/// quantile histograms, so p50/p95/p99 land next to the means the summary
/// statistics already report.
pub const METRIC_BENCHES: [&str; 3] = ["put_bw", "am_lat", "osu"];

/// Run one live microbenchmark with a metrics collector installed,
/// returning a display label and the recorded task metrics. The jittered
/// default stack is deliberate: the quantile spread (p99.9 vs mean) is the
/// paper's Figure-7 heavy tail, which a deterministic stack would flatten
/// to a spike.
fn run_metered_bench(which: &str, scale: Scale) -> (String, bband_metrics::TaskMetrics) {
    match which {
        "put_bw" => {
            let messages = scale.put_bw_messages();
            let cfg = PutBwConfig {
                stack: StackConfig::default(),
                messages,
                ..Default::default()
            };
            let (_, task) = bband_metrics::collect(|| put_bw(&cfg));
            (
                format!("put_bw ({messages} msgs, per-message injection deltas)"),
                task,
            )
        }
        "am_lat" => {
            let iterations = match scale {
                Scale::Smoke | Scale::Quick => 200,
                Scale::Full => 1_000,
            };
            let cfg = AmLatConfig {
                stack: StackConfig::default(),
                iterations,
                warmup: 16,
                buffer_samples: false,
            };
            let (_, task) = bband_metrics::collect(|| am_lat(&cfg));
            (
                format!("am_lat ({iterations} iters, one-way latencies)"),
                task,
            )
        }
        "osu" => {
            let iterations = match scale {
                Scale::Smoke | Scale::Quick => 150,
                Scale::Full => 1_000,
            };
            let cfg = OsuLatConfig {
                stack: StackConfig::default(),
                iterations,
                warmup: 16,
                buffer_samples: false,
            };
            let (_, task) = bband_metrics::collect(|| osu_latency(&cfg));
            (
                format!("osu_latency ({iterations} iters, one-way latencies)"),
                task,
            )
        }
        other => panic!("unknown metric bench {other}; known: {METRIC_BENCHES:?}"),
    }
}

/// Extension: a live microbenchmark metered by the virtual-time metrics
/// registry (`repro metrics --bench <name>`) — per-iteration latency
/// quantiles (p50/p95/p99/p99.9) next to the mean, from the same histogram
/// machinery the fault-engine `metrics` target uses.
pub fn ext_metrics_bench(which: &str, scale: Scale) -> String {
    let (label, task) = run_metered_bench(which, scale);
    let set = MetricsSet::from_tasks(vec![task]);
    render_quantiles(&format!("Live microbenchmark quantiles: {label}"), &set)
}

/// The fault-engine throughput cases shared by the Criterion hotpath bench
/// (`benches/engine_hotpath.rs`) and the [`bench_engine_json`] emitter:
/// the fault-free fast path (pure memo replay), an i.i.d.-loss plan (memo
/// replay with per-message RNG predraws and occasional reference
/// fallbacks), a Markov-stall plan (convergent-mutating stall queries
/// on every chain), and an 8 B–1 MiB payload cycle under 1e-4 loss (no
/// memo: the mixed-size eager and rendezvous event loop with MTU
/// segmentation).
pub fn engine_hotpath_cases() -> Vec<(&'static str, fault::FaultPlan)> {
    let fault_free = fault::FaultPlan::none();
    let mut loss = fault::FaultPlan::none();
    loss.loss_probability = 1e-3;
    let mut markov = fault::FaultPlan::none();
    markov.markov_stall = Some(fault::MarkovStall {
        mean_up_ns: 20_000.0,
        mean_down_ns: 1_000.0,
    });
    let mut sized = fault::FaultPlan::none();
    sized.loss_probability = 1e-4;
    sized.payload_cycle = vec![8, 256, 4096, 65_536, 1 << 20];
    vec![
        ("fault_free", fault_free),
        ("loss_1e-3", loss),
        ("markov_stall", markov),
        ("sized", sized),
    ]
}

/// Per-scale sizes for [`bench_engine_json`]: (loss-sweep messages per
/// grid point, metered messages per task, hotpath messages per case).
fn engine_bench_sizes(scale: Scale) -> (u64, u64, u64) {
    match scale {
        Scale::Smoke => (120, 64, 2_000),
        Scale::Quick => (250, 128, 5_000),
        Scale::Full => (1_000, 500, 20_000),
    }
}

/// The engine performance trajectory (`repro bench-engine`): wall-clock of
/// the fast engine path against the reference path on four sweep drivers
/// (loss, what-if, metrics, the cluster rank sweep), the rank sweep's
/// telemetry overhead, and ns-per-message on the
/// [`engine_hotpath_cases`] throughput cases. Every comparison carries an
/// `identical` flag asserting the fast output is byte-identical to the
/// reference output — a speedup that changes bytes is a bug, and the CI
/// bench-smoke step fails on any `false`. Wall-clock numbers are
/// nondeterministic by nature, so the emitted artifact is *not* part of
/// the `--json` regen diff set.
pub fn bench_engine_json(scale: Scale) -> String {
    use bband_core::fault::EnginePath;
    let cal = Calibration::default();
    let plan = fault::active_plan();
    let seed = StackConfig::default().seed;
    let pool = WorkerPool::new();
    let (sweep_messages, metered_messages, hotpath_messages) = engine_bench_sizes(scale);

    let sweep_obj = |name: &str, reference_ms: f64, fast_ms: f64, identical: bool| {
        Value::Obj(vec![
            ("name".into(), Value::Str(name.into())),
            ("reference_ms".into(), Value::Float(reference_ms)),
            ("fast_ms".into(), Value::Float(fast_ms)),
            (
                "speedup".into(),
                Value::Float(if fast_ms > 0.0 {
                    reference_ms / fast_ms
                } else {
                    0.0
                }),
            ),
            ("identical".into(), Value::Bool(identical)),
        ])
    };
    let mut sweeps = Vec::new();

    // Sweep 1: the loss sweep (`repro loss`), both paths pinned.
    let t0 = Instant::now();
    let ref_points = fault::latency_under_loss_on(
        EnginePath::Reference,
        &cal,
        &plan,
        &fault::DEFAULT_LOSS_GRID,
        sweep_messages,
        seed,
        &pool,
    );
    let ref_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let fast_points = fault::latency_under_loss_on(
        EnginePath::Fast,
        &cal,
        &plan,
        &fault::DEFAULT_LOSS_GRID,
        sweep_messages,
        seed,
        &pool,
    );
    let fast_ms = t0.elapsed().as_secs_f64() * 1e3;
    sweeps.push(sweep_obj(
        "loss",
        ref_ms,
        fast_ms,
        fast_points == ref_points,
    ));

    // Sweep 2: the dense what-if sweep — incremental (shared baselines)
    // vs the point-at-a-time model reconstruction.
    let w = WhatIf::new(cal.clone());
    let t0 = Instant::now();
    let ref_curves = w.dense_sweep_reference();
    let ref_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let fast_curves = w.dense_sweep();
    let fast_ms = t0.elapsed().as_secs_f64() * 1e3;
    sweeps.push(sweep_obj(
        "whatif",
        ref_ms,
        fast_ms,
        fast_curves == ref_curves,
    ));

    // Sweep 3: the metered e2e run (`repro metrics`): run stats *and* the
    // rendered JSON artifact (histograms, counters) must match.
    let t0 = Instant::now();
    let (ref_runs, ref_set) = tracepath::metered_e2e_on(
        EnginePath::Reference,
        &cal,
        &plan,
        metered_messages,
        4,
        seed,
        &pool,
    );
    let ref_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let (fast_runs, fast_set) = tracepath::metered_e2e_on(
        EnginePath::Fast,
        &cal,
        &plan,
        metered_messages,
        4,
        seed,
        &pool,
    );
    let fast_ms = t0.elapsed().as_secs_f64() * 1e3;
    let identical = fast_runs == ref_runs
        && to_json(&metrics_json("engine", &fast_set))
            == to_json(&metrics_json("engine", &ref_set));
    sweeps.push(sweep_obj("metrics", ref_ms, fast_ms, identical));

    // Sweep 4: the cluster rank sweep — the fast path (isolated-pair
    // replay of the ring, every other collective walked) against the
    // reference path (every message walked). The points must be
    // identical.
    //
    // Sweep 5: the telemetry overhead on the same sweep — telemetry-on
    // against the telemetry-off reference run (telemetry always walks
    // every message, so the fast path would not be a like-for-like
    // baseline). Results must be identical (observation never perturbs
    // the simulation) and the recording overhead bounded; the CI
    // bench-smoke step asserts `overhead_ok`. Timing is min-of-3 per
    // side (single smoke sweeps run ~35 ms, where scheduler noise alone
    // swings a one-shot ratio by ±15 points). The bound is 25% at smoke
    // scale: measured overhead sits near 15% there — the fabric
    // simulates a hop in ~70 ns, so even one extra cache-line touch per
    // hop is ~6% — and the sub-10% ambition would need sampling, which
    // would break the bit-exact `Conservation` reconciliation the
    // telemetry tests pin. Full scale gets 40%: at 4096 ranks the
    // per-port HotPort array outgrows L2, so the per-hop touch becomes
    // a genuine cache miss (~30% measured). The asserts are regression
    // guards, not vanity numbers.
    let _warmup = rank_sweep_on(CollectivePath::Reference, scale); // warm allocator/caches
    let (mut ref_ms, mut fast_ms, mut tel_ms) = (f64::MAX, f64::MAX, f64::MAX);
    let (mut reference, mut fast, mut tel_cells) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let t0 = Instant::now();
        reference = rank_sweep_on(CollectivePath::Reference, scale);
        ref_ms = ref_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        fast = rank_sweep_on(CollectivePath::Fast, scale);
        fast_ms = fast_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        tel_cells = rank_sweep_telemetry(scale);
        tel_ms = tel_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    sweeps.push(sweep_obj("sweep-ranks", ref_ms, fast_ms, fast == reference));
    let tel_points: Vec<bband_cluster::RankPoint> =
        tel_cells.iter().map(|c| c.point.clone()).collect();
    let overhead = if ref_ms > 0.0 {
        tel_ms / ref_ms - 1.0
    } else {
        0.0
    };
    let overhead_bound = match scale {
        Scale::Smoke | Scale::Quick => 0.25,
        Scale::Full => 0.40,
    };
    sweeps.push(Value::Obj(vec![
        ("name".into(), Value::Str("sweep-ranks-telemetry".into())),
        ("telemetry_off_ms".into(), Value::Float(ref_ms)),
        ("telemetry_on_ms".into(), Value::Float(tel_ms)),
        ("overhead_frac".into(), Value::Float(overhead)),
        ("identical".into(), Value::Bool(tel_points == reference)),
        ("overhead_ok".into(), Value::Bool(overhead < overhead_bound)),
    ]));

    // Hotpath throughput: single-run ns-per-message on each case.
    let hotpath = engine_hotpath_cases()
        .into_iter()
        .map(|(name, case)| {
            let t0 = Instant::now();
            let ref_out = fault::run_e2e_under_faults_on(
                EnginePath::Reference,
                &cal,
                &case,
                hotpath_messages,
                seed,
            );
            let ref_ns = t0.elapsed().as_secs_f64() * 1e9 / hotpath_messages as f64;
            let t0 = Instant::now();
            let fast_out = fault::run_e2e_under_faults_on(
                EnginePath::Fast,
                &cal,
                &case,
                hotpath_messages,
                seed,
            );
            let fast_ns = t0.elapsed().as_secs_f64() * 1e9 / hotpath_messages as f64;
            Value::Obj(vec![
                ("name".into(), Value::Str(name.into())),
                ("messages".into(), Value::UInt(hotpath_messages)),
                ("reference_ns_per_msg".into(), Value::Float(ref_ns)),
                ("fast_ns_per_msg".into(), Value::Float(fast_ns)),
                (
                    "speedup".into(),
                    Value::Float(if fast_ns > 0.0 { ref_ns / fast_ns } else { 0.0 }),
                ),
                ("identical".into(), Value::Bool(fast_out == ref_out)),
            ])
        })
        .collect();

    let doc = Value::Obj(vec![
        ("schema".into(), Value::Str("bband/bench-engine/v1".into())),
        ("scale".into(), Value::Str(scale.name().into())),
        ("threads".into(), Value::UInt(pool.threads() as u64)),
        ("sweeps".into(), Value::Arr(sweeps)),
        ("hotpath".into(), Value::Arr(hotpath)),
    ]);
    serde_json::to_string_pretty(&doc).expect("render bench-engine json")
}

/// Every figure id the harness knows.
pub const ALL_TARGETS: [&str; 30] = [
    "table1",
    "fig4",
    "fig6",
    "fig7",
    "fig8",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17a",
    "fig17b",
    "fig17c",
    "fig17d",
    "claims",
    "validate",
    "scaling",
    "crossover",
    "multicore",
    "collectives",
    "profiles",
    "insights",
    "loss",
    "sweep-size",
    "sweep-ranks",
    "sweep-threads",
    "trace",
    "metrics",
];

/// Run one target by name.
pub fn run_target(name: &str, scale: Scale) -> String {
    match name {
        "table1" => table1(),
        "fig4" => fig4(),
        "fig6" => fig6(scale),
        "fig7" => fig7(scale),
        "fig8" => fig8(),
        "fig10" => fig10(scale),
        "fig11" => fig11(),
        "fig12" => fig12(),
        "fig13" => fig13(),
        "fig14" => fig14(),
        "fig15" => fig15(),
        "fig16" => fig16(),
        "fig17a" => fig17('a'),
        "fig17b" => fig17('b'),
        "fig17c" => fig17('c'),
        "fig17d" => fig17('d'),
        "claims" => claims(),
        "validate" => validation(scale),
        "scaling" => ext_scaling(),
        "crossover" => ext_crossover(),
        "multicore" => ext_multicore(),
        "collectives" => ext_collectives(scale),
        "profiles" => ext_profiles(),
        "insights" => ext_insights(),
        "loss" => ext_loss(scale),
        "sweep-size" => ext_sweep_size(scale),
        "sweep-ranks" => ext_sweep_ranks(scale),
        "sweep-threads" => ext_sweep_threads(scale),
        "trace" => ext_trace(scale),
        "metrics" => ext_metrics(scale),
        other => panic!("unknown target {other}; known: {ALL_TARGETS:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_target_renders_nonempty() {
        for t in ALL_TARGETS {
            let out = run_target(t, Scale::Quick);
            assert!(!out.trim().is_empty(), "target {t} rendered nothing");
        }
    }

    #[test]
    fn table1_has_the_calibrated_totals() {
        let t = table1();
        assert!(t.contains("175.42"));
        assert!(t.contains("382.81"));
    }

    #[test]
    fn fig17_panels_render_all_lines() {
        assert!(fig17('a').contains("LLP_post"));
        assert!(fig17('b').contains("HLP_rx_prog"));
        assert!(fig17('c').contains("Integrated NIC"));
        assert!(fig17('d').contains("Switch"));
    }

    #[test]
    fn claims_all_hold() {
        let c = claims();
        assert!(!c.contains("FAIL"), "{c}");
    }

    #[test]
    fn validation_quick_passes() {
        let v = validation(Scale::Quick);
        assert!(!v.contains("FAIL"), "{v}");
    }

    #[test]
    fn zero_fault_trace_target_is_bit_exact() {
        let out = ext_trace(Scale::Quick);
        assert!(out.contains("sequential slice sum vs model"), "{out}");
        assert!(
            out.contains("DAG critical path vs one-message model"),
            "{out}"
        );
        assert!(!out.contains("MISMATCH"), "{out}");
    }

    #[test]
    fn traced_put_bw_diffs_clean_against_the_fault_engine() {
        let out = ext_trace_bench("put_bw", Scale::Quick);
        assert!(out.contains("critical path"), "{out}");
        assert!(out.contains("hidden"), "{out}");
        assert!(out.contains("trace-diff: OK"), "{out}");
    }

    #[test]
    fn every_trace_bench_renders() {
        for b in TRACE_BENCHES {
            let out = ext_trace_bench(b, Scale::Quick);
            assert!(!out.trim().is_empty(), "bench {b} rendered nothing");
            assert!(!out.contains("trace-diff: MISMATCH"), "bench {b}:\n{out}");
        }
    }

    #[test]
    fn metrics_target_renders_spiked_quantiles_on_the_clean_plan() {
        let out = ext_metrics(Scale::Quick);
        assert!(out.contains("p99.9"), "{out}");
        assert!(out.contains("e2e_latency"), "{out}");
        for name in bband_core::tracepath::FIG13_SLICES {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert!(out.contains("completed 256/256 messages"), "{out}");
        // Deterministic: two invocations render the same bytes.
        assert_eq!(out, ext_metrics(Scale::Quick));
    }

    #[test]
    fn metrics_json_artifact_is_deterministic_and_parses() {
        let a = metrics_json_string(Scale::Quick);
        assert_eq!(a, metrics_json_string(Scale::Quick));
        let v = serde_json::from_str::<serde_json::Value>(&a).unwrap();
        assert!(v
            .get("stages")
            .and_then(|s| s.as_array())
            .is_some_and(|s| s.len() >= 10));
    }

    #[test]
    fn multicore_trace_bench_exposes_credit_waits() {
        let out = ext_trace_bench("multicore", Scale::Quick);
        assert!(out.contains("credit_wait"), "{out}");
        assert!(
            out.contains("recovery (credit waits / stall windows)"),
            "{out}"
        );
        // Congested regime: deliberately not diffed against the engine.
        assert!(!out.contains("trace-diff"), "{out}");
    }

    #[test]
    fn multicore_trace_bench_attributes_lock_waits() {
        // 8 threads over 4 per-endpoint-locked endpoints: the exposed
        // lock serialization is a first-class attributed stage next to
        // the credit stalls.
        let out = ext_trace_bench("multicore", Scale::Quick);
        assert!(out.contains("lock_wait"), "{out}");
    }

    #[test]
    fn osu_trace_diff_covers_the_aggregate_hlp_stages() {
        let out = ext_trace_bench("osu", Scale::Quick);
        assert!(out.contains("HLP_post"), "{out}");
        assert!(out.contains("HLP_rx_prog"), "{out}");
        assert!(out.contains("trace-diff: OK"), "{out}");
    }

    #[test]
    fn every_metric_bench_renders_quantiles() {
        for (b, stage) in [
            ("put_bw", "put_bw_iter"),
            ("am_lat", "am_lat_iter"),
            ("osu", "osu_iter"),
        ] {
            let out = ext_metrics_bench(b, Scale::Quick);
            assert!(out.contains("p99.9"), "bench {b}:\n{out}");
            assert!(out.contains(stage), "bench {b} missing {stage}:\n{out}");
            // Deterministic: the registry records on the virtual clock.
            assert_eq!(out, ext_metrics_bench(b, Scale::Quick), "bench {b}");
        }
    }

    #[test]
    fn sweep_size_target_crosses_protocols_and_passes_the_fault_check() {
        let out = ext_sweep_size(Scale::Quick);
        assert!(out.contains("eager"), "{out}");
        assert!(out.contains("rendezvous"), "{out}");
        assert!(out.contains("crossover at"), "{out}");
        assert!(out.contains("fault-check: OK"), "{out}");
        // Deterministic: virtual clock + per-task RNG streams.
        assert_eq!(out, ext_sweep_size(Scale::Quick));
    }

    #[test]
    fn sweep_ranks_target_covers_both_topologies_and_the_gate() {
        let out = ext_sweep_ranks(Scale::Quick);
        assert!(out.contains("-- fat-tree"), "{out}");
        assert!(out.contains("-- dragonfly"), "{out}");
        assert!(out.contains("allreduce-ring"), "{out}");
        assert!(out.contains("2-node equivalence: OK"), "{out}");
        assert_eq!(out, ext_sweep_ranks(Scale::Quick), "reruns are identical");
        // Smoke and Quick share the grid: CI regenerates the committed
        // artifact at quick scale and smoke-checks it byte-for-byte.
        assert_eq!(
            rank_sweep_shape(Scale::Smoke),
            rank_sweep_shape(Scale::Quick)
        );
    }

    #[test]
    fn sweep_ranks_json_artifact_is_deterministic_and_schema_tagged() {
        let a = sweep_ranks_json_string(Scale::Quick);
        assert_eq!(a, sweep_ranks_json_string(Scale::Quick));
        assert!(a.contains("bband/sweep-ranks/v1"), "{a}");
        let v = serde_json::from_str::<Value>(&a).unwrap();
        assert_eq!(
            v.get("two_node")
                .and_then(|t| t.get("exact"))
                .and_then(|b| b.as_bool()),
            Some(true),
            "the 2-node gate must hold in the artifact"
        );
    }

    #[test]
    fn sweep_threads_target_renders_all_curves_and_gates() {
        let out = ext_sweep_threads(Scale::Quick);
        assert!(out.contains("-- shared (lock: global)"), "{out}");
        assert!(out.contains("-- per-endpoint"), "{out}");
        assert!(out.contains("-- independent"), "{out}");
        assert!(out.contains("1-thread equivalence: OK"), "{out}");
        assert!(out.contains("SCALABLE"), "{out}");
        assert!(!out.contains("NOT SCALABLE"), "{out}");
        // Pooled cells share nothing: reruns are byte-identical (the
        // pooled == --serial determinism CI asserts).
        assert_eq!(out, ext_sweep_threads(Scale::Quick), "reruns identical");
    }

    #[test]
    fn sweep_threads_json_artifact_holds_every_gate() {
        let a = sweep_threads_json_string(Scale::Quick);
        assert_eq!(a, sweep_threads_json_string(Scale::Quick));
        assert!(a.contains("bband/sweep-threads/v1"), "{a}");
        let v = serde_json::from_str::<Value>(&a).unwrap();
        assert_eq!(
            v.get("baseline")
                .and_then(|b| b.get("bit_exact"))
                .and_then(|b| b.as_bool()),
            Some(true),
            "the 1-thread point must be bit-exact vs the multicore path"
        );
        let zambre = v.get("zambre").unwrap();
        assert_eq!(zambre.get("scalable").and_then(|b| b.as_bool()), Some(true));
        assert!(
            zambre.get("ratio").and_then(|r| r.as_f64()).unwrap() >= 4.0,
            "independent VIs must deliver >=4x the locked-endpoint rate"
        );
        // Grid: 3 curves x 4 thread counts at quick scale.
        let points = v.get("points").and_then(|p| p.as_array()).unwrap();
        assert_eq!(points.len(), 12);
        // Monotone ordering at 8 threads: independent >= per-endpoint >=
        // global — Zambre's lock-granularity spectrum.
        let rate = |curve: &str| {
            points
                .iter()
                .find(|p| {
                    p.get("curve").and_then(|c| c.as_str()) == Some(curve)
                        && p.get("threads").and_then(|t| t.as_u64()) == Some(8)
                })
                .and_then(|p| p.get("rate_per_us"))
                .and_then(|r| r.as_f64())
                .unwrap()
        };
        let (shared, per_ep, indep) = (rate("shared"), rate("per-endpoint"), rate("independent"));
        assert!(
            indep >= per_ep && per_ep >= shared,
            "rate ordering violated at 8 threads: {indep} vs {per_ep} vs {shared}"
        );
        // The independent curve records no lock traffic at all.
        for p in points {
            if p.get("curve").and_then(|c| c.as_str()) == Some("independent") {
                assert_eq!(p.get("lock_acquisitions").and_then(|a| a.as_u64()), Some(0));
                assert_eq!(p.get("lock_wait_ns").and_then(|w| w.as_f64()), Some(0.0));
            }
        }
    }

    #[test]
    fn windowed_metrics_renders_per_window_rows() {
        let out = ext_metrics_windowed(Scale::Quick, 6);
        assert!(out.contains("windows of e2e_latency"), "{out}");
        assert!(out.contains("6 virtual-time windows"), "{out}");
        assert_eq!(out, ext_metrics_windowed(Scale::Quick, 6));
        // The aggregate table still leads the windowed view.
        assert!(out.contains("p99.9"), "{out}");
    }

    #[test]
    fn sweep_size_json_artifact_is_deterministic_and_schema_tagged() {
        let a = sweep_size_json_string(Scale::Quick);
        assert_eq!(a, sweep_size_json_string(Scale::Quick));
        assert!(a.contains("bband/sweep-size/v1"), "{a}");
        let v = serde_json::from_str::<serde_json::Value>(&a).unwrap();
        assert!(v
            .get("points")
            .and_then(|p| p.as_array())
            .is_some_and(|p| p.len() == 4));
        assert_eq!(
            v.get("fault_check")
                .and_then(|f| f.get("identical"))
                .and_then(|b| b.as_bool()),
            Some(true)
        );
    }

    #[test]
    fn bench_engine_smoke_is_identical_on_both_paths() {
        let json = bench_engine_json(Scale::Smoke);
        assert!(json.contains("bband/bench-engine/v1"), "{json}");
        assert!(json.contains("\"smoke\""), "{json}");
        for sweep in [
            "loss",
            "whatif",
            "metrics",
            "sweep-ranks",
            "sweep-ranks-telemetry",
        ] {
            assert!(json.contains(&format!("\"{sweep}\"")), "{json}");
        }
        for case in ["fault_free", "loss_1e-3", "markov_stall", "sized"] {
            assert!(json.contains(&format!("\"{case}\"")), "{json}");
        }
        // Every fast-vs-reference comparison must be byte-identical.
        // (`overhead_ok` is a timing bound, not an identity check — it
        // belongs to the CI bench-smoke gate, which runs on a quiet
        // runner; a loaded test box must not fail the identity test.)
        assert!(
            !json.contains("\"identical\": false"),
            "fast path diverged:\n{json}"
        );
    }

    #[test]
    fn trace_bench_chrome_json_is_deterministic_and_has_flows() {
        let a = trace_bench_chrome_json("put_bw", Scale::Quick);
        let b = trace_bench_chrome_json("put_bw", Scale::Quick);
        assert_eq!(a, b);
        assert!(
            a.contains("\"ph\": \"s\""),
            "stage edges must export as flows"
        );
        assert!(a.contains("\"ph\": \"f\""));
    }
}
