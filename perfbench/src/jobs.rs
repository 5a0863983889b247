//! The jobs of the four workloads: what each one calls, how many
//! simulated messages it carries, and the canonical line of simulated
//! results that feeds the workload digest.

use bband_cluster::{
    dragonfly_for, fat_tree_for, run_flow_collective, ClusterFabric, EndpointCosts, FlowCollective,
    FlowCounters, FlowReport, TelemetryConfig,
};
use bband_core::fault::{self, EnginePath, FaultPlan, FaultRunStats, GilbertElliott, MarkovStall};
use bband_core::Calibration;
use bband_llp::LockGranularity;
use bband_microbench::{
    am_lat, endpoint_injection, osu_latency, osu_message_rate, put_bw, AmLatConfig, OsuLatConfig,
    OsuMrConfig, PutBwConfig, StackConfig, ThreadSweepConfig,
};
use bband_profiling::profiler::UCS_OVERHEAD_MEAN_NS;
use bband_sim::Pcg64;
use std::fmt::Write as _;

/// Messages each thread posts in the `endpoint_injection` grid.
pub const EP_MSGS_PER_THREAD: u64 = 500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StackLive,
    FaultLoss,
    CollectiveRing,
    CollectiveLatency,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StackLive,
        Workload::FaultLoss,
        Workload::CollectiveRing,
        Workload::CollectiveLatency,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StackLive => "stack-live",
            Workload::FaultLoss => "fault-loss",
            Workload::CollectiveRing => "collective-ring",
            Workload::CollectiveLatency => "collective-latency",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_collective(self) -> bool {
        matches!(self, Workload::CollectiveRing | Workload::CollectiveLatency)
    }
}

/// Which simulated two-node stack a live job runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// `StackConfig::validation()`: jitter-free hardware and software.
    Validation,
    /// `StackConfig::default()`: calibrated jitter and OS noise.
    Jittered,
}

impl Stack {
    pub fn config(self, seed: u64) -> StackConfig {
        let mut s = match self {
            Stack::Validation => StackConfig::validation(),
            Stack::Jittered => StackConfig::default(),
        };
        s.seed = seed;
        s
    }

    fn name(self) -> &'static str {
        match self {
            Stack::Validation => "validation",
            Stack::Jittered => "jittered",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Micro {
    AmLat,
    PutBw,
    OsuLat,
    OsuMr,
}

/// Fault-engine job classes; each class gets a comparable share of the
/// timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    FaultFree,
    Loss,
    Burst,
    Markov,
    Sized,
}

impl FaultClass {
    pub const ALL: [FaultClass; 5] = [
        FaultClass::FaultFree,
        FaultClass::Loss,
        FaultClass::Burst,
        FaultClass::Markov,
        FaultClass::Sized,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FaultClass::FaultFree => "fault_free",
            FaultClass::Loss => "loss",
            FaultClass::Burst => "burst",
            FaultClass::Markov => "markov",
            FaultClass::Sized => "sized",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    FatTree,
    Dragonfly,
}

impl Topo {
    fn name(self) -> &'static str {
        match self {
            Topo::FatTree => "fat-tree",
            Topo::Dragonfly => "dragonfly",
        }
    }
}

#[derive(Debug, Clone)]
pub enum Job {
    Micro {
        bench: Micro,
        stack: Stack,
        seed: u64,
        /// Iterations (latency tests), messages (`put_bw`) or windows
        /// (`osu_message_rate`).
        size: u64,
    },
    Endpoint {
        threads: u32,
        endpoints: u32,
        lock: LockGranularity,
        stack: Stack,
        seed: u64,
    },
    Fault {
        class: FaultClass,
        plan: FaultPlan,
        messages: u64,
        seed: u64,
    },
    Collective {
        /// Index of the job's fabric in [`Env::fabrics`].
        fabric: usize,
        topo: Topo,
        ranks: u32,
        coll: FlowCollective,
    },
}

fn lock_name(lock: LockGranularity) -> &'static str {
    match lock {
        LockGranularity::GlobalLock => "global",
        LockGranularity::PerEndpointLock => "per_endpoint",
        LockGranularity::Independent => "independent",
    }
}

impl Job {
    /// The host-span name of the layer call this job makes; per-layer
    /// timings aggregate by it.
    pub fn span_name(&self) -> &'static str {
        match self {
            Job::Micro { bench, .. } => match bench {
                Micro::AmLat => "microbench.am_lat",
                Micro::PutBw => "microbench.put_bw",
                Micro::OsuLat => "microbench.osu_lat",
                Micro::OsuMr => "microbench.osu_mr",
            },
            Job::Endpoint { lock, .. } => match lock {
                LockGranularity::GlobalLock => "microbench.endpoint_injection.global",
                LockGranularity::PerEndpointLock => "microbench.endpoint_injection.per_endpoint",
                LockGranularity::Independent => "microbench.endpoint_injection.independent",
            },
            Job::Fault { class, .. } => match class {
                FaultClass::FaultFree => "core.fault.fault_free",
                FaultClass::Loss => "core.fault.loss",
                FaultClass::Burst => "core.fault.burst",
                FaultClass::Markov => "core.fault.markov",
                FaultClass::Sized => "core.fault.sized",
            },
            Job::Collective { coll, .. } => match coll {
                FlowCollective::Barrier => "cluster.collective.barrier",
                FlowCollective::Bcast { .. } => "cluster.collective.bcast",
                FlowCollective::AllreduceRd { .. } => "cluster.collective.rd",
                FlowCollective::AllreduceRing { .. } => "cluster.collective.ring",
            },
        }
    }

    /// The job's configuration, as printed with a failure.
    pub fn describe(&self) -> String {
        match self {
            Job::Micro {
                bench,
                stack,
                seed,
                size,
            } => format!(
                "{bench:?} size={size} stack={} seed={seed:#x}",
                stack.name()
            ),
            Job::Endpoint {
                threads,
                endpoints,
                lock,
                stack,
                seed,
            } => format!(
                "endpoint_injection threads={threads} endpoints={endpoints} lock={} stack={} seed={seed:#x}",
                lock_name(*lock),
                stack.name()
            ),
            Job::Fault {
                class,
                plan,
                messages,
                seed,
            } => format!(
                "fault {} loss={} messages={messages} seed={seed:#x}",
                class.name(),
                plan.loss_probability
            ),
            Job::Collective {
                topo, ranks, coll, ..
            } => format!("{} {} ranks={ranks} {coll:?}", topo.name(), coll.name()),
        }
    }
}

/// Set-up products the jobs run against.
pub struct Env {
    pub cal: Calibration,
    /// One fabric per (topology, ranks) a collective workload uses,
    /// reused across jobs (`run_flow_collective` resets its transients).
    pub fabrics: Vec<ClusterFabric>,
    /// Whether this workload runs its collectives with telemetry on.
    pub telemetry: bool,
    /// The fabric the `cluster.flow.send_ns` kernel drives.
    pub kernel_fabric: ClusterFabric,
}

/// What one completed job reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Simulated point-to-point messages the job carried.
    pub messages: u64,
    /// Canonical simulated results (digest input).
    pub line: String,
    pub counts: Counts,
    /// Largest relative error against the paper's measured value, for
    /// jobs that have one.
    pub paper_err: Option<f64>,
    /// Correctness checks that failed inside the job.
    pub check_failures: Vec<String>,
    /// Full fault-engine stats, kept for the fast-vs-reference check.
    pub fault_stats: Option<FaultRunStats>,
    /// Flow report, kept for the telemetry on/off check.
    pub flow: Option<FlowReport>,
}

/// Layer counters a job reports (summed per round).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub busy_posts: u64,
    pub lock_contended: u64,
    pub lock_wait_ps: u64,
    pub tlps: u64,
    pub put_bw_msgs: u64,
    pub rc_retransmissions: u64,
    pub rc_timeouts: u64,
    pub dll_replays: u64,
    pub credit_stalls: u64,
    pub nic_stalls: u64,
    pub fault_posted: u64,
    pub fault_completed: u64,
    pub flow: FlowCounters,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.busy_posts += o.busy_posts;
        self.lock_contended += o.lock_contended;
        self.lock_wait_ps += o.lock_wait_ps;
        self.tlps += o.tlps;
        self.put_bw_msgs += o.put_bw_msgs;
        self.rc_retransmissions += o.rc_retransmissions;
        self.rc_timeouts += o.rc_timeouts;
        self.dll_replays += o.dll_replays;
        self.credit_stalls += o.credit_stalls;
        self.nic_stalls += o.nic_stalls;
        self.fault_posted += o.fault_posted;
        self.fault_completed += o.fault_completed;
        self.flow.messages += o.flow.messages;
        self.flow.contended += o.flow.contended;
        self.flow.credit_waits += o.flow.credit_waits;
        self.flow.ecn_marks += o.flow.ecn_marks;
        self.flow.ecn_backoffs += o.flow.ecn_backoffs;
    }
}

/// The paper's measured values (§4–§6) the live stack is compared with.
pub const PAPER_LLP_INJECTION_NS: f64 = 282.33;
pub const PAPER_LLP_LATENCY_NS: f64 = 1190.25;
pub const PAPER_OVERALL_INJECTION_NS: f64 = 263.91;
pub const PAPER_E2E_LATENCY_NS: f64 = 1336.0;

fn rel_err(simulated: f64, measured: f64) -> f64 {
    (simulated - measured).abs() / measured
}

/// Run one job. `spans` times the layer calls only: formatting the
/// digest line is the benchmark's own work and stays outside them.
pub fn run(job: &Job, env: &mut Env, spans: &mut crate::spans::Spans, job_id: u32) -> Outcome {
    let mut out = Outcome::default();
    let name = job.span_name();
    match job {
        Job::Micro {
            bench,
            stack,
            seed,
            size,
        } => {
            let stack = stack.config(*seed);
            match bench {
                Micro::AmLat => {
                    let cfg = AmLatConfig {
                        stack,
                        iterations: *size,
                        warmup: 16,
                        buffer_samples: false,
                    };
                    let r = spans.time(name, job_id, || am_lat(&cfg));
                    let mean = r.observed.summary().mean - UCS_OVERHEAD_MEAN_NS / 2.0;
                    out.messages = 2 * (cfg.warmup + cfg.iterations);
                    out.paper_err = Some(rel_err(mean, PAPER_LLP_LATENCY_NS));
                    out.line = format!("am_lat mean_ns={mean:?}");
                }
                Micro::PutBw => {
                    let cfg = PutBwConfig {
                        stack,
                        messages: *size,
                        buffer_samples: false,
                        ..Default::default()
                    };
                    let r = spans.time(name, job_id, || put_bw(&cfg));
                    let mean = r.observed.summary().mean;
                    out.messages = cfg.warmup + cfg.messages;
                    out.counts.tlps = r.analyzer.len() as u64;
                    out.counts.put_bw_msgs = cfg.messages;
                    out.paper_err = Some(rel_err(mean, PAPER_LLP_INJECTION_NS));
                    out.line = format!(
                        "put_bw mean_ns={mean:?} tlps={} busy={:?}",
                        r.analyzer.len(),
                        r.busy_fraction
                    );
                }
                Micro::OsuLat => {
                    let cfg = OsuLatConfig {
                        stack,
                        iterations: *size,
                        warmup: 16,
                        buffer_samples: false,
                    };
                    let r = spans.time(name, job_id, || osu_latency(&cfg));
                    let mean = r.observed.summary().mean - UCS_OVERHEAD_MEAN_NS / 2.0;
                    out.messages = 2 * (cfg.warmup + cfg.iterations);
                    out.paper_err = Some(rel_err(mean, PAPER_E2E_LATENCY_NS));
                    out.line = format!("osu_latency mean_ns={mean:?}");
                }
                Micro::OsuMr => {
                    let cfg = OsuMrConfig {
                        stack,
                        windows: *size as u32,
                        ..Default::default()
                    };
                    let r = spans.time(name, job_id, || osu_message_rate(&cfg));
                    let inj = r.inj_overhead.as_ns_f64();
                    out.messages = cfg.window as u64 * (cfg.windows as u64 + 1);
                    out.paper_err = Some(rel_err(inj, PAPER_OVERALL_INJECTION_NS));
                    out.line = format!(
                        "osu_message_rate inj_ps={} busy={:?}",
                        r.inj_overhead.as_ps(),
                        r.busy_per_msg
                    );
                }
            }
        }
        Job::Endpoint {
            threads,
            endpoints,
            lock,
            stack,
            seed,
        } => {
            let cfg = ThreadSweepConfig {
                stack: stack.config(*seed),
                threads: *threads,
                endpoints: *endpoints,
                lock: *lock,
                messages_per_thread: EP_MSGS_PER_THREAD,
                ..Default::default()
            };
            let r = spans.time(name, job_id, || endpoint_injection(&cfg));
            out.messages = EP_MSGS_PER_THREAD * *threads as u64;
            out.counts.busy_posts = r.busy_posts;
            out.counts.lock_contended = r.lock_contended;
            out.counts.lock_wait_ps = r.lock_wait_time.as_ps();
            out.line = format!(
                "overhead_ps={} rate={:?} busy={} lock={}/{} wait_ps={} stalled={}",
                r.per_thread_overhead.as_ps(),
                r.aggregate_rate_per_us,
                r.busy_posts,
                r.lock_contended,
                r.lock_acquisitions,
                r.lock_wait_time.as_ps(),
                r.rc_stalled
            );
        }
        Job::Fault {
            plan,
            messages,
            seed,
            ..
        } => {
            let cal = &env.cal;
            let r = spans.time(name, job_id, || {
                fault::run_e2e_under_faults_on(EnginePath::Fast, cal, plan, *messages, *seed)
            });
            match r {
                Ok(s) => {
                    out.messages = s.messages;
                    let c = &s.counters;
                    out.counts.rc_retransmissions = c.rc_retransmissions;
                    out.counts.rc_timeouts = c.rc_timeouts;
                    out.counts.dll_replays = c.dll_replays;
                    out.counts.credit_stalls = c.credit_stalls;
                    out.counts.nic_stalls = c.nic_stalls;
                    out.counts.fault_posted = s.messages;
                    out.counts.fault_completed = s.completed;
                    out.line = format!(
                        "completed={}/{} mean={:?} min={:?} max={:?} {}",
                        s.completed,
                        s.messages,
                        s.mean_ns,
                        s.min_ns,
                        s.max_ns,
                        c.render_compact()
                    );
                    out.fault_stats = Some(s);
                }
                Err(e) => {
                    out.check_failures.push(format!("aborted: {e}"));
                    out.line = format!("aborted {e}");
                }
            }
        }
        Job::Collective {
            fabric,
            ranks,
            coll,
            ..
        } => {
            let fab = &mut env.fabrics[*fabric];
            let costs = EndpointCosts::paper_default();
            let r = spans.time(name, job_id, || {
                run_flow_collective(fab, *ranks, *coll, costs)
            });
            out.messages = r.messages;
            out.counts.flow = fab.counters;
            out.flow = Some(r);
            let _ = write!(
                out.line,
                "completion_ps={} rounds={} messages={} bisection={} contended={} credit={} ecn={}",
                r.completion.as_ps(),
                r.rounds,
                r.messages,
                r.bisection_bytes,
                fab.counters.contended,
                fab.counters.credit_waits,
                fab.counters.ecn_marks
            );
            if env.telemetry {
                let fab = &env.fabrics[*fabric];
                let tel = fab.telemetry().expect("telemetry was enabled in set-up");
                let rep = spans.time("cluster.telemetry.summarize", job_id, || {
                    tel.summarize(&fab.graph, &fab.counters)
                });
                if !rep.conservation.exact() {
                    out.check_failures
                        .push(format!("telemetry conservation: {:?}", rep.conservation));
                }
                let _ = write!(
                    out.line,
                    " tel windows={} saturated={} queue_ps={} credit_ps={}",
                    rep.windows, rep.saturated_links, rep.totals.queue_ps, rep.totals.credit_ps
                );
            }
        }
    }
    out
}

/// Draw a per-job seed from the workload seed.
fn job_seed(rng: &mut Pcg64) -> u64 {
    rng.next_u64() | 1
}

/// Fault plans of the `fault-loss` workload with their message counts,
/// sized so each class takes a comparable share of host time.
fn fault_jobs(rng: &mut Pcg64) -> Vec<Job> {
    let mut jobs = Vec::new();
    let mut push = |class: FaultClass, plan: FaultPlan, messages: u64, rng: &mut Pcg64| {
        jobs.push(Job::Fault {
            class,
            plan,
            messages,
            seed: job_seed(rng),
        })
    };
    // Host cost per message spans three orders of magnitude (a fault-free
    // 8 B message replays in tens of ns, the sized cycle averages tens of
    // µs), so message counts differ per class to keep shares similar.
    // Classes are split into jobs of at most 600k messages: the engine's
    // memory grows with the message count, and the reference-path check
    // re-runs one job per class.
    for _ in 0..8 {
        push(FaultClass::FaultFree, FaultPlan::none(), 400_000, rng);
    }
    for (p, messages) in [(1e-4, 600_000), (1e-3, 400_000), (1e-2, 150_000)] {
        let mut plan = FaultPlan::none();
        plan.loss_probability = p;
        for _ in 0..2 {
            push(FaultClass::Loss, plan.clone(), messages, rng);
        }
    }
    let mut burst = FaultPlan::none();
    burst.burst_loss = Some(GilbertElliott {
        p_good_to_bad: 1e-3,
        p_bad_to_good: 0.3,
        loss_good: 0.0,
        loss_bad: 0.5,
    });
    let mut markov = FaultPlan::none();
    markov.markov_stall = Some(MarkovStall {
        mean_up_ns: 20_000.0,
        mean_down_ns: 1_000.0,
    });
    // At 1e-3 a lost segment of a 1 MiB message replays up to 256
    // segments, and the per-job host time swung ±25% with the seed; at
    // 1e-4 loss still engages and the swing is about ±5%.
    let mut sized = FaultPlan::none();
    sized.loss_probability = 1e-4;
    sized.payload_cycle = vec![8, 256, 4096, 65_536, 1 << 20];
    for _ in 0..8 {
        push(FaultClass::Burst, burst.clone(), 125_000, rng);
        push(FaultClass::Markov, markov.clone(), 125_000, rng);
        push(FaultClass::Sized, sized.clone(), 1_000, rng);
    }
    jobs
}

/// The job list of `workload`, generated from `seed`, plus the fabrics
/// the collective jobs index into (as (topology, ranks) to build).
pub fn workload_jobs(workload: Workload, seed: u64) -> (Vec<Job>, Vec<(Topo, u32)>) {
    let mut rng = Pcg64::new(seed);
    let mut fabrics = Vec::new();
    let mut jobs = Vec::new();
    match workload {
        Workload::StackLive => {
            for (bench, size) in [
                (Micro::AmLat, 2_000),
                (Micro::PutBw, 20_000),
                (Micro::OsuLat, 2_000),
                (Micro::OsuMr, 40),
            ] {
                jobs.push(Job::Micro {
                    bench,
                    stack: Stack::Jittered,
                    seed: job_seed(&mut rng),
                    size,
                });
            }
            for stack in [Stack::Validation, Stack::Jittered] {
                for threads in 1..=8u32 {
                    for endpoints in 1..=threads {
                        for lock in [
                            LockGranularity::GlobalLock,
                            LockGranularity::PerEndpointLock,
                            LockGranularity::Independent,
                        ] {
                            jobs.push(Job::Endpoint {
                                threads,
                                endpoints,
                                lock,
                                stack,
                                seed: job_seed(&mut rng),
                            });
                        }
                    }
                }
            }
        }
        Workload::FaultLoss => jobs = fault_jobs(&mut rng),
        Workload::CollectiveRing | Workload::CollectiveLatency => {
            let (ranks, colls): (&[u32], Vec<FlowCollective>) =
                if workload == Workload::CollectiveRing {
                    // Payloads vary per job around 4 KiB and 64 KiB.
                    let mut colls = Vec::new();
                    for base in [4096u32, 65_536] {
                        let bytes = base + 8 * rng.next_below(base as u64 / 64) as u32;
                        colls.push(FlowCollective::AllreduceRing { bytes });
                    }
                    (&[512, 1024], colls)
                } else {
                    // At 4096 ranks the jobs' host time swung ±25% with
                    // other tenants' memory traffic.
                    (
                        &[512, 1024, 2048],
                        vec![
                            FlowCollective::Barrier,
                            FlowCollective::Bcast { bytes: 8 },
                            FlowCollective::AllreduceRd { bytes: 8 },
                            FlowCollective::AllreduceRd { bytes: 4096 },
                        ],
                    )
                };
            for &r in ranks {
                for topo in [Topo::FatTree, Topo::Dragonfly] {
                    let fabric = fabrics.len();
                    fabrics.push((topo, r));
                    for &coll in &colls {
                        jobs.push(Job::Collective {
                            fabric,
                            topo,
                            ranks: r,
                            coll,
                        });
                    }
                }
            }
        }
    }
    // On the collective workloads the seed fixes the job order too
    // (Fisher–Yates). Their memory is the set-up fabrics; elsewhere jobs
    // allocate per run, and the order moved the peak RSS of `fault-loss`
    // by up to 20%, so it stays fixed there.
    if workload.is_collective() {
        for i in (1..jobs.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            jobs.swap(i, j);
        }
    }
    (jobs, fabrics)
}

/// Build one fabric of a collective workload.
pub fn build_fabric(topo: Topo, ranks: u32, telemetry: bool) -> ClusterFabric {
    let graph = match topo {
        Topo::FatTree => fat_tree_for(ranks),
        Topo::Dragonfly => dragonfly_for(ranks),
    };
    let mut fab = ClusterFabric::paper_default(graph);
    if telemetry {
        fab.enable_telemetry(TelemetryConfig::paper_default());
    }
    fab
}
