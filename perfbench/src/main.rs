//! Host-cost benchmark of the Breaking Band simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload's jobs in this process on one thread, repeating the
//! job list in rounds. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` is the separate traced pass that prints the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`
//! beside this package for the workloads and metrics.

mod checks;
mod jobs;
mod kernels;
mod spans;

use bband_metrics as metrics;
use bband_sim::{Jitter, Pcg64, SimDuration};
use bband_trace as trace;
use jobs::{Env, Job, Outcome, Workload};
use kernels::median;
use spans::Spans;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Fewest timed rounds per run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Program trace ring per job in the counting round. Spans beyond it are
/// still counted (ring drops + the metrics registry's per-name counts).
const TRACE_RING: usize = 1 << 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Timed rounds for a run of `seconds`. The count depends on `--seconds`
/// and a fixed nominal round length (host seconds of one round on a
/// 2-core Xeon VM), never on how fast this build runs, so every commit
/// takes each job's fastest of the same number of rounds.
fn rounds_for(w: Workload, seconds: f64) -> usize {
    let nominal_round_s = match w {
        Workload::StackLive => 1.0,
        Workload::FaultLoss => 1.0,
        Workload::CollectiveRing => 1.2,
        Workload::CollectiveLatency => 0.15,
    };
    ((seconds / nominal_round_s).round() as usize).max(MIN_ROUNDS)
}

thread_local! {
    static LAST_PANIC: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Panics are expected (jobs that crash count as failed): keep the
/// message for the failure line instead of printing it to stderr.
fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        LAST_PANIC.with(|p| *p.borrow_mut() = info.to_string());
    }));
}

/// Run one job under `catch_unwind`; the job's open spans are closed if
/// it unwinds. `Err` carries the panic message.
fn run_guarded(job: &Job, env: &mut Env, spans: &mut Spans, id: u32) -> Result<Outcome, String> {
    let depth = spans.depth();
    let r = catch_unwind(AssertUnwindSafe(|| jobs::run(job, env, spans, id)));
    spans.close_to(depth);
    r.map_err(|_| LAST_PANIC.with(|p| p.borrow().replace('\n', " ")))
}

/// Everything set-up builds before the first timed job.
fn setup(workload: Workload, seed: u64, fabrics: &[(jobs::Topo, u32)]) -> Env {
    let cal = bband_core::Calibration::default();
    // The two-node clusters every live job builds, and the jitter tables
    // their cost models sample from.
    for stack in [jobs::Stack::Validation, jobs::Stack::Jittered] {
        std::hint::black_box(stack.config(seed).build_cluster());
    }
    let mut rng = Pcg64::new(seed);
    for j in [Jitter::cpu_default(), Jitter::hw_default()] {
        std::hint::black_box(j.sample(SimDuration::from_ns(100), &mut rng));
    }
    let telemetry = workload == Workload::CollectiveLatency;
    Env {
        cal,
        fabrics: fabrics
            .iter()
            .map(|&(t, r)| jobs::build_fabric(t, r, telemetry))
            .collect(),
        telemetry,
        kernel_fabric: kernels::flow_kernel_fabric(),
    }
}

/// One pass over the job list: per-job host ns and outcomes.
struct Round {
    job_ns: Vec<u64>,
    outcomes: Vec<Result<Outcome, String>>,
}

fn run_round(jobs: &[Job], env: &mut Env, spans: &mut Spans) -> Round {
    let mut job_ns = Vec::with_capacity(jobs.len());
    let mut outcomes = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let t = Instant::now();
        let s = spans.enter("job", i as u32);
        let r = run_guarded(job, env, spans, i as u32);
        spans.exit(s);
        job_ns.push(t.elapsed().as_nanos() as u64);
        outcomes.push(r);
    }
    Round { job_ns, outcomes }
}

/// A job's host ns: its fastest round. Interference from other tenants
/// of the machine only ever adds time; on a 2-core VM it moved the
/// median-based figure by about ±10% between runs of one seed where the
/// minimum-based one moved about ±3%. Slowdowns lasting longer than a run
/// still show.
fn job_ns(rounds: &[Round], j: usize) -> f64 {
    rounds
        .iter()
        .map(|r| r.job_ns[j] as f64)
        .fold(f64::INFINITY, f64::min)
}

/// Failures found so far, one entry per failed job (first reason).
#[derive(Default)]
struct Failures {
    by_job: Vec<(usize, String)>,
    /// Checks that found a wrong result (a crash is not one).
    wrong: usize,
}

impl Failures {
    fn add(&mut self, job: usize, reason: String, wrong: bool) {
        if wrong {
            self.wrong += 1;
        }
        if !self.by_job.iter().any(|(j, _)| *j == job) {
            self.by_job.push((job, reason));
        }
    }
}

/// FNV-1a over the canonical result lines.
fn digest(lines: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for l in lines {
        for b in l.bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn result_line(r: &Result<Outcome, String>) -> String {
    match r {
        Ok(o) => o.line.clone(),
        Err(_) => "panic".to_string(),
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Metric name, value and unit, in print order.
type Metrics = Vec<(String, f64, &'static str)>;

fn json_result(correct: bool, attempted: usize, failed: usize, m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    install_panic_hook();
    let w = args.workload;
    let (jobs, fabric_specs) = jobs::workload_jobs(w, args.seed);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut env = None;
    for _ in 0..SETUP_REPS {
        drop(env.take());
        let t = Instant::now();
        env = Some(setup(w, args.seed, &fabric_specs));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up");
    println!(
        "perfbench workload={} seed={} seconds={} trace={} jobs={} threads=1 setup_first_s={:.4}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        jobs.len(),
        process_start.elapsed().as_secs_f64()
    );

    let mut failures = Failures::default();
    let (first, metrics) = if args.trace {
        traced_pass(&args, &jobs, &fabric_specs, &mut env, &mut failures)
    } else {
        plain_pass(&args, &jobs, &mut env, &mut failures, &setup_s)
    };

    let checks_start = Instant::now();
    for c in checks::run(w, args.seed, &jobs, &first, &mut env) {
        failures.add(c.job, c.reason, true);
    }
    println!("checks_s={:.3}", checks_start.elapsed().as_secs_f64());

    let lines: Vec<String> = first.iter().map(result_line).collect();
    println!("digest {} {:016x}", w.name(), digest(&lines));
    println!("headline {}", checks::headline(w, &jobs, &first));
    match checks::paper_err_pct(w, &jobs, &first) {
        Some(e) => println!("paper_err_pct {e} %"),
        None => println!("paper_err_pct n/a: no hardware measurement, model unvalidated"),
    }
    for (job, reason) in &failures.by_job {
        println!("failed job {job}: {} -> {reason}", jobs[*job].describe());
    }
    println!(
        "jobs attempted={} failed={} ({:.1}%)",
        jobs.len(),
        failures.by_job.len(),
        100.0 * failures.by_job.len() as f64 / jobs.len() as f64
    );
    for (name, v, unit) in &metrics {
        println!("{name} {v} {unit}");
    }
    println!(
        "{}",
        json_result(
            failures.wrong == 0,
            jobs.len(),
            failures.by_job.len(),
            &metrics
        )
    );
    ExitCode::SUCCESS
}

/// Record crashes, in-job check failures and round-to-round differences
/// of `round` against the first round's results.
fn note_round(round: &Round, first: &[Result<Outcome, String>], failures: &mut Failures) {
    for (i, r) in round.outcomes.iter().enumerate() {
        match r {
            Err(msg) => failures.add(i, format!("panic: {msg}"), false),
            Ok(o) => {
                for f in &o.check_failures {
                    failures.add(i, f.clone(), true);
                }
            }
        }
        if result_line(r) != result_line(&first[i]) {
            failures.add(i, "result differs between rounds".into(), true);
        }
    }
}

fn completed_messages(first: &[Result<Outcome, String>]) -> u64 {
    first.iter().flatten().map(|o| o.messages).sum()
}

/// Per job class: jobs, host ms per round, messages, ns/msg.
fn print_classes(jobs: &[Job], rounds: &[Round], first: &[Result<Outcome, String>]) {
    let mut classes: Vec<(&'static str, usize, f64, u64)> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let ms = job_ns(rounds, i) / 1e6;
        let msgs = first[i].as_ref().map_or(0, |o| o.messages);
        match classes.iter_mut().find(|c| c.0 == job.span_name()) {
            Some(c) => {
                c.1 += 1;
                c.2 += ms;
                c.3 += msgs;
            }
            None => classes.push((job.span_name(), 1, ms, msgs)),
        }
    }
    classes.sort_by_key(|c| c.0);
    for (name, n, ms, msgs) in classes {
        println!(
            "class {name} jobs={n} host_ms={ms:.2} messages={msgs} host_ns_per_msg={:.2}",
            ms * 1e6 / msgs.max(1) as f64
        );
    }
}

fn plain_pass(
    args: &Args,
    jobs: &[Job],
    env: &mut Env,
    failures: &mut Failures,
    setup_s: &[f64],
) -> (Vec<Result<Outcome, String>>, Metrics) {
    let mut spans = Spans::new(false);
    let start = Instant::now();
    let rounds: Vec<Round> = (0..rounds_for(args.workload, args.seconds))
        .map(|_| run_round(jobs, env, &mut spans))
        .collect();
    let first = rounds[0].outcomes.clone();
    for r in &rounds {
        note_round(r, &first, failures);
    }
    let rss = peak_rss_mib();
    let ns: f64 = (0..jobs.len()).map(|j| job_ns(&rounds, j)).sum();
    let per_msg = ns / completed_messages(&first).max(1) as f64;
    print_classes(jobs, &rounds, &first);
    let round_ms: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.1}", r.job_ns.iter().sum::<u64>() as f64 / 1e6))
        .collect();
    println!(
        "rounds={} timed_s={:.3} round_ms=[{}]",
        rounds.len(),
        start.elapsed().as_secs_f64(),
        round_ms.join(" ")
    );
    let metrics = vec![
        ("host_ns_per_msg".to_string(), per_msg, "ns"),
        ("setup_s".to_string(), median(setup_s.to_vec()), "s"),
        ("peak_rss_mib".to_string(), rss, "MiB"),
    ];
    (first, metrics)
}

const LAYERS: [trace::Layer; 12] = [
    trace::Layer::Hlp,
    trace::Layer::Llp,
    trace::Layer::PcieTx,
    trace::Layer::PcieCredit,
    trace::Layer::PcieDll,
    trace::Layer::Nic,
    trace::Layer::Wire,
    trace::Layer::Switch,
    trace::Layer::Transport,
    trace::Layer::PcieRx,
    trace::Layer::Memory,
    trace::Layer::Recovery,
];

fn layer_index(l: trace::Layer) -> usize {
    LAYERS
        .iter()
        .position(|&x| x == l)
        .expect("every layer is listed")
}

/// Spans per layer of one job, and all spans it emitted. The ring keeps
/// the latest `TRACE_RING` spans; every traced stage also feeds the
/// metrics registry by name, so a name's exact count comes from there and
/// is attributed to the layers of the retained spans of that name (the
/// excess to the commonest). Instants are counted from the ring only.
fn layer_counts(tr: &trace::TaskTrace, m: &metrics::TaskMetrics) -> ([u64; LAYERS.len()], u64) {
    let mut per_layer = [0u64; LAYERS.len()];
    let mut by_name: Vec<(&'static str, [u64; LAYERS.len()])> = Vec::new();
    for s in &tr.spans {
        let l = layer_index(s.layer);
        if s.instant {
            per_layer[l] += 1;
            continue;
        }
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, c)) => c[l] += 1,
            None => {
                let mut c = [0u64; LAYERS.len()];
                c[l] = 1;
                by_name.push((s.name, c));
            }
        }
    }
    for (name, c) in by_name {
        let retained: u64 = c.iter().sum();
        let exact = m
            .hists
            .iter()
            .find(|h| h.name == name)
            .map_or(retained, |h| h.count.max(retained));
        let commonest = (0..c.len()).max_by_key(|&i| c[i]).expect("non-empty");
        for (total, v) in per_layer.iter_mut().zip(c) {
            *total += v;
        }
        per_layer[commonest] += exact - retained;
    }
    (per_layer, tr.spans.len() as u64 + tr.dropped)
}

fn traced_pass(
    args: &Args,
    jobs: &[Job],
    fabric_specs: &[(jobs::Topo, u32)],
    env: &mut Env,
    failures: &mut Failures,
) -> (Vec<Result<Outcome, String>>, Metrics) {
    let w = args.workload;
    let seed = args.seed;
    let start = Instant::now();
    let mut m: Metrics = Vec::new();
    let put = |m: &mut Metrics, name: &str, v: f64, unit: &'static str| {
        m.push((name.to_string(), v, unit))
    };

    // Layer kernels: fixed inputs, host time per operation.
    let kernel_metrics = [
        (
            "sim.event_queue.push_pop_ns.64",
            kernels::event_queue_push_pop_ns(64, seed),
            "ns",
        ),
        (
            "sim.event_queue.push_pop_ns.65536",
            kernels::event_queue_push_pop_ns(65_536, seed),
            "ns",
        ),
        ("sim.rng.next_ns", kernels::rng_next_ns(seed), "ns"),
        ("sim.dist.jitter_ns", kernels::jitter_sample_ns(seed), "ns"),
        (
            "cluster.flow.send_ns",
            kernels::flow_send_ns(&mut env.kernel_fabric, seed),
            "ns",
        ),
        ("cluster.topo.build_ms", kernels::topo_build_ms(), "ms"),
        ("trace.span_ns.on", kernels::trace_span_ns(true), "ns"),
        ("trace.span_ns.off", kernels::trace_span_ns(false), "ns"),
        (
            "metrics.record_ns.on",
            kernels::metrics_record_ns(true),
            "ns",
        ),
        (
            "metrics.record_ns.off",
            kernels::metrics_record_ns(false),
            "ns",
        ),
    ];
    for (name, v, unit) in kernel_metrics {
        put(&mut m, name, v, unit);
    }
    let kernels_s = start.elapsed().as_secs_f64();

    // Counting round: every job under the program's virtual-time trace
    // and metrics collectors. `catch_unwind` sits inside both scopes, so
    // a crashing job still closes them.
    let mut quiet = Spans::new(false);
    let mut per_layer = [0u64; LAYERS.len()];
    let mut spans_total = 0u64;
    let mut first = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let ((r, mt), tr) = trace::collect(TRACE_RING, || {
            metrics::collect(|| run_guarded(job, env, &mut quiet, i as u32))
        });
        assert!(
            !trace::enabled() && !metrics::enabled(),
            "a job left a collector installed"
        );
        let (layers, total) = layer_counts(&tr, &mt);
        for (a, b) in per_layer.iter_mut().zip(layers) {
            *a += b;
        }
        spans_total += total;
        first.push(r);
    }
    let counting_s = start.elapsed().as_secs_f64() - kernels_s;

    // Plain and host-traced rounds, alternating; the difference of their
    // totals is the benchmark's own tracing overhead.
    let mut traced_spans = Spans::new(true);
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    // Per traced round: (span name, job) -> host ns.
    let mut per_round: Vec<Vec<(&'static str, u32, u64)>> = Vec::new();
    for _ in 0..(rounds_for(w, args.seconds) / 2).max(MIN_ROUNDS) {
        plain.push(run_round(jobs, env, &mut quiet));
        let mark = traced_spans.len();
        traced.push(run_round(jobs, env, &mut traced_spans));
        per_round.push(traced_spans.totals_since(mark));
    }
    for r in plain.iter().chain(&traced) {
        note_round(r, &first, failures);
    }
    let total_ns = |rs: &[Round]| (0..jobs.len()).map(|j| job_ns(rs, j)).sum::<f64>();
    let overhead_ms = (total_ns(&traced) - total_ns(&plain)) / 1e6;

    // Per-layer host time per round: each job's fastest traced round.
    let span_ms = |name: &str| -> f64 {
        (0..jobs.len() as u32)
            .filter_map(|j| {
                per_round
                    .iter()
                    .filter_map(|t| {
                        t.iter()
                            .find(|e| e.0 == name && e.1 == j)
                            .map(|e| e.2 as f64)
                    })
                    .reduce(f64::min)
            })
            .fold(0.0, |a, b| a + b)
            / 1e6
    };
    for (metric, span) in [
        ("microbench.am_lat_ms", "microbench.am_lat"),
        ("microbench.put_bw_ms", "microbench.put_bw"),
        ("microbench.osu_lat_ms", "microbench.osu_lat"),
        ("microbench.osu_mr_ms", "microbench.osu_mr"),
        (
            "microbench.endpoint_injection.global_ms",
            "microbench.endpoint_injection.global",
        ),
        (
            "microbench.endpoint_injection.per_endpoint_ms",
            "microbench.endpoint_injection.per_endpoint",
        ),
        (
            "microbench.endpoint_injection.independent_ms",
            "microbench.endpoint_injection.independent",
        ),
        ("cluster.collective.ring_ms", "cluster.collective.ring"),
        ("cluster.collective.rd_ms", "cluster.collective.rd"),
        (
            "cluster.collective.barrier_ms",
            "cluster.collective.barrier",
        ),
        ("cluster.collective.bcast_ms", "cluster.collective.bcast"),
        (
            "cluster.telemetry.summarize_ms",
            "cluster.telemetry.summarize",
        ),
    ] {
        put(&mut m, metric, span_ms(span), "ms");
    }
    // Fault-engine host ns per simulated message, per plan class.
    for class in jobs::FaultClass::ALL {
        let span = format!("core.fault.{}", class.name());
        let msgs: u64 = jobs
            .iter()
            .zip(&first)
            .filter(|(job, _)| job.span_name() == span)
            .filter_map(|(_, r)| r.as_ref().ok())
            .map(|o| o.messages)
            .sum();
        let v = if msgs > 0 {
            span_ms(&span) * 1e6 / msgs as f64
        } else {
            0.0
        };
        put(&mut m, &format!("{span}_ns_per_msg"), v, "ns");
    }

    // Layer counters of the completed jobs (one round).
    let mut c = jobs::Counts::default();
    for o in first.iter().flatten() {
        c.add(&o.counts);
    }
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    for (name, v) in [
        ("cluster.flow.contended", c.flow.contended),
        ("cluster.flow.credit_waits", c.flow.credit_waits),
        ("cluster.flow.ecn_marks", c.flow.ecn_marks),
        ("core.fault.rc_retransmissions", c.rc_retransmissions),
        ("core.fault.rc_timeouts", c.rc_timeouts),
        ("core.fault.dll_replays", c.dll_replays),
        ("core.fault.credit_stalls", c.credit_stalls),
        ("core.fault.nic_stalls", c.nic_stalls),
        ("llp.busy_posts", c.busy_posts),
        ("llp.lock_contended", c.lock_contended),
    ] {
        put(&mut m, name, v as f64, "count");
    }
    let completed = ratio(c.fault_completed, c.fault_posted);
    put(&mut m, "core.fault.completed_frac", completed, "ratio");
    put(
        &mut m,
        "llp.lock_wait_ns",
        c.lock_wait_ps as f64 / 1e3,
        "sim_ns",
    );
    put(
        &mut m,
        "pcie.tlps_per_msg",
        ratio(c.tlps, c.put_bw_msgs),
        "1/msg",
    );
    for (l, v) in LAYERS.iter().zip(per_layer) {
        put(
            &mut m,
            &format!("trace.spans.{}", l.label()),
            v as f64,
            "count",
        );
    }
    put(&mut m, "trace.spans.total", spans_total as f64, "count");

    // Telemetry cost: the collective jobs with telemetry off and on, job
    // by job, fastest of two tries each.
    let on_off_pct = if w.is_collective() {
        let mut flipped = Env {
            cal: env.cal.clone(),
            fabrics: fabric_specs
                .iter()
                .map(|&(t, r)| jobs::build_fabric(t, r, !env.telemetry))
                .collect(),
            telemetry: !env.telemetry,
            kernel_fabric: env.kernel_fabric.clone(),
        };
        // Indexed by whether telemetry was on.
        let mut off_on = [0.0f64; 2];
        let tel = env.telemetry as usize;
        for (i, job) in jobs.iter().enumerate() {
            for (e, idx) in [(&mut *env, tel), (&mut flipped, 1 - tel)] {
                let fastest = (0..2)
                    .map(|_| {
                        let t = Instant::now();
                        let _ = run_guarded(job, e, &mut quiet, i as u32);
                        t.elapsed().as_nanos() as f64
                    })
                    .fold(f64::INFINITY, f64::min);
                off_on[idx] += fastest;
            }
        }
        100.0 * (off_on[1] - off_on[0]) / off_on[0]
    } else {
        0.0
    };
    put(&mut m, "cluster.telemetry.on_off_pct", on_off_pct, "%");
    put(&mut m, "bench.trace_overhead_ms", overhead_ms, "ms");

    println!(
        "kernels_s={kernels_s:.3} counting_s={counting_s:.3} rounds={}+{} total_s={:.3}",
        plain.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.jsonl", w.name(), seed));
    match traced_spans.write_jsonl(&out) {
        Ok(()) => println!("spans written to {}", out.display()),
        Err(e) => println!("spans not written ({}): {e}", out.display()),
    }
    (first, m)
}
