//! Correctness checks run after the timed phase, the workload headline,
//! and the error against the paper's measurements.

use crate::jobs::{self, Env, FaultClass, Job, Micro, Outcome, Stack, Workload};
use bband_cluster::two_node_equivalence;
use bband_core::fault::{self, EnginePath};
use bband_core::EndToEndLatencyModel;
use bband_llp::LockGranularity;
use bband_microbench::{
    endpoint_injection, multicore_injection, MulticoreConfig, ThreadSweepConfig,
};
use bband_sim::Pcg64;

/// A failed check, charged to the job whose result it covers.
pub struct CheckFailure {
    pub job: usize,
    pub reason: String,
}

type Results = [Result<Outcome, String>];

/// One job drawn from `candidates` by the workload seed.
fn sample(candidates: &[usize], rng: &mut Pcg64) -> Option<usize> {
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.next_below(candidates.len() as u64) as usize])
    }
}

pub fn run(
    w: Workload,
    seed: u64,
    jobs: &[Job],
    first: &Results,
    env: &mut Env,
) -> Vec<CheckFailure> {
    let mut fails = Vec::new();
    let mut fail = |job: usize, reason: String| fails.push(CheckFailure { job, reason });
    let mut rng = Pcg64::new(seed ^ 0xC4EC);
    match w {
        Workload::StackLive => {
            // One thread on one endpoint is the multicore experiment's
            // one-core point, bit for bit (237.05 ns per message).
            let one = jobs.iter().position(|j| {
                matches!(
                    j,
                    Job::Endpoint {
                        threads: 1,
                        endpoints: 1,
                        lock: LockGranularity::Independent,
                        stack: Stack::Validation,
                        ..
                    }
                )
            });
            if let Some(i) = one {
                let Job::Endpoint { seed, .. } = jobs[i] else {
                    unreachable!("matched above")
                };
                let stack = Stack::Validation.config(seed);
                let ep = endpoint_injection(&ThreadSweepConfig {
                    stack: stack.clone(),
                    threads: 1,
                    endpoints: 1,
                    lock: LockGranularity::Independent,
                    messages_per_thread: jobs::EP_MSGS_PER_THREAD,
                    ..Default::default()
                });
                let mc = multicore_injection(&MulticoreConfig {
                    stack,
                    cores: 1,
                    messages_per_core: jobs::EP_MSGS_PER_THREAD,
                    ..Default::default()
                });
                let ns = ep.per_thread_overhead.as_ns_f64();
                if ep.per_thread_overhead != mc.per_core_overhead || format!("{ns:.2}") != "237.05"
                {
                    fail(
                        i,
                        format!(
                            "one-thread endpoint_injection {ns} ns vs multicore_injection {} ns (expected 237.05)",
                            mc.per_core_overhead.as_ns_f64()
                        ),
                    );
                }
            }
        }
        Workload::FaultLoss => {
            let model = EndToEndLatencyModel::from_calibration(&env.cal)
                .total()
                .as_ns_f64();
            for class in FaultClass::ALL {
                let members: Vec<usize> = (0..jobs.len())
                    .filter(|&i| matches!(jobs[i], Job::Fault { class: c, .. } if c == class))
                    .filter(|&i| first[i].is_ok())
                    .collect();
                if class == FaultClass::FaultFree {
                    // The program's zero-fault invariant: every message's
                    // latency is the model's, bit for bit (min == max ==
                    // model), and recovery never engages. The mean is a
                    // sequential f64 sum, so it is not compared bitwise.
                    for &i in &members {
                        let s = first[i].as_ref().ok().and_then(|o| o.fault_stats.as_ref());
                        let exact = s.is_some_and(|s| {
                            s.min_ns.to_bits() == model.to_bits()
                                && s.max_ns.to_bits() == model.to_bits()
                                && s.completed == s.messages
                                && s.counters.is_clean()
                        });
                        if !exact {
                            fail(i, format!("zero-fault run {s:?} != model {model} ns"));
                        }
                    }
                }
                // The reference event loop must agree with the fast path.
                if let Some(i) = sample(&members, &mut rng) {
                    let Job::Fault {
                        ref plan,
                        messages,
                        seed,
                        ..
                    } = jobs[i]
                    else {
                        unreachable!("fault member")
                    };
                    let reference = fault::run_e2e_under_faults_on(
                        EnginePath::Reference,
                        &env.cal,
                        plan,
                        messages,
                        seed,
                    );
                    let fast = first[i].as_ref().ok().and_then(|o| o.fault_stats.clone());
                    if reference.as_ref().ok() != fast.as_ref() {
                        fail(i, format!("fast path {fast:?} != reference {reference:?}"));
                    }
                }
            }
        }
        Workload::CollectiveRing | Workload::CollectiveLatency => {
            let two = two_node_equivalence();
            if !two.exact {
                fail(
                    0,
                    format!("two-node fabric walk != calibrated network model: {two:?}"),
                );
            }
            // Telemetry must observe without perturbing: re-run one job on
            // a fabric with the opposite telemetry setting.
            let done: Vec<usize> = (0..jobs.len()).filter(|&i| first[i].is_ok()).collect();
            if let Some(i) = sample(&done, &mut rng) {
                let Job::Collective {
                    fabric,
                    topo,
                    ranks,
                    coll,
                } = jobs[i]
                else {
                    unreachable!("collective workload")
                };
                let telemetry = !env.telemetry;
                let mut other = Env {
                    cal: env.cal.clone(),
                    fabrics: vec![jobs::build_fabric(topo, ranks, telemetry)],
                    telemetry,
                    kernel_fabric: env.kernel_fabric.clone(),
                };
                let job = Job::Collective {
                    fabric: 0,
                    topo,
                    ranks,
                    coll,
                };
                let mut spans = crate::spans::Spans::new(false);
                let o = jobs::run(&job, &mut other, &mut spans, i as u32);
                let mine = first[i].as_ref().expect("filtered to completed jobs");
                if o.flow != mine.flow || o.counts != mine.counts {
                    fail(
                        i,
                        format!(
                            "telemetry on/off differ: {:?} vs {:?} ({} fabric {fabric})",
                            o.flow, mine.flow, ranks
                        ),
                    );
                }
                for f in o.check_failures {
                    fail(i, f);
                }
            }
        }
    }
    fails
}

/// The largest relative error, in percent, between the simulated
/// observables and the paper's measured values; `None` where the
/// workload has no hardware reference.
pub fn paper_err_pct(w: Workload, jobs: &[Job], first: &Results) -> Option<f64> {
    let errs: Vec<f64> = jobs
        .iter()
        .zip(first)
        .filter_map(|(job, r)| match (w, job, r) {
            (Workload::StackLive, Job::Micro { .. }, Ok(o)) => o.paper_err,
            (
                Workload::FaultLoss,
                Job::Fault {
                    class: FaultClass::FaultFree,
                    ..
                },
                Ok(o),
            ) => o.fault_stats.as_ref().map(|s| {
                (s.mean_ns - jobs::PAPER_E2E_LATENCY_NS).abs() / jobs::PAPER_E2E_LATENCY_NS
            }),
            _ => None,
        })
        .collect();
    if errs.is_empty() {
        None
    } else {
        Some(100.0 * errs.iter().copied().fold(0.0, f64::max))
    }
}

/// The workload's headline simulated numbers, in job-list order of kind.
pub fn headline(w: Workload, jobs: &[Job], first: &Results) -> String {
    let mut parts = Vec::new();
    for (job, r) in jobs.iter().zip(first) {
        let Ok(o) = r else { continue };
        match (w, job) {
            (Workload::StackLive, Job::Micro { bench, .. }) => {
                let name = match bench {
                    Micro::AmLat => "am_lat",
                    Micro::PutBw => "put_bw",
                    Micro::OsuLat => "osu_lat",
                    Micro::OsuMr => "osu_mr",
                };
                parts.push(format!("{name}[{}]", o.line));
            }
            (Workload::FaultLoss, Job::Fault { class, plan, .. }) => {
                if let Some(s) = &o.fault_stats {
                    parts.push(format!(
                        "{}(p={})={:.2}ns",
                        class.name(),
                        plan.loss_probability,
                        s.mean_ns
                    ));
                }
            }
            (_, Job::Collective { .. }) => {
                if let Some(f) = &o.flow {
                    parts.push(format!(
                        "{}={:.1}us",
                        job.describe(),
                        f.completion.as_ns_f64() / 1e3
                    ));
                }
            }
            _ => {}
        }
    }
    parts.sort();
    parts.join("; ")
}
