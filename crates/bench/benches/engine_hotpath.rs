//! Hot-path benches for the simulation substrate overhaul: the indexed
//! 4-ary event queue, the table-driven jitter sampler, and the fault
//! engine's fast path against the reference path. Run with
//! `cargo bench --bench engine_hotpath`; the figures land in CI artifacts
//! so queue/sampler/engine regressions are visible across PRs. The same
//! fault-plan cases feed `repro bench-engine` (BENCH_engine.json), which
//! adds the byte-identity gate on top of the timing.

use bband_bench::engine_hotpath_cases;
use bband_core::fault::{run_e2e_under_faults_on, EnginePath};
use bband_core::Calibration;
use bband_sim::{EventQueue, Jitter, Pcg64, SimDuration, SimTime};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Steady-state churn at small and large pending counts: push a batch,
    // drain it, at a standing population that stresses sift depth.
    for &standing in &[0usize, 1_024] {
        let name = format!("engine/queue_push_pop_standing_{standing}");
        c.bench_function(&name, |b| {
            let mut q = EventQueue::new();
            let mut t = 0u64;
            for i in 0..standing as u64 {
                q.push(SimTime::from_ps(u64::MAX / 2 + i), i);
            }
            b.iter(|| {
                for i in 0..64u64 {
                    q.push(SimTime::from_ps(t + (i * 7) % 640), i);
                }
                let limit = SimTime::from_ps(t + 640);
                t += 640;
                while let Some(ev) = q.pop_due(limit) {
                    black_box(ev);
                }
            })
        });
    }

    // pop_due on an empty-due queue: the single root comparison that every
    // clock tick pays even when nothing fires.
    c.bench_function("engine/pop_due_none_due", |b| {
        let mut q = EventQueue::new();
        for i in 0..256u64 {
            q.push(SimTime::from_ps(1_000_000 + i), i);
        }
        b.iter(|| black_box(q.pop_due(SimTime::from_ps(10))))
    });

    // Sampler draws/sec: the table path (one RNG word + lerp) vs the
    // closed-form reference (Box-Muller ln/exp), same profile.
    let base = SimDuration::from_ns_f64(175.42);
    let j = Jitter::cpu_default();
    c.bench_function("engine/jitter_sample_table", |b| {
        let mut rng = Pcg64::new(2);
        b.iter(|| black_box(j.sample(base, &mut rng)))
    });
    c.bench_function("engine/jitter_sample_exact", |b| {
        let mut rng = Pcg64::new(2);
        b.iter(|| black_box(j.sample_exact(base, &mut rng)))
    });
    c.bench_function("engine/jitter_sample_hw_table", |b| {
        let mut rng = Pcg64::new(3);
        let hw = Jitter::hw_default();
        b.iter(|| black_box(hw.sample(base, &mut rng)))
    });

    // Fault-engine throughput: whole e2e runs per plan case, fast (memo
    // replay + silent-poll skipping) vs reference (full event loop). The
    // fault-free case is pure replay; loss and markov-stall exercise the
    // per-message predraw checks and the convergent stall queries; sized
    // runs the mixed-size event loop with no memo at all.
    let cal = Calibration::default();
    for (case, plan) in engine_hotpath_cases() {
        for (path, label) in [
            (EnginePath::Fast, "fast"),
            (EnginePath::Reference, "reference"),
        ] {
            let name = format!("engine/fault_{case}_{label}");
            c.bench_function(&name, |b| {
                b.iter(|| black_box(run_e2e_under_faults_on(path, &cal, &plan, 500, 42)))
            });
        }
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
