//! Per-layer kernels: each times one public entry point of a layer on a
//! fixed input and returns host nanoseconds per operation (the median of
//! several repetitions).

use bband_cluster::{dragonfly_for, fat_tree_for, ClusterFabric};
use bband_metrics as metrics;
use bband_sim::{EventQueue, Jitter, Pcg64, SimDuration, SimTime};
use bband_trace as trace;
use std::hint::black_box;
use std::time::Instant;

/// Shortest timed repetition; an operation count is doubled until one
/// repetition takes at least this long.
const MIN_REP_NS: u128 = 4_000_000;
const REPS: usize = 7;

pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no values");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host ns per operation of `f(ops)`, which must perform `ops` operations.
fn ns_per_op(mut f: impl FnMut(u64)) -> f64 {
    let mut ops = 1_024u64;
    loop {
        let t = Instant::now();
        f(ops);
        if t.elapsed().as_nanos() >= MIN_REP_NS {
            break;
        }
        ops *= 2;
    }
    let samples = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f(ops);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(samples)
}

/// `EventQueue` push + pop with `pending` events queued: each operation
/// pops the earliest event and schedules a successor after it.
pub fn event_queue_push_pop_ns(pending: usize, seed: u64) -> f64 {
    let mut rng = Pcg64::new(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..pending as u64 {
        q.push(SimTime::from_ps(rng.next_below(1 << 24)), i);
    }
    ns_per_op(|ops| {
        for _ in 0..ops {
            let (t, e) = q.pop().expect("queue holds `pending` events");
            let after = SimDuration::from_ps(1 + rng.next_below(1 << 24));
            q.push(t + after, black_box(e));
        }
    })
}

/// One `Pcg64::next_u64` draw.
pub fn rng_next_ns(seed: u64) -> f64 {
    let mut rng = Pcg64::new(seed);
    ns_per_op(|ops| {
        let mut x = 0u64;
        for _ in 0..ops {
            x ^= rng.next_u64();
        }
        black_box(x);
    })
}

/// One `Jitter::sample` draw of the CPU-side cost profile.
pub fn jitter_sample_ns(seed: u64) -> f64 {
    let mut rng = Pcg64::new(seed);
    let jitter = Jitter::cpu_default();
    let base = SimDuration::from_ns_f64(175.42);
    ns_per_op(|ops| {
        let mut x = 0u64;
        for _ in 0..ops {
            x ^= jitter.sample(black_box(base), &mut rng).as_ps();
        }
        black_box(x);
    })
}

/// Ranks of the fabric [`flow_send_ns`] drives.
pub const FLOW_KERNEL_RANKS: u32 = 1024;

/// The fabric [`flow_send_ns`] drives: a 1024-rank dragonfly.
pub fn flow_kernel_fabric() -> ClusterFabric {
    ClusterFabric::paper_default(dragonfly_for(FLOW_KERNEL_RANKS))
}

/// `ClusterFabric::inject` + `send` of one 4 KiB message, over a fixed
/// stream of random rank pairs departing 50 ns apart.
pub fn flow_send_ns(fab: &mut ClusterFabric, seed: u64) -> f64 {
    let mut rng = Pcg64::new(seed);
    let n = FLOW_KERNEL_RANKS as u64;
    let stream: Vec<(u32, u32)> = (0..8_192)
        .map(|_| {
            let src = rng.next_below(n);
            let dst = (src + 1 + rng.next_below(n - 1)) % n;
            (src as u32, dst as u32)
        })
        .collect();
    ns_per_op(|ops| {
        fab.reset_transients();
        let mut t = SimTime::ZERO;
        for i in 0..ops as usize {
            let (src, dst) = stream[i % stream.len()];
            t += SimDuration::from_ns(50);
            let depart = fab.inject(src, t, 4096);
            let d = fab.send(depart, src, dst, 4096);
            if d.ecn_marked {
                fab.apply_ecn_backoff(src);
            }
            black_box(d);
        }
    })
}

fn span_loop(ops: u64) {
    let d = SimDuration::from_ns(100);
    for i in 0..ops {
        let t = SimTime::from_ps(i);
        black_box(trace::span(trace::Layer::Llp, "perfbench", t, t + d, i));
    }
}

/// `trace::span` with a collector installed (`on`) or none (`off`).
pub fn trace_span_ns(on: bool) -> f64 {
    if on {
        ns_per_op(|ops| {
            trace::collect(1 << 12, || span_loop(ops));
        })
    } else {
        ns_per_op(span_loop)
    }
}

fn record_loop(ops: u64) {
    for i in 0..ops {
        metrics::record("perfbench", SimDuration::from_ps(black_box(i & 0xFFFF)));
    }
}

/// `metrics::record` inside a collector (`on`) or outside any (`off`).
pub fn metrics_record_ns(on: bool) -> f64 {
    if on {
        ns_per_op(|ops| {
            metrics::collect(|| record_loop(ops));
        })
    } else {
        ns_per_op(record_loop)
    }
}

/// Host ms to build the 4096-rank fat tree and dragonfly with their
/// `ClusterFabric`s (median of five builds).
pub fn topo_build_ms() -> f64 {
    let samples = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(ClusterFabric::paper_default(fat_tree_for(4096)));
            black_box(ClusterFabric::paper_default(dragonfly_for(4096)));
            t.elapsed().as_nanos() as f64 / 1e6
        })
        .collect();
    median(samples)
}
