//! Collective communication schedules: who sends to whom in each step.
//!
//! "UCP implements high-level communication protocols such as
//! collectives" (§5). The schedule is the part of a collective that does
//! not depend on how messages move, so both collective drivers share it:
//! `bband-mpi` runs it packet by packet through the NIC pipeline for a
//! handful of ranks, `bband-cluster` runs it as flow-level rounds over
//! thousands. Each driver picks its own message sizes.
//!
//! * [`Schedule::Dissemination`] (barrier) — ⌈log₂n⌉ steps; in step *r*
//!   rank *i* sends to *(i + 2^r) mod n* and receives from
//!   *(i − 2^r) mod n*.
//! * [`Schedule::Binomial`] (broadcast) — ⌈log₂n⌉ steps; with ranks
//!   renumbered relative to the root, in step *r* every holder *v < 2^r*
//!   sends to *v + 2^r* when that rank exists.
//! * [`Schedule::RecursiveDoubling`] (allreduce) — pairwise exchange with
//!   *v ⊕ 2^r*. A non-power-of-two count uses the MPICH fold: with
//!   `n = pow + rem` (`pow` the largest power of two ≤ n), a fold-in step
//!   has each odd rank below `2·rem` hand its contribution to its even
//!   neighbour, the `pow` representatives run log₂(pow) exchange steps,
//!   and a fold-out step returns the result to the ranks that sat out.
//! * [`Schedule::Ring`] (bandwidth-optimal allreduce) — `2(n − 1)` steps,
//!   each sending *i → (i + 1) mod n*.
//!
//! Every step is synchronous: a rank that receives in step *r* gets
//! exactly one message, from a rank that sends in step *r*.

/// A collective's communication pattern over ranks `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Dissemination barrier.
    Dissemination,
    /// Binomial-tree broadcast from `root`.
    Binomial { root: u32 },
    /// Recursive-doubling allreduce with the MPICH non-power-of-two fold.
    RecursiveDoubling,
    /// Ring allreduce (reduce-scatter then allgather).
    Ring,
}

/// One rank's part in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The rank this rank sends to in this step, if any.
    pub send_to: Option<u32>,
    /// Whether this rank receives one message in this step.
    pub receives: bool,
}

impl Step {
    const IDLE: Step = Step {
        send_to: None,
        receives: false,
    };
}

impl Schedule {
    /// Steps the schedule takes on `n ≥ 2` ranks.
    pub fn steps(self, n: u32) -> u32 {
        let log2_ceil = n.next_power_of_two().trailing_zeros();
        match self {
            Schedule::Dissemination | Schedule::Binomial { .. } => log2_ceil,
            // Fold-in, log₂(pow) = ⌈log₂n⌉ − 1 exchanges, fold-out.
            Schedule::RecursiveDoubling if !n.is_power_of_two() => log2_ceil + 1,
            Schedule::RecursiveDoubling => log2_ceil,
            Schedule::Ring => 2 * (n - 1),
        }
    }

    /// What `rank` does in step `r < self.steps(n)` on `n` ranks.
    #[inline]
    pub fn step(self, n: u32, rank: u32, r: u32) -> Step {
        debug_assert!(rank < n && r < self.steps(n));
        match self {
            Schedule::Dissemination => Step {
                send_to: Some((rank + (1 << r)) % n),
                receives: true,
            },
            Schedule::Binomial { root } => {
                let vrank = (rank + n - root) % n;
                match vrank >> r {
                    // Holds the data: pass it on to vrank + 2^r.
                    0 => Step {
                        send_to: (vrank + (1 << r) < n).then(|| (vrank + (1 << r) + root) % n),
                        receives: false,
                    },
                    // 2^r ≤ vrank < 2^(r+1): gets the data now.
                    1 => Step {
                        send_to: None,
                        receives: true,
                    },
                    _ => Step::IDLE,
                }
            }
            Schedule::RecursiveDoubling => recursive_doubling(n, rank, r),
            Schedule::Ring => Step {
                send_to: Some((rank + 1) % n),
                receives: true,
            },
        }
    }
}

fn recursive_doubling(n: u32, rank: u32, r: u32) -> Step {
    let pow = 1u32 << (u32::BITS - 1 - n.leading_zeros());
    let rem = n - pow;
    let folded = rem > 0;
    if folded && (r == 0 || r == pow.trailing_zeros() + 1) {
        if rank >= 2 * rem {
            return Step::IDLE;
        }
        // Fold-in: odd ranks hand their contribution to the even
        // neighbour. Fold-out: the even representative returns the result.
        let sends = (rank % 2 == 1) == (r == 0);
        return if sends {
            Step {
                send_to: Some(rank ^ 1),
                receives: false,
            }
        } else {
            Step {
                send_to: None,
                receives: true,
            }
        };
    }
    // The power-of-two core over virtual ranks: the first `2·rem` ranks
    // are represented by their even member, the rest shift down by `rem`.
    let vrank = if rank < 2 * rem {
        if rank % 2 == 1 {
            return Step::IDLE;
        }
        rank / 2
    } else {
        rank - rem
    };
    let peer = vrank ^ (1 << (r - u32::from(folded)));
    Step {
        send_to: Some(if peer < rem { 2 * peer } else { peer + rem }),
        receives: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Run `s` on `n` ranks, checking every step's send/receive matching,
    /// and return how many of the `bits` items each rank holds at the end
    /// when rank `i` starts out holding item `i` if `holds(i)`: a receiver
    /// gains what its sender held at the start of the step.
    fn propagate(s: Schedule, n: u32, holds: impl Fn(u32) -> bool) -> Vec<u32> {
        let w = n.div_ceil(64) as usize;
        let mut known = vec![0u64; n as usize * w];
        for i in (0..n).filter(|&i| holds(i)) {
            known[i as usize * w + i as usize / 64] |= 1 << (i % 64);
        }
        let mut incoming = vec![0u32; n as usize];
        for r in 0..s.steps(n) {
            let steps: Vec<Step> = (0..n).map(|i| s.step(n, i, r)).collect();
            incoming.fill(0);
            for (i, st) in steps.iter().enumerate() {
                if let Some(to) = st.send_to {
                    assert!(to < n && to != i as u32, "{s:?} n={n} r={r}: {i} -> {to}");
                    incoming[to as usize] += 1;
                }
            }
            for (i, st) in steps.iter().enumerate() {
                let want = u32::from(st.receives);
                assert_eq!(incoming[i], want, "{s:?} n={n} r={r}: rank {i} receives");
            }
            let before = known.clone();
            for (i, st) in steps.iter().enumerate() {
                if let Some(to) = st.send_to {
                    let to = to as usize * w;
                    for k in 0..w {
                        known[to + k] |= before[i * w + k];
                    }
                }
            }
        }
        known
            .chunks(w)
            .map(|c| c.iter().map(|x| x.count_ones()).sum())
            .collect()
    }

    #[test]
    fn step_counts() {
        assert_eq!(Schedule::Dissemination.steps(2), 1);
        assert_eq!(Schedule::Binomial { root: 0 }.steps(11), 4);
        assert_eq!(Schedule::RecursiveDoubling.steps(8), 3);
        // 6 ranks: fold-in, a 4-rank core of two steps, fold-out.
        assert_eq!(Schedule::RecursiveDoubling.steps(6), 4);
        assert_eq!(Schedule::Ring.steps(10), 18);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Every schedule delivers what its collective promises: after the
        /// barrier every rank has heard from all ranks, after the
        /// broadcast (from any root) every rank holds the root's data,
        /// after the allreduce every rank holds all contributions — and
        /// the ring is the plain `2(n − 1)`-step neighbour ring.
        #[test]
        fn schedules_complete_their_collectives(n in 2u32..301) {
            for s in [Schedule::Dissemination, Schedule::RecursiveDoubling] {
                let counts = propagate(s, n, |_| true);
                prop_assert!(counts.iter().all(|&c| c == n), "{:?} n={}: {:?}", s, n, counts);
            }
            for root in 0..n {
                let s = Schedule::Binomial { root };
                let counts = propagate(s, n, |i| i == root);
                prop_assert!(counts.iter().all(|&c| c == 1), "{:?} n={}: {:?}", s, n, counts);
            }
            let ring = Schedule::Ring;
            prop_assert_eq!(ring.steps(n), 2 * (n - 1));
            for r in 0..ring.steps(n) {
                for i in 0..n {
                    let st = ring.step(n, i, r);
                    prop_assert_eq!(st.send_to, Some((i + 1) % n));
                    prop_assert!(st.receives);
                }
            }
            propagate(ring, n, |_| true);
        }
    }
}
