//! The open-loop offered-load schedule and the rate-ladder search.
//!
//! Rounds are due on a fixed-increment schedule that never depends on how
//! fast the server answers: connection `c` of `C` owes its `k`-th round of
//! a rung at `rung_start + c/rate + k·C/rate`. Latency is measured from
//! that due time, so a stall is charged to every round it delays. The
//! seed only permutes which session each due round drives, so two seeds
//! offer the same load over different session orders.

use std::time::Duration;

/// SplitMix64: a tiny seeded generator for workload inputs (the benchmark
/// must not depend on a crate the repository does not vendor).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One step of the offered-rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rounds per second, summed over all connections.
    pub rate: f64,
    /// How long the rung offers load.
    pub secs: f64,
}

/// One round owed by the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Due {
    /// Index of the rung the round belongs to.
    pub rung: usize,
    /// Due time, from the start of the window.
    pub at: Duration,
    /// Which of the connection's sessions the round drives.
    pub session: usize,
}

/// Start of each rung, from the window start; rungs are separated by
/// `gap` so a backlog left by one rung drains before the next begins.
pub fn rung_starts(rungs: &[Rung], gap: Duration) -> Vec<Duration> {
    let mut at = Duration::ZERO;
    rungs
        .iter()
        .map(|r| {
            let start = at;
            at += Duration::from_nanos((r.secs * 1e9).round() as u64) + gap;
            start
        })
        .collect()
}

/// The due rounds of connection `conn` (of `conns`) across every rung,
/// in time order. Sessions are visited in a seeded permutation of
/// `0..n_sessions`, cyclically and continuing across rungs, so every
/// session receives the same number of rounds to within one.
pub fn connection_schedule(
    seed: u64,
    rungs: &[Rung],
    gap: Duration,
    conns: usize,
    conn: usize,
    n_sessions: usize,
) -> Vec<Due> {
    let mut order: Vec<usize> = (0..n_sessions).collect();
    SplitMix::new(seed ^ (conn as u64).wrapping_mul(0xA076_1D64_78BD_642F)).shuffle(&mut order);
    let mut out = Vec::new();
    let mut cursor = 0usize;
    for (ri, (rung, start)) in rungs.iter().zip(rung_starts(rungs, gap)).enumerate() {
        let step_ns = (conns as f64 * 1e9 / rung.rate).round() as u64;
        let phase_ns = (conn as f64 * 1e9 / rung.rate).round() as u64;
        let len_ns = (rung.secs * 1e9).round() as u64;
        let mut off_ns = phase_ns;
        while off_ns < len_ns {
            out.push(Due {
                rung: ri,
                at: start + Duration::from_nanos(off_ns),
                session: order[cursor % n_sessions],
            });
            cursor += 1;
            off_ns += step_ns;
        }
    }
    out
}

/// What one rung measured, over every connection.
#[derive(Debug, Clone, PartialEq)]
pub struct RungOutcome {
    /// Offered rounds per second.
    pub rate: f64,
    /// Rounds the schedule owed.
    pub offered: usize,
    /// Rounds whose `submit_labels` reply arrived in time.
    pub completed: usize,
    /// p99 of `next_pairs` latency from due time, ms; rounds that were not
    /// completed count as missing the limit.
    pub next_pairs_p99_ms: f64,
    /// Median generator lag (send minus due) over the rung's first quarter.
    pub lag_first_quarter_ms: f64,
    /// The same over its last quarter.
    pub lag_last_quarter_ms: f64,
}

/// Pass criteria of a rung.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// `next_pairs` p99 ceiling, ms.
    pub next_pairs_p99_ms: f64,
    /// Minimum completed share of the offered rounds.
    pub completion: f64,
    /// Largest allowed rise of the median lag from the first to the last
    /// quarter of the rung: above it the backlog is growing.
    pub lag_growth_ms: f64,
}

impl RungOutcome {
    /// Share of offered rounds completed.
    pub fn completion(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.completed as f64 / self.offered as f64
    }

    /// Whether the rung meets every limit.
    pub fn passes(&self, l: &Limits) -> bool {
        self.offered > 0
            && self.completion() >= l.completion
            && self.next_pairs_p99_ms <= l.next_pairs_p99_ms
            && self.lag_last_quarter_ms - self.lag_first_quarter_ms <= l.lag_growth_ms
    }
}

/// The highest offered rate of the ladder that meets the limits: the last
/// rung of the passing prefix (rungs ascend, so a rung above a failing one
/// does not count even if it passes by chance). `None` when the lowest
/// rung already fails.
pub fn max_passing_rate(outcomes: &[RungOutcome], limits: &Limits) -> Option<f64> {
    outcomes
        .iter()
        .take_while(|o| o.passes(limits))
        .last()
        .map(|o| o.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUNGS: [Rung; 2] = [
        Rung {
            rate: 100.0,
            secs: 1.0,
        },
        Rung {
            rate: 200.0,
            secs: 0.5,
        },
    ];

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let gap = Duration::from_millis(100);
        let a = connection_schedule(7, &RUNGS, gap, 2, 1, 5);
        let b = connection_schedule(7, &RUNGS, gap, 2, 1, 5);
        assert_eq!(a, b);
        let c = connection_schedule(8, &RUNGS, gap, 2, 1, 5);
        let times = |v: &[Due]| v.iter().map(|d| d.at).collect::<Vec<_>>();
        // Another seed offers the same load over another session order.
        assert_eq!(times(&a), times(&c));
        assert_ne!(
            a.iter().map(|d| d.session).collect::<Vec<_>>(),
            c.iter().map(|d| d.session).collect::<Vec<_>>()
        );
    }

    #[test]
    fn schedule_has_fixed_increments_and_fair_sessions() {
        let gap = Duration::from_millis(100);
        let dues = connection_schedule(3, &RUNGS, gap, 2, 0, 4);
        // 100/s over 2 connections for 1 s, then 200/s for 0.5 s.
        assert_eq!(dues.iter().filter(|d| d.rung == 0).count(), 50);
        assert_eq!(dues.iter().filter(|d| d.rung == 1).count(), 50);
        assert_eq!(dues[1].at - dues[0].at, Duration::from_millis(20));
        assert_eq!(dues[50].at, Duration::from_millis(1100));
        let mut per_session = [0usize; 4];
        for d in &dues {
            per_session[d.session] += 1;
        }
        assert!(per_session.iter().all(|&n| n == 25));
        // The second connection is phase-shifted by one global interval.
        let other = connection_schedule(3, &RUNGS, gap, 2, 1, 4);
        assert_eq!(other[0].at, Duration::from_millis(10));
    }

    fn outcome(rate: f64, p99: f64, completed: usize) -> RungOutcome {
        RungOutcome {
            rate,
            offered: 100,
            completed,
            next_pairs_p99_ms: p99,
            lag_first_quarter_ms: 0.1,
            lag_last_quarter_ms: 0.2,
        }
    }

    const LIMITS: Limits = Limits {
        next_pairs_p99_ms: 10.0,
        completion: 0.99,
        lag_growth_ms: 1.0,
    };

    #[test]
    fn ladder_search_takes_the_passing_prefix() {
        let ladder = [
            outcome(100.0, 1.0, 100),
            outcome(200.0, 2.0, 100),
            outcome(400.0, 50.0, 100),
            outcome(800.0, 1.0, 100),
        ];
        assert_eq!(max_passing_rate(&ladder, &LIMITS), Some(200.0));
        assert_eq!(max_passing_rate(&ladder[2..], &LIMITS), None);
    }

    #[test]
    fn each_limit_fails_a_rung() {
        assert!(outcome(1.0, 1.0, 99).passes(&LIMITS));
        assert!(!outcome(1.0, 1.0, 98).passes(&LIMITS));
        assert!(!outcome(1.0, 10.5, 100).passes(&LIMITS));
        let mut growing = outcome(1.0, 1.0, 100);
        growing.lag_last_quarter_ms = 1.5;
        assert!(!growing.passes(&LIMITS));
        let empty = RungOutcome {
            offered: 0,
            completed: 0,
            ..outcome(1.0, 1.0, 0)
        };
        assert!(!empty.passes(&LIMITS));
    }
}
