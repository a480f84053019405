//! Candidate pair pools.
//!
//! The learner's policy is a distribution over examples of the dataset; for
//! FD training the informative examples are pairs of tuples that agree on
//! at least one hypothesis-space LHS (other pairs carry no evidence for any
//! FD). The pool enumerates those pairs once per session — capped by
//! uniform subsampling when the quadratic blowup gets large — and the
//! response strategies then score/sample within it.

use std::collections::HashSet;

use et_data::Table;
use et_fd::{HypothesisSpace, PartitionCache, RelationMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::game::PairExample;

/// The set of candidate pairs a session draws examples from.
#[derive(Debug, Clone)]
pub struct CandidatePool {
    pairs: Vec<PairExample>,
}

impl CandidatePool {
    /// Enumerates every pair agreeing on at least one distinct LHS of
    /// `space`; if more than `max_pairs` exist, keeps a uniform reservoir
    /// sample of `max_pairs` (deterministic in `seed`).
    ///
    /// # Panics
    /// Panics when `max_pairs` is zero.
    pub fn build(table: &Table, space: &HypothesisSpace, max_pairs: usize, seed: u64) -> Self {
        let cache = PartitionCache::new(table);
        Self::build_with(table, space, &cache, max_pairs, seed)
    }

    /// [`CandidatePool::build`] over a shared [`PartitionCache`]: walks the
    /// memoized stripped partition of each distinct LHS instead of
    /// re-grouping the table per determinant.
    ///
    /// Bit-identical to the raw `group_by` enumeration (pinned by proptest):
    /// both visit multi-row groups in ascending first-row order with members
    /// ascending — a stripped partition *is* that grouping with singleton
    /// groups removed, and singleton groups contribute no pairs — so the
    /// reservoir sees the same pair sequence and draws the same sample.
    ///
    /// # Panics
    /// Panics when `max_pairs` is zero or `cache` was built for a table
    /// with a different row count.
    pub fn build_with(
        table: &Table,
        space: &HypothesisSpace,
        cache: &PartitionCache,
        max_pairs: usize,
        seed: u64,
    ) -> Self {
        assert!(max_pairs > 0, "pool must allow at least one pair");
        let mut seen: HashSet<PairExample> = HashSet::new();
        let mut reservoir: Vec<PairExample> = Vec::new();
        let mut n_seen = 0usize;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x853c_49e6_748f_ea9b);
        for lhs in space.distinct_lhs() {
            let part = cache.partition(table, lhs);
            for group in &part.classes {
                for (i, &a) in group.iter().enumerate() {
                    for &b in &group[i + 1..] {
                        let p = PairExample::new(a as usize, b as usize);
                        if !seen.insert(p) {
                            continue;
                        }
                        n_seen += 1;
                        if reservoir.len() < max_pairs {
                            reservoir.push(p);
                        } else {
                            let j = rng.gen_range(0..n_seen);
                            if j < max_pairs {
                                reservoir[j] = p;
                            }
                        }
                    }
                }
            }
        }
        reservoir.sort_unstable();
        Self { pairs: reservoir }
    }

    /// Builds a pool from explicit pairs (tests, custom workloads).
    pub fn from_pairs(pairs: Vec<PairExample>) -> Self {
        let mut seen = HashSet::new();
        let mut out: Vec<PairExample> = pairs.into_iter().filter(|p| seen.insert(*p)).collect();
        out.sort_unstable();
        Self { pairs: out }
    }

    /// All pairs, sorted.
    pub fn pairs(&self) -> &[PairExample] {
        &self.pairs
    }

    /// Number of candidate pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Pairs not yet shown to the trainer (the learner provides a fresh
    /// example in each interaction, §2).
    pub fn fresh(&self, shown: &HashSet<PairExample>) -> Vec<PairExample> {
        self.pairs
            .iter()
            .copied()
            .filter(|p| !shown.contains(p))
            .collect()
    }

    /// The round-invariant pair-relation matrix over this pool (pair id
    /// `i` is `pairs()[i]`): what every response strategy scores from,
    /// through a [`et_fd::DeltaScorer`].
    ///
    /// # Panics
    /// Panics when `cache` does not match `table`'s row count, or a pair
    /// references a row outside `table`.
    pub fn relation_matrix(
        &self,
        table: &Table,
        space: &HypothesisSpace,
        cache: &PartitionCache,
    ) -> RelationMatrix {
        let pairs: Vec<(usize, usize)> = self.pairs.iter().map(|p| (p.a, p.b)).collect();
        RelationMatrix::build(table, space, cache, &pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_data::table::paper_table1;
    use et_fd::Fd;

    fn space() -> HypothesisSpace {
        HypothesisSpace::from_fds([
            Fd::from_attrs([1], 2),    // Team groups: {0,1}, {2,3}
            Fd::from_attrs([2, 3], 4), // (City,Role) group: {1,2}
        ])
    }

    #[test]
    fn enumerates_relevant_pairs() {
        let t = paper_table1();
        let pool = CandidatePool::build(&t, &space(), 100, 1);
        let expect = vec![
            PairExample::new(0, 1),
            PairExample::new(1, 2),
            PairExample::new(2, 3),
        ];
        assert_eq!(pool.pairs(), expect.as_slice());
    }

    #[test]
    fn caps_with_reservoir() {
        let t = paper_table1();
        let pool = CandidatePool::build(&t, &space(), 2, 1);
        assert_eq!(pool.len(), 2);
        // Sampled pairs come from the full relevant set.
        let full = CandidatePool::build(&t, &space(), 100, 1);
        for p in pool.pairs() {
            assert!(full.pairs().contains(p));
        }
    }

    #[test]
    fn build_deterministic() {
        let ds = et_data::gen::omdb(150, 2);
        let fds: Vec<Fd> = ds.exact_fds.iter().map(Fd::from_spec).collect();
        let space = HypothesisSpace::from_fds(fds);
        let a = CandidatePool::build(&ds.table, &space, 50, 9);
        let b = CandidatePool::build(&ds.table, &space, 50, 9);
        assert_eq!(a.pairs(), b.pairs());
    }

    #[test]
    fn fresh_filters_shown() {
        let t = paper_table1();
        let pool = CandidatePool::build(&t, &space(), 100, 1);
        let mut shown = HashSet::new();
        shown.insert(PairExample::new(0, 1));
        let fresh = pool.fresh(&shown);
        assert_eq!(fresh.len(), pool.len() - 1);
        assert!(!fresh.contains(&PairExample::new(0, 1)));
    }

    #[test]
    fn from_pairs_dedups_and_sorts() {
        let pool = CandidatePool::from_pairs(vec![
            PairExample::new(3, 1),
            PairExample::new(0, 2),
            PairExample::new(1, 3),
        ]);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.pairs()[0], PairExample::new(0, 2));
    }
}
