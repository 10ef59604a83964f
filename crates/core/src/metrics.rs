//! Lightweight solver instrumentation.
//!
//! Every [`OptimizedProfile`](crate::dp::OptimizedProfile) carries a
//! [`SolverMetrics`] describing the work the DP did to produce it: how many
//! states were relaxed, how many candidate transitions were pruned, where
//! the wall time went, and whether the layer arena was able to recycle
//! buffers from a previous solve. The cloud server forwards these over the
//! wire and the DP benchmarks print them, so a regression in pruning or
//! arena reuse is visible without a profiler.
//!
//! Metrics are *observability, not semantics*: two profiles that differ
//! only in metrics compare equal (see `OptimizedProfile`'s `PartialEq`),
//! because wall times vary run to run while the planned trajectory must
//! not.

use serde::{Deserialize, Serialize};

/// Counters and timings for one `optimize_from` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SolverMetrics {
    /// Candidate states written into a DP layer (relaxations that passed
    /// every feasibility filter).
    pub states_expanded: u64,
    /// Candidate transitions discarded before becoming states: outside the
    /// kinematic envelope, past the horizon, or beyond the last time bin.
    pub states_pruned: u64,
    /// Wall time building the station grid, speed masks, and windows.
    pub setup_seconds: f64,
    /// Wall time in the layer-relaxation loops (the DP itself).
    pub relax_seconds: f64,
    /// Wall time backtracking and assembling the profile.
    pub backtrack_seconds: f64,
    /// Layer buffers recycled from the arena without allocating.
    pub arena_reuse_hits: u64,
    /// Layer buffers that required a fresh allocation.
    pub arena_allocations: u64,
    /// Transition-cost tables served from the arena's memo cache.
    #[serde(default)]
    pub memo_hits: u64,
    /// Transition-cost tables that had to be built from the energy model.
    #[serde(default)]
    pub memo_misses: u64,
    /// Energy-model segment evaluations spent building cost tables. With a
    /// warm cache this is zero; without memoization it counts every
    /// per-layer lattice evaluation.
    #[serde(default)]
    pub energy_evals: u64,
    /// `(station, speed)` rows inside the speed-limit envelope that the
    /// reachability masks proved unreachable and skipped entirely.
    #[serde(default)]
    pub rows_skipped: u64,
    /// Source rows whose cost/arrival tiles went through the AVX2 relax
    /// microkernels. Unlike the state counters this depends on the host
    /// (AVX2 or not) and the dispatch override, so it is observability
    /// only — never part of a bit-identity contract.
    #[serde(default)]
    pub simd_rows: u64,
    /// Source rows relaxed through the portable scalar kernel (non-AVX2
    /// hosts, forced-scalar dispatch, and bands narrower than one tile).
    #[serde(default)]
    pub scalar_rows: u64,
    /// Window refreshes answered by warm-started repair: the retained
    /// prefix layers were reused and only the dirty suffix was re-relaxed
    /// (or nothing at all, when the window diff was empty).
    #[serde(default)]
    pub repair_hits: u64,
    /// Window refreshes that fell back to a full retention sweep: no valid
    /// retained state, or the repaired terminal cost failed its
    /// certification limit.
    #[serde(default)]
    pub repair_full_resolves: u64,
    /// DP layers a successful repair did not have to re-relax.
    #[serde(default)]
    pub repair_layers_skipped: u64,
}

impl SolverMetrics {
    /// Total wall time across all phases.
    pub fn total_seconds(&self) -> f64 {
        self.setup_seconds + self.relax_seconds + self.backtrack_seconds
    }

    /// Fraction of considered transitions that survived into states, in
    /// `[0, 1]`; `1.0` for an empty solve.
    pub fn expansion_ratio(&self) -> f64 {
        let considered = self.states_expanded + self.states_pruned;
        if considered == 0 {
            return 1.0;
        }
        self.states_expanded as f64 / considered as f64
    }

    /// Publishes this solve's counters and phase timings to the global
    /// [`telemetry`] registry under the `dp.*` namespace. A no-op (and
    /// free) unless the crate's `telemetry` feature is enabled.
    pub fn publish(&self) {
        telemetry::add("dp.solves", 1);
        telemetry::add("dp.states_expanded", self.states_expanded);
        telemetry::add("dp.states_pruned", self.states_pruned);
        telemetry::add("dp.arena_reuse_hits", self.arena_reuse_hits);
        telemetry::add("dp.arena_allocations", self.arena_allocations);
        telemetry::add("dp.memo.hits", self.memo_hits);
        telemetry::add("dp.memo.misses", self.memo_misses);
        telemetry::add("dp.memo.energy_evals", self.energy_evals);
        telemetry::add("dp.rows_skipped", self.rows_skipped);
        telemetry::add("dp.simd.rows", self.simd_rows);
        telemetry::add("dp.simd.scalar_rows", self.scalar_rows);
        telemetry::add("dp.repair.hits", self.repair_hits);
        telemetry::add("dp.repair.full_resolves", self.repair_full_resolves);
        telemetry::add("dp.repair.layers_skipped", self.repair_layers_skipped);
        telemetry::observe("dp.setup_seconds", self.setup_seconds);
        telemetry::observe("dp.relax_seconds", self.relax_seconds);
        telemetry::observe("dp.backtrack_seconds", self.backtrack_seconds);
        telemetry::observe("dp.total_seconds", self.total_seconds());
    }

    /// Accumulates another solve's metrics into this one (counters and
    /// times add). Used to aggregate a batch.
    pub fn absorb(&mut self, other: &SolverMetrics) {
        self.states_expanded += other.states_expanded;
        self.states_pruned += other.states_pruned;
        self.setup_seconds += other.setup_seconds;
        self.relax_seconds += other.relax_seconds;
        self.backtrack_seconds += other.backtrack_seconds;
        self.arena_reuse_hits += other.arena_reuse_hits;
        self.arena_allocations += other.arena_allocations;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.energy_evals += other.energy_evals;
        self.rows_skipped += other.rows_skipped;
        self.simd_rows += other.simd_rows;
        self.scalar_rows += other.scalar_rows;
        self.repair_hits += other.repair_hits;
        self.repair_full_resolves += other.repair_full_resolves;
        self.repair_layers_skipped += other.repair_layers_skipped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = SolverMetrics {
            states_expanded: 10,
            states_pruned: 5,
            setup_seconds: 0.1,
            relax_seconds: 0.2,
            backtrack_seconds: 0.05,
            arena_reuse_hits: 1,
            arena_allocations: 2,
            memo_hits: 7,
            memo_misses: 2,
            energy_evals: 100,
            rows_skipped: 40,
            simd_rows: 8,
            scalar_rows: 3,
            repair_hits: 1,
            repair_full_resolves: 1,
            repair_layers_skipped: 50,
        };
        let b = SolverMetrics {
            states_expanded: 3,
            memo_hits: 5,
            rows_skipped: 2,
            simd_rows: 2,
            repair_hits: 1,
            repair_layers_skipped: 25,
            ..SolverMetrics::default()
        };
        a.absorb(&b);
        assert_eq!(a.states_expanded, 13);
        assert_eq!(a.memo_hits, 12);
        assert_eq!(a.rows_skipped, 42);
        assert_eq!(a.simd_rows, 10);
        assert_eq!(a.scalar_rows, 3);
        assert_eq!(a.repair_hits, 2);
        assert_eq!(a.repair_full_resolves, 1);
        assert_eq!(a.repair_layers_skipped, 75);
        assert!((a.total_seconds() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn expansion_ratio_bounds() {
        assert_eq!(SolverMetrics::default().expansion_ratio(), 1.0);
        let m = SolverMetrics {
            states_expanded: 1,
            states_pruned: 3,
            ..SolverMetrics::default()
        };
        assert!((m.expansion_ratio() - 0.25).abs() < 1e-12);
    }
}
