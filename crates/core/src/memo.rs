//! Transition-cost memoization: the shared `(v_from, v_to)` cost tables.
//!
//! Segment energy depends only on `(v_from, v_to, segment_length, grade)`
//! (see [`EnergyModel::segment_energy_grid`]) and the DP's velocity grid is
//! fixed, so the whole transition structure of a layer is one V×V matrix
//! determined by the segment's *class* — its quantized `(length, grade)`
//! pair. A [`TransitionTable`] caches one [`CostTable`] per class; it lives
//! in the solver arena, so the matrix computed for the first layer of the
//! first trip serves every later layer, every trip of a batch, and every
//! replanning tick that shares the class. On a uniform corridor (every
//! interior segment is `Δs` long) that collapses millions of energy-model
//! evaluations per solve into a few hundred per *arena lifetime*.
//!
//! ## Quantization, and why results stay bit-identical
//!
//! Classes are keyed by [`snap`]ped length and grade. The quanta are powers
//! of two ([`LENGTH_QUANTUM`] = 2⁻¹⁰ m, [`GRADE_QUANTUM`] = 2⁻²⁰ rad), so
//! `snap` — a divide, `round`, multiply chain where both scalings are exact
//! in binary floating point — is *idempotent and exact*: a value already on
//! the quantum grid (every station spacing of a uniform corridor, a flat
//! road's zero grade) is a fixed point and snaps to itself bit-for-bit.
//! The solver evaluates energies **at the snapped values** whether or not
//! memoization is enabled ([`crate::dp::DpConfig::memo`]), so a memoized
//! solve and a direct solve see identical costs on every input, and on
//! on-grid inputs both match the historical unsnapped solver exactly.
//!
//! Aliasing is impossible by construction: two segments share a table only
//! if they snap to the same `(length, grade)`, and the table's costs are a
//! pure function of the snapped pair.
//!
//! ## Window-bound tables
//!
//! The arena's second memo, `BoundsMemo`, keeps the exact solver's
//! slot-uniform pruning tables. They depend on the corridor's cost tables,
//! dwell times and arrival windows but never on the start time or speed,
//! so a corridor re-planned at a new departure under the same windows
//! reuses them. Entries are keyed by every input word, compared for
//! equality, and bounded by [`BOUNDS_MEMO_BYTES`].

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use velopt_common::units::{Meters, Radians};
use velopt_ev_energy::{EnergyModel, GridSpec};

/// Segment-length quantum: 2⁻¹⁰ m (≈ 1 mm). Power of two, so snapping is
/// exact and on-grid lengths (20 m stations, metre-valued road ends) are
/// fixed points.
pub const LENGTH_QUANTUM: f64 = 1.0 / 1024.0;

/// Grade quantum: 2⁻²⁰ rad (≈ 1 µrad ≈ 0.0001% grade). Power of two, so a
/// flat road's zero grade snaps to itself exactly.
pub const GRADE_QUANTUM: f64 = 1.0 / 1_048_576.0;

/// Rounds `x` to the nearest multiple of `quantum`.
///
/// With a power-of-two quantum both the division and the multiplication
/// are exact (they only change the exponent), so the result is the true
/// nearest multiple and on-grid inputs return bit-identically.
/// A sub-half-quantum negative value rounds to `-0.0`, which is
/// numerically identical to `+0.0` but has different bits; it is
/// normalized so both key into the same class.
#[inline]
pub fn snap(x: f64, quantum: f64) -> f64 {
    let snapped = (x / quantum).round() * quantum;
    if snapped == 0.0 {
        0.0
    } else {
        snapped
    }
}

/// The quantized identity of a segment: which cost table it shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassKey {
    length_bits: u64,
    grade_bits: u64,
}

impl ClassKey {
    /// The snapped length and grade bits: the class's exact identity.
    pub(crate) fn words(&self) -> [u64; 2] {
        [self.length_bits, self.grade_bits]
    }

    /// Quantizes a raw `(length, grade)` pair, returning the key and the
    /// snapped values the class's costs must be evaluated at.
    pub fn quantize(length: Meters, grade: Radians) -> (Self, Meters, Radians) {
        let l = snap(length.value(), LENGTH_QUANTUM);
        let g = snap(grade.value(), GRADE_QUANTUM);
        (
            Self {
                length_bits: l.to_bits(),
                grade_bits: g.to_bits(),
            },
            Meters::new(l),
            Radians::new(g),
        )
    }
}

/// One class's precomputed V×V transition-cost matrix: `(charge [Ah],
/// duration [s])` per `(v_from, v_to)` lattice pair, `None` where the
/// transition is kinematically infeasible.
///
/// Alongside the option-typed entries the table keeps a structure-of-arrays
/// mirror — one contiguous charge row and one duration row per source
/// speed, with `NaN` marking infeasible targets — so the SIMD relax
/// kernels (the crate-private `simd` module) can stream a whole target-speed band with
/// unit-stride loads instead of unpacking an `Option<(f64, f64)>` per
/// candidate. Both views are filled from the same grid evaluation, so
/// they can never disagree.
#[derive(Debug, Clone)]
pub struct CostTable {
    n_speeds: usize,
    entries: Vec<Option<(f64, f64)>>,
    charges: Vec<f64>,
    durations: Vec<f64>,
}

impl CostTable {
    /// Evaluates the full lattice for one segment class. Returns the table
    /// and the number of energy-model evaluations it cost.
    pub fn build(energy: &EnergyModel, spec: &GridSpec) -> (Self, u64) {
        let (grid, evals) = energy.segment_energy_grid(spec);
        let entries: Vec<Option<(f64, f64)>> = grid
            .into_iter()
            .map(|e| e.map(|seg| (seg.charge.value(), seg.duration.value())))
            .collect();
        let charges = entries
            .iter()
            .map(|e| e.map_or(f64::NAN, |(c, _)| c))
            .collect();
        let durations = entries
            .iter()
            .map(|e| e.map_or(f64::NAN, |(_, d)| d))
            .collect();
        (
            Self {
                n_speeds: spec.n_speeds,
                entries,
                charges,
                durations,
            },
            evals,
        )
    }

    /// Lattice size.
    pub fn n_speeds(&self) -> usize {
        self.n_speeds
    }

    /// The `(charge, duration)` of the `v_from_idx → v_to_idx` transition,
    /// or `None` if infeasible.
    #[inline]
    pub fn get(&self, v_from_idx: usize, v_to_idx: usize) -> Option<(f64, f64)> {
        self.entries[v_from_idx * self.n_speeds + v_to_idx]
    }

    /// Whole source row `v_from_idx` (length `n_speeds`).
    #[inline]
    pub fn row(&self, v_from_idx: usize) -> &[Option<(f64, f64)>] {
        &self.entries[v_from_idx * self.n_speeds..(v_from_idx + 1) * self.n_speeds]
    }

    /// Contiguous charge row for source speed `v_from_idx` (length
    /// `n_speeds`, `NaN` = infeasible transition).
    #[inline]
    pub fn charges(&self, v_from_idx: usize) -> &[f64] {
        &self.charges[v_from_idx * self.n_speeds..(v_from_idx + 1) * self.n_speeds]
    }

    /// Contiguous duration row for source speed `v_from_idx` (length
    /// `n_speeds`, `NaN` = infeasible transition).
    #[inline]
    pub fn durations(&self, v_from_idx: usize) -> &[f64] {
        &self.durations[v_from_idx * self.n_speeds..(v_from_idx + 1) * self.n_speeds]
    }
}

/// Per-solve cache accounting, folded into
/// [`SolverMetrics`](crate::metrics::SolverMetrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Layer table requests served from the cache.
    pub hits: u64,
    /// Layer table requests that had to build a fresh table.
    pub misses: u64,
    /// Energy-model evaluations spent building tables.
    pub energy_evals: u64,
}

/// The cross-layer, cross-trip, cross-tick transition-cost cache.
///
/// Held in [`SolverArena`](crate::dp::SolverArena). The cache is valid for
/// exactly one solver *signature* (energy-model fingerprint, velocity grid
/// and acceleration bounds); [`TransitionTable::reconcile`] drops every
/// table when the signature changes, so an arena can be moved between
/// optimizers without ever serving stale physics.
#[derive(Debug, Clone, Default)]
pub struct TransitionTable {
    signature: u64,
    index: HashMap<ClassKey, usize>,
    tables: Vec<CostTable>,
}

impl TransitionTable {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct segment classes cached.
    pub fn classes(&self) -> usize {
        self.tables.len()
    }

    /// Keeps the cache only if it was built under `signature`; otherwise
    /// clears it and adopts the new signature.
    pub fn reconcile(&mut self, signature: u64) {
        if self.signature != signature {
            self.index.clear();
            self.tables.clear();
            self.signature = signature;
        }
    }

    /// Returns the class id for a segment, building its cost table on the
    /// first encounter. `spec.distance`/`spec.grade` must already be the
    /// snapped values from [`ClassKey::quantize`].
    pub fn class_for(
        &mut self,
        key: ClassKey,
        energy: &EnergyModel,
        spec: &GridSpec,
        stats: &mut MemoStats,
    ) -> usize {
        if let Some(&id) = self.index.get(&key) {
            stats.hits += 1;
            return id;
        }
        let (table, evals) = CostTable::build(energy, spec);
        stats.misses += 1;
        stats.energy_evals += evals;
        let id = self.tables.len();
        self.tables.push(table);
        self.index.insert(key, id);
        id
    }

    /// The cost table of a class id returned by
    /// [`class_for`](Self::class_for).
    #[inline]
    pub fn table(&self, class: usize) -> &CostTable {
        &self.tables[class]
    }
}

/// Byte budget of one arena's window-bound memo, keys and tables counted:
/// about a dozen 1 km corridors' tables over the default 901 time bins, or
/// two of US-25's.
pub const BOUNDS_MEMO_BYTES: usize = 4 << 20;

/// The exact solver's slot-uniform pruning tables for one corridor and
/// window set, one row per station: `emin[i][v]` over speeds and
/// `wait[i][b]` over time bins.
///
/// Rows stay separate allocations (7.2 KB of `wait` at the default 901
/// bins). One station-major block is 1.5 MB for US-25, and allocating one
/// per build made glibc's malloc hand freed DP layer stacks back to the
/// kernel and fault them in again: `ego_replan` took 30× the minor page
/// faults of per-row tables and ran about 8% slower.
#[derive(Debug)]
pub(crate) struct WindowBounds {
    pub(crate) emin: Vec<Vec<f64>>,
    pub(crate) wait: Vec<Vec<f64>>,
}

/// Every input of one window-bound build as raw words, so two keys are
/// equal only if the builds would read equal bits. The hash only speeds up
/// rejection; equality always compares every word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BoundsKey {
    hash: u64,
    words: Vec<u64>,
}

impl BoundsKey {
    pub(crate) fn new(words: Vec<u64>) -> Self {
        let hash = words.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &w| {
            (h ^ w).wrapping_mul(0x100_0000_01b3)
        });
        Self { hash, words }
    }
}

/// Window-bound tables of earlier solves on one arena, least recently used
/// evicted first once [`BOUNDS_MEMO_BYTES`] would be passed. An entry larger
/// than the whole budget serves its own solve and is not kept.
#[derive(Debug, Clone, Default)]
pub(crate) struct BoundsMemo {
    entries: VecDeque<(BoundsKey, Arc<WindowBounds>)>,
    bytes: usize,
}

impl BoundsMemo {
    /// Number of kept entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Bytes the kept entries count against the budget.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// The tables an earlier build under `key` produced, now marked most
    /// recently used.
    pub(crate) fn get(&mut self, key: &BoundsKey) -> Option<Arc<WindowBounds>> {
        let at = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(at)?;
        let tables = Arc::clone(&entry.1);
        self.entries.push_back(entry);
        Some(tables)
    }

    /// Keeps `tables` under `key`, evicting the least recently used entries
    /// until the budget holds.
    pub(crate) fn insert(&mut self, key: BoundsKey, tables: Arc<WindowBounds>) {
        let size = Self::entry_bytes(&key, &tables);
        if size > BOUNDS_MEMO_BYTES {
            return;
        }
        while self.bytes + size > BOUNDS_MEMO_BYTES {
            let (k, t) = self
                .entries
                .pop_front()
                .expect("a memo over budget holds an entry");
            self.bytes -= Self::entry_bytes(&k, &t);
        }
        self.bytes += size;
        self.entries.push_back((key, tables));
    }

    fn entry_bytes(key: &BoundsKey, tables: &WindowBounds) -> usize {
        let rows = tables.emin.iter().chain(&tables.wait);
        std::mem::size_of::<(BoundsKey, Arc<WindowBounds>)>()
            + std::mem::size_of::<WindowBounds>()
            + 8 * key.words.len()
            + rows
                .map(|row| std::mem::size_of::<Vec<f64>>() + 8 * row.len())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velopt_common::units::{MetersPerSecond, MetersPerSecondSq};
    use velopt_ev_energy::VehicleParams;

    fn spec(distance: f64, grade: f64) -> GridSpec {
        GridSpec {
            dv: MetersPerSecond::new(1.0),
            n_speeds: 12,
            distance: Meters::new(distance),
            grade: Radians::new(grade),
            a_min: MetersPerSecondSq::new(-1.5),
            a_max: MetersPerSecondSq::new(2.5),
        }
    }

    #[test]
    fn snap_is_exact_on_grid_values() {
        // Values already on the quantum grid are fixed points, bit-for-bit.
        for x in [0.0, 20.0, 4200.0, 17.5, -3.25] {
            assert_eq!(snap(x, LENGTH_QUANTUM).to_bits(), x.to_bits());
        }
        assert_eq!(snap(0.0, GRADE_QUANTUM).to_bits(), 0.0_f64.to_bits());
        // And off-grid values move by at most half a quantum.
        let snapped = snap(19.9998765, LENGTH_QUANTUM);
        assert!((snapped - 19.9998765).abs() <= LENGTH_QUANTUM / 2.0);
        assert_eq!(snap(snapped, LENGTH_QUANTUM).to_bits(), snapped.to_bits());
    }

    #[test]
    fn same_class_shares_a_table() {
        let energy = EnergyModel::new(VehicleParams::spark_ev());
        let mut cache = TransitionTable::new();
        let mut stats = MemoStats::default();
        // Two segments closer than the quanta: same class, one build.
        let (k1, l1, g1) = ClassKey::quantize(Meters::new(20.0), Radians::new(1e-8));
        let (k2, l2, g2) = ClassKey::quantize(
            Meters::new(20.0 + LENGTH_QUANTUM / 8.0),
            Radians::new(-1e-8),
        );
        assert_eq!(k1, k2);
        assert_eq!(l1.value().to_bits(), l2.value().to_bits());
        assert_eq!(g1.value().to_bits(), g2.value().to_bits());
        let s = GridSpec {
            distance: l1,
            grade: g1,
            ..spec(0.0, 0.0)
        };
        let a = cache.class_for(k1, &energy, &s, &mut stats);
        let b = cache.class_for(k2, &energy, &s, &mut stats);
        assert_eq!(a, b);
        assert_eq!(cache.classes(), 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert!(stats.energy_evals > 0);
    }

    #[test]
    fn change_beyond_quantum_gets_a_fresh_table() {
        let energy = EnergyModel::new(VehicleParams::spark_ev());
        let mut cache = TransitionTable::new();
        let mut stats = MemoStats::default();
        // A grade change beyond the quantum must not alias into the flat
        // class: same length, different table, different costs.
        let (flat_key, l, flat_g) = ClassKey::quantize(Meters::new(20.0), Radians::ZERO);
        let (hill_key, _, hill_g) =
            ClassKey::quantize(Meters::new(20.0), Radians::new(4.0 * GRADE_QUANTUM));
        assert_ne!(flat_key, hill_key);
        let flat = cache.class_for(
            flat_key,
            &energy,
            &GridSpec {
                distance: l,
                grade: flat_g,
                ..spec(0.0, 0.0)
            },
            &mut stats,
        );
        let hill = cache.class_for(
            hill_key,
            &energy,
            &GridSpec {
                distance: l,
                grade: hill_g,
                ..spec(0.0, 0.0)
            },
            &mut stats,
        );
        assert_ne!(flat, hill);
        assert_eq!(stats.misses, 2);
        // Steady 10 → 10 m/s cruising costs more uphill: no silent aliasing.
        let c_flat = cache.table(flat).get(10, 10).unwrap().0;
        let c_hill = cache.table(hill).get(10, 10).unwrap().0;
        assert!(c_hill > c_flat);
        // Length changes beyond the quantum split classes too.
        let (other_len, _, _) =
            ClassKey::quantize(Meters::new(20.0 + 2.0 * LENGTH_QUANTUM), Radians::ZERO);
        assert_ne!(other_len, flat_key);
    }

    #[test]
    fn reconcile_drops_tables_on_signature_change() {
        let energy = EnergyModel::new(VehicleParams::spark_ev());
        let mut cache = TransitionTable::new();
        let mut stats = MemoStats::default();
        cache.reconcile(42);
        let (key, l, g) = ClassKey::quantize(Meters::new(20.0), Radians::ZERO);
        let s = GridSpec {
            distance: l,
            grade: g,
            ..spec(0.0, 0.0)
        };
        cache.class_for(key, &energy, &s, &mut stats);
        assert_eq!(cache.classes(), 1);
        cache.reconcile(42);
        assert_eq!(cache.classes(), 1, "same signature keeps the cache");
        cache.reconcile(7);
        assert_eq!(cache.classes(), 0, "new signature clears the cache");
    }

    /// Tables of two stations, about `16·n_bins` bytes.
    fn bound_tables(n_bins: usize) -> Arc<WindowBounds> {
        Arc::new(WindowBounds {
            emin: vec![vec![0.0]; 2],
            wait: vec![vec![0.0; n_bins]; 2],
        })
    }

    #[test]
    fn bounds_memo_evicts_least_recently_used_within_budget() {
        let mut memo = BoundsMemo::default();
        let key = |w: u64| BoundsKey::new(vec![w, 7]);
        // Four entries of just over 1 MiB: only three fit in 4 MiB.
        let mib = 1 << 16;
        for w in 0..3 {
            memo.insert(key(w), bound_tables(mib));
            assert!(memo.bytes() <= BOUNDS_MEMO_BYTES);
        }
        assert_eq!(memo.len(), 3);
        // A hit hands back the kept tables and marks them recently used...
        let hit = memo.get(&key(0)).unwrap();
        assert!(Arc::ptr_eq(&hit, &memo.get(&key(0)).unwrap()));
        assert!(memo.get(&key(9)).is_none());
        // ...so the next insert evicts key 1, the least recently used.
        memo.insert(key(3), bound_tables(mib));
        assert_eq!(memo.len(), 3);
        assert!(memo.bytes() <= BOUNDS_MEMO_BYTES);
        assert!(memo.get(&key(1)).is_none());
        for w in [0, 2, 3] {
            assert!(memo.get(&key(w)).is_some(), "key {w} was evicted");
        }
    }

    #[test]
    fn bounds_entry_over_the_budget_is_not_kept() {
        let mut memo = BoundsMemo::default();
        memo.insert(BoundsKey::new(vec![1]), bound_tables(64));
        let bytes = memo.bytes();
        memo.insert(
            BoundsKey::new(vec![2]),
            bound_tables(BOUNDS_MEMO_BYTES / 16 + 1),
        );
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.bytes(), bytes);
        assert!(memo.get(&BoundsKey::new(vec![1])).is_some());
    }

    #[test]
    fn bounds_keys_compare_every_word() {
        assert_eq!(BoundsKey::new(vec![1, 2, 3]), BoundsKey::new(vec![1, 2, 3]));
        assert_ne!(BoundsKey::new(vec![1, 2, 3]), BoundsKey::new(vec![1, 2, 4]));
        assert_ne!(BoundsKey::new(vec![1, 2]), BoundsKey::new(vec![1, 2, 0]));
    }

    #[test]
    fn table_lookup_matches_grid() {
        let energy = EnergyModel::new(VehicleParams::spark_ev());
        let s = spec(20.0, 0.0);
        let (table, _) = CostTable::build(&energy, &s);
        let (grid, _) = energy.segment_energy_grid(&s);
        for vi in 0..s.n_speeds {
            let row = table.row(vi);
            let charges = table.charges(vi);
            let durations = table.durations(vi);
            for vj in 0..s.n_speeds {
                let want = grid[vi * s.n_speeds + vj]
                    .map(|seg| (seg.charge.value(), seg.duration.value()));
                assert_eq!(table.get(vi, vj), want);
                assert_eq!(row[vj], want);
                // The SoA mirror carries the same bits, NaN for infeasible.
                match want {
                    Some((c, d)) => {
                        assert_eq!(charges[vj].to_bits(), c.to_bits());
                        assert_eq!(durations[vj].to_bits(), d.to_bits());
                    }
                    None => {
                        assert!(charges[vj].is_nan());
                        assert!(durations[vj].is_nan());
                    }
                }
            }
        }
    }
}
