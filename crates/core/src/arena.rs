//! Reusable DP layer storage.
//!
//! A replanning loop calls `optimize_from` every few simulated seconds, and
//! every solve relaxes one layer per station. Two stores keep those layers
//! alive between solves, so a warm solve reuses capacity instead of
//! reallocating:
//!
//! * [`LayerPool`] — equally-shaped dense buffers, one per layer: the
//!   Greedy DP's `n_stations × n_speeds` layers. A pooled buffer whose
//!   capacity already covers the requested size is cleared and reused.
//! * `LayerStack` — the Exact DP's time-expanded layers. A sweep writes a
//!   tiny share of each layer's `n_speeds × n_bins` slots (0.42% of the
//!   US-25 lattice), so the stack relaxes each layer into one dense scratch
//!   layer and keeps, per layer and speed row, only the run of bins between
//!   the first and the last slot the sweep wrote. What it retains follows
//!   the states a solve reaches, not the lattice.
//!
//! Both count reuse hits vs. growths so
//! [`SolverMetrics`](crate::metrics::SolverMetrics) can report whether the
//! arena is actually paying off.

/// Per-call accounting returned by [`LayerPool::take_layers`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseStats {
    /// Buffers served from existing capacity.
    pub reuse_hits: u64,
    /// Buffers that had to grow (or be created).
    pub allocations: u64,
}

/// A pool of equally-shaped scratch buffers (one per DP layer).
#[derive(Clone, Default)]
pub struct LayerPool<T> {
    buffers: Vec<Vec<T>>,
}

impl<T: Clone> LayerPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self {
            buffers: Vec::new(),
        }
    }

    /// Returns `count` buffers of length `len`, every element reset to
    /// `fill`, reusing pooled capacity where possible.
    pub fn take_layers(
        &mut self,
        count: usize,
        len: usize,
        fill: T,
    ) -> (&mut [Vec<T>], LeaseStats) {
        let mut stats = LeaseStats::default();
        while self.buffers.len() < count {
            self.buffers.push(Vec::new());
        }
        for buf in &mut self.buffers[..count] {
            if buf.capacity() >= len {
                stats.reuse_hits += 1;
            } else {
                stats.allocations += 1;
            }
            buf.clear();
            buf.resize(len, fill.clone());
        }
        telemetry::add("arena.reuse_hits", stats.reuse_hits);
        telemetry::add("arena.allocations", stats.allocations);
        (&mut self.buffers[..count], stats)
    }
}

impl<T> std::fmt::Debug for LayerPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LayerPool({} buffers)", self.buffers.len())
    }
}

/// A stack of sparse layers of `rows × bins` slots: one dense scratch layer
/// that the next layer is written into, and the committed layers, each row
/// kept as its first bin and the run of slots up to its last written one.
///
/// Between commits every scratch slot is `None`: a commit moves each row's
/// written span out, and the writer reports every slot it wrote inside
/// those spans.
#[derive(Debug, Clone)]
pub(crate) struct LayerStack<T> {
    scratch: Vec<Option<T>>,
    rows: usize,
    bins: usize,
    /// The most slots the current shape's layers can hold; growth stops
    /// there, so the stack never reserves more than one full lattice.
    lattice: usize,
    /// Every committed row's run, layer after layer, row after row.
    slots: Vec<Option<T>>,
    /// Where each committed row's run starts in `slots`, plus one entry
    /// closing the last row.
    starts: Vec<usize>,
    /// Each committed row's first bin (0 for an empty run).
    firsts: Vec<u32>,
}

impl<T> Default for LayerStack<T> {
    fn default() -> Self {
        Self {
            scratch: Vec::new(),
            rows: 0,
            bins: 0,
            lattice: 0,
            slots: Vec::new(),
            starts: Vec::new(),
            firsts: Vec::new(),
        }
    }
}

/// One committed layer of a [`LayerStack`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct StackLayer<'a, T> {
    slots: &'a [Option<T>],
    starts: &'a [usize],
    firsts: &'a [u32],
}

impl<'a, T: Copy> StackLayer<'a, T> {
    /// Row `row`'s first bin and its run of slots (empty: nothing written).
    pub(crate) fn row(&self, row: usize) -> (usize, &'a [Option<T>]) {
        let run = &self.slots[self.starts[row]..self.starts[row + 1]];
        (self.firsts[row] as usize, run)
    }

    /// The slot at `bin` of row `row`: `None` outside the row's run.
    pub(crate) fn get(&self, row: usize, bin: usize) -> Option<T> {
        let (first, run) = self.row(row);
        bin.checked_sub(first)
            .and_then(|k| run.get(k).copied())
            .flatten()
    }
}

impl<T: Copy> LayerStack<T> {
    /// Empties the stack for a solve of up to `layers` layers of
    /// `rows × bins` slots. Every scratch slot is already `None`, so a new
    /// shape only resizes the scratch layer.
    pub(crate) fn reset(&mut self, layers: usize, rows: usize, bins: usize) {
        debug_assert!(self.scratch.iter().all(Option::is_none));
        self.scratch.resize(rows * bins, None);
        self.rows = rows;
        self.bins = bins;
        self.lattice = layers * rows * bins;
        self.slots.clear();
        self.starts.clear();
        self.starts.push(0);
        self.firsts.clear();
    }

    /// Keeps the first `layers` committed layers and drops the rest.
    pub(crate) fn truncate(&mut self, layers: usize) {
        debug_assert!(layers <= self.layers());
        let rows = layers * self.rows;
        self.firsts.truncate(rows);
        self.starts.truncate(rows + 1);
        self.slots.truncate(self.starts[rows]);
    }

    /// Number of committed layers.
    pub(crate) fn layers(&self) -> usize {
        self.firsts.len().checked_div(self.rows).unwrap_or(0)
    }

    /// Committed layer `layer`.
    pub(crate) fn layer(&self, layer: usize) -> StackLayer<'_, T> {
        let r = layer * self.rows;
        StackLayer {
            slots: &self.slots,
            starts: &self.starts[r..=r + self.rows],
            firsts: &self.firsts[r..r + self.rows],
        }
    }

    /// The top committed layer to read and the scratch layer (row-major,
    /// `row * bins + bin`) to write: what relaxing the next layer borrows.
    pub(crate) fn relax_view(&mut self) -> (StackLayer<'_, T>, &mut [Option<T>]) {
        let r = (self.layers() - 1) * self.rows;
        let top = StackLayer {
            slots: &self.slots,
            starts: &self.starts[r..=r + self.rows],
            firsts: &self.firsts[r..r + self.rows],
        };
        (top, &mut self.scratch)
    }

    /// Commits a first layer holding the one slot `(row, bin)`.
    pub(crate) fn seed(&mut self, row: usize, bin: usize, value: T) {
        self.scratch[row * self.bins + bin] = Some(value);
        let mut spans = vec![None; self.rows];
        spans[row] = Some((bin as u32, bin as u32));
        self.commit(&spans);
    }

    /// Moves each row's written span of the scratch layer onto the stack
    /// as a new layer, leaving the scratch layer all `None`. `spans[row]`
    /// is the inclusive bin span written in `row` (`None`: nothing).
    pub(crate) fn commit(&mut self, spans: &[Option<(u32, u32)>]) {
        for (row, span) in spans.iter().enumerate() {
            let mut first = 0;
            if let Some((lo, hi)) = *span {
                let run = &mut self.scratch[row * self.bins..][lo as usize..=hi as usize];
                if self.slots.capacity() - self.slots.len() < run.len() {
                    // Double like `Vec`, but never past one lattice.
                    let room = self.lattice.saturating_sub(self.slots.len());
                    let more = self.slots.capacity().max(run.len()).min(room);
                    self.slots.reserve_exact(more);
                }
                self.slots.extend(run.iter_mut().map(Option::take));
                first = lo;
            }
            self.firsts.push(first);
            self.starts.push(self.slots.len());
        }
    }

    /// Slots reserved by the scratch layer and the stack together: it
    /// grows only when a layer needs more room than earlier ones left.
    pub(crate) fn capacity(&self) -> usize {
        self.scratch.capacity()
            + self.slots.capacity()
            + self.starts.capacity()
            + self.firsts.capacity()
    }

    /// Slots held by the committed layers.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.slots.len()
    }

    /// Committed rows whose run is not empty.
    #[cfg(test)]
    pub(crate) fn occupied_rows(&self) -> usize {
        self.starts.windows(2).filter(|w| w[1] > w[0]).count()
    }

    /// Whether every scratch slot is `None`.
    #[cfg(test)]
    pub(crate) fn scratch_is_clear(&self) -> bool {
        self.scratch.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_lease_allocates_second_reuses() {
        let mut pool: LayerPool<Option<u32>> = LayerPool::new();
        let (layers, stats) = pool.take_layers(3, 8, None);
        assert_eq!(layers.len(), 3);
        assert!(layers.iter().all(|l| l.len() == 8));
        assert_eq!(
            stats,
            LeaseStats {
                reuse_hits: 0,
                allocations: 3
            }
        );

        layers[0][0] = Some(7);
        let (layers, stats) = pool.take_layers(3, 8, None);
        assert_eq!(
            stats,
            LeaseStats {
                reuse_hits: 3,
                allocations: 0
            }
        );
        // Reused buffers come back reset.
        assert!(layers[0][0].is_none());
    }

    #[test]
    fn growth_counts_as_allocation() {
        let mut pool: LayerPool<u8> = LayerPool::new();
        let _ = pool.take_layers(2, 4, 0);
        let (_, stats) = pool.take_layers(4, 16, 0);
        assert_eq!(stats.reuse_hits, 0);
        assert_eq!(stats.allocations, 4);
        // And once grown, everything reuses.
        let (_, stats) = pool.take_layers(4, 16, 0);
        assert_eq!(stats.reuse_hits, 4);
    }

    #[test]
    fn shrinking_lease_reuses_capacity() {
        let mut pool: LayerPool<u8> = LayerPool::new();
        let _ = pool.take_layers(2, 100, 0);
        let (layers, stats) = pool.take_layers(1, 10, 9);
        assert_eq!(stats.reuse_hits, 1);
        assert_eq!(layers[0].len(), 10);
        assert!(layers[0].iter().all(|&x| x == 9));
    }

    /// A stack of three 2 × 10 layers: each commit keeps only the written
    /// span of each row (holes inside it included), clears the scratch
    /// layer, and truncation drops whole layers.
    #[test]
    fn stack_keeps_each_rows_written_span() {
        let mut stack: LayerStack<u32> = LayerStack::default();
        stack.reset(3, 2, 10);
        stack.seed(1, 4, 7);
        let (top, scratch) = stack.relax_view();
        assert_eq!(top.row(0), (0, &[][..]));
        assert_eq!(top.row(1), (4, &[Some(7)][..]));
        scratch[3] = Some(1);
        scratch[6] = Some(2);
        scratch[10 + 9] = Some(3);
        stack.commit(&[Some((3, 6)), Some((9, 9))]);
        assert!(stack.scratch_is_clear());
        assert_eq!(stack.layers(), 2);
        assert_eq!((stack.held(), stack.occupied_rows()), (6, 3));
        let layer = stack.layer(1);
        assert_eq!(layer.row(0), (3, &[Some(1), None, None, Some(2)][..]));
        assert_eq!(
            (layer.get(0, 3), layer.get(0, 4), layer.get(0, 2)),
            (Some(1), None, None)
        );
        assert_eq!((layer.get(1, 9), layer.get(1, 10)), (Some(3), None));
        stack.truncate(1);
        assert_eq!((stack.layers(), stack.held()), (1, 1));
        assert_eq!(stack.layer(0).get(1, 4), Some(7));
        // Never reserved past the 3 × 2 × 10 lattice.
        assert!(stack.slots.capacity() <= 60);
    }
}
