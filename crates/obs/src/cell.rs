//! Per-thread-sharded counter and gauge cells.
//!
//! The hot-path cost model is the whole design: a [`Counter::inc`] is one
//! `fetch_add(1, Relaxed)` on a cache line that — up to [`CELLS`] threads —
//! no other thread writes, so instrumented fast paths (presence-index
//! `contains`, optimistic range traversals, descriptor helping) pay an
//! uncontended RMW instead of a shared-line ping-pong. Reads sum every cell
//! ([`Counter::value`]), which makes reading `O(CELLS)` and therefore
//! strictly a *snapshot-time* cost: exactly the right trade for metrics
//! that are written millions of times a second and read a few times a
//! window.
//!
//! Threads are assigned cells round-robin on first use (a thread-local
//! slot index shared by every counter and gauge in the process); with more
//! than [`CELLS`] live threads cells are shared and the `fetch_add`
//! degrades gracefully to a contended one — never to a lock.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Number of padded cells per counter/gauge: enough to keep every harness
/// thread count in the workspace (the paper sweeps up to 24) on a private
/// cache line.
pub const CELLS: usize = 64;

/// Round-robin allocator for thread slots.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's cell index, assigned on first metric touch.
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % CELLS;
}

/// The calling thread's cell index.
#[inline]
pub(crate) fn thread_slot() -> usize {
    SLOT.with(|s| *s)
}

/// One cache line per cell so two threads' cells never share one.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

#[repr(align(64))]
struct PaddedI64(AtomicI64);

/// A monotone event counter, sharded across [`CELLS`] per-thread cells.
///
/// Writes are relaxed, uncontended `fetch_add`s; [`Counter::value`] sums
/// the cells. The sum is exact once writers are quiescent and, under
/// concurrency, always a value the counter actually passed through
/// (cells only grow).
pub struct Counter {
    cells: [PaddedU64; CELLS],
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Counter {
            cells: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[thread_slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of all cells.
    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.value())
            .finish()
    }
}

/// A signed up/down gauge, sharded the same way as [`Counter`]: the value
/// is the sum of per-cell deltas, so `add`/`sub` from any thread stay
/// uncontended and [`Gauge::value`] is the net level.
pub struct Gauge {
    cells: [PaddedI64; CELLS],
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Self {
        Gauge {
            cells: std::array::from_fn(|_| PaddedI64(AtomicI64::new(0))),
        }
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.cells[thread_slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Net sum of all cells.
    pub fn value(&self) -> i64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge")
            .field("value", &self.value())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_cells() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.value(), 42);
    }

    #[test]
    fn gauge_goes_up_and_down() {
        let g = Gauge::new();
        g.add(10);
        g.dec();
        g.sub(3);
        assert_eq!(g.value(), 6);
    }

    #[test]
    fn counter_is_exact_across_threads() {
        let c = Arc::new(Counter::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), threads as u64 * per_thread);
    }
}
