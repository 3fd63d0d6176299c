//! Event counters in cells the counting thread owns.
//!
//! A process-wide table holds [`SLOTS`] thread slots. A thread claims
//! the first free one on its first count and releases it when it exits.
//! Every [`Cells`] block holds one cache-line-aligned row of its
//! counters per slot, plus one overflow row. A thread that owns a slot
//! adds to its row with a plain load and store: no other thread writes
//! that row while the slot is held, so no update can be lost. A thread
//! that found every slot taken, or counts while its thread-locals are
//! torn down, shares the overflow row and adds there with `fetch_add`.
//!
//! A read sums the rows. While threads count it is exact per counter
//! but not a cross-counter instant; once they are quiesced (joined, or
//! past a synchronising operation) it is exact. A slot's row is never
//! cleared: the next thread to claim it counts on from where the last
//! one stopped, and the `Release` store that frees a slot and the
//! `Acquire` exchange that claims it hand the row over.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Threads that can each own a row of every block at once; the rest
/// share the overflow row.
const SLOTS: usize = 64;

/// The overflow row's index, after the slots' rows.
const OVERFLOW: usize = SLOTS;

/// Which slots a live thread holds.
static CLAIMED: [AtomicBool; SLOTS] = [const { AtomicBool::new(false) }; SLOTS];

/// A thread's row index, held for the thread's life.
struct Slot(usize);

impl Slot {
    /// The first free slot, or the overflow row when none is free.
    fn claim() -> Slot {
        let free = CLAIMED.iter().position(|claimed| {
            claimed
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        });
        Slot(free.unwrap_or(OVERFLOW))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        if let Some(claimed) = CLAIMED.get(self.0) {
            claimed.store(false, Ordering::Release);
        }
    }
}

thread_local! {
    /// Claimed on this thread's first count.
    static SLOT: Slot = Slot::claim();
}

/// The row this thread adds to.
#[inline]
fn slot() -> usize {
    SLOT.try_with(|slot| slot.0).unwrap_or(OVERFLOW)
}

/// One slot's `N` counters, alone on their cache line(s).
#[repr(align(64))]
struct Row<const N: usize>([AtomicU64; N]);

/// `N` event counters, one row per thread slot plus the overflow row.
/// [`counter_block!`](crate::counter_block) builds every component's
/// counters on it; nothing else needs to name it.
pub struct Cells<const N: usize> {
    rows: Box<[Row<N>]>,
}

impl<const N: usize> Default for Cells<N> {
    fn default() -> Self {
        let row = |_| Row(std::array::from_fn(|_| AtomicU64::new(0)));
        Cells {
            rows: (0..=SLOTS).map(row).collect(),
        }
    }
}

impl<const N: usize> Cells<N> {
    /// Adds `deltas[i]` to counter `i`. On the thread's own row each
    /// non-zero delta costs a load and a store; on the overflow row, a
    /// `fetch_add`. Always inlined: most deltas are constants at the
    /// call site, so every zero one folds away.
    #[inline(always)]
    pub fn add(&self, deltas: [u64; N]) {
        let slot = slot();
        for (cell, n) in self.rows[slot].0.iter().zip(deltas) {
            if n == 0 {
                continue;
            }
            if slot == OVERFLOW {
                cell.fetch_add(n, Ordering::Relaxed);
            } else {
                let now = cell.load(Ordering::Relaxed).wrapping_add(n);
                cell.store(now, Ordering::Relaxed);
            }
        }
    }

    /// Every counter, summed over the rows.
    pub fn sums(&self) -> [u64; N] {
        let mut sums = [0u64; N];
        for row in self.rows.iter() {
            for (sum, cell) in sums.iter_mut().zip(&row.0) {
                *sum = sum.wrapping_add(cell.load(Ordering::Relaxed));
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier, Mutex};
    use std::thread;

    /// Serialises the tests that hold every slot with those that need
    /// one free.
    static SLOT_HEAVY: Mutex<()> = Mutex::new(());

    /// Runs `threads` threads at once; each counts `bumps` ones into
    /// `cells` after all have started, then waits for the rest before
    /// it exits, so every one holds its row while the others count.
    fn count_together(cells: &Arc<Cells<2>>, threads: usize, bumps: u64) {
        let start = Arc::new(Barrier::new(threads));
        let done = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (cells, start, done) = (cells.clone(), start.clone(), done.clone());
                thread::Builder::new()
                    .stack_size(64 * 1024)
                    .spawn(move || {
                        start.wait();
                        for _ in 0..bumps {
                            cells.add([1, 2]);
                        }
                        done.wait();
                    })
                    .expect("spawn")
            })
            .collect();
        for handle in handles {
            handle.join().expect("counting thread");
        }
    }

    #[test]
    fn concurrent_bumps_sum_exactly() {
        let cells = Arc::new(Cells::<2>::default());
        count_together(&cells, 8, 100_000);
        assert_eq!(cells.sums(), [800_000, 1_600_000]);
    }

    #[test]
    fn threads_past_the_slots_count_through_the_overflow_row() {
        let _heavy = SLOT_HEAVY.lock().unwrap_or_else(|e| e.into_inner());
        let cells = Arc::new(Cells::<2>::default());
        let (threads, bumps) = (SLOTS + 4, 1_000);
        count_together(&cells, threads, bumps);
        assert_eq!(
            cells.sums(),
            [threads as u64 * bumps, 2 * threads as u64 * bumps]
        );
        // At most `SLOTS` of them held a slot at once.
        let overflow = cells.rows[OVERFLOW].0[0].load(Ordering::Relaxed);
        assert!(overflow >= 4 * bumps, "overflow row holds {overflow}");
    }

    #[test]
    fn a_released_slot_is_reclaimed_and_keeps_its_counts() {
        let _heavy = SLOT_HEAVY.lock().unwrap_or_else(|e| e.into_inner());
        let cells = Arc::new(Cells::<2>::default());
        // One thread at a time, more threads than slots: unless a
        // joined thread's slot is freed for the next, the later ones
        // would overflow.
        let threads = 2 * SLOTS as u64;
        for _ in 0..threads {
            let cells = cells.clone();
            thread::spawn(move || cells.add([1, 0]))
                .join()
                .expect("counting thread");
        }
        assert_eq!(cells.sums(), [threads, 0]);
        assert_eq!(cells.rows[OVERFLOW].0[0].load(Ordering::Relaxed), 0);
        // Some slot served several threads, each counting on from where
        // the last stopped.
        let most = cells.rows[..SLOTS].iter();
        let most = most.map(|row| row.0[0].load(Ordering::Relaxed)).max();
        assert!(most > Some(1), "every thread had a slot of its own");
    }
}
