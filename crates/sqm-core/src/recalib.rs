//! Online recalibration seam — atomic mid-run region-table swaps.
//!
//! The paper's Quality Manager is provably safe only against the
//! `Cwc`/`Cav` model its tables were compiled from; when the platform
//! drifts, the compiled `tD` thresholds go stale and the manager either
//! misses deadlines (optimistic tables) or wastes budget (pessimistic
//! ones). This module provides the runtime half of the recalibration
//! loop: a place to *publish* a freshly compiled
//! [`QualityRegionTable`] while streams are running, and a manager that
//! picks the new table up without stopping the stream.
//!
//! * [`TableCell`] — a shared, thread-safe slot holding the current
//!   table behind an [`Arc`], with a monotone epoch counter. Publishing
//!   replaces the whole table in one step; readers clone the `Arc`, so a
//!   reader always sees either the complete old table or the complete
//!   new one — never a torn mix.
//! * [`AdaptiveLookupManager`] — realizes the same `Γ` as
//!   [`LookupManager`](crate::manager::LookupManager) over the cell's
//!   current table, through the same hint-resuming region lookup (the
//!   hint restarts from `qmax` at every cycle start, so it is valid on a
//!   swapped table too). It refreshes its snapshot in
//!   [`QualityManager::reset`], which the engine calls at every cycle
//!   start ([`Engine::run_cycle`](crate::engine::Engine::run_cycle)), so
//!   the swap granularity is the **cycle boundary**: every decision
//!   within one cycle consults one consistent table, and the first cycle
//!   after a publish runs entirely on the new one. Until the first
//!   publish, runs are byte-identical to a plain `LookupManager` over
//!   the seed table (pinned by test).
//!
//! The estimation half — observing actual execution times, re-profiling
//! `Cav`/`Cwc`, recompiling and publishing — lives upstream in
//! `sqm-platform`'s `recalib` module, which plugs into any runner
//! (including [`StreamingRunner`](crate::stream::StreamingRunner) and
//! the elastic scheduler) through the [`ExecutionTimeSource`] seam, so
//! no runner needed a new entry point for mid-run swaps.
//!
//! [`ExecutionTimeSource`]: crate::controller::ExecutionTimeSource

use crate::manager::{hinted_lookup, Decision, QualityManager};
use crate::quality::Quality;
use crate::regions::QualityRegionTable;
use crate::time::Time;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A shared slot for the current compiled region table.
///
/// `Sync` by construction (mutex-guarded `Arc` plus an atomic epoch), so
/// one cell can serve every worker of a fleet; the epoch lets readers
/// skip the lock on the fast path (`epoch()` is a single atomic load)
/// and take it only when a publish actually happened.
#[derive(Debug)]
pub struct TableCell {
    slot: Mutex<Arc<QualityRegionTable>>,
    epoch: AtomicU64,
}

impl TableCell {
    /// A cell seeded with `table` at epoch 0.
    pub fn new(table: QualityRegionTable) -> TableCell {
        TableCell {
            slot: Mutex::new(Arc::new(table)),
            epoch: AtomicU64::new(0),
        }
    }

    /// The number of publishes so far (0 = still on the seed table).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Atomically replace the current table, returning the new epoch.
    /// Readers holding the old `Arc` keep a complete, consistent table;
    /// new loads see the replacement.
    pub fn publish(&self, table: QualityRegionTable) -> u64 {
        let mut slot = self.slot.lock().expect("table cell poisoned");
        *slot = Arc::new(table);
        // Bump under the lock so epoch and slot can never be observed
        // out of order by a loader that also takes the lock.
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Snapshot the current table and its epoch.
    pub fn load(&self) -> (u64, Arc<QualityRegionTable>) {
        let slot = self.slot.lock().expect("table cell poisoned");
        (self.epoch.load(Ordering::Acquire), Arc::clone(&slot))
    }
}

/// A lookup manager whose region table can be swapped mid-run through a
/// shared [`TableCell`].
///
/// Identical choices and identical charged work as
/// [`LookupManager`](crate::manager::LookupManager) over whatever table
/// is current — both run the same hint-resuming lookup, whose choices
/// and charged work equal the reference scan
/// [`QualityRegionTable::choose`]. The snapshot refreshes at cycle
/// boundaries (see the module docs for the atomicity contract).
///
/// # Examples
///
/// Swap to a table compiled for a relaxed deadline mid-run; the manager
/// picks it up at the next cycle boundary:
///
/// ```
/// use sqm_core::compiler::compile_regions;
/// use sqm_core::manager::QualityManager;
/// use sqm_core::recalib::{AdaptiveLookupManager, TableCell};
/// use sqm_core::system::SystemBuilder;
/// use sqm_core::time::Time;
///
/// let sys = SystemBuilder::new(2)
///     .action("a", &[100, 200], &[60, 120])
///     .deadline_last(Time::from_ns(250))
///     .build()
///     .unwrap();
/// let cell = TableCell::new(compile_regions(&sys));
/// let mut manager = AdaptiveLookupManager::new(&cell);
///
/// let before = manager.decide(0, Time::ZERO);
/// cell.publish(compile_regions(&sys).shifted(Time::from_ns(50)));
/// manager.reset(); // what the engine does at every cycle start
/// let after = manager.decide(0, Time::ZERO);
/// assert_eq!(manager.swaps_seen(), 1);
/// assert!(after.quality >= before.quality, "more slack never lowers quality");
/// ```
#[derive(Debug)]
pub struct AdaptiveLookupManager<'c> {
    cell: &'c TableCell,
    table: Arc<QualityRegionTable>,
    hint: Quality,
    epoch: u64,
    swaps_seen: u64,
}

impl<'c> AdaptiveLookupManager<'c> {
    /// A manager reading its table from `cell`.
    pub fn new(cell: &'c TableCell) -> AdaptiveLookupManager<'c> {
        let (epoch, table) = cell.load();
        debug_assert!(table.rows_monotone(), "the hint walk needs monotone rows");
        AdaptiveLookupManager {
            cell,
            hint: table.qualities().max(),
            table,
            epoch,
            swaps_seen: 0,
        }
    }

    /// The table snapshot decisions are currently made against.
    pub fn table(&self) -> &QualityRegionTable {
        &self.table
    }

    /// How many published swaps this manager has picked up.
    pub fn swaps_seen(&self) -> u64 {
        self.swaps_seen
    }

    /// Re-snapshot the cell if a newer table was published. Called from
    /// [`QualityManager::reset`] (i.e. at every cycle start); callers
    /// driving decisions by hand may call it directly.
    pub fn refresh(&mut self) {
        if self.cell.epoch() != self.epoch {
            let (epoch, table) = self.cell.load();
            debug_assert!(table.rows_monotone(), "the hint walk needs monotone rows");
            self.epoch = epoch;
            self.table = table;
            self.swaps_seen += 1;
        }
    }
}

impl QualityManager for AdaptiveLookupManager<'_> {
    #[inline]
    fn decide(&mut self, state: usize, t: Time) -> Decision {
        hinted_lookup(&self.table, &mut self.hint, state, t)
    }

    fn name(&self) -> &'static str {
        "regions-adaptive"
    }

    fn reset(&mut self) {
        self.refresh();
        self.hint = self.table.qualities().max();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_regions;
    use crate::controller::{ConstantExec, FnExec, OverheadModel};
    use crate::engine::{CycleChaining, Engine};
    use crate::manager::LookupManager;
    use crate::source::Periodic;
    use crate::stream::{OverloadPolicy, StreamConfig, StreamingRunner};
    use crate::system::{ParameterizedSystem, SystemBuilder};
    use crate::trace::Trace;

    fn sys() -> ParameterizedSystem {
        SystemBuilder::new(3)
            .action("a", &[10, 25, 40], &[4, 9, 14])
            .action("b", &[12, 22, 35], &[6, 11, 17])
            .action("c", &[8, 18, 28], &[3, 8, 12])
            .deadline_last(Time::from_ns(55))
            .build()
            .unwrap()
    }

    /// With no publish, the adaptive manager is byte-identical to the
    /// plain lookup manager — summaries and full traces.
    #[test]
    fn without_swaps_identical_to_lookup_manager() {
        let s = sys();
        let regions = compile_regions(&s);
        let cell = TableCell::new(regions.clone());
        let overhead = OverheadModel::new(Time::from_ns(2), Time::from_ns(1));
        let period = s.final_deadline();
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            let mut plain_trace = Trace::default();
            let plain = Engine::new(&s, LookupManager::new(&regions), overhead).run_cycles(
                5,
                period,
                chaining,
                &mut ConstantExec::average(s.table()),
                &mut plain_trace,
            );
            let mut adaptive_trace = Trace::default();
            let adaptive = Engine::new(&s, AdaptiveLookupManager::new(&cell), overhead).run_cycles(
                5,
                period,
                chaining,
                &mut ConstantExec::average(s.table()),
                &mut adaptive_trace,
            );
            assert_eq!(adaptive, plain, "{chaining:?}");
            for (a, b) in plain_trace.cycles.iter().zip(&adaptive_trace.cycles) {
                assert_eq!(a.records, b.records, "{chaining:?}");
            }
        }
        assert_eq!(cell.epoch(), 0);
    }

    /// A table published mid-stream (from inside the execution-time
    /// source, i.e. while `StreamingRunner::run` is draining arrivals)
    /// takes effect at the next cycle boundary and changes decisions.
    #[test]
    fn mid_stream_publish_takes_effect_at_next_cycle() {
        let s = sys();
        let cell = TableCell::new(compile_regions(&s));
        // Relax the thresholds by +30 ns from cycle 2 on: with more
        // believed slack the manager chooses higher qualities.
        let relaxed = compile_regions(&s).shifted(Time::from_ns(30));
        let published = std::cell::Cell::new(false);
        let table = s.table().clone();
        let mut exec = FnExec(|cycle: usize, action: usize, q| {
            if cycle == 2 && !published.get() {
                published.set(true);
                cell.publish(relaxed.clone());
            }
            let _ = action;
            table.av(action, q)
        });
        let mut engine = Engine::new(&s, AdaptiveLookupManager::new(&cell), OverheadModel::ZERO);
        let mut trace = Trace::default();
        // Arrival-clamped starts: average-time cycles finish before the
        // period, so every cycle begins at t = 0 and the first decision
        // depends only on the table in force.
        let runner = StreamingRunner::new(StreamConfig::live(8, OverloadPolicy::Block));
        let out = runner.run(
            &mut engine,
            &mut Periodic::new(s.final_deadline(), 6),
            &mut exec,
            &mut trace,
        );
        assert_eq!(out.stats.processed, 6);
        assert_eq!(cell.epoch(), 1);
        assert_eq!(engine.manager().swaps_seen(), 1);
        // Cycle 2 ran on the old snapshot (the publish happened after its
        // reset); cycle 3+ run on the relaxed table. The relaxed table
        // admits a strictly higher first-decision quality here.
        let q_first = |c: usize| trace.cycles[c].records[0].quality;
        assert_eq!(q_first(0), q_first(2), "publish is cycle-granular");
        assert!(
            q_first(3) > q_first(0),
            "relaxed table must raise the first choice: {:?} vs {:?}",
            q_first(3),
            q_first(0)
        );
        assert_eq!(q_first(3), q_first(5), "new table persists");
    }

    /// The cell is shareable across threads (fleet workers) and a
    /// publish is picked up exactly once per manager.
    #[test]
    fn cell_is_sync_and_swaps_count_once() {
        let s = sys();
        let cell = TableCell::new(compile_regions(&s));
        std::thread::scope(|scope| {
            let cell = &cell;
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        let mut m = AdaptiveLookupManager::new(cell);
                        m.refresh();
                        m.swaps_seen()
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), 0);
            }
        });
        cell.publish(compile_regions(&s));
        cell.publish(compile_regions(&s));
        let mut m = AdaptiveLookupManager::new(&cell);
        m.refresh();
        assert_eq!(m.swaps_seen(), 0, "constructor already saw epoch 2");
        cell.publish(compile_regions(&s));
        m.refresh();
        m.refresh();
        assert_eq!(m.swaps_seen(), 1, "one publish = one pickup");
    }
}
