//! The controlled system's inputs: execution-time sources and the overhead
//! model.
//!
//! The controlled system `PS ‖ Γ` composes the application software with a Quality Manager
//! (the paper's Figure 2): before each action it invokes the manager (unless
//! a relaxation hold is active), **charges the manager's own execution time
//! to the clock**, runs the action with the chosen quality, and checks
//! deadlines. Charging QM overhead to the clock is the mechanism behind the
//! paper's Fig. 7: a cheaper manager leaves more budget for the application,
//! which the policy then converts into higher quality levels.
//!
//! That loop is [`crate::engine::Engine`]: `run_cycle` for one cycle,
//! `run_cycles` for consecutive cycles (video frames) chained onto one
//! clock, with records streaming into a [`crate::engine::TraceSink`] such
//! as a [`crate::trace::Trace`]. [`crate::stream::StreamingRunner`] drives
//! the same loop when cycles arrive from an event source
//! ([`crate::source`]) rather than the closed loop. This module holds the
//! loop's two inputs besides the manager: where actual execution times
//! come from ([`ExecutionTimeSource`]) and what a decision costs
//! ([`OverheadModel`]).

use crate::action::ActionId;
use crate::quality::Quality;
use crate::time::Time;
use crate::timing::TimeTable;

/// Source of *actual* execution times `C(a, q) ≤ Cwc(a, q)` — the unknown
/// the paper's whole construction defends against. Implementations live in
/// `sqm-platform` (stochastic, load-driven); the constant sources here
/// cover tests and worst-case analyses.
///
/// Every execution path (serial, trace replay, streaming, elastic) must
/// see the same time for the same query sequence. A source may therefore
/// cache derived content (a macroblock's texture, a request, a packet)
/// only under a key that includes the cycle as well as the unit, as a
/// [`Memo`] keyed on `(cycle, unit)` does: the content is then a pure
/// function of its key, and a replay that revisits cycles or units in any
/// order reads exactly what a fresh derivation would.
pub trait ExecutionTimeSource {
    /// Actual execution time of `action` at quality `q` in cycle `cycle`.
    fn actual(&mut self, cycle: usize, action: ActionId, q: Quality) -> Time;
}

/// Deterministic source replaying the timing table itself: either the
/// average column (the "ideal" trajectory of the speed diagram) or the
/// worst-case column (the adversarial run safety is proved against).
#[derive(Clone, Copy, Debug)]
pub struct ConstantExec<'a> {
    table: &'a TimeTable,
    worst: bool,
}

impl<'a> ConstantExec<'a> {
    /// Every action takes exactly its average time.
    pub fn average(table: &'a TimeTable) -> ConstantExec<'a> {
        ConstantExec {
            table,
            worst: false,
        }
    }

    /// Every action takes exactly its worst-case time.
    pub fn worst_case(table: &'a TimeTable) -> ConstantExec<'a> {
        ConstantExec { table, worst: true }
    }
}

impl ExecutionTimeSource for ConstantExec<'_> {
    fn actual(&mut self, _cycle: usize, action: ActionId, q: Quality) -> Time {
        if self.worst {
            self.table.wc(action, q)
        } else {
            self.table.av(action, q)
        }
    }
}

/// Closure-backed source for tests and fault injection.
pub struct FnExec<F>(pub F);

impl<F: FnMut(usize, ActionId, Quality) -> Time> ExecutionTimeSource for FnExec<F> {
    fn actual(&mut self, cycle: usize, action: ActionId, q: Quality) -> Time {
        (self.0)(cycle, action, q)
    }
}

impl<E: ExecutionTimeSource + ?Sized> ExecutionTimeSource for &mut E {
    fn actual(&mut self, cycle: usize, action: ActionId, q: Quality) -> Time {
        (**self).actual(cycle, action, q)
    }
}

/// A one-entry cache for content an [`ExecutionTimeSource`] derives per
/// key, typically `(cycle, unit)`.
///
/// The content models derive each unit (macroblock, request, packet) from
/// a pure function of its key, and a unit's actions run back to back, so
/// one entry serves every action after the first. A query under any other
/// key re-derives and replaces the entry: results never depend on the
/// order of queries.
///
/// # Examples
///
/// ```
/// use sqm_core::controller::Memo;
///
/// let mut memo = Memo::new();
/// let mut derived = 0;
/// for (cycle, unit) in [(0, 1), (0, 1), (1, 1), (0, 1)] {
///     memo.get((cycle, unit), || {
///         derived += 1;
///         cycle * 10 + unit
///     });
/// }
/// assert_eq!(derived, 3, "only the repeat in a row is served from the memo");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Memo<K, V> {
    entry: Option<(K, V)>,
}

impl<K, V> Memo<K, V> {
    /// An empty memo.
    pub const fn new() -> Memo<K, V> {
        Memo { entry: None }
    }
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Memo<K, V> {
        Memo::new()
    }
}

impl<K: Copy + PartialEq, V: Copy> Memo<K, V> {
    /// The value under `key`: the held one if `key` matches the entry,
    /// otherwise `derive()`, which then becomes the entry.
    #[inline]
    pub fn get(&mut self, key: K, derive: impl FnOnce() -> V) -> V {
        match self.entry {
            Some((k, v)) if k == key => v,
            _ => {
                let v = derive();
                self.entry = Some((key, v));
                v
            }
        }
    }
}

/// Converts a manager's abstract work units into clock time:
/// `cost(work) = base + per_unit · work`.
///
/// The base covers the fixed invocation cost (clock read, call, branch); the
/// per-unit slope covers one suffix-scan iteration (numeric manager) or one
/// table probe (symbolic managers). Calibrations for the virtual platform
/// live in `sqm-platform::overhead`; [`OverheadModel::ZERO`] disables
/// overhead accounting entirely (pure functional runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverheadModel {
    /// Fixed cost per QM invocation.
    pub base: Time,
    /// Cost per work unit.
    pub per_unit: Time,
}

impl OverheadModel {
    /// No overhead: decisions are free (functional testing).
    pub const ZERO: OverheadModel = OverheadModel {
        base: Time::ZERO,
        per_unit: Time::ZERO,
    };

    /// A model with the given base and slope.
    pub const fn new(base: Time, per_unit: Time) -> OverheadModel {
        OverheadModel { base, per_unit }
    }

    /// Clock cost of a decision that spent `work` units.
    #[inline]
    pub fn cost(&self, work: u64) -> Time {
        self.base + self.per_unit.saturating_mul(work as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_model_cost() {
        let m = OverheadModel::new(Time::from_ns(100), Time::from_ns(7));
        assert_eq!(m.cost(0), Time::from_ns(100));
        assert_eq!(m.cost(10), Time::from_ns(170));
        assert_eq!(OverheadModel::ZERO.cost(1000), Time::ZERO);
    }
}
