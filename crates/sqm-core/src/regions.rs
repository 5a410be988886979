//! Quality regions `Rq` (§3.2, Proposition 2).
//!
//! A quality region collects the states where the Quality Manager chooses a
//! given constant quality:
//!
//! ```text
//! Rq = { (s_i, t_i) | Γ(s_i, t_i) = q }
//! (s_i, t_i) ∈ Rq  ⟺  t_i ∈ ( tD(s_i, q+1), tD(s_i, q) ]      (q < qmax)
//!                      t_i ∈ ( −∞,           tD(s_i, q) ]      (q = qmax)
//! ```
//!
//! Because `tD` is non-increasing in `q`, the regions tile each state's time
//! axis into `|Q|` disjoint intervals (plus an infeasible tail above
//! `tD(s_i, qmin)`). A [`QualityRegionTable`] is the paper's symbolic
//! artifact: the `|A|·|Q|` integers `tD(s_i, q)` from which the online
//! manager answers every query with at most `|Q|` comparisons — no policy
//! arithmetic at run time.
//!
//! A table does not own its cells: it is a dense row-major **view** over a
//! shared [`TableArena`], so a loaded artifact's tables share one
//! allocation. Row `s` is the `|Q|` cells starting at `base + s·|Q|`.

use crate::arena::{row_major, TableArena};
use crate::policy::Policy;
use crate::quality::{Quality, QualitySet};
use crate::system::ParameterizedSystem;
use crate::time::Time;

/// The pre-computed region boundaries `tD(s_i, q)` for all states and
/// quality levels — `|A| · |Q|` integers, exactly the table the paper
/// reports for the MPEG encoder (`1,189 × 7 = 8,323`).
///
/// Equality is **semantic** (same shape, same cells), whatever arena the
/// views read from.
#[derive(Clone, Debug)]
pub struct QualityRegionTable {
    n_states: usize,
    qualities: QualitySet,
    arena: TableArena,
    /// First cell of row 0 inside `arena`.
    base: usize,
}

impl QualityRegionTable {
    /// Evaluate a policy at every `(state, quality)` pair, row-major,
    /// straight into the table's arena (one allocation, each cell written
    /// once). O(n·|Q|) given an O(1) policy.
    pub fn from_policy<P: Policy>(sys: &ParameterizedSystem, policy: &P) -> QualityRegionTable {
        let n = sys.n_actions();
        let qualities = sys.qualities();
        let arena = row_major(n, qualities.len(), |state, q| {
            policy.t_d(state, Quality::new(q as u8))
        })
        .collect();
        QualityRegionTable {
            n_states: n,
            qualities,
            arena,
            base: 0,
        }
    }

    /// Build from raw cells. The caller must provide `n_states · |Q|`
    /// values; only the length is checked (see
    /// [`QualityRegionTable::rows_monotone`]).
    pub fn from_raw(
        n_states: usize,
        qualities: QualitySet,
        td: Vec<Time>,
    ) -> Option<QualityRegionTable> {
        (td.len() == n_states * qualities.len()).then(|| QualityRegionTable {
            n_states,
            qualities,
            arena: TableArena::from_cells(td),
            base: 0,
        })
    }

    /// A dense view over `n_states` rows starting at cell `base` of a
    /// shared arena. Returns `None` when the arena is too short.
    pub fn dense_view(
        arena: TableArena,
        base: usize,
        n_states: usize,
        qualities: QualitySet,
    ) -> Option<QualityRegionTable> {
        let end = base.checked_add(n_states.checked_mul(qualities.len())?)?;
        (end <= arena.len()).then_some(QualityRegionTable {
            n_states,
            qualities,
            arena,
            base,
        })
    }

    /// Number of states covered (`|A|`: one decision point per action).
    #[inline]
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// The quality set.
    #[inline]
    pub fn qualities(&self) -> QualitySet {
        self.qualities
    }

    /// The backing arena this view reads from.
    #[inline]
    pub fn arena(&self) -> &TableArena {
        &self.arena
    }

    /// The stored boundary `tD(s_state, q)`.
    #[inline]
    pub fn t_d(&self, state: usize, q: Quality) -> Time {
        self.row(state)[q.index()]
    }

    /// Raw table contents, row-major by state.
    #[inline]
    pub fn raw(&self) -> &[Time] {
        &self.arena.cells()[self.base..self.base + self.integer_count()]
    }

    /// The contiguous boundary row `tD(s_state, ·)`, ordered by quality
    /// index — the cache-conscious view the online probes work on. Slicing
    /// the row once hoists the `state · |Q|` offset arithmetic *and* the
    /// bounds check out of the probe loop (for the paper's `|Q| = 7` the
    /// whole row is one cache line).
    #[inline]
    pub fn row(&self, state: usize) -> &[Time] {
        let nq = self.qualities.len();
        let start = self.base + state * nq;
        &self.arena.cells()[start..start + nq]
    }

    /// `true` when every row is non-increasing in `q` — the Proposition-2
    /// structure every policy-compiled table has, and the premise of the
    /// incremental search ([`QualityRegionTable::choose_from`]) every
    /// table-driven manager runs. [`QualityRegionTable::from_raw`] only
    /// checks the length; [`crate::artifact::Artifact::load`] rejects a
    /// table that fails this check.
    pub fn rows_monotone(&self) -> bool {
        (0..self.n_states).all(|state| self.row(state).windows(2).all(|w| w[0] >= w[1]))
    }

    /// The region interval of `(state, q)` as `(lower, upper]`; `lower` is
    /// [`Time::NEG_INF`] for `qmax` (Proposition 2).
    pub fn bounds(&self, state: usize, q: Quality) -> (Time, Time) {
        let upper = self.t_d(state, q);
        let lower = if q == self.qualities.max() {
            Time::NEG_INF
        } else {
            self.t_d(state, q.up())
        };
        (lower, upper)
    }

    /// Proposition 2 membership test: `(s_state, t) ∈ Rq`.
    pub fn contains(&self, state: usize, t: Time, q: Quality) -> bool {
        let (lower, upper) = self.bounds(state, q);
        lower < t && t <= upper
    }

    /// The reference scan of Proposition 2: the maximal `q` with
    /// `tD(s_state, q) ≥ t`, found by probing levels from `qmax` down.
    /// Returns the number of table probes alongside — the per-call work
    /// the symbolic managers are charged, at most `|Q|`.
    ///
    /// The managers reach the same choice through the hint-resuming
    /// [`QualityRegionTable::choose_from`] and charge
    /// [`QualityRegionTable::scan_work`]; this scan is the oracle the tests
    /// and the fuzz campaign re-derive their decisions from.
    pub fn choose(&self, state: usize, t: Time) -> (Option<Quality>, u64) {
        let row = self.row(state);
        let mut probes = 0;
        for (qi, &td) in row.iter().enumerate().rev() {
            probes += 1;
            if td >= t {
                return (Some(Quality::new(qi as u8)), probes);
            }
        }
        (None, probes)
    }

    /// The probe count [`QualityRegionTable::choose`] charges for a given
    /// outcome, computed analytically: the top-down scan probes
    /// `qmax … q`, i.e. `|Q| − q` levels, or all `|Q|` when no level is
    /// feasible. This is the paper's abstract per-decision work model —
    /// [`crate::manager::Decision::work`] is defined by this formula, not
    /// by whatever host-side search strategy produced the choice, which is
    /// what lets the managers' incremental search
    /// ([`QualityRegionTable::choose_from`]) charge exactly what this scan
    /// would.
    #[inline]
    pub fn scan_work(&self, choice: Option<Quality>) -> u64 {
        let nq = self.qualities.len() as u64;
        match choice {
            Some(q) => nq - q.index() as u64,
            None => nq,
        }
    }

    /// Incremental region search: the same choice as
    /// [`QualityRegionTable::choose`], but the probe *resumes from a hint*
    /// (typically the previously chosen quality) instead of rescanning from
    /// `qmax`. Because `tD(s, ·)` is non-increasing in `q`, the feasibility
    /// predicate `tD(s, q) ≥ t` is true exactly for a prefix of quality
    /// indices, so a local walk up or down from *any* starting point finds
    /// the maximal feasible level. Consecutive decisions within a cycle
    /// rarely move more than a level apart, making the amortized cost O(1)
    /// table probes instead of `O(|Q|)`. (The walk relies on the
    /// Proposition-2 monotone structure, which every policy-compiled or
    /// loaded table has; a hand-built [`QualityRegionTable::from_raw`]
    /// table with non-monotone rows must use
    /// [`QualityRegionTable::choose`].)
    ///
    /// Host-side work only: charge [`QualityRegionTable::scan_work`] for
    /// the virtual accounting, never the number of probes this method
    /// actually performed.
    ///
    /// # Examples
    ///
    /// ```
    /// use sqm_core::compiler::compile_regions;
    /// use sqm_core::system::SystemBuilder;
    /// use sqm_core::time::Time;
    ///
    /// let sys = SystemBuilder::new(3)
    ///     .action("a", &[10, 25, 40], &[4, 9, 14])
    ///     .action("b", &[12, 22, 35], &[6, 11, 17])
    ///     .deadline_last(Time::from_ns(70))
    ///     .build()
    ///     .unwrap();
    /// let table = compile_regions(&sys);
    /// for state in 0..2 {
    ///     for t in -10..80 {
    ///         let t = Time::from_ns(t);
    ///         let (naive, _) = table.choose(state, t);
    ///         for hint in sys.qualities().iter() {
    ///             assert_eq!(table.choose_from(state, t, hint), naive);
    ///         }
    ///     }
    /// }
    /// ```
    pub fn choose_from(&self, state: usize, t: Time, hint: Quality) -> Option<Quality> {
        let row = self.row(state);
        let mut qi = hint.index().min(row.len() - 1);
        if row[qi] >= t {
            // Feasible at the hint: walk up while the next level still fits.
            while qi + 1 < row.len() && row[qi + 1] >= t {
                qi += 1;
            }
            Some(Quality::new(qi as u8))
        } else {
            // Infeasible at the hint: walk down to the first feasible level.
            while qi > 0 {
                qi -= 1;
                if row[qi] >= t {
                    return Some(Quality::new(qi as u8));
                }
            }
            None
        }
    }

    /// A copy of this table with every boundary shifted by `delta`.
    ///
    /// For systems with a **single global deadline** `D` (the paper's MPEG
    /// setting), `D` enters `tD(s, q) = min_k D − CD(…)` purely additively,
    /// so re-negotiating the deadline to `D + delta` turns every stored
    /// boundary into `tD + delta` — no recompilation. (With multiple
    /// deadlines only the uniform-shift case `D_k → D_k + delta` for all
    /// `k` is exact, which this method also covers.) The copy owns a fresh
    /// arena, allocated once.
    pub fn shifted(&self, delta: Time) -> QualityRegionTable {
        let shift = |&t: &Time| if t.is_infinite() { t } else { t + delta };
        QualityRegionTable {
            n_states: self.n_states,
            qualities: self.qualities,
            arena: self.raw().iter().map(shift).collect(),
            base: 0,
        }
    }

    /// Number of integers in the symbolic representation (`|A|·|Q|` — the
    /// paper's 8,323 for the MPEG encoder).
    pub fn integer_count(&self) -> usize {
        self.n_states * self.qualities.len()
    }

    /// Memory footprint of the table payload in bytes (views sharing an
    /// arena share its cells, see [`TableArena::byte_size`]).
    pub fn byte_size(&self) -> usize {
        self.integer_count() * std::mem::size_of::<Time>()
    }
}

impl PartialEq for QualityRegionTable {
    fn eq(&self, other: &QualityRegionTable) -> bool {
        self.n_states == other.n_states
            && self.qualities == other.qualities
            && self.raw() == other.raw()
    }
}

impl Eq for QualityRegionTable {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{choose_quality, MixedPolicy};
    use crate::system::{ParameterizedSystem, SystemBuilder};

    fn sys() -> ParameterizedSystem {
        SystemBuilder::new(3)
            .action("a", &[10, 25, 40], &[4, 9, 14])
            .action("b", &[12, 22, 35], &[6, 11, 17])
            .action("c", &[8, 18, 28], &[3, 8, 12])
            .deadline_last(Time::from_ns(100))
            .build()
            .unwrap()
    }

    #[test]
    fn table_matches_policy() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let table = QualityRegionTable::from_policy(&s, &p);
        assert_eq!(table.n_states(), 3);
        assert_eq!(table.integer_count(), 9);
        for state in 0..3 {
            for q in s.qualities().iter() {
                assert_eq!(table.t_d(state, q), p.t_d(state, q));
            }
        }
    }

    #[test]
    fn choose_matches_numeric_choice() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let table = QualityRegionTable::from_policy(&s, &p);
        for state in 0..3 {
            for t_ns in -20..120 {
                let t = Time::from_ns(t_ns);
                let (symbolic, probes) = table.choose(state, t);
                let numeric = choose_quality(&p, 3, state, t);
                assert_eq!(symbolic, numeric, "state {state}, t {t}");
                assert!(probes as usize <= 3);
            }
        }
    }

    #[test]
    fn regions_partition_the_time_axis() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let table = QualityRegionTable::from_policy(&s, &p);
        for state in 0..3 {
            for t_ns in -50..150 {
                let t = Time::from_ns(t_ns);
                let member_count = s
                    .qualities()
                    .iter()
                    .filter(|&q| table.contains(state, t, q))
                    .count();
                let feasible = t <= table.t_d(state, Quality::MIN);
                assert_eq!(
                    member_count,
                    usize::from(feasible),
                    "each feasible t belongs to exactly one region (state {state}, t {t})"
                );
            }
        }
    }

    #[test]
    fn bounds_structure() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let table = QualityRegionTable::from_policy(&s, &p);
        let qmax = s.qualities().max();
        let (lo, _) = table.bounds(0, qmax);
        assert_eq!(lo, Time::NEG_INF);
        // Adjacent regions share a boundary: upper of q+1 is lower of q.
        for q in 0..2u8 {
            let q = Quality::new(q);
            let (lo_q, _) = table.bounds(0, q);
            let (_, up_q1) = table.bounds(0, q.up());
            assert_eq!(lo_q, up_q1);
        }
    }

    #[test]
    fn row_view_matches_indexed_access() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let table = QualityRegionTable::from_policy(&s, &p);
        for state in 0..3 {
            let row = table.row(state);
            assert_eq!(row.len(), 3);
            for q in s.qualities().iter() {
                assert_eq!(row[q.index()], table.t_d(state, q));
            }
        }
    }

    #[test]
    fn shifted_table_equals_recompiled_table() {
        // Single global deadline: shifting must be exact.
        let s = sys(); // deadline 100 on the last action
        let p = MixedPolicy::new(&s);
        let table = QualityRegionTable::from_policy(&s, &p);
        for delta_ns in [-15i64, 0, 40] {
            let shifted = table.shifted(Time::from_ns(delta_ns));
            let moved = SystemBuilder::new(3)
                .action("a", &[10, 25, 40], &[4, 9, 14])
                .action("b", &[12, 22, 35], &[6, 11, 17])
                .action("c", &[8, 18, 28], &[3, 8, 12])
                .deadline_last(Time::from_ns(100 + delta_ns))
                .build()
                .unwrap();
            let recompiled = QualityRegionTable::from_policy(&moved, &MixedPolicy::new(&moved));
            assert_eq!(shifted, recompiled, "delta {delta_ns}");
        }
    }

    #[test]
    fn from_raw_validates_length() {
        let qs = QualitySet::new(2).unwrap();
        assert!(QualityRegionTable::from_raw(2, qs, vec![Time::ZERO; 4]).is_some());
        assert!(QualityRegionTable::from_raw(2, qs, vec![Time::ZERO; 3]).is_none());
    }

    #[test]
    fn monotonicity_validator_detects_broken_rows() {
        let s = sys();
        let compiled = QualityRegionTable::from_policy(&s, &MixedPolicy::new(&s));
        assert!(compiled.rows_monotone());
        let qs = QualitySet::new(2).unwrap();
        let broken =
            QualityRegionTable::from_raw(1, qs, vec![Time::from_ns(5), Time::from_ns(9)]).unwrap();
        assert!(
            !broken.rows_monotone(),
            "tD increasing in q must be flagged"
        );
    }

    #[test]
    fn sizes() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let table = QualityRegionTable::from_policy(&s, &p);
        assert_eq!(table.byte_size(), 9 * 8);
    }

    #[test]
    fn dense_view_shares_the_arena() {
        let s = sys();
        let table = QualityRegionTable::from_policy(&s, &MixedPolicy::new(&s));
        let view =
            QualityRegionTable::dense_view(table.arena().clone(), 0, 3, table.qualities()).unwrap();
        assert!(view.arena().ptr_eq(table.arena()));
        assert_eq!(view, table);
        assert!(
            QualityRegionTable::dense_view(table.arena().clone(), 1, 3, table.qualities())
                .is_none()
        );
    }
}
