//! Control relaxation regions `Rrq` (§3.3, Proposition 3).
//!
//! From a state inside `Rrq`, the Quality Manager is *guaranteed* to choose
//! quality `q` for the next `r` actions — whatever the actual execution
//! times turn out to be (they can range anywhere in `[0, Cwc]`). Control can
//! therefore be skipped for `r − 1` steps with bit-identical quality
//! assignments. Proposition 3 characterizes the region as one interval per
//! state:
//!
//! ```text
//! (s_i, t_i) ∈ Rrq ⟺ t_i ∈ ( tD(s_{i+r−1}, q+1),  tD,r(s_i, q) ]
//! tD,r(s_i, q) = min_{i ≤ j ≤ i+r−1} ( tD(s_j, q) − Cwc(a_{i+1}..a_j, q) )
//! ```
//!
//! (for `q = qmax` the lower bound is `−∞`). A [`RelaxationTable`] stores
//! both bounds for every `(state, q, r ∈ ρ)` — `2·|A|·|Q|·|ρ|` integers,
//! the paper's `99,876` for the MPEG encoder with `ρ = {1,10,20,30,40,50}`.
//!
//! Like [`crate::regions::QualityRegionTable`], the table is a view over a
//! shared [`TableArena`] — dense after compilation, pooled when loaded
//! from a fleet artifact — and the per-state rows (`|Q|·|ρ|` cells for each
//! of the lower and upper bounds) are the unit of content-addressed dedup.

use crate::arena::TableArena;
use crate::error::BuildError;
use crate::quality::{Quality, QualitySet};
use crate::regions::QualityRegionTable;
use crate::system::ParameterizedSystem;
use crate::time::Time;
use std::collections::VecDeque;

/// The menu `ρ` of relaxation step counts the compiler pre-computes.
///
/// Must be strictly increasing and contain `1` (so a relaxation lookup can
/// always fall back to "no relaxation", which is plain region membership).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepSet {
    steps: Vec<usize>,
}

impl StepSet {
    /// The paper's MPEG configuration: `ρ = {1, 10, 20, 30, 40, 50}`.
    pub fn paper_mpeg() -> StepSet {
        StepSet::new(vec![1, 10, 20, 30, 40, 50]).expect("static step set is valid")
    }

    /// Validate a step menu.
    pub fn new(steps: Vec<usize>) -> Result<StepSet, BuildError> {
        let strictly_increasing = steps.windows(2).all(|w| w[0] < w[1]);
        if steps.first() != Some(&1) || !strictly_increasing {
            return Err(BuildError::InvalidStepSet);
        }
        Ok(StepSet { steps })
    }

    /// The steps, ascending.
    #[inline]
    pub fn steps(&self) -> &[usize] {
        &self.steps
    }

    /// `|ρ|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Never empty (contains 1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The largest step.
    #[inline]
    pub fn max_step(&self) -> usize {
        *self.steps.last().expect("non-empty")
    }
}

/// Where a relaxation view's bound rows live inside its arena. Both the
/// lower and the upper block are addressed per state with rows of
/// `|Q|·|ρ|` cells, `(q, ri)`-major within the row.
#[derive(Clone, Copy, Debug)]
enum RelaxLayout {
    /// Two dense row-major blocks at `lower` and `upper`.
    Dense { lower: usize, upper: usize },
    /// Per-state directories of pool indices for each block.
    Pooled {
        dir_lo: usize,
        dir_up: usize,
        pool_lo: usize,
        pool_up: usize,
    },
}

/// Offsets describing a pooled relaxation view inside an arena, used by
/// [`RelaxationTable::pooled_view`] (fleet-artifact loading).
#[derive(Clone, Copy, Debug)]
pub struct PooledRelaxation {
    /// Offset of the `n_states` lower-bound directory cells.
    pub dir_lo: usize,
    /// Offset of the `n_states` upper-bound directory cells.
    pub dir_up: usize,
    /// Offset of the lower-bound row pool.
    pub pool_lo: usize,
    /// Offset of the upper-bound row pool.
    pub pool_up: usize,
    /// Rows in the lower-bound pool.
    pub pool_rows_lo: usize,
    /// Rows in the upper-bound pool.
    pub pool_rows_up: usize,
}

/// Pre-computed control relaxation intervals for every `(state, q, r ∈ ρ)`.
///
/// Equality is **semantic** (same shape and `ρ`, same bound rows), so a
/// pooled fleet view compares equal to the dense table it came from.
#[derive(Clone, Debug)]
pub struct RelaxationTable {
    n_states: usize,
    qualities: QualitySet,
    rho: StepSet,
    arena: TableArena,
    layout: RelaxLayout,
}

impl RelaxationTable {
    /// Build from a quality-region table. O(n·|Q|·|ρ|) using a monotone
    /// deque for the sliding-window minimum of `tD(s_j, q) − Wq[j]`.
    #[allow(clippy::needless_range_loop)] // window arithmetic over explicit indices
    pub fn compile(
        sys: &ParameterizedSystem,
        regions: &QualityRegionTable,
        rho: StepSet,
    ) -> RelaxationTable {
        let n = sys.n_actions();
        debug_assert_eq!(regions.n_states(), n);
        let qualities = sys.qualities();
        let nq = qualities.len();
        let nr = rho.len();
        let mut lower = vec![Time::INF; n * nq * nr];
        let mut upper = vec![Time::NEG_INF; n * nq * nr];

        for q in qualities.iter() {
            // u(j) = tD(s_j, q) − Wq[q][j]; then
            // tD,r(s_i, q) = Wq[q][i] + min_{i ≤ j ≤ i+r−1} u(j).
            let wq: Vec<i64> = (0..=n).map(|x| sys.prefix().wc_prefix(q, x)).collect();
            let u: Vec<Time> = (0..n)
                .map(|j| regions.t_d(j, q) - Time::from_ns(wq[j]))
                .collect();
            for (ri, &r) in rho.steps().iter().enumerate() {
                if r > n {
                    continue;
                }
                // Sliding minimum of u over windows [i, i+r-1].
                let mut deque: VecDeque<usize> = VecDeque::new();
                // Pre-fill the first window.
                for j in 0..r {
                    while deque.back().is_some_and(|&b| u[b] >= u[j]) {
                        deque.pop_back();
                    }
                    deque.push_back(j);
                }
                for i in 0..=(n - r) {
                    let j_min = *deque.front().expect("window non-empty");
                    let up = u[j_min] + Time::from_ns(wq[i]);
                    let lo = if q == qualities.max() {
                        Time::NEG_INF
                    } else {
                        regions.t_d(i + r - 1, q.up())
                    };
                    let idx = (i * nq + q.index()) * nr + ri;
                    lower[idx] = lo;
                    upper[idx] = up;
                    // Slide: drop index i, add index i + r.
                    if deque.front() == Some(&i) {
                        deque.pop_front();
                    }
                    let next = i + r;
                    if next < n {
                        while deque.back().is_some_and(|&b| u[b] >= u[next]) {
                            deque.pop_back();
                        }
                        deque.push_back(next);
                    }
                }
            }
        }
        RelaxationTable::from_dense_parts(n, qualities, rho, lower, upper)
    }

    /// Seal freshly built `lower`/`upper` blocks into one dense arena.
    fn from_dense_parts(
        n_states: usize,
        qualities: QualitySet,
        rho: StepSet,
        mut lower: Vec<Time>,
        upper: Vec<Time>,
    ) -> RelaxationTable {
        let upper_base = lower.len();
        lower.extend_from_slice(&upper);
        RelaxationTable {
            n_states,
            qualities,
            rho,
            arena: TableArena::from_cells(lower),
            layout: RelaxLayout::Dense {
                lower: 0,
                upper: upper_base,
            },
        }
    }

    /// A dense view over a shared arena: `n_states · |Q| · |ρ|` lower cells
    /// at `lower` and as many upper cells at `upper`. Returns `None` when
    /// either block exceeds the arena.
    pub fn dense_view(
        arena: TableArena,
        lower: usize,
        upper: usize,
        n_states: usize,
        qualities: QualitySet,
        rho: StepSet,
    ) -> Option<RelaxationTable> {
        let block = n_states
            .checked_mul(qualities.len())?
            .checked_mul(rho.len())?;
        let lo_end = lower.checked_add(block)?;
        let up_end = upper.checked_add(block)?;
        (lo_end <= arena.len() && up_end <= arena.len()).then_some(RelaxationTable {
            n_states,
            qualities,
            rho,
            arena,
            layout: RelaxLayout::Dense { lower, upper },
        })
    }

    /// A pooled view over a fleet arena (see [`PooledRelaxation`] for the
    /// offsets). Returns `None` when a directory or pool exceeds the arena
    /// or any directory cell is out of its pool's bounds.
    pub fn pooled_view(
        arena: TableArena,
        spec: PooledRelaxation,
        n_states: usize,
        qualities: QualitySet,
        rho: StepSet,
    ) -> Option<RelaxationTable> {
        let width = qualities.len().checked_mul(rho.len())?;
        let check_block = |dir: usize, pool: usize, pool_rows: usize| -> Option<()> {
            let dir_end = dir.checked_add(n_states)?;
            let pool_end = pool.checked_add(pool_rows.checked_mul(width)?)?;
            if dir_end > arena.len() || pool_end > arena.len() {
                return None;
            }
            let in_bounds = arena.cells()[dir..dir_end].iter().all(|&ix| {
                let ix = ix.as_ns();
                ix >= 0 && (ix as u64) < pool_rows as u64
            });
            in_bounds.then_some(())
        };
        check_block(spec.dir_lo, spec.pool_lo, spec.pool_rows_lo)?;
        check_block(spec.dir_up, spec.pool_up, spec.pool_rows_up)?;
        Some(RelaxationTable {
            n_states,
            qualities,
            rho,
            arena,
            layout: RelaxLayout::Pooled {
                dir_lo: spec.dir_lo,
                dir_up: spec.dir_up,
                pool_lo: spec.pool_lo,
                pool_up: spec.pool_up,
            },
        })
    }

    /// Number of states.
    #[inline]
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// The step menu `ρ`.
    #[inline]
    pub fn rho(&self) -> &StepSet {
        &self.rho
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

    /// `true` when rows are directory indirections into shared pools (a
    /// fleet-artifact view).
    pub fn is_pooled(&self) -> bool {
        matches!(self.layout, RelaxLayout::Pooled { .. })
    }

    /// Cells per per-state bound row: `|Q| · |ρ|`.
    #[inline]
    fn row_width(&self) -> usize {
        self.qualities.len() * self.rho.len()
    }

    /// Start of the lower-bound row for `state`.
    #[inline]
    fn lower_start(&self, state: usize) -> usize {
        match self.layout {
            RelaxLayout::Dense { lower, .. } => lower + state * self.row_width(),
            RelaxLayout::Pooled {
                dir_lo, pool_lo, ..
            } => {
                // Directory cells are validated at view construction.
                pool_lo + self.arena.cells()[dir_lo + state].as_ns() as usize * self.row_width()
            }
        }
    }

    /// Start of the upper-bound row for `state`.
    #[inline]
    fn upper_start(&self, state: usize) -> usize {
        match self.layout {
            RelaxLayout::Dense { upper, .. } => upper + state * self.row_width(),
            RelaxLayout::Pooled {
                dir_up, pool_up, ..
            } => pool_up + self.arena.cells()[dir_up + state].as_ns() as usize * self.row_width(),
        }
    }

    /// The contiguous lower-bound row for `state` — `|Q|·|ρ|` cells,
    /// `(q, ri)`-major. The unit of fleet dedup and text serialization.
    #[inline]
    pub fn lower_row(&self, state: usize) -> &[Time] {
        let start = self.lower_start(state);
        &self.arena.cells()[start..start + self.row_width()]
    }

    /// The contiguous upper-bound row for `state` (see
    /// [`RelaxationTable::lower_row`]).
    #[inline]
    pub fn upper_row(&self, state: usize) -> &[Time] {
        let start = self.upper_start(state);
        &self.arena.cells()[start..start + self.row_width()]
    }

    /// The `(lower, upper]` interval of `Rrq` at `state` for the `ri`-th
    /// step of `ρ`. An empty interval (`lower ≥ upper` with
    /// `lower = +∞`) means the window overruns the cycle.
    pub fn bounds(&self, state: usize, q: Quality, ri: usize) -> (Time, Time) {
        let off = q.index() * self.rho.len() + ri;
        let cells = self.arena.cells();
        (
            cells[self.lower_start(state) + off],
            cells[self.upper_start(state) + off],
        )
    }

    /// The contiguous `(lower, upper)` interval rows for `(state, q)` over
    /// the whole step menu `ρ` — the cache-conscious view the relaxation
    /// probes work on. Slicing once hoists the
    /// `(state · |Q| + q) · |ρ|` offset arithmetic and the bounds checks
    /// out of the probe loop. Pooled views pay one extra directory load
    /// per bound; the probe loop is identical.
    #[inline]
    pub fn intervals(&self, state: usize, q: Quality) -> (&[Time], &[Time]) {
        let nr = self.rho.len();
        let off = q.index() * nr;
        let cells = self.arena.cells();
        let lo = self.lower_start(state) + off;
        let up = self.upper_start(state) + off;
        (&cells[lo..lo + nr], &cells[up..up + nr])
    }

    /// `true` when the intervals are nested over `ρ` at every `(state, q)`
    /// — lower bounds non-decreasing and upper bounds non-increasing in
    /// `ri`, so membership is prefix-monotone (`Rrq ⊆ Rr'q` for
    /// `r' ≤ r`). Every compiled table has this Proposition-3 structure,
    /// and the hint walk of [`RelaxationTable::choose_relaxation_from`]
    /// that the relaxed manager runs relies on it.
    /// [`RelaxationTable::from_raw`] only checks the length; the text and
    /// binary loaders reject a table that fails this check.
    pub fn nested_over_rho(&self) -> bool {
        (0..self.n_states).all(|state| {
            self.qualities.iter().all(|q| {
                let (lower, upper) = self.intervals(state, q);
                lower.windows(2).all(|w| w[0] <= w[1]) && upper.windows(2).all(|w| w[0] >= w[1])
            })
        })
    }

    /// Proposition 3 membership: `(s_state, t) ∈ Rrq` for `r = ρ[ri]`.
    pub fn contains(&self, state: usize, t: Time, q: Quality, ri: usize) -> bool {
        let (lo, up) = self.bounds(state, q, ri);
        lo < t && t <= up
    }

    /// The relaxed manager's second lookup: after region membership
    /// established quality `q` at `(state, t)`, find the largest `r ∈ ρ`
    /// whose relaxation interval contains `t`. Probes `ρ` from the largest
    /// step down; returns `(r, probes)`. Always succeeds with `r ≥ 1`
    /// because `R1q = Rq`.
    pub fn choose_relaxation(&self, state: usize, t: Time, q: Quality) -> (usize, u64) {
        let (lower, upper) = self.intervals(state, q);
        let mut probes = 0;
        for ri in (0..lower.len()).rev() {
            probes += 1;
            if lower[ri] < t && t <= upper[ri] {
                return (self.rho.steps()[ri], probes);
            }
        }
        // R1q = Rq and the caller established (state, t) ∈ Rq; numerical
        // consistency makes this unreachable, but degrade gracefully.
        (1, probes)
    }

    /// The probe count [`RelaxationTable::choose_relaxation`] charges for a
    /// given outcome, computed analytically: the top-down scan probes
    /// `|ρ| − ri` intervals to stop at index `ri`, or all `|ρ|` when none
    /// contains `t`. Like [`crate::regions::QualityRegionTable::scan_work`],
    /// this is the paper's abstract work model — independent of the
    /// host-side search strategy.
    #[inline]
    pub fn scan_work(&self, found_ri: Option<usize>) -> u64 {
        let nr = self.rho.len() as u64;
        match found_ri {
            Some(ri) => nr - ri as u64,
            None => nr,
        }
    }

    /// Incremental relaxation search: the index of the largest step in `ρ`
    /// whose interval contains `t`, resuming the probe from `hint`
    /// (typically the previously chosen index) instead of rescanning from
    /// the largest step. `None` means no interval contains `t` (the
    /// degraded `r = 1` case of [`RelaxationTable::choose_relaxation`]).
    ///
    /// Correct because the relaxation regions are *nested*:
    /// `Rrq ⊆ Rr'q` for `r' ≤ r` (the upper bound is a min over a growing
    /// window, the lower bound `tD(s_{i+r−1}, q+1)` is non-decreasing in
    /// `r`), so membership over `ρ` is true exactly for a prefix of
    /// indices and a local walk from any hint finds the largest member.
    ///
    /// Host-side work only: charge [`RelaxationTable::scan_work`] for the
    /// virtual accounting.
    ///
    /// # Examples
    ///
    /// ```
    /// use sqm_core::compiler::{compile_regions, compile_relaxation};
    /// use sqm_core::relaxation::StepSet;
    /// use sqm_core::system::SystemBuilder;
    /// use sqm_core::time::Time;
    ///
    /// let sys = SystemBuilder::new(2)
    ///     .action("a", &[10, 20], &[4, 9])
    ///     .action("b", &[12, 22], &[6, 11])
    ///     .action("c", &[8, 18], &[3, 8])
    ///     .deadline_last(Time::from_ns(80))
    ///     .build()
    ///     .unwrap();
    /// let regions = compile_regions(&sys);
    /// let relax = compile_relaxation(&sys, &regions, StepSet::new(vec![1, 2]).unwrap());
    /// for state in 0..3 {
    ///     for t in -10..90 {
    ///         let t = Time::from_ns(t);
    ///         if let (Some(q), _) = regions.choose(state, t) {
    ///             let (r, _) = relax.choose_relaxation(state, t, q);
    ///             for hint in 0..2 {
    ///                 let ri = relax.choose_relaxation_from(state, t, q, hint);
    ///                 assert_eq!(relax.rho().steps()[ri.unwrap()], r);
    ///             }
    ///         }
    ///     }
    /// }
    /// ```
    pub fn choose_relaxation_from(
        &self,
        state: usize,
        t: Time,
        q: Quality,
        hint: usize,
    ) -> Option<usize> {
        let (lower, upper) = self.intervals(state, q);
        let nr = lower.len();
        let mut ri = hint.min(nr - 1);
        if lower[ri] < t && t <= upper[ri] {
            while ri + 1 < nr && lower[ri + 1] < t && t <= upper[ri + 1] {
                ri += 1;
            }
            Some(ri)
        } else {
            while ri > 0 {
                ri -= 1;
                if lower[ri] < t && t <= upper[ri] {
                    return Some(ri);
                }
            }
            None
        }
    }

    /// A copy with every interval shifted by `delta` — exact for a uniform
    /// deadline shift, mirroring [`crate::regions::QualityRegionTable::shifted`]
    /// (both bounds are sums of `tD` values and deadline-independent
    /// worst-case terms). Sentinel bounds are preserved. The copy is
    /// always dense, whatever the source layout.
    pub fn shifted(&self, delta: Time) -> RelaxationTable {
        let shift = |t: Time| if t.is_infinite() { t } else { t + delta };
        let block = self.n_states * self.row_width();
        let mut lower = Vec::with_capacity(block);
        let mut upper = Vec::with_capacity(block);
        for state in 0..self.n_states {
            lower.extend(self.lower_row(state).iter().map(|&t| shift(t)));
            upper.extend(self.upper_row(state).iter().map(|&t| shift(t)));
        }
        RelaxationTable::from_dense_parts(
            self.n_states,
            self.qualities,
            self.rho.clone(),
            lower,
            upper,
        )
    }

    /// A dense copy of this table (identity in content for already-dense
    /// views).
    pub fn to_dense(&self) -> RelaxationTable {
        self.shifted(Time::ZERO)
    }

    /// Number of stored integers — `2·|A|·|Q|·|ρ|` (the paper's 99,876).
    pub fn integer_count(&self) -> usize {
        2 * self.n_states * self.row_width()
    }

    /// Memory footprint of the payload in bytes (dense equivalent; pooled
    /// views share their arena, see [`TableArena::byte_size`]).
    pub fn byte_size(&self) -> usize {
        self.integer_count() * std::mem::size_of::<Time>()
    }

    /// Raw bounds, for serialization: `(lower, upper)` slices.
    ///
    /// # Panics
    ///
    /// Panics on a pooled fleet view, whose rows are not contiguous —
    /// materialize with [`RelaxationTable::to_dense`] first. Every
    /// compiled or parsed table is dense.
    pub fn raw(&self) -> (&[Time], &[Time]) {
        match self.layout {
            RelaxLayout::Dense { lower, upper } => {
                let block = self.n_states * self.row_width();
                let cells = self.arena.cells();
                (&cells[lower..lower + block], &cells[upper..upper + block])
            }
            RelaxLayout::Pooled { .. } => {
                panic!("raw() on a pooled table view; use to_dense() or the row accessors")
            }
        }
    }

    /// Rebuild from raw parts (deserialization).
    pub fn from_raw(
        n_states: usize,
        qualities: QualitySet,
        rho: StepSet,
        lower: Vec<Time>,
        upper: Vec<Time>,
    ) -> Option<RelaxationTable> {
        let expect = n_states * qualities.len() * rho.len();
        (lower.len() == expect && upper.len() == expect)
            .then(|| RelaxationTable::from_dense_parts(n_states, qualities, rho, lower, upper))
    }
}

impl PartialEq for RelaxationTable {
    fn eq(&self, other: &RelaxationTable) -> bool {
        self.n_states == other.n_states
            && self.qualities == other.qualities
            && self.rho == other.rho
            && (0..self.n_states).all(|s| {
                self.lower_row(s) == other.lower_row(s) && self.upper_row(s) == other.upper_row(s)
            })
    }
}

impl Eq for RelaxationTable {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MixedPolicy;
    use crate::system::{ParameterizedSystem, SystemBuilder};

    fn sys() -> ParameterizedSystem {
        SystemBuilder::new(2)
            .action("a", &[10, 20], &[4, 9])
            .action("b", &[12, 22], &[6, 11])
            .action("c", &[8, 18], &[3, 8])
            .action("d", &[9, 21], &[5, 10])
            .action("e", &[11, 19], &[4, 9])
            .deadline_last(Time::from_ns(120))
            .build()
            .unwrap()
    }

    fn tables(s: &ParameterizedSystem) -> (QualityRegionTable, RelaxationTable) {
        let p = MixedPolicy::new(s);
        let regions = QualityRegionTable::from_policy(s, &p);
        let rho = StepSet::new(vec![1, 2, 3]).unwrap();
        let relax = RelaxationTable::compile(s, &regions, rho);
        (regions, relax)
    }

    #[test]
    fn step_set_validation() {
        assert!(StepSet::new(vec![]).is_err());
        assert!(StepSet::new(vec![2, 3]).is_err(), "must contain 1");
        assert!(StepSet::new(vec![1, 3, 3]).is_err(), "strictly increasing");
        assert!(StepSet::new(vec![1, 3, 2]).is_err());
        let rho = StepSet::new(vec![1, 10, 50]).unwrap();
        assert_eq!(rho.max_step(), 50);
        assert_eq!(rho.len(), 3);
        assert!(!rho.is_empty());
        assert_eq!(StepSet::paper_mpeg().steps(), &[1, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn r1_equals_quality_region() {
        let s = sys();
        let (regions, relax) = tables(&s);
        for state in 0..5 {
            for q in s.qualities().iter() {
                let (lo1, up1) = relax.bounds(state, q, 0);
                let (lo, up) = regions.bounds(state, q);
                assert_eq!((lo1, up1), (lo, up), "R1q = Rq at state {state} {q}");
            }
        }
    }

    #[test]
    fn upper_matches_brute_force_definition() {
        let s = sys();
        let (regions, relax) = tables(&s);
        let rho = relax.rho().clone();
        for state in 0..5usize {
            for q in s.qualities().iter() {
                for (ri, &r) in rho.steps().iter().enumerate() {
                    if state + r > 5 {
                        let (lo, up) = relax.bounds(state, q, ri);
                        assert!(lo >= up, "overrunning window is empty");
                        continue;
                    }
                    let brute = (state..state + r)
                        .map(|j| regions.t_d(j, q) - s.prefix().wc_range(state, j, q))
                        .fold(Time::INF, Time::min);
                    let (_, up) = relax.bounds(state, q, ri);
                    assert_eq!(up, brute, "tD,r at state {state} {q} r={r}");
                }
            }
        }
    }

    #[test]
    fn lower_is_next_region_boundary_at_window_end() {
        let s = sys();
        let (regions, relax) = tables(&s);
        let q0 = Quality::new(0);
        for state in 0..4usize {
            let (lo, _) = relax.bounds(state, q0, 1); // r = 2
            assert_eq!(lo, regions.t_d(state + 1, Quality::new(1)));
        }
        // qmax has an open lower bound.
        let (lo, _) = relax.bounds(0, Quality::new(1), 1);
        assert_eq!(lo, Time::NEG_INF);
    }

    #[test]
    fn relaxation_region_is_subset_of_quality_region() {
        let s = sys();
        let (regions, relax) = tables(&s);
        for state in 0..5 {
            for q in s.qualities().iter() {
                for ri in 0..3 {
                    for t_ns in -30..130 {
                        let t = Time::from_ns(t_ns);
                        if relax.contains(state, t, q, ri) {
                            assert!(
                                regions.contains(state, t, q),
                                "Rrq ⊆ Rq violated at state {state} {q} ri={ri} t={t}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn choose_relaxation_prefers_largest_step() {
        let s = sys();
        let (regions, relax) = tables(&s);
        for state in 0..5 {
            for t_ns in -30..130 {
                let t = Time::from_ns(t_ns);
                if let (Some(q), _) = regions.choose(state, t) {
                    let (r, probes) = relax.choose_relaxation(state, t, q);
                    assert!(r >= 1 && probes <= 3);
                    // Every larger step in ρ must NOT contain t.
                    for (ri, &step) in relax.rho().steps().iter().enumerate() {
                        if step > r {
                            assert!(!relax.contains(state, t, q, ri));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn relaxation_regions_are_nested_over_rho() {
        // The structural premise of the incremental search: membership over
        // ρ is true for a prefix of indices.
        let s = sys();
        let (_, relax) = tables(&s);
        for state in 0..5 {
            for q in s.qualities().iter() {
                for t_ns in -30..130 {
                    let t = Time::from_ns(t_ns);
                    let members: Vec<bool> =
                        (0..3).map(|ri| relax.contains(state, t, q, ri)).collect();
                    for ri in 1..3 {
                        assert!(
                            !members[ri] || members[ri - 1],
                            "Rrq ⊆ Rr'q violated at state {state} {q} t {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nesting_validator_accepts_compiled_rejects_broken() {
        let s = sys();
        let (_, relax) = tables(&s);
        assert!(relax.nested_over_rho());
        let (lo, up) = relax.raw();
        let mut up = up.to_vec();
        // Widen a larger step's interval past a smaller one's: not nested.
        up[2] = up[0] + Time::from_ns(1_000);
        let broken =
            RelaxationTable::from_raw(5, s.qualities(), relax.rho().clone(), lo.to_vec(), up)
                .unwrap();
        assert!(!broken.nested_over_rho());
    }

    #[test]
    fn interval_rows_match_indexed_bounds() {
        let s = sys();
        let (_, relax) = tables(&s);
        for state in 0..5 {
            for q in s.qualities().iter() {
                let (lower, upper) = relax.intervals(state, q);
                assert_eq!(lower.len(), 3);
                for ri in 0..3 {
                    assert_eq!((lower[ri], upper[ri]), relax.bounds(state, q, ri));
                }
            }
        }
    }

    #[test]
    fn shifted_equals_recompiled() {
        let s = sys(); // deadline 120 on the last action
        let (regions, relax) = tables(&s);
        for delta in [-10i64, 0, 25] {
            let shifted = relax.shifted(Time::from_ns(delta));
            // Recompile against the shifted system.
            let mut b = SystemBuilder::new(2);
            for (name, wc, av) in [
                ("a", [10, 20], [4, 9]),
                ("b", [12, 22], [6, 11]),
                ("c", [8, 18], [3, 8]),
                ("d", [9, 21], [5, 10]),
                ("e", [11, 19], [4, 9]),
            ] {
                b = b.action(name, &wc, &av);
            }
            let moved = b.deadline_last(Time::from_ns(120 + delta)).build().unwrap();
            let moved_regions = regions.shifted(Time::from_ns(delta));
            let recompiled = RelaxationTable::compile(
                &moved,
                &moved_regions,
                StepSet::new(vec![1, 2, 3]).unwrap(),
            );
            assert_eq!(shifted, recompiled, "delta {delta}");
        }
    }

    #[test]
    fn integer_count_formula() {
        let s = sys();
        let (_, relax) = tables(&s);
        assert_eq!(relax.integer_count(), 2 * 5 * 2 * 3);
        assert_eq!(relax.byte_size(), relax.integer_count() * 8);
    }

    #[test]
    fn from_raw_validates() {
        let s = sys();
        let (_, relax) = tables(&s);
        let (lo, up) = relax.raw();
        let rebuilt = RelaxationTable::from_raw(
            5,
            s.qualities(),
            relax.rho().clone(),
            lo.to_vec(),
            up.to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, relax);
        assert!(RelaxationTable::from_raw(
            5,
            s.qualities(),
            relax.rho().clone(),
            lo.to_vec(),
            vec![]
        )
        .is_none());
    }

    /// Build a pooled twin of a dense table and check every accessor and
    /// decision agrees.
    fn pooled_twin(relax: &RelaxationTable) -> RelaxationTable {
        use crate::arena::RowStore;
        let width = relax.qualities().len() * relax.rho().len();
        let mut lo_store = RowStore::new(width);
        let mut up_store = RowStore::new(width);
        let n = relax.n_states();
        let lo_dir: Vec<u32> = (0..n)
            .map(|s| lo_store.intern(relax.lower_row(s)))
            .collect();
        let up_dir: Vec<u32> = (0..n)
            .map(|s| up_store.intern(relax.upper_row(s)))
            .collect();
        let mut cells: Vec<Time> = lo_dir
            .iter()
            .chain(up_dir.iter())
            .map(|&ix| Time::from_ns(i64::from(ix)))
            .collect();
        let pool_lo = cells.len();
        cells.extend_from_slice(lo_store.pool());
        let pool_up = cells.len();
        cells.extend_from_slice(up_store.pool());
        RelaxationTable::pooled_view(
            TableArena::from_cells(cells),
            PooledRelaxation {
                dir_lo: 0,
                dir_up: n,
                pool_lo,
                pool_up,
                pool_rows_lo: lo_store.unique_rows(),
                pool_rows_up: up_store.unique_rows(),
            },
            n,
            relax.qualities(),
            relax.rho().clone(),
        )
        .expect("pooled twin must validate")
    }

    #[test]
    fn pooled_view_is_semantically_equal_to_dense() {
        let s = sys();
        let (regions, relax) = tables(&s);
        let pooled = pooled_twin(&relax);
        assert!(pooled.is_pooled() && !relax.is_pooled());
        assert_eq!(pooled, relax);
        assert_eq!(pooled.to_dense().raw(), relax.raw());
        for state in 0..5 {
            for t_ns in -30..130 {
                let t = Time::from_ns(t_ns);
                if let (Some(q), _) = regions.choose(state, t) {
                    assert_eq!(
                        pooled.choose_relaxation(state, t, q),
                        relax.choose_relaxation(state, t, q)
                    );
                    for hint in 0..3 {
                        assert_eq!(
                            pooled.choose_relaxation_from(state, t, q, hint),
                            relax.choose_relaxation_from(state, t, q, hint)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pooled_view_rejects_out_of_bounds_directory() {
        let s = sys();
        let (_, relax) = tables(&s);
        let good = pooled_twin(&relax);
        // Rebuild the same arena but with one directory cell past the pool.
        let mut cells = good.arena().cells().to_vec();
        cells[0] = Time::from_ns(i64::MAX);
        let arena = TableArena::from_cells(cells);
        let n = relax.n_states();
        let width = relax.qualities().len() * relax.rho().len();
        let spec = PooledRelaxation {
            dir_lo: 0,
            dir_up: n,
            pool_lo: 2 * n,
            pool_up: 2 * n + (good.arena().len() - 2 * n) / width / 2 * width,
            pool_rows_lo: 1,
            pool_rows_up: 1,
        };
        assert!(RelaxationTable::pooled_view(
            arena,
            spec,
            n,
            relax.qualities(),
            relax.rho().clone()
        )
        .is_none());
    }
}
