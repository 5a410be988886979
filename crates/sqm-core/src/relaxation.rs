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
//! Like [`crate::regions::QualityRegionTable`], the table is a dense view
//! over a shared [`TableArena`]: a lower-bound block and an upper-bound
//! block, each with one row of `|Q|·|ρ|` cells per state.

use crate::arena::TableArena;
use crate::error::BuildError;
use crate::quality::{Quality, QualitySet};
use crate::regions::QualityRegionTable;
use crate::system::ParameterizedSystem;
use crate::time::Time;

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

/// Pre-computed control relaxation intervals for every `(state, q, r ∈ ρ)`.
///
/// Equality is **semantic** (same shape and `ρ`, same bounds), whatever
/// arena the views read from.
#[derive(Clone, Debug)]
pub struct RelaxationTable {
    n_states: usize,
    qualities: QualitySet,
    rho: StepSet,
    arena: TableArena,
    /// First cell of the lower-bound block inside `arena`.
    lower: usize,
    /// First cell of the upper-bound block inside `arena`.
    upper: usize,
}

impl RelaxationTable {
    /// Build from a quality-region table compiled for `sys`.
    ///
    /// **Kernel.** The arena holds the lower-bound block, then the
    /// upper-bound block, each one row of `(q, ri)` cells per state.
    ///
    /// * A lower cell is read straight off the region rows, row-major:
    ///   `tD(s_{i+r−1}, q+1)`, or `−∞` at `qmax`.
    /// * An upper cell is `tD,r(s_i, q) = Wq(i) + min_{i ≤ j ≤ i+r−1} u(j)`
    ///   with `u(j) = tD(s_j, q) − Wq(j)` and `Wq` the worst-case prefix
    ///   sum. Each `(q, r)` column is one sweep (van Herk 1992; Gil &
    ///   Werman 1993): cut the states into blocks of `r`; a window starting
    ///   at `i` then spans the suffix of `i`'s block and a prefix of the
    ///   next, so its minimum is the block-suffix minimum at `i` (one
    ///   backward pass) against the running minimum of the next block (one
    ///   forward pass, which writes the cells). Each cell costs O(1) with
    ///   no data-dependent branch, so the compile is O(n·|Q|·|ρ|).
    /// * When the window overruns the cycle (`i + r > n`) the interval is
    ///   the empty `(+∞, −∞)`.
    ///
    /// **Allocation contract.** The arena is one allocation at its final
    /// size, a `−∞` fill that the kernel overwrites in place before it is
    /// shared ([`TableArena`]): the lower block row by row, the upper block
    /// one strided column at a time. The only other memory is two integer
    /// rows of about `n` cells (`u` and the block-suffix minima), reused by
    /// every column: 19 KiB beside the 780 KiB table at paper scale.
    ///
    /// # Panics
    ///
    /// Panics when `regions` was not compiled for a system of `sys`'s
    /// shape: a different state count or quality set.
    pub fn compile(
        sys: &ParameterizedSystem,
        regions: &QualityRegionTable,
        rho: StepSet,
    ) -> RelaxationTable {
        let n = sys.n_actions();
        let qualities = sys.qualities();
        assert_eq!(regions.n_states(), n, "region table shape mismatch");
        assert_eq!(regions.qualities(), qualities, "quality set mismatch");
        let (td, nq, steps) = (regions.raw(), qualities.len(), rho.steps());
        // Column `q · |ρ| + ri` of every row is the `(q, ρ[ri])` column.
        let width = nq * steps.len();
        let block = n * width;
        let arena = TableArena::filled(2 * block, Time::NEG_INF, |cells| {
            let (lower, upper) = cells.split_at_mut(block);
            // `qmax`'s lower cells keep the `−∞` fill.
            for (i, row) in lower.chunks_exact_mut(width).enumerate() {
                for (q, cells) in row.chunks_exact_mut(steps.len()).enumerate() {
                    for (cell, &r) in cells.iter_mut().zip(steps) {
                        if r > n - i {
                            *cell = Time::INF;
                        } else if q + 1 < nq {
                            *cell = td[(i + r - 1) * nq + q + 1];
                        }
                    }
                }
            }
            // `u[n] = +∞` lets the forward pass read one state past the
            // last window without a bounds case.
            let (mut u, mut suf) = (vec![i64::MAX; n + 1], vec![0; n]);
            for q in qualities.iter() {
                let wc = sys.prefix().wc_row(q);
                for (j, uj) in u[..n].iter_mut().enumerate() {
                    *uj = (td[j * nq + q.index()] - Time::from_ns(wc[j])).as_ns();
                }
                for (ri, &r) in steps.iter().enumerate().take_while(|&(_, &r)| r <= n) {
                    let c = q.index() * steps.len() + ri;
                    // A one-state window's minimum is `u(i)` itself.
                    if r == 1 {
                        let cells = upper.chunks_exact_mut(width).zip(u.iter().zip(wc));
                        for (row, (&x, &w)) in cells {
                            row[c] = Time::from_ns(x) + Time::from_ns(w);
                        }
                        continue;
                    }
                    for (suf, u) in suf.chunks_mut(r).zip(u[..n].chunks(r)) {
                        let mut m = i64::MAX;
                        for (s, &x) in suf.iter_mut().zip(u).rev() {
                            m = m.min(x);
                            *s = m;
                        }
                    }
                    // Rows `i ≤ n − r`; the overrunning rest keep the fill.
                    // `m` runs over the next block, one state behind the
                    // window's end.
                    let windows = n - r + 1;
                    let blocks = upper[..windows * width]
                        .chunks_mut(r * width)
                        .zip(suf[..windows].chunks(r))
                        .zip(u[r..].chunks(r))
                        .zip(wc[..windows].chunks(r));
                    for (((rows, suf), next), wc) in blocks {
                        let mut m = i64::MAX;
                        let cells = rows.chunks_exact_mut(width).zip(suf).zip(next).zip(wc);
                        for (((row, &s), &x), &w) in cells {
                            row[c] = Time::from_ns(s.min(m)) + Time::from_ns(w);
                            m = m.min(x);
                        }
                    }
                }
            }
        });
        RelaxationTable::from_arena(n, qualities, rho, arena)
    }

    /// Wrap an arena holding the lower block followed by the upper block.
    fn from_arena(
        n_states: usize,
        qualities: QualitySet,
        rho: StepSet,
        arena: TableArena,
    ) -> RelaxationTable {
        let upper = arena.len() / 2;
        RelaxationTable {
            n_states,
            qualities,
            rho,
            arena,
            lower: 0,
            upper,
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
            lower,
            upper,
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

    /// Cells per per-state bound row: `|Q| · |ρ|`.
    #[inline]
    fn row_width(&self) -> usize {
        self.qualities.len() * self.rho.len()
    }

    /// The contiguous lower-bound row for `state` — `|Q|·|ρ|` cells,
    /// `(q, ri)`-major.
    #[inline]
    pub fn lower_row(&self, state: usize) -> &[Time] {
        let start = self.lower + state * self.row_width();
        &self.arena.cells()[start..start + self.row_width()]
    }

    /// The contiguous upper-bound row for `state` (see
    /// [`RelaxationTable::lower_row`]).
    #[inline]
    pub fn upper_row(&self, state: usize) -> &[Time] {
        let start = self.upper + state * self.row_width();
        &self.arena.cells()[start..start + self.row_width()]
    }

    /// The `(lower, upper]` interval of `Rrq` at `state` for the `ri`-th
    /// step of `ρ`. An empty interval (`lower ≥ upper` with
    /// `lower = +∞`) means the window overruns the cycle.
    pub fn bounds(&self, state: usize, q: Quality, ri: usize) -> (Time, Time) {
        let off = q.index() * self.rho.len() + ri;
        (self.lower_row(state)[off], self.upper_row(state)[off])
    }

    /// The contiguous `(lower, upper)` interval rows for `(state, q)` over
    /// the whole step menu `ρ` — the cache-conscious view the relaxation
    /// probes work on. Slicing once hoists the
    /// `(state · |Q| + q) · |ρ|` offset arithmetic and the bounds checks
    /// out of the probe loop.
    #[inline]
    pub fn intervals(&self, state: usize, q: Quality) -> (&[Time], &[Time]) {
        let nr = self.rho.len();
        let off = state * self.row_width() + q.index() * nr;
        let cells = self.arena.cells();
        (
            &cells[self.lower + off..self.lower + off + nr],
            &cells[self.upper + off..self.upper + off + nr],
        )
    }

    /// `true` when the intervals are nested over `ρ` at every `(state, q)`
    /// — lower bounds non-decreasing and upper bounds non-increasing in
    /// `ri`, so membership is prefix-monotone (`Rrq ⊆ Rr'q` for
    /// `r' ≤ r`). Every compiled table has this Proposition-3 structure,
    /// and the hint walk of [`RelaxationTable::choose_relaxation_from`]
    /// that the relaxed manager runs relies on it.
    /// [`RelaxationTable::from_raw`] only checks the length;
    /// [`crate::artifact::Artifact::load`] rejects a table that fails this
    /// check.
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
    /// worst-case terms). Sentinel bounds are preserved. The copy owns a
    /// fresh arena, allocated once.
    pub fn shifted(&self, delta: Time) -> RelaxationTable {
        let shift = |&t: &Time| if t.is_infinite() { t } else { t + delta };
        let (lower, upper) = self.raw();
        let cells = lower.iter().chain(upper).map(shift).collect();
        RelaxationTable::from_arena(self.n_states, self.qualities, self.rho.clone(), cells)
    }

    /// Number of stored integers — `2·|A|·|Q|·|ρ|` (the paper's 99,876).
    pub fn integer_count(&self) -> usize {
        2 * self.n_states * self.row_width()
    }

    /// Memory footprint of the payload in bytes (views sharing an arena
    /// share its cells, see [`TableArena::byte_size`]).
    pub fn byte_size(&self) -> usize {
        self.integer_count() * std::mem::size_of::<Time>()
    }

    /// Raw bounds, as [`crate::artifact::Artifact::encode`] writes them:
    /// `(lower, upper)` slices.
    pub fn raw(&self) -> (&[Time], &[Time]) {
        let block = self.n_states * self.row_width();
        let cells = self.arena.cells();
        (
            &cells[self.lower..self.lower + block],
            &cells[self.upper..self.upper + block],
        )
    }

    /// Build from raw cells; only the lengths are checked (see
    /// [`RelaxationTable::nested_over_rho`]).
    pub fn from_raw(
        n_states: usize,
        qualities: QualitySet,
        rho: StepSet,
        lower: Vec<Time>,
        upper: Vec<Time>,
    ) -> Option<RelaxationTable> {
        let expect = n_states * qualities.len() * rho.len();
        (lower.len() == expect && upper.len() == expect).then(|| {
            let cells = lower.into_iter().chain(upper).collect();
            RelaxationTable::from_arena(n_states, qualities, rho, cells)
        })
    }
}

impl PartialEq for RelaxationTable {
    fn eq(&self, other: &RelaxationTable) -> bool {
        self.n_states == other.n_states
            && self.qualities == other.qualities
            && self.rho == other.rho
            && self.raw() == other.raw()
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
    #[should_panic(expected = "region table shape mismatch")]
    fn compile_rejects_regions_with_more_states() {
        let longer = SystemBuilder::new(2)
            .action("a", &[10, 20], &[4, 9])
            .action("b", &[12, 22], &[6, 11])
            .action("c", &[8, 18], &[3, 8])
            .action("d", &[9, 21], &[5, 10])
            .action("e", &[11, 19], &[4, 9])
            .action("f", &[7, 15], &[3, 6])
            .deadline_last(Time::from_ns(150))
            .build()
            .unwrap();
        let regions = QualityRegionTable::from_policy(&longer, &MixedPolicy::new(&longer));
        RelaxationTable::compile(&sys(), &regions, StepSet::paper_mpeg());
    }

    #[test]
    #[should_panic(expected = "quality set mismatch")]
    fn compile_rejects_regions_with_fewer_qualities() {
        let mut b = SystemBuilder::new(1);
        for name in ["a", "b", "c", "d", "e"] {
            b = b.action(name, &[10], &[5]);
        }
        let coarse = b.deadline_last(Time::from_ns(120)).build().unwrap();
        let regions = QualityRegionTable::from_policy(&coarse, &MixedPolicy::new(&coarse));
        RelaxationTable::compile(&sys(), &regions, StepSet::paper_mpeg());
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
}
