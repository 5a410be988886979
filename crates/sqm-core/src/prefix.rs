//! Prefix-sum acceleration structures.
//!
//! Every policy in the paper evaluates sums of execution times over action
//! ranges — `Cav(a_i..a_k, q)`, `Cwc(a_{i+1}..a_k, qmin)`, … — and the
//! offline region compiler evaluates them for *all* states. [`PrefixSums`]
//! stores cumulative sums per quality level so any range sum is two loads
//! and a subtraction.
//!
//! It also precomputes the *deadline suffix minima* used by every policy:
//! for the safe and mixed policies,
//! `minA(i) = min_{k ≥ i, k ∈ dom D} ( D(a_k) − Wmin[k+1] )`
//! where `Wmin[x]` is the prefix sum of `Cwc(·, qmin)`; and the analogous
//! quantity per quality level for the average policy.

use crate::action::DeadlineMap;
use crate::quality::Quality;
use crate::time::Time;
use crate::timing::TimeTable;

/// Cumulative sums of `Cav` and `Cwc` per quality level.
///
/// Layout: for each quality `q`, a vector of `n+1` values with
/// `sum[q][x] = Σ_{m < x} C(a_m, q)` — so the sum over `lo..hi` is
/// `sum[q][hi] − sum[q][lo]`.
#[derive(Clone, Debug)]
pub struct PrefixSums {
    n: usize,
    /// `av[q][x]`, `x ∈ 0..=n`.
    av: Vec<Vec<i64>>,
    /// `wc[q][x]`, `x ∈ 0..=n`.
    wc: Vec<Vec<i64>>,
}

impl PrefixSums {
    /// Precompute all prefix sums of a timing table. O(n·|Q|).
    pub fn new(table: &TimeTable) -> PrefixSums {
        let n = table.n_actions();
        let nq = table.qualities().len();
        let mut av = Vec::with_capacity(nq);
        let mut wc = Vec::with_capacity(nq);
        for qi in 0..nq {
            let q = Quality::new(qi as u8);
            let mut av_row = Vec::with_capacity(n + 1);
            let mut wc_row = Vec::with_capacity(n + 1);
            let (mut sa, mut sw) = (0i64, 0i64);
            av_row.push(0);
            wc_row.push(0);
            for a in 0..n {
                sa += table.av(a, q).as_ns();
                sw += table.wc(a, q).as_ns();
                av_row.push(sa);
                wc_row.push(sw);
            }
            av.push(av_row);
            wc.push(wc_row);
        }
        PrefixSums { n, av, wc }
    }

    /// Number of actions covered.
    #[inline]
    pub fn n_actions(&self) -> usize {
        self.n
    }

    /// `Σ_{m < x} Cav(a_m, q)` in nanoseconds.
    #[inline]
    pub fn av_prefix(&self, q: Quality, x: usize) -> i64 {
        self.av[q.index()][x]
    }

    /// The whole worst-case prefix row of `q`: `wc_prefix(q, x)` for
    /// `x ∈ 0..=n`.
    #[inline]
    pub(crate) fn wc_row(&self, q: Quality) -> &[i64] {
        &self.wc[q.index()]
    }

    /// `Σ_{m < x} Cwc(a_m, q)` in nanoseconds.
    #[inline]
    pub fn wc_prefix(&self, q: Quality, x: usize) -> i64 {
        self.wc[q.index()][x]
    }

    /// `Cav(a_lo..a_hi, q)` as a [`Time`] (actions `lo..hi`, half-open).
    #[inline]
    pub fn av_range(&self, lo: usize, hi: usize, q: Quality) -> Time {
        Time::from_ns(self.av[q.index()][hi] - self.av[q.index()][lo])
    }

    /// `Cwc(a_lo..a_hi, q)` as a [`Time`] (actions `lo..hi`, half-open).
    #[inline]
    pub fn wc_range(&self, lo: usize, hi: usize, q: Quality) -> Time {
        Time::from_ns(self.wc[q.index()][hi] - self.wc[q.index()][lo])
    }

    /// Total average time of the whole sequence at constant quality.
    #[inline]
    pub fn av_total(&self, q: Quality) -> Time {
        Time::from_ns(self.av[q.index()][self.n])
    }

    /// Total worst-case time of the whole sequence at constant quality.
    #[inline]
    pub fn wc_total(&self, q: Quality) -> Time {
        Time::from_ns(self.wc[q.index()][self.n])
    }
}

/// Suffix minima of `D(a_k) − prefix[k+1]` over constrained actions `k`.
///
/// `values[i] = min_{k ≥ i, k ∈ dom D} ( D(a_k) − prefix[k+1] )`, with
/// [`Time::INF`] where no deadline remains. This is the inner minimum of
/// `tD` for the safe policy (with `prefix = Wmin`) and the average policy
/// (with `prefix = Av[q]`).
#[derive(Clone, Debug)]
pub struct DeadlineSuffixMin {
    values: Vec<Time>,
}

impl DeadlineSuffixMin {
    /// Compute the suffix minima. `prefix` must have `n+1` entries;
    /// `deadlines` covers `n` actions. O(n).
    pub fn new(prefix: &[i64], deadlines: &DeadlineMap) -> DeadlineSuffixMin {
        let n = deadlines.len();
        debug_assert_eq!(prefix.len(), n + 1);
        let mut values = vec![Time::INF; n + 1];
        for k in (0..n).rev() {
            let here = match deadlines.get(k) {
                Some(d) => d - Time::from_ns(prefix[k + 1]),
                None => Time::INF,
            };
            values[k] = here.min(values[k + 1]);
        }
        DeadlineSuffixMin { values }
    }

    /// `min_{k ≥ i, k ∈ dom D} ( D(a_k) − prefix[k+1] )`.
    #[inline]
    pub fn at(&self, i: usize) -> Time {
        self.values[i]
    }

    /// Number of states covered (`n + 1`).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Never true (there is always the state after the last action).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::QualitySet;

    fn table3() -> TimeTable {
        TimeTable::from_ns_rows(
            QualitySet::new(2).unwrap(),
            &[&[10, 20], &[30, 40], &[50, 60]],
            &[&[5, 10], &[15, 20], &[25, 30]],
        )
        .unwrap()
    }

    #[test]
    fn prefix_matches_naive_sum() {
        let t = table3();
        let p = PrefixSums::new(&t);
        for qi in 0..2 {
            let q = Quality::new(qi);
            for lo in 0..=3 {
                for hi in lo..=3 {
                    assert_eq!(p.av_range(lo, hi, q), t.av_range(lo, hi, q));
                    assert_eq!(p.wc_range(lo, hi, q), t.wc_range(lo, hi, q));
                }
            }
        }
    }

    #[test]
    fn totals() {
        let p = PrefixSums::new(&table3());
        assert_eq!(p.wc_total(Quality::new(0)), Time::from_ns(90));
        assert_eq!(p.wc_total(Quality::new(1)), Time::from_ns(120));
        assert_eq!(p.av_total(Quality::new(1)), Time::from_ns(60));
        assert_eq!(p.n_actions(), 3);
    }

    #[test]
    fn suffix_min_with_single_global_deadline() {
        let t = table3();
        let p = PrefixSums::new(&t);
        let d = DeadlineMap::single_global(3, Time::from_ns(100));
        // prefix = Wmin = wc at q0: [0, 10, 40, 90]
        let s = DeadlineSuffixMin::new(&p.wc[0], &d);
        // Only k = 2 constrained: D − Wmin[3] = 100 − 90 = 10 everywhere.
        assert_eq!(s.at(0), Time::from_ns(10));
        assert_eq!(s.at(2), Time::from_ns(10));
        assert_eq!(s.at(3), Time::INF);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn suffix_min_takes_binding_deadline() {
        let t = table3();
        let p = PrefixSums::new(&t);
        let mut d = DeadlineMap::new(3);
        d.set(0, Time::from_ns(12)); // D − Wmin[1] = 12 − 10 = 2
        d.set(2, Time::from_ns(100)); // D − Wmin[3] = 10
        let s = DeadlineSuffixMin::new(&p.wc[0], &d);
        assert_eq!(s.at(0), Time::from_ns(2), "earlier deadline binds");
        assert_eq!(s.at(1), Time::from_ns(10), "after k=0 only the global one");
    }

    #[test]
    fn brute_force_cross_check() {
        let t = table3();
        let p = PrefixSums::new(&t);
        let mut d = DeadlineMap::new(3);
        d.set(1, Time::from_ns(55));
        d.set(2, Time::from_ns(95));
        let s = DeadlineSuffixMin::new(&p.wc[0], &d);
        for i in 0..=3 {
            let brute = (i..3)
                .filter_map(|k| d.get(k).map(|dk| dk - p.wc_range(0, k + 1, Quality::MIN)))
                .fold(Time::INF, Time::min);
            assert_eq!(s.at(i), brute, "state {i}");
        }
    }
}
