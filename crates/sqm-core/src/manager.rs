//! Quality Managers — the online controllers `Γ`.
//!
//! A Quality Manager observes the current state `(s_i, t_i)` and returns the
//! quality level for the next action (Definition 2). Three implementations
//! mirror the paper's §4.1 experiment:
//!
//! * [`NumericManager`] — re-computes `tD(s_i, q)` **online** at every call
//!   by scanning the remaining actions, for each probed quality level. This
//!   is the paper's baseline whose overhead motivates the symbolic method.
//! * [`LookupManager`] — uses the pre-computed quality region table
//!   ([`crate::regions::QualityRegionTable`]): at most `|Q|` integer
//!   comparisons per call.
//! * [`RelaxedManager`] — additionally consults the control relaxation
//!   table ([`crate::relaxation::RelaxationTable`]) and asks the controller
//!   to skip the next `r − 1` calls entirely.
//!
//! The table-driven managers — [`LookupManager`], [`RelaxedManager`] and
//! [`crate::recalib::AdaptiveLookupManager`] — share one region lookup
//! that resumes each probe from the previous decision instead of
//! rescanning from `qmax` (amortized O(1) host probes per decision). Their
//! [`Decision::work`] is the *analytic* top-down probe count
//! ([`QualityRegionTable::scan_work`]), so every virtual-time quantity is
//! what the reference scans [`QualityRegionTable::choose`] /
//! [`RelaxationTable::choose_relaxation`] would produce; the tests and the
//! fuzz campaign re-derive every decision from those scans.
//!
//! All managers are *equivalent in their choices* — they realize the same
//! function `Γ` (property-tested in the workspace integration tests); they
//! differ only in work per call, which the controller charges to the clock
//! through an [`crate::controller::OverheadModel`].

use crate::policy::Policy;
use crate::quality::Quality;
use crate::regions::QualityRegionTable;
use crate::relaxation::RelaxationTable;
use crate::system::ParameterizedSystem;
use crate::time::Time;

pub use crate::manager_smooth::SmoothedManager;

/// The outcome of one Quality Manager invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Quality level for the next `hold` actions.
    pub quality: Quality,
    /// How many consecutive actions this decision covers (`≥ 1`). Plain
    /// managers return 1; the relaxed manager returns the relaxation step
    /// `r` of Proposition 3.
    pub hold: usize,
    /// Elementary work units *charged* for the decision — the paper's
    /// abstract cost model: suffix-scan iterations for the numeric manager,
    /// top-down table probes for the symbolic ones. For the symbolic
    /// managers this is defined **analytically** from the chosen quality
    /// (`|Q| − q` probes, see
    /// [`crate::regions::QualityRegionTable::scan_work`]), *not* from the
    /// host work actually performed — which is how the managers'
    /// hint-resuming search charges exactly what the top-down scan would
    /// while doing less host work. The controller converts this into time
    /// overhead.
    pub work: u64,
    /// `true` when not even `qmin` satisfied the policy constraint — the
    /// state lies outside every quality region. Under correct worst-case
    /// estimates this cannot happen; it is surfaced for fault injection
    /// experiments.
    pub infeasible: bool,
}

/// An online quality manager: `Γ(s_i, t_i) = q_{i+1}`.
pub trait QualityManager {
    /// Decide the quality for the next action, given `state` (actions
    /// completed so far within the cycle) and the elapsed cycle time `t`.
    fn decide(&mut self, state: usize, t: Time) -> Decision;

    /// Identifier used in benchmark reports.
    fn name(&self) -> &'static str;

    /// Reset any per-cycle internal state (none of the built-in managers
    /// carry state across calls, but adaptive extensions may).
    fn reset(&mut self) {}
}

/// A borrowed manager is a manager: the engine can drive `&mut m` and the
/// caller keeps `m` (and its state) afterwards. Forwards every method,
/// `reset` included.
impl<M: QualityManager + ?Sized> QualityManager for &mut M {
    fn decide(&mut self, state: usize, t: Time) -> Decision {
        (**self).decide(state, t)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn reset(&mut self) {
        (**self).reset();
    }
}

/// The paper's numeric Quality Manager: straight online evaluation of the
/// mixed policy at every call.
#[derive(Clone, Debug)]
pub struct NumericManager<'a, P: Policy> {
    policy: &'a P,
    n_quality: usize,
}

impl<'a, P: Policy> NumericManager<'a, P> {
    /// A numeric manager for `sys` driven by `policy`.
    pub fn new(sys: &ParameterizedSystem, policy: &'a P) -> NumericManager<'a, P> {
        NumericManager {
            policy,
            n_quality: sys.qualities().len(),
        }
    }
}

impl<P: Policy> QualityManager for NumericManager<'_, P> {
    fn decide(&mut self, state: usize, t: Time) -> Decision {
        let mut work = 0;
        for qi in (0..self.n_quality).rev() {
            let q = Quality::new(qi as u8);
            let (td, w) = self.policy.t_d_scan(state, q);
            work += w;
            if td >= t {
                return Decision {
                    quality: q,
                    hold: 1,
                    work,
                    infeasible: false,
                };
            }
        }
        Decision {
            quality: Quality::MIN,
            hold: 1,
            work,
            infeasible: true,
        }
    }

    fn name(&self) -> &'static str {
        "numeric"
    }
}

/// The region lookup every table-driven manager shares: the maximal `q`
/// with `tD(s_state, q) ≥ t`, found by resuming the probe from `hint`
/// ([`QualityRegionTable::choose_from`]) instead of rescanning from
/// `qmax`, then storing the outcome back as the next call's hint.
/// Consecutive decisions within a cycle rarely move more than a level, so
/// the host work is amortized O(1) probes per decision.
///
/// The charged [`Decision::work`] is the analytic top-down probe count
/// ([`QualityRegionTable::scan_work`]), so every virtual-time quantity
/// equals what the reference scan [`QualityRegionTable::choose`] would
/// charge. The walk is exact from *any* hint on rows non-increasing in
/// `q` — every compiled table, and every table the text and binary
/// loaders accept.
#[inline]
pub(crate) fn hinted_lookup(
    table: &QualityRegionTable,
    hint: &mut Quality,
    state: usize,
    t: Time,
) -> Decision {
    let choice = table.choose_from(state, t, *hint);
    *hint = choice.unwrap_or(Quality::MIN);
    Decision {
        quality: *hint,
        hold: 1,
        work: table.scan_work(choice),
        infeasible: choice.is_none(),
    }
}

/// Symbolic Quality Manager over pre-computed quality regions: pure table
/// lookups (Proposition 2), each resumed from the previous decision. The
/// choice and the charged work equal those of the reference scan
/// [`QualityRegionTable::choose`].
#[derive(Clone, Debug)]
pub struct LookupManager<'a> {
    table: &'a QualityRegionTable,
    hint: Quality,
}

impl<'a> LookupManager<'a> {
    /// A lookup manager over a compiled region table.
    pub fn new(table: &'a QualityRegionTable) -> LookupManager<'a> {
        debug_assert!(table.rows_monotone(), "the hint walk needs monotone rows");
        LookupManager {
            table,
            hint: table.qualities().max(),
        }
    }
}

impl QualityManager for LookupManager<'_> {
    // Inlined into the monomorphized engine loop (as are the relaxed and
    // adaptive managers'): an out-of-line call costs more than the lookup.
    #[inline]
    fn decide(&mut self, state: usize, t: Time) -> Decision {
        hinted_lookup(self.table, &mut self.hint, state, t)
    }

    fn name(&self) -> &'static str {
        "regions"
    }

    fn reset(&mut self) {
        // A fresh cycle restarts the budget: resume from `qmax`, where
        // the first decision of a cycle usually lands.
        self.hint = self.table.qualities().max();
    }
}

/// Symbolic Quality Manager with control relaxation: after the region
/// lookup it probes the relaxation table for the largest admissible step
/// `r ∈ ρ` and asks the controller to hold the chosen quality for `r`
/// actions (Proposition 3). Both probes resume from the previous decision
/// ([`QualityRegionTable::choose_from`] /
/// [`RelaxationTable::choose_relaxation_from`]) and charge the analytic
/// scan count of each table, so holds and charged work equal those of
/// the reference scans [`QualityRegionTable::choose`] /
/// [`RelaxationTable::choose_relaxation`].
#[derive(Clone, Debug)]
pub struct RelaxedManager<'a> {
    regions: &'a QualityRegionTable,
    relaxation: &'a RelaxationTable,
    hint_q: Quality,
    hint_ri: usize,
}

impl<'a> RelaxedManager<'a> {
    /// A relaxed manager over compiled region + relaxation tables.
    pub fn new(
        regions: &'a QualityRegionTable,
        relaxation: &'a RelaxationTable,
    ) -> RelaxedManager<'a> {
        debug_assert_eq!(regions.n_states(), relaxation.n_states());
        debug_assert!(regions.rows_monotone(), "the hint walk needs monotone rows");
        debug_assert!(
            relaxation.nested_over_rho(),
            "the relaxation hint walk needs ρ-nested intervals"
        );
        RelaxedManager {
            regions,
            relaxation,
            hint_q: regions.qualities().max(),
            hint_ri: relaxation.rho().len() - 1,
        }
    }
}

impl QualityManager for RelaxedManager<'_> {
    #[inline]
    fn decide(&mut self, state: usize, t: Time) -> Decision {
        let mut decision = hinted_lookup(self.regions, &mut self.hint_q, state, t);
        if !decision.infeasible {
            let found =
                self.relaxation
                    .choose_relaxation_from(state, t, decision.quality, self.hint_ri);
            self.hint_ri = found.unwrap_or(0);
            let r = found.map_or(1, |ri| self.relaxation.rho().steps()[ri]);
            let remaining = self.regions.n_states() - state;
            decision.hold = r.min(remaining).max(1);
            decision.work += self.relaxation.scan_work(found);
        }
        decision
    }

    fn name(&self) -> &'static str {
        "relaxation"
    }

    fn reset(&mut self) {
        self.hint_q = self.regions.qualities().max();
        self.hint_ri = self.relaxation.rho().len() - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MixedPolicy;
    use crate::recalib::{AdaptiveLookupManager, TableCell};
    use crate::relaxation::StepSet;
    use crate::system::{ParameterizedSystem, SystemBuilder};

    fn sys() -> ParameterizedSystem {
        SystemBuilder::new(3)
            .action("a", &[10, 25, 40], &[4, 9, 14])
            .action("b", &[12, 22, 35], &[6, 11, 17])
            .action("c", &[8, 18, 28], &[3, 8, 12])
            .action("d", &[15, 24, 33], &[7, 12, 16])
            .deadline_last(Time::from_ns(130))
            .build()
            .unwrap()
    }

    #[test]
    fn numeric_chooses_maximal_feasible_quality() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let mut m = NumericManager::new(&s, &p);
        let d = m.decide(0, Time::ZERO);
        assert!(!d.infeasible);
        assert_eq!(d.hold, 1);
        // The decision must satisfy the policy, and the next level up must not.
        assert!(p.t_d(0, d.quality) >= Time::ZERO);
        if d.quality != s.qualities().max() {
            assert!(p.t_d(0, d.quality.up()) < Time::ZERO);
        }
    }

    #[test]
    fn numeric_flags_infeasible_states() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let mut m = NumericManager::new(&s, &p);
        let d = m.decide(0, Time::from_secs(10));
        assert!(d.infeasible);
        assert_eq!(d.quality, Quality::MIN);
    }

    #[test]
    fn all_managers_agree_pointwise() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let regions = QualityRegionTable::from_policy(&s, &p);
        let relaxation = RelaxationTable::compile(&s, &regions, StepSet::new(vec![1, 2]).unwrap());
        let mut numeric = NumericManager::new(&s, &p);
        let mut lookup = LookupManager::new(&regions);
        let mut relaxed = RelaxedManager::new(&regions, &relaxation);
        for state in 0..4 {
            for t_ns in -20..150 {
                let t = Time::from_ns(t_ns);
                let dn = numeric.decide(state, t);
                let dl = lookup.decide(state, t);
                let dr = relaxed.decide(state, t);
                assert_eq!(dn.quality, dl.quality, "state {state} t {t}");
                assert_eq!(dn.quality, dr.quality, "state {state} t {t}");
                assert_eq!(dn.infeasible, dl.infeasible);
                assert_eq!(dn.infeasible, dr.infeasible);
                assert!(dr.hold >= 1 && state + dr.hold <= 4);
            }
        }
    }

    #[test]
    fn symbolic_work_is_bounded_numeric_work_is_not() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let regions = QualityRegionTable::from_policy(&s, &p);
        let mut numeric = NumericManager::new(&s, &p);
        let mut lookup = LookupManager::new(&regions);
        // Late time forces the numeric manager to probe every quality level,
        // each probe scanning the whole remaining suffix.
        let t = Time::from_ns(125);
        let dn = numeric.decide(0, t);
        let dl = lookup.decide(0, t);
        assert!(dn.work > dl.work);
        assert!(dl.work <= 3, "lookup work bounded by |Q|");
    }

    /// The reference scans' decision at `(state, t)`: what every
    /// table-driven manager must return, charged work included.
    fn scan_decision(
        regions: &QualityRegionTable,
        relaxation: Option<&RelaxationTable>,
        state: usize,
        t: Time,
    ) -> Decision {
        let (choice, probes) = regions.choose(state, t);
        let (hold, r_probes) = match (choice, relaxation) {
            (Some(q), Some(relaxation)) => {
                let (r, r_probes) = relaxation.choose_relaxation(state, t, q);
                (r.min(regions.n_states() - state).max(1), r_probes)
            }
            _ => (1, 0),
        };
        Decision {
            quality: choice.unwrap_or(Quality::MIN),
            hold,
            work: probes + r_probes,
            infeasible: choice.is_none(),
        }
    }

    #[test]
    fn table_managers_match_scan_oracle_decision_for_decision() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let regions = QualityRegionTable::from_policy(&s, &p);
        let relaxation = RelaxationTable::compile(&s, &regions, StepSet::new(vec![1, 2]).unwrap());
        let relaxed_table = regions.shifted(Time::from_ns(40));
        let cell = TableCell::new(regions.clone());
        let mut lookup = LookupManager::new(&regions);
        let mut relaxed = RelaxedManager::new(&regions, &relaxation);
        let mut adaptive = AdaptiveLookupManager::new(&cell);
        // Sweep *sequentially* without resets so the hints carry real
        // state between calls: down through every region into the
        // infeasible tail, then back up at the next state. The second
        // pass follows a publish and the adaptive manager's cycle-start
        // reset, so its hint must be valid on the swapped table too.
        for (pass, adaptive_table) in [&regions, &relaxed_table].into_iter().enumerate() {
            for state in 0..4 {
                for t_ns in -20..200 {
                    let t = Time::from_ns(t_ns);
                    assert_eq!(
                        lookup.decide(state, t),
                        scan_decision(&regions, None, state, t),
                        "lookup state {state} t {t}"
                    );
                    assert_eq!(
                        relaxed.decide(state, t),
                        scan_decision(&regions, Some(&relaxation), state, t),
                        "relaxed state {state} t {t}"
                    );
                    assert_eq!(
                        adaptive.decide(state, t),
                        scan_decision(adaptive_table, None, state, t),
                        "adaptive state {state} t {t}"
                    );
                }
            }
            if pass == 0 {
                cell.publish(relaxed_table.clone());
                adaptive.reset();
            }
        }
        assert_eq!(adaptive.swaps_seen(), 1);
    }

    #[test]
    fn manager_names() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let regions = QualityRegionTable::from_policy(&s, &p);
        let relaxation = RelaxationTable::compile(&s, &regions, StepSet::new(vec![1]).unwrap());
        assert_eq!(NumericManager::new(&s, &p).name(), "numeric");
        assert_eq!(LookupManager::new(&regions).name(), "regions");
        assert_eq!(
            RelaxedManager::new(&regions, &relaxation).name(),
            "relaxation"
        );
        let cell = TableCell::new(regions.clone());
        assert_eq!(AdaptiveLookupManager::new(&cell).name(), "regions-adaptive");
    }
}
