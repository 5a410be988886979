//! Speed diagrams (§3.1).
//!
//! A speed diagram plots the controlled system's evolution in a plane whose
//! horizontal axis is **actual time** and whose vertical axis is **virtual
//! time** — progress measured in average execution times, normalized so
//! that the target deadline `D(a_k)` sits at virtual time `D(a_k)`:
//!
//! ```text
//! y_i(q) = Cav(a_1..a_i, q) / Cav(a_1..a_k, q) · D(a_k)
//! ```
//!
//! The 45° bisectrice is the locus of optimal states: below it the
//! computation is late (the manager should pick lower quality to
//! accelerate), above it early (pick higher quality to exploit the budget).
//! Two speeds govern the manager (§3.1.2):
//!
//! * **ideal speed** `vidl(q) = D(a_k) / Cav(a_1..a_k, q)` — the constant
//!   slope of a run where every action takes its average time at quality
//!   `q`; independent of the current state.
//! * **optimal speed** `vopt(q)` — the slope from the current point
//!   `(t_i, y_i(q))` to the *safety-margin target*
//!   `(D(a_k) − δmax(a_{i+1}..a_k, q), D(a_k))`: the fastest useful
//!   progress that still reserves the margin `δmax` needed to absorb
//!   worst-case behaviour.
//!
//! **Proposition 1**: `vidl(q) ≥ vopt(q) ⟺ D(a_k) − CD(a_{i+1}..a_k, q) ≥
//! t_i` — i.e. the mixed policy accepts exactly the qualities whose ideal
//! speed dominates the optimal speed. The manager picks the *least* ideal
//! speed exceeding the optimal speed (= the maximal such quality).
//!
//! Speeds and virtual times are observational (`f64`); the safety-critical
//! comparisons stay in integer time inside the policies.

use crate::action::ActionId;
use crate::policy::MixedPolicy;
use crate::quality::Quality;
use crate::time::Time;
use crate::trace::CycleTrace;

/// Speed-diagram geometry for one target deadline.
#[derive(Clone, Debug)]
pub struct SpeedDiagram<'a> {
    policy: &'a MixedPolicy<'a>,
    /// Target action `a_k` (0-based index into the sequence).
    target: ActionId,
    /// `D(a_k)` in nanoseconds.
    deadline_ns: f64,
    deadline: Time,
}

impl<'a> SpeedDiagram<'a> {
    /// Diagram targeting the deadline of action `target`; `None` if that
    /// action carries no deadline.
    pub fn new(policy: &'a MixedPolicy<'a>, target: ActionId) -> Option<SpeedDiagram<'a>> {
        let deadline = policy.system().deadlines().get(target)?;
        Some(SpeedDiagram {
            policy,
            target,
            deadline_ns: deadline.as_ns() as f64,
            deadline,
        })
    }

    /// Diagram targeting the cycle's final deadline (the paper's MPEG
    /// setting).
    pub fn for_final_deadline(policy: &'a MixedPolicy<'a>) -> SpeedDiagram<'a> {
        let target = policy.system().n_actions() - 1;
        SpeedDiagram::new(policy, target).expect("validated: last action has a deadline")
    }

    /// The targeted action index `k`.
    #[inline]
    pub fn target(&self) -> ActionId {
        self.target
    }

    /// The targeted deadline `D(a_k)`.
    #[inline]
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// Virtual time `y_i(q)` (in ns) at `state` = number of completed
    /// actions, for constant quality `q`. `y_0 = 0` and
    /// `y_{k+1}(q) = D(a_k)` by normalization.
    pub fn virtual_time(&self, state: usize, q: Quality) -> f64 {
        debug_assert!(state <= self.target + 1);
        let p = self.policy.system().prefix();
        let done = p.av_prefix(q, state) as f64;
        let total = p.av_prefix(q, self.target + 1) as f64;
        if total == 0.0 {
            // Degenerate: zero average work; everything is already "done".
            self.deadline_ns
        } else {
            done / total * self.deadline_ns
        }
    }

    /// Ideal speed `vidl(q) = D(a_k) / Cav(a_1..a_k, q)` — dimensionless
    /// (virtual ns per actual ns).
    pub fn ideal_speed(&self, q: Quality) -> f64 {
        let total = self.policy.system().prefix().av_prefix(q, self.target + 1) as f64;
        if total == 0.0 {
            f64::INFINITY
        } else {
            self.deadline_ns / total
        }
    }

    /// Optimal speed `vopt(q)` at `(state, t)`: the slope to the
    /// safety-margin target. Returns `+∞` when the margin target is already
    /// behind (`t ≥ D − δmax`) and there is still virtual distance to cover.
    pub fn optimal_speed(&self, state: usize, t: Time, q: Quality) -> f64 {
        debug_assert!(state <= self.target);
        let margin = self.policy.delta_max(state, self.target, q);
        let dx = (self.deadline - margin - t).as_ns() as f64;
        let dy = self.deadline_ns - self.virtual_time(state, q);
        if dx > 0.0 {
            dy / dx
        } else if dy <= 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    }

    /// The right-hand side of Proposition 1, evaluated exactly in integer
    /// time: `D(a_k) − CD(a_{i+1}..a_k, q) ≥ t`.
    pub fn policy_accepts(&self, state: usize, t: Time, q: Quality) -> bool {
        debug_assert!(state <= self.target);
        self.deadline - self.policy.c_d(state, self.target, q) >= t
    }

    /// Proposition 1's left-hand side via speeds (observational — subject
    /// to `f64` rounding at exact boundaries).
    pub fn ideal_dominates_optimal(&self, state: usize, t: Time, q: Quality) -> bool {
        self.ideal_speed(q) >= self.optimal_speed(state, t, q)
    }

    /// Trajectory of an executed cycle in the diagram: one `(t, y)` point
    /// (ns, ns) per decision state plus the completion point, each using
    /// the quality that was active there.
    pub fn trajectory(&self, cycle: &CycleTrace) -> Vec<(f64, f64)> {
        let mut pts = Vec::with_capacity(cycle.records.len() + 1);
        for r in &cycle.records {
            if r.action > self.target {
                break;
            }
            pts.push((
                r.start.as_ns() as f64,
                self.virtual_time(r.action, r.quality),
            ));
            if r.action == self.target {
                pts.push((
                    r.end.as_ns() as f64,
                    self.virtual_time(r.action + 1, r.quality),
                ));
            }
        }
        pts
    }
}

/// Render a set of `(x, y)` point series as a small ASCII scatter plot —
/// enough to eyeball speed diagrams in terminals and doc examples. Series
/// are drawn in order with the glyphs provided; the 45° bisectrice is drawn
/// with `'.'`.
#[allow(clippy::needless_range_loop)] // pixel-grid addressing
pub fn ascii_plot(series: &[(&[(f64, f64)], char)], width: usize, height: usize) -> String {
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(pts, _)| pts.iter().copied())
        .collect();
    if all.is_empty() || width < 2 || height < 2 {
        return String::new();
    }
    let xmax = all.iter().map(|p| p.0).fold(f64::MIN, f64::max).max(1e-9);
    let ymax = all.iter().map(|p| p.1).fold(f64::MIN, f64::max).max(1e-9);
    let scale = xmax.max(ymax);
    let mut grid = vec![vec![' '; width]; height];
    // Bisectrice y = x.
    for col in 0..width {
        let x = col as f64 / (width - 1) as f64 * scale;
        if x <= ymax * 1.000001 {
            let row = ((1.0 - x / scale) * (height - 1) as f64).round() as usize;
            if row < height {
                grid[row][col] = '.';
            }
        }
    }
    for (pts, glyph) in series {
        for &(x, y) in *pts {
            let col = (x / scale * (width - 1) as f64).round() as usize;
            let row = ((1.0 - y / scale) * (height - 1) as f64).round() as usize;
            if row < height && col < width {
                grid[row][col] = *glyph;
            }
        }
    }
    let mut out = String::with_capacity((width + 1) * height);
    for row in grid {
        out.extend(row);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ConstantExec, OverheadModel};
    use crate::engine::Engine;
    use crate::manager::NumericManager;
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
    fn virtual_time_normalization() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let d = SpeedDiagram::for_final_deadline(&p);
        for q in s.qualities().iter() {
            assert_eq!(d.virtual_time(0, q), 0.0);
            assert!(
                (d.virtual_time(4, q) - 130.0).abs() < 1e-9,
                "y_k(q) = D(a_k)"
            );
            // Monotone in state.
            for i in 0..4 {
                assert!(d.virtual_time(i, q) <= d.virtual_time(i + 1, q));
            }
        }
    }

    #[test]
    fn ideal_speed_is_deadline_over_total_average() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let d = SpeedDiagram::for_final_deadline(&p);
        // Total averages: q0 = 20, q1 = 40, q2 = 59.
        assert!((d.ideal_speed(Quality::new(0)) - 130.0 / 20.0).abs() < 1e-12);
        assert!((d.ideal_speed(Quality::new(1)) - 130.0 / 40.0).abs() < 1e-12);
        assert!((d.ideal_speed(Quality::new(2)) - 130.0 / 59.0).abs() < 1e-12);
        // Higher quality → lower ideal speed.
        assert!(d.ideal_speed(Quality::new(0)) > d.ideal_speed(Quality::new(2)));
    }

    #[test]
    fn proposition_1_equivalence() {
        // Away from exact boundaries, the speed-domain and time-domain
        // characterizations must agree.
        let s = sys();
        let p = MixedPolicy::new(&s);
        let d = SpeedDiagram::for_final_deadline(&p);
        for state in 0..4 {
            for q in s.qualities().iter() {
                for t_ns in (-20..130).step_by(7) {
                    let t = Time::from_ns(t_ns);
                    let time_domain = d.policy_accepts(state, t, q);
                    let speed_domain = d.ideal_dominates_optimal(state, t, q);
                    // Tolerate disagreement only within one ns of the exact
                    // boundary (f64 rounding).
                    let boundary = d.deadline() - p.c_d(state, 3, q);
                    if (boundary - t).as_ns().abs() > 1 {
                        assert_eq!(
                            time_domain, speed_domain,
                            "Prop 1 at state {state} {q} t={t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn policy_accepts_matches_t_d() {
        use crate::policy::Policy;
        // With a single (final) deadline, tD(s_i, q) = D − CD(i..n−1, q),
        // so Prop 1's right side is exactly tD ≥ t.
        let s = sys();
        let p = MixedPolicy::new(&s);
        let d = SpeedDiagram::for_final_deadline(&p);
        for state in 0..4 {
            for q in s.qualities().iter() {
                for t_ns in -20..140 {
                    let t = Time::from_ns(t_ns);
                    assert_eq!(d.policy_accepts(state, t, q), p.t_d(state, q) >= t);
                }
            }
        }
    }

    #[test]
    fn optimal_speed_matches_papers_closed_form() {
        // §3.1.2: vopt(q) = D/Cav(a1..ak, q) · Cav(a_{i+1}..a_k, q) /
        //                   (D − δmax(a_{i+1}..a_k, q) − t_i).
        let s = sys();
        let p = MixedPolicy::new(&s);
        let d = SpeedDiagram::for_final_deadline(&p);
        let deadline = 130.0;
        for state in 0..4 {
            for q in s.qualities().iter() {
                for t_ns in [0i64, 20, 55] {
                    let t = Time::from_ns(t_ns);
                    let total_av = s.prefix().av_prefix(q, 4) as f64;
                    let remaining_av = s.prefix().av_range(state, 4, q).as_ns() as f64;
                    let margin = p.delta_max(state, 3, q).as_ns() as f64;
                    let denom = deadline - margin - t_ns as f64;
                    if denom <= 0.0 {
                        continue;
                    }
                    let paper_form = deadline / total_av * remaining_av / denom;
                    let ours = d.optimal_speed(state, t, q);
                    assert!(
                        (ours - paper_form).abs() < 1e-9 * paper_form.max(1.0),
                        "state {state} {q} t {t}: {ours} vs {paper_form}"
                    );
                }
            }
        }
    }

    #[test]
    fn optimal_speed_edge_cases() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let d = SpeedDiagram::for_final_deadline(&p);
        let q = Quality::new(0);
        // Far beyond the margin target with work remaining → infinite.
        assert_eq!(d.optimal_speed(0, Time::from_ns(1_000), q), f64::INFINITY);
        // Early in time → finite positive.
        let v = d.optimal_speed(0, Time::ZERO, q);
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn trajectory_of_average_run_ends_at_deadline_height() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let d = SpeedDiagram::for_final_deadline(&p);
        let mut trace = crate::trace::Trace::default();
        Engine::new(&s, NumericManager::new(&s, &p), OverheadModel::ZERO).run_cycle(
            0,
            Time::ZERO,
            &mut ConstantExec::average(s.table()),
            &mut trace,
        );
        let pts = d.trajectory(&trace.cycles[0]);
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0].1, 0.0);
        assert!((pts.last().unwrap().1 - 130.0).abs() < 1e-9);
        // Actual time is non-decreasing along the trajectory.
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn ascii_plot_renders_points_and_bisectrice() {
        let pts = [(0.0, 0.0), (50.0, 80.0), (100.0, 100.0)];
        let plot = ascii_plot(&[(&pts, '*')], 20, 10);
        assert!(plot.contains('*'));
        assert!(plot.contains('.'));
        assert_eq!(plot.lines().count(), 10);
        assert!(ascii_plot(&[], 20, 10).is_empty());
    }
}
