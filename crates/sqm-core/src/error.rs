//! Error types for system construction.

use crate::action::ActionId;
use crate::quality::Quality;
use std::fmt;

/// Errors raised while building a parameterized system or its timing tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A flat table vector has the wrong number of entries.
    TableShape {
        /// `n_actions * |Q|`.
        expected: usize,
        /// Entries supplied for `Cwc`.
        got_wc: usize,
        /// Entries supplied for `Cav`.
        got_av: usize,
    },
    /// An execution-time entry is negative.
    NegativeTime {
        /// Offending action.
        action: ActionId,
        /// Offending quality level.
        quality: Quality,
    },
    /// `Cav(a, q) > Cwc(a, q)`.
    AverageAboveWorstCase {
        /// Offending action.
        action: ActionId,
        /// Offending quality level.
        quality: Quality,
    },
    /// `q ↦ C(a, q)` is not non-decreasing.
    NonMonotoneQuality {
        /// Offending action.
        action: ActionId,
        /// Quality level at which the time decreased.
        quality: Quality,
    },
    /// The quality set would be empty.
    EmptyQualitySet,
    /// The action sequence is empty.
    EmptyActionSequence,
    /// The number of action descriptors does not match the timing table.
    ActionCountMismatch {
        /// Action descriptors supplied.
        actions: usize,
        /// Actions the timing table covers.
        table: usize,
    },
    /// No deadline on or after some state: the policy `tD` is undefined
    /// there. The last action must carry a deadline.
    NoFinalDeadline,
    /// Deadline map length differs from the action count.
    DeadlineCountMismatch {
        /// Actions in the system.
        actions: usize,
        /// Actions the deadline map covers.
        deadlines: usize,
    },
    /// The system cannot meet its deadlines even at minimal quality assuming
    /// worst-case times: `tD(s_0, qmin) < 0` under the safe policy.
    InfeasibleAtMinQuality {
        /// The (negative) worst-case slack at `qmin`.
        slack: crate::time::Time,
    },
    /// A relaxation step set must be non-empty, sorted, deduplicated and
    /// contain 1.
    InvalidStepSet,
    /// Tasks composed into a multi-task system must share one quality set.
    QualitySetMismatch {
        /// Levels of the first task's quality set.
        expected: usize,
        /// Levels of the mismatching task's quality set.
        got: usize,
    },
    /// An interleaving pattern never names, in range, a task that has
    /// actions, so that task's actions could never be scheduled.
    StarvedTask {
        /// The lowest-indexed starved task.
        task: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::TableShape { expected, got_wc, got_av } => write!(
                f,
                "timing table shape mismatch: expected {expected} entries, got {got_wc} (wc) / {got_av} (av)"
            ),
            BuildError::NegativeTime { action, quality } => {
                write!(f, "negative execution time for action {action} at {quality}")
            }
            BuildError::AverageAboveWorstCase { action, quality } => write!(
                f,
                "Cav > Cwc for action {action} at {quality}"
            ),
            BuildError::NonMonotoneQuality { action, quality } => write!(
                f,
                "execution time of action {action} decreases at {quality}; must be non-decreasing in quality"
            ),
            BuildError::EmptyQualitySet => write!(f, "quality set must contain at least one level"),
            BuildError::EmptyActionSequence => write!(f, "action sequence must be non-empty"),
            BuildError::ActionCountMismatch { actions, table } => write!(
                f,
                "{actions} action descriptors but timing table covers {table} actions"
            ),
            BuildError::NoFinalDeadline => write!(
                f,
                "the last action carries no deadline; tD would be undefined near the end of the cycle"
            ),
            BuildError::DeadlineCountMismatch { actions, deadlines } => write!(
                f,
                "{actions} actions but deadline map covers {deadlines}"
            ),
            BuildError::InfeasibleAtMinQuality { slack } => write!(
                f,
                "system infeasible at minimal quality: worst-case slack {slack} < 0"
            ),
            BuildError::InvalidStepSet => write!(
                f,
                "relaxation step set must be sorted, deduplicated, non-empty and contain 1"
            ),
            BuildError::QualitySetMismatch { expected, got } => write!(
                f,
                "composed tasks must share one quality set: expected {expected} levels, got {got}"
            ),
            BuildError::StarvedTask { task } => write!(
                f,
                "the interleaving pattern never schedules task {task}, which has actions"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_facts() {
        let e = BuildError::TableShape {
            expected: 4,
            got_wc: 3,
            got_av: 4,
        };
        let s = e.to_string();
        assert!(s.contains('4') && s.contains('3'));

        let e = BuildError::NonMonotoneQuality {
            action: 7,
            quality: Quality::new(2),
        };
        assert!(e.to_string().contains("action 7"));
        assert!(e.to_string().contains("q2"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&BuildError::EmptyQualitySet);
    }
}
