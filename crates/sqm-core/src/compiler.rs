//! The offline "compiler" of the paper's Figure 1.
//!
//! The paper pre-computes the symbolic tables in a Matlab/Simulink tool and
//! links them into the controlled software generated by the BIP/Think tool
//! chain. Here the compiler is a library function: it takes a validated
//! [`ParameterizedSystem`], evaluates the mixed policy everywhere, and
//! emits the quality region table (Proposition 2) and, optionally, the
//! control relaxation table (Proposition 3) for a chosen step menu `ρ`.
//!
//! Costs (also reported by [`TableStats`], matching §4.1's accounting):
//!
//! * regions: `|A|·|Q|` integers — `1,189 × 7 = 8,323` for the MPEG encoder;
//! * relaxation: `2·|A|·|Q|·|ρ|` integers — `99,876` with
//!   `ρ = {1,10,20,30,40,50}`.

use crate::policy::MixedPolicy;
use crate::regions::QualityRegionTable;
use crate::relaxation::{RelaxationTable, StepSet};
use crate::system::ParameterizedSystem;

/// Size accounting for a symbolic artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableStats {
    /// Number of stored integers (the unit the paper reports).
    pub integers: usize,
    /// Payload size in bytes (8-byte integers here; the paper's iPod build
    /// used 4-byte integers plus code/indexing overhead).
    pub bytes: usize,
}

impl TableStats {
    /// Stats of a quality region table.
    pub fn of_regions(t: &QualityRegionTable) -> TableStats {
        TableStats {
            integers: t.integer_count(),
            bytes: t.byte_size(),
        }
    }

    /// Stats of a relaxation table.
    pub fn of_relaxation(t: &RelaxationTable) -> TableStats {
        TableStats {
            integers: t.integer_count(),
            bytes: t.byte_size(),
        }
    }
}

/// Everything the offline compiler produces for one system — and what
/// [`Artifact::load`](crate::artifact::Artifact::load) hands back.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The quality region boundaries `tD(s_i, q)`.
    pub regions: QualityRegionTable,
    /// The relaxation intervals, when a step menu was requested.
    pub relaxation: Option<RelaxationTable>,
}

impl Compiled {
    /// Combined size accounting.
    pub fn stats(&self) -> TableStats {
        let r = TableStats::of_regions(&self.regions);
        match &self.relaxation {
            None => r,
            Some(x) => {
                let s = TableStats::of_relaxation(x);
                TableStats {
                    integers: r.integers + s.integers,
                    bytes: r.bytes + s.bytes,
                }
            }
        }
    }
}

/// Compile the quality region table for `sys` under the mixed policy.
pub fn compile_regions(sys: &ParameterizedSystem) -> QualityRegionTable {
    let policy = MixedPolicy::new(sys);
    QualityRegionTable::from_policy(sys, &policy)
}

/// Compile the control relaxation table over an existing region table.
pub fn compile_relaxation(
    sys: &ParameterizedSystem,
    regions: &QualityRegionTable,
    rho: StepSet,
) -> RelaxationTable {
    RelaxationTable::compile(sys, regions, rho)
}

/// One-call compilation of both artifacts.
pub fn compile_all(sys: &ParameterizedSystem, rho: Option<StepSet>) -> Compiled {
    let regions = compile_regions(sys);
    let relaxation = rho.map(|r| compile_relaxation(sys, &regions, r));
    Compiled {
        regions,
        relaxation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemBuilder;
    use crate::time::Time;

    fn sys(n: usize) -> ParameterizedSystem {
        let mut b = SystemBuilder::new(3);
        for i in 0..n {
            // Vary the rows a little so boundaries are not all identical.
            let bump = (i % 5) as i64;
            b = b.action(
                &format!("a{i}"),
                &[10 + bump, 20 + bump, 30 + bump],
                &[4 + bump, 9 + bump, 14 + bump],
            );
        }
        b.deadline_last(Time::from_ns((n as i64) * 40))
            .build()
            .unwrap()
    }

    #[test]
    fn compile_all_produces_consistent_stats() {
        let s = sys(7);
        let rho = StepSet::new(vec![1, 2, 4]).unwrap();
        let c = compile_all(&s, Some(rho));
        let stats = c.stats();
        assert_eq!(stats.integers, 7 * 3 + 2 * 7 * 3 * 3);
        assert_eq!(stats.bytes, stats.integers * 8);
        let no_relax = compile_all(&s, None);
        assert_eq!(no_relax.stats().integers, 21);
        assert!(no_relax.relaxation.is_none());
    }

    #[test]
    fn paper_integer_counts() {
        // The exact §4.1 accounting: |A||Q| = 8,323 and 2|A||Q||ρ| = 99,876
        // for |A| = 1,189, |Q| = 7, ρ = {1,10,20,30,40,50}.
        assert_eq!(1_189 * 7, 8_323);
        assert_eq!(2 * 1_189 * 7 * 6, 99_876);
    }

    #[test]
    fn table_stats_constructors() {
        let s = sys(4);
        let c = compile_all(&s, Some(StepSet::new(vec![1, 2]).unwrap()));
        let r = TableStats::of_regions(&c.regions);
        assert_eq!(r.integers, 12);
        let x = TableStats::of_relaxation(c.relaxation.as_ref().unwrap());
        assert_eq!(x.integers, 2 * 4 * 3 * 2);
    }
}
