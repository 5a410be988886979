//! Shared cell storage for compiled tables.
//!
//! Table rows are contiguous, and this module makes their *storage*
//! shared too. A [`TableArena`] is one immutable,
//! reference-counted run of [`Time`] cells; [`crate::regions::QualityRegionTable`]
//! and [`crate::relaxation::RelaxationTable`] are cheap views into it
//! (offset + shape), so a table pair loaded from one binary artifact
//! ([`crate::artifact`]) shares a single allocation.

use std::sync::Arc;

use crate::time::Time;

/// One contiguous, immutable run of table cells shared by every view
/// carved out of it.
///
/// Cloning an arena clones an [`Arc`], not the cells: every view carved out
/// of a loaded artifact reads the same cell allocation.
///
/// # Examples
///
/// ```
/// use sqm_core::arena::TableArena;
/// use sqm_core::time::Time;
///
/// let arena = TableArena::from_cells(vec![Time::from_ns(3), Time::from_ns(1)]);
/// assert_eq!(arena.len(), 2);
/// assert_eq!(arena.cells()[0], Time::from_ns(3));
///
/// // Views share storage: a clone is an Arc bump, not a copy.
/// let view = arena.clone();
/// assert_eq!(view.cells().as_ptr(), arena.cells().as_ptr());
/// ```
#[derive(Clone, Debug)]
pub struct TableArena {
    cells: Arc<[Time]>,
}

impl TableArena {
    /// Seal a cell vector into an immutable shared arena.
    pub fn from_cells(cells: Vec<Time>) -> TableArena {
        TableArena {
            cells: cells.into(),
        }
    }

    /// All cells, in layout order.
    #[inline]
    pub fn cells(&self) -> &[Time] {
        &self.cells
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the arena holds no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Payload size in bytes (cells only; the `Arc` header is not counted).
    #[inline]
    pub fn byte_size(&self) -> usize {
        self.cells.len() * std::mem::size_of::<Time>()
    }

    /// `true` when `self` and `other` share the same allocation.
    pub fn ptr_eq(&self, other: &TableArena) -> bool {
        Arc::ptr_eq(&self.cells, &other.cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: i64) -> Time {
        Time::from_ns(ns)
    }

    #[test]
    fn arena_shares_storage_across_clones() {
        let arena = TableArena::from_cells(vec![t(1), t(2), t(3)]);
        let clone = arena.clone();
        assert!(arena.ptr_eq(&clone));
        assert_eq!(arena.byte_size(), 24);
        assert!(!arena.is_empty());
    }
}
