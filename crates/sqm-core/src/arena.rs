//! Shared cell storage for compiled tables.
//!
//! Table rows are contiguous, and this module makes their *storage*
//! shared too. A [`TableArena`] is one immutable,
//! reference-counted run of [`Time`] cells; [`crate::regions::QualityRegionTable`]
//! and [`crate::relaxation::RelaxationTable`] are cheap views into it
//! (offset + shape), so a table pair loaded from one binary artifact
//! ([`crate::artifact`]) shares a single allocation.
//!
//! Every table producer builds its arena **once, at its final size** — no
//! staging `Vec` and no second copy. The region compile, both `shifted`
//! copies and [`crate::artifact::Artifact::load`] collect an exact-length
//! iterator of cells in final layout order, so each cell is written once.
//! The relaxation compile writes its upper block one column at a time, out
//! of layout order: it allocates the arena as a constant fill and writes
//! every cell that is not the fill value in place before the arena is
//! shared.

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
    /// Seal a cell vector into an immutable shared arena. This copies the
    /// cells into the arena's own allocation; producers that can generate
    /// their cells in order collect them instead (see the
    /// [`FromIterator`] impl).
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

    /// An arena of `len` copies of `fill`, which `write` then overwrites
    /// in place before the arena is shared: the fresh `Arc` is still
    /// unique, so this is one allocation at the final size and no copy.
    /// For kernels that write cells out of layout order.
    pub(crate) fn filled(len: usize, fill: Time, write: impl FnOnce(&mut [Time])) -> TableArena {
        let mut cells: Arc<[Time]> = std::iter::repeat_n(fill, len).collect();
        write(Arc::get_mut(&mut cells).expect("a freshly collected arena is unique"));
        TableArena { cells }
    }
}

/// Collect cells, in layout order, straight into a new arena.
///
/// **Allocation contract:** when the iterator's length is known exactly
/// to the standard library (it implements the unstable `TrustedLen`
/// marker: ranges, slice and `chunks_exact` iterators, and `map` and
/// `chain` over those), the arena is allocated once at its final size and
/// each cell is written into place as the iterator yields it. A stateful `map` closure over a `Range` keeps that
/// guarantee, which is how the region compile emits cells computed in
/// row-major order. Any other iterator is first buffered in a growing
/// `Vec` and then copied.
///
/// ```
/// use sqm_core::arena::TableArena;
/// use sqm_core::time::Time;
///
/// let arena: TableArena = (0..4).map(|i| Time::from_ns(10 * i)).collect();
/// assert_eq!(arena.cells()[3], Time::from_ns(30));
/// ```
impl FromIterator<Time> for TableArena {
    fn from_iter<I: IntoIterator<Item = Time>>(cells: I) -> TableArena {
        TableArena {
            cells: cells.into_iter().collect(),
        }
    }
}

/// The cells of a `rows × width` row-major block: `cell(row, col)` is
/// called exactly once per cell, in layout order. The result is a `map`
/// over a `Range`, so collecting it into a [`TableArena`] allocates once.
pub(crate) fn row_major(
    rows: usize,
    width: usize,
    mut cell: impl FnMut(usize, usize) -> Time,
) -> impl Iterator<Item = Time> {
    let (mut row, mut col) = (0, 0);
    (0..rows * width).map(move |_| {
        let t = cell(row, col);
        col += 1;
        if col == width {
            col = 0;
            row += 1;
        }
        t
    })
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

    #[test]
    fn row_major_visits_every_cell_once_in_layout_order() {
        let arena: TableArena = row_major(3, 4, |row, col| t((10 * row + col) as i64)).collect();
        let expect: Vec<Time> = (0..3)
            .flat_map(|row| (0..4).map(move |col| t(10 * row + col)))
            .collect();
        assert_eq!(arena.cells(), &expect[..]);
        assert!(row_major(0, 4, |_, _| unreachable!()).next().is_none());
    }

    #[test]
    fn filled_arena_is_written_in_place() {
        let arena = TableArena::filled(4, t(7), |cells| cells[1..3].fill(t(-1)));
        assert_eq!(arena.cells(), &[t(7), t(-1), t(-1), t(7)]);
    }
}
