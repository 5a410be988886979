//! Versioned, checksummed binary table artifacts — the "layout = format"
//! layer.
//!
//! The one serialization of compiled tables: the boundary between the
//! offline compiler and the runtime in the paper's Figure 1. An artifact's
//! payload **is** the [`TableArena`] cell run, byte for byte, so loading is
//! *validate + align-check + cast* — one header scan, one checksum pass,
//! one bulk little-endian conversion into a single shared allocation, and
//! zero per-row work. [`Artifact::load`] hands out the same [`Compiled`]
//! table pair [`crate::compiler::compile_all`] does, as views sharing that
//! one arena.
//!
//! ## Wire format (version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic "SQM-ARTF"
//!      8     4  format version (u32)
//!     12     4  kind (u32): 1 = single config (the only kind)
//!     16     8  payload cell count (u64)
//!     24     8  FNV-1a-64 checksum of the payload bytes (u64)
//!     32     8  config count (u64), always 1
//!     40    24  reserved, must be zero
//!     64     …  payload: cells as i64 LE
//! ```
//!
//! Payload: `[n_states, |Q|, |ρ|, ρ…]` followed by the dense region block
//! and, when `|ρ| > 0`, the dense lower and upper relaxation blocks —
//! exactly the arena a compiled table pair occupies. Any other kind is
//! rejected with [`ArtifactError::BadKind`].
//!
//! Buffers must start 8-byte aligned (any allocation from the global
//! allocator is); a sliced or otherwise misaligned buffer is rejected with
//! [`ArtifactError::Misaligned`] rather than silently re-parsed, because
//! the format contract is that a loader may map the payload in place.

use crate::arena::TableArena;
use crate::compiler::Compiled;
use crate::quality::QualitySet;
use crate::regions::QualityRegionTable;
use crate::relaxation::{RelaxationTable, StepSet};
use crate::time::Time;

/// The artifact format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Artifact magic (first 8 bytes).
pub const MAGIC: [u8; 8] = *b"SQM-ARTF";

/// Fixed header length in bytes; the payload starts here.
pub const HEADER_LEN: usize = 64;

/// Required buffer alignment: a loader may cast the payload in place.
pub const ALIGN: usize = 8;

const KIND_SINGLE: u32 = 1;

/// The FNV-1a 64-bit offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 over `bytes` — the artifact checksum.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Every way a byte buffer can fail to be a loadable artifact. Corrupt
/// input is always a typed error, never a panic and never a silently
/// wrong table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// Shorter than the fixed header.
    TooShort {
        /// Bytes actually available.
        got: usize,
    },
    /// The first 8 bytes are not [`MAGIC`].
    BadMagic,
    /// Header declares a version this build does not read.
    UnsupportedVersion {
        /// Declared version.
        got: u32,
    },
    /// Header declares an unknown artifact kind.
    BadKind {
        /// Declared kind.
        got: u32,
    },
    /// The buffer does not start on an [`ALIGN`]-byte boundary.
    Misaligned {
        /// `ptr % ALIGN` of the offending buffer.
        offset: usize,
    },
    /// Payload length disagrees with the declared cell count.
    Truncated {
        /// Payload bytes the header promises.
        expected_bytes: usize,
        /// Payload bytes present.
        got_bytes: usize,
    },
    /// Payload bytes do not hash to the stored checksum.
    ChecksumMismatch {
        /// Checksum stored in the header.
        expected: u64,
        /// Checksum of the payload as received.
        got: u64,
    },
    /// Reserved header bytes are not zero.
    ReservedNonZero,
    /// Dimension cells are inconsistent (negative, overflowing, an invalid
    /// quality set or step menu, or a total that disagrees with the
    /// payload size).
    BadDims(String),
    /// The tables break the structure the managers' hint-resuming search
    /// relies on: a region row increases with quality (Proposition 2), or
    /// relaxation intervals are not nested over `ρ` (Proposition 3).
    NotMonotone,
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::TooShort { got } => {
                write!(f, "buffer too short for artifact header: {got} bytes")
            }
            ArtifactError::BadMagic => write!(f, "bad artifact magic"),
            ArtifactError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported artifact version {got} (expected {FORMAT_VERSION})"
                )
            }
            ArtifactError::BadKind { got } => write!(f, "unknown artifact kind {got}"),
            ArtifactError::Misaligned { offset } => {
                write!(f, "artifact buffer misaligned: ptr % {ALIGN} = {offset}")
            }
            ArtifactError::Truncated {
                expected_bytes,
                got_bytes,
            } => write!(
                f,
                "artifact payload truncated: expected {expected_bytes} bytes, got {got_bytes}"
            ),
            ArtifactError::ChecksumMismatch { expected, got } => write!(
                f,
                "artifact checksum mismatch: stored {expected:#018x}, computed {got:#018x}"
            ),
            ArtifactError::ReservedNonZero => write!(f, "reserved artifact header bytes non-zero"),
            ArtifactError::BadDims(msg) => write!(f, "inconsistent artifact dimensions: {msg}"),
            ArtifactError::NotMonotone => write!(
                f,
                "region rows must be non-increasing in quality and \
                 relaxation intervals nested over rho"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// A loaded artifact: one arena and the one table pair viewing it.
#[derive(Clone, Debug)]
pub struct Artifact {
    arena: TableArena,
    /// The loaded tables, as views into the shared arena.
    pub tables: Compiled,
}

// ── encoding ────────────────────────────────────────────────────────────

fn push_cell(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_row(out: &mut Vec<u8>, row: &[Time]) {
    for &t in row {
        push_cell(out, t.as_ns());
    }
}

impl Artifact {
    /// Encode a table pair as an artifact. The payload cells are exactly
    /// the arena a load will hold — encoding a loaded artifact reproduces
    /// its bytes.
    ///
    /// # Panics
    ///
    /// Panics when `relaxation`'s shape disagrees with `regions` (same
    /// compiler output never does).
    pub fn encode(regions: &QualityRegionTable, relaxation: Option<&RelaxationTable>) -> Vec<u8> {
        let n = regions.n_states();
        let nq = regions.qualities().len();
        if let Some(rx) = relaxation {
            assert_eq!(rx.n_states(), n, "relaxation shape mismatch");
            assert_eq!(rx.qualities(), regions.qualities(), "quality set mismatch");
        }
        let nr = relaxation.map_or(0, |rx| rx.rho().len());
        let mut payload = Vec::with_capacity(8 * (3 + nr + n * nq + 2 * n * nq * nr));
        push_cell(&mut payload, n as i64);
        push_cell(&mut payload, nq as i64);
        push_cell(&mut payload, nr as i64);
        if let Some(rx) = relaxation {
            for &r in rx.rho().steps() {
                push_cell(&mut payload, r as i64);
            }
        }
        push_row(&mut payload, regions.raw());
        if let Some(rx) = relaxation {
            let (lower, upper) = rx.raw();
            push_row(&mut payload, lower);
            push_row(&mut payload, upper);
        }
        debug_assert_eq!(payload.len() % 8, 0);
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&KIND_SINGLE.to_le_bytes());
        out.extend_from_slice(&((payload.len() / 8) as u64).to_le_bytes());
        out.extend_from_slice(&checksum(&payload).to_le_bytes());
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&[0u8; 24]);
        out.extend_from_slice(&payload);
        out
    }

    /// Load an artifact: validate the header, checksum, alignment, and
    /// layout, then convert the payload into **one** shared arena and hand
    /// out table views into it. No per-row allocation — the only
    /// allocation proportional to table size is the single arena buffer
    /// (and on a little-endian host the conversion is a plain byte copy).
    ///
    /// # Examples
    ///
    /// ```
    /// use sqm_core::artifact::Artifact;
    /// use sqm_core::compiler::{compile_regions, compile_relaxation};
    /// use sqm_core::relaxation::StepSet;
    /// use sqm_core::system::SystemBuilder;
    /// use sqm_core::time::Time;
    ///
    /// let sys = SystemBuilder::new(2)
    ///     .action("a", &[10, 20], &[4, 9])
    ///     .action("b", &[12, 22], &[6, 11])
    ///     .deadline_last(Time::from_ns(60))
    ///     .build()
    ///     .unwrap();
    /// let regions = compile_regions(&sys);
    /// let relax = compile_relaxation(&sys, &regions, StepSet::new(vec![1, 2]).unwrap());
    ///
    /// let bytes = Artifact::encode(&regions, Some(&relax));
    /// let loaded = Artifact::load(&bytes).unwrap();
    /// let tables = &loaded.tables;
    /// assert_eq!(tables.regions, regions);
    /// assert_eq!(tables.relaxation.as_ref().unwrap(), &relax);
    /// // Both views share the artifact's single arena.
    /// assert!(tables.regions.arena().ptr_eq(loaded.arena()));
    /// ```
    pub fn load(bytes: &[u8]) -> Result<Artifact, ArtifactError> {
        parse_header(bytes)?;
        // One bulk LE conversion, straight into the single shared allocation.
        let arena: TableArena = bytes[HEADER_LEN..]
            .chunks_exact(8)
            .map(|c| Time::from_ns(i64::from_le_bytes(c.try_into().expect("chunk of 8"))))
            .collect();
        let lay = single_layout(arena.cells())?;
        let qualities =
            QualitySet::new(lay.nq).ok_or_else(|| ArtifactError::BadDims("quality set".into()))?;
        let regions =
            QualityRegionTable::dense_view(arena.clone(), lay.regions_off, lay.n_states, qualities)
                .ok_or_else(|| ArtifactError::BadDims("region block".into()))?;
        let relaxation = if lay.nr > 0 {
            let rho = read_rho(&arena.cells()[lay.rho_off..lay.rho_off + lay.nr])?;
            Some(
                RelaxationTable::dense_view(
                    arena.clone(),
                    lay.lower_off,
                    lay.upper_off,
                    lay.n_states,
                    qualities,
                    rho,
                )
                .ok_or_else(|| ArtifactError::BadDims("relaxation block".into()))?,
            )
        } else {
            None
        };
        let tables = Compiled {
            regions,
            relaxation,
        };
        check_searchable(&tables)?;
        Ok(Artifact { arena, tables })
    }

    /// The one shared arena every table view reads from.
    pub fn arena(&self) -> &TableArena {
        &self.arena
    }
}

/// Every manager resumes its probes from the previous decision, which is
/// exact only on monotone region rows and ρ-nested relaxation intervals;
/// a checksum proves the bytes intact, not that whoever wrote them
/// compiled them.
fn check_searchable(tables: &Compiled) -> Result<(), ArtifactError> {
    let nested = tables
        .relaxation
        .as_ref()
        .is_none_or(RelaxationTable::nested_over_rho);
    if tables.regions.rows_monotone() && nested {
        Ok(())
    } else {
        Err(ArtifactError::NotMonotone)
    }
}

// ── header + layout validation ──────────────────────────────────────────

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

/// Validate everything the header promises; the payload is then exactly
/// the checksummed cell run.
fn parse_header(bytes: &[u8]) -> Result<(), ArtifactError> {
    // Length first: an empty slice's dangling pointer need not be aligned,
    // and a buffer too short to hold a header is too short wherever it sits.
    if bytes.len() < HEADER_LEN {
        return Err(ArtifactError::TooShort { got: bytes.len() });
    }
    let offset = bytes.as_ptr() as usize % ALIGN;
    if offset != 0 {
        return Err(ArtifactError::Misaligned { offset });
    }
    if bytes[..8] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = read_u32(bytes, 8);
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion { got: version });
    }
    let kind = read_u32(bytes, 12);
    if kind != KIND_SINGLE {
        return Err(ArtifactError::BadKind { got: kind });
    }
    let payload_cells = usize::try_from(read_u64(bytes, 16))
        .map_err(|_| ArtifactError::BadDims("payload cell count".into()))?;
    let n_configs = usize::try_from(read_u64(bytes, 32))
        .map_err(|_| ArtifactError::BadDims("config count".into()))?;
    if bytes[40..HEADER_LEN].iter().any(|&b| b != 0) {
        return Err(ArtifactError::ReservedNonZero);
    }
    let expected_bytes = payload_cells
        .checked_mul(8)
        .ok_or_else(|| ArtifactError::BadDims("payload cell count".into()))?;
    let got_bytes = bytes.len() - HEADER_LEN;
    if got_bytes != expected_bytes {
        return Err(ArtifactError::Truncated {
            expected_bytes,
            got_bytes,
        });
    }
    let stored = read_u64(bytes, 24);
    let computed = checksum(&bytes[HEADER_LEN..]);
    if stored != computed {
        return Err(ArtifactError::ChecksumMismatch {
            expected: stored,
            got: computed,
        });
    }
    if n_configs != 1 {
        return Err(ArtifactError::BadDims(
            "single artifact config count".into(),
        ));
    }
    Ok(())
}

fn cell_dim(cell: Time, what: &str) -> Result<usize, ArtifactError> {
    usize::try_from(cell.as_ns()).map_err(|_| ArtifactError::BadDims(what.into()))
}

/// Validate the ρ cells (strictly increasing, starting at 1) and build the
/// step menu.
fn read_rho(cells: &[Time]) -> Result<StepSet, ArtifactError> {
    let steps = cells
        .iter()
        .map(|&c| cell_dim(c, "step menu"))
        .collect::<Result<_, _>>()?;
    StepSet::new(steps).map_err(|_| ArtifactError::BadDims("step menu".into()))
}

#[derive(Clone, Copy)]
struct SingleLayout {
    n_states: usize,
    nq: usize,
    nr: usize,
    rho_off: usize,
    regions_off: usize,
    lower_off: usize,
    upper_off: usize,
}

fn single_layout(cells: &[Time]) -> Result<SingleLayout, ArtifactError> {
    if cells.len() < 3 {
        return Err(ArtifactError::BadDims("missing dimension cells".into()));
    }
    let n_states = cell_dim(cells[0], "state count")?;
    let nq = cell_dim(cells[1], "quality count")?;
    let nr = cell_dim(cells[2], "step count")?;
    if nq == 0 || nq > 255 {
        return Err(ArtifactError::BadDims("quality count".into()));
    }
    let bad = || ArtifactError::BadDims("payload size disagrees with dimensions".into());
    let region_cells = n_states.checked_mul(nq).ok_or_else(bad)?;
    let relax_cells = region_cells.checked_mul(nr).ok_or_else(bad)?;
    let meta = 3usize.checked_add(nr).ok_or_else(bad)?;
    let total = meta
        .checked_add(region_cells)
        .and_then(|t| t.checked_add(relax_cells.checked_mul(2)?))
        .ok_or_else(bad)?;
    if total != cells.len() {
        return Err(bad());
    }
    Ok(SingleLayout {
        n_states,
        nq,
        nr,
        rho_off: 3,
        regions_off: meta,
        lower_off: meta + region_cells,
        upper_off: meta + region_cells + relax_cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile_regions, compile_relaxation};
    use crate::system::{ParameterizedSystem, SystemBuilder};

    fn sys(deadline: i64) -> ParameterizedSystem {
        SystemBuilder::new(3)
            .action("a", &[10, 25, 40], &[4, 9, 14])
            .action("b", &[12, 22, 35], &[6, 11, 17])
            .action("c", &[8, 18, 28], &[3, 8, 12])
            .deadline_last(Time::from_ns(deadline))
            .build()
            .unwrap()
    }

    fn tables(deadline: i64) -> (QualityRegionTable, RelaxationTable) {
        let s = sys(deadline);
        let regions = compile_regions(&s);
        let relax = compile_relaxation(&s, &regions, StepSet::new(vec![1, 2]).unwrap());
        (regions, relax)
    }

    #[test]
    fn single_roundtrip_is_byte_identical() {
        let (regions, relax) = tables(100);
        let bytes = Artifact::encode(&regions, Some(&relax));
        let loaded = Artifact::load(&bytes).unwrap();
        let t = &loaded.tables;
        assert_eq!(t.regions, regions);
        assert_eq!(t.relaxation.as_ref().unwrap(), &relax);
        // Re-encoding the loaded tables reproduces the bytes exactly.
        let reencoded = Artifact::encode(&t.regions, t.relaxation.as_ref());
        assert_eq!(reencoded, bytes);
        // Both views share the single arena allocation.
        assert!(t.regions.arena().ptr_eq(loaded.arena()));
        assert!(t
            .relaxation
            .as_ref()
            .unwrap()
            .arena()
            .ptr_eq(loaded.arena()));
    }

    #[test]
    fn single_roundtrip_without_relaxation() {
        let (regions, _) = tables(90);
        let bytes = Artifact::encode(&regions, None);
        let t = Artifact::load(&bytes).unwrap().tables;
        assert_eq!(t.regions, regions);
        assert!(t.relaxation.is_none());
    }

    /// Intact, checksum-valid bytes still fail to load when the tables
    /// they carry break the structure the managers' hint walks rely on.
    #[test]
    fn rejects_tables_the_hint_walk_cannot_search() {
        let (regions, relax) = tables(100);
        let mut cells = regions.raw().to_vec();
        cells.swap(0, 2); // state 0's row now rises with quality
        let rising = QualityRegionTable::from_raw(3, regions.qualities(), cells).unwrap();
        assert!(!rising.rows_monotone());
        assert_eq!(
            Artifact::load(&Artifact::encode(&rising, None)).err(),
            Some(ArtifactError::NotMonotone)
        );

        let (lower, upper) = relax.raw();
        let unnested = RelaxationTable::from_raw(
            3,
            relax.qualities(),
            relax.rho().clone(),
            upper.to_vec(),
            lower.to_vec(),
        )
        .unwrap();
        assert!(!unnested.nested_over_rho());
        assert_eq!(
            Artifact::load(&Artifact::encode(&regions, Some(&unnested))).err(),
            Some(ArtifactError::NotMonotone)
        );
    }

    #[test]
    fn corruption_is_always_a_typed_error() {
        let (regions, relax) = tables(100);
        let bytes = Artifact::encode(&regions, Some(&relax));

        // Truncated payload.
        let truncated = &bytes[..bytes.len() - 8];
        assert!(matches!(
            Artifact::load(truncated),
            Err(ArtifactError::Truncated { .. })
        ));

        // Flipped payload byte → checksum mismatch.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            Artifact::load(&flipped),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));

        // Flipped checksum byte.
        let mut bad_sum = bytes.clone();
        bad_sum[24] ^= 1;
        assert!(matches!(
            Artifact::load(&bad_sum),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));

        // Wrong version.
        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert!(matches!(
            Artifact::load(&bad_version),
            Err(ArtifactError::UnsupportedVersion { got: 99 })
        ));

        // Wrong magic.
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Artifact::load(&bad_magic),
            Err(ArtifactError::BadMagic)
        ));

        // Unknown kind.
        let mut bad_kind = bytes.clone();
        bad_kind[12] = 7;
        assert!(matches!(
            Artifact::load(&bad_kind),
            Err(ArtifactError::BadKind { got: 7 })
        ));

        // Kind 2 is unknown too: a well-formed pooled "fleet" buffer (one
        // config, one state, |Q| = 1, no ρ: the quality count, step count,
        // three pool sizes, one state count, one directory cell and one
        // pooled row) is rejected on its kind alone.
        let fleet_payload: Vec<u8> = [1i64, 0, 1, 0, 0, 1, 0, 50]
            .iter()
            .flat_map(|c| c.to_le_bytes())
            .collect();
        let mut fleet = Vec::with_capacity(HEADER_LEN + fleet_payload.len());
        fleet.extend_from_slice(&MAGIC);
        fleet.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        fleet.extend_from_slice(&2u32.to_le_bytes());
        fleet.extend_from_slice(&8u64.to_le_bytes());
        fleet.extend_from_slice(&checksum(&fleet_payload).to_le_bytes());
        fleet.extend_from_slice(&1u64.to_le_bytes());
        fleet.extend_from_slice(&[0u8; 24]);
        fleet.extend_from_slice(&fleet_payload);
        assert_eq!(
            Artifact::load(&fleet).err(),
            Some(ArtifactError::BadKind { got: 2 })
        );

        // Non-zero reserved bytes.
        let mut bad_reserved = bytes.clone();
        bad_reserved[50] = 1;
        assert!(matches!(
            Artifact::load(&bad_reserved),
            Err(ArtifactError::ReservedNonZero)
        ));

        // Too short for the header at all.
        assert!(matches!(
            Artifact::load(&bytes[..10]),
            Err(ArtifactError::TooShort { got: 10 })
        ));

        // Misaligned buffer: shift the valid artifact by one byte inside a
        // fresh allocation (the allocation itself is aligned, so +1 is not).
        let mut shifted = vec![0u8; bytes.len() + 1];
        shifted[1..].copy_from_slice(&bytes);
        assert!(matches!(
            Artifact::load(&shifted[1..]),
            Err(ArtifactError::Misaligned { .. })
        ));
    }

    /// Corrupt one payload cell of a valid artifact and fix up the
    /// checksum, so the structural validators (not the checksum) must
    /// catch it.
    fn corrupt_cell(bytes: &[u8], cell_ix: usize, value: i64) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let off = HEADER_LEN + cell_ix * 8;
        out[off..off + 8].copy_from_slice(&value.to_le_bytes());
        let sum = checksum(&out[HEADER_LEN..]);
        out[24..32].copy_from_slice(&sum.to_le_bytes());
        out
    }

    #[test]
    fn structural_corruption_behind_a_valid_checksum_is_rejected() {
        let (regions, relax) = tables(100);
        let bytes = Artifact::encode(&regions, Some(&relax));
        // Negative state count.
        assert!(matches!(
            Artifact::load(&corrupt_cell(&bytes, 0, -1)),
            Err(ArtifactError::BadDims(_))
        ));
        // Huge quality count.
        assert!(matches!(
            Artifact::load(&corrupt_cell(&bytes, 1, 1_000)),
            Err(ArtifactError::BadDims(_))
        ));
        // Dimension total no longer matches the payload.
        assert!(matches!(
            Artifact::load(&corrupt_cell(&bytes, 0, 100)),
            Err(ArtifactError::BadDims(_))
        ));
        // Broken step menu (ρ must start at 1).
        assert!(matches!(
            Artifact::load(&corrupt_cell(&bytes, 3, 5)),
            Err(ArtifactError::BadDims(_))
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ArtifactError::ChecksumMismatch {
            expected: 1,
            got: 2,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(ArtifactError::Misaligned { offset: 1 }
            .to_string()
            .contains("misaligned"));
    }
}
