//! Versioned, checksummed binary table artifacts — the "layout = format"
//! layer.
//!
//! A text table ([`crate::tables`]) pays a parse per load; an artifact does
//! not: its payload **is** the [`TableArena`] cell run, byte for byte, so
//! loading is *validate + align-check + cast* — one header scan, one
//! checksum pass, one bulk little-endian conversion into a single shared
//! allocation, and zero per-row work. The same bytes serve three tiers:
//!
//! * [`Artifact::load`] — owned tables sharing one arena (the cold-start
//!   path for engines and fleets);
//! * [`ArtifactView`] — a borrowed, **zero-allocation** reader that can
//!   answer region queries straight from the byte buffer (artifact bytes →
//!   first decision with no table materialization at all);
//! * [`delta_encode`] / [`delta_decode`] — an optional archival form
//!   (zigzag varints over row deltas; staircase rows compress well) that
//!   is *not* cast-loadable and exists purely to shrink storage.
//!
//! ## Wire format (version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic "SQM-ARTF"
//!      8     4  format version (u32) — shared with the text header
//!     12     4  kind (u32): 1 = single config (dense), 2 = fleet (pooled)
//!     16     8  payload cell count (u64)
//!     24     8  FNV-1a-64 checksum of the payload bytes (u64)
//!     32     8  config count (u64)
//!     40    24  reserved, must be zero
//!     64     …  payload: cells as i64 LE
//! ```
//!
//! Single-config payload (`kind = 1`): `[n_states, |Q|, |ρ|, ρ…]` followed
//! by the dense region block and, when `|ρ| > 0`, the dense lower and
//! upper relaxation blocks — exactly the arena a compiled table pair
//! occupies. Fleet payload (`kind = 2`): `[|Q|, |ρ|, ρ…, pool sizes,
//! per-config n_states, per-config row directories, shared row pools]`,
//! where directories index content-addressed pools built by
//! [`crate::arena::RowStore`] (identical staircase rows across configs are
//! stored once).
//!
//! Buffers must start 8-byte aligned (any allocation from the global
//! allocator is); a sliced or otherwise misaligned buffer is rejected with
//! [`ArtifactError::Misaligned`] rather than silently re-parsed, because
//! the format contract is that a loader may map the payload in place.

use crate::arena::{DedupStats, RowStore, TableArena, FNV_OFFSET, FNV_PRIME};
use crate::quality::{Quality, QualitySet};
use crate::regions::QualityRegionTable;
use crate::relaxation::{PooledRelaxation, RelaxationTable, StepSet};
use crate::time::Time;

/// The one format version shared by binary artifacts and the text header
/// (`format=1`).
pub const FORMAT_VERSION: u32 = 1;

/// Artifact magic (first 8 bytes).
pub const MAGIC: [u8; 8] = *b"SQM-ARTF";

/// Fixed header length in bytes; the payload starts here.
pub const HEADER_LEN: usize = 64;

/// Required buffer alignment: a loader may cast the payload in place.
pub const ALIGN: usize = 8;

const KIND_SINGLE: u32 = 1;
const KIND_FLEET: u32 = 2;

/// FNV-1a-64 over `bytes` — the artifact checksum (same parameters as the
/// row hash in [`crate::arena::RowStore`]).
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
    /// A fleet row-directory cell indexes past its pool.
    DirectoryOutOfBounds {
        /// Config whose directory is corrupt.
        config: usize,
        /// State whose directory cell is corrupt.
        state: usize,
    },
    /// `encode_fleet` input had no configs.
    EmptyFleet,
    /// `encode_fleet` configs disagree on quality set, step menu, or
    /// relaxation presence.
    MixedFleet(String),
    /// A delta-encoded archive ended mid-varint or decoded to the wrong
    /// cell count.
    BadVarint,
    /// A config's tables break the structure the managers' hint-resuming
    /// search relies on: a region row increases with quality
    /// (Proposition 2), or relaxation intervals are not nested over `ρ`
    /// (Proposition 3).
    NotMonotone {
        /// Config whose tables are malformed.
        config: usize,
    },
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
            ArtifactError::DirectoryOutOfBounds { config, state } => write!(
                f,
                "fleet row directory out of bounds at config {config}, state {state}"
            ),
            ArtifactError::EmptyFleet => write!(f, "fleet artifact needs at least one config"),
            ArtifactError::MixedFleet(msg) => write!(f, "fleet configs disagree: {msg}"),
            ArtifactError::BadVarint => write!(f, "corrupt delta-encoded archive"),
            ArtifactError::NotMonotone { config } => write!(
                f,
                "config {config}: region rows must be non-increasing in quality and \
                 relaxation intervals nested over rho"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// What an artifact holds: single config or deduplicated fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// One config, dense blocks.
    Single,
    /// Many configs, directories into shared row pools.
    Fleet,
}

/// One config's tables, as views into the artifact's shared arena.
#[derive(Clone, Debug)]
pub struct LoadedTables {
    /// The quality-region table.
    pub regions: QualityRegionTable,
    /// The relaxation table, when the artifact carries one.
    pub relaxation: Option<RelaxationTable>,
}

/// A loaded artifact: one arena, one table pair per config.
#[derive(Clone, Debug)]
pub struct Artifact {
    arena: TableArena,
    kind: ArtifactKind,
    configs: Vec<LoadedTables>,
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

fn finish(kind: u32, n_configs: u64, payload: Vec<u8>) -> Vec<u8> {
    debug_assert_eq!(payload.len() % 8, 0);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&((payload.len() / 8) as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&n_configs.to_le_bytes());
    out.extend_from_slice(&[0u8; 24]);
    out.extend_from_slice(&payload);
    out
}

impl Artifact {
    /// Encode one config's tables as a single-config (dense) artifact.
    /// The payload cells are exactly the arena a load will hold — encoding
    /// a loaded artifact reproduces its bytes.
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
        for state in 0..n {
            push_row(&mut payload, regions.row(state));
        }
        if let Some(rx) = relaxation {
            for state in 0..n {
                push_row(&mut payload, rx.lower_row(state));
            }
            for state in 0..n {
                push_row(&mut payload, rx.upper_row(state));
            }
        }
        finish(KIND_SINGLE, 1, payload)
    }

    /// Encode a whole config fleet as one pooled artifact: identical rows
    /// (region staircases, relaxation bound rows) are stored once in
    /// content-addressed pools, per-config directories index into them.
    /// Pool order is first-seen, so the bytes are deterministic.
    ///
    /// All configs must share one quality set and (when present) one step
    /// menu; state counts may differ.
    pub fn encode_fleet(
        configs: &[(&QualityRegionTable, Option<&RelaxationTable>)],
    ) -> Result<(Vec<u8>, DedupStats), ArtifactError> {
        let (first_regions, first_relax) = *configs.first().ok_or(ArtifactError::EmptyFleet)?;
        let qualities = first_regions.qualities();
        let nq = qualities.len();
        let rho = first_relax.map(|rx| rx.rho().clone());
        let nr = rho.as_ref().map_or(0, StepSet::len);
        for (i, &(regions, relaxation)) in configs.iter().enumerate() {
            if regions.qualities() != qualities {
                return Err(ArtifactError::MixedFleet(format!(
                    "config {i} has a different quality set"
                )));
            }
            match (relaxation, rho.as_ref()) {
                (None, None) => {}
                (Some(rx), Some(rho)) => {
                    if rx.rho() != rho {
                        return Err(ArtifactError::MixedFleet(format!(
                            "config {i} has a different step menu"
                        )));
                    }
                    if rx.n_states() != regions.n_states() || rx.qualities() != qualities {
                        return Err(ArtifactError::MixedFleet(format!(
                            "config {i} relaxation shape disagrees with its regions"
                        )));
                    }
                }
                _ => {
                    return Err(ArtifactError::MixedFleet(format!(
                        "config {i} disagrees on relaxation presence"
                    )));
                }
            }
        }

        let mut reg_store = RowStore::new(nq);
        let mut relax_stores = (nr > 0).then(|| (RowStore::new(nq * nr), RowStore::new(nq * nr)));
        let mut reg_dirs: Vec<u32> = Vec::new();
        let mut lo_dirs: Vec<u32> = Vec::new();
        let mut up_dirs: Vec<u32> = Vec::new();
        for &(regions, relaxation) in configs {
            for state in 0..regions.n_states() {
                reg_dirs.push(reg_store.intern(regions.row(state)));
            }
            if let (Some(rx), Some((lo_store, up_store))) = (relaxation, relax_stores.as_mut()) {
                for state in 0..rx.n_states() {
                    lo_dirs.push(lo_store.intern(rx.lower_row(state)));
                    up_dirs.push(up_store.intern(rx.upper_row(state)));
                }
            }
        }

        let (lo_pool_rows, up_pool_rows) = relax_stores
            .as_ref()
            .map_or((0, 0), |(lo, up)| (lo.unique_rows(), up.unique_rows()));
        let total_states: usize = configs.iter().map(|&(r, _)| r.n_states()).sum();
        let meta_cells = 2 + nr + 3 + configs.len();
        let dir_cells = total_states * if nr > 0 { 3 } else { 1 };
        let pool_cells = reg_store.pool().len()
            + relax_stores
                .as_ref()
                .map_or(0, |(lo, up)| lo.pool().len() + up.pool().len());
        let mut payload = Vec::with_capacity(8 * (meta_cells + dir_cells + pool_cells));

        push_cell(&mut payload, nq as i64);
        push_cell(&mut payload, nr as i64);
        if let Some(rho) = &rho {
            for &r in rho.steps() {
                push_cell(&mut payload, r as i64);
            }
        }
        push_cell(&mut payload, reg_store.unique_rows() as i64);
        push_cell(&mut payload, lo_pool_rows as i64);
        push_cell(&mut payload, up_pool_rows as i64);
        for &(regions, _) in configs {
            push_cell(&mut payload, regions.n_states() as i64);
        }
        for &ix in &reg_dirs {
            push_cell(&mut payload, i64::from(ix));
        }
        for &ix in &lo_dirs {
            push_cell(&mut payload, i64::from(ix));
        }
        for &ix in &up_dirs {
            push_cell(&mut payload, i64::from(ix));
        }
        push_row(&mut payload, reg_store.pool());
        if let Some((lo_store, up_store)) = &relax_stores {
            push_row(&mut payload, lo_store.pool());
            push_row(&mut payload, up_store.pool());
        }

        let raw_rows = total_states * if nr > 0 { 3 } else { 1 };
        let unique_rows = reg_store.unique_rows() + lo_pool_rows + up_pool_rows;
        let raw_cells: usize = configs
            .iter()
            .map(|&(r, rx)| r.integer_count() + rx.map_or(0, RelaxationTable::integer_count))
            .sum();
        let stats = DedupStats {
            configs: configs.len(),
            raw_rows,
            unique_rows,
            raw_cells,
            pooled_cells: dir_cells + pool_cells,
        };
        Ok((finish(KIND_FLEET, configs.len() as u64, payload), stats))
    }

    /// Load an artifact: validate the header, checksum, alignment, and
    /// layout, then convert the payload into **one** shared arena and hand
    /// out table views into it. No text parsing, no per-row allocation —
    /// the only allocation proportional to table size is the single arena
    /// buffer (and on a little-endian host the conversion is a plain byte
    /// copy).
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
    /// let tables = loaded.tables(0).unwrap();
    /// assert_eq!(tables.regions, regions);
    /// assert_eq!(tables.relaxation.as_ref().unwrap(), &relax);
    /// // Both views share the artifact's single arena.
    /// assert!(tables.regions.arena().ptr_eq(loaded.arena()));
    /// ```
    pub fn load(bytes: &[u8]) -> Result<Artifact, ArtifactError> {
        let header = parse_header(bytes)?;
        let payload = &bytes[HEADER_LEN..];
        // One bulk LE conversion into the single shared allocation.
        let cells: Vec<Time> = payload
            .chunks_exact(8)
            .map(|c| Time::from_ns(i64::from_le_bytes(c.try_into().expect("chunk of 8"))))
            .collect();
        let arena = TableArena::from_cells(cells);
        match header.kind {
            KIND_SINGLE => {
                let lay = single_layout(&header, &|i| arena.cells()[i].as_ns())?;
                let qualities = QualitySet::new(lay.nq)
                    .ok_or_else(|| ArtifactError::BadDims("quality set".into()))?;
                let regions = QualityRegionTable::dense_view(
                    arena.clone(),
                    lay.regions_off,
                    lay.n_states,
                    qualities,
                )
                .ok_or_else(|| ArtifactError::BadDims("region block".into()))?;
                let relaxation = if lay.nr > 0 {
                    let rho = read_rho(&|i| arena.cells()[i].as_ns(), lay.rho_off, lay.nr)?;
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
                let tables = LoadedTables {
                    regions,
                    relaxation,
                };
                check_searchable(0, &tables)?;
                Ok(Artifact {
                    arena,
                    kind: ArtifactKind::Single,
                    configs: vec![tables],
                })
            }
            KIND_FLEET => {
                let lay = fleet_layout(&header, &|i| arena.cells()[i].as_ns())?;
                let qualities = QualitySet::new(lay.nq)
                    .ok_or_else(|| ArtifactError::BadDims("quality set".into()))?;
                let rho = (lay.nr > 0)
                    .then(|| read_rho(&|i| arena.cells()[i].as_ns(), lay.rho_off, lay.nr))
                    .transpose()?;
                let mut configs = Vec::with_capacity(header.n_configs);
                let mut states_before = 0usize;
                for c in 0..header.n_configs {
                    let n = lay.config_states(&|i| arena.cells()[i].as_ns(), c);
                    let regions = QualityRegionTable::pooled_view(
                        arena.clone(),
                        lay.reg_dirs_off + states_before,
                        lay.reg_pool_off,
                        lay.reg_pool_rows,
                        n,
                        qualities,
                    )
                    .ok_or(ArtifactError::DirectoryOutOfBounds {
                        config: c,
                        state: 0,
                    })?;
                    let relaxation = match &rho {
                        Some(rho) => Some(
                            RelaxationTable::pooled_view(
                                arena.clone(),
                                PooledRelaxation {
                                    dir_lo: lay.lo_dirs_off + states_before,
                                    dir_up: lay.up_dirs_off + states_before,
                                    pool_lo: lay.lo_pool_off,
                                    pool_up: lay.up_pool_off,
                                    pool_rows_lo: lay.lo_pool_rows,
                                    pool_rows_up: lay.up_pool_rows,
                                },
                                n,
                                qualities,
                                rho.clone(),
                            )
                            .ok_or(
                                ArtifactError::DirectoryOutOfBounds {
                                    config: c,
                                    state: 0,
                                },
                            )?,
                        ),
                        None => None,
                    };
                    states_before += n;
                    let tables = LoadedTables {
                        regions,
                        relaxation,
                    };
                    check_searchable(c, &tables)?;
                    configs.push(tables);
                }
                Ok(Artifact {
                    arena,
                    kind: ArtifactKind::Fleet,
                    configs,
                })
            }
            other => Err(ArtifactError::BadKind { got: other }),
        }
    }

    /// Single or fleet.
    pub fn kind(&self) -> ArtifactKind {
        self.kind
    }

    /// Number of configs the artifact holds.
    pub fn n_configs(&self) -> usize {
        self.configs.len()
    }

    /// Config `i`'s tables (views into the shared arena).
    pub fn tables(&self, i: usize) -> Option<&LoadedTables> {
        self.configs.get(i)
    }

    /// All configs' tables, consuming the artifact (the arena stays shared
    /// behind the views).
    pub fn into_tables(self) -> Vec<LoadedTables> {
        self.configs
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
fn check_searchable(config: usize, tables: &LoadedTables) -> Result<(), ArtifactError> {
    let nested = tables
        .relaxation
        .as_ref()
        .is_none_or(RelaxationTable::nested_over_rho);
    if tables.regions.rows_monotone() && nested {
        Ok(())
    } else {
        Err(ArtifactError::NotMonotone { config })
    }
}

// ── header + layout validation (shared by load and view) ────────────────

struct Header<'a> {
    bytes: &'a [u8],
    kind: u32,
    payload_cells: usize,
    n_configs: usize,
}

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

fn parse_header(bytes: &[u8]) -> Result<Header<'_>, ArtifactError> {
    let offset = bytes.as_ptr() as usize % ALIGN;
    if offset != 0 {
        return Err(ArtifactError::Misaligned { offset });
    }
    if bytes.len() < HEADER_LEN {
        return Err(ArtifactError::TooShort { got: bytes.len() });
    }
    if bytes[..8] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = read_u32(bytes, 8);
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion { got: version });
    }
    let kind = read_u32(bytes, 12);
    if kind != KIND_SINGLE && kind != KIND_FLEET {
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
    if kind == KIND_SINGLE && n_configs != 1 {
        return Err(ArtifactError::BadDims(
            "single artifact config count".into(),
        ));
    }
    Ok(Header {
        bytes,
        kind,
        payload_cells,
        n_configs,
    })
}

impl Header<'_> {
    /// Payload cell `i` read straight from the byte buffer (the view path;
    /// `i < payload_cells` is the caller's invariant).
    fn cell(&self, i: usize) -> i64 {
        let off = HEADER_LEN + i * 8;
        i64::from_le_bytes(self.bytes[off..off + 8].try_into().expect("8 bytes"))
    }
}

fn cell_dim(cell: &dyn Fn(usize) -> i64, i: usize, what: &str) -> Result<usize, ArtifactError> {
    usize::try_from(cell(i)).map_err(|_| ArtifactError::BadDims(what.into()))
}

/// Validate the ρ cells (strictly increasing, starting at 1) and build the
/// step menu.
fn read_rho(cell: &dyn Fn(usize) -> i64, off: usize, nr: usize) -> Result<StepSet, ArtifactError> {
    let mut steps = Vec::with_capacity(nr);
    for i in 0..nr {
        steps.push(cell_dim(cell, off + i, "step menu")?);
    }
    StepSet::new(steps).map_err(|_| ArtifactError::BadDims("step menu".into()))
}

/// Allocation-free ρ validation for the borrowed view path.
fn check_rho(cell: &dyn Fn(usize) -> i64, off: usize, nr: usize) -> Result<(), ArtifactError> {
    let mut prev = 0i64;
    for i in 0..nr {
        let step = cell(off + i);
        if (i == 0 && step != 1) || step <= prev {
            return Err(ArtifactError::BadDims("step menu".into()));
        }
        prev = step;
    }
    Ok(())
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

fn single_layout(
    header: &Header<'_>,
    cell: &dyn Fn(usize) -> i64,
) -> Result<SingleLayout, ArtifactError> {
    if header.payload_cells < 3 {
        return Err(ArtifactError::BadDims("missing dimension cells".into()));
    }
    let n_states = cell_dim(cell, 0, "state count")?;
    let nq = cell_dim(cell, 1, "quality count")?;
    let nr = cell_dim(cell, 2, "step count")?;
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
    if total != header.payload_cells {
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

#[derive(Clone, Copy)]
struct FleetLayout {
    nq: usize,
    nr: usize,
    rho_off: usize,
    reg_pool_rows: usize,
    lo_pool_rows: usize,
    up_pool_rows: usize,
    counts_off: usize,
    reg_dirs_off: usize,
    lo_dirs_off: usize,
    up_dirs_off: usize,
    reg_pool_off: usize,
    lo_pool_off: usize,
    up_pool_off: usize,
}

impl FleetLayout {
    fn config_states(&self, cell: &dyn Fn(usize) -> i64, c: usize) -> usize {
        cell(self.counts_off + c) as usize
    }
}

fn fleet_layout(
    header: &Header<'_>,
    cell: &dyn Fn(usize) -> i64,
) -> Result<FleetLayout, ArtifactError> {
    let bad = |what: &str| ArtifactError::BadDims(what.into());
    if header.payload_cells < 2 {
        return Err(bad("missing dimension cells"));
    }
    let nq = cell_dim(cell, 0, "quality count")?;
    let nr = cell_dim(cell, 1, "step count")?;
    if nq == 0 || nq > 255 {
        return Err(bad("quality count"));
    }
    let rho_off = 2usize;
    let pools_off = rho_off.checked_add(nr).ok_or_else(|| bad("step count"))?;
    let counts_off = pools_off + 3;
    let head_end = counts_off
        .checked_add(header.n_configs)
        .ok_or_else(|| bad("config count"))?;
    if head_end > header.payload_cells {
        return Err(bad("payload size disagrees with dimensions"));
    }
    let reg_pool_rows = cell_dim(cell, pools_off, "region pool size")?;
    let lo_pool_rows = cell_dim(cell, pools_off + 1, "lower pool size")?;
    let up_pool_rows = cell_dim(cell, pools_off + 2, "upper pool size")?;
    let mut total_states = 0usize;
    for c in 0..header.n_configs {
        let n = cell_dim(cell, counts_off + c, "state count")?;
        total_states = total_states
            .checked_add(n)
            .ok_or_else(|| bad("state count"))?;
    }
    let relax_width = nq.checked_mul(nr).ok_or_else(|| bad("step count"))?;
    let dir_copies = if nr > 0 { 3 } else { 1 };
    let dir_cells = total_states
        .checked_mul(dir_copies)
        .ok_or_else(|| bad("state count"))?;
    let reg_pool_cells = reg_pool_rows
        .checked_mul(nq)
        .ok_or_else(|| bad("region pool size"))?;
    let lo_pool_cells = lo_pool_rows
        .checked_mul(relax_width)
        .ok_or_else(|| bad("lower pool size"))?;
    let up_pool_cells = up_pool_rows
        .checked_mul(relax_width)
        .ok_or_else(|| bad("upper pool size"))?;
    let total = head_end
        .checked_add(dir_cells)
        .and_then(|t| t.checked_add(reg_pool_cells))
        .and_then(|t| t.checked_add(lo_pool_cells))
        .and_then(|t| t.checked_add(up_pool_cells))
        .ok_or_else(|| bad("payload size disagrees with dimensions"))?;
    if total != header.payload_cells {
        return Err(bad("payload size disagrees with dimensions"));
    }
    if nr > 0 && (lo_pool_rows == 0 || up_pool_rows == 0) && total_states > 0 {
        return Err(bad("empty relaxation pool with live directories"));
    }
    let reg_dirs_off = head_end;
    let (lo_dirs_off, up_dirs_off) = if nr > 0 {
        (reg_dirs_off + total_states, reg_dirs_off + 2 * total_states)
    } else {
        (0, 0)
    };
    let reg_pool_off = reg_dirs_off + dir_cells;
    let lo_pool_off = reg_pool_off + reg_pool_cells;
    let up_pool_off = lo_pool_off + lo_pool_cells;
    let lay = FleetLayout {
        nq,
        nr,
        rho_off,
        reg_pool_rows,
        lo_pool_rows,
        up_pool_rows,
        counts_off,
        reg_dirs_off,
        lo_dirs_off,
        up_dirs_off,
        reg_pool_off,
        lo_pool_off,
        up_pool_off,
    };
    // Eagerly validate every directory cell so corruption is a typed
    // error here, not a panic in a row accessor later.
    let mut states_before = 0usize;
    for c in 0..header.n_configs {
        let n = lay.config_states(cell, c);
        for s in 0..n {
            let oob = |dir_off: usize, rows: usize| {
                let ix = cell(dir_off + states_before + s);
                ix < 0 || ix as u64 >= rows as u64
            };
            let corrupt = oob(lay.reg_dirs_off, reg_pool_rows)
                || (nr > 0
                    && (oob(lay.lo_dirs_off, lo_pool_rows) || oob(lay.up_dirs_off, up_pool_rows)));
            if corrupt {
                return Err(ArtifactError::DirectoryOutOfBounds {
                    config: c,
                    state: s,
                });
            }
        }
        states_before += n;
    }
    Ok(lay)
}

// ── the borrowed zero-allocation view ───────────────────────────────────

#[derive(Clone, Copy)]
enum ViewLayout {
    Single(SingleLayout),
    Fleet(FleetLayout),
}

/// A borrowed artifact reader: answers region queries **straight from the
/// byte buffer**, with no arena materialization and no allocation at all
/// after validation — the shortest possible path from artifact bytes to a
/// first decision.
///
/// Construction performs the same full validation as [`Artifact::load`]
/// (header, checksum, alignment, layout, directory bounds), so every
/// query afterwards is infallible on in-range coordinates.
pub struct ArtifactView<'a> {
    header: Header<'a>,
    layout: ViewLayout,
}

impl<'a> ArtifactView<'a> {
    /// Validate `bytes` and borrow them as a queryable artifact.
    pub fn new(bytes: &'a [u8]) -> Result<ArtifactView<'a>, ArtifactError> {
        let header = parse_header(bytes)?;
        let cell = |i: usize| header.cell(i);
        let layout = match header.kind {
            KIND_SINGLE => {
                let lay = single_layout(&header, &cell)?;
                check_rho(&cell, lay.rho_off, lay.nr)?;
                ViewLayout::Single(lay)
            }
            KIND_FLEET => {
                let lay = fleet_layout(&header, &cell)?;
                check_rho(&cell, lay.rho_off, lay.nr)?;
                ViewLayout::Fleet(lay)
            }
            other => return Err(ArtifactError::BadKind { got: other }),
        };
        Ok(ArtifactView { header, layout })
    }

    /// Number of configs.
    pub fn n_configs(&self) -> usize {
        self.header.n_configs
    }

    /// Number of states in config `config`.
    ///
    /// # Panics
    ///
    /// Panics when `config` is out of range.
    pub fn n_states(&self, config: usize) -> usize {
        assert!(config < self.header.n_configs, "config out of range");
        match &self.layout {
            ViewLayout::Single(lay) => lay.n_states,
            ViewLayout::Fleet(lay) => lay.config_states(&|i| self.header.cell(i), config),
        }
    }

    /// Offset (in cells) of the region row for `(config, state)`.
    fn region_row(&self, config: usize, state: usize) -> (usize, usize) {
        let cell = |i: usize| self.header.cell(i);
        match &self.layout {
            ViewLayout::Single(lay) => {
                assert!(
                    config == 0 && state < lay.n_states,
                    "coordinates out of range"
                );
                (lay.regions_off + state * lay.nq, lay.nq)
            }
            ViewLayout::Fleet(lay) => {
                assert!(config < self.header.n_configs, "config out of range");
                let mut states_before = 0usize;
                for c in 0..config {
                    states_before += lay.config_states(&cell, c);
                }
                assert!(
                    state < lay.config_states(&cell, config),
                    "state out of range"
                );
                let row = cell(lay.reg_dirs_off + states_before + state) as usize;
                (lay.reg_pool_off + row * lay.nq, lay.nq)
            }
        }
    }

    /// The symbolic quality choice for `(config, state, t)`, computed by
    /// the same top-down probe as
    /// [`QualityRegionTable::choose`] but reading boundary cells directly
    /// from the borrowed bytes.
    ///
    /// # Panics
    ///
    /// Panics when `config` or `state` is out of range (mirroring the
    /// table accessors).
    pub fn choose(&self, config: usize, state: usize, t: Time) -> Option<Quality> {
        let (off, nq) = self.region_row(config, state);
        for qi in (0..nq).rev() {
            if Time::from_ns(self.header.cell(off + qi)) >= t {
                return Some(Quality::new(qi as u8));
            }
        }
        None
    }
}

// ── archival delta encoding ─────────────────────────────────────────────

fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Delta + zigzag-varint archival encoding of a cell run: each cell is
/// stored as the difference from its predecessor (staircase rows make the
/// deltas small), zigzag-mapped and LEB128-encoded. **Not** cast-loadable
/// — decode with [`delta_decode`] before use; exists to shrink cold
/// storage, not the load path.
pub fn delta_encode(cells: &[Time]) -> Vec<u8> {
    let mut out = Vec::with_capacity(cells.len());
    let mut prev = 0i64;
    for &t in cells {
        let mut z = zigzag(t.as_ns().wrapping_sub(prev));
        while z >= 0x80 {
            out.push((z as u8) | 0x80);
            z >>= 7;
        }
        out.push(z as u8);
        prev = t.as_ns();
    }
    out
}

/// Decode a [`delta_encode`] archive back into exactly `expect_cells`
/// cells.
pub fn delta_decode(bytes: &[u8], expect_cells: usize) -> Result<Vec<Time>, ArtifactError> {
    let mut cells = Vec::with_capacity(expect_cells);
    let mut prev = 0i64;
    let mut iter = bytes.iter();
    while cells.len() < expect_cells {
        let mut z = 0u64;
        let mut shift = 0u32;
        loop {
            let &b = iter.next().ok_or(ArtifactError::BadVarint)?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(ArtifactError::BadVarint);
            }
            z |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        prev = prev.wrapping_add(unzigzag(z));
        cells.push(Time::from_ns(prev));
    }
    if iter.next().is_some() {
        return Err(ArtifactError::BadVarint);
    }
    Ok(cells)
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
        assert_eq!(loaded.kind(), ArtifactKind::Single);
        assert_eq!(loaded.n_configs(), 1);
        let t = loaded.tables(0).unwrap();
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
        let loaded = Artifact::load(&bytes).unwrap();
        let t = loaded.tables(0).unwrap();
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
            Some(ArtifactError::NotMonotone { config: 0 })
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
            Some(ArtifactError::NotMonotone { config: 0 })
        );

        // In a fleet the error names the offending config.
        let (bytes, _) =
            Artifact::encode_fleet(&[(&regions, Some(&relax)), (&rising, Some(&relax))]).unwrap();
        assert_eq!(
            Artifact::load(&bytes).err(),
            Some(ArtifactError::NotMonotone { config: 1 })
        );
    }

    #[test]
    fn fleet_roundtrip_dedupes_identical_configs() {
        let (r1, x1) = tables(100);
        let (r2, x2) = tables(100); // identical content
        let (r3, x3) = tables(140); // different deadline → different rows
        let configs = vec![(&r1, Some(&x1)), (&r2, Some(&x2)), (&r3, Some(&x3))];
        let (bytes, stats) = Artifact::encode_fleet(&configs).unwrap();
        assert_eq!(stats.configs, 3);
        assert_eq!(stats.raw_rows, 3 * 3 * 3);
        // Configs 1 and 2 share all rows.
        assert!(stats.unique_rows <= 2 * 3 * 3);
        assert!(stats.ratio() > 1.0);
        let loaded = Artifact::load(&bytes).unwrap();
        assert_eq!(loaded.kind(), ArtifactKind::Fleet);
        assert_eq!(loaded.n_configs(), 3);
        for (i, (regions, relax)) in [(&r1, &x1), (&r2, &x2), (&r3, &x3)].iter().enumerate() {
            let t = loaded.tables(i).unwrap();
            assert!(t.regions.is_pooled());
            assert_eq!(&t.regions, *regions, "config {i}");
            assert_eq!(t.relaxation.as_ref().unwrap(), *relax, "config {i}");
        }
        // Every view shares the artifact's arena.
        assert!(loaded
            .tables(2)
            .unwrap()
            .regions
            .arena()
            .ptr_eq(loaded.arena()));
    }

    #[test]
    fn fleet_decisions_match_dense_decisions() {
        let (r1, x1) = tables(100);
        let (r2, x2) = tables(130);
        let (bytes, _) = Artifact::encode_fleet(&[(&r1, Some(&x1)), (&r2, Some(&x2))]).unwrap();
        let loaded = Artifact::load(&bytes).unwrap();
        for (i, (dense_r, dense_x)) in [(&r1, &x1), (&r2, &x2)].iter().enumerate() {
            let t = loaded.tables(i).unwrap();
            let pooled_x = t.relaxation.as_ref().unwrap();
            for state in 0..3 {
                for t_ns in -30..160 {
                    let at = Time::from_ns(t_ns);
                    assert_eq!(t.regions.choose(state, at), dense_r.choose(state, at));
                    if let (Some(q), _) = dense_r.choose(state, at) {
                        assert_eq!(
                            pooled_x.choose_relaxation(state, at, q),
                            dense_x.choose_relaxation(state, at, q)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn view_chooses_identically_without_allocation_of_tables() {
        let (regions, relax) = tables(110);
        let bytes = Artifact::encode(&regions, Some(&relax));
        let view = ArtifactView::new(&bytes).unwrap();
        assert_eq!(view.n_configs(), 1);
        assert_eq!(view.n_states(0), 3);
        for state in 0..3 {
            for t_ns in -30..140 {
                let t = Time::from_ns(t_ns);
                assert_eq!(view.choose(0, state, t), regions.choose(state, t).0);
            }
        }
        // And over a fleet.
        let (r2, x2) = tables(150);
        let (fleet, _) =
            Artifact::encode_fleet(&[(&regions, Some(&relax)), (&r2, Some(&x2))]).unwrap();
        let view = ArtifactView::new(&fleet).unwrap();
        for state in 0..3 {
            for t_ns in -30..170 {
                let t = Time::from_ns(t_ns);
                assert_eq!(view.choose(0, state, t), regions.choose(state, t).0);
                assert_eq!(view.choose(1, state, t), r2.choose(state, t).0);
            }
        }
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
        assert!(matches!(
            ArtifactView::new(&shifted[1..]),
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

        // Fleet: directory cell out of bounds.
        let (r2, x2) = tables(120);
        let (fleet, _) =
            Artifact::encode_fleet(&[(&regions, Some(&relax)), (&r2, Some(&x2))]).unwrap();
        // Meta: nq, nr, 2 rho, 3 pool sizes, 2 counts → first reg dir at 9.
        let bad_dir = corrupt_cell(&fleet, 9, 1_000_000);
        match Artifact::load(&bad_dir) {
            Err(ArtifactError::DirectoryOutOfBounds {
                config: 0,
                state: 0,
            }) => {}
            other => panic!("expected DirectoryOutOfBounds, got {other:?}"),
        }
        assert!(ArtifactView::new(&bad_dir).is_err());
    }

    #[test]
    fn mixed_fleets_are_rejected() {
        let (r1, x1) = tables(100);
        let s = SystemBuilder::new(2)
            .action("a", &[10, 20], &[4, 9])
            .deadline_last(Time::from_ns(50))
            .build()
            .unwrap();
        let r2 = compile_regions(&s);
        assert!(matches!(
            Artifact::encode_fleet(&[(&r1, Some(&x1)), (&r2, None)]),
            Err(ArtifactError::MixedFleet(_))
        ));
        assert!(matches!(
            Artifact::encode_fleet(&[(&r1, None), (&r2, None)]),
            Err(ArtifactError::MixedFleet(_))
        ));
        assert!(matches!(
            Artifact::encode_fleet(&[]),
            Err(ArtifactError::EmptyFleet)
        ));
    }

    #[test]
    fn delta_roundtrip_and_corruption() {
        let (regions, relax) = tables(100);
        let mut cells: Vec<Time> = Vec::new();
        for s in 0..3 {
            cells.extend_from_slice(regions.row(s));
            cells.extend_from_slice(relax.lower_row(s));
            cells.extend_from_slice(relax.upper_row(s));
        }
        // Sentinels must survive.
        cells.push(Time::INF);
        cells.push(Time::NEG_INF);
        let archived = delta_encode(&cells);
        assert_eq!(delta_decode(&archived, cells.len()).unwrap(), cells);
        // Truncated archive.
        assert_eq!(
            delta_decode(&archived[..archived.len() - 1], cells.len()),
            Err(ArtifactError::BadVarint)
        );
        // Trailing garbage.
        let mut padded = archived.clone();
        padded.push(0);
        assert_eq!(
            delta_decode(&padded, cells.len()),
            Err(ArtifactError::BadVarint)
        );
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
