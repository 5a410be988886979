//! Round-trip tests for the symbolic-table formats across randomly
//! generated systems (the artifacts that cross the compiler → runtime
//! boundary in the paper's Figure 1 tool chain): the versioned text
//! format, the zero-copy binary artifact, and the chain between them.

mod common;

use common::arb_system;
use proptest::prelude::*;
use speed_qm::core::artifact::{self, Artifact, ArtifactError};
use speed_qm::core::prelude::*;
use speed_qm::core::tables;
use speed_qm::mpeg::EncoderConfig;
use sqm_bench::{AudioExperiment, NetExperiment, PaperExperiment, Workload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn regions_roundtrip(arb in arb_system()) {
        let regions = compile_regions(&arb.system);
        let text = tables::regions_to_string(&regions);
        let back = tables::regions_from_str(&text).unwrap();
        prop_assert_eq!(regions, back);
    }

    #[test]
    fn relaxation_roundtrip(arb in arb_system(), extra in proptest::collection::vec(2usize..9, 0..3)) {
        let regions = compile_regions(&arb.system);
        let mut menu = vec![1usize];
        menu.extend(extra);
        menu.sort_unstable();
        menu.dedup();
        let relaxation =
            compile_relaxation(&arb.system, &regions, StepSet::new(menu).unwrap());
        let text = tables::relaxation_to_string(&relaxation);
        let back = tables::relaxation_from_str(&text).unwrap();
        prop_assert_eq!(relaxation, back);
    }

    /// A deserialized region table drives a manager to the same decisions
    /// as the in-memory original.
    #[test]
    fn deserialized_table_is_behaviorally_identical(arb in arb_system()) {
        let sys = &arb.system;
        let regions = compile_regions(sys);
        let parsed =
            tables::regions_from_str(&tables::regions_to_string(&regions)).unwrap();
        for state in 0..sys.n_actions() {
            for t_ns in [-50i64, 0, 17, 300, 900] {
                let t = Time::from_ns(t_ns);
                prop_assert_eq!(regions.choose(state, t).0, parsed.choose(state, t).0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full tool chain — text → table → binary artifact bytes →
    /// table — is lossless: the loaded table equals the compiled one,
    /// re-encoding it reproduces the bytes exactly, and decisions agree
    /// at every probe along the chain.
    #[test]
    fn text_to_binary_chain_is_lossless(arb in arb_system()) {
        let regions = compile_regions(&arb.system);
        let relaxation = compile_relaxation(
            &arb.system,
            &regions,
            StepSet::new(vec![1, 2]).unwrap(),
        );

        let parsed =
            tables::regions_from_str(&tables::regions_to_string(&regions)).unwrap();
        let parsed_rx = tables::relaxation_from_str(
            &tables::relaxation_to_string(&relaxation),
        ).unwrap();

        let bytes = Artifact::encode(&parsed, Some(&parsed_rx));
        let lt = Artifact::load(&bytes).unwrap().tables;
        prop_assert_eq!(&lt.regions, &regions);
        prop_assert_eq!(lt.relaxation.as_ref(), Some(&relaxation));
        prop_assert_eq!(
            Artifact::encode(&lt.regions, lt.relaxation.as_ref()),
            bytes,
            "re-encoding a loaded artifact must be byte-identical"
        );

        for state in 0..arb.system.n_actions() {
            for t_ns in [-50i64, 0, 17, 300, 900] {
                let t = Time::from_ns(t_ns);
                prop_assert_eq!(lt.regions.choose(state, t).0, regions.choose(state, t).0);
            }
        }
    }

    /// Feeding arbitrary bytes to the loader is always `Ok` or a typed
    /// error — never a panic. (The fuzz campaign drives the same surface
    /// with structured mutations; this is the unstructured floor.)
    #[test]
    fn arbitrary_bytes_never_panic_the_loaders(
        bytes in proptest::collection::vec(0u8..=255, 0usize..256)
    ) {
        let _ = Artifact::load(&bytes);
    }

    /// Every single-byte corruption of a valid artifact is rejected:
    /// header damage trips its specific check, payload damage trips the
    /// checksum. No flip loads as a silently different table.
    #[test]
    fn every_single_byte_flip_is_rejected(pos_seed in 0usize..10_000) {
        let sys = SystemBuilder::new(2)
            .action("a", &[10, 20], &[5, 10])
            .action("b", &[15, 25], &[7, 12])
            .deadline_last(Time::from_ns(120))
            .build()
            .unwrap();
        let regions = compile_regions(&sys);
        let bytes = Artifact::encode(&regions, None);
        let mut mutated = bytes.clone();
        let pos = pos_seed % mutated.len();
        mutated[pos] ^= 0x5A;
        prop_assert!(Artifact::load(&mutated).is_err(), "flip at byte {}", pos);
    }
}

/// The three registered workloads cross-check text against binary: both
/// serializations of the same compiled tables load back equal to each
/// other and to the original, with identical decisions.
#[test]
fn workload_text_and_binary_artifacts_agree() {
    fn check<W: Workload>(w: &W, relaxation: Option<&RelaxationTable>) {
        let regions = w.regions();
        let from_text = tables::regions_from_str(&tables::regions_to_string(regions)).unwrap();
        let bytes = Artifact::encode(regions, relaxation);
        let loaded = Artifact::load(&bytes).unwrap();
        let from_binary = &loaded.tables.regions;
        assert_eq!(&from_text, regions, "{}: text diverges", w.label());
        assert_eq!(from_binary, regions, "{}: binary diverges", w.label());
        if let Some(rx) = relaxation {
            let rx_text = tables::relaxation_from_str(&tables::relaxation_to_string(rx)).unwrap();
            assert_eq!(&rx_text, rx);
            assert_eq!(loaded.tables.relaxation.as_ref(), Some(rx));
        }
        for state in 0..regions.n_states() {
            for t_ns in [-40i64, 0, 9, 150, 4_000] {
                let t = Time::from_ns(t_ns);
                let want = regions.choose(state, t).0;
                assert_eq!(from_text.choose(state, t).0, want);
                assert_eq!(from_binary.choose(state, t).0, want);
            }
        }
    }
    let mpeg = PaperExperiment::with_config_and_rho(
        EncoderConfig::tiny(3),
        StepSet::new(vec![1, 2, 3, 4]).unwrap(),
    );
    check(&mpeg, Some(&mpeg.relaxation));
    check(&AudioExperiment::tiny(3), None);
    check(&NetExperiment::tiny(3), None);
}

/// Structured corruption of a binary artifact yields the documented
/// typed errors — the integration-level twin of the unit suite, driven
/// through the public API only.
#[test]
fn corrupted_artifacts_fail_with_typed_errors() {
    let w = AudioExperiment::tiny(3);
    let bytes = Artifact::encode(w.regions(), None);

    // Truncated payload: header promises more cells than are present.
    let truncated = &bytes[..bytes.len() - 8];
    assert!(matches!(
        Artifact::load(truncated),
        Err(ArtifactError::Truncated { .. })
    ));

    // A flipped checksum byte (offset 24..32 in the header).
    let mut bad_sum = bytes.clone();
    bad_sum[24] ^= 0xFF;
    assert!(matches!(
        Artifact::load(&bad_sum),
        Err(ArtifactError::ChecksumMismatch { .. })
    ));

    // A wrong format version (offset 8..12).
    let mut bad_version = bytes.clone();
    bad_version[8] = 99;
    assert!(matches!(
        Artifact::load(&bad_version),
        Err(ArtifactError::UnsupportedVersion { got: 99 })
    ));

    // A misaligned buffer: the same valid bytes, shifted off the 8-byte
    // boundary.
    let mut shifted = vec![0u8; bytes.len() + 1];
    shifted[1..].copy_from_slice(&bytes);
    assert!(matches!(
        Artifact::load(&shifted[1..]),
        Err(ArtifactError::Misaligned { .. })
    ));

    // A state count that disagrees with the payload, behind a valid
    // checksum: structural validation still rejects it.
    let off = artifact::HEADER_LEN;
    let mut bad_dims = bytes.clone();
    bad_dims[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let sum = artifact::checksum(&bad_dims[off..]);
    bad_dims[24..32].copy_from_slice(&sum.to_le_bytes());
    assert!(
        matches!(Artifact::load(&bad_dims), Err(ArtifactError::BadDims(_))),
        "got {:?}",
        Artifact::load(&bad_dims)
    );
}

#[test]
fn corrupted_inputs_fail_cleanly() {
    let sys = SystemBuilder::new(2)
        .action("a", &[10, 20], &[5, 10])
        .deadline_last(Time::from_ns(100))
        .build()
        .unwrap();
    let regions = compile_regions(&sys);
    let good = tables::regions_to_string(&regions);

    // Every single-line truncation either parses to the same table or
    // fails with a ParseError — never panics, never silently alters data.
    let lines: Vec<&str> = good.lines().collect();
    for cut in 0..lines.len() {
        let mut mutated: Vec<&str> = lines.clone();
        mutated.remove(cut);
        let text = mutated.join("\n");
        if let Ok(parsed) = tables::regions_from_str(&text) {
            assert_eq!(parsed, regions)
        }
    }
}
