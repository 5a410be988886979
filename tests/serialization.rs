//! Round-trip tests for the binary table artifact across randomly
//! generated systems: the one format that crosses the compiler → runtime
//! boundary in the paper's Figure 1 tool chain.

mod common;

use common::arb_system;
use proptest::prelude::*;
use speed_qm::core::artifact::{self, Artifact, ArtifactError};
use speed_qm::core::prelude::*;
use speed_qm::mpeg::EncoderConfig;
use sqm_bench::{AudioExperiment, NetExperiment, PaperExperiment, Workload};

/// Encode, load and re-encode: the loaded tables must equal the inputs
/// and re-encoding them must reproduce the bytes exactly.
fn roundtrip(regions: &QualityRegionTable, relaxation: Option<&RelaxationTable>) -> Compiled {
    let bytes = Artifact::encode(regions, relaxation);
    let loaded = Artifact::load(&bytes).unwrap().tables;
    assert_eq!(&loaded.regions, regions);
    assert_eq!(loaded.relaxation.as_ref(), relaxation);
    assert_eq!(
        Artifact::encode(&loaded.regions, loaded.relaxation.as_ref()),
        bytes,
        "re-encoding a loaded artifact must be byte-identical"
    );
    loaded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn regions_roundtrip(arb in arb_system()) {
        roundtrip(&compile_regions(&arb.system), None);
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
        roundtrip(&regions, Some(&relaxation));
    }

    /// A loaded table pair drives a manager to the same decisions as the
    /// in-memory original: region choices and relaxation choices agree at
    /// every probe.
    #[test]
    fn deserialized_table_is_behaviorally_identical(arb in arb_system()) {
        let sys = &arb.system;
        let regions = compile_regions(sys);
        let relaxation = compile_relaxation(sys, &regions, StepSet::new(vec![1, 2]).unwrap());
        let loaded = roundtrip(&regions, Some(&relaxation));
        let loaded_rx = loaded.relaxation.as_ref().unwrap();
        for state in 0..sys.n_actions() {
            for t_ns in [-50i64, 0, 17, 300, 900] {
                let t = Time::from_ns(t_ns);
                prop_assert_eq!(regions.choose(state, t), loaded.regions.choose(state, t));
                for q in sys.qualities().iter() {
                    prop_assert_eq!(
                        relaxation.choose_relaxation(state, t, q),
                        loaded_rx.choose_relaxation(state, t, q)
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full tool chain — compiled tables → artifact bytes → loaded
    /// tables → artifact bytes → loaded tables — is lossless: every hop
    /// reproduces the compiled tables and the same bytes, and decisions
    /// agree at every probe along the chain.
    #[test]
    fn text_to_binary_chain_is_lossless(arb in arb_system()) {
        let regions = compile_regions(&arb.system);
        let relaxation = compile_relaxation(
            &arb.system,
            &regions,
            StepSet::new(vec![1, 2]).unwrap(),
        );
        let first = roundtrip(&regions, Some(&relaxation));
        let second = roundtrip(&first.regions, first.relaxation.as_ref());
        prop_assert_eq!(&second.regions, &regions);
        prop_assert_eq!(second.relaxation.as_ref(), Some(&relaxation));

        for state in 0..arb.system.n_actions() {
            for t_ns in [-50i64, 0, 17, 300, 900] {
                let t = Time::from_ns(t_ns);
                prop_assert_eq!(second.regions.choose(state, t), regions.choose(state, t));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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

/// The three registered workloads' compiled tables load back equal to
/// the originals, with identical decisions at every probe.
#[test]
fn workload_compiled_and_loaded_artifacts_agree() {
    fn check<W: Workload>(w: &W, relaxation: Option<&RelaxationTable>) {
        let regions = w.regions();
        let loaded = roundtrip(regions, relaxation);
        for state in 0..regions.n_states() {
            for t_ns in [-40i64, 0, 9, 150, 4_000] {
                let t = Time::from_ns(t_ns);
                assert_eq!(
                    loaded.regions.choose(state, t),
                    regions.choose(state, t),
                    "{}: decision diverges at state {state}, t = {t_ns} ns",
                    w.label()
                );
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

/// Every truncation of a valid artifact fails with a typed error — never
/// a panic, never a silently shorter table: shorter than the header is
/// `TooShort`, a payload shorter than the header promises is `Truncated`.
#[test]
fn corrupted_inputs_fail_cleanly() {
    let sys = SystemBuilder::new(2)
        .action("a", &[10, 20], &[5, 10])
        .deadline_last(Time::from_ns(100))
        .build()
        .unwrap();
    let bytes = Artifact::encode(&compile_regions(&sys), None);

    // Each prefix, the empty one included, is copied into a fresh
    // allocation so only its length is under test.
    for len in 0..bytes.len() {
        let prefix = bytes[..len].to_vec();
        let err = Artifact::load(&prefix).expect_err("a strict prefix must not load");
        let typed = if len < artifact::HEADER_LEN {
            matches!(err, ArtifactError::TooShort { got } if got == len)
        } else {
            matches!(err, ArtifactError::Truncated { got_bytes, .. }
                if got_bytes == len - artifact::HEADER_LEN)
        };
        assert!(typed, "prefix of {len} bytes: {err:?}");
    }
    assert!(matches!(
        Artifact::load(&[]),
        Err(ArtifactError::TooShort { got: 0 })
    ));
}
