//! Emit `BENCH_artifact.json` — the artifact-layer point of the
//! workspace's performance trajectory: how long it takes to go from
//! serialized table bytes to the *first quality decision*, for the text
//! format (parse every integer) versus the binary artifact (validate +
//! cast), and how content-addressed row dedup scales a 1,000-config
//! fleet.
//!
//! Identity gates run before anything is published and abort the
//! artifact on failure:
//!
//! * for every workload, an engine run over the artifact-loaded tables
//!   must be record-for-record identical to a run over the freshly
//!   compiled tables (and the text-parsed ones);
//! * re-encoding a loaded artifact must reproduce the input bytes;
//! * every config of the fleet artifact must decide exactly like its
//!   directly compiled twin, through both the owned load and the
//!   borrowed zero-copy view.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin bench_coldstart [out.json]
//! ```

use std::time::Instant;

use sqm_bench::net::NetExperiment;
use sqm_bench::report::median_of_5;
use sqm_bench::workload::{AudioExperiment, Workload, JITTER};
use sqm_bench::PaperExperiment;
use sqm_core::artifact::{Artifact, ArtifactView};
use sqm_core::engine::{CycleChaining, Engine, RecordBuffer};
use sqm_core::manager::LookupManager;
use sqm_core::regions::QualityRegionTable;
use sqm_core::relaxation::{RelaxationTable, StepSet};
use sqm_core::system::SystemBuilder;
use sqm_core::tables;
use sqm_core::time::Time;
use sqm_core::trace::ActionRecord;
use sqm_mpeg::EncoderConfig;
use sqm_platform::compile::compile_many;

const CYCLES: usize = 3;
const SEED: u64 = 11;
const FLEET_CONFIGS: usize = 1000;

/// Engine records under `regions` — the identity-gate probe: two table
/// views are interchangeable iff these are byte-identical.
fn records_under<W: Workload>(w: &W, regions: &QualityRegionTable) -> Vec<ActionRecord> {
    let mut records = Vec::new();
    let mut sink = RecordBuffer::new(&mut records);
    let run = Engine::new(w.system(), LookupManager::new(regions), w.overhead()).run_cycles(
        CYCLES,
        w.period(),
        CycleChaining::WorkConserving,
        &mut w.exec_source(JITTER, SEED),
        &mut sink,
    );
    assert!(run.actions > 0, "gate run must be non-trivial");
    records
}

struct ColdstartPoint {
    label: &'static str,
    text_bytes: usize,
    artifact_bytes: usize,
    text_parse_ns: f64,
    binary_load_ns: f64,
    view_ns: f64,
}

/// Measure one workload's cold start and run its identity gates.
fn coldstart<W: Workload>(w: &W, relaxation: Option<&RelaxationTable>) -> ColdstartPoint {
    let regions = w.regions();
    let text = tables::regions_to_string(regions);
    let relax_text = relaxation.map(tables::relaxation_to_string);
    let bytes = Artifact::encode(regions, relaxation);

    // ── Identity gates ──────────────────────────────────────────────
    let loaded = Artifact::load(&bytes).expect("own artifact loads");
    let tables_0 = loaded.tables(0).expect("single artifact has config 0");
    assert_eq!(&tables_0.regions, regions, "loaded regions differ");
    assert_eq!(
        Artifact::encode(&tables_0.regions, tables_0.relaxation.as_ref()),
        bytes,
        "re-encoding a loaded artifact must be byte-identical"
    );
    let parsed = tables::regions_from_str(&text).expect("own text parses");
    assert_eq!(&parsed, regions, "text round-trip differs");
    if let (Some(rx), Some(rt)) = (relaxation, &relax_text) {
        assert_eq!(
            &tables::relaxation_from_str(rt).expect("relaxation text parses"),
            rx
        );
        assert_eq!(tables_0.relaxation.as_ref(), Some(rx));
    }
    let reference = records_under(w, regions);
    assert_eq!(
        records_under(w, &tables_0.regions),
        reference,
        "{}: engine records over the loaded table diverge",
        w.label()
    );
    assert_eq!(
        records_under(w, &parsed),
        reference,
        "{}: engine records over the text-parsed table diverge",
        w.label()
    );
    let view = ArtifactView::new(&bytes).expect("own artifact views");
    for state in [0, regions.n_states() / 2, regions.n_states() - 1] {
        for t in [-1_000, 0, 1, 40, 1_000_000] {
            let t = Time::from_ns(t);
            assert_eq!(
                view.choose(0, state, t),
                regions.choose(state, t).0,
                "view decision diverges at state {state}"
            );
        }
    }

    // ── Measurements: bytes → first decision ────────────────────────
    let probe = Time::from_ns(1);
    let text_parse_ns = median_of_5(|| {
        let t0 = Instant::now();
        let r = tables::regions_from_str(&text).unwrap();
        if let Some(rt) = &relax_text {
            std::hint::black_box(tables::relaxation_from_str(rt).unwrap());
        }
        std::hint::black_box(r.choose(0, probe));
        t0.elapsed().as_nanos() as f64
    });
    let binary_load_ns = median_of_5(|| {
        let t0 = Instant::now();
        let a = Artifact::load(&bytes).unwrap();
        std::hint::black_box(a.tables(0).unwrap().regions.choose(0, probe));
        t0.elapsed().as_nanos() as f64
    });
    let view_ns = median_of_5(|| {
        let t0 = Instant::now();
        let v = ArtifactView::new(&bytes).unwrap();
        std::hint::black_box(v.choose(0, 0, probe));
        t0.elapsed().as_nanos() as f64
    });

    let text_bytes = text.len() + relax_text.as_ref().map_or(0, String::len);
    println!(
        "{:>14}: text {:>8.1} KiB parse {:>10.0} ns | binary {:>8.1} KiB load {:>8.0} ns, \
         view {:>6.0} ns ({:.1}x)",
        w.label(),
        text_bytes as f64 / 1024.0,
        text_parse_ns,
        bytes.len() as f64 / 1024.0,
        binary_load_ns,
        view_ns,
        text_parse_ns / binary_load_ns.max(1.0),
    );
    ColdstartPoint {
        label: w.label(),
        text_bytes,
        artifact_bytes: bytes.len(),
        text_parse_ns,
        binary_load_ns,
        view_ns,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_artifact.json".to_string());

    // ── Per-workload cold start (single-config artifacts) ───────────
    let mpeg =
        PaperExperiment::with_config_and_rho(EncoderConfig::paper(2024), StepSet::paper_mpeg());
    let audio = AudioExperiment::tiny(5);
    let net = NetExperiment::tiny(5);
    let points = [
        coldstart(&mpeg, Some(&mpeg.relaxation)),
        coldstart(&audio, None),
        coldstart(&net, None),
    ];

    // ── Fleet: 1,000 configs from 4 deadline classes ────────────────
    let systems: Vec<_> = (0..FLEET_CONFIGS)
        .map(|i| {
            SystemBuilder::new(3)
                .action("a", &[10, 25, 40], &[4, 9, 14])
                .action("b", &[12, 22, 35], &[6, 11, 17])
                .action("c", &[8, 18, 28], &[3, 8, 12])
                .deadline_last(Time::from_ns(105 + (i % 4) as i64 * 25))
                .build()
                .unwrap()
        })
        .collect();
    let threads = std::thread::available_parallelism().map_or(4, usize::from);
    let t0 = Instant::now();
    let fleet = compile_many(
        &systems,
        Some(&StepSet::new(vec![1, 2, 4]).unwrap()),
        threads,
    )
    .expect("uniform fleet compiles");
    let compile_ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(fleet.stats.configs, FLEET_CONFIGS);
    // 4 classes of 3-state configs: pools collapse 1000x but each config
    // keeps 9 directory cells, so the ratio floor is dense/dirs ≈ 7.
    assert!(
        fleet.stats.ratio() > 5.0,
        "4 classes x 1000 configs must dedup heavily: ratio {:.1}",
        fleet.stats.ratio()
    );

    // Fleet identity gate: every config decides like its compiled twin,
    // through both the owned load and the borrowed view.
    let loaded = Artifact::load(&fleet.bytes).expect("fleet loads");
    let view = ArtifactView::new(&fleet.bytes).expect("fleet views");
    assert_eq!(loaded.n_configs(), FLEET_CONFIGS);
    for (i, sys) in systems.iter().enumerate().step_by(97) {
        let direct = sqm_core::compiler::compile_regions(sys);
        let tables = loaded.tables(i).unwrap();
        assert_eq!(tables.regions, direct, "fleet config {i} differs");
        for state in 0..direct.n_states() {
            for t in [-30, 0, 12, 44, 300] {
                let t = Time::from_ns(t);
                assert_eq!(view.choose(i, state, t), direct.choose(state, t).0);
            }
        }
    }
    println!(
        "fleet gate: {FLEET_CONFIGS} configs, every 97th checked against direct compilation ✓"
    );

    let single_bytes = {
        let c = sqm_core::compiler::compile_all(
            &systems[0],
            Some(StepSet::new(vec![1, 2, 4]).unwrap()),
        );
        Artifact::encode(&c.regions, c.relaxation.as_ref())
    };
    let probe = Time::from_ns(1);
    let fleet_load_ns = median_of_5(|| {
        let t0 = Instant::now();
        let a = Artifact::load(&fleet.bytes).unwrap();
        std::hint::black_box(
            a.tables(FLEET_CONFIGS - 1)
                .unwrap()
                .regions
                .choose(0, probe),
        );
        t0.elapsed().as_nanos() as f64
    });
    let fleet_view_ns = median_of_5(|| {
        let t0 = Instant::now();
        let v = ArtifactView::new(&fleet.bytes).unwrap();
        std::hint::black_box(v.choose(FLEET_CONFIGS - 1, 0, probe));
        t0.elapsed().as_nanos() as f64
    });
    let dense_bytes = FLEET_CONFIGS * single_bytes.len();
    println!(
        "fleet: {} configs in {:.1} KiB ({:.1} KiB dense, dedup ratio {:.1}), \
         compile {:.1} ms, load {:.0} ns, view {:.0} ns",
        FLEET_CONFIGS,
        fleet.bytes.len() as f64 / 1024.0,
        dense_bytes as f64 / 1024.0,
        fleet.stats.ratio(),
        compile_ns / 1e6,
        fleet_load_ns,
        fleet_view_ns,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"speed-qm/bench-artifact/v1\",\n",
            "  \"config\": \"bytes -> first decision, median of 5; mpeg at paper scale ",
            "(|A|=1189, |Q|=7, rho={{1,10,20,30,40,50}}); fleet 1000x 3-action configs, 4 classes\",\n",
            "  \"note\": \"host numbers are machine-dependent medians of 5 (track deltas, not absolutes)\",\n",
            "  \"workloads\": [\n",
            "{}",
            "  ],\n",
            "  \"fleet\": {{\n",
            "    \"configs\": {},\n",
            "    \"raw_rows\": {},\n",
            "    \"unique_rows\": {},\n",
            "    \"dedup_ratio\": {:.2},\n",
            "    \"artifact_bytes\": {},\n",
            "    \"dense_equivalent_bytes\": {},\n",
            "    \"compile_many_wall_ns\": {:.0},\n",
            "    \"load_first_decision_ns\": {:.0},\n",
            "    \"view_first_decision_ns\": {:.0}\n",
            "  }}\n",
            "}}\n",
        ),
        points
            .iter()
            .map(|p| {
                format!(
                    concat!(
                        "    {{\n",
                        "      \"label\": \"{}\",\n",
                        "      \"text_bytes\": {},\n",
                        "      \"artifact_bytes\": {},\n",
                        "      \"text_parse_first_decision_ns\": {:.0},\n",
                        "      \"binary_load_first_decision_ns\": {:.0},\n",
                        "      \"view_first_decision_ns\": {:.0}\n",
                        "    }}"
                    ),
                    p.label,
                    p.text_bytes,
                    p.artifact_bytes,
                    p.text_parse_ns,
                    p.binary_load_ns,
                    p.view_ns,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
            + "\n",
        FLEET_CONFIGS,
        fleet.stats.raw_rows,
        fleet.stats.unique_rows,
        fleet.stats.ratio(),
        fleet.bytes.len(),
        dense_bytes,
        compile_ns,
        fleet_load_ns,
        fleet_view_ns,
    );
    std::fs::write(&out_path, &json).expect("write artifact");
    println!("wrote {out_path}");
}
