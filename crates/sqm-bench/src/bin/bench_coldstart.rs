//! Emit `BENCH_artifact.json` — the artifact-layer point of the
//! workspace's performance trajectory: how long it takes to reach the
//! *first quality decision* two ways — compiling the tables from the
//! system, and loading the binary artifact (validate + cast).
//!
//! Identity gates run before anything is published and abort the
//! artifact on failure:
//!
//! * for every workload, the tables compiled here must equal the
//!   workload's own, and an engine run over the artifact-loaded tables
//!   must be record-for-record identical to a run over the freshly
//!   compiled tables;
//! * re-encoding a loaded artifact must reproduce the input bytes.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin bench_coldstart [out.json]
//! ```

use std::time::Instant;

use sqm_bench::net::NetExperiment;
use sqm_bench::report::median_of_5;
use sqm_bench::workload::{AudioExperiment, Workload, JITTER};
use sqm_bench::PaperExperiment;
use sqm_core::artifact::Artifact;
use sqm_core::compiler::{compile_regions, compile_relaxation};
use sqm_core::engine::{CycleChaining, Engine, RecordBuffer};
use sqm_core::manager::LookupManager;
use sqm_core::regions::QualityRegionTable;
use sqm_core::relaxation::{RelaxationTable, StepSet};
use sqm_core::time::Time;
use sqm_core::trace::ActionRecord;
use sqm_mpeg::EncoderConfig;

const CYCLES: usize = 3;
const SEED: u64 = 11;

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
    label: String,
    artifact_bytes: usize,
    compile_ns: f64,
    binary_load_ns: f64,
}

/// Measure one workload's cold start and run its identity gates.
fn coldstart<W: Workload>(w: &W, relaxation: Option<&RelaxationTable>) -> ColdstartPoint {
    // The label names every table the point compiles, encodes and loads.
    let label = match relaxation {
        Some(_) => format!("{}+relaxation", w.label()),
        None => w.label().to_string(),
    };
    let regions = w.regions();
    let bytes = Artifact::encode(regions, relaxation);

    // ── Identity gates ──────────────────────────────────────────────
    let loaded = Artifact::load(&bytes).expect("own artifact loads");
    let tables_0 = &loaded.tables;
    assert_eq!(&tables_0.regions, regions, "loaded regions differ");
    assert_eq!(
        tables_0.relaxation.as_ref(),
        relaxation,
        "loaded relaxation differs"
    );
    assert_eq!(
        Artifact::encode(&tables_0.regions, tables_0.relaxation.as_ref()),
        bytes,
        "re-encoding a loaded artifact must be byte-identical"
    );
    let compile = || {
        let compiled = compile_regions(w.system());
        let relax =
            relaxation.map(|rx| compile_relaxation(w.system(), &compiled, rx.rho().clone()));
        (compiled, relax)
    };
    let (compiled, compiled_relax) = compile();
    assert_eq!(&compiled, regions, "compiled regions differ");
    assert_eq!(
        compiled_relax.as_ref(),
        relaxation,
        "compiled relaxation differs"
    );
    let reference = records_under(w, regions);
    assert_eq!(
        records_under(w, &tables_0.regions),
        reference,
        "{label}: engine records over the loaded table diverge"
    );

    // ── Measurements: system or bytes → first decision ──────────────
    let probe = Time::from_ns(1);
    let compile_ns = median_of_5(|| {
        let t0 = Instant::now();
        let (r, relax) = compile();
        std::hint::black_box(relax);
        std::hint::black_box(r.choose(0, probe));
        t0.elapsed().as_nanos() as f64
    });
    let binary_load_ns = median_of_5(|| {
        let t0 = Instant::now();
        let a = Artifact::load(&bytes).unwrap();
        std::hint::black_box(a.tables.regions.choose(0, probe));
        t0.elapsed().as_nanos() as f64
    });

    println!(
        "{:>23}: compile {:>8.0} ns | binary {:>8.1} KiB load {:>8.0} ns",
        label,
        compile_ns,
        bytes.len() as f64 / 1024.0,
        binary_load_ns,
    );
    ColdstartPoint {
        label,
        artifact_bytes: bytes.len(),
        compile_ns,
        binary_load_ns,
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

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"speed-qm/bench-artifact/v4\",\n",
            "  \"config\": \"system or bytes -> first decision, median of 5; mpeg at paper scale ",
            "(|A|=1189, |Q|=7, rho={{1,10,20,30,40,50}})\",\n",
            "  \"note\": \"host numbers are machine-dependent medians of 5 (track deltas, not absolutes)\",\n",
            "  \"nproc\": {},\n",
            "  \"workloads\": [\n",
            "{}",
            "  ]\n",
            "}}\n",
        ),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        points
            .iter()
            .map(|p| {
                format!(
                    concat!(
                        "    {{\n",
                        "      \"label\": \"{}\",\n",
                        "      \"artifact_bytes\": {},\n",
                        "      \"compile_first_decision_ns\": {:.0},\n",
                        "      \"binary_load_first_decision_ns\": {:.0}\n",
                        "    }}"
                    ),
                    p.label,
                    p.artifact_bytes,
                    p.compile_ns,
                    p.binary_load_ns,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
            + "\n",
    );
    std::fs::write(&out_path, &json).expect("write artifact");
    println!("wrote {out_path}");
}
