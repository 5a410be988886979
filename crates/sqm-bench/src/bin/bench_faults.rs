//! Emit `BENCH_faults.json` — the robustness point of the workspace's
//! performance trajectory: how fast the differential safety oracle
//! chews through generated system×scenario×path cases, and how long one
//! online recalibration (re-estimate → rebuild → recompile → publish)
//! takes.
//!
//! Correctness gates run before anything is published and abort the
//! artifact on failure:
//!
//! * a fixed-seed fuzz campaign must pass every oracle part (on a
//!   violation the minimized repro goes to stderr);
//! * the drifting-load scenario must show the static manager missing
//!   deadlines and the recalibrated manager recovering.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin bench_faults [out.json]
//! ```

use std::time::Instant;

use sqm_bench::fuzz;
use sqm_bench::report::median_of_5;
use sqm_core::compiler::compile_regions;
use sqm_core::controller::{ConstantExec, OverheadModel};
use sqm_core::engine::{CycleChaining, Engine, NullSink};
use sqm_core::manager::LookupManager;
use sqm_core::quality::Quality;
use sqm_core::recalib::{AdaptiveLookupManager, TableCell};
use sqm_core::system::{ParameterizedSystem, SystemBuilder};
use sqm_core::time::Time;
use sqm_platform::faults::DriftExec;
use sqm_platform::recalib::{OnlineEstimator, RecalibratingExec, RecalibrationConfig};

/// The drift-recovery system used across tests and docs: two 2-quality
/// actions whose high quality fits the model but not a 1.4× drift.
fn drift_sys() -> ParameterizedSystem {
    SystemBuilder::new(2)
        .action("a", &[120, 600], &[100, 500])
        .action("b", &[120, 600], &[100, 500])
        .deadline_last(Time::from_ns(1300))
        .build()
        .unwrap()
}

/// A larger system for the recalibration-latency measurement (the cost
/// is dominated by region recompilation, which scales with n × |Q|).
fn wide_sys() -> ParameterizedSystem {
    let mut b = SystemBuilder::new(4);
    for i in 0..10 {
        let base = 40 + 7 * i as i64;
        b = b.action(
            &format!("a{i}"),
            &[base, base * 2, base * 3, base * 4],
            &[base / 2, base, base * 2, base * 3],
        );
    }
    b.deadline_last(Time::from_ns(10 * 4 * 80 + 500))
        .build()
        .unwrap()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_faults.json".to_string());

    // ── Gate 1: the campaign itself ─────────────────────────────────
    let gate_seeds = 24usize;
    let gate = fuzz::run_campaign(0xBEEF, gate_seeds);
    if let Some((_, violation, repro)) = &gate.failure {
        eprintln!("{repro}");
        panic!("fuzz gate failed: oracle `{}`", violation.oracle);
    }
    println!(
        "fuzz gate: {} seeds, {} cases, eight-part oracle held ✓",
        gate.seeds_run, gate.cases
    );

    // ── Gate 2: drift-recovery scenario ─────────────────────────────
    let sys = drift_sys();
    let regions = compile_regions(&sys);
    let period = sys.final_deadline();
    let cycles = 24usize;

    let mut static_exec = DriftExec::new(ConstantExec::average(sys.table()), 1.4);
    let static_run = Engine::new(&sys, LookupManager::new(&regions), OverheadModel::ZERO)
        .run_cycles(
            cycles,
            period,
            CycleChaining::ArrivalClamped,
            &mut static_exec,
            &mut NullSink,
        );
    assert!(
        static_run.misses >= cycles / 2,
        "static manager must keep missing under 1.4x drift: {} of {cycles}",
        static_run.misses
    );

    let cell = TableCell::new(regions.clone());
    let mut recal_exec = RecalibratingExec::new(
        DriftExec::new(ConstantExec::average(sys.table()), 1.4),
        &sys,
        &cell,
        RecalibrationConfig {
            warmup_cycles: 2,
            every_cycles: 4,
            wc_margin_permille: 200,
        },
    );
    let recal_run = Engine::new(&sys, AdaptiveLookupManager::new(&cell), OverheadModel::ZERO)
        .run_cycles(
            cycles,
            period,
            CycleChaining::ArrivalClamped,
            &mut recal_exec,
            &mut NullSink,
        );
    assert!(recal_exec.recalibrations() >= 1);
    assert!(
        recal_run.misses < static_run.misses && recal_run.misses <= 3,
        "recalibrated manager must recover: {} vs {}",
        recal_run.misses,
        static_run.misses
    );
    println!(
        "drift gate: static {} misses / recalibrated {} misses over {cycles} cycles ✓",
        static_run.misses, recal_run.misses
    );

    // ── Measurement 1: oracle throughput ────────────────────────────
    let bench_seeds = 24usize;
    let mut bench_cases = 0usize;
    let campaign_ns = median_of_5(|| {
        let t0 = Instant::now();
        let report = fuzz::run_campaign(0xBEEF, bench_seeds);
        assert!(report.failure.is_none(), "oracle diverged mid-measurement");
        bench_cases = report.cases;
        t0.elapsed().as_nanos() as f64
    });
    let systems_per_sec = bench_seeds as f64 / (campaign_ns / 1e9);
    let cases_per_sec = bench_cases as f64 / (campaign_ns / 1e9);
    println!(
        "oracle throughput: {systems_per_sec:.1} systems/sec, \
         {cases_per_sec:.1} cases/sec ({bench_cases} cases, median of 5)"
    );

    // ── Measurement 2: recalibration latency ────────────────────────
    // One full recalibration = estimate over the evidence + rebuild the
    // parameterized system + recompile the regions + publish.
    let wide = wide_sys();
    let wide_regions = compile_regions(&wide);
    let wide_cell = TableCell::new(wide_regions);
    let mut estimator = OnlineEstimator::new(wide.n_actions(), wide.qualities().len());
    for a in 0..wide.n_actions() {
        for q in wide.qualities().iter() {
            for k in 0..8i64 {
                estimator.observe(a, q, wide.table().av(a, q).saturating_add(Time::from_ns(k)));
            }
        }
    }
    let iters = 200usize;
    let recalib_ns = median_of_5(|| {
        let t0 = Instant::now();
        for _ in 0..iters {
            let table = estimator.estimate(wide.table(), 200);
            let next =
                ParameterizedSystem::new(wide.actions().to_vec(), table, wide.deadlines().clone())
                    .expect("re-estimated wide system stays feasible");
            wide_cell.publish(compile_regions(&next));
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    });
    // The published tables must stay live-readable: a manager snapshot
    // over the final epoch still decides.
    let mut m = AdaptiveLookupManager::new(&wide_cell);
    let d = {
        use sqm_core::manager::QualityManager;
        m.decide(0, Time::ZERO)
    };
    assert!(!d.infeasible && d.quality >= Quality::MIN);
    println!(
        "recalibration latency: {recalib_ns:.0} ns/swap \
         ({} actions x {} qualities, median of 5 x {iters})",
        wide.n_actions(),
        wide.qualities().len()
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"speed-qm/bench-faults/v1\",\n",
            "  \"config\": \"fuzz campaign {} seeds @ 0xBEEF; drift 1.4x over 2x2 system D=1300; recalib on 10x4 system\",\n",
            "  \"note\": \"host numbers are machine-dependent medians of 5 (track deltas, not absolutes)\",\n",
            "  \"oracle\": {{\n",
            "    \"seeds\": {},\n",
            "    \"cases\": {},\n",
            "    \"campaign_wall_ns\": {:.0},\n",
            "    \"systems_per_sec\": {:.1},\n",
            "    \"cases_per_sec\": {:.1},\n",
            "    \"all_parts_held\": true\n",
            "  }},\n",
            "  \"drift_recovery\": {{\n",
            "    \"cycles\": {},\n",
            "    \"static_misses\": {},\n",
            "    \"recalibrated_misses\": {},\n",
            "    \"recalibrations\": {},\n",
            "    \"recalibration_failures\": {}\n",
            "  }},\n",
            "  \"recalibration\": {{\n",
            "    \"actions\": {},\n",
            "    \"qualities\": {},\n",
            "    \"latency_ns_per_swap\": {:.0}\n",
            "  }}\n",
            "}}\n",
        ),
        bench_seeds,
        bench_seeds,
        bench_cases,
        campaign_ns,
        systems_per_sec,
        cases_per_sec,
        cycles,
        static_run.misses,
        recal_run.misses,
        recal_exec.recalibrations(),
        recal_exec.failures(),
        wide.n_actions(),
        wide.qualities().len(),
        recalib_ns,
    );
    std::fs::write(&out_path, &json).expect("write artifact");
    println!("wrote {out_path}");
}
