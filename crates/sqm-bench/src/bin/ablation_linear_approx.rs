//! Ablation: linear-constraint approximation of the quality region table
//! (the paper conclusion's "using linear constraints to approximate
//! control relaxation regions").
//!
//! The approximation is conservative (boundaries only move down), so it is
//! safe by construction; the question is how much memory it saves at what
//! quality cost on the MPEG workload.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin ablation_linear_approx
//! ```

use sqm_bench::report;
use sqm_core::approx::ApproxRegionTable;
use sqm_core::compiler::compile_regions;
use sqm_core::engine::{CycleChaining, Engine, NullSink};
use sqm_core::manager::{Decision, QualityManager};
use sqm_core::quality::Quality;
use sqm_core::time::Time;
use sqm_mpeg::{EncoderConfig, MpegEncoder};
use sqm_platform::overhead;

/// A lookup manager over the compressed table (mirrors `LookupManager`).
struct ApproxManager<'a> {
    table: &'a ApproxRegionTable,
}

impl QualityManager for ApproxManager<'_> {
    fn decide(&mut self, state: usize, t: Time) -> Decision {
        let (choice, probes) = self.table.choose(state, t);
        match choice {
            Some(quality) => Decision {
                quality,
                hold: 1,
                work: probes,
                infeasible: false,
            },
            None => Decision {
                quality: Quality::MIN,
                hold: 1,
                work: probes,
                infeasible: true,
            },
        }
    }
    fn name(&self) -> &'static str {
        "approx-regions"
    }
}

fn main() {
    let enc = MpegEncoder::new(EncoderConfig::paper(2024)).unwrap();
    let sys = enc.system();
    let exact = compile_regions(sys);
    let period = enc.config().frame_period;

    // Reference run over the exact table.
    let mut exec = enc.exec(0.12, 7);
    let chaining = CycleChaining::WorkConserving;
    let exact_run = Engine::new(
        sys,
        sqm_core::manager::LookupManager::new(&exact),
        overhead::regions(),
    )
    .run_cycles(12, period, chaining, &mut exec, &mut NullSink);

    println!("== ablation: linear approximation of Rq (12 frames) ==\n");
    let mut rows = vec![vec![
        "tolerance".to_string(),
        "integers".to_string(),
        "vs exact %".to_string(),
        "avg quality".to_string(),
        "quality loss".to_string(),
        "misses".to_string(),
    ]];
    rows.push(vec![
        "exact".into(),
        format!("{}", exact.integer_count()),
        "100.0".into(),
        format!("{:.3}", exact_run.avg_quality()),
        "0.000".into(),
        format!("{}", exact_run.misses),
    ]);

    for tol_us in [0i64, 100, 500, 2_000, 10_000] {
        let approx = ApproxRegionTable::compress(&exact, Time::from_us(tol_us));
        let mut exec = enc.exec(0.12, 7);
        let run = Engine::new(sys, ApproxManager { table: &approx }, overhead::regions())
            .run_cycles(12, period, chaining, &mut exec, &mut NullSink);
        assert_eq!(run.misses, 0, "conservative approximation must stay safe");
        rows.push(vec![
            format!("{tol_us} us"),
            format!("{}", approx.integer_count()),
            format!(
                "{:.1}",
                100.0 * approx.integer_count() as f64 / exact.integer_count() as f64
            ),
            format!("{:.3}", run.avg_quality()),
            format!("{:.3}", exact_run.avg_quality() - run.avg_quality()),
            format!("{}", run.misses),
        ]);
    }
    print!("{}", report::table(&rows));
    println!("\nshape check: memory shrinks with tolerance; quality degrades gracefully;");
    println!("safety (0 misses) holds at every tolerance because boundaries only move down.");
}
