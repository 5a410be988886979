//! §4.2 headline comparison: execution-time overhead of quality management
//! for the three Quality Manager implementations.
//!
//! Paper (iPod 5G, 29 frames of 352×288, D = 30 s):
//! numeric 5.7 %, symbolic/quality-regions 1.9 %, control relaxation <1.1 %.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin table_overhead
//! ```

use sqm_bench::report;
use sqm_bench::{run_paper_experiment, PaperExperiment};

fn main() {
    let frames = 29;
    let experiment = PaperExperiment::new(2024);
    let results = run_paper_experiment(&experiment, frames, 0.12, 7);

    println!("== §4.2 Quality Manager overhead ({frames} frames, 352x288, |A| = 1189) ==\n");
    let paper = [5.7, 1.9, 1.1];
    let mut rows = vec![vec![
        "manager".to_string(),
        "overhead %".to_string(),
        "paper %".to_string(),
        "QM calls".to_string(),
        "avg quality".to_string(),
        "misses".to_string(),
    ]];
    for (r, paper_pct) in results.iter().zip(paper) {
        rows.push(vec![
            r.kind.label().to_string(),
            format!("{:.2}", r.overhead_percent()),
            if r.kind == sqm_bench::ManagerKind::Relaxation {
                format!("<{paper_pct}")
            } else {
                format!("{paper_pct}")
            },
            format!("{}", r.trace.run_summary().qm_calls),
            format!("{:.2}", r.avg_quality()),
            format!("{}", r.trace.run_summary().misses),
        ]);
    }
    print!("{}", report::table(&rows));

    let numeric = results[0].overhead_percent();
    let regions = results[1].overhead_percent();
    let relaxation = results[2].overhead_percent();
    println!();
    println!(
        "shape check: numeric/regions = {:.1}x (paper 3.0x), regions/relaxation = {:.1}x (paper >1.7x)",
        numeric / regions,
        regions / relaxation
    );
}
