//! Ablation: how the relaxation step menu `ρ` trades table memory against
//! residual quality-management overhead.
//!
//! More (and larger) steps cost `2·|A|·|Q|` integers each but let the
//! manager skip more calls; past a point the workload's dynamics cap the
//! usable step and extra entries buy nothing.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin ablation_rho
//! ```

use sqm_bench::report;
use sqm_bench::{ManagerKind, PaperExperiment};
use sqm_core::compiler::TableStats;
use sqm_core::relaxation::StepSet;
use sqm_mpeg::EncoderConfig;

fn main() {
    let menus: Vec<(&str, Vec<usize>)> = vec![
        ("{1}", vec![1]),
        ("{1,5}", vec![1, 5]),
        ("{1,10}", vec![1, 10]),
        ("{1,10,20,30,40,50} (paper)", vec![1, 10, 20, 30, 40, 50]),
        (
            "{1,5,10,...,100}",
            (0..=20).map(|i| (5 * i).max(1)).collect(),
        ),
        ("{1..64 powers of 2}", vec![1, 2, 4, 8, 16, 32, 64]),
    ];

    println!("== ablation: relaxation step menu ρ (29 frames, paper encoder) ==\n");
    let mut rows = vec![vec![
        "rho".to_string(),
        "integers".to_string(),
        "KiB".to_string(),
        "QM calls".to_string(),
        "overhead %".to_string(),
        "avg quality".to_string(),
    ]];
    for (label, steps) in menus {
        let rho = StepSet::new(steps).expect("menus are valid");
        let exp = PaperExperiment::with_config_and_rho(EncoderConfig::paper(2024), rho.clone());
        let run = exp.run_summary(ManagerKind::Relaxation, 29, 0.12, 7, None);
        let stats = TableStats::of_relaxation(&exp.relaxation);
        rows.push(vec![
            label.to_string(),
            format!("{}", stats.integers),
            format!("{:.0}", stats.bytes as f64 / 1024.0),
            format!("{}", run.qm_calls),
            format!("{:.2}", run.overhead_ratio() * 100.0),
            format!("{:.3}", run.avg_quality()),
        ]);
        assert_eq!(run.misses, 0, "relaxation must stay safe for ρ = {label}");
    }
    print!("{}", report::table(&rows));
    println!("\nshape check: calls and overhead fall as ρ grows richer, then saturate;");
    println!("memory grows linearly with |ρ|.");
}
