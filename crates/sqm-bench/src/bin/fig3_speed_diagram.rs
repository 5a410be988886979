//! Figure 3: the speed diagram — system trajectory in (actual time ×
//! virtual time) space, the 45° bisectrice of optimal states, and the
//! ideal/optimal speeds at a sample state.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin fig3_speed_diagram
//! ```

use sqm_bench::report;
use sqm_core::controller::OverheadModel;
use sqm_core::engine::Engine;
use sqm_core::manager::NumericManager;
use sqm_core::policy::MixedPolicy;
use sqm_core::speed::{ascii_plot, SpeedDiagram};
use sqm_core::time::Time;
use sqm_core::trace::Trace;
use sqm_mpeg::{EncoderConfig, MpegEncoder};

fn main() {
    let encoder = MpegEncoder::new(EncoderConfig::paper(2024)).unwrap();
    let sys = encoder.system();
    let policy = MixedPolicy::new(sys);
    let diagram = SpeedDiagram::for_final_deadline(&policy);

    // Execute one frame and plot its trajectory.
    let mut exec = encoder.exec(0.12, 7);
    let mut trace = Trace::default();
    Engine::new(sys, NumericManager::new(sys, &policy), OverheadModel::ZERO).run_cycle(
        0,
        Time::ZERO,
        &mut exec,
        &mut trace,
    );
    let trajectory = diagram.trajectory(&trace.cycles[0]);

    println!(
        "== Fig. 3: speed diagram (one frame, deadline D = {}) ==\n",
        diagram.deadline()
    );
    println!("trajectory (dots = bisectrice y = t, * = system state):\n");
    print!("{}", ascii_plot(&[(&trajectory, '*')], 64, 20));

    // Ideal speeds per quality level (state-independent).
    println!("\nideal speeds vidl(q) = D / Cav(a1..an, q):");
    let mut rows = vec![vec!["quality".to_string(), "vidl".to_string()]];
    for q in sys.qualities().iter() {
        rows.push(vec![
            q.to_string(),
            format!("{:.4}", diagram.ideal_speed(q)),
        ]);
    }
    print!("{}", report::table(&rows));

    // Optimal speeds at a mid-frame state for several elapsed times,
    // with the Proposition 1 acceptance check.
    let state = sys.n_actions() / 2;
    println!("\noptimal speeds at state s{state} (Prop. 1: accept ⟺ vidl ≥ vopt):");
    let mut rows = vec![vec![
        "t (ms)".to_string(),
        "quality".to_string(),
        "vopt".to_string(),
        "vidl".to_string(),
        "accepted".to_string(),
    ]];
    for frac in [0.3, 0.5, 0.7] {
        let t = Time::from_ns((diagram.deadline().as_ns() as f64 * frac) as i64);
        for q in [sys.qualities().min(), sys.qualities().max()] {
            let vopt = diagram.optimal_speed(state, t, q);
            let vidl = diagram.ideal_speed(q);
            rows.push(vec![
                format!("{:.0}", t.as_millis_f64()),
                q.to_string(),
                format!("{vopt:.4}"),
                format!("{vidl:.4}"),
                format!("{}", diagram.policy_accepts(state, t, q)),
            ]);
        }
    }
    print!("{}", report::table(&rows));

    println!("\ntrajectory CSV (t_ms, y_ms):");
    let xs: Vec<f64> = trajectory.iter().step_by(64).map(|p| p.0 / 1e6).collect();
    let ys: Vec<f64> = trajectory.iter().step_by(64).map(|p| p.1 / 1e6).collect();
    print!("{}", report::csv("idx", &[("t_ms", &xs), ("y_ms", &ys)]));
}
