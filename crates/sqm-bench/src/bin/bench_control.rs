//! Emit `BENCH_control.json` — the graceful-degradation point of the
//! workspace's performance trajectory: how far the averaged payoff
//! strays from the safe set under drifting load with and without the
//! approachability controller, how fast it comes back (`C/√t`
//! envelope, step-recovery cycles), and what the controller costs per
//! decision.
//!
//! Correctness gates run before anything is published and abort the
//! artifact on failure:
//!
//! * with the trivial safe set (`ℝ⁴`) the `ControlledManager` must be
//!   byte-identical to the plain baseline on the serial, streaming and
//!   elastic paths, for every registered workload;
//! * every scenario of the drifting-load matrix (mpeg/net/infer ×
//!   ramp/step/walk/adversarial) must show the static manager leaving
//!   the safe set and the controller ending strictly closer, with the
//!   excursion decaying inside the fitted `C/√t` envelope.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin bench_control [out.json]
//! ```

use std::time::Instant;

use sqm_bench::control::{
    assert_trivial_set_identity, matrix_safe_set, run_control_matrix, ControlOutcome,
};
use sqm_bench::elastic::check_identity;
use sqm_bench::report::median_of_5;
use sqm_bench::{InferExperiment, NetExperiment, PaperExperiment, Workload, JITTER};
use sqm_core::control::{
    standard_slate, ApproachabilityController, ControlSink, ControlledManager, PayoffCell,
    PayoffSpec, SafeSet,
};
use sqm_core::elastic::{ElasticConfig, ElasticRunner};
use sqm_core::engine::{CycleChaining, Engine, NullSink};
use sqm_core::manager::LookupManager;
use sqm_core::relaxation::StepSet;
use sqm_core::source::Periodic;
use sqm_core::stream::{OverloadPolicy, StreamConfig, StreamingRunner};
use sqm_mpeg::EncoderConfig;

const SEED: u64 = 11;

fn mpeg_tiny() -> PaperExperiment {
    PaperExperiment::with_config_and_rho(
        EncoderConfig::tiny(3),
        StepSet::new(vec![1, 2, 3, 4]).unwrap(),
    )
}

/// Build the trivial-set controlled manager for `w` (rung 0 = baseline).
fn trivial_manager<W: Workload>(w: &W) -> ControlledManager<'_, 'static> {
    ControlledManager::new(
        standard_slate(w.regions(), &[], w.system().qualities().max()),
        ApproachabilityController::new(SafeSet::everything()),
    )
}

/// Gate: trivial-set byte-identity on the streaming and elastic paths
/// (serial is covered by [`assert_trivial_set_identity`]).
fn gate_streaming_elastic_identity<W: Workload>(w: &W, cycles: usize)
where
    for<'a> W::Exec<'a>: Send,
{
    for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
        let config = StreamConfig {
            chaining,
            capacity: 2,
            policy: OverloadPolicy::Block,
        };
        // Streaming: plain vs trivial-set controlled.
        let plain = w.run_streaming(
            config,
            &mut Periodic::new(w.period(), cycles),
            JITTER,
            SEED,
            &mut NullSink,
        );
        let controlled = StreamingRunner::new(config).run(
            &mut Engine::new(w.system(), trivial_manager(w), w.overhead()),
            &mut Periodic::new(w.period(), cycles),
            &mut w.exec_source(JITTER, SEED),
            &mut NullSink,
        );
        assert_eq!(
            controlled,
            plain,
            "{} {chaining:?}: trivial-set streaming diverged",
            w.label()
        );

        // Elastic: plain vs controlled drivers, 1 and 2 workers.
        let elastic_config = ElasticConfig::live()
            .with_chaining(chaining)
            .with_ring_capacity(2);
        let streams = || (0..3u64).map(|i| (Periodic::new(w.period(), cycles), SEED + i));
        let (plain_elastic, _) = ElasticRunner::new(1, elastic_config)
            .run(w.population(|| LookupManager::new(w.regions()), streams()));
        let (controlled_elastic, _) = check_identity(elastic_config, [2], || {
            w.population(|| trivial_manager(w), streams())
        })
        .unwrap_or_else(|e| panic!("{} {chaining:?}: trivial-set elastic: {e}", w.label()));
        assert_eq!(
            controlled_elastic.per_stream(),
            plain_elastic.per_stream(),
            "{} {chaining:?}: trivial-set elastic diverged",
            w.label()
        );
    }
}

fn scenario_json(out: &ControlOutcome) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"workload\": \"{}\",\n",
            "      \"shape\": \"{}\",\n",
            "      \"peak_permille\": {},\n",
            "      \"static_exited\": {},\n",
            "      \"static_peak_dist\": {:.1},\n",
            "      \"static_final_dist\": {:.1},\n",
            "      \"static_misses\": {},\n",
            "      \"controlled_peak_dist\": {:.1},\n",
            "      \"controlled_final_dist\": {:.1},\n",
            "      \"controlled_misses\": {},\n",
            "      \"rung_switches\": {},\n",
            "      \"envelope_c\": {:.1},\n",
            "      \"envelope_ok\": {},\n",
            "      \"recovery_cycles\": {}\n",
            "    }}",
        ),
        out.workload,
        out.shape,
        out.peak_permille,
        out.static_exited,
        out.static_peak_dist,
        out.static_final_dist,
        out.static_misses,
        out.controlled_peak_dist,
        out.controlled_final_dist,
        out.controlled_misses,
        out.switches,
        out.envelope_c,
        out.envelope_ok,
        out.recovery_cycles
            .map_or("null".to_string(), |r| r.to_string()),
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_control.json".to_string());

    let mpeg = mpeg_tiny();
    let net = NetExperiment::tiny(3);
    let infer = InferExperiment::tiny(3);

    // ── Gate 1: trivial safe set ⇒ byte-identity on every path ──────
    assert_trivial_set_identity(&mpeg, 4, SEED);
    assert_trivial_set_identity(&net, 4, SEED);
    assert_trivial_set_identity(&infer, 4, SEED);
    gate_streaming_elastic_identity(&mpeg, 4);
    gate_streaming_elastic_identity(&net, 4);
    gate_streaming_elastic_identity(&infer, 4);
    println!("identity gate: trivial-set controlled ≡ baseline on serial/streaming/elastic ✓");

    // ── Gate 2: the drifting-load matrix ────────────────────────────
    let mut outcomes = Vec::new();
    outcomes.extend(run_control_matrix(&mpeg));
    outcomes.extend(run_control_matrix(&net));
    outcomes.extend(run_control_matrix(&infer));
    for out in &outcomes {
        assert!(
            out.static_exited,
            "{}/{}: static average never left the safe set",
            out.workload, out.shape
        );
        assert!(
            out.envelope_ok,
            "{}/{}: controlled distance above the C/sqrt(t) envelope",
            out.workload, out.shape
        );
        assert!(
            out.controlled_final_dist < out.static_final_dist,
            "{}/{}: controller did not end closer to the set ({} vs {})",
            out.workload,
            out.shape,
            out.controlled_final_dist,
            out.static_final_dist
        );
        assert!(
            out.switches >= 1,
            "{}/{}: controller never steered",
            out.workload,
            out.shape
        );
        println!(
            "matrix {}/{}: static dist {:.0} ({} misses) -> controlled {:.0} ({} misses), \
             C = {:.0}, {} switches ✓",
            out.workload,
            out.shape,
            out.static_final_dist,
            out.static_misses,
            out.controlled_final_dist,
            out.controlled_misses,
            out.envelope_c,
            out.switches
        );
    }
    let recovery = outcomes
        .iter()
        .find(|o| o.workload == mpeg.label() && o.shape == "step")
        .and_then(|o| o.recovery_cycles);

    // ── Measurement: controller overhead per decision ───────────────
    // Host wall time of the closed loop with the plain baseline vs the
    // trivial-set controlled wrapper (which steers every cycle boundary
    // but never switches): the delta is the controller's full freight —
    // drain + observe + projection + argmax — amortized per decision.
    let cycles = 400usize;
    let probe = Engine::new(
        mpeg.system(),
        LookupManager::new(mpeg.regions()),
        mpeg.overhead(),
    )
    .run_cycles(
        cycles,
        mpeg.period(),
        CycleChaining::ArrivalClamped,
        &mut mpeg.exec_source(JITTER, SEED),
        &mut NullSink,
    );
    let decisions = probe.qm_calls.max(1) as f64;
    let plain_ns = median_of_5(|| {
        let t0 = Instant::now();
        let run = Engine::new(
            mpeg.system(),
            LookupManager::new(mpeg.regions()),
            mpeg.overhead(),
        )
        .run_cycles(
            cycles,
            mpeg.period(),
            CycleChaining::ArrivalClamped,
            &mut mpeg.exec_source(JITTER, SEED),
            &mut NullSink,
        );
        assert_eq!(run.qm_calls, probe.qm_calls);
        t0.elapsed().as_nanos() as f64
    });
    let controlled_ns = median_of_5(|| {
        let cell = PayoffCell::new();
        let manager = ControlledManager::new(
            standard_slate(mpeg.regions(), &[], mpeg.system().qualities().max()),
            ApproachabilityController::new(matrix_safe_set()),
        )
        .with_feed(&cell);
        let spec = PayoffSpec::for_system(mpeg.system()).with_period(mpeg.period());
        let mut engine = Engine::new(mpeg.system(), manager, mpeg.overhead());
        let mut sink = ControlSink::new(&cell, spec);
        let t0 = Instant::now();
        let run = engine.run_cycles(
            cycles,
            mpeg.period(),
            CycleChaining::ArrivalClamped,
            &mut mpeg.exec_source(JITTER, SEED),
            &mut sink,
        );
        assert!(run.actions > 0);
        t0.elapsed().as_nanos() as f64
    });
    let overhead_ns_per_decision = ((controlled_ns - plain_ns) / decisions).max(0.0);
    println!(
        "controller overhead: {:.1} ns/decision ({:.1} plain vs {:.1} controlled ns/decision, \
         {} decisions, median of 5)",
        overhead_ns_per_decision,
        plain_ns / decisions,
        controlled_ns / decisions,
        probe.qm_calls
    );

    let scenarios: Vec<String> = outcomes.iter().map(scenario_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"speed-qm/bench-control/v1\",\n",
            "  \"config\": \"matrix mpeg/net/infer x ramp/step/walk/adversarial, 60 cycles @ seed 11; \
             safe set slack<=25 overhead<=500 slack+overhead<=480 (milli)\",\n",
            "  \"note\": \"host numbers are machine-dependent medians of 5 (track deltas, not absolutes)\",\n",
            "  \"identity\": {{\n",
            "    \"trivial_set_byte_identical\": true,\n",
            "    \"paths\": \"serial, streaming, elastic(1..2)\"\n",
            "  }},\n",
            "  \"scenarios\": [\n{}\n  ],\n",
            "  \"step_recovery_cycles\": {},\n",
            "  \"overhead\": {{\n",
            "    \"decisions\": {},\n",
            "    \"plain_ns_per_decision\": {:.1},\n",
            "    \"controlled_ns_per_decision\": {:.1},\n",
            "    \"controller_ns_per_decision\": {:.1}\n",
            "  }}\n",
            "}}\n",
        ),
        scenarios.join(",\n"),
        recovery.map_or("null".to_string(), |r| r.to_string()),
        probe.qm_calls,
        plain_ns / decisions,
        controlled_ns / decisions,
        overhead_ns_per_decision,
    );
    std::fs::write(&out_path, &json).expect("write artifact");
    println!("wrote {out_path}");
}
