//! Emit `BENCH_net.json` — the packet-pipeline point of the workspace's
//! performance trajectory.
//!
//! This point measures the **packet pipeline**: the `sqm-net` workload in
//! its natural regime — bursty line-rate arrivals through a bounded NIC
//! queue under tail drop — reporting per-scenario drop rates, backlog
//! depth, waits and latencies in the deterministic virtual-time domain,
//! plus host wall-clock per scenario (machine-dependent; track deltas).
//!
//! The binary pins correctness before publishing numbers: a periodic
//! source under the `Block` policy must be **byte-identical** to the
//! closed loop under both `CycleChaining` variants.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin bench_net [out.json]
//! ```

use std::time::Instant;

use sqm_bench::{NetExperiment, Workload, JITTER};
use sqm_core::engine::{CycleChaining, NullSink};
use sqm_core::source::Periodic;
use sqm_core::stream::{OverloadPolicy, StreamConfig};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_net.json".to_string());

    let exp = NetExperiment::small(7);
    let batches = 24;
    let exec_seed = 11;

    // Correctness gate: streaming(Periodic, Block) ≡ the closed loop,
    // byte for byte, under both chaining variants.
    for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
        let closed = exp.run_closed(batches, chaining, JITTER, exec_seed, &mut NullSink);
        let streamed = exp.run_streaming(
            StreamConfig {
                chaining,
                capacity: 4,
                policy: OverloadPolicy::Block,
            },
            &mut Periodic::new(exp.period(), batches),
            JITTER,
            exec_seed,
            &mut NullSink,
        );
        assert_eq!(
            streamed.run, closed,
            "periodic+Block streaming must be byte-identical to the closed loop ({chaining:?})"
        );
        println!("identity check: streaming(Periodic, Block) == closed loop under {chaining:?} ✓");
    }

    let mut entries = Vec::new();
    let mut scenarios_with_stats = 0usize;
    for scenario in NetExperiment::scenarios() {
        // Warm-up, then time the scenario on the host clock.
        let _ = exp.run_scenario(&scenario, batches, exec_seed);
        let t0 = Instant::now();
        let out = exp.run_scenario(&scenario, batches, exec_seed);
        let host_ns = t0.elapsed().as_nanos() as f64;

        let s = out.stats;
        let r = out.run;
        println!(
            "{:32} arrived {:3}  processed {:3}  dropped {:2}  max_backlog {:2}  \
             avg_wait {:9.0} ns  max_latency {:9} ns  avg_q {:.2}  misses {}",
            scenario.name,
            s.arrived,
            s.processed,
            s.dropped,
            s.max_backlog,
            s.avg_wait_ns(),
            s.max_latency.as_ns(),
            r.avg_quality(),
            r.misses,
        );
        scenarios_with_stats += 1;
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"scenario\": \"{}\",\n",
                "      \"arrival\": \"{}\",\n",
                "      \"policy\": \"{}\",\n",
                "      \"period_pct\": {},\n",
                "      \"capacity\": {},\n",
                "      \"arrived\": {},\n",
                "      \"processed\": {},\n",
                "      \"dropped\": {},\n",
                "      \"drop_rate\": {:.4},\n",
                "      \"max_backlog\": {},\n",
                "      \"avg_wait_ns\": {:.1},\n",
                "      \"max_wait_ns\": {},\n",
                "      \"avg_latency_ns\": {:.1},\n",
                "      \"max_latency_ns\": {},\n",
                "      \"makespan_ns\": {},\n",
                "      \"avg_quality\": {:.4},\n",
                "      \"qm_overhead_percent\": {:.4},\n",
                "      \"deadline_misses\": {},\n",
                "      \"host_wall_ns\": {:.0}\n",
                "    }}"
            ),
            scenario.name,
            scenario.arrival.label(),
            scenario.policy.label(),
            scenario.period_pct,
            scenario.capacity,
            s.arrived,
            s.processed,
            s.dropped,
            s.drop_rate(),
            s.max_backlog,
            s.avg_wait_ns(),
            s.max_wait.as_ns(),
            s.avg_latency_ns(),
            s.max_latency.as_ns(),
            s.makespan.as_ns(),
            r.avg_quality(),
            r.overhead_ratio() * 100.0,
            r.misses,
            host_ns,
        ));
    }

    assert!(
        scenarios_with_stats >= 3,
        "acceptance: backlog/latency stats for at least 3 scenarios"
    );
    println!(
        "acceptance check: {scenarios_with_stats} scenarios with backlog/latency stats (≥3) ✓"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"speed-qm/bench-net/v1\",\n",
            "  \"config\": \"NetExperiment::small(7): 64-packet batches, 400 Mbit/s of 1500 B packets, {} batches, regions manager, arrival-clamped\",\n",
            "  \"note\": \"virtual-time stats (waits/latencies/backlog/drops) are deterministic; host_wall_ns is machine-dependent (track deltas, not absolutes)\",\n",
            "  \"periodic_block_byte_identical_to_closed_loop\": true,\n",
            "  \"scenarios\": [\n{}\n  ]\n",
            "}}\n"
        ),
        batches,
        entries.join(",\n")
    );

    std::fs::write(&out_path, &json).expect("write net bench json");
    println!("wrote {out_path}");
    print!("{json}");
}
