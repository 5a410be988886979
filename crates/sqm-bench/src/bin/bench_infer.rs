//! Emit `BENCH_infer.json` — the inference-serving point of the
//! workspace's performance trajectory, next to `BENCH_elastic.json`.
//!
//! The workload is the batch-coupled serving pipeline (`sqm-infer`):
//! prefill/decode phase split, continuous-batching decode coupling, and
//! p99/p999 SLO deadline classes. Reported:
//!
//! * worst-case SLO slack per deadline class over a closed serving run
//!   (how much of the p99/p999 budget the manager leaves on the table);
//! * a scaling ladder of 1k/10k/100k concurrent live request streams
//!   through the elastic scheduler — host wall-clock (median of 5),
//!   decisions/sec — plus the shed rate of the same rung under 4×
//!   overload with a fleet-wide admission cap.
//!
//! Correctness gates run before anything is published, and a failed gate
//! aborts without writing the artifact:
//!
//! * Periodic + `Block` streaming must be **byte-identical** to the
//!   closed loop under both chainings (the batch coupling is stateful —
//!   identity proves the state replays exactly);
//! * every elastic rung must be byte-identical to its 1-worker run, and
//!   the 1-worker run must match the serial `StreamingRunner` + `Block`
//!   fold, `max_backlog` included;
//! * every shed rung's ledger must balance, identically across workers.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin bench_infer [out.json]
//! ```

use std::time::Instant;

use sqm_bench::elastic::{check_identity, mixed_fleet};
use sqm_bench::report::median_of_5;
use sqm_bench::{InferExperiment, Workload, JITTER};
use sqm_core::elastic::{Admission, ElasticConfig, ElasticRunner};
use sqm_core::engine::{CycleChaining, NullSink};
use sqm_core::source::Periodic;
use sqm_core::stream::{OverloadPolicy, StreamConfig};
use sqm_core::trace::Trace;
use sqm_infer::SloClass;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_infer.json".to_string());

    // ---- Gate: streaming ≡ closed loop, both chainings. ----------------
    let tiny = InferExperiment::tiny(7);
    for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
        let closed = tiny.run_closed(4, chaining, JITTER, 11, &mut NullSink);
        let streamed = tiny.run_streaming(
            StreamConfig {
                chaining,
                capacity: 2,
                policy: OverloadPolicy::Block,
            },
            &mut Periodic::new(tiny.period(), 4),
            JITTER,
            11,
            &mut NullSink,
        );
        assert_eq!(
            streamed.run, closed,
            "batch coupling must replay identically under {chaining:?}"
        );
    }
    println!("identity check: streaming == closed loop, both chainings ✓");

    // ---- SLO slack over a closed serving run (small config). -----------
    let small = InferExperiment::small(3);
    let mut trace = Trace::default();
    let run = small.run_closed(16, CycleChaining::ArrivalClamped, JITTER, 11, &mut trace);
    assert_eq!(run.misses, 0, "the SLO run must be miss-free");
    let pipeline = small.pipeline();
    let deadlines = pipeline.system().deadlines();
    let mut interactive_worst = i64::MAX;
    let mut bulk_worst = i64::MAX;
    for cycle in &trace.cycles {
        for r in &cycle.records {
            let Some(deadline) = deadlines.get(r.action) else {
                continue;
            };
            let slack = (deadline - r.end).as_ns();
            match pipeline.slo_of(r.action) {
                SloClass::Interactive => interactive_worst = interactive_worst.min(slack),
                SloClass::Bulk => bulk_worst = bulk_worst.min(slack),
            }
        }
    }
    assert!(
        interactive_worst >= 0 && bulk_worst >= 0,
        "miss-free run cannot have negative slack"
    );
    println!(
        "SLO slack over {} cycles: interactive p99 worst {} ns, bulk p999 worst {} ns, \
         avg quality {:.2}",
        run.cycles,
        interactive_worst,
        bulk_worst,
        run.avg_quality()
    );

    // ---- Scaling ladder: 1k/10k/100k live request streams. -------------
    let frames = 2;
    let config = ElasticConfig::live().with_ring_capacity(4096);
    let mut entries = Vec::new();
    for streams in [1_000usize, 10_000, 100_000] {
        // Stream i runs exec seed 1000 + i; unbounded admission runs the
        // fleet at the nominal rate, the shed rung below at 4x.
        let fleet = |frames, overload| mixed_fleet(&tiny, streams, frames, overload, 1_000);
        let (reference, _) = check_identity(config, [2], || fleet(frames, 1))
            .unwrap_or_else(|e| panic!("{streams} streams: {e}"));
        assert_eq!(reference.n_streams(), streams);
        assert_eq!(
            reference.stats().processed,
            streams * frames,
            "unbounded admission executes every batch"
        );
        let actions = reference.run().actions;
        let host_ns = median_of_5(|| {
            let t0 = Instant::now();
            let (out, _) = ElasticRunner::new(2, config).run(fleet(frames, 1));
            let ns = t0.elapsed().as_nanos() as f64;
            assert_eq!(out, reference, "{streams} streams diverged mid-measurement");
            ns
        });
        let decisions_per_sec = actions as f64 / (host_ns / 1e9);

        // The same rung under 4x overload with a fleet-wide admission
        // cap. The shed run carries 4 frames per stream (vs the ladder's
        // 2): a stream can then fall up to 3 batches behind, so the
        // aggregate backlog genuinely crosses the global capacity.
        let shed_frames = 4;
        let shed_config = ElasticConfig::live()
            .with_ring_capacity(4096)
            .with_admission(Admission::DropNewest {
                global_capacity: streams / 2,
            });
        let (shed, _) = check_identity(shed_config, [2], || fleet(shed_frames, 4))
            .unwrap_or_else(|e| panic!("shedding must be deterministic at {streams} streams: {e}"));
        let ledger = *shed.ledger();
        assert!(ledger.shed > 0, "4x overload must shed: {ledger:?}");
        assert_eq!(ledger.admitted + ledger.shed, ledger.arrived);
        assert_eq!(shed.stats().dropped, ledger.shed);
        let shed_rate = ledger.shed as f64 / ledger.arrived as f64;
        println!(
            "streams {streams}: host {host_ns:.0} ns (median of 5), \
             {decisions_per_sec:.0} decisions/sec, shed rate {:.3} under 4x overload",
            shed_rate
        );
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"streams\": {},\n",
                "      \"host_wall_ns\": {:.0},\n",
                "      \"decisions_per_sec\": {:.0},\n",
                "      \"overload_shed_rate\": {:.4},\n",
                "      \"overload_peak_backlog\": {}\n",
                "    }}"
            ),
            streams, host_ns, decisions_per_sec, shed_rate, ledger.peak_backlog,
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"speed-qm/bench-infer/v1\",\n",
            "  \"config\": \"InferExperiment: batch-coupled prefill/decode serving, tiny batches on the elastic ladder, small batches for the SLO run\",\n",
            "  \"note\": \"host numbers are machine-dependent medians of 5 (track deltas, not absolutes); results are byte-identical across execution paths by construction\",\n",
            "  \"streaming_matches_closed_loop\": true,\n",
            "  \"elastic_matches_serial_streaming_fold\": true,\n",
            "  \"slo\": {{\n",
            "    \"cycles\": {},\n",
            "    \"deadline_misses\": {},\n",
            "    \"avg_quality\": {:.3},\n",
            "    \"interactive_p99_worst_slack_ns\": {},\n",
            "    \"bulk_p999_worst_slack_ns\": {}\n",
            "  }},\n",
            "  \"scaling\": [\n{}\n  ]\n",
            "}}\n"
        ),
        run.cycles,
        run.misses,
        run.avg_quality(),
        interactive_worst,
        bulk_worst,
        entries.join(",\n"),
    );

    std::fs::write(&out_path, &json).expect("write infer bench json");
    println!("wrote {out_path}");
    print!("{json}");
}
