//! Elastic per-cycle scheduling: hundreds of *live* audio streams —
//! different listeners, different arrival patterns, different seeds —
//! interleaved cycle-by-cycle onto a small worker pool, with fleet-wide
//! admission control when the offered load exceeds capacity.
//!
//! This is the workspace's one multi-stream runner. The scheduler orders
//! every stream's next cycle by virtual arrival time in one monotone
//! arrival queue and hands rounds of ready cycles to the workers. A fleet
//! of closed loops is the special case of `Periodic` sources under
//! `Admission::Unbounded`.
//! Results are byte-identical for every worker count, and under unbounded
//! admission equal to running each stream alone — the example checks both
//! with `sqm_bench::elastic::check_identity`, then demonstrates
//! deterministic global load shedding.
//!
//! ```text
//! cargo run --release --example elastic
//! ```

use speed_qm::core::elastic::{Admission, ElasticConfig};
use sqm_bench::elastic::{check_identity, mixed_fleet};
use sqm_bench::AudioExperiment;

fn main() {
    // One symbolic compilation, shared read-only by every stream.
    let audio = AudioExperiment::tiny(1);
    let frames = 4;
    let streams = 240;
    // The workload's periodic / jittered / bursty listeners, stream `i`
    // fed by the execution-time source seeded `3_000 + i`; `overload`
    // compresses the inter-arrival period to oversubscribe.
    let fleet = |overload: i64| mixed_fleet(&audio, streams, frames, overload, 3_000);

    // Size the pool to the host; this only changes wall-clock, never
    // output — the identity check holds the scheduler to that.
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let config = ElasticConfig::live().with_ring_capacity(256);
    let (summary, _) = check_identity(config, [workers], || fleet(1))
        .expect("byte-identical results for every worker count and the serial fold");

    println!("stream  arrived  processed  avg_q  max_wait    makespan");
    for (i, s) in summary.per_stream().iter().take(6).enumerate() {
        println!(
            "  {:4}  {:7}  {:9}  {:5.2}  {:>8}  {:>10}",
            i,
            s.stats.arrived,
            s.stats.processed,
            s.run.avg_quality(),
            format!("{}", s.stats.max_wait),
            format!("{}", s.stats.makespan),
        );
    }
    let ledger = summary.ledger();
    println!(
        "\nelastic: {} streams on {} workers, {} cycles in {} rounds, \
         avg quality {:.2}, {} misses, peak backlog {}",
        summary.n_streams(),
        workers,
        summary.run().cycles,
        ledger.rounds,
        summary.run().avg_quality(),
        summary.run().misses,
        ledger.peak_backlog,
    );

    // Oversubscribe 4x against a global backlog budget: shedding is a
    // fleet-wide decision, taken identically at every worker count.
    let shed_config = config.with_admission(Admission::DropNewest {
        global_capacity: 60,
    });
    let (shed, _) =
        check_identity(shed_config, [workers], || fleet(4)).expect("shedding is deterministic too");
    let ledger = shed.ledger();
    println!(
        "overloaded 4x at global capacity 60: {} arrived, {} admitted, \
         {} shed, peak backlog {}",
        ledger.arrived, ledger.admitted, ledger.shed, ledger.peak_backlog,
    );
    assert!(ledger.shed > 0, "oversubscription must shed");
    assert_eq!(ledger.admitted + ledger.shed, ledger.arrived);
}
