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
//! Results are byte-identical for every worker count — the example checks
//! that, then demonstrates deterministic global load shedding.
//!
//! ```text
//! cargo run --release --example elastic
//! ```

use speed_qm::audio::{AudioCodec, AudioConfig};
use speed_qm::core::compiler::compile_regions;
use speed_qm::core::elastic::{Admission, ElasticConfig, ElasticRunner, EngineDriver};
use speed_qm::core::engine::{Engine, NullSink};
use speed_qm::core::manager::LookupManager;
use speed_qm::core::time::Time;
use speed_qm::platform::overhead;
use speed_qm::source::{Bursty, Jittered, PatternSource, Periodic};

fn main() {
    // One symbolic compilation, shared read-only by every stream.
    let codec = AudioCodec::new(AudioConfig::tiny(1)).expect("feasible codec");
    let regions = compile_regions(codec.system());
    let period = codec.config().cycle_period;
    let frames = 4;
    let streams = 240;

    // Each listener gets a live arrival pattern and a seeded exec source;
    // `overload` compresses the inter-arrival period to oversubscribe.
    let build = |overload: i64| -> Vec<(PatternSource, _)> {
        let p = Time::from_ns(period.as_ns() / overload.max(1));
        (0..streams)
            .map(|i| {
                let source = match i % 3 {
                    0 => PatternSource::Periodic(Periodic::new(p, frames)),
                    1 => PatternSource::Jittered(Jittered::new(
                        p,
                        Time::from_ns(p.as_ns() / 5),
                        frames,
                        1_000 + i as u64,
                    )),
                    _ => PatternSource::Bursty(Bursty::new(p, 3, frames, 2_000 + i as u64)),
                };
                (
                    source,
                    EngineDriver::new(
                        Engine::new(
                            codec.system(),
                            LookupManager::new(&regions),
                            overhead::regions(),
                        ),
                        codec.exec(0.1, 3_000 + i as u64),
                        NullSink,
                    ),
                )
            })
            .collect()
    };

    // Size the pool to the host; this only changes wall-clock, never
    // output — the check below holds the scheduler to that.
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let config = ElasticConfig::live().with_ring_capacity(256);
    let (summary, _) = ElasticRunner::new(workers, config).run(build(1));
    let (reference, _) = ElasticRunner::new(1, config).run(build(1));
    assert_eq!(
        summary, reference,
        "byte-identical results for every worker count"
    );

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
    let (shed, _) = ElasticRunner::new(workers, shed_config).run(build(4));
    let (shed_ref, _) = ElasticRunner::new(1, shed_config).run(build(4));
    assert_eq!(shed, shed_ref, "shedding is deterministic too");
    let ledger = shed.ledger();
    println!(
        "overloaded 4x at global capacity 60: {} arrived, {} admitted, \
         {} shed, peak backlog {}",
        ledger.arrived, ledger.admitted, ledger.shed, ledger.peak_backlog,
    );
    assert!(ledger.shed > 0, "oversubscription must shed");
    assert_eq!(ledger.admitted + ledger.shed, ledger.arrived);
}
