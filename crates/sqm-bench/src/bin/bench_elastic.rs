//! Emit `BENCH_elastic.json` — the many-live-streams point of the
//! workspace's performance trajectory.
//!
//! This measures `sqm_core::elastic`, the workspace's one multi-stream
//! runner, interleaving **100,000 tiny live streams** per cycle: a monotone arrival queue and a start-event heap, a
//! fixed-capacity ready ring that the workers run while it is still being
//! filled, and fleet-wide admission. Reported per worker count (1/2/4/8): host wall-clock
//! (median of 5), streams/sec and ns/action, and the minor page faults
//! per run (median of the same 5 runs, population build included; read
//! from field 10 of `/proc/self/stat` on Linux, `null` elsewhere), plus
//! the host's core count — machine-dependent numbers (track deltas, not
//! absolutes; with more workers than cores the extra ones only add
//! scheduling overhead).
//!
//! Correctness gates run before anything is published, and a failed gate
//! aborts without writing the artifact:
//!
//! * every measured worker count must produce a summary **byte-identical**
//!   to the 1-worker run;
//! * the 1-worker run under unbounded admission must match the serial
//!   `StreamingRunner` + `Block` per-stream fold byte-for-byte,
//!   `max_backlog` included;
//! * the overloaded scenario must actually shed, with balanced ledger
//!   books, identically at every worker count.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin bench_elastic [out.json]
//! ```

use std::time::Instant;

use sqm_bench::elastic::{check_identity, mixed_fleet};
use sqm_bench::report::{median, median_of_5};
use sqm_bench::ElasticExperiment;
use sqm_core::elastic::{Admission, ElasticConfig, ElasticRunner};

/// Minor page faults of this process (every thread, live or exited) so
/// far: field 10 of `/proc/self/stat` on Linux, `None` elsewhere.
fn minor_faults() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 3 follows the parenthesised command name, which may hold spaces.
    let fields = &stat[stat.rfind(')')? + 1..];
    fields.split_whitespace().nth(7)?.parse().ok()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_elastic.json".to_string());

    let streams = 100_000;
    let frames = 3;
    let exp = ElasticExperiment::micro(streams, frames);
    let config = ElasticConfig::live().with_ring_capacity(4096);
    let worker_counts = [1usize, 2, 4, 8];
    // Stream i runs exec seed i, at the nominal rate (overload factor 1).
    let fleet = || mixed_fleet(&exp, streams, frames, 1, 0);

    // Correctness gates, on the full population: every measured worker
    // count against the 1-worker run, and that against the serial fold.
    let (reference, _) = check_identity(config, worker_counts, fleet)
        .unwrap_or_else(|e| panic!("determinism contract broken: {e}"));
    assert_eq!(reference.n_streams(), streams);
    assert_eq!(
        reference.stats().processed,
        exp.total_frames(),
        "unbounded admission executes every frame"
    );
    println!(
        "identity check: elastic(1..8 workers) == elastic(1 worker) == serial streaming fold ✓"
    );

    let actions = reference.run().actions;
    let mut entries = Vec::new();
    for workers in worker_counts {
        let mut faults = Vec::new();
        let host_ns = median_of_5(|| {
            let faults_before = minor_faults();
            let t0 = Instant::now();
            let (out, _) = ElasticRunner::new(workers, config).run(fleet());
            let ns = t0.elapsed().as_nanos() as f64;
            faults.push(
                minor_faults()
                    .zip(faults_before)
                    .map(|(after, before)| after - before),
            );
            assert_eq!(
                out, reference,
                "workers = {workers} diverged mid-measurement"
            );
            ns
        });
        let faults = faults.into_iter().collect::<Option<Vec<u64>>>().map(median);
        let streams_per_sec = streams as f64 / (host_ns / 1e9);
        let ns_per_action = host_ns / actions as f64;
        let faults = faults.map_or_else(|| "null".to_string(), |f| f.to_string());
        println!(
            "workers {workers}: host {host_ns:.0} ns (median of 5), \
             {streams_per_sec:.0} streams/sec, {ns_per_action:.1} ns/action, \
             {faults} minor faults/run",
        );
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"workers\": {},\n",
                "      \"host_wall_ns\": {:.0},\n",
                "      \"streams_per_sec\": {:.0},\n",
                "      \"ns_per_action\": {:.2},\n",
                "      \"minor_faults_per_run\": {}\n",
                "    }}"
            ),
            workers, host_ns, streams_per_sec, ns_per_action, faults,
        ));
    }

    // The overloaded scenario: 4x arrival pressure against a global
    // capacity — shedding must happen, balance, and stay deterministic.
    let shed_exp = ElasticExperiment::micro(10_000, frames);
    let shed_config = ElasticConfig::live()
        .with_ring_capacity(1024)
        .with_admission(Admission::DropNewest {
            global_capacity: 2_000,
        });
    let (shed, _) = check_identity(shed_config, [4], || {
        mixed_fleet(&shed_exp, shed_exp.streams(), frames, 4, 0)
    })
    .unwrap_or_else(|e| panic!("shedding must be deterministic: {e}"));
    let ledger = *shed.ledger();
    assert!(ledger.shed > 0, "4x overload must shed: {ledger:?}");
    assert_eq!(ledger.admitted + ledger.shed, ledger.arrived);
    assert_eq!(shed.stats().dropped, ledger.shed);
    println!(
        "shed check: {} of {} arrivals shed at global capacity 2000, \
         peak backlog {}, identical at 4 workers ✓",
        ledger.shed, ledger.arrived, ledger.peak_backlog
    );

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"speed-qm/bench-elastic/v1\",\n",
            "  \"config\": \"ElasticExperiment::micro({}, {}): {} live micro streams x {} frames, ring 4096, unbounded admission\",\n",
            "  \"note\": \"host numbers are machine-dependent medians of 5 (track deltas, not absolutes); minor_faults_per_run counts the process's minor page faults over one timed run, population build included (null off Linux); results are byte-identical across worker counts by construction\",\n",
            "  \"nproc\": {},\n",
            "  \"workers_byte_identical_to_one_worker\": true,\n",
            "  \"one_worker_matches_serial_streaming_fold\": true,\n",
            "  \"aggregate\": {{\n",
            "    \"streams\": {},\n",
            "    \"frames\": {},\n",
            "    \"cycles\": {},\n",
            "    \"actions\": {},\n",
            "    \"deadline_misses\": {},\n",
            "    \"scheduler_rounds\": {}\n",
            "  }},\n",
            "  \"scaling\": [\n{}\n  ],\n",
            "  \"shed_scenario\": {{\n",
            "    \"streams\": {},\n",
            "    \"global_capacity\": 2000,\n",
            "    \"overload_factor\": 4,\n",
            "    \"arrived\": {},\n",
            "    \"admitted\": {},\n",
            "    \"shed\": {},\n",
            "    \"peak_backlog\": {},\n",
            "    \"deterministic_across_workers\": true\n",
            "  }}\n",
            "}}\n"
        ),
        streams,
        frames,
        streams,
        frames,
        nproc,
        reference.n_streams(),
        exp.total_frames(),
        reference.run().cycles,
        actions,
        reference.run().misses,
        reference.ledger().rounds,
        entries.join(",\n"),
        shed_exp.streams(),
        ledger.arrived,
        ledger.admitted,
        ledger.shed,
        ledger.peak_backlog,
    );

    std::fs::write(&out_path, &json).expect("write elastic bench json");
    println!("wrote {out_path}");
    print!("{json}");
}
