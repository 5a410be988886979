//! The scheduled packet pipeline as a parameterized system.
//!
//! One cycle processes a **batch** of packets against a line-rate deadline:
//! at `R` Mbit/s with `B`-byte average packets, a batch of `P` packets must
//! leave the box within `P · (8000·B / R)` ns or the NIC queue grows
//! without bound. Each packet runs four atomic actions — parse/classify,
//! deep packet inspection, encrypt, compress-and-forward — whose cost grows
//! with the quality rung ([`crate::ladder`]): deeper DPI, stronger
//! ciphers, harder compression. That is exactly the paper's shape (per-item
//! quality/deadline trade-offs) in a third domain, mirroring the MPEG and
//! audio workloads' structure.

use crate::ladder::QualityLadder;
use crate::packet::{Packet, SyntheticTraffic};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_core::action::{ActionId, ActionInfo, DeadlineMap};
use sqm_core::controller::{ExecutionTimeSource, Memo};
use sqm_core::error::BuildError;
use sqm_core::quality::Quality;
use sqm_core::system::ParameterizedSystem;
use sqm_core::time::Time;
use sqm_core::timing::TimeTableBuilder;

/// Pipeline stage of a packet action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetStage {
    /// Header parse + flow classification (quality-independent).
    Parse,
    /// Deep packet inspection to the rung's depth.
    Dpi,
    /// Encryption at the rung's cipher strength.
    Crypto,
    /// Compression at the rung's effort level, then forward.
    Compress,
}

impl NetStage {
    /// Kind tag stored in [`ActionInfo::kind`].
    pub fn kind(self) -> u32 {
        match self {
            NetStage::Parse => 0,
            NetStage::Dpi => 1,
            NetStage::Crypto => 2,
            NetStage::Compress => 3,
        }
    }

    fn from_kind(kind: u32) -> NetStage {
        match kind {
            0 => NetStage::Parse,
            1 => NetStage::Dpi,
            2 => NetStage::Crypto,
            _ => NetStage::Compress,
        }
    }

    /// All four stages in pipeline order.
    pub const ALL: [NetStage; 4] = [
        NetStage::Parse,
        NetStage::Dpi,
        NetStage::Crypto,
        NetStage::Compress,
    ];

    /// Average execution time (ns) at a quality level — the calibrated
    /// per-stage cost table. Parse is flat; the three quality levers each
    /// drive one stage.
    pub fn av_ns(self, q: usize) -> i64 {
        let q = q as i64;
        match self {
            NetStage::Parse => 2_000,
            NetStage::Dpi => 1_500 + 2_500 * q,
            NetStage::Crypto => 2_000 + 3_000 * q,
            NetStage::Compress => 2_500 + 3_500 * q,
        }
    }

    /// Worst-case execution time (ns) at a quality level (an adversarial
    /// packet: maximum size, incompressible payload, cache-cold tables).
    pub fn wc_ns(self, q: usize) -> i64 {
        self.av_ns(q) * 2
    }
}

/// Pipeline configuration. The per-cycle deadline is *derived*, not
/// chosen: [`NetConfig::batch_period`] is the time a batch occupies the
/// wire at the configured line rate.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Packets per batch (one cycle = one batch).
    pub packets_per_batch: usize,
    /// Quality levels (ladder rungs).
    pub n_quality: usize,
    /// Line rate in Mbit/s — the deadline budget's source.
    pub line_rate_mbps: u64,
    /// Nominal average packet size in bytes.
    pub avg_packet_bytes: usize,
    /// Concurrent flows in the synthetic population.
    pub n_flows: usize,
    /// Traffic seed.
    pub seed: u64,
}

impl NetConfig {
    /// The CI-scale configuration: 64 packets per batch (256 actions),
    /// 5 quality levels, 400 Mbit/s of 1500-byte packets over 32 flows —
    /// sustainable in expectation at rung 2, infeasible at rung 4, ~45 %
    /// worst-case margin at rung 0. The same role `EncoderConfig::small`
    /// plays for MPEG.
    pub fn small(seed: u64) -> NetConfig {
        NetConfig {
            packets_per_batch: 64,
            n_quality: 5,
            line_rate_mbps: 400,
            avg_packet_bytes: 1_500,
            n_flows: 32,
            seed,
        }
    }

    /// A tiny configuration for tests: 8 packets per batch (32 actions),
    /// same per-packet budget as [`NetConfig::small`].
    pub fn tiny(seed: u64) -> NetConfig {
        NetConfig {
            packets_per_batch: 8,
            n_quality: 5,
            line_rate_mbps: 400,
            avg_packet_bytes: 1_500,
            n_flows: 8,
            seed,
        }
    }

    /// Time one average packet occupies the wire: `8000 · bytes / Mbps`
    /// ns — the per-packet deadline budget.
    pub fn packet_budget(&self) -> Time {
        Time::from_ns((self.avg_packet_bytes as i64 * 8_000) / self.line_rate_mbps.max(1) as i64)
    }

    /// The batch deadline (= cycle period): `packets_per_batch` packet
    /// budgets.
    pub fn batch_period(&self) -> Time {
        self.packet_budget()
            .saturating_mul(self.packets_per_batch as i64)
    }
}

/// The synthetic packet pipeline: traffic source + scheduled system +
/// quality ladder.
#[derive(Clone, Debug)]
pub struct NetPipeline {
    config: NetConfig,
    traffic: SyntheticTraffic,
    ladder: QualityLadder,
    system: ParameterizedSystem,
}

impl NetPipeline {
    /// Build the pipeline's action sequence and timing tables.
    pub fn new(config: NetConfig) -> Result<NetPipeline, BuildError> {
        let traffic = SyntheticTraffic::new(config.n_flows, config.avg_packet_bytes, config.seed);
        let ladder = QualityLadder::standard(config.n_quality);
        let nq = config.n_quality;
        let mut actions = Vec::with_capacity(4 * config.packets_per_batch);
        let mut table = TimeTableBuilder::new();
        for p in 0..config.packets_per_batch {
            for stage in NetStage::ALL {
                actions.push(ActionInfo::with_kind(
                    format!("pkt{p}.{}", stage.kind()),
                    stage.kind(),
                ));
                let wc: Vec<Time> = (0..nq).map(|q| Time::from_ns(stage.wc_ns(q))).collect();
                let av: Vec<Time> = (0..nq).map(|q| Time::from_ns(stage.av_ns(q))).collect();
                table.push_action(&wc, &av);
            }
        }
        let n = actions.len();
        let deadlines = DeadlineMap::single_global(n, config.batch_period());
        let system = ParameterizedSystem::new(actions, table.build()?, deadlines)?;
        Ok(NetPipeline {
            config,
            traffic,
            ladder,
            system,
        })
    }

    /// The scheduled parameterized system (`4 · packets_per_batch`
    /// actions).
    pub fn system(&self) -> &ParameterizedSystem {
        &self.system
    }

    /// The traffic source.
    pub fn traffic(&self) -> &SyntheticTraffic {
        &self.traffic
    }

    /// The quality ladder (crypto × compression × DPI per rung).
    pub fn ladder(&self) -> &QualityLadder {
        &self.ladder
    }

    /// The configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Pipeline stage of an action.
    pub fn stage(&self, action: ActionId) -> NetStage {
        NetStage::from_kind(self.system.action(action).kind)
    }

    /// The batch slot an action processes.
    pub fn packet_of(&self, action: ActionId) -> usize {
        action / 4
    }

    /// The packet an action processes in a given batch.
    pub fn packet(&self, batch: usize, action: ActionId) -> Packet {
        self.traffic.packet(batch, self.packet_of(action))
    }

    /// Execute the *real* kernel of one action at a quality level on
    /// synthesized payload bytes (used by the Criterion benches so the
    /// measured work is genuine). Returns a work token to keep the
    /// optimizer honest.
    pub fn run_action_kernel(&self, batch: usize, action: ActionId, q: Quality) -> u64 {
        let pkt = self.packet(batch, action);
        let rung = self.ladder.rung(q);
        match self.stage(action) {
            NetStage::Parse => kernels::parse(&pkt),
            NetStage::Dpi => kernels::dpi(&pkt, rung.dpi_depth),
            NetStage::Crypto => kernels::crypto(&pkt, rung.crypto.rounds()),
            NetStage::Compress => kernels::compress(&pkt, rung.compression),
        }
    }

    /// Estimated coded bits of one packet at a quality level (the rate
    /// metric: compression converts effort into output size).
    pub fn packet_bits(&self, batch: usize, slot: usize, q: Quality) -> usize {
        let pkt = self.traffic.packet(batch, slot);
        let rung = self.ladder.rung(q);
        kernels::compress(&pkt, rung.compression) as usize
    }

    /// Content-driven execution-time source.
    pub fn exec(&self, jitter: f64, seed: u64) -> NetExec<'_> {
        NetExec {
            net: self,
            rng: StdRng::seed_from_u64(seed),
            jitter,
            packet: Memo::new(),
        }
    }

    /// Stage-specific complexity of a packet relative to the calibration
    /// average: parse/DPI/crypto scale with size (and protocol for
    /// parse), compression additionally with payload entropy (hard-to-
    /// compress payloads make the entropy coder work).
    fn complexity(&self, stage: NetStage, pkt: &Packet) -> f64 {
        let size = pkt.bytes as f64 / self.config.avg_packet_bytes as f64;
        let c = match stage {
            NetStage::Parse => 0.7 + 0.3 * size * pkt.proto.parse_weight() / 1.15,
            NetStage::Dpi => 0.5 + 0.5 * size,
            NetStage::Crypto => 0.4 + 0.6 * size,
            NetStage::Compress => (0.35 + 0.65 * size) * (0.7 + 0.6 * pkt.entropy),
        };
        c.clamp(0.3, 2.0)
    }
}

/// Execution-time source for a [`NetPipeline`]: actual times are the stage
/// averages scaled by the packet's content complexity (size, protocol,
/// entropy) and ±`jitter` sampling noise, clamped to the worst case.
///
/// A packet is a pure function of `(cycle, packet)` ([`SyntheticTraffic`]
/// is stateless), and its four actions run back to back. The source
/// derives the packet and its four stage complexities once, in a [`Memo`]
/// keyed on `(cycle, packet)`: any query order, revisits of earlier
/// cycles included, reads what a fresh derivation would, and only the
/// jitter's one RNG draw per call depends on the call sequence.
pub struct NetExec<'a> {
    net: &'a NetPipeline,
    rng: StdRng,
    jitter: f64,
    /// A packet's per-stage complexities, keyed on `(cycle, packet)`.
    packet: Memo<(usize, usize), [f64; 4]>,
}

impl ExecutionTimeSource for NetExec<'_> {
    fn actual(&mut self, cycle: usize, action: ActionId, q: Quality) -> Time {
        let net = self.net;
        let complexities = self.packet.get((cycle, net.packet_of(action)), || {
            let pkt = net.packet(cycle, action);
            NetStage::ALL.map(|stage| net.complexity(stage, &pkt))
        });
        let av = net.system.table().av(action, q).as_ns() as f64;
        let wc = net.system.table().wc(action, q);
        let complexity = complexities[net.stage(action).kind() as usize];
        let jitter = 1.0 + self.rng.gen_range(-self.jitter..=self.jitter);
        let ns = (av * complexity * jitter).round() as i64;
        Time::from_ns(ns.max(0)).min(wc)
    }
}

/// The real per-stage kernels, deterministic in the packet's payload seed.
mod kernels {
    use crate::packet::Packet;

    /// Next word of the synthesized payload stream (xorshift64*).
    #[inline]
    fn next_word(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Header parse + flow classify: checksum the (synthesized) header
    /// words and fold in the 5-tuple hash.
    pub fn parse(pkt: &Packet) -> u64 {
        let mut state = pkt.payload_seed | 1;
        let mut sum = pkt.flow as u64;
        for _ in 0..16 {
            sum = sum.rotate_left(5) ^ next_word(&mut state);
        }
        sum ^ pkt.bytes as u64
    }

    /// Deep packet inspection: scan up to `depth` payload bytes for a
    /// small signature set, counting matches.
    pub fn dpi(pkt: &Packet, depth: usize) -> u64 {
        const SIGNATURES: [u8; 4] = [0x4d, 0x5a, 0x7f, 0x25];
        let scan = depth.min(pkt.bytes);
        let mut state = pkt.payload_seed | 1;
        let mut hits = 0u64;
        let mut i = 0;
        while i < scan {
            let word = next_word(&mut state);
            for b in word.to_le_bytes() {
                if SIGNATURES.contains(&b) {
                    hits += 1;
                }
            }
            i += 8;
        }
        hits
    }

    /// Encrypt: ARX-mix every payload word for `rounds` rounds and return
    /// the running MAC.
    pub fn crypto(pkt: &Packet, rounds: usize) -> u64 {
        let words = pkt.bytes.div_ceil(8);
        let mut state = pkt.payload_seed | 1;
        let mut mac = 0x6a09_e667_f3bc_c908u64;
        for _ in 0..words.min(256) {
            let mut w = next_word(&mut state);
            for r in 0..rounds {
                w = w.wrapping_add(mac).rotate_left((r as u32 % 63) + 1) ^ state;
            }
            mac ^= w;
        }
        mac
    }

    /// Compression estimate: byte-histogram entropy over a window that
    /// grows with the effort level; returns estimated output bits
    /// (incompressible payloads estimate near the input size).
    pub fn compress(pkt: &Packet, level: u8) -> u64 {
        if level == 0 {
            // Store: output = input.
            return (pkt.bytes * 8) as u64;
        }
        let window = (64 << (level as usize).min(6)).min(pkt.bytes);
        let mut state = pkt.payload_seed | 1;
        let mut hist = [0u32; 256];
        let mut i = 0;
        while i < window {
            for b in next_word(&mut state).to_le_bytes() {
                // Skew the synthetic byte distribution by the packet's
                // entropy: low-entropy payloads concentrate on few values.
                let skew = (255.0 * pkt.entropy) as u32;
                hist[(u32::from(b) * skew / 255) as usize] += 1;
            }
            i += 8;
        }
        let total = hist.iter().sum::<u32>() as f64;
        let mut bits_per_byte = 0.0;
        for &h in &hist {
            if h > 0 {
                let p = f64::from(h) / total;
                bits_per_byte -= p * p.log2();
            }
        }
        // Higher effort shaves a few percent more, never below entropy.
        let effort = 1.0 - 0.02 * f64::from(level.min(9));
        ((pkt.bytes as f64 * bits_per_byte * effort).max(64.0)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sqm_core::controller::OverheadModel;
    use sqm_core::engine::{Engine, NullSink};
    use sqm_core::manager::NumericManager;
    use sqm_core::policy::MixedPolicy;

    #[test]
    fn small_config_shape_and_budget() {
        let net = NetPipeline::new(NetConfig::small(1)).unwrap();
        assert_eq!(net.system().n_actions(), 4 * 64);
        assert_eq!(net.system().qualities().len(), 5);
        // 1500 B at 400 Mbit/s = 30 µs per packet.
        assert_eq!(net.config().packet_budget(), Time::from_us(30));
        assert_eq!(net.config().batch_period(), Time::from_us(64 * 30));
        // Sustainable in expectation at rung 2, infeasible at rung 4.
        let sys = net.system();
        assert!(sys.prefix().av_total(Quality::new(2)) <= net.config().batch_period());
        assert!(sys.prefix().av_total(Quality::new(4)) > net.config().batch_period());
        // Worst-case feasibility margin at rung 0 is comfortable (~45 %).
        let slack = sys.min_quality_slack().as_ns() as f64;
        let period = net.config().batch_period().as_ns() as f64;
        assert!(slack / period > 0.3, "qmin slack {slack}");
    }

    #[test]
    fn action_layout_and_stages() {
        let net = NetPipeline::new(NetConfig::tiny(1)).unwrap();
        assert_eq!(net.stage(0), NetStage::Parse);
        assert_eq!(net.stage(1), NetStage::Dpi);
        assert_eq!(net.stage(2), NetStage::Crypto);
        assert_eq!(net.stage(3), NetStage::Compress);
        assert_eq!(net.packet_of(0), 0);
        assert_eq!(net.packet_of(7), 1);
        assert_eq!(net.system().action(4).name, "pkt1.0");
    }

    #[test]
    fn exec_respects_contract_and_is_deterministic() {
        let net = NetPipeline::new(NetConfig::tiny(3)).unwrap();
        let sample = |seed: u64| -> Vec<i64> {
            let mut e = net.exec(0.1, seed);
            (0..net.system().n_actions())
                .map(|a| e.actual(0, a, Quality::new(3)).as_ns())
                .collect()
        };
        let a = sample(9);
        assert_eq!(a, sample(9));
        assert_ne!(a, sample(10));
        for (action, &ns) in a.iter().enumerate() {
            let wc = net.system().table().wc(action, Quality::new(3)).as_ns();
            assert!(ns >= 0 && ns <= wc, "action {action}: {ns} > wc {wc}");
        }
    }

    #[test]
    fn stage_timing_tables_are_monotone() {
        for stage in NetStage::ALL {
            for q in 1..5 {
                assert!(stage.av_ns(q) >= stage.av_ns(q - 1));
                assert!(stage.wc_ns(q) >= stage.wc_ns(q - 1));
                assert!(stage.wc_ns(q) >= stage.av_ns(q));
            }
        }
    }

    #[test]
    fn controlled_batch_is_safe_and_uses_budget() {
        let net = NetPipeline::new(NetConfig::small(3)).unwrap();
        let sys = net.system();
        let policy = MixedPolicy::new(sys);
        let mut engine = Engine::new(sys, NumericManager::new(sys, &policy), OverheadModel::ZERO);
        let mut exec = net.exec(0.15, 7);
        let summary = engine.run_cycle(0, Time::ZERO, &mut exec, &mut NullSink);
        assert_eq!(summary.misses, 0);
        assert!(
            summary.avg_quality() > 1.0,
            "line-rate budget converted into quality, got {}",
            summary.avg_quality()
        );
    }

    #[test]
    fn kernels_run_for_every_stage_and_are_stable() {
        let net = NetPipeline::new(NetConfig::tiny(5)).unwrap();
        for action in 0..4 {
            let token = net.run_action_kernel(1, action, Quality::new(3));
            assert_eq!(token, net.run_action_kernel(1, action, Quality::new(3)));
        }
    }

    #[test]
    fn dpi_work_grows_with_depth_and_compression_with_effort() {
        let net = NetPipeline::new(NetConfig::tiny(5)).unwrap();
        let pkt = net.packet(0, 4);
        // Deeper inspection never sees fewer signature hits.
        let shallow = super::kernels::dpi(&pkt, 64);
        let deep = super::kernels::dpi(&pkt, 2_048);
        assert!(deep >= shallow, "dpi hits monotone: {shallow} vs {deep}");
        // More compression effort never grows the estimate; store = input.
        let store = super::kernels::compress(&pkt, 0);
        assert_eq!(store, (pkt.bytes * 8) as u64);
        let low = super::kernels::compress(&pkt, 1);
        let high = super::kernels::compress(&pkt, 9);
        assert!(high <= low, "compression estimate monotone in effort");
        assert!(low <= store);
    }

    /// The rate metric through the public surface: climbing the ladder
    /// spends more effort, so the coded-bits estimate of a packet never
    /// grows with quality (rung 0 stores, the top rung compresses
    /// hardest).
    #[test]
    fn packet_bits_shrink_as_the_ladder_climbs() {
        let net = NetPipeline::new(NetConfig::tiny(5)).unwrap();
        let slot = 2;
        let stored = net.packet_bits(0, slot, Quality::new(0));
        assert_eq!(stored, net.traffic().packet(0, slot).bytes * 8);
        let mid = net.packet_bits(0, slot, Quality::new(2));
        let top = net.packet_bits(0, slot, Quality::new(4));
        assert!(mid <= stored, "rate monotone: {mid} > {stored}");
        assert!(top <= mid, "rate monotone: {top} > {mid}");
        assert!(top > 0);
    }

    /// Query sequences of the kind a replay may issue: runs of actions in
    /// any cycle (earlier cycles revisited), entered at any action or
    /// where the previous run stopped, each step repeating (0), advancing
    /// (1) or skipping ahead (2, 3).
    fn query_runs(
        n_actions: usize,
        n_quality: u8,
    ) -> impl Strategy<Value = Vec<(usize, ActionId, Quality)>> {
        let run = (
            0usize..12,
            proptest::option::of(0..n_actions),
            proptest::collection::vec((0usize..4, 0..n_quality), 1..2 * n_actions),
        );
        proptest::collection::vec(run, 1..8).prop_map(move |runs| {
            let mut out = Vec::new();
            let mut last = 0;
            for (cycle, start, steps) in runs {
                let mut action = start.unwrap_or(last);
                for (step, q) in steps {
                    if action >= n_actions {
                        break;
                    }
                    out.push((cycle, action, Quality::new(q)));
                    last = action;
                    action += step;
                }
            }
            out
        })
    }

    /// What `NetExec::actual` returns, derived without memos: the packet
    /// comes afresh from `SyntheticTraffic::packet` on every query.
    fn fresh_actual(
        net: &NetPipeline,
        rng: &mut StdRng,
        jitter: f64,
        (cycle, action, q): (usize, ActionId, Quality),
    ) -> Time {
        let pkt = net.traffic().packet(cycle, net.packet_of(action));
        let av = net.system().table().av(action, q).as_ns() as f64;
        let wc = net.system().table().wc(action, q);
        let complexity = net.complexity(net.stage(action), &pkt);
        let jitter = 1.0 + rng.gen_range(-jitter..=jitter);
        let ns = (av * complexity * jitter).round() as i64;
        Time::from_ns(ns.max(0)).min(wc)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The per-packet memo is invisible: every query of any sequence
        /// returns exactly what a fresh derivation with an identically
        /// seeded RNG returns.
        #[test]
        fn memoized_exec_matches_fresh_derivation(
            queries in query_runs(32, 5),
            seed in any::<u64>(),
        ) {
            let net = NetPipeline::new(NetConfig::tiny(5)).unwrap();
            prop_assert_eq!(net.system().n_actions(), 32);
            let mut exec = net.exec(0.1, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            for (i, &(cycle, action, q)) in queries.iter().enumerate() {
                let query = (cycle, action, q);
                let fresh = fresh_actual(&net, &mut rng, 0.1, query);
                prop_assert_eq!(exec.actual(cycle, action, q), fresh, "query {}: {:?}", i, query);
            }
        }
    }
}
