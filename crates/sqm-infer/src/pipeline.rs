//! The inference batch as a parameterized system, with a batch-coupled
//! execution-time source.
//!
//! One cycle serves a **batch** of requests through two atomic actions
//! each — **prefill** (process the prompt, admit the request into the
//! continuous batch) and **decode** (generate the answer tokens). The
//! twist the other workloads do not have: decode cost is *coupled* across
//! the batch. Every admitted request shares the accelerator's per-step
//! kernels, so a decode's per-token time scales with the **mean admitted
//! batch depth** at the moment it runs ([`coupling_factor`]), not with the
//! request's own rung alone. [`BatchCoupledExec`] carries that shared
//! [`BatchState`] through the cycle: each prefill admits its rung's depth,
//! each decode observes the mean admitted so far — later decodes see a
//! fuller batch, which is exactly continuous batching's behaviour.
//!
//! Deadlines are SLO classes, not a single frame deadline: interactive
//! slots must finish within the p99 budget, bulk slots within twice that
//! (their p999 ladder). Each slot's cumulative budget lands on its decode
//! action through [`sqm_core::action::DeadlineMap`], so the manager
//! downgrades exactly the requests whose SLO is at risk.

use crate::ladder::{InferLadder, InferRung};
use crate::request::{Request, SyntheticRequests, TenantBias};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_core::action::{ActionId, ActionInfo, DeadlineMap};
use sqm_core::controller::{ExecutionTimeSource, Memo};
use sqm_core::error::BuildError;
use sqm_core::quality::Quality;
use sqm_core::system::ParameterizedSystem;
use sqm_core::time::Time;
use sqm_core::timing::TimeTableBuilder;

/// Calibrated average prefill cost per prompt token, in nanoseconds, for
/// the distilled/int4 reference rung.
pub const PREFILL_NS_PER_TOKEN: f64 = 400.0;

/// Calibrated average decode cost per generated token, in nanoseconds,
/// for the distilled/int4 reference rung decoding alone.
pub const DECODE_NS_PER_TOKEN: f64 = 3_000.0;

/// Marginal per-token decode cost of each extra co-batched request.
pub const COUPLING_PER_REQUEST: f64 = 0.15;

/// Decode cost multiplier of a continuous batch `depth` requests deep
/// (`1.0` for a request decoding alone; linear in the extra occupants).
///
/// # Examples
///
/// ```
/// use sqm_infer::pipeline::coupling_factor;
/// assert_eq!(coupling_factor(1.0), 1.0);
/// assert!(coupling_factor(8.0) > coupling_factor(3.0));
/// ```
pub fn coupling_factor(depth: f64) -> f64 {
    1.0 + COUPLING_PER_REQUEST * (depth - 1.0).max(0.0)
}

/// Serving phase of a request action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InferPhase {
    /// Prompt processing; admits the request into the continuous batch.
    Prefill,
    /// Token generation against the co-batched load.
    Decode,
}

impl InferPhase {
    /// Kind tag stored in [`ActionInfo::kind`].
    pub fn kind(self) -> u32 {
        match self {
            InferPhase::Prefill => 0,
            InferPhase::Decode => 1,
        }
    }

    fn from_kind(kind: u32) -> InferPhase {
        match kind {
            0 => InferPhase::Prefill,
            _ => InferPhase::Decode,
        }
    }

    /// Display label (also the action-name suffix).
    pub fn label(self) -> &'static str {
        match self {
            InferPhase::Prefill => "prefill",
            InferPhase::Decode => "decode",
        }
    }

    /// Both phases in execution order.
    pub const ALL: [InferPhase; 2] = [InferPhase::Prefill, InferPhase::Decode];
}

/// The latency class a batch slot serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloClass {
    /// Chat-style traffic against the tight p99 budget.
    Interactive,
    /// Batch/background traffic against the looser p999 budget.
    Bulk,
}

impl SloClass {
    /// The tail percentile this class's SLO is written against.
    pub fn percentile(self) -> &'static str {
        match self {
            SloClass::Interactive => "p99",
            SloClass::Bulk => "p999",
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Bulk => "bulk",
        }
    }
}

/// Serving configuration. The per-cycle deadline structure is *derived*:
/// each slot contributes its SLO budget, and the cumulative budget lands
/// on the slot's decode action as a deadline class.
#[derive(Clone, Copy, Debug)]
pub struct InferConfig {
    /// Requests per batch (one cycle = one admission round).
    pub requests_per_batch: usize,
    /// Quality levels (ladder rungs).
    pub n_quality: usize,
    /// Nominal prompt length in tokens.
    pub prompt_tokens: u32,
    /// Answer length in tokens per request.
    pub decode_tokens: u32,
    /// The interactive (p99) completion budget per slot; bulk slots get
    /// twice this.
    pub interactive_slo: Time,
    /// Tenants in the synthetic population.
    pub n_tenants: u32,
    /// Request-population seed.
    pub seed: u64,
}

impl InferConfig {
    /// The CI-scale configuration: 16 requests per batch (32 actions),
    /// 5 quality levels, 128-token prompts, 16 decode tokens, a 300 µs
    /// interactive SLO over 16 tenants — sustainable in expectation at
    /// rung 2, infeasible at rung 3, ~3 % worst-case margin at rung 0.
    pub fn small(seed: u64) -> InferConfig {
        InferConfig {
            requests_per_batch: 16,
            n_quality: 5,
            prompt_tokens: 128,
            decode_tokens: 16,
            interactive_slo: Time::from_us(300),
            n_tenants: 16,
            seed,
        }
    }

    /// A tiny configuration for tests: 4 requests per batch (8 actions),
    /// same per-slot budgets as [`InferConfig::small`].
    pub fn tiny(seed: u64) -> InferConfig {
        InferConfig {
            requests_per_batch: 4,
            n_quality: 5,
            prompt_tokens: 128,
            decode_tokens: 16,
            interactive_slo: Time::from_us(300),
            n_tenants: 4,
            seed,
        }
    }

    /// The SLO class of a batch slot: every fourth slot carries bulk
    /// traffic, the rest are interactive.
    pub fn slo_class(&self, slot: usize) -> SloClass {
        if slot % 4 == 3 {
            SloClass::Bulk
        } else {
            SloClass::Interactive
        }
    }

    /// The completion budget one slot contributes to the cycle.
    pub fn slot_budget(&self, slot: usize) -> Time {
        match self.slo_class(slot) {
            SloClass::Interactive => self.interactive_slo,
            SloClass::Bulk => self.interactive_slo.saturating_mul(2),
        }
    }

    /// The batch period (= cycle deadline): the sum of all slot budgets.
    pub fn batch_period(&self) -> Time {
        (0..self.requests_per_batch)
            .map(|s| self.slot_budget(s))
            .sum()
    }

    /// Calibrated average execution time (ns) of one phase at a rung.
    /// Prefill scales with prompt length and the model × quantization
    /// weight; decode additionally carries the rung's *expected* coupling
    /// at its own admission depth.
    pub fn phase_av_ns(&self, phase: InferPhase, rung: InferRung) -> i64 {
        let w = rung.cost_weight();
        let ns = match phase {
            InferPhase::Prefill => f64::from(self.prompt_tokens) * PREFILL_NS_PER_TOKEN * w,
            InferPhase::Decode => {
                f64::from(self.decode_tokens)
                    * DECODE_NS_PER_TOKEN
                    * w
                    * coupling_factor(rung.batch_depth as f64)
            }
        };
        ns.round() as i64
    }

    /// Worst-case execution time (ns) of one phase at a rung (an
    /// adversarial request: maximum prompt, cache-cold prefix, the whole
    /// batch admitted at full depth).
    pub fn phase_wc_ns(&self, phase: InferPhase, rung: InferRung) -> i64 {
        self.phase_av_ns(phase, rung) * 2
    }
}

/// The synthetic serving batch: request population + scheduled system +
/// quality ladder.
#[derive(Clone, Debug)]
pub struct InferPipeline {
    config: InferConfig,
    requests: SyntheticRequests,
    /// Every tenant's biases, derived once ([`SyntheticRequests::bias_table`]).
    biases: Vec<TenantBias>,
    ladder: InferLadder,
    system: ParameterizedSystem,
}

impl InferPipeline {
    /// Build the batch's action sequence, timing tables, and SLO deadline
    /// classes.
    ///
    /// # Examples
    ///
    /// ```
    /// use sqm_infer::pipeline::{InferConfig, InferPipeline};
    ///
    /// let infer = InferPipeline::new(InferConfig::tiny(1)).unwrap();
    /// // Two actions per request: prefill then decode.
    /// assert_eq!(infer.system().n_actions(), 8);
    /// // Every slot's decode carries its cumulative SLO budget.
    /// assert_eq!(infer.system().deadlines().constrained_count(), 4);
    /// ```
    pub fn new(config: InferConfig) -> Result<InferPipeline, BuildError> {
        let requests = SyntheticRequests::new(config.n_tenants, config.prompt_tokens, config.seed);
        let ladder = InferLadder::standard(config.n_quality);
        let mut actions = Vec::with_capacity(2 * config.requests_per_batch);
        let mut table = TimeTableBuilder::new();
        for r in 0..config.requests_per_batch {
            for phase in InferPhase::ALL {
                actions.push(ActionInfo::with_kind(
                    format!("req{r}.{}", phase.label()),
                    phase.kind(),
                ));
                let wc: Vec<Time> = ladder
                    .rungs()
                    .iter()
                    .map(|&rung| Time::from_ns(config.phase_wc_ns(phase, rung)))
                    .collect();
                let av: Vec<Time> = ladder
                    .rungs()
                    .iter()
                    .map(|&rung| Time::from_ns(config.phase_av_ns(phase, rung)))
                    .collect();
                table.push_action(&wc, &av);
            }
        }
        let n = actions.len();
        let mut deadlines = DeadlineMap::new(n);
        let mut budget = Time::ZERO;
        for r in 0..config.requests_per_batch {
            budget += config.slot_budget(r);
            deadlines.set(2 * r + 1, budget);
        }
        let system = ParameterizedSystem::new(actions, table.build()?, deadlines)?;
        Ok(InferPipeline {
            config,
            requests,
            biases: requests.bias_table(),
            ladder,
            system,
        })
    }

    /// The scheduled parameterized system (`2 · requests_per_batch`
    /// actions).
    pub fn system(&self) -> &ParameterizedSystem {
        &self.system
    }

    /// The request population.
    pub fn requests(&self) -> &SyntheticRequests {
        &self.requests
    }

    /// The quality ladder (model × quantization × admission depth).
    pub fn ladder(&self) -> &InferLadder {
        &self.ladder
    }

    /// The configuration.
    pub fn config(&self) -> &InferConfig {
        &self.config
    }

    /// Serving phase of an action.
    pub fn phase(&self, action: ActionId) -> InferPhase {
        InferPhase::from_kind(self.system.action(action).kind)
    }

    /// The batch slot an action serves.
    pub fn slot_of(&self, action: ActionId) -> usize {
        action / 2
    }

    /// The SLO class of the slot an action serves.
    pub fn slo_of(&self, action: ActionId) -> SloClass {
        self.config.slo_class(self.slot_of(action))
    }

    /// The request an action serves in a given cycle.
    pub fn request(&self, cycle: usize, action: ActionId) -> Request {
        self.requests.request(cycle as u64, self.slot_of(action))
    }

    /// Batch-coupled execution-time source.
    pub fn exec(&self, jitter: f64, seed: u64) -> BatchCoupledExec<'_> {
        BatchCoupledExec {
            infer: self,
            rng: StdRng::seed_from_u64(seed),
            jitter,
            batch: BatchState::default(),
            shift: Memo::new(),
            slot: Memo::new(),
        }
    }

    /// Phase-specific complexity of a request relative to the calibration
    /// average: prefill scales with prompt size discounted by prefix-cache
    /// hits, decode with answer verbosity.
    fn complexity(&self, phase: InferPhase, req: &Request) -> f64 {
        match phase {
            InferPhase::Prefill => {
                let size = f64::from(req.prompt_tokens) / f64::from(self.config.prompt_tokens);
                ((0.3 + 0.7 * size) * (1.0 - 0.5 * req.cache_hit)).clamp(0.2, 2.0)
            }
            InferPhase::Decode => (0.55 + 0.5 * req.verbosity).clamp(0.2, 2.0),
        }
    }
}

/// The continuous batch's shared state within one cycle: how many
/// requests have been admitted so far and at what total depth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchState {
    depth_sum: u64,
    admitted: u32,
}

impl BatchState {
    /// Admit one request at `depth`.
    pub fn admit(&mut self, depth: usize) {
        self.depth_sum += depth as u64;
        self.admitted += 1;
    }

    /// Mean admitted depth (`1.0` for an empty batch — a decode with no
    /// admissions runs alone).
    pub fn mean_depth(&self) -> f64 {
        if self.admitted == 0 {
            1.0
        } else {
            self.depth_sum as f64 / f64::from(self.admitted)
        }
    }

    /// Requests admitted so far this cycle.
    pub fn admitted(&self) -> u32 {
        self.admitted
    }

    /// Start a fresh batch.
    pub fn reset(&mut self) {
        *self = BatchState::default();
    }
}

/// Execution-time source for an [`InferPipeline`]: actual times are the
/// phase averages scaled by the request's content complexity (prompt
/// size, prefix-cache affinity, answer verbosity), ±`jitter` sampling
/// noise — and, for decodes, the **live co-batch coupling**: the mean
/// admitted depth of the batch so far replaces the rung's static
/// expectation. Raising any co-batched request's admission depth can only
/// lengthen a decode, never shorten it.
///
/// A slot's request is a pure function of `(cycle, slot)`, and its
/// prefill and decode share it. The source derives the cycle's tenant
/// rotation once per cycle, reads tenant biases from the pipeline's
/// table, and derives both phase complexities of a slot once, in
/// [`Memo`]s keyed on the cycle and on `(cycle, slot)`: any query order,
/// revisits of earlier cycles included, reads what a fresh derivation
/// would. The [`BatchState`] and the jitter's one RNG draw per call
/// follow the call sequence as before.
pub struct BatchCoupledExec<'a> {
    infer: &'a InferPipeline,
    rng: StdRng,
    jitter: f64,
    batch: BatchState,
    /// The tenant rotation, keyed on the cycle.
    shift: Memo<usize, u64>,
    /// A slot's `[prefill, decode]` complexities, keyed on `(cycle, slot)`.
    slot: Memo<(usize, usize), [f64; 2]>,
}

impl BatchCoupledExec<'_> {
    /// The shared batch state (observational; tests and the fuzzer use it
    /// to cross-check the coupling arithmetic).
    pub fn batch(&self) -> BatchState {
        self.batch
    }
}

impl ExecutionTimeSource for BatchCoupledExec<'_> {
    fn actual(&mut self, cycle: usize, action: ActionId, q: Quality) -> Time {
        // Action 0 opens a new admission round.
        if action == 0 {
            self.batch.reset();
        }
        let infer = self.infer;
        let phase = infer.phase(action);
        let rung = infer.ladder.rung(q);
        let slot = infer.slot_of(action);
        let shift = &mut self.shift;
        let complexities = self.slot.get((cycle, slot), || {
            let requests = &infer.requests;
            let shift = shift.get(cycle, || requests.shift(cycle as u64));
            let req = requests.request_in(cycle as u64, shift, slot, |t| infer.biases[t as usize]);
            InferPhase::ALL.map(|p| infer.complexity(p, &req))
        });
        let av = infer.system.table().av(action, q).as_ns() as f64;
        let wc = infer.system.table().wc(action, q);
        let coupling = match phase {
            InferPhase::Prefill => {
                self.batch.admit(rung.batch_depth);
                1.0
            }
            // The table's decode average assumes the rung's own depth;
            // rescale it to the batch actually admitted so far.
            InferPhase::Decode => {
                coupling_factor(self.batch.mean_depth()) / coupling_factor(rung.batch_depth as f64)
            }
        };
        let complexity = complexities[phase.kind() as usize];
        let jitter = 1.0 + self.rng.gen_range(-self.jitter..=self.jitter);
        let ns = (av * coupling * complexity * jitter).round() as i64;
        Time::from_ns(ns.max(0)).min(wc)
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
        let infer = InferPipeline::new(InferConfig::small(1)).unwrap();
        assert_eq!(infer.system().n_actions(), 2 * 16);
        assert_eq!(infer.system().qualities().len(), 5);
        // 12 interactive slots at 300 µs + 4 bulk slots at 600 µs.
        assert_eq!(infer.config().batch_period(), Time::from_us(6_000));
        // Sustainable in expectation at rung 2, infeasible at rung 3.
        let sys = infer.system();
        assert!(sys.prefix().av_total(Quality::new(2)) <= infer.config().batch_period());
        assert!(sys.prefix().av_total(Quality::new(3)) > infer.config().batch_period());
        // Worst-case feasibility at qmin holds, but the margin is thin —
        // this workload actually leans on the manager.
        let slack = sys.min_quality_slack().as_ns() as f64;
        let period = infer.config().batch_period().as_ns() as f64;
        assert!(slack > 0.0, "qmin must be schedulable");
        assert!(slack / period > 0.02, "qmin slack {slack}");
        assert!(slack / period < 0.10, "margin should stay thin: {slack}");
    }

    #[test]
    fn action_layout_and_phases() {
        let infer = InferPipeline::new(InferConfig::tiny(1)).unwrap();
        assert_eq!(infer.phase(0), InferPhase::Prefill);
        assert_eq!(infer.phase(1), InferPhase::Decode);
        assert_eq!(infer.slot_of(0), 0);
        assert_eq!(infer.slot_of(3), 1);
        assert_eq!(infer.system().action(2).name, "req1.prefill");
        assert_eq!(infer.system().action(3).name, "req1.decode");
        assert_eq!(InferPhase::Decode.label(), "decode");
    }

    #[test]
    fn slo_classes_become_deadline_classes() {
        let config = InferConfig::tiny(1);
        let infer = InferPipeline::new(config).unwrap();
        let deadlines = infer.system().deadlines();
        // One deadline per slot, on the decode action, monotone, final
        // action constrained.
        assert_eq!(deadlines.constrained_count(), config.requests_per_batch);
        assert!(deadlines.is_monotone());
        assert_eq!(deadlines.last_constrained(), Some(7));
        assert_eq!(deadlines.get(0), None, "prefills are unconstrained");
        assert_eq!(deadlines.get(1), Some(Time::from_us(300)));
        assert_eq!(deadlines.get(7), Some(Time::from_us(1_500)));
        // Every fourth slot is bulk with twice the budget.
        assert_eq!(config.slo_class(0), SloClass::Interactive);
        assert_eq!(config.slo_class(3), SloClass::Bulk);
        assert_eq!(config.slot_budget(3), Time::from_us(600));
        assert_eq!(infer.slo_of(7), SloClass::Bulk);
        assert_eq!(SloClass::Interactive.percentile(), "p99");
        assert_eq!(SloClass::Bulk.percentile(), "p999");
        assert_eq!(SloClass::Bulk.label(), "bulk");
    }

    #[test]
    fn exec_respects_contract_and_is_deterministic() {
        let infer = InferPipeline::new(InferConfig::tiny(3)).unwrap();
        let sample = |seed: u64| -> Vec<i64> {
            let mut e = infer.exec(0.1, seed);
            (0..infer.system().n_actions())
                .map(|a| e.actual(0, a, Quality::new(3)).as_ns())
                .collect()
        };
        let a = sample(9);
        assert_eq!(a, sample(9));
        assert_ne!(a, sample(10));
        for (action, &ns) in a.iter().enumerate() {
            let wc = infer.system().table().wc(action, Quality::new(3)).as_ns();
            assert!(ns >= 0 && ns <= wc, "action {action}: {ns} > wc {wc}");
        }
    }

    #[test]
    fn phase_tables_are_monotone_in_quality() {
        let infer = InferPipeline::new(InferConfig::tiny(1)).unwrap();
        let sys = infer.system();
        for action in 0..sys.n_actions() {
            for q in 1..5 {
                let (lo, hi) = (Quality::new(q - 1), Quality::new(q));
                assert!(sys.table().av(action, hi) >= sys.table().av(action, lo));
                assert!(sys.table().wc(action, hi) >= sys.table().wc(action, lo));
                assert!(sys.table().wc(action, hi) >= sys.table().av(action, hi));
            }
        }
    }

    /// The coupling seam itself: admit the *other* slots deeper and a
    /// decode must never get shorter. Both runs make identical RNG draw
    /// sequences (one draw per action), so the only difference is the
    /// co-batch depth.
    #[test]
    fn deeper_co_batch_never_shortens_decode() {
        let infer = InferPipeline::new(InferConfig::tiny(7)).unwrap();
        let n = infer.system().n_actions();
        let target = n - 1; // last decode sees every other admission
        let own_q = Quality::new(4);
        let decode_with_others_at = |others: Quality| -> Time {
            let mut exec = infer.exec(0.05, 21);
            let mut out = Time::ZERO;
            for action in 0..n {
                let q = if infer.slot_of(action) == infer.slot_of(target) {
                    own_q
                } else {
                    others
                };
                let t = exec.actual(0, action, q);
                if action == target {
                    out = t;
                }
            }
            out
        };
        let shallow = decode_with_others_at(Quality::new(0));
        let deep = decode_with_others_at(Quality::new(4));
        assert!(
            deep > shallow,
            "deeper co-batch must lengthen the decode: {shallow} vs {deep}"
        );
    }

    #[test]
    fn batch_state_resets_each_cycle() {
        let infer = InferPipeline::new(InferConfig::tiny(2)).unwrap();
        let n = infer.system().n_actions();
        let mut exec = infer.exec(0.1, 5);
        for action in 0..n {
            exec.actual(0, action, Quality::new(2));
        }
        assert_eq!(exec.batch().admitted() as usize, n / 2);
        // The next cycle's first action opens a fresh admission round.
        exec.actual(1, 0, Quality::new(2));
        assert_eq!(exec.batch().admitted(), 1);
        let mut empty = BatchState::default();
        assert_eq!(empty.mean_depth(), 1.0);
        empty.admit(5);
        assert_eq!(empty.mean_depth(), 5.0);
        empty.reset();
        assert_eq!(empty.admitted(), 0);
    }

    #[test]
    fn coupling_factor_is_monotone_and_anchored() {
        assert_eq!(coupling_factor(1.0), 1.0);
        assert_eq!(coupling_factor(0.0), 1.0, "clamped below a solo decode");
        let mut prev = 0.0;
        for d in 1..=8 {
            let c = coupling_factor(d as f64);
            assert!(c > prev);
            prev = c;
        }
        assert_eq!(coupling_factor(8.0), 1.0 + 7.0 * COUPLING_PER_REQUEST);
    }

    #[test]
    fn controlled_batch_is_safe_and_uses_budget() {
        let infer = InferPipeline::new(InferConfig::small(3)).unwrap();
        let sys = infer.system();
        let policy = MixedPolicy::new(sys);
        let mut engine = Engine::new(sys, NumericManager::new(sys, &policy), OverheadModel::ZERO);
        let mut exec = infer.exec(0.15, 7);
        let summary = engine.run_cycle(0, Time::ZERO, &mut exec, &mut NullSink);
        assert_eq!(summary.misses, 0);
        assert!(
            summary.avg_quality() > 1.0,
            "SLO budget converted into quality, got {}",
            summary.avg_quality()
        );
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

    /// What `BatchCoupledExec::actual` returns, derived without memos:
    /// the slot's request comes afresh from `SyntheticRequests::request`
    /// on every query, against a batch state of its own.
    fn fresh_actual(
        infer: &InferPipeline,
        rng: &mut StdRng,
        batch: &mut BatchState,
        jitter: f64,
        (cycle, action, q): (usize, ActionId, Quality),
    ) -> Time {
        if action == 0 {
            batch.reset();
        }
        let phase = infer.phase(action);
        let rung = infer.ladder().rung(q);
        let req = infer
            .requests()
            .request(cycle as u64, infer.slot_of(action));
        let av = infer.system().table().av(action, q).as_ns() as f64;
        let wc = infer.system().table().wc(action, q);
        let coupling = match phase {
            InferPhase::Prefill => {
                batch.admit(rung.batch_depth);
                1.0
            }
            InferPhase::Decode => {
                coupling_factor(batch.mean_depth()) / coupling_factor(rung.batch_depth as f64)
            }
        };
        let complexity = infer.complexity(phase, &req);
        let jitter = 1.0 + rng.gen_range(-jitter..=jitter);
        let ns = (av * coupling * complexity * jitter).round() as i64;
        Time::from_ns(ns.max(0)).min(wc)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The per-cycle and per-slot memos are invisible: every query of
        /// any sequence returns exactly what a fresh derivation with an
        /// identically seeded RNG returns, and leaves the same batch
        /// state behind.
        #[test]
        fn memoized_exec_matches_fresh_derivation(
            queries in query_runs(8, 5),
            seed in any::<u64>(),
        ) {
            let infer = InferPipeline::new(InferConfig::tiny(5)).unwrap();
            prop_assert_eq!(infer.system().n_actions(), 8);
            let mut exec = infer.exec(0.1, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut batch = BatchState::default();
            for (i, &(cycle, action, q)) in queries.iter().enumerate() {
                let query = (cycle, action, q);
                let fresh = fresh_actual(&infer, &mut rng, &mut batch, 0.1, query);
                prop_assert_eq!(exec.actual(cycle, action, q), fresh, "query {}: {:?}", i, query);
                prop_assert_eq!(exec.batch(), batch, "query {}: {:?}", i, query);
            }
        }
    }
}
