//! Deterministic synthetic request population.
//!
//! The coupled execution source needs per-request structure — prompt
//! length, answer verbosity, prefix-cache affinity — that is (a) stable
//! for a given (cycle, slot) so every execution path replays the same
//! request, and (b) varied enough across tenants that the batch actually
//! exercises the coupling seam. [`SyntheticRequests`] derives all of it
//! from a seed with splitmix64, so serial, fleet, and elastic runs
//! observe byte-identical populations without sharing any state.

/// One synthesized request as seen by the serving engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Originating tenant (stable per flow slot).
    pub tenant: u32,
    /// Prompt length in tokens; drives the prefill phase.
    pub prompt_tokens: u32,
    /// Answer verbosity factor in `[0.5, 1.5]`; drives the decode phase.
    pub verbosity: f64,
    /// Prefix-cache hit fraction in `[0.0, 0.8]`; discounts prefill work.
    pub cache_hit: f64,
}

/// A tenant's stable request biases: prompt length and verbosity factors,
/// and its prefix-cache affinity.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TenantBias {
    /// Prompt-length factor in `[0.4, 1.8]` of the nominal prompt.
    prompt: f64,
    /// Verbosity centre in `[0.5, 1.5]`.
    verbosity: f64,
    /// Prefix-cache hit centre in `[0.0, 0.8]`.
    cache: f64,
}

/// splitmix64 — tiny, seedable, and good enough for workload synthesis.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a hash to a unit-interval f64 (53 mantissa bits).
fn unit(x: u64) -> f64 {
    (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic request generator for a serving batch.
///
/// # Examples
///
/// ```
/// use sqm_infer::request::SyntheticRequests;
///
/// let gen = SyntheticRequests::new(16, 128, 42);
/// let r = gen.request(3, 5);
/// // Same (cycle, slot) always replays the same request.
/// assert_eq!(gen.request(3, 5), r);
/// assert!(r.prompt_tokens >= 8);
/// assert!((0.5..=1.5).contains(&r.verbosity));
/// assert!((0.0..=0.8).contains(&r.cache_hit));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SyntheticRequests {
    n_tenants: u32,
    nominal_prompt: u32,
    seed: u64,
}

impl SyntheticRequests {
    /// A population of `n_tenants` tenants whose prompts centre on
    /// `nominal_prompt` tokens, derived entirely from `seed`.
    pub fn new(n_tenants: u32, nominal_prompt: u32, seed: u64) -> SyntheticRequests {
        SyntheticRequests {
            n_tenants: n_tenants.max(1),
            nominal_prompt: nominal_prompt.max(8),
            seed,
        }
    }

    /// The tenant rotation of `cycle`: a per-cycle phase shift rotates
    /// tenants through slots so every slot sees the whole population over
    /// time.
    pub(crate) fn shift(&self, cycle: u64) -> u64 {
        splitmix64(self.seed ^ cycle.wrapping_mul(0x517c_c1b7_2722_0a95))
    }

    /// Which tenant occupies batch `slot` in `cycle`.
    pub fn tenant_of(&self, cycle: u64, slot: usize) -> u32 {
        self.tenant_in(self.shift(cycle), slot)
    }

    /// Which tenant occupies batch `slot` under the rotation `shift`.
    fn tenant_in(&self, shift: u64, slot: usize) -> u32 {
        ((slot as u64).wrapping_add(shift) % self.n_tenants as u64) as u32
    }

    /// The stable biases of `tenant` (a chatty tenant stays chatty).
    fn tenant_bias(&self, tenant: u32) -> TenantBias {
        let tkey = self.seed ^ (tenant as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
        TenantBias {
            prompt: 0.4 + 1.4 * unit(tkey ^ 0x01),
            verbosity: 0.5 + 1.0 * unit(tkey ^ 0x02),
            cache: 0.8 * unit(tkey ^ 0x03),
        }
    }

    /// Every tenant's biases, indexed by tenant.
    pub(crate) fn bias_table(&self) -> Vec<TenantBias> {
        (0..self.n_tenants).map(|t| self.tenant_bias(t)).collect()
    }

    /// The request occupying batch `slot` in `cycle`.
    ///
    /// Tenant-level biases are stable across cycles (a chatty tenant stays
    /// chatty); a per-(cycle, slot) wobble keeps individual requests
    /// distinct.
    pub fn request(&self, cycle: u64, slot: usize) -> Request {
        self.request_in(cycle, self.shift(cycle), slot, |t| self.tenant_bias(t))
    }

    /// The request occupying batch `slot` in `cycle`, given the cycle's
    /// rotation `shift` (from [`SyntheticRequests::shift`]) and a lookup
    /// of tenant biases (from [`SyntheticRequests::tenant_bias`]):
    /// [`SyntheticRequests::request`] with both derived elsewhere, so a
    /// caller can derive them once per cycle and once per tenant.
    pub(crate) fn request_in(
        &self,
        cycle: u64,
        shift: u64,
        slot: usize,
        bias: impl FnOnce(u32) -> TenantBias,
    ) -> Request {
        let tenant = self.tenant_in(shift, slot);
        let bias = bias(tenant);
        // Per-request wobble.
        let rkey = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ cycle.wrapping_mul(0xff51_afd7_ed55_8ccd)
            ^ (slot as u64).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        let wobble = 0.7 + 0.6 * unit(rkey ^ 0x11);
        let nominal = self.nominal_prompt as f64;
        let prompt_tokens = (nominal * bias.prompt * wobble)
            .round()
            .clamp(8.0, 4.0 * nominal) as u32;
        Request {
            tenant,
            prompt_tokens,
            verbosity: (bias.verbosity + 0.1 * (unit(rkey ^ 0x12) - 0.5)).clamp(0.5, 1.5),
            cache_hit: (bias.cache + 0.1 * (unit(rkey ^ 0x13) - 0.5)).clamp(0.0, 0.8),
        }
    }

    /// Number of tenants in the population.
    pub fn n_tenants(&self) -> u32 {
        self.n_tenants
    }

    /// Nominal prompt length the population centres on.
    pub fn nominal_prompt(&self) -> u32 {
        self.nominal_prompt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_deterministic_and_seed_sensitive() {
        let a = SyntheticRequests::new(16, 128, 7);
        let b = SyntheticRequests::new(16, 128, 7);
        let c = SyntheticRequests::new(16, 128, 8);
        let mut diverged = false;
        for cycle in 0..8 {
            for slot in 0..16 {
                assert_eq!(a.request(cycle, slot), b.request(cycle, slot));
                if a.request(cycle, slot) != c.request(cycle, slot) {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "different seeds must generate different traffic");
    }

    #[test]
    fn requests_honour_the_contract_ranges() {
        let reqs = SyntheticRequests::new(12, 128, 99);
        for cycle in 0..32 {
            for slot in 0..16 {
                let r = reqs.request(cycle, slot);
                assert!(r.tenant < reqs.n_tenants());
                assert!((8..=512).contains(&r.prompt_tokens), "{r:?}");
                assert!((0.5..=1.5).contains(&r.verbosity), "{r:?}");
                assert!((0.0..=0.8).contains(&r.cache_hit), "{r:?}");
            }
        }
    }

    #[test]
    fn tenant_rotation_covers_the_population() {
        let reqs = SyntheticRequests::new(8, 64, 3);
        let mut seen = [false; 8];
        for cycle in 0..64 {
            for slot in 0..4 {
                seen[reqs.tenant_of(cycle, slot) as usize] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "all tenants should appear in some slot: {seen:?}"
        );
    }

    #[test]
    fn tenant_biases_are_stable_across_cycles() {
        let reqs = SyntheticRequests::new(4, 128, 21);
        // Collect the per-tenant mean prompt length over many cycles; a
        // biased tenant must stay biased (spread between tenants visible).
        let mut sums = [0.0f64; 4];
        let mut counts = [0u32; 4];
        for cycle in 0..256 {
            for slot in 0..4 {
                let r = reqs.request(cycle, slot);
                sums[r.tenant as usize] += r.prompt_tokens as f64;
                counts[r.tenant as usize] += 1;
            }
        }
        let means: Vec<f64> = sums
            .iter()
            .zip(&counts)
            .map(|(s, &c)| s / c.max(1) as f64)
            .collect();
        let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = means.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            hi / lo > 1.1,
            "tenant biases should spread the means: {means:?}"
        );
    }
}
