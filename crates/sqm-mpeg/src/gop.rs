//! GOP (group-of-pictures) structure.
//!
//! Real MPEG encoders alternate intra-coded (I) and predicted (P) frames;
//! the two have very different cost profiles — I-frames skip motion
//! estimation but produce denser residuals, P-frames pay for the search
//! and code sparse residuals. The paper's per-frame quality curve (Fig. 7)
//! moves with exactly this kind of content periodicity. [`GopPattern`]
//! models it as per-stage complexity multipliers layered onto the encoder's
//! execution source.

use crate::encoder::Stage;

/// Frame coding kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Intra frame: no temporal prediction.
    I,
    /// Predicted frame: motion-compensated from the previous frame.
    P,
}

/// A repeating GOP pattern, e.g. `IPPP` (GOP length 4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GopPattern {
    kinds: Vec<FrameKind>,
}

impl GopPattern {
    /// `I` followed by `p_count` P-frames.
    pub fn ippp(p_count: usize) -> GopPattern {
        let mut kinds = vec![FrameKind::I];
        kinds.extend(std::iter::repeat_n(FrameKind::P, p_count));
        GopPattern { kinds }
    }

    /// All-intra coding (every frame I).
    pub fn all_intra() -> GopPattern {
        GopPattern {
            kinds: vec![FrameKind::I],
        }
    }

    /// GOP length.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Patterns are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The kind of frame `frame` (cyclic).
    pub fn kind(&self, frame: usize) -> FrameKind {
        self.kinds[frame % self.kinds.len()]
    }

    /// Execution-time multiplier for a pipeline stage on a frame of this
    /// kind. Multipliers stay within the worst-case headroom of the timing
    /// tables (≤ 1.35), so the `C ≤ Cwc` contract survives after clamping.
    pub fn stage_factor(&self, frame: usize, stage: Stage) -> f64 {
        self.kind(frame).stage_factor(stage)
    }

    /// Bit-cost multiplier of a frame kind (I-frames code more bits at the
    /// same quality).
    pub fn bits_factor(&self, frame: usize) -> f64 {
        match self.kind(frame) {
            FrameKind::I => 1.45,
            FrameKind::P => 1.0,
        }
    }
}

impl FrameKind {
    /// Execution-time multiplier for a pipeline stage on a frame of this
    /// kind (see [`GopPattern::stage_factor`]).
    pub(crate) fn stage_factor(self, stage: Stage) -> f64 {
        match (self, stage) {
            // Intra: motion estimation degenerates to a cheap intra-mode
            // decision; transform/entropy carry full-energy blocks.
            (FrameKind::I, Stage::MotionEst) => 0.30,
            (FrameKind::I, Stage::DctQuant) => 1.30,
            (FrameKind::I, Stage::Entropy) => 1.35,
            (FrameKind::I, Stage::FrameSetup) => 1.0,
            // Predicted: nominal costs.
            (FrameKind::P, _) => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ippp_layout() {
        let g = GopPattern::ippp(3);
        assert_eq!(g.len(), 4);
        assert!(!g.is_empty());
        assert_eq!(g.kind(0), FrameKind::I);
        assert_eq!(g.kind(1), FrameKind::P);
        assert_eq!(g.kind(3), FrameKind::P);
        assert_eq!(g.kind(4), FrameKind::I, "cyclic");
    }

    #[test]
    fn all_intra() {
        let g = GopPattern::all_intra();
        for f in 0..5 {
            assert_eq!(g.kind(f), FrameKind::I);
        }
    }

    #[test]
    fn stage_factors_reflect_coding_mode() {
        let g = GopPattern::ippp(2);
        assert!(
            g.stage_factor(0, Stage::MotionEst) < 0.5,
            "I skips motion search"
        );
        assert!(
            g.stage_factor(0, Stage::DctQuant) > 1.0,
            "I codes denser residuals"
        );
        assert_eq!(g.stage_factor(1, Stage::MotionEst), 1.0);
        assert!(g.bits_factor(0) > g.bits_factor(1));
    }
}
