//! Procedural video source.
//!
//! Generates a deterministic synthetic sequence with the two properties the
//! paper's timing model depends on: per-macroblock **texture** (drives DCT
//! and entropy-coding cost) and **motion** (drives motion-estimation cost),
//! both varying smoothly within a scene and jumping at scene cuts. The
//! generator is pure: `(seed, frame, macroblock)` fully determines every
//! pixel and complexity value, so all experiments are replayable.

/// SplitMix64 — tiny, high-quality stateless hash for procedural content.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash to a uniform `f64` in `[0, 1)`.
#[inline]
fn unit(x: u64) -> f64 {
    (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic synthetic video clip.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticVideo {
    /// Width in pixels (multiple of 16).
    pub width: usize,
    /// Height in pixels (multiple of 16).
    pub height: usize,
    /// Frames in the clip.
    pub frames: usize,
    /// Scene length in frames (a cut re-rolls texture/motion statistics).
    pub scene_len: usize,
    seed: u64,
}

impl SyntheticVideo {
    /// The paper's clip: 29 frames of 352×288 (396 macroblocks).
    pub fn paper_clip(seed: u64) -> SyntheticVideo {
        SyntheticVideo::new(352, 288, 29, 8, seed)
    }

    /// A custom clip. Dimensions are rounded down to whole macroblocks.
    pub fn new(
        width: usize,
        height: usize,
        frames: usize,
        scene_len: usize,
        seed: u64,
    ) -> SyntheticVideo {
        SyntheticVideo {
            width: width / 16 * 16,
            height: height / 16 * 16,
            frames,
            scene_len: scene_len.max(1),
            seed,
        }
    }

    /// Macroblocks per frame (`396` for 352×288).
    pub fn macroblocks(&self) -> usize {
        (self.width / 16) * (self.height / 16)
    }

    /// Macroblock grid width.
    pub fn mb_cols(&self) -> usize {
        self.width / 16
    }

    /// The statistics every macroblock of `frame` shares.
    pub(crate) fn frame_stats(&self, frame: usize) -> FrameStats {
        let scene = (frame / self.scene_len) as u64;
        FrameStats {
            frame,
            scene,
            texture_bias: unit(self.seed ^ scene.wrapping_mul(0x517C_C1B7_2722_0A95)),
            motion_bias: unit(self.seed ^ scene.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xABCD),
            // Scene cut / intra frame: no usable reference, the encoder
            // falls back to intra coding whose cost we fold into texture.
            intra: frame == 0 || frame.is_multiple_of(self.scene_len),
        }
    }

    /// Texture energy of a macroblock in `[0, 1]`: how much spatial detail
    /// its pixels carry. Smooth across neighbouring macroblocks.
    pub fn texture(&self, frame: usize, mb: usize) -> f64 {
        self.content(&self.frame_stats(frame), mb).0
    }

    /// Motion magnitude of a macroblock in `[0, 1]`: how far its content
    /// moved since the previous frame. Frame 0 (intra) has zero motion.
    pub fn motion(&self, frame: usize, mb: usize) -> f64 {
        self.content(&self.frame_stats(frame), mb).1
    }

    /// `(texture, motion)` of macroblock `mb` in the frame `stats`
    /// (from [`SyntheticVideo::frame_stats`]) describes: the one place
    /// both formulas live.
    pub(crate) fn content(&self, stats: &FrameStats, mb: usize) -> (f64, f64) {
        let frame = stats.frame as u64;
        let col = (mb % self.mb_cols()) as u64;
        let row = (mb / self.mb_cols()) as u64;
        // Low-frequency spatial field + per-block detail.
        let field = unit(self.seed ^ stats.scene ^ (col / 4) << 17 ^ (row / 4) << 31);
        let detail = unit(self.seed ^ frame << 40 ^ (mb as u64));
        let texture = (0.5 * stats.texture_bias + 0.35 * field + 0.15 * detail).clamp(0.0, 1.0);
        let motion = if stats.intra {
            0.0
        } else {
            let wobble = unit(self.seed ^ frame << 20 ^ (mb as u64) << 2 ^ 0x77);
            (0.6 * stats.motion_bias + 0.4 * wobble).clamp(0.0, 1.0)
        };
        (texture, motion)
    }

    /// One 8×8 luma block of a macroblock (`sub ∈ 0..4`), as pixel values.
    /// Pixels combine a directional gradient (DC + low frequency) with
    /// texture-scaled noise, so DCT/quantization behave like they do on
    /// natural imagery.
    pub fn block(&self, frame: usize, mb: usize, sub: usize) -> [[i32; 8]; 8] {
        let tex = self.texture(frame, mb);
        let base = 60 + (120.0 * unit(self.seed ^ (mb as u64) << 13 ^ 0x9)) as i32;
        let gx = (8.0 * unit(self.seed ^ (mb as u64) << 5 ^ 0x2)) as i32 - 4;
        let gy = (8.0 * unit(self.seed ^ (mb as u64) << 9 ^ 0x3)) as i32 - 4;
        let mut out = [[0i32; 8]; 8];
        for (y, row) in out.iter_mut().enumerate() {
            for (x, px) in row.iter_mut().enumerate() {
                let key = self.seed
                    ^ (frame as u64) << 48
                    ^ (mb as u64) << 16
                    ^ (sub as u64) << 8
                    ^ ((y * 8 + x) as u64);
                let noise = (unit(key) - 0.5) * 2.0 * 90.0 * tex;
                let v = base + gx * x as i32 + gy * y as i32 + noise as i32;
                *px = v.clamp(0, 255);
            }
        }
        out
    }

    /// Combined complexity factor for an encoder action on this macroblock,
    /// weighted for the pipeline stage: the result multiplies the stage's
    /// *average* execution time and lands in roughly `[0.55, 1.65]`.
    pub fn complexity(&self, frame: usize, mb: usize, texture_w: f64, motion_w: f64) -> f64 {
        let (t, m) = self.content(&self.frame_stats(frame), mb);
        blend(t, m, texture_w, motion_w)
    }
}

/// The statistics all macroblocks of one frame share: its scene's texture
/// and motion biases and whether it is coded intra.
#[derive(Clone, Copy)]
pub(crate) struct FrameStats {
    frame: usize,
    scene: u64,
    texture_bias: f64,
    motion_bias: f64,
    intra: bool,
}

/// The complexity factor [`SyntheticVideo::complexity`] makes of a
/// macroblock's `(texture, motion)` under a stage's weights.
pub(crate) fn blend(texture: f64, motion: f64, texture_w: f64, motion_w: f64) -> f64 {
    let mix = (texture_w * texture + motion_w * motion) / (texture_w + motion_w).max(1e-9);
    0.55 + 1.1 * mix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clip_geometry() {
        let v = SyntheticVideo::paper_clip(1);
        assert_eq!(v.macroblocks(), 396);
        assert_eq!(v.mb_cols(), 22);
        assert_eq!(v.frames, 29);
    }

    #[test]
    fn determinism() {
        let a = SyntheticVideo::paper_clip(7);
        let b = SyntheticVideo::paper_clip(7);
        assert_eq!(a.block(3, 100, 2), b.block(3, 100, 2));
        assert_eq!(a.texture(5, 9), b.texture(5, 9));
        let c = SyntheticVideo::paper_clip(8);
        assert_ne!(a.block(3, 100, 2), c.block(3, 100, 2), "seed matters");
    }

    #[test]
    fn ranges_are_respected() {
        let v = SyntheticVideo::paper_clip(42);
        for frame in 0..v.frames {
            for mb in (0..v.macroblocks()).step_by(37) {
                let t = v.texture(frame, mb);
                let m = v.motion(frame, mb);
                assert!((0.0..=1.0).contains(&t));
                assert!((0.0..=1.0).contains(&m));
                let c = v.complexity(frame, mb, 1.0, 1.0);
                assert!((0.55..=1.65).contains(&c), "complexity {c}");
            }
        }
    }

    #[test]
    fn scene_cuts_reset_motion() {
        let v = SyntheticVideo::new(64, 64, 20, 5, 3);
        for frame in [0, 5, 10, 15] {
            for mb in 0..v.macroblocks() {
                assert_eq!(v.motion(frame, mb), 0.0, "intra frame {frame}");
            }
        }
        // Mid-scene frames generally have motion.
        let any_motion = (0..v.macroblocks()).any(|mb| v.motion(7, mb) > 0.0);
        assert!(any_motion);
    }

    #[test]
    fn scene_changes_statistics() {
        let v = SyntheticVideo::new(352, 288, 29, 4, 11);
        let mean_tex = |frame: usize| -> f64 {
            (0..v.macroblocks())
                .map(|mb| v.texture(frame, mb))
                .sum::<f64>()
                / v.macroblocks() as f64
        };
        // Different scenes should (with overwhelming probability for this
        // seed) have visibly different mean texture.
        assert!((mean_tex(0) - mean_tex(8)).abs() > 0.01);
    }

    #[test]
    fn pixels_are_bytes() {
        let v = SyntheticVideo::paper_clip(5);
        let b = v.block(2, 17, 1);
        assert!(b.iter().flatten().all(|&p| (0..=255).contains(&p)));
        // Textured blocks are not flat.
        let min = b.iter().flatten().min().unwrap();
        let max = b.iter().flatten().max().unwrap();
        assert!(max > min);
    }

    #[test]
    fn dimensions_round_to_macroblocks() {
        let v = SyntheticVideo::new(100, 100, 1, 1, 0);
        assert_eq!(v.width, 96);
        assert_eq!(v.height, 96);
        assert_eq!(v.macroblocks(), 36);
    }
}
