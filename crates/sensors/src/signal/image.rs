//! Synthetic camera frames (feed S10 for the JPEG-decoder and Blynk
//! workloads).
//!
//! Frames are deterministic functions of `(seed, frame index)`: a smooth
//! gradient background, a few solid rectangles, and mild pixel noise. The
//! pixel buffer itself is the ground truth — the JPEG kernel in `iotse-apps`
//! encodes it, decodes it back (Huffman + dequant + IDCT), and asserts a
//! PSNR floor against the original.

use iotse_sim::hash::fingerprint128;
use iotse_sim::rng::SeedTree;
use iotse_sim::rng::SimRng;

use crate::signal::cache;

/// A raw 8-bit RGB frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// RGB24 pixel data, row-major, `3 × width × height` bytes.
    pub pixels: Vec<u8>,
}

impl Frame {
    /// The RGB triple at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn pixel(&self, x: usize, y: usize) -> [u8; 3] {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = (y * self.width + x) * 3;
        [self.pixels[i], self.pixels[i + 1], self.pixels[i + 2]]
    }

    /// Byte size of the frame.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.pixels.len()
    }

    /// Luma (Y′, BT.601) plane of the frame, one byte per pixel.
    #[must_use]
    pub fn luma(&self) -> Vec<u8> {
        self.pixels
            .chunks_exact(3)
            .map(|p| {
                let y = 0.299 * f64::from(p[0]) + 0.587 * f64::from(p[1]) + 0.114 * f64::from(p[2]);
                y.round().clamp(0.0, 255.0) as u8
            })
            .collect()
    }
}

/// Dimensions of the low-resolution S10 frame: 104 × 78 × 3 ≈ 24 KiB.
pub const LOW_RES: (usize, usize) = (104, 78);

/// Deterministic synthetic camera.
///
/// # Examples
///
/// ```
/// use iotse_sensors::signal::image::{ImageGenerator, LOW_RES};
/// use iotse_sim::rng::SeedTree;
///
/// let mut cam = ImageGenerator::new(&SeedTree::new(8), LOW_RES.0, LOW_RES.1);
/// let frame = cam.frame(0);
/// assert_eq!(frame.byte_len(), LOW_RES.0 * LOW_RES.1 * 3);
/// // Frames are reproducible by index.
/// assert_eq!(frame, cam.frame(0));
/// ```
#[derive(Debug)]
pub struct ImageGenerator {
    seeds: SeedTree,
    width: usize,
    height: usize,
}

impl ImageGenerator {
    /// Creates a camera producing `width × height` RGB frames.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(seeds: &SeedTree, width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be positive");
        ImageGenerator {
            seeds: seeds.child("signal/image"),
            width,
            height,
        }
    }

    /// Renders frame number `index` (pure in `index`).
    ///
    /// Rendering draws ~3 random values per pixel, so frames are memoized
    /// in the signal cache; repeated requests (within or across scenarios
    /// sharing a seed) clone the cached pixels instead of re-rendering.
    #[must_use]
    pub fn frame(&mut self, index: u64) -> Frame {
        let cached = cache::memoized(
            "image/frame",
            self.seeds.derive_indexed("frame/", index),
            fingerprint128(&[self.width as u64, self.height as u64, index]),
            || self.render(index),
        );
        (*cached).clone()
    }

    /// Uncached rendering of frame `index`.
    fn render(&self, index: u64) -> Frame {
        // lint: memoized build, once per frame index and seed
        let mut rng: SimRng = self.seeds.stream(&format!("frame/{index}"));
        // lint: the frame owns its pixels
        let mut pixels = vec![0u8; self.width * self.height * 3];
        // Gradient background whose direction shifts with the frame index.
        let gx = 0.5 + 0.5 * ((index as f64) * 0.7).sin();
        let gy = 1.0 - gx;
        for y in 0..self.height {
            for x in 0..self.width {
                let t = gx * x as f64 / self.width as f64 + gy * y as f64 / self.height as f64;
                let i = (y * self.width + x) * 3;
                pixels[i] = (40.0 + 170.0 * t) as u8;
                pixels[i + 1] = (60.0 + 120.0 * (1.0 - t)) as u8;
                pixels[i + 2] = (90.0 + 90.0 * t) as u8;
            }
        }
        // A few solid rectangles ("objects").
        for _ in 0..3 {
            let rw = rng.gen_range(self.width / 8..self.width / 3);
            let rh = rng.gen_range(self.height / 8..self.height / 3);
            let rx = rng.gen_range(0..self.width - rw);
            let ry = rng.gen_range(0..self.height - rh);
            let color: [u8; 3] = [rng.gen(), rng.gen(), rng.gen()];
            for y in ry..ry + rh {
                for x in rx..rx + rw {
                    let i = (y * self.width + x) * 3;
                    pixels[i..i + 3].copy_from_slice(&color);
                }
            }
        }
        // Mild sensor noise.
        for p in &mut pixels {
            let d: i16 = rng.gen_range(-3..=3);
            *p = (i16::from(*p) + d).clamp(0, 255) as u8;
        }
        Frame {
            width: self.width,
            height: self.height,
            pixels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> ImageGenerator {
        ImageGenerator::new(&SeedTree::new(21), 64, 48)
    }

    #[test]
    fn frames_have_correct_geometry() {
        let mut c = cam();
        let f = c.frame(0);
        assert_eq!(f.width, 64);
        assert_eq!(f.height, 48);
        assert_eq!(f.byte_len(), 64 * 48 * 3);
        assert_eq!(f.luma().len(), 64 * 48);
    }

    #[test]
    fn frames_are_pure_in_index() {
        let mut c = cam();
        assert_eq!(c.frame(3), c.frame(3));
        assert_ne!(c.frame(3), c.frame(4));
    }

    #[test]
    fn different_seeds_render_different_frames() {
        let mut a = ImageGenerator::new(&SeedTree::new(1), 32, 32);
        let mut b = ImageGenerator::new(&SeedTree::new(2), 32, 32);
        assert_ne!(a.frame(0), b.frame(0));
    }

    #[test]
    fn frames_have_structure_not_flat_noise() {
        // The gradient should make the mean of the left half differ from the
        // right half in at least one channel for a horizontal gradient frame.
        let mut c = cam();
        let f = c.frame(0);
        let mut left = 0.0;
        let mut right = 0.0;
        for y in 0..f.height {
            for x in 0..f.width {
                let l = f.pixel(x, y)[0] as f64;
                if x < f.width / 2 {
                    left += l;
                } else {
                    right += l;
                }
            }
        }
        let half = (f.width / 2 * f.height) as f64;
        assert!(
            (left / half - right / half).abs() > 2.0,
            "no gradient structure"
        );
    }

    #[test]
    fn low_res_constant_matches_payload_budget() {
        // 104 × 78 × 3 = 24 336 B ≈ the 24 KiB Table I low-res payload.
        let bytes = LOW_RES.0 * LOW_RES.1 * 3;
        assert!(bytes <= 24 * 1024 && bytes > 23 * 1024);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn pixel_bounds_checked() {
        let mut c = cam();
        let f = c.frame(0);
        let _ = f.pixel(64, 0);
    }
}
