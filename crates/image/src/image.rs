//! Float RGB images and colours.

use serde::{Deserialize, Serialize};

/// An RGB colour with `f32` channels, nominally in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Color {
    /// Red channel.
    pub r: f32,
    /// Green channel.
    pub g: f32,
    /// Blue channel.
    pub b: f32,
}

impl Color {
    /// Opaque black.
    pub const BLACK: Self = Self::new(0.0, 0.0, 0.0);
    /// Opaque white.
    pub const WHITE: Self = Self::new(1.0, 1.0, 1.0);

    /// Creates a colour from channels.
    pub const fn new(r: f32, g: f32, b: f32) -> Self {
        Self { r, g, b }
    }

    /// A grey value with all channels equal to `v`.
    pub const fn gray(v: f32) -> Self {
        Self::new(v, v, v)
    }

    /// Rec. 601 luminance.
    pub fn luminance(self) -> f32 {
        0.299 * self.r + 0.587 * self.g + 0.114 * self.b
    }

    /// Channel-wise clamp into `[0, 1]`.
    pub fn clamped(self) -> Self {
        Self::new(self.r.clamp(0.0, 1.0), self.g.clamp(0.0, 1.0), self.b.clamp(0.0, 1.0))
    }

    /// Linear interpolation towards `other`.
    pub fn lerp(self, other: Self, t: f32) -> Self {
        Self::new(
            self.r + (other.r - self.r) * t,
            self.g + (other.g - self.g) * t,
            self.b + (other.b - self.b) * t,
        )
    }

    /// Channel-wise scaling.
    pub fn scale(self, s: f32) -> Self {
        Self::new(self.r * s, self.g * s, self.b * s)
    }

    /// Maximum absolute per-channel difference to `other`.
    pub fn max_channel_diff(self, other: Self) -> f32 {
        (self.r - other.r).abs().max((self.g - other.g).abs()).max((self.b - other.b).abs())
    }
}

impl std::ops::Add for Color {
    type Output = Self;

    /// Channel-wise addition.
    fn add(self, other: Self) -> Self {
        Self::new(self.r + other.r, self.g + other.g, self.b + other.b)
    }
}

impl std::ops::AddAssign for Color {
    fn add_assign(&mut self, other: Self) {
        *self = *self + other;
    }
}

impl From<[f32; 3]> for Color {
    fn from(v: [f32; 3]) -> Self {
        Self::new(v[0], v[1], v[2])
    }
}

/// A dense row-major RGB image with `f32` channels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<Color>,
}

impl Image {
    /// Creates an image filled with `fill`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize, fill: Color) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        Self { width, height, pixels: vec![fill; width * height] }
    }

    /// Creates an image by evaluating `f(x, y)` for every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> Color) -> Self {
        let mut img = Self::new(width, height, Color::BLACK);
        for y in 0..height {
            for x in 0..width {
                img.set(x, y, f(x, y));
            }
        }
        img
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels.
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinates are out of range.
    pub fn get(&self, x: usize, y: usize) -> Color {
        assert!(x < self.width && y < self.height, "pixel ({x},{y}) out of bounds");
        self.pixels[y * self.width + x]
    }

    /// The pixel at `(x, y)` with coordinates clamped to the image border.
    pub fn get_clamped(&self, x: isize, y: isize) -> Color {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.pixels[cy * self.width + cx]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinates are out of range.
    pub fn set(&mut self, x: usize, y: usize, color: Color) {
        assert!(x < self.width && y < self.height, "pixel ({x},{y}) out of bounds");
        self.pixels[y * self.width + x] = color;
    }

    /// Immutable view of the raw pixel buffer (row-major).
    pub fn pixels(&self) -> &[Color] {
        &self.pixels
    }

    /// Per-pixel luminance plane.
    pub fn to_luminance(&self) -> Vec<f32> {
        self.pixels.iter().map(|c| c.luminance()).collect()
    }

    /// Extracts the rectangle with top-left corner `(x0, y0)` and the given
    /// size, clamped to the image bounds.
    ///
    /// # Panics
    ///
    /// Panics if the clamped region is empty.
    pub fn crop(&self, x0: usize, y0: usize, width: usize, height: usize) -> Image {
        let x1 = (x0 + width).min(self.width);
        let y1 = (y0 + height).min(self.height);
        assert!(x0 < x1 && y0 < y1, "crop region is empty");
        Image::from_fn(x1 - x0, y1 - y0, |x, y| self.get(x0 + x, y0 + y))
    }

    /// Mean colour of the whole image.
    pub fn mean_color(&self) -> Color {
        let mut acc = [0.0f64; 3];
        for p in &self.pixels {
            acc[0] += p.r as f64;
            acc[1] += p.g as f64;
            acc[2] += p.b as f64;
        }
        let n = self.pixel_count() as f64;
        Color::new((acc[0] / n) as f32, (acc[1] / n) as f32, (acc[2] / n) as f32)
    }

    /// Writes the image as a binary PPM (P6) byte stream — handy for visual
    /// inspection of experiment outputs without any external dependency.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for p in &self.pixels {
            let c = p.clamped();
            out.push((c.r * 255.0).round() as u8);
            out.push((c.g * 255.0).round() as u8);
            out.push((c.b * 255.0).round() as u8);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn color_luminance_bounds() {
        assert_eq!(Color::BLACK.luminance(), 0.0);
        assert!((Color::WHITE.luminance() - 1.0).abs() < 1e-6);
        let c = Color::new(2.0, -1.0, 0.5).clamped();
        assert_eq!(c, Color::new(1.0, 0.0, 0.5));
    }

    #[test]
    fn from_fn_and_accessors() {
        let img = Image::from_fn(4, 3, |x, y| Color::gray((x + y) as f32));
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.get(3, 2), Color::gray(5.0));
        assert_eq!(img.pixel_count(), 12);
    }

    #[test]
    fn clamped_access_replicates_border() {
        let img = Image::from_fn(2, 2, |x, y| Color::gray((y * 2 + x) as f32));
        assert_eq!(img.get_clamped(-5, -5), img.get(0, 0));
        assert_eq!(img.get_clamped(10, 10), img.get(1, 1));
    }

    #[test]
    fn crop_clamps_to_bounds() {
        let img = Image::from_fn(8, 8, |x, y| Color::gray((x * 10 + y) as f32));
        let c = img.crop(6, 6, 5, 5);
        assert_eq!(c.width(), 2);
        assert_eq!(c.height(), 2);
        assert_eq!(c.get(0, 0), img.get(6, 6));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let img = Image::new(2, 2, Color::BLACK);
        let _ = img.get(2, 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_crop_panics() {
        let img = Image::new(4, 4, Color::BLACK);
        let _ = img.crop(4, 0, 2, 2);
    }

    #[test]
    fn mean_color_of_checkerboard_is_half() {
        let img = Image::from_fn(16, 16, |x, y| Color::gray(((x + y) % 2) as f32));
        let m = img.mean_color();
        assert!((m.r - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ppm_header_and_size() {
        let img = Image::new(3, 2, Color::WHITE);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(ppm.len(), "P6\n3 2\n255\n".len() + 3 * 2 * 3);
    }
}
