//! Full-reference image quality metrics: MSE, PSNR and SSIM.
//!
//! These follow the definitions cited by the paper: PSNR from the per-pixel
//! mean squared error, and SSIM computed with the standard 8×8 sliding window
//! and the constants of Wang et al. (2004) on the luminance plane.
//!
//! # Fused single-pass evaluation and the determinism contract
//!
//! The quality-measurement layer is on the profiling hot path (every sample
//! configuration scores its probe renders here), so the metrics are computed
//! by a **fused** engine instead of independent full-image walks:
//!
//! * [`quality_metrics`] produces MSE, PSNR and SSIM from **one traversal**:
//!   the image is cut into fixed-height row tiles (`TILE_ROWS`), each tile
//!   accumulates its squared-error partial and its SSIM window partials
//!   (window statistics come from per-band **column sums** — one pass over
//!   the band's rows — rather than re-reading every 8×8 window from
//!   scratch), and the per-tile partials are folded with the order-fixed
//!   pairwise tree of [`nerflex_math::pool::tree_reduce`].
//! * [`quality_metrics_parallel`] fans those same tiles over the shared
//!   worker pool. The tile layout is a constant, the per-tile computation is
//!   sequential, the partials come back in job order and the reduction tree
//!   depends only on the tile count — so the results are **bit-identical for
//!   every worker count** (asserted by tests over odd sizes and 1/2/4/7
//!   workers; see `docs/determinism.md`). Per-worker [`MetricsScratch`]
//!   buffers (luminance planes and column sums) persist across tiles and
//!   across calls via the pool's per-worker scratch, so repeated scoring
//!   allocates nothing.
//!
//! Reduction-order note: the fused SSIM accumulates window terms per tile
//! and reduces tiles pairwise, and its window statistics sum column-first.
//! Both orders are fixed and documented here — they are *deterministic*, but
//! not the same floating-point association as a naive row-major sliding
//! window, so values may differ from the pre-fusion implementation in the
//! last bits. Window variances are deliberately left unclamped: on identical
//! inputs the covariance and the variances are bitwise equal, which makes
//! every window score exactly `1.0` (a `max(0.0)` clamp on the variances
//! alone would break that exactness).

use crate::image::Image;
use nerflex_math::pool::{default_workers, tree_reduce, WorkerPool};
use nerflex_math::simd::LaneWidth;

/// SSIM stabilisation constant `C1 = (0.01)²` for signals in `[0, 1]`.
const C1: f64 = 0.01 * 0.01;
/// SSIM stabilisation constant `C2 = (0.03)²`.
const C2: f64 = 0.03 * 0.03;
/// Default SSIM window size.
const SSIM_WINDOW: usize = 8;
/// Default SSIM window stride (dense sliding-window approximation).
const SSIM_STRIDE: usize = 4;
/// Fixed height of the row tiles fanned over the worker pool. A multiple of
/// [`SSIM_STRIDE`], so window bands never straddle a tile boundary. The
/// value is a constant — never derived from the worker count — which is what
/// keeps the tiled reduction bit-identical for every worker count.
const TILE_ROWS: usize = 32;

/// Mean squared error over all pixels and channels.
///
/// # Panics
///
/// Panics when the two images have different dimensions.
pub fn mse(a: &Image, b: &Image) -> f64 {
    assert_dims(a, b);
    let mut acc = 0.0f64;
    for (pa, pb) in a.pixels().iter().zip(b.pixels()) {
        let dr = (pa.r - pb.r) as f64;
        let dg = (pa.g - pb.g) as f64;
        let db = (pa.b - pb.b) as f64;
        acc += dr * dr + dg * dg + db * db;
    }
    acc / (a.pixel_count() as f64 * 3.0)
}

/// Peak signal-to-noise ratio in decibels, for signals in `[0, 1]`.
///
/// Identical images return `f64::INFINITY`.
///
/// # Panics
///
/// Panics when the two images have different dimensions.
pub fn psnr(a: &Image, b: &Image) -> f64 {
    psnr_from_mse(mse(a, b))
}

/// PSNR in decibels from an already-computed MSE.
fn psnr_from_mse(err: f64) -> f64 {
    if err <= 0.0 {
        return f64::INFINITY;
    }
    10.0 * (1.0 / err).log10()
}

/// Every full-reference metric of one image pair, produced by a single fused
/// traversal (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityMetrics {
    /// Mean squared error over all pixels and channels.
    pub mse: f64,
    /// Peak signal-to-noise ratio in dB (`INFINITY` for identical images).
    pub psnr: f64,
    /// Mean SSIM over the 8×8 stride-4 window grid on the luminance plane.
    pub ssim: f64,
}

/// Partial sums of one row tile, combined by the order-fixed tree reduction.
#[derive(Debug, Clone, Copy, Default)]
struct TilePartial {
    /// Sum of per-channel squared errors over the tile's pixel rows.
    err: f64,
    /// Sum of SSIM window scores whose window top lies in the tile.
    ssim: f64,
    /// Number of windows contributing to `ssim`.
    windows: usize,
}

impl TilePartial {
    fn combine(self, o: Self) -> Self {
        Self { err: self.err + o.err, ssim: self.ssim + o.ssim, windows: self.windows + o.windows }
    }
}

/// Fused MSE + PSNR + SSIM in one traversal (the sequential tiling; output
/// is bit-identical to [`quality_metrics_parallel`] with any worker count).
///
/// # Panics
///
/// Panics when the images differ in size or are smaller than the 8×8 SSIM
/// window.
pub fn quality_metrics(a: &Image, b: &Image) -> QualityMetrics {
    quality_metrics_parallel(a, b, 1)
}

/// [`quality_metrics`] with the row tiles fanned over `workers` pool threads
/// (`0` = one per core, `1` = the sequential path). The tile layout, the
/// per-tile accumulation order and the pairwise reduction tree are all fixed
/// by the image size alone, so the result is **bit-identical for every
/// worker count**. Each pool worker keeps a persistent [`MetricsScratch`], so
/// steady-state scoring does not allocate.
///
/// # Panics
///
/// Panics when the images differ in size or are smaller than the 8×8 SSIM
/// window.
pub fn quality_metrics_parallel(a: &Image, b: &Image, workers: usize) -> QualityMetrics {
    assert_dims(a, b);
    assert!(SSIM_WINDOW <= a.width() && SSIM_WINDOW <= a.height(), "SSIM window larger than image");
    let jobs = a.height().div_ceil(TILE_ROWS);
    let workers = match workers {
        0 => default_workers(jobs),
        n => n,
    };
    let partials =
        WorkerPool::shared().run_scratch(jobs, workers, MetricsScratch::new, |scratch, job| {
            tile_partial(a, b, job, scratch)
        });
    finish_metrics(a, partials)
}

/// The sequential fused engine with caller-owned scratch: bit-identical to
/// [`quality_metrics`], but the luminance planes and column sums live in
/// `scratch` and are reused across calls. This is the entry the batched
/// profile-measurement dispatch scores through — one scratch per pool
/// worker, zero steady-state allocations ([`MetricsScratch::allocations`]
/// counts buffer growth, so the reuse is measurable). [`LaneWidth`] has a
/// single value, so the lane-width argument changes nothing.
///
/// # Panics
///
/// Panics when the images differ in size or are smaller than the 8×8 SSIM
/// window.
pub fn quality_metrics_scratch(
    a: &Image,
    b: &Image,
    _lane_width: LaneWidth,
    scratch: &mut MetricsScratch,
) -> QualityMetrics {
    assert_dims(a, b);
    assert!(SSIM_WINDOW <= a.width() && SSIM_WINDOW <= a.height(), "SSIM window larger than image");
    let jobs = a.height().div_ceil(TILE_ROWS);
    let partials = (0..jobs).map(|job| tile_partial(a, b, job, scratch)).collect();
    finish_metrics(a, partials)
}

/// One row tile's fused partial: squared error plus the SSIM bands whose
/// window top lies in the tile. Shared by the pooled and the caller-scratch
/// entries, so the two are bit-identical by construction.
fn tile_partial(a: &Image, b: &Image, job: usize, scratch: &mut MetricsScratch) -> TilePartial {
    let width = a.width();
    let height = a.height();
    let y0 = job * TILE_ROWS;
    let y1 = ((job + 1) * TILE_ROWS).min(height);
    // Squared-error partial over this tile's pixel rows (same per-pixel
    // op order as `mse`).
    let mut err = 0.0f64;
    for (pa, pb) in
        a.pixels()[y0 * width..y1 * width].iter().zip(&b.pixels()[y0 * width..y1 * width])
    {
        let dr = (pa.r - pb.r) as f64;
        let dg = (pa.g - pb.g) as f64;
        let db = (pa.b - pb.b) as f64;
        err += dr * dr + dg * dg + db * db;
    }
    // Luminance rows needed by this tile's SSIM bands: the tile's own rows
    // plus the window overhang into the next tile, rebuilt into the
    // scratch's reused planes.
    let rows_end = (y1 + SSIM_WINDOW).min(height);
    scratch.allocations += luminance_rows_into(a, y0, rows_end, &mut scratch.la) as u64;
    scratch.allocations += luminance_rows_into(b, y0, rows_end, &mut scratch.lb) as u64;
    scratch.allocations += scratch.cols.ensure(width) as u64;
    let mut ssim = 0.0f64;
    let mut windows = 0usize;
    let mut top = y0;
    while top < y1 {
        if top + SSIM_WINDOW <= height {
            let (band_sum, band_windows) = ssim_band(
                &scratch.la,
                &scratch.lb,
                width,
                top - y0,
                SSIM_WINDOW,
                SSIM_STRIDE,
                &mut scratch.cols,
                |_| true,
            );
            ssim += band_sum;
            windows += band_windows;
        }
        top += SSIM_STRIDE;
    }
    TilePartial { err, ssim, windows }
}

/// Folds the per-tile partials with the order-fixed pairwise tree and
/// finishes the three metrics.
fn finish_metrics(a: &Image, partials: Vec<TilePartial>) -> QualityMetrics {
    let total = tree_reduce(partials, TilePartial::combine).unwrap_or_default();
    let mse = total.err / (a.pixel_count() as f64 * 3.0);
    let ssim = if total.windows == 0 { 1.0 } else { (total.ssim / total.windows as f64).min(1.0) };
    QualityMetrics { mse, psnr: psnr_from_mse(mse), ssim }
}

/// Structural similarity index on the luminance plane, averaged over 8×8
/// windows with stride 4 (a dense sliding-window approximation).
///
/// Returns a value in `[-1, 1]`; `1` means identical. Computed by the fused
/// tiled engine, so it is bit-identical to
/// [`quality_metrics_parallel`]`.ssim` for every worker count.
///
/// # Panics
///
/// Panics when the two images have different dimensions or are smaller than
/// the 8×8 window.
pub fn ssim(a: &Image, b: &Image) -> f64 {
    quality_metrics(a, b).ssim
}

/// SSIM with an explicit window size and stride (sequential; window
/// statistics use the same column-sum band accumulation as the fused path).
///
/// # Panics
///
/// Panics when the images differ in size, or when `window` is zero or larger
/// than either image dimension, or `stride` is zero.
pub fn ssim_windowed(a: &Image, b: &Image, window: usize, stride: usize) -> f64 {
    assert_dims(a, b);
    assert!(window > 0 && stride > 0, "window and stride must be non-zero");
    assert!(window <= a.width() && window <= a.height(), "SSIM window larger than image");
    let width = a.width();
    let la = luminance_rows(a, 0, a.height());
    let lb = luminance_rows(b, 0, b.height());
    let mut cols = ColumnSums::new(width);
    let mut total = 0.0f64;
    let mut count = 0usize;
    let mut y = 0;
    while y + window <= a.height() {
        let (band_sum, band_windows) =
            ssim_band(&la, &lb, width, y, window, stride, &mut cols, |_| true);
        total += band_sum;
        count += band_windows;
        y += stride;
    }
    if count == 0 {
        return 1.0;
    }
    (total / count as f64).min(1.0)
}

/// The luminance rows `y0..y1` of an image, as an `f64` plane.
pub(crate) fn luminance_rows(img: &Image, y0: usize, y1: usize) -> Vec<f64> {
    let width = img.width();
    img.pixels()[y0 * width..y1 * width].iter().map(|c| c.luminance() as f64).collect()
}

/// Rebuilds the luminance rows `y0..y1` into `buf`, reusing its capacity.
/// Returns whether the buffer had to grow (counted by [`MetricsScratch`]).
pub(crate) fn luminance_rows_into(img: &Image, y0: usize, y1: usize, buf: &mut Vec<f64>) -> bool {
    let width = img.width();
    let grew = buf.capacity() < (y1 - y0) * width;
    buf.clear();
    buf.extend(img.pixels()[y0 * width..y1 * width].iter().map(|c| c.luminance() as f64));
    grew
}

/// Reusable working memory of the fused metrics engine: the two tile
/// luminance planes and the band column sums. One scratch per pool worker
/// (or one per caller for the sequential [`quality_metrics_scratch`] path)
/// makes steady-state scoring allocation-free; [`Self::allocations`] counts
/// every buffer growth so the reuse shows up as a measured number in the
/// dispatch bench.
#[derive(Debug, Default)]
pub struct MetricsScratch {
    la: Vec<f64>,
    lb: Vec<f64>,
    cols: ColumnSums,
    allocations: u64,
}

impl MetricsScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many times any internal buffer had to (re)allocate so far.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }
}

/// Finishes a single-pass first/second-moment accumulation: returns the mean
/// and the **raw** (unclamped) variance `E[x²] − E[x]²`. Shared by the SSIM
/// windows and the LPIPS-proxy cell features, so both layers walk their
/// inputs exactly once.
pub(crate) fn single_pass_moments(sum: f64, sum_sq: f64, n: f64) -> (f64, f64) {
    let mean = sum / n;
    (mean, sum_sq / n - mean * mean)
}

/// Reusable per-column accumulators of one window band.
#[derive(Debug, Default)]
struct ColumnSums {
    a: Vec<f64>,
    b: Vec<f64>,
    aa: Vec<f64>,
    bb: Vec<f64>,
    ab: Vec<f64>,
}

impl ColumnSums {
    fn new(width: usize) -> Self {
        Self {
            a: vec![0.0; width],
            b: vec![0.0; width],
            aa: vec![0.0; width],
            bb: vec![0.0; width],
            ab: vec![0.0; width],
        }
    }

    /// Widens the accumulators to at least `width` columns; returns whether
    /// they had to grow. Bands only touch columns `0..width`, so a wider
    /// reused buffer never changes results.
    fn ensure(&mut self, width: usize) -> bool {
        if self.a.len() >= width {
            return false;
        }
        for buf in [&mut self.a, &mut self.b, &mut self.aa, &mut self.bb, &mut self.ab] {
            buf.resize(width, 0.0);
        }
        true
    }

    fn reset(&mut self) {
        for buf in [&mut self.a, &mut self.b, &mut self.aa, &mut self.bb, &mut self.ab] {
            buf.fill(0.0);
        }
    }
}

/// Accumulates the SSIM scores of the windows in the band whose top row is
/// `top` (an index into the `la`/`lb` planes) that `keep` selects (by the
/// window's left column): one pass over the band's rows builds per-column
/// sums of the five window statistics, then each kept window sums its
/// `window` columns. Column-first accumulation is the documented
/// deterministic reduction order of the fused SSIM.
#[allow(clippy::too_many_arguments)]
fn ssim_band(
    la: &[f64],
    lb: &[f64],
    width: usize,
    top: usize,
    window: usize,
    stride: usize,
    cols: &mut ColumnSums,
    mut keep: impl FnMut(usize) -> bool,
) -> (f64, usize) {
    cols.reset();
    for wy in 0..window {
        let row = (top + wy) * width;
        for x in 0..width {
            let va = la[row + x];
            let vb = lb[row + x];
            cols.a[x] += va;
            cols.b[x] += vb;
            cols.aa[x] += va * va;
            cols.bb[x] += vb * vb;
            cols.ab[x] += va * vb;
        }
    }
    let n = (window * window) as f64;
    let mut total = 0.0f64;
    let mut count = 0usize;
    let mut x = 0;
    while x + window <= width {
        if !keep(x) {
            x += stride;
            continue;
        }
        let (mut sa, mut sb, mut saa, mut sbb, mut sab) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for wx in x..x + window {
            sa += cols.a[wx];
            sb += cols.b[wx];
            saa += cols.aa[wx];
            sbb += cols.bb[wx];
            sab += cols.ab[wx];
        }
        let (mu_a, var_a) = single_pass_moments(sa, saa, n);
        let (mu_b, var_b) = single_pass_moments(sb, sbb, n);
        let cov = sab / n - mu_a * mu_b;
        let numerator = (2.0 * mu_a * mu_b + C1) * (2.0 * cov + C2);
        let denominator = (mu_a * mu_a + mu_b * mu_b + C1) * (var_a + var_b + C2);
        total += numerator / denominator;
        count += 1;
        x += stride;
    }
    (total, count)
}

/// SSIM restricted to the pixels selected by `mask` (windows whose centre is
/// inside the mask). Used for the paper's "high-frequency detail region"
/// scores in Fig. 4.
///
/// Computed on the same column-sum band machinery as the fused
/// [`quality_metrics`] engine: each band's statistics are accumulated once
/// and the mask only gates which windows are scored, so a dense mask costs
/// no more than unmasked SSIM. Like the fused path, window variances are
/// unclamped (identical inputs score exactly `1.0`) and the column-first
/// accumulation is a documented deterministic reduction order — values
/// agree with a naive per-window row-major walk to reduction-order
/// tolerance (~1e-12 per window; pinned by a test against the naive walk),
/// not necessarily to the last bit.
///
/// # Panics
///
/// Panics when images or mask dimensions disagree.
pub fn ssim_masked(a: &Image, b: &Image, mask: &crate::mask::Mask) -> f64 {
    assert_dims(a, b);
    assert!(
        mask.width() == a.width() && mask.height() == a.height(),
        "mask dimensions must match the images"
    );
    let window = SSIM_WINDOW;
    let stride = SSIM_STRIDE;
    if window > a.width() || window > a.height() {
        // Too small for the standard window: score the largest square
        // window that fits instead of panicking in `ssim`'s size assert.
        return ssim_windowed(a, b, a.width().min(a.height()), 1);
    }

    let la = luminance_rows(a, 0, a.height());
    let lb = luminance_rows(b, 0, b.height());
    let width = a.width();
    let mut cols = ColumnSums::new(width);

    let mut total = 0.0f64;
    let mut count = 0usize;
    let mut y = 0;
    while y + window <= a.height() {
        // The band's column sums cost O(width·window) regardless of the
        // mask, so a band the mask skips entirely must not pay them —
        // sparse detail masks would otherwise be slower than the old
        // per-window walk.
        let keep = |x: usize| mask.get(x + window / 2, y + window / 2);
        if (0..=width - window).step_by(stride).any(keep) {
            let (band_sum, band_windows) =
                ssim_band(&la, &lb, width, y, window, stride, &mut cols, keep);
            total += band_sum;
            count += band_windows;
        }
        y += stride;
    }
    if count == 0 {
        // Mask selected no windows: fall back to the whole image.
        return ssim(a, b);
    }
    (total / count as f64).min(1.0)
}

fn assert_dims(a: &Image, b: &Image) {
    assert!(
        a.width() == b.width() && a.height() == b.height(),
        "image dimensions mismatch: {}x{} vs {}x{}",
        a.width(),
        a.height(),
        b.width(),
        b.height()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Color;
    use crate::mask::Mask;

    fn noisy(base: &Image, amplitude: f32) -> Image {
        // Deterministic "noise" via a hash of the pixel index.
        Image::from_fn(base.width(), base.height(), |x, y| {
            let h = ((x * 92821 + y * 68917) % 1000) as f32 / 1000.0 - 0.5;
            let p = base.get(x, y);
            Color::new(p.r + h * amplitude, p.g + h * amplitude, p.b + h * amplitude).clamped()
        })
    }

    fn test_pattern() -> Image {
        Image::from_fn(64, 64, |x, y| {
            Color::gray(0.5 + 0.4 * ((x as f32 * 0.3).sin() * (y as f32 * 0.2).cos()))
        })
    }

    #[test]
    fn identical_images_are_perfect() {
        let img = test_pattern();
        assert_eq!(mse(&img, &img), 0.0);
        assert_eq!(psnr(&img, &img), f64::INFINITY);
        assert_eq!(ssim(&img, &img), 1.0);
        let fused = quality_metrics(&img, &img);
        assert_eq!(fused.mse, 0.0);
        assert_eq!(fused.psnr, f64::INFINITY);
        assert_eq!(fused.ssim, 1.0);
    }

    #[test]
    fn fused_metrics_match_the_standalone_functions() {
        let img = test_pattern();
        let other = noisy(&img, 0.2);
        let fused = quality_metrics(&img, &other);
        // MSE/PSNR: same per-pixel terms, tiled tree association — equal up
        // to floating-point reassociation.
        assert!((fused.mse - mse(&img, &other)).abs() < 1e-12);
        assert!((fused.psnr - psnr(&img, &other)).abs() < 1e-9);
        // SSIM: `ssim` is defined as the fused engine's output.
        assert_eq!(fused.ssim.to_bits(), ssim(&img, &other).to_bits());
        // And the band machinery agrees with the explicit-window API.
        assert!((fused.ssim - ssim_windowed(&img, &other, 8, 4)).abs() < 1e-12);
    }

    #[test]
    fn fused_metrics_are_bit_identical_for_every_worker_count() {
        // The determinism contract of the tiled metrics reduction: worker
        // count never changes a single output bit, including on odd sizes
        // that split unevenly into tiles.
        for (w, h) in [(64, 64), (61, 45), (128, 37), (9, 97)] {
            let a = Image::from_fn(w, h, |x, y| {
                Color::new(
                    0.5 + 0.4 * ((x * 3 + y) as f32 * 0.11).sin(),
                    0.5 + 0.3 * ((x + 2 * y) as f32 * 0.07).cos(),
                    ((x * y) % 17) as f32 / 17.0,
                )
            });
            let b = noisy(&a, 0.15);
            let reference = quality_metrics_parallel(&a, &b, 1);
            for workers in [2, 4, 7, 0] {
                let got = quality_metrics_parallel(&a, &b, workers);
                assert_eq!(got.mse.to_bits(), reference.mse.to_bits(), "mse {w}x{h} w{workers}");
                assert_eq!(got.psnr.to_bits(), reference.psnr.to_bits(), "psnr {w}x{h} w{workers}");
                assert_eq!(got.ssim.to_bits(), reference.ssim.to_bits(), "ssim {w}x{h} w{workers}");
            }
        }
    }

    #[test]
    fn metrics_degrade_monotonically_with_noise() {
        let img = test_pattern();
        let slightly = noisy(&img, 0.05);
        let very = noisy(&img, 0.4);
        assert!(psnr(&img, &slightly) > psnr(&img, &very));
        assert!(ssim(&img, &slightly) > ssim(&img, &very));
        assert!(mse(&img, &slightly) < mse(&img, &very));
    }

    #[test]
    fn psnr_known_value_for_uniform_error() {
        let a = Image::new(16, 16, Color::gray(0.5));
        let b = Image::new(16, 16, Color::gray(0.6));
        // MSE = 0.01 exactly, so PSNR = 10*log10(1/0.01) = 20 dB.
        assert!((psnr(&a, &b) - 20.0).abs() < 1e-3);
        assert!((quality_metrics(&a, &b).psnr - 20.0).abs() < 1e-3);
    }

    #[test]
    fn ssim_is_symmetric_and_bounded() {
        let a = test_pattern();
        let b = noisy(&a, 0.2);
        let s1 = ssim(&a, &b);
        let s2 = ssim(&b, &a);
        assert!((s1 - s2).abs() < 1e-9);
        assert!(s1 > 0.0 && s1 < 1.0);
    }

    #[test]
    fn ssim_penalises_structural_change_more_than_brightness_shift() {
        let a = test_pattern();
        // Global brightness shift keeps structure.
        let shifted = Image::from_fn(64, 64, |x, y| {
            let p = a.get(x, y);
            Color::new(p.r + 0.1, p.g + 0.1, p.b + 0.1).clamped()
        });
        // Scrambled rows destroy structure with a similar per-pixel error scale.
        let scrambled = Image::from_fn(64, 64, |x, y| a.get(x, (y * 7 + 13) % 64));
        assert!(ssim(&a, &shifted) > ssim(&a, &scrambled));
    }

    #[test]
    fn masked_ssim_targets_degraded_region() {
        let a = test_pattern();
        // Degrade only the right half.
        let b = Image::from_fn(64, 64, |x, y| if x >= 32 { Color::gray(0.5) } else { a.get(x, y) });
        let right = Mask::from_fn(64, 64, |x, _| x >= 32);
        let left = Mask::from_fn(64, 64, |x, _| x < 32);
        assert!(ssim_masked(&a, &b, &right) < ssim_masked(&a, &b, &left));
        assert!(ssim_masked(&a, &b, &left) > 0.95);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn dimension_mismatch_panics() {
        let a = Image::new(8, 8, Color::BLACK);
        let b = Image::new(9, 8, Color::BLACK);
        let _ = mse(&a, &b);
    }

    #[test]
    #[should_panic(expected = "window larger")]
    fn oversized_window_panics() {
        let a = Image::new(4, 4, Color::BLACK);
        let _ = ssim_windowed(&a, &a, 8, 4);
    }

    #[test]
    #[should_panic(expected = "window larger")]
    fn fused_metrics_panic_below_window_size() {
        let a = Image::new(4, 4, Color::BLACK);
        let _ = quality_metrics(&a, &a);
    }

    /// The pre-fusion reference: every selected window re-read from scratch
    /// in row-major order. Kept as the ground truth the fused band
    /// implementation is pinned against.
    fn ssim_masked_naive(a: &Image, b: &Image, mask: &Mask) -> f64 {
        let window = SSIM_WINDOW;
        let stride = SSIM_STRIDE;
        let la = luminance_rows(a, 0, a.height());
        let lb = luminance_rows(b, 0, b.height());
        let width = a.width();
        let mut total = 0.0f64;
        let mut count = 0usize;
        let mut y = 0;
        while y + window <= a.height() {
            let mut x = 0;
            while x + window <= width {
                if mask.get(x + window / 2, y + window / 2) {
                    let (mut sum_a, mut sum_b, mut sum_aa, mut sum_bb, mut sum_ab) =
                        (0.0, 0.0, 0.0, 0.0, 0.0);
                    for wy in 0..window {
                        for wx in 0..window {
                            let va = la[(y + wy) * width + (x + wx)];
                            let vb = lb[(y + wy) * width + (x + wx)];
                            sum_a += va;
                            sum_b += vb;
                            sum_aa += va * va;
                            sum_bb += vb * vb;
                            sum_ab += va * vb;
                        }
                    }
                    let n = (window * window) as f64;
                    let mu_a = sum_a / n;
                    let mu_b = sum_b / n;
                    let var_a = sum_aa / n - mu_a * mu_a;
                    let var_b = sum_bb / n - mu_b * mu_b;
                    let cov = sum_ab / n - mu_a * mu_b;
                    total += ((2.0 * mu_a * mu_b + C1) * (2.0 * cov + C2))
                        / ((mu_a * mu_a + mu_b * mu_b + C1) * (var_a + var_b + C2));
                    count += 1;
                }
                x += stride;
            }
            y += stride;
        }
        if count == 0 {
            return ssim(a, b);
        }
        (total / count as f64).min(1.0)
    }

    #[test]
    fn masked_ssim_matches_the_naive_window_walk() {
        // The fused band machinery accumulates window statistics
        // column-first; the naive walk reads each window row-major. Both are
        // the same windows and terms, so the values must agree to the
        // documented reduction-order tolerance on a variety of masks.
        let a = test_pattern();
        let b = noisy(&a, 0.2);
        let masks = [
            Mask::from_fn(64, 64, |_, _| true),
            Mask::from_fn(64, 64, |x, _| x >= 32),
            Mask::from_fn(64, 64, |x, y| (x / 8 + y / 8) % 2 == 0),
            Mask::from_fn(64, 64, |x, y| x % 5 == 0 && y % 3 == 0),
        ];
        for (i, mask) in masks.iter().enumerate() {
            let fused = ssim_masked(&a, &b, mask);
            let naive = ssim_masked_naive(&a, &b, mask);
            assert!(
                (fused - naive).abs() < 1e-12,
                "mask {i}: fused {fused} vs naive {naive} exceeds reduction-order tolerance"
            );
        }
        // A dense mask selects every window: masked == unmasked band SSIM.
        let all = Mask::from_fn(64, 64, |_, _| true);
        assert_eq!(
            ssim_masked(&a, &b, &all).to_bits(),
            ssim_windowed(&a, &b, SSIM_WINDOW, SSIM_STRIDE).to_bits(),
            "a full mask must reproduce the unmasked band walk bit for bit"
        );
    }

    #[test]
    fn scratch_path_is_bit_identical_and_stops_allocating() {
        let pairs: Vec<(Image, Image)> = [(64, 64), (61, 45), (128, 37), (9, 97)]
            .into_iter()
            .map(|(w, h)| {
                let a = Image::from_fn(w, h, |x, y| {
                    Color::gray(0.5 + 0.4 * ((x as f32 * 0.3).sin() * (y as f32 * 0.2).cos()))
                });
                let b = noisy(&a, 0.2);
                (a, b)
            })
            .collect();
        let mut scratch = MetricsScratch::new();
        for (a, b) in &pairs {
            let got = quality_metrics_scratch(a, b, LaneWidth::X4, &mut scratch);
            let want = quality_metrics_parallel(a, b, 1);
            assert_eq!(got.mse.to_bits(), want.mse.to_bits());
            assert_eq!(got.psnr.to_bits(), want.psnr.to_bits());
            assert_eq!(got.ssim.to_bits(), want.ssim.to_bits());
        }
        // Every buffer has seen the largest tile by now: re-scoring the
        // whole set must reuse them all without a single new allocation.
        let before = scratch.allocations();
        assert!(before > 0, "first passes must have grown the buffers");
        for (a, b) in &pairs {
            let _ = quality_metrics_scratch(a, b, LaneWidth::X4, &mut scratch);
        }
        assert_eq!(scratch.allocations(), before, "steady-state scoring must not allocate");
    }

    #[test]
    fn masked_ssim_falls_back_gracefully_on_tiny_images() {
        // Images smaller than the 8×8 window must score, not panic.
        let a = Image::new(4, 4, Color::gray(0.5));
        let b = Image::new(4, 4, Color::gray(0.7));
        let mask = Mask::from_fn(4, 4, |_, _| true);
        assert_eq!(ssim_masked(&a, &a, &mask), 1.0);
        let s = ssim_masked(&a, &b, &mask);
        assert!(s < 1.0 && s > -1.0);
    }
}
