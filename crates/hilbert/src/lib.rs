//! # betalike-hilbert
//!
//! A self-contained Hilbert space-filling-curve implementation used by the
//! BUREL anonymizer (Section 4.5 of *Publishing Microdata with a Robust
//! Privacy Guarantee*, VLDB 2012): tuples are mapped from the
//! multidimensional QI space to one-dimensional Hilbert values, so that
//! tuples close in QI space are likely to receive nearby Hilbert values and
//! the greedy EC-filling procedure picks tuples with small bounding boxes.
//!
//! The implementation follows John Skilling's transpose algorithm
//! (*Programming the Hilbert curve*, AIP Conf. Proc. 707, 2004): coordinates
//! are transformed in place between axes form and "transpose" form, and the
//! transpose form is bit-interleaved into a single `u128` key.
//! [`HilbertCurve::index`] does this one point at a time, bit by bit, and
//! is the reference; [`KeyKernel`] is the bulk form every key builder in
//! the workspace uses (code tables, a branch-free transpose, a
//! table-driven interleave), pinned to the reference on every curve shape.
//!
//! **Limits.** A curve needs `dims ≥ 1` and `bits` in `1..=32`, and the key
//! must fit its `u128` carrier: `dims × bits ≤ 128`. So 16 dimensions are
//! possible at up to 8 bits each, and the full 32 bits are possible up to 4
//! dimensions ([`HilbertCurve::new`] returns [`HilbertError::BadBits`] /
//! [`HilbertError::KeyOverflow`] otherwise).
//!
//! ```
//! use betalike_hilbert::HilbertCurve;
//!
//! let curve = HilbertCurve::new(2, 4).unwrap();
//! let key = curve.index(&[3, 5]);
//! assert_eq!(curve.point(key), vec![3, 5]);
//! ```

// Backstops betalike-lint rule P2: stronger than the workspace-level
// `unsafe_code = "deny"` because `forbid` cannot be overridden locally.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::fmt;

/// Errors raised by [`HilbertCurve::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HilbertError {
    /// `dims` was zero.
    ZeroDims,
    /// `bits` was zero or above 32.
    BadBits(u32),
    /// `dims * bits` exceeded 128, the key width.
    KeyOverflow {
        /// Requested dimensions.
        dims: usize,
        /// Requested bits per dimension.
        bits: u32,
    },
}

impl fmt::Display for HilbertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HilbertError::ZeroDims => write!(f, "hilbert curve needs at least one dimension"),
            HilbertError::BadBits(b) => write!(f, "bits per dimension must be in 1..=32, got {b}"),
            HilbertError::KeyOverflow { dims, bits } => write!(
                f,
                "dims * bits = {} exceeds the 128-bit key width",
                *dims as u64 * *bits as u64
            ),
        }
    }
}

impl std::error::Error for HilbertError {}

/// A Hilbert curve over a `dims`-dimensional grid of side `2^bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HilbertCurve {
    dims: usize,
    bits: u32,
}

impl HilbertCurve {
    /// Creates a curve over `dims` dimensions with `bits` bits each.
    ///
    /// # Errors
    ///
    /// See [`HilbertError`].
    pub fn new(dims: usize, bits: u32) -> Result<Self, HilbertError> {
        if dims == 0 {
            return Err(HilbertError::ZeroDims);
        }
        if bits == 0 || bits > 32 {
            return Err(HilbertError::BadBits(bits));
        }
        if dims as u64 * bits as u64 > 128 {
            return Err(HilbertError::KeyOverflow { dims, bits });
        }
        Ok(HilbertCurve { dims, bits })
    }

    /// Smallest number of bits so a domain of `cardinality` codes fits on the
    /// grid side (at least 1).
    pub fn bits_for_cardinality(cardinality: usize) -> u32 {
        let c = cardinality.max(2) as u64;
        64 - (c - 1).leading_zeros()
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Bits per dimension.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest valid coordinate (`2^bits − 1`).
    #[inline]
    pub fn max_coord(&self) -> u32 {
        if self.bits == 32 {
            u32::MAX
        } else {
            (1u32 << self.bits) - 1
        }
    }

    /// Largest index on the curve (`2^(dims·bits) − 1`).
    #[inline]
    pub fn max_index(&self) -> u128 {
        let total = self.dims as u32 * self.bits;
        if total == 128 {
            u128::MAX
        } else {
            (1u128 << total) - 1
        }
    }

    /// Maps a point to its position along the Hilbert curve.
    ///
    /// The one-point reference form of the transform: it allocates a
    /// scratch copy of `point` and runs Skilling's algorithm bit by bit.
    /// Bulk callers use [`KeyKernel`], which tests pin to this.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != dims` or any coordinate exceeds
    /// [`Self::max_coord`].
    pub fn index(&self, point: &[u32]) -> u128 {
        assert_eq!(point.len(), self.dims, "point has wrong dimensionality");
        let max = self.max_coord();
        assert!(
            point.iter().all(|&c| c <= max),
            "coordinate exceeds the grid side"
        );
        let mut x: Vec<u32> = point.to_vec();
        self.axes_to_transpose(&mut x);
        self.interleave(&x)
    }

    /// Maps a curve position back to its point.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`Self::max_index`].
    pub fn point(&self, index: u128) -> Vec<u32> {
        let mut out = vec![0u32; self.dims];
        self.point_into(index, &mut out);
        out
    }

    /// Like [`Self::point`] but writes into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`Self::max_index`] or the buffer length is
    /// not `dims`.
    pub fn point_into(&self, index: u128, out: &mut [u32]) {
        assert_eq!(
            out.len(),
            self.dims,
            "output buffer has wrong dimensionality"
        );
        assert!(index <= self.max_index(), "index beyond the curve");
        self.deinterleave(index, out);
        self.transpose_to_axes(out);
    }

    /// Skilling's AxestoTranspose: converts coordinates into the transpose
    /// representation of the Hilbert index.
    fn axes_to_transpose(&self, x: &mut [u32]) {
        let n = x.len();
        if self.bits < 2 && n == 1 {
            return;
        }
        // With one bit per dimension only the Gray-code step applies;
        // fall through: the loop below is skipped since m == 1.
        let m = 1u32 << (self.bits - 1);
        // Inverse undo.
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            for i in 0..n {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q >>= 1;
        }
        // Gray encode.
        for i in 1..n {
            x[i] ^= x[i - 1];
        }
        let mut t = 0u32;
        q = m;
        while q > 1 {
            if x[n - 1] & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        for xi in x.iter_mut() {
            *xi ^= t;
        }
    }

    /// Skilling's TransposetoAxes: inverse of [`Self::axes_to_transpose`].
    fn transpose_to_axes(&self, x: &mut [u32]) {
        let n = x.len();
        if self.bits < 2 && n == 1 {
            return;
        }
        let top = 2u64 << (self.bits - 1);
        // Gray decode by H ^ (H/2).
        let t = x[n - 1] >> 1;
        for i in (1..n).rev() {
            x[i] ^= x[i - 1];
        }
        x[0] ^= t;
        // Undo excess work.
        let mut q = 2u64;
        while q != top {
            let p = (q - 1) as u32;
            let qb = q as u32;
            for i in (0..n).rev() {
                if x[i] & qb != 0 {
                    x[0] ^= p;
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q <<= 1;
        }
    }

    /// Packs the transpose form into a single key, most significant bit
    /// first: bit `b-1` of `x[0]`, bit `b-1` of `x[1]`, …, bit `0` of
    /// `x[n-1]`.
    fn interleave(&self, x: &[u32]) -> u128 {
        let mut key = 0u128;
        for pos in (0..self.bits).rev() {
            for &xi in x {
                key = (key << 1) | u128::from((xi >> pos) & 1);
            }
        }
        key
    }

    /// Inverse of [`Self::interleave`].
    fn deinterleave(&self, key: u128, x: &mut [u32]) {
        x.fill(0);
        let total = self.bits * self.dims as u32;
        let mut shift = total;
        for pos in (0..self.bits).rev() {
            for xi in x.iter_mut() {
                shift -= 1;
                *xi |= (((key >> shift) & 1) as u32) << pos;
            }
        }
    }
}

/// Rows [`KeyKernel`] transforms together: every step of the transform
/// runs across a block of rows at once, a loop the compiler vectorizes.
const BLOCK: usize = 64;

/// Bulk Hilbert keys for rows of small integer codes: the transform of
/// [`HilbertCurve::index`], rebuilt for throughput.
///
/// * Each dimension maps its codes to grid coordinates through a table
///   built once, instead of scaling (a division) per value.
/// * Skilling's transpose runs with bit masks instead of branches, on
///   blocks of rows at once.
/// * The transpose form is interleaved by table lookup, a byte of each
///   coordinate at a time, instead of bit by bit.
///
/// Every key equals [`HilbertCurve::index`] of the looked-up point.
///
/// ```
/// use betalike_hilbert::{HilbertCurve, KeyKernel};
///
/// let curve = HilbertCurve::new(2, 4).unwrap();
/// // Dimension 0 spreads codes 0..=2 over the grid side; dimension 1 is
/// // the identity on 0..=15.
/// let kernel = KeyKernel::new(curve, vec![vec![0, 8, 15], (0..16).collect()]);
/// let (a, b) = ([2u32, 0, 1], [5u32, 9, 15]);
/// let mut keys = Vec::new();
/// kernel.extend_keys(&[&a, &b], 0..3, &mut keys);
/// assert_eq!(keys[0], curve.index(&[15, 5]));
/// assert_eq!(keys[2], curve.index(&[8, 15]));
/// ```
#[derive(Debug)]
pub struct KeyKernel {
    curve: HilbertCurve,
    /// Per dimension: code → grid coordinate.
    coords: Vec<Vec<u32>>,
    /// `spread[b]`: bit `j` of byte `b` moved to bit `j · dims`, for every
    /// byte value a coordinate of `bits` bits can hold.
    spread: Vec<u128>,
}

impl KeyKernel {
    /// A kernel over `curve` whose dimension `d` maps code `v` to the grid
    /// coordinate `coords[d][v]`.
    ///
    /// # Panics
    ///
    /// Panics if `coords.len() != curve.dims()` or any coordinate exceeds
    /// [`HilbertCurve::max_coord`].
    pub fn new(curve: HilbertCurve, coords: Vec<Vec<u32>>) -> Self {
        assert_eq!(
            coords.len(),
            curve.dims,
            "coordinate tables have wrong dimensionality"
        );
        let max = curve.max_coord();
        assert!(
            coords.iter().flatten().all(|&c| c <= max),
            "coordinate exceeds the grid side"
        );
        // Bytes of a coordinate hold at most `bits` bits, and bit `j` of a
        // coordinate lands at `j · dims < bits · dims ≤ 128`.
        let byte_bits = curve.bits.min(8);
        let spread = (0..1u32 << byte_bits)
            .map(|b| {
                (0..byte_bits)
                    .filter(|j| b >> j & 1 == 1)
                    .fold(0u128, |acc, j| acc | 1u128 << (j as usize * curve.dims))
            })
            .collect();
        KeyKernel {
            curve,
            coords,
            spread,
        }
    }

    /// Appends to `out` the key of every row in `rows`, where row `r` has
    /// code `cols[d][r]` on dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `cols.len() != dims`, a column is shorter than
    /// `rows.end`, or a code has no coordinate.
    pub fn extend_keys(&self, cols: &[&[u32]], rows: std::ops::Range<usize>, out: &mut Vec<u128>) {
        assert_eq!(
            cols.len(),
            self.curve.dims,
            "columns have wrong dimensionality"
        );
        // `x[d][j]`: dimension `d` of the block's row `j`. Slots past a
        // short last block keep earlier coordinates and are ignored.
        let mut x = vec![[0u32; BLOCK]; self.curve.dims];
        let mut keys = [0u128; BLOCK];
        out.reserve(rows.len());
        for lo in rows.clone().step_by(BLOCK) {
            let len = BLOCK.min(rows.end - lo);
            for (xd, (col, table)) in x.iter_mut().zip(cols.iter().zip(&self.coords)) {
                for (c, &code) in xd.iter_mut().zip(&col[lo..lo + len]) {
                    *c = table[code as usize];
                }
            }
            self.axes_to_transpose(&mut x);
            self.interleave(&x, &mut keys);
            out.extend_from_slice(&keys[..len]);
        }
    }

    /// [`HilbertCurve::axes_to_transpose`] on a block of points at once,
    /// with masks for branches: for each bit `k` from the top down, every
    /// coordinate whose bit `k` is set inverts the low bits of `x[0]`,
    /// and every other coordinate exchanges its low bits with `x[0]`'s.
    fn axes_to_transpose(&self, x: &mut [[u32; BLOCK]]) {
        let (head, rest) = x.split_first_mut().expect("a curve has dimensions");
        for k in (1..self.curve.bits).rev() {
            let low = (1u32 << k) - 1;
            // All ones where bit `k` of `v` is set.
            let set = |v: u32| 0u32.wrapping_sub(v >> k & 1);
            for v0 in head.iter_mut() {
                *v0 ^= low & set(*v0);
            }
            for xi in rest.iter_mut() {
                for (v0, vi) in head.iter_mut().zip(xi.iter_mut()) {
                    let s = set(*vi);
                    let t = (*v0 ^ *vi) & low & !s;
                    *v0 ^= (low & s) | t;
                    *vi ^= t;
                }
            }
        }
        // Gray encode: x[i] ^= x[i-1], in order.
        let mut last = *head;
        for xi in rest.iter_mut() {
            for (vi, prev) in xi.iter_mut().zip(&last) {
                *vi ^= prev;
            }
            last = *xi;
        }
        // Bit `j` of the correction is the parity of the bits of the last
        // coordinate above `j`: a suffix XOR of `x[n-1] >> 1`.
        for v in last.iter_mut() {
            let mut t = *v >> 1;
            for shift in [1, 2, 4, 8, 16] {
                t ^= t >> shift;
            }
            *v = t;
        }
        for xi in x.iter_mut() {
            for (vi, t) in xi.iter_mut().zip(&last) {
                *vi ^= t;
            }
        }
    }

    /// [`HilbertCurve::interleave`] a byte per lookup: coordinate `i`'s
    /// bit `j` lands at key bit `j · dims + (dims − 1 − i)`.
    fn interleave(&self, x: &[[u32; BLOCK]], keys: &mut [u128; BLOCK]) {
        let n = self.curve.dims;
        keys.fill(0);
        for (i, xi) in x.iter().enumerate() {
            for byte in 0..self.curve.bits.div_ceil(8) as usize {
                let shift = 8 * byte * n + (n - 1 - i);
                for (key, &v) in keys.iter_mut().zip(xi) {
                    *key |= self.spread[(v >> (8 * byte) & 0xff) as usize] << shift;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructor_validation() {
        assert_eq!(HilbertCurve::new(0, 4), Err(HilbertError::ZeroDims));
        assert_eq!(HilbertCurve::new(2, 0), Err(HilbertError::BadBits(0)));
        assert_eq!(HilbertCurve::new(2, 33), Err(HilbertError::BadBits(33)));
        assert_eq!(
            HilbertCurve::new(5, 32),
            Err(HilbertError::KeyOverflow { dims: 5, bits: 32 })
        );
        assert!(HilbertCurve::new(4, 32).is_ok());
        assert!(HilbertCurve::new(16, 8).is_ok());
    }

    /// The documented contract exactly: `bits` in `1..=32`, `dims ≥ 1`,
    /// `dims × bits ≤ 128` — probed at each boundary.
    #[test]
    fn constructor_boundaries() {
        // bits boundaries.
        assert!(HilbertCurve::new(1, 1).is_ok());
        assert!(HilbertCurve::new(1, 32).is_ok());
        assert_eq!(HilbertCurve::new(1, 33), Err(HilbertError::BadBits(33)));
        // Key-width boundary: 128 bits exactly is fine, 129 is not.
        assert!(HilbertCurve::new(128, 1).is_ok());
        assert_eq!(
            HilbertCurve::new(129, 1),
            Err(HilbertError::KeyOverflow { dims: 129, bits: 1 })
        );
        assert!(HilbertCurve::new(8, 16).is_ok());
        assert_eq!(
            HilbertCurve::new(9, 15),
            Err(HilbertError::KeyOverflow { dims: 9, bits: 15 })
        );
        // BadBits is reported before KeyOverflow when both would apply.
        assert_eq!(HilbertCurve::new(100, 0), Err(HilbertError::BadBits(0)));
        assert_eq!(HilbertCurve::new(100, 40), Err(HilbertError::BadBits(40)));
        // A maximal curve round-trips.
        let curve = HilbertCurve::new(128, 1).unwrap();
        let p: Vec<u32> = (0..128).map(|i| (i % 2) as u32).collect();
        assert_eq!(curve.point(curve.index(&p)), p);
    }

    #[test]
    fn bits_for_cardinality() {
        assert_eq!(HilbertCurve::bits_for_cardinality(0), 1);
        assert_eq!(HilbertCurve::bits_for_cardinality(1), 1);
        assert_eq!(HilbertCurve::bits_for_cardinality(2), 1);
        assert_eq!(HilbertCurve::bits_for_cardinality(3), 2);
        assert_eq!(HilbertCurve::bits_for_cardinality(4), 2);
        assert_eq!(HilbertCurve::bits_for_cardinality(79), 7);
        assert_eq!(HilbertCurve::bits_for_cardinality(128), 7);
        assert_eq!(HilbertCurve::bits_for_cardinality(129), 8);
    }

    #[test]
    fn canonical_2d_order_2_curve() {
        // The order-2 2D Hilbert curve visits these 16 cells; a classic
        // reference sequence (x, y).
        let curve = HilbertCurve::new(2, 2).unwrap();
        let expected = [
            (0, 0),
            (0, 1),
            (1, 1),
            (1, 0),
            (2, 0),
            (3, 0),
            (3, 1),
            (2, 1),
            (2, 2),
            (3, 2),
            (3, 3),
            (2, 3),
            (1, 3),
            (1, 2),
            (0, 2),
            (0, 3),
        ];
        let mut seen = std::collections::BTreeSet::new();
        let mut prev: Option<(u32, u32)> = None;
        for (h, _) in expected.iter().enumerate() {
            let p = curve.point(h as u128);
            let cell = (p[0], p[1]);
            assert!(seen.insert(cell), "cell revisited at {h}");
            if let Some((px, py)) = prev {
                let dist = cell.0.abs_diff(px) + cell.1.abs_diff(py);
                assert_eq!(dist, 1, "non-adjacent step at {h}");
            }
            prev = Some(cell);
            assert_eq!(curve.index(&[cell.0, cell.1]), h as u128);
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn full_coverage_and_adjacency_3d() {
        let curve = HilbertCurve::new(3, 2).unwrap();
        let total = curve.max_index() + 1;
        assert_eq!(total, 64);
        let mut seen = std::collections::BTreeSet::new();
        let mut prev: Option<Vec<u32>> = None;
        for h in 0..total {
            let p = curve.point(h);
            assert!(seen.insert(p.clone()), "cell visited twice");
            if let Some(q) = prev {
                // Consecutive curve positions must be grid neighbors
                // (Manhattan distance exactly 1) — the defining Hilbert
                // property.
                let dist: u32 = p.iter().zip(&q).map(|(&a, &b)| a.abs_diff(b)).sum();
                assert_eq!(dist, 1, "non-adjacent step at {h}");
            }
            prev = Some(p);
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn one_dimension_is_identity() {
        let curve = HilbertCurve::new(1, 8).unwrap();
        for v in [0u32, 1, 2, 100, 255] {
            assert_eq!(curve.index(&[v]), v as u128);
            assert_eq!(curve.point(v as u128), vec![v]);
        }
    }

    #[test]
    fn one_bit_two_dims_covers_grid() {
        let curve = HilbertCurve::new(2, 1).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for h in 0..4u128 {
            let p = curve.point(h);
            assert_eq!(curve.index(&p), h);
            seen.insert(p);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "wrong dimensionality")]
    fn index_wrong_dims_panics() {
        HilbertCurve::new(2, 2).unwrap().index(&[0]);
    }

    #[test]
    #[should_panic(expected = "exceeds the grid side")]
    fn index_out_of_grid_panics() {
        HilbertCurve::new(2, 2).unwrap().index(&[4, 0]);
    }

    #[test]
    #[should_panic(expected = "beyond the curve")]
    fn point_out_of_curve_panics() {
        HilbertCurve::new(2, 2).unwrap().point(16);
    }

    #[test]
    fn locality_beats_row_major_on_average() {
        // Average index-distance of horizontal grid neighbors should be far
        // smaller for Hilbert than the row-major stride; a coarse locality
        // check of the property BUREL relies on.
        let curve = HilbertCurve::new(2, 5).unwrap();
        let side = 32u32;
        let mut hilbert_sum: f64 = 0.0;
        let mut count = 0.0;
        for x in 0..side - 1 {
            for y in 0..side {
                let a = curve.index(&[x, y]);
                let b = curve.index(&[x + 1, y]);
                hilbert_sum += a.abs_diff(b) as f64;
                count += 1.0;
            }
        }
        let rowmajor_avg = side as f64;
        assert!(hilbert_sum / count < rowmajor_avg * 0.9);
    }

    /// Every curve the constructor accepts: `dims · bits ≤ 128`.
    fn every_curve() -> impl Iterator<Item = HilbertCurve> {
        (1..=128usize).flat_map(|dims| {
            (1..=(128 / dims).min(32) as u32)
                .map(move |bits| HilbertCurve::new(dims, bits).unwrap())
        })
    }

    #[test]
    fn every_curve_is_enumerated() {
        assert_eq!(every_curve().count(), 507);
        assert!(every_curve().any(|c| c.dims() == 4 && c.bits() == 32));
        assert!(every_curve().any(|c| c.dims() == 128 && c.bits() == 1));
    }

    #[test]
    fn kernel_keys_order_points() {
        let curve = HilbertCurve::new(2, 2).unwrap();
        let kernel = KeyKernel::new(curve, vec![(0..4).collect(), (0..4).collect()]);
        let pts = [[3u32, 0], [0, 0], [1, 1], [0, 1]];
        let (xs, ys): (Vec<u32>, Vec<u32>) = pts.iter().map(|p| (p[0], p[1])).unzip();
        let mut keys = Vec::new();
        kernel.extend_keys(&[&xs, &ys], 0..pts.len(), &mut keys);
        let mut order: Vec<usize> = (0..pts.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        // In Skilling's convention the first axis moves first:
        // (0,0)=0, (1,0)=1, (1,1)=2, (0,1)=3, … so the order is below.
        let sorted: Vec<[u32; 2]> = order.iter().map(|&i| pts[i]).collect();
        assert_eq!(sorted, vec![[0, 0], [1, 1], [0, 1], [3, 0]]);
    }

    /// Row ranges that start mid-block and span many blocks, with a short
    /// last block.
    #[test]
    fn kernel_matches_index_across_blocks() {
        let curve = HilbertCurve::new(3, 5).unwrap();
        let table: Vec<u32> = (0..32).rev().collect();
        let kernel = KeyKernel::new(curve, vec![table.clone(), table.clone(), table.clone()]);
        let cols: Vec<Vec<u32>> = (0..3u32)
            .map(|d| (0..1_000u32).map(|r| (r * (7 + 2 * d) + d) % 32).collect())
            .collect();
        let col_refs: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
        for rows in [0..1_000, 7..1_000, 130..131, 64..128, 5..5] {
            let mut keys = Vec::new();
            kernel.extend_keys(&col_refs, rows.clone(), &mut keys);
            assert_eq!(keys.len(), rows.len());
            for (key, r) in keys.into_iter().zip(rows) {
                let point: Vec<u32> = cols.iter().map(|c| table[c[r] as usize]).collect();
                assert_eq!(key, curve.index(&point), "row {r}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "wrong dimensionality")]
    fn kernel_wrong_dims_panics() {
        let kernel = KeyKernel::new(HilbertCurve::new(2, 2).unwrap(), vec![vec![0], vec![0]]);
        kernel.extend_keys(&[&[0]], 0..1, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "exceeds the grid side")]
    fn kernel_rejects_off_grid_coordinates() {
        KeyKernel::new(HilbertCurve::new(2, 2).unwrap(), vec![vec![0], vec![4]]);
    }

    proptest! {
        /// The bulk kernel equals the reference transform on every curve
        /// shape, for random points plus the grid's two extreme corners.
        #[test]
        fn kernel_matches_index_on_every_curve(raw in proptest::collection::vec(0u32..u32::MAX, 4 * 128)) {
            for curve in every_curve() {
                let n = curve.dims();
                let max = curve.max_coord();
                // Dimension d's table: four random coordinates, then 0
                // and the maximum; rows read the table in a shuffled order.
                let coords: Vec<Vec<u32>> = (0..n)
                    .map(|d| {
                        let mut t: Vec<u32> = (0..4).map(|r| raw[r * 128 + d] & max).collect();
                        t.extend([0, max]);
                        t
                    })
                    .collect();
                let codes = [3u32, 5, 1, 4, 0, 2];
                let cols: Vec<&[u32]> = vec![&codes[..]; n];
                let kernel = KeyKernel::new(curve, coords.clone());
                let mut keys = vec![7u128];
                kernel.extend_keys(&cols, 1..codes.len(), &mut keys);
                prop_assert_eq!(keys.len(), codes.len());
                for (r, &key) in keys.iter().enumerate().skip(1) {
                    let point: Vec<u32> = coords.iter().map(|t| t[codes[r] as usize]).collect();
                    prop_assert_eq!(key, curve.index(&point), "dims {} bits {} row {}", n, curve.bits(), r);
                }
            }
        }

        #[test]
        fn roundtrip_2d(x in 0u32..256, y in 0u32..256) {
            let curve = HilbertCurve::new(2, 8).unwrap();
            let h = curve.index(&[x, y]);
            prop_assert_eq!(curve.point(h), vec![x, y]);
        }

        #[test]
        fn roundtrip_5d(p in proptest::collection::vec(0u32..16, 5)) {
            let curve = HilbertCurve::new(5, 4).unwrap();
            let h = curve.index(&p);
            prop_assert_eq!(curve.point(h), p);
        }

        #[test]
        fn roundtrip_high_dims(p in proptest::collection::vec(0u32..4, 16)) {
            let curve = HilbertCurve::new(16, 2).unwrap();
            let h = curve.index(&p);
            prop_assert_eq!(curve.point(h), p);
        }

        #[test]
        fn index_is_injective(a in proptest::collection::vec(0u32..32, 3),
                              b in proptest::collection::vec(0u32..32, 3)) {
            let curve = HilbertCurve::new(3, 5).unwrap();
            let ha = curve.index(&a);
            let hb = curve.index(&b);
            prop_assert_eq!(ha == hb, a == b);
        }

        #[test]
        fn adjacent_indices_are_grid_neighbors(h in 0u128..4095) {
            let curve = HilbertCurve::new(2, 6).unwrap();
            let p = curve.point(h);
            let q = curve.point(h + 1);
            let dist: u32 = p.iter().zip(&q).map(|(&a, &b)| a.abs_diff(b)).sum();
            prop_assert_eq!(dist, 1);
        }

    }
}
