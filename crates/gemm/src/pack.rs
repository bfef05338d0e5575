//! Operand packing — the "data copy" component of GEMM wall-time.
//!
//! Before any floating-point work, blocks of `A` and `B` are copied into
//! thread-local buffers laid out so the micro-kernel reads them with unit
//! stride — unless they already fit L2 (see *When nothing is copied*
//! below):
//!
//! * `A` blocks (`mc×kc`) become a sequence of `MR`-row *micro-panels*,
//!   each stored column-by-column (`kc` steps of `MR` contiguous values),
//! * `B` blocks (`kc×nc`) become a sequence of `NR`-column micro-panels,
//!   each stored row-by-row (`kc` steps of `NR` contiguous values).
//!
//! Ragged edges are zero-padded to the full `MR`/`NR` width, which lets the
//! micro-kernel run unconditionally on full tiles; the zero columns simply
//! contribute nothing. This padding is also a real cost: vendor libraries
//! pay it too, and it is one reason many threads on a tiny matrix spend
//! almost all their time copying (paper §VI-D, Table VII).
//!
//! # When nothing is copied
//!
//! A copy pays for itself when a block is reused enough to amortise it,
//! or when its source would otherwise be re-fetched from beyond L2. When
//! a worker's operands already sit in L2 — its `ms×k` rows of `A` and
//! `k×ns` columns of `B` fit the half of L2 that `MC` is sized to
//! ([`crate::blocking::reads_in_place`]) — the blocked loop nest does not
//! copy them and its micro-kernel reads them where they lie, through
//! [`MatView::raw_parts`]: `A` in either layout (one of its strides is
//! always 1), and `B` when it is row-major (a `B` row's columns must be
//! adjacent for the kernel's vector loads) and its re-reads stay within
//! L2 ([`crate::blocking::reads_b_in_place`]: every row strip of `A`
//! re-reads a `B` strip one row stride at a time, where a packed strip is
//! a few contiguous pages). Only the ragged parts are still packed, into
//! their usual slots with the usual zero padding: the last `m % MR` rows
//! of `A` and the last `n % NR` columns of `B`. A transposed `B`, SYRK's
//! masked merge and NEON (no in-place kernel yet) pack as before. The FMAs run in the same order either way, so the results are
//! the same bits.
//!
//! # One routine, two primitives
//!
//! The two layouts are one: a `B` block packed `NR` columns at a time is
//! its transpose packed `NR` rows at a time, so [`pack_b`]`(v, nr, ·)` is
//! [`pack_a`]`(v.t(), nr, ·)` and both are `pack_panels`, the only packing
//! loop. It walks the strips and hands each to one of two per-ISA
//! primitives that live beside the micro-kernels ([`crate::isa::PanelFn`],
//! chosen by the same once-per-process [`crate::isa::KernelIsa::dispatched`]
//! detection, so hosts without AVX2/NEON get the scalar versions):
//!
//! | the strip's … are contiguous in storage | primitive | reached by |
//! | --- | --- | --- |
//! | rows along the depth (`cs == 1`) | **transpose**: `width` strided rows interleaved through in-register transposes | `pack_a` of a row-major `A` (every untransposed GEMM, SYRK's `A`); `pack_b` of a transposed `B` (SYRK's `Aᵀ`) |
//! | depth steps across the rows (`rs == 1`) | **copy**: one fixed-width row copy per depth step | `pack_b` of a row-major `B` (every untransposed GEMM); `pack_a` of a transposed `A` |
//!
//! There is no third, element-gather path, because a view with two
//! general strides cannot be built: [`MatView`]'s fields are private and
//! its constructors are [`MatView::row_major`] (column stride 1) and the
//! stride-preserving [`MatView::t`] and [`MatView::sub`], so one stride of
//! every view is 1 (both, for a single row or column, which either
//! primitive packs correctly). Packing is pure data movement: every ISA's
//! primitives write the same bytes, which the unit tests pin against a
//! plain `at(i, j)` loop.

use crate::isa::Kernel;
use crate::Element;

/// A read-only strided view of a dense matrix.
///
/// `at(i, j) = data[offset + i·rs + j·cs]`, with `rs == 1` or `cs == 1`
/// (see the module docs). Logical transposition is a stride swap, so
/// `Transpose::Yes` only changes which pack primitive a block reaches.
#[derive(Clone, Copy)]
pub struct MatView<'a, T> {
    data: &'a [T],
    offset: usize,
    rs: usize,
    cs: usize,
    rows: usize,
    cols: usize,
}

impl<'a, T: Element> MatView<'a, T> {
    /// View of a stored row-major `rows×cols` matrix with row stride `ld`.
    pub fn row_major(data: &'a [T], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= cols.max(1), "leading dimension too small");
        if rows > 0 && cols > 0 {
            assert!(
                data.len() >= (rows - 1) * ld + cols,
                "buffer too small for {rows}x{cols} view with ld {ld}"
            );
        }
        Self { data, offset: 0, rs: ld, cs: 1, rows, cols }
    }

    /// The transposed view (no data movement).
    pub fn t(self) -> Self {
        Self {
            data: self.data,
            offset: self.offset,
            rs: self.cs,
            cs: self.rs,
            rows: self.cols,
            cols: self.rows,
        }
    }

    /// Sub-view of `height×width` starting at `(r, c)`.
    ///
    /// # Panics
    /// If the sub-view leaves this one: every view's elements lie inside
    /// its slice, which is what [`MatView::raw_parts`] readers rely on.
    pub fn sub(self, r: usize, c: usize, height: usize, width: usize) -> Self {
        assert!(r + height <= self.rows && c + width <= self.cols, "sub-view out of bounds");
        Self {
            data: self.data,
            offset: self.offset + r * self.rs + c * self.cs,
            rs: self.rs,
            cs: self.cs,
            rows: height,
            cols: width,
        }
    }

    /// Number of rows in the view.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns in the view.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> T {
        self.data[self.offset + i * self.rs + j * self.cs]
    }

    /// The view's origin and its row and column strides, for a kernel that
    /// reads it where it lies: `at(i, j)` is `*origin.add(i·rs + j·cs)`,
    /// and for `i < rows`, `j < cols` that element is inside the slice the
    /// view was built on (its constructors check it), so the pointer may be
    /// read there and nowhere else.
    #[inline(always)]
    pub fn raw_parts(&self) -> (*const T, usize, usize) {
        (self.data.as_ptr().wrapping_add(self.offset), self.rs, self.cs)
    }
}

/// Pack `view` into micro-panels of `width` of its rows: strip `s` holds
/// rows `s·width..`, stored as `cols` steps of `width` contiguous values
/// (step `l` is column `l` of those rows), the last strip zero-padded to
/// the full width. The one packing loop: each strip is one call of a
/// [`Kernel`] primitive — the copy when the strip's rows are adjacent in
/// storage (`rs == 1`), the transpose when its columns are (`cs == 1`).
///
/// Returns the bytes written, padding included.
fn pack_panels<T: Element>(
    kernel: Kernel<T>,
    view: &MatView<'_, T>,
    width: usize,
    buf: &mut [T],
) -> u64 {
    debug_assert!(width > 0, "zero panel width");
    if width == 0 {
        return 0;
    }
    let (rows, depth) = (view.rows, view.cols);
    let needed = rows.div_ceil(width) * width * depth;
    assert!(buf.len() >= needed, "pack buffer too small");
    if needed == 0 {
        return 0;
    }
    let rows_adjacent = view.rs == 1;
    // Every constructor leaves a unit stride (see the module docs).
    assert!(rows_adjacent || view.cs == 1, "MatView with two general strides");
    for (strip, panel) in buf[..needed].chunks_exact_mut(width * depth).enumerate() {
        let r0 = strip * width;
        let live = (rows - r0).min(width);
        let src = &view.data[view.offset + r0 * view.rs..];
        if rows_adjacent {
            kernel.pack_copy(src, view.cs, live, depth, width, panel);
        } else {
            kernel.pack_transpose(src, view.rs, live, depth, width, panel);
        }
    }
    (needed * T::BYTES) as u64
}

/// Pack an `A` block (`mc×kc`) into `mr`-row micro-panels, each stored
/// column by column.
///
/// `buf` must hold at least `ceil(rows/mr)·mr·cols` elements. Returns the
/// number of *bytes* written (padding included) for copy accounting.
pub fn pack_a<T: Element>(block: &MatView<'_, T>, mr: usize, buf: &mut [T]) -> u64 {
    pack_panels(Kernel::dispatched(), block, mr, buf)
}

/// Pack a `B` block (`kc×nc`) into `nr`-column micro-panels, each stored
/// row by row — [`pack_a`] of the transposed view.
///
/// `buf` must hold at least `rows·ceil(cols/nr)·nr` elements. Returns the
/// number of bytes written (padding included).
pub fn pack_b<T: Element>(block: &MatView<'_, T>, nr: usize, buf: &mut [T]) -> u64 {
    pack_panels(Kernel::dispatched(), &block.t(), nr, buf)
}

/// Gather the even bit positions of `x` back into the low 32 bits.
#[inline]
fn compact1by1(x: u64) -> u64 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    x = (x | (x >> 16)) & 0xffff_ffff;
    x
}

/// The tile coordinate `(x, y)` of a Morton (Z-order) code: bits of `x`
/// occupy the even positions, bits of `y` the odd ones. Walking codes in
/// increasing order visits tiles along the recursive Z curve, which keeps
/// both the row- and column-neighbour of the previous tile hot in cache —
/// the order the `Algorithm::ZOrder` driver traverses macro-blocks in.
#[inline]
pub fn morton_decode(z: u64) -> (u32, u32) {
    (compact1by1(z) as u32, compact1by1(z >> 1) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::KernelIsa;

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn view_indexing_row_major() {
        let d = seq(12);
        let v = MatView::row_major(&d, 3, 4, 4);
        assert_eq!(v.at(0, 0), 0.0);
        assert_eq!(v.at(1, 2), 6.0);
        assert_eq!(v.at(2, 3), 11.0);
    }

    #[test]
    fn transposed_view_swaps_axes() {
        let d = seq(12);
        let v = MatView::row_major(&d, 3, 4, 4).t();
        assert_eq!(v.rows(), 4);
        assert_eq!(v.cols(), 3);
        assert_eq!(v.at(2, 1), 6.0); // original (1,2)
    }

    #[test]
    fn subview_offsets() {
        let d = seq(20);
        let v = MatView::row_major(&d, 4, 5, 5).sub(1, 2, 2, 3);
        assert_eq!(v.at(0, 0), 7.0);
        assert_eq!(v.at(1, 2), 14.0);
    }

    #[test]
    fn pack_a_exact_tiles() {
        // 4x3 block with MR = 2: strips [(rows 0-1), (rows 2-3)],
        // each stored column-major.
        let d = seq(12);
        let v = MatView::row_major(&d, 4, 3, 3);
        let mut buf = vec![-1.0; 12];
        let bytes = pack_a(&v, 2, &mut buf);
        assert_eq!(bytes, 12 * 8);
        assert_eq!(
            buf,
            vec![
                0.0, 3.0, 1.0, 4.0, 2.0, 5.0, // strip 0: cols of rows 0..2
                6.0, 9.0, 7.0, 10.0, 8.0, 11.0, // strip 1: rows 2..4
            ]
        );
    }

    #[test]
    fn pack_a_pads_ragged_strip_with_zeros() {
        // 3 rows, MR = 2 -> second strip has one live row + one zero row.
        let d = seq(6);
        let v = MatView::row_major(&d, 3, 2, 2);
        let mut buf = vec![-1.0; 8];
        pack_a(&v, 2, &mut buf);
        assert_eq!(buf, vec![0.0, 2.0, 1.0, 3.0, 4.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn pack_b_exact_tiles() {
        // 2x4 block with NR = 2: strips of 2 columns, stored row-major.
        let d = seq(8);
        let v = MatView::row_major(&d, 2, 4, 4);
        let mut buf = vec![-1.0; 8];
        let bytes = pack_b(&v, 2, &mut buf);
        assert_eq!(bytes, 8 * 8);
        assert_eq!(buf, vec![0.0, 1.0, 4.0, 5.0, 2.0, 3.0, 6.0, 7.0]);
    }

    #[test]
    fn pack_b_pads_ragged_strip_with_zeros() {
        let d = seq(6); // 2x3
        let v = MatView::row_major(&d, 2, 3, 3);
        let mut buf = vec![-1.0; 8];
        pack_b(&v, 2, &mut buf);
        assert_eq!(buf, vec![0.0, 1.0, 3.0, 4.0, 2.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn pack_transposed_equals_pack_of_transpose() {
        // Packing op(A) = Aᵀ through a stride-swapped view must equal
        // packing a materialised transpose.
        let d = seq(12); // stored 3x4
        let vt = MatView::row_major(&d, 3, 4, 4).t(); // logical 4x3
        let mut materialised = vec![0.0; 12];
        for i in 0..4 {
            for j in 0..3 {
                materialised[i * 3 + j] = d[j * 4 + i];
            }
        }
        let vm = MatView::row_major(&materialised, 4, 3, 3);
        let mut b1 = vec![0.0; 12];
        let mut b2 = vec![0.0; 12];
        pack_a(&vt, 2, &mut b1);
        pack_a(&vm, 2, &mut b2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn pack_b_unit_stride_fast_path_matches_strided_path() {
        // The same logical 5×7 matrix, once stored row-major (cs = 1,
        // the copy primitive) and once as the transpose of its
        // materialised transpose (cs = 5, the transpose primitive). Both
        // must pack alike, including ragged zero padding.
        let (k, n) = (5usize, 7usize);
        let dense: Vec<f64> = (0..k * n).map(|i| i as f64 * 1.5 - 10.0).collect();
        let mut transposed = vec![0.0; k * n];
        for i in 0..k {
            for j in 0..n {
                transposed[j * k + i] = dense[i * n + j];
            }
        }
        let fast = MatView::row_major(&dense, k, n, n);
        let strided = MatView::row_major(&transposed, n, k, k).t();
        for nr in [2usize, 3, 4, 8] {
            let len = k * n.div_ceil(nr) * nr;
            let mut b1 = vec![-1.0; len];
            let mut b2 = vec![-1.0; len];
            let bytes1 = pack_b(&fast, nr, &mut b1);
            let bytes2 = pack_b(&strided, nr, &mut b2);
            assert_eq!(b1, b2, "nr = {nr}");
            assert_eq!(bytes1, bytes2);
        }
    }

    #[test]
    fn pack_a_unit_stride_fast_path_matches_strided_path() {
        // Logical 7×5 A: unit row stride via a transposed view (the copy
        // primitive) vs its materialised row-major equivalent (the
        // transpose primitive).
        let (m, k) = (7usize, 5usize);
        let stored: Vec<f64> = (0..k * m).map(|i| (i as f64).sin() * 4.0).collect(); // k×m
        let mut materialised = vec![0.0; m * k];
        for i in 0..m {
            for j in 0..k {
                materialised[i * k + j] = stored[j * m + i];
            }
        }
        let fast = MatView::row_major(&stored, k, m, m).t(); // rs = 1
        let generic = MatView::row_major(&materialised, m, k, k); // rs = k
        for mr in [2usize, 4, 8] {
            let len = m.div_ceil(mr) * mr * k;
            let mut b1 = vec![-1.0; len];
            let mut b2 = vec![-1.0; len];
            let bytes1 = pack_a(&fast, mr, &mut b1);
            let bytes2 = pack_a(&generic, mr, &mut b2);
            assert_eq!(b1, b2, "mr = {mr}");
            assert_eq!(bytes1, bytes2);
        }
    }

    #[test]
    fn pack_fast_paths_zero_pad_subviews() {
        // A sub-view with an offset keeps the copy primitive honest
        // about offsets and padding.
        let d = seq(48); // 6x8
        let v = MatView::row_major(&d, 6, 8, 8).sub(1, 2, 4, 5); // cs = 1
        let mut buf = vec![-1.0; 4 * 8];
        pack_b(&v, 4, &mut buf);
        // Row 0 of the sub-view is d[1*8+2 ..][..5] = 10..15.
        assert_eq!(&buf[0..4], &[10.0, 11.0, 12.0, 13.0]);
        // Second strip holds the ragged column 14.0 + three zeros.
        assert_eq!(&buf[16..20], &[14.0, 0.0, 0.0, 0.0]);
    }

    /// Spread the low 32 bits of `x` into the even bit positions.
    fn part1by1(x: u64) -> u64 {
        let mut x = x & 0xffff_ffff;
        x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
        x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
        x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
        x = (x | (x << 2)) & 0x3333_3333_3333_3333;
        x = (x | (x << 1)) & 0x5555_5555_5555_5555;
        x
    }

    /// Morton code of `(x, y)`, the inverse of [`morton_decode`].
    fn morton_encode(x: u32, y: u32) -> u64 {
        part1by1(x as u64) | (part1by1(y as u64) << 1)
    }

    #[test]
    fn morton_codes_walk_the_z_curve() {
        // The canonical 2x2 Z: (0,0) (1,0) (0,1) (1,1) with x in the even
        // bits, then the next quadrant over.
        assert_eq!(morton_encode(0, 0), 0);
        assert_eq!(morton_encode(1, 0), 1);
        assert_eq!(morton_encode(0, 1), 2);
        assert_eq!(morton_encode(1, 1), 3);
        assert_eq!(morton_encode(2, 0), 4);
        assert_eq!(morton_encode(0, 2), 8);
        assert_eq!(morton_encode(u32::MAX, 0), 0x5555_5555_5555_5555);
        assert_eq!(morton_encode(0, u32::MAX), 0xaaaa_aaaa_aaaa_aaaa);
    }

    #[test]
    fn morton_decode_inverts_encode() {
        for &(x, y) in
            &[(0u32, 0u32), (1, 0), (0, 1), (7, 3), (123, 456), (u32::MAX, 17), (65535, 65536)]
        {
            assert_eq!(morton_decode(morton_encode(x, y)), (x, y));
        }
        for z in 0..256u64 {
            let (x, y) = morton_decode(z);
            assert_eq!(morton_encode(x, y), z);
        }
    }

    /// Bit-level access and bit-sensitive fill values for the reference
    /// test, per element type.
    trait BitElement: Element {
        /// Depth steps one SIMD register block covers (the widest ISA's).
        const LANE: usize;
        fn from_pattern(bits: u64) -> Self;
        fn bits(self) -> u64;
    }
    impl BitElement for f32 {
        const LANE: usize = 8;
        fn from_pattern(bits: u64) -> Self {
            f32::from_bits(bits as u32)
        }
        fn bits(self) -> u64 {
            self.to_bits() as u64
        }
    }
    impl BitElement for f64 {
        const LANE: usize = 4;
        fn from_pattern(bits: u64) -> Self {
            f64::from_bits(bits)
        }
        fn bits(self) -> u64 {
            self.to_bits()
        }
    }

    /// Element `i` of a source buffer: all distinct, cycling through the
    /// values a copy that is not bit-exact would change (−0.0 first, then
    /// quiet NaNs with a payload and either sign, subnormals) between
    /// ordinary numbers.
    fn bit_sensitive<T: BitElement>(i: usize) -> T {
        let top = T::BYTES * 8 - 1; // sign bit; exponent starts below it
        let quiet_nan = if T::BYTES == 4 { 0x7fc0_0000u64 } else { 0x7ff8_0000_0000_0000u64 };
        let n = i as u64 + 1;
        match i % 5 {
            0 if i == 0 => T::from_pattern(1 << top),       // −0.0
            0 => T::from_pattern(n),                        // subnormal
            1 => T::from_pattern(quiet_nan | n),            // NaN, payload n
            2 => T::from_pattern(1 << top | quiet_nan | n), // −NaN, payload n
            // Ordinary values: a biased exponent of 1 upward over an
            // index-valued mantissa.
            _ => T::from_pattern((n % 64 + 1) << (if T::BYTES == 4 { 23 } else { 52 }) | n),
        }
    }

    /// What a slot nothing may write holds (no `bit_sensitive` value has
    /// this payload: indices stay far below it).
    fn sentinel<T: BitElement>() -> T {
        T::from_pattern(if T::BYTES == 4 { 0x7fc5_a5a5 } else { 0x7ff8_5a5a_5a5a_5a5a })
    }
    const GUARD: usize = 24;

    /// `pack_a`'s layout from a plain `at(i, j)` loop.
    fn reference_a<T: Element>(v: &MatView<'_, T>, w: usize) -> Vec<T> {
        let mut out = Vec::new();
        for r0 in (0..v.rows()).step_by(w) {
            for l in 0..v.cols() {
                for i in r0..r0 + w {
                    out.push(if i < v.rows() { v.at(i, l) } else { T::ZERO });
                }
            }
        }
        out
    }

    /// `pack_b`'s layout from a plain `at(i, j)` loop.
    fn reference_b<T: Element>(v: &MatView<'_, T>, w: usize) -> Vec<T> {
        let mut out = Vec::new();
        for c0 in (0..v.cols()).step_by(w) {
            for l in 0..v.rows() {
                for j in c0..c0 + w {
                    out.push(if j < v.cols() { v.at(l, j) } else { T::ZERO });
                }
            }
        }
        out
    }

    /// `got[..want.len()]` is `want` bit for bit and the rest of `got` is
    /// still the sentinel.
    fn assert_bits_and_guard<T: BitElement>(got: &[T], want: &[T], what: &str) {
        for (idx, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.bits(), w.bits(), "{what}: slot {idx} of {}", want.len());
        }
        for (idx, g) in got.iter().enumerate().skip(want.len()) {
            assert_eq!(g.bits(), sentinel::<T>().bits(), "{what}: wrote past the panel at {idx}");
        }
    }

    fn panels_match_reference<T: BitElement>() {
        // Each supported ISA's primitives.
        let kernels: Vec<Kernel<T>> = KernelIsa::supported().map(Kernel::<T>::for_isa).collect();
        let lane = T::LANE;
        for w in [4usize, 6, 8, 12, 16, 32] {
            for rows in [0, 1, w - 1, w, w + 1, 3 * w + 2] {
                for depth in [0, 1, lane - 1, lane, lane + 1, 2 * lane + 3] {
                    // The logical rows×depth block, stored as is (its rows
                    // run along the depth: transpose) or transposed (its
                    // depth steps run across the rows: copy); dense, or an
                    // offset sub-view of a larger padded-ld buffer.
                    for stored_transposed in [false, true] {
                        for padded in [false, true] {
                            let (sr, sc) =
                                if stored_transposed { (depth, rows) } else { (rows, depth) };
                            let (r_off, c_off, ld) =
                                if padded { (1, 2, sc + 5) } else { (0, 0, sc.max(1)) };
                            let data: Vec<T> =
                                (0..(sr + r_off + 1) * ld).map(bit_sensitive).collect();
                            let stored = MatView::row_major(&data, sr + r_off, sc + c_off, ld)
                                .sub(r_off, c_off, sr, sc);
                            let view = if stored_transposed { stored.t() } else { stored };
                            let what = format!(
                                "w={w} rows={rows} depth={depth} \
                                 transposed={stored_transposed} padded={padded}"
                            );
                            check_case(&kernels, &view, w, &what);
                        }
                    }
                }
            }
        }
    }

    fn check_case<T: BitElement>(
        kernels: &[Kernel<T>],
        view: &MatView<'_, T>,
        w: usize,
        what: &str,
    ) {
        let (rows, depth) = (view.rows(), view.cols());
        let want = reference_a(view, w);
        assert_eq!(want.len(), rows.div_ceil(w) * w * depth);

        // The primitives, called directly: one strip into an exactly
        // sized panel with a guard behind it.
        for kernel in kernels {
            let mut panel = vec![sentinel::<T>(); w * depth + GUARD];
            for strip in 0..rows.div_ceil(w) {
                let want = &want[strip * w * depth..][..w * depth];
                let r0 = strip * w;
                let live = (rows - r0).min(w);
                panel.fill(sentinel::<T>());
                let src = &view.data[view.offset + r0 * view.rs..];
                if view.rs == 1 {
                    kernel.pack_copy(src, view.cs, live, depth, w, &mut panel);
                } else {
                    kernel.pack_transpose(src, view.rs, live, depth, w, &mut panel);
                }
                assert_bits_and_guard(
                    &panel,
                    want,
                    &format!("{what} {} strip {strip}", kernel.isa),
                );
            }
        }

        // The dispatched entries, as an A block and as the B block that
        // packs to the same panels.
        let bytes = (want.len() * T::BYTES) as u64;
        let mut buf = vec![sentinel::<T>(); want.len() + GUARD];
        assert_eq!(pack_a(view, w, &mut buf), bytes, "{what}");
        assert_bits_and_guard(&buf, &want, &format!("{what} pack_a"));
        let as_b = view.t();
        buf.fill(sentinel::<T>());
        assert_eq!(pack_b(&as_b, w, &mut buf), bytes, "{what}");
        assert_bits_and_guard(&buf, &reference_b(&as_b, w), &format!("{what} pack_b"));
    }

    #[test]
    fn panels_are_bitwise_the_elementwise_reference() {
        panels_match_reference::<f32>();
        panels_match_reference::<f64>();
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "zero panel width"))]
    fn zero_width_packs_nothing() {
        // A debug assertion; in release an immediate 0 with `buf` untouched.
        let d = seq(6);
        let v = MatView::row_major(&d, 3, 2, 2);
        let mut buf = vec![-1.0; 6];
        assert_eq!(pack_a(&v, 0, &mut buf), 0);
        assert_eq!(pack_b(&v, 0, &mut buf), 0);
        assert_eq!(buf, vec![-1.0; 6]);
    }

    #[test]
    fn pack_bytes_account_padding() {
        let d = seq(3); // 3x1 with MR=4: one strip, 4 slots per column
        let v = MatView::row_major(&d, 3, 1, 1);
        let mut buf = vec![0.0f64; 4];
        let bytes = pack_a(&v, 4, &mut buf);
        assert_eq!(bytes, 4 * 8, "padding rows must be counted as copy cost");
    }
}
