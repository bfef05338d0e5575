//! Runtime kernel dispatch: architecture-aware SIMD micro-kernels.
//!
//! The paper's baseline is a vendor BLAS running the widest SIMD its node
//! has; a scalar kernel would put every latency the ML router trains on
//! an order of magnitude off the roofline. So all floating-point work runs
//! through a register-tile micro-kernel chosen **once per process** by CPU
//! feature detection ([`KernelIsa::dispatched`], widest first). On x86-64 the
//! kernels are **one template** (`tile`): `MR` rows of `NV` vector
//! registers, instantiated per vector width — an ISA is a row of this
//! table, not a copy of the kernel:
//!
//! | [`KernelIsa`] | f32 tile | f64 tile | registers live in the depth loop |
//! | --- | --- | --- | --- |
//! | `Avx512` (`avx512f`) | 12×32 | 12×16 | 24 accumulators + 2 `B` + 1 broadcast of 32 `zmm` |
//! | `Avx2Fma` (`avx2`, `fma`) | 6×16 | 6×8 | 12 + 2 + 1 of 16 `ymm` |
//! | `Neon` (AArch64 baseline) | 6×8 | 6×4 | 12 + 2 of 32 `v`; hand-written, not yet on the template |
//! | `Scalar` | 8×8 | 8×8 | [`crate::microkernel`], bitwise the pre-dispatch code; dispatched where no SIMD kernel runs |
//!
//! The tile per ISA is **fixed, not searched**. Every shape that fits the
//! register file issues FMAs at the same rate from L1 (6×32, 12×32, 8×48
//! and 6×64 all reach the same rate on the two-port AVX-512 host this was
//! sized on); they differ only in how often the drivers reload `B`, and
//! there 12×32 won — `large_compute` FLOP/cycle 58.8 against 53.0 (6×32)
//! and 56.4 (8×48), a tie on `small_repeat`. That ranking follows from the
//! register count of the ISA, not from the host, so it is a constant here
//! and not an install-time search, an artefact field or a plan axis.
//! Measured against perfbench's FMA peak (a `ymm` loop), the AVX2 kernel
//! reaches `microkernel.peak_share_f32` 0.90–0.95 and the AVX-512 kernel
//! 1.2–1.8 of that same 256-bit peak (its probe panels only just fit L1).
//!
//! A [`Kernel`] is a table row: the tile geometry and the function
//! pointers behind the contract the scalar kernel
//! ([`crate::microkernel`]) established — panels packed zero-padded to the
//! full tile, the full tile always accumulated, only the write-back masked
//! to `live_m × live_n`. Three pointers are the kernel: fused `run`,
//! accumulate-only `acc`, and — for every ISA but NEON — `run_in_place`, the fused kernel reading operands
//! where they lie through runtime strides ([`InPlaceFn`]; the blocked loop
//! nest's packing-free path for operands that fit L2). `run` and
//! `run_in_place` are one template body: the packed entry passes the
//! panels' strides `(1, MR, NR)` as constants. Two pointers are the
//! **panel-packing primitives** the one packing routine ([`crate::pack`])
//! is built on, a strided-row *transpose* and a row *copy* ([`PanelFn`]):
//! pure data movement, the same bytes from every ISA. Both x86 ISAs pack
//! through the AVX2 primitives.
//!
//! Both template entries prefetch the live rows of their `C` tile before
//! the depth loop. With `KC` a few hundred deep (see [`crate::blocking`]),
//! a tile of `C` is revisited once per rank update, long after it left
//! L1, and the `kc` depth steps are ample time to bring it back before
//! the write-back needs it. A prefetch is only a hint: it reads nothing
//! and never faults, so the results are those of the kernel without it.
//!
//! **Write-back.** Every kernel writes a tile back by the one rule of
//! [`crate::microkernel`] (`C ← α·acc + β̂·C`, each product rounded on its
//! own, `C` unread when β = 0). It is written twice: the scalar masked
//! merge [`crate::microkernel::merge_tile`], which merges the scalar
//! kernel's tiles, every edge tile staged by the template (and every NEON
//! tile), and SYRK's diagonal tiles; and the template's vector write-back of
//! a full tile, the same operations in the same order, signed zeros
//! included. A cell's bits therefore do not depend on whether it falls in
//! a full or an edge tile, which the thread grid decides.
//!
//! SIMD and FMA change the **accumulation**'s rounding relative to the
//! scalar path (FMA skips a rounding), so SIMD results are ULP-close to
//! scalar ones, not bitwise equal; the scalar path itself is unchanged.

use std::sync::OnceLock;

use crate::blocking::{MR, NR};
use crate::microkernel::{accumulate, accumulate_strided, merge_tile};
use crate::Element;
use serde::{Deserialize, Serialize};

/// The largest `mr·nr` in the kernel table of this build, computed from
/// the table itself: callers that stage a register tile in memory (the
/// SYRK triangle merge) use a fixed-size buffer of this many elements.
pub const MAX_TILE_ELEMS: usize = {
    let (mut max, mut i) = (0, 0);
    while i < KernelIsa::ALL.len() {
        let (k32, k64) = (kernel_f32(KernelIsa::ALL[i]), kernel_f64(KernelIsa::ALL[i]));
        let (e32, e64) = (k32.mr * k32.nr, k64.mr * k64.nr);
        let elems = if e32 > e64 { e32 } else { e64 };
        max = if elems > max { elems } else { max };
        i += 1;
    }
    max
};

/// The instruction set a micro-kernel is written for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KernelIsa {
    /// x86-64 AVX-512F, 512-bit registers.
    Avx512,
    /// x86-64 AVX2 + FMA, 256-bit registers.
    Avx2Fma,
    /// AArch64 NEON, 128-bit registers.
    Neon,
    /// Portable scalar reference path (always available).
    #[default]
    Scalar,
}

impl KernelIsa {
    /// Every ISA, most preferred first: [`KernelIsa::dispatched`] is the
    /// first supported entry.
    pub const ALL: [KernelIsa; 4] =
        [KernelIsa::Avx512, KernelIsa::Avx2Fma, KernelIsa::Neon, KernelIsa::Scalar];

    /// Lower-case ISA name (stable; used in stats lines and benches).
    pub fn as_str(self) -> &'static str {
        match self {
            KernelIsa::Avx512 => "avx512",
            KernelIsa::Avx2Fma => "avx2fma",
            KernelIsa::Neon => "neon",
            KernelIsa::Scalar => "scalar",
        }
    }

    /// `true` if kernels for this ISA exist in this build *and* the
    /// running CPU can execute them — a test of this ISA's own features,
    /// so a host that detects a wider one still supports the narrower.
    pub fn is_supported(self) -> bool {
        match self {
            KernelIsa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelIsa::Avx2Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            // The AVX-512 kernels pack through the AVX2 primitives.
            #[cfg(target_arch = "x86_64")]
            KernelIsa::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f") && KernelIsa::Avx2Fma.is_supported()
            }
            // NEON is part of the AArch64 baseline.
            #[cfg(target_arch = "aarch64")]
            KernelIsa::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Every ISA this host can execute, most preferred first (always ends
    /// in [`KernelIsa::Scalar`]).
    pub fn supported() -> impl Iterator<Item = KernelIsa> {
        Self::ALL.into_iter().filter(|isa| isa.is_supported())
    }

    /// The ISA every kernel dispatches to: the widest one the running CPU
    /// supports, detected once per process.
    pub fn dispatched() -> KernelIsa {
        static DISPATCHED: OnceLock<KernelIsa> = OnceLock::new();
        *DISPATCHED.get_or_init(|| Self::supported().next().unwrap_or(KernelIsa::Scalar))
    }
}

impl std::fmt::Display for KernelIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Fused micro-kernel: multiply one packed `mr×kc` A panel by one packed
/// `kc×nr` B panel and write the tile back into the `live_m × live_n`
/// live region of `C` by the one rule (module docs).
///
/// Safety contract (shared by every implementation):
/// * `a_panel` points at `kc·mr` elements, `b_panel` at `kc·nr`,
/// * `c` points at the tile origin; rows `i < live_m` of `live_n`
///   elements spaced `ldc` apart are valid for writes (and for reads
///   unless β = 0), with no concurrent access,
/// * `live_m ≤ mr`, `live_n ≤ nr`,
/// * the CPU supports the kernel's ISA (guaranteed by dispatch).
#[allow(clippy::type_complexity)]
pub type MicroFn<T> = unsafe fn(
    kc: usize,
    a_panel: *const T,
    b_panel: *const T,
    c: *mut T,
    ldc: usize,
    live_m: usize,
    live_n: usize,
    alpha: T,
    beta: T,
);

/// In-place micro-kernel: [`MicroFn`] with its operands read where they
/// lie instead of from packed panels — `A(i, l)` at `a[i·a_rs + l·a_ks]`,
/// `B(l, j)` at `b[l·b_ks + j]` (a `B` row's columns are adjacent). The
/// packed panels are the strides `(1, mr)` and `nr`.
///
/// Safety contract: [`MicroFn`]'s, with the panel clauses replaced by:
/// every `A(i, l)` for `i < mr`, `l < kc` and every `B(l, j)` for
/// `j < nr`, `l < kc` is readable. Nothing else of `a` or `b` is read.
#[allow(clippy::type_complexity)]
pub type InPlaceFn<T> = unsafe fn(
    kc: usize,
    a: *const T,
    a_rs: usize,
    a_ks: usize,
    b: *const T,
    b_ks: usize,
    c: *mut T,
    ldc: usize,
    live_m: usize,
    live_n: usize,
    alpha: T,
    beta: T,
);

/// Accumulate-only micro-kernel: compute the full `mr×nr` tile of
/// `A_panel · B_panel` into `tile` (row-major, `nr` stride), overwriting
/// it. Used where a mask cuts the tile (SYRK's diagonal), which
/// [`crate::microkernel::merge_tile`] then merges. Same safety contract
/// as [`MicroFn`] minus the `C` clauses; `tile` must hold `mr·nr`
/// elements.
pub type AccFn<T> = unsafe fn(kc: usize, a_panel: *const T, b_panel: *const T, tile: *mut T);

/// Panel-packing primitive: fill one strip of a packed operand —
/// `dst[..depth·width]`, `depth` steps of `width` contiguous slots — from
/// `1 ≤ live ≤ width` source lines, zeroing slots `live..width` of every
/// step and writing nothing past `depth·width`.
///
/// Two primitives share the signature and differ in which source axis is
/// contiguous:
/// * **transpose** ([`Kernel::pack_transpose`]) —
///   `dst[l·width + i] = src[i·stride + l]`: `live` source rows of `depth`
///   contiguous elements, `stride` apart, interleaved;
/// * **copy** ([`Kernel::pack_copy`]) — `dst[l·width + i] = src[l·stride + i]`:
///   `depth` source runs of `live` contiguous elements, `stride` apart,
///   copied.
///
/// The primitives are safe to call: each checks `live`, the destination
/// length and the source extent (panicking otherwise) before it touches a
/// raw pointer.
pub type PanelFn<T> =
    fn(src: &[T], stride: usize, live: usize, depth: usize, width: usize, dst: &mut [T]);

/// One dispatched micro-kernel: the register-tile geometry plus the two
/// entry points every driver consumes.
pub struct Kernel<T> {
    /// The instruction set the kernel is written for.
    pub isa: KernelIsa,
    /// Register-tile rows.
    pub mr: usize,
    /// Register-tile columns.
    pub nr: usize,
    run: MicroFn<T>,
    /// `None` for NEON, which is not on the template yet and packs always.
    run_in_place: Option<InPlaceFn<T>>,
    acc: AccFn<T>,
    pack_transpose: PanelFn<T>,
    pack_copy: PanelFn<T>,
}

// Derived Clone/Copy would put `T: Clone` bounds on the impls; the struct
// is plain fn pointers + scalars, so implement them unconditionally.
impl<T> Clone for Kernel<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Kernel<T> {}

impl<T> std::fmt::Debug for Kernel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel({} {}x{})", self.isa, self.mr, self.nr)
    }
}

impl<T: Element> Kernel<T> {
    /// The process-wide dispatched kernel for this element type.
    pub fn dispatched() -> Kernel<T> {
        T::kernel(KernelIsa::dispatched())
    }

    /// The kernel for `isa`, falling back to [`KernelIsa::Scalar`] when
    /// the requested ISA is not executable on this host/build, so a pin
    /// can never dispatch an illegal-instruction path.
    pub fn for_isa(isa: KernelIsa) -> Kernel<T> {
        T::kernel(if isa.is_supported() { isa } else { KernelIsa::Scalar })
    }

    /// Run the fused multiply + merge micro-kernel.
    ///
    /// # Safety
    /// See [`MicroFn`]'s contract: packed panels of `kc·mr` / `kc·nr`
    /// elements, a valid non-aliased `live_m × live_n` C tile at stride
    /// `ldc` (not read when β = 0), `live_m ≤ mr`, `live_n ≤ nr`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub unsafe fn run(
        &self,
        kc: usize,
        a_panel: *const T,
        b_panel: *const T,
        c: *mut T,
        ldc: usize,
        live_m: usize,
        live_n: usize,
        alpha: T,
        beta: T,
    ) {
        (self.run)(kc, a_panel, b_panel, c, ldc, live_m, live_n, alpha, beta)
    }

    /// `true` if this kernel can read operands in place (see
    /// [`InPlaceFn`]): every ISA but NEON.
    pub(crate) fn reads_in_place(&self) -> bool {
        self.run_in_place.is_some()
    }

    /// Run the fused micro-kernel on operands read through strides (see
    /// [`InPlaceFn`]). At the packed panels' strides `(1, mr)` and `nr`
    /// this is [`Kernel::run`], the instantiation with those strides as
    /// constants; any other strides take the in-place entry.
    ///
    /// # Safety
    /// [`InPlaceFn`]'s contract.
    ///
    /// # Panics
    /// If the strides are not the packed ones and the kernel has no
    /// in-place entry ([`Kernel::reads_in_place`]).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) unsafe fn run_strided(
        &self,
        kc: usize,
        (a, a_rs, a_ks): (*const T, usize, usize),
        (b, b_ks): (*const T, usize),
        c: *mut T,
        ldc: usize,
        live_m: usize,
        live_n: usize,
        alpha: T,
        beta: T,
    ) {
        if (a_rs, a_ks, b_ks) == (1, self.mr, self.nr) {
            return self.run(kc, a, b, c, ldc, live_m, live_n, alpha, beta);
        }
        let run_in_place = self.run_in_place.expect("in-place strides for a packing-only kernel");
        run_in_place(kc, a, a_rs, a_ks, b, b_ks, c, ldc, live_m, live_n, alpha, beta)
    }

    /// Compute the full `mr×nr` accumulator tile into `tile` (row-major),
    /// overwriting it.
    ///
    /// # Safety
    /// Packed panels of `kc·mr` / `kc·nr` elements; `tile` must hold
    /// `mr·nr` elements.
    #[inline(always)]
    pub unsafe fn acc(&self, kc: usize, a_panel: *const T, b_panel: *const T, tile: *mut T) {
        (self.acc)(kc, a_panel, b_panel, tile)
    }

    /// Pack one strip by transposition (see [`PanelFn`]): `live` source
    /// rows of `depth` contiguous elements, `stride` apart, become `depth`
    /// steps of `width` slots.
    ///
    /// # Panics
    /// Unless `1 ≤ live ≤ width`, `dst` holds `depth·width`, and `src`
    /// covers the rows.
    #[inline(always)]
    pub fn pack_transpose(
        &self,
        src: &[T],
        stride: usize,
        live: usize,
        depth: usize,
        width: usize,
        dst: &mut [T],
    ) {
        (self.pack_transpose)(src, stride, live, depth, width, dst)
    }

    /// Pack one strip by row copies (see [`PanelFn`]): `depth` source runs
    /// of `live` contiguous elements, `stride` apart, each become one step
    /// of `width` slots.
    ///
    /// # Panics
    /// Unless `1 ≤ live ≤ width`, `dst` holds `depth·width`, and `src`
    /// covers the runs.
    #[inline(always)]
    pub fn pack_copy(
        &self,
        src: &[T],
        stride: usize,
        live: usize,
        depth: usize,
        width: usize,
        dst: &mut [T],
    ) {
        (self.pack_copy)(src, stride, live, depth, width, dst)
    }
}

/// Kernel table for `f32`.
pub const fn kernel_f32(isa: KernelIsa) -> Kernel<f32> {
    match isa {
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx512 => x86::AVX512_F32,
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx2Fma => x86::AVX2_F32,
        #[cfg(target_arch = "aarch64")]
        KernelIsa::Neon => Kernel {
            isa,
            mr: neon::MR_F32,
            nr: neon::NR_F32,
            run: neon::run_f32,
            run_in_place: None,
            acc: neon::acc_f32,
            pack_transpose: neon::pack_transpose_f32,
            pack_copy: pack_copy_scalar::<f32>,
        },
        _ => scalar_kernel::<f32>(),
    }
}

/// Kernel table for `f64`.
pub const fn kernel_f64(isa: KernelIsa) -> Kernel<f64> {
    match isa {
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx512 => x86::AVX512_F64,
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx2Fma => x86::AVX2_F64,
        #[cfg(target_arch = "aarch64")]
        KernelIsa::Neon => Kernel {
            isa,
            mr: neon::MR_F64,
            nr: neon::NR_F64,
            run: neon::run_f64,
            run_in_place: None,
            acc: neon::acc_f64,
            pack_transpose: neon::pack_transpose_f64,
            pack_copy: pack_copy_scalar::<f64>,
        },
        _ => scalar_kernel::<f64>(),
    }
}

/// The always-available scalar kernel: the pre-dispatch `accumulate` and
/// the one masked merge at the historical `8×8` tile.
const fn scalar_kernel<T: Element>() -> Kernel<T> {
    Kernel {
        isa: KernelIsa::Scalar,
        mr: MR,
        nr: NR,
        run: scalar_run::<T>,
        run_in_place: Some(scalar_run_in_place::<T>),
        acc: scalar_acc::<T>,
        pack_transpose: pack_transpose_scalar::<T>,
        pack_copy: pack_copy_scalar::<T>,
    }
}

/// Scalar fused kernel: [`scalar_run_in_place`] at the packed panels'
/// strides. Safety: see [`MicroFn`].
#[allow(clippy::too_many_arguments)]
unsafe fn scalar_run<T: Element>(
    kc: usize,
    a_panel: *const T,
    b_panel: *const T,
    c: *mut T,
    ldc: usize,
    live_m: usize,
    live_n: usize,
    alpha: T,
    beta: T,
) {
    // SAFETY: the packed panels are these strides (MicroFn's contract).
    scalar_run_in_place(kc, a_panel, 1, MR, b_panel, NR, c, ldc, live_m, live_n, alpha, beta)
}

/// Scalar in-place kernel. Safety: see [`InPlaceFn`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn scalar_run_in_place<T: Element>(
    kc: usize,
    a: *const T,
    a_rs: usize,
    a_ks: usize,
    b: *const T,
    b_ks: usize,
    c: *mut T,
    ldc: usize,
    live_m: usize,
    live_n: usize,
    alpha: T,
    beta: T,
) {
    // SAFETY: both forwarded from the caller's contract; the accumulator
    // holds MR rows of NR.
    let acc = accumulate_strided(kc, a, a_rs, a_ks, b, b_ks);
    merge_tile(acc.as_ptr().cast(), NR, c, ldc, live_m, |_| live_n, alpha, beta);
}

/// Scalar accumulate-only kernel. Safety: see [`AccFn`].
unsafe fn scalar_acc<T: Element>(kc: usize, a_panel: *const T, b_panel: *const T, tile: *mut T) {
    // SAFETY: the contract guarantees kc·MR / kc·NR packed elements.
    let a_panel = std::slice::from_raw_parts(a_panel, kc * MR);
    let b_panel = std::slice::from_raw_parts(b_panel, kc * NR);
    let acc = accumulate(kc, a_panel, b_panel);
    for (i, row) in acc.iter().enumerate() {
        // SAFETY: `tile` holds mr·nr = MR·NR elements per the contract.
        std::ptr::copy_nonoverlapping(row.as_ptr(), tile.add(i * NR), NR);
    }
}

/// The checks every panel primitive makes before it reads or writes (see
/// [`PanelFn`]): `1 ≤ live ≤ width`, a destination of at least
/// `depth·width`, and a source covering every line it will read — `live`
/// lines of `depth` elements for the transpose (`rows_are_lines`), `depth`
/// lines of `live` for the copy, `stride` apart. The SIMD bodies'
/// raw-pointer accesses rest on exactly these.
#[inline(always)]
fn check_panel<T>(
    src: &[T],
    stride: usize,
    live: usize,
    depth: usize,
    width: usize,
    dst: &[T],
    rows_are_lines: bool,
) {
    assert!(0 < live && live <= width, "panel strip of {live} lines in {width} slots");
    let needed = depth.checked_mul(width).expect("panel size overflows usize");
    assert!(dst.len() >= needed, "panel destination too small");
    let (lines, run) = if rows_are_lines { (live, depth) } else { (depth, live) };
    if depth > 0 {
        let extent = (lines - 1).checked_mul(stride).and_then(|last| last.checked_add(run));
        assert!(extent.is_some_and(|e| e <= src.len()), "panel source too small");
    }
}

/// Scalar transpose primitive (see [`PanelFn`]), any width: the portable
/// version, and what the SIMD versions leave to it — the depth tail short
/// of one register block, and a width they have no register transpose for.
fn pack_transpose_scalar<T: Element>(
    src: &[T],
    stride: usize,
    live: usize,
    depth: usize,
    width: usize,
    dst: &mut [T],
) {
    check_panel(src, stride, live, depth, width, dst, true);
    for (l, step) in dst[..depth * width].chunks_exact_mut(width).enumerate() {
        let (lanes, pad) = step.split_at_mut(live);
        for (i, slot) in lanes.iter_mut().enumerate() {
            *slot = src[i * stride + l];
        }
        pad.fill(T::ZERO);
    }
}

/// Copy `depth` full runs of exactly `W` elements: the row copy has a
/// compile-time length, so it is a fixed handful of vector moves (as wide
/// as the instantiating function's target features allow) instead of a
/// `memcpy` call of run-time length.
#[inline(always)]
fn copy_full_rows<T: Element, const W: usize>(
    src: &[T],
    stride: usize,
    depth: usize,
    dst: &mut [T],
) {
    for (l, step) in dst[..depth * W].chunks_exact_mut(W).enumerate() {
        step.copy_from_slice(&src[l * stride..][..W]);
    }
}

/// Copy primitive (see [`PanelFn`]) at the build's baseline target
/// features — the scalar ISA's, and NEON's too (NEON *is* the AArch64
/// baseline, so the fixed-width copies already are `q`-register moves) —
/// and, inlined under wider features, the body of the other ISAs'. Full
/// strips at a register-tile width go through [`copy_full_rows`]; a ragged
/// strip (at most one per packed block) or any other width takes the
/// run-time-length loop with zero padding.
#[inline(always)]
fn pack_copy_scalar<T: Element>(
    src: &[T],
    stride: usize,
    live: usize,
    depth: usize,
    width: usize,
    dst: &mut [T],
) {
    check_panel(src, stride, live, depth, width, dst, false);
    match (width, live == width) {
        (4, true) => copy_full_rows::<T, 4>(src, stride, depth, dst),
        (6, true) => copy_full_rows::<T, 6>(src, stride, depth, dst),
        (8, true) => copy_full_rows::<T, 8>(src, stride, depth, dst),
        (12, true) => copy_full_rows::<T, 12>(src, stride, depth, dst),
        (16, true) => copy_full_rows::<T, 16>(src, stride, depth, dst),
        (32, true) => copy_full_rows::<T, 32>(src, stride, depth, dst),
        _ => {
            for (l, step) in dst[..depth * width].chunks_exact_mut(width).enumerate() {
                let (lanes, pad) = step.split_at_mut(live);
                lanes.copy_from_slice(&src[l * stride..][..live]);
                pad.fill(T::ZERO);
            }
        }
    }
}

/// The register-tile template: the one micro-kernel body, generic over
/// the vector register it is built from and the tile's shape in registers.
/// It is `#[inline(always)]` with no target feature of its own: compiled
/// inside the `#[target_feature]` shim that instantiates it (`x86::kernel!`),
/// the intrinsics inline and the accumulators stay in registers.
///
/// x86-64 only for now: the NEON module below predates the template and
/// this container has no AArch64 target to compile a port against.
#[cfg(target_arch = "x86_64")]
mod tile {
    use crate::microkernel::merge_tile;
    use crate::Element;
    use std::mem::MaybeUninit;

    /// One SIMD register of `LANES` lanes of `Elem` — as much of it as a
    /// register-tile kernel needs: `zero`, `splat(x)` (every lane `x`),
    /// unaligned `load`/`store` of `LANES` elements at `p`, `a.mul(b)`
    /// (`a·b`), `a.add(b)` (`a + b`) and `a.fma(b, acc)` (`a·b + acc`,
    /// fused).
    ///
    /// # Safety
    /// `Self` must have the size of `[Elem; LANES]` (an edge tile is
    /// staged in a buffer declared as an array of registers). Every method
    /// requires a CPU that supports the implementor's instruction set.
    #[allow(missing_docs)]
    pub unsafe trait Vector: Copy {
        type Elem: Element;
        const LANES: usize;
        unsafe fn zero() -> Self;
        unsafe fn splat(x: Self::Elem) -> Self;
        unsafe fn load(p: *const Self::Elem) -> Self;
        unsafe fn store(self, p: *mut Self::Elem);
        unsafe fn fma(self, b: Self, acc: Self) -> Self;
        unsafe fn mul(self, b: Self) -> Self;
        unsafe fn add(self, b: Self) -> Self;
    }

    /// The accumulators of one `MR × NV·LANES` tile, row `i` in `tile[i]`.
    type Tile<V, const MR: usize, const NV: usize> = [[V; NV]; MR];

    /// How far ahead, in depth steps, the kernel asks for what it reads in
    /// place, which may still be in L3 on first touch (packed panels were
    /// just written, and are not prefetched). A `B` row is a line or two,
    /// read once: eight steps cover the latency. An `A` line holds 8–16
    /// steps of one row, and the rows take turns at one prefetch a step:
    /// 32 steps is two to four lines ahead. Both measured on perfbench's
    /// `small_repeat`, whose operands come from L3.
    const B_AHEAD: usize = 8;
    const A_AHEAD: usize = 32;

    /// Hint the `bytes` at `p` into L1, a cache line at a time.
    #[inline(always)]
    fn prefetch(p: *const i8, bytes: usize) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        for line in (0..bytes).step_by(64) {
            // SAFETY: a prefetch is a hint and never faults, whatever the
            // address; SSE is part of the x86-64 baseline.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(line)) }
        }
    }

    /// Hint the live region of a `C` tile into L1 (why: the module docs)
    /// — `live_m` rows of `live_n ≤ NV·LANES` elements, `ldc` apart —
    /// every line it touches. Per row one hint at the start of each of the
    /// `NV` vectors, capped at the last live element, and one at that
    /// element: no two consecutive hints are more than a vector (≤ 64
    /// bytes) apart, so no line is skipped, the one an unaligned row end
    /// reaches into included. The count is fixed and the code branch-free:
    /// a loop over each row's lines, whose trip count changes with the
    /// row's alignment, made one-thread GEMMs of `cold_shapes`' sizes
    /// (every dimension ≤ 160) 5 % slower than no prefetch at all; this
    /// form makes them no slower.
    #[inline(always)]
    fn prefetch_c<V: Vector, const NV: usize>(
        c: *const V::Elem,
        ldc: usize,
        live_m: usize,
        live_n: usize,
    ) {
        let last = live_n.max(1) - 1;
        for i in 0..live_m {
            let row = c.wrapping_add(i * ldc);
            for v in 0..NV {
                prefetch(row.wrapping_add((v * V::LANES).min(last)).cast(), 1);
            }
            prefetch(row.wrapping_add(last).cast(), 1);
        }
    }

    /// Accumulate the full tile of `A · B`: per depth step `NV` loads of
    /// `B`, then `MR` broadcasts of `A` each feeding `NV` FMAs — `MR·NV`
    /// accumulators, `NV` `B` vectors and one broadcast live at once. The
    /// trip counts are constants: LLVM unrolls both inner loops and keeps
    /// every accumulator in a register. `A(i, l)` is `a[i·a_rs + l·a_ks]`
    /// and `B(l, j)` is `b[l·b_ks + j]` ([`super::InPlaceFn`]): the packed
    /// entry passes its panels' `(1, MR, NV·LANES)` as constants, which
    /// inline to the unit-stride panel loop.
    ///
    /// # Safety
    /// [`Vector`]'s CPU requirement; every `A(i, l)` for `i < MR`,
    /// `l < kc` and every `B(l, j)` for `j < NV·LANES`, `l < kc` is
    /// readable.
    #[inline(always)]
    pub unsafe fn accumulate<V: Vector, const MR: usize, const NV: usize>(
        kc: usize,
        a: *const V::Elem,
        a_rs: usize,
        a_ks: usize,
        b: *const V::Elem,
        b_ks: usize,
    ) -> Tile<V, MR, NV> {
        let mut acc = [[V::zero(); NV]; MR];
        let (mut ap, mut bp) = (a, b);
        // The packed entry's constant strides compile the prefetches out.
        let (packed_a, packed_b) = ((a_rs, a_ks) == (1, MR), b_ks == NV * V::LANES);
        let mut row = 0; // the offset of the `A` row whose turn it is
        for _ in 0..kc {
            if !packed_a {
                prefetch(ap.wrapping_add(row + A_AHEAD * a_ks).cast(), 1);
                row = if row + a_rs == MR * a_rs { 0 } else { row + a_rs };
            }
            if !packed_b {
                let row_bytes = NV * V::LANES * std::mem::size_of::<V::Elem>();
                prefetch(bp.wrapping_add(B_AHEAD * b_ks).cast(), row_bytes);
            }
            // SAFETY: at step l, `ap` is A(0, l) and `bp` B(l, 0); the
            // function contract makes A(i, l) and B(l, j) readable.
            let mut bv = [V::zero(); NV];
            for (j, v) in bv.iter_mut().enumerate() {
                *v = V::load(bp.add(j * V::LANES));
            }
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = V::splat(*ap.add(i * a_rs));
                for (c, &bj) in row.iter_mut().zip(&bv) {
                    *c = ai.fma(bj, *c);
                }
            }
            // Wrapping: after the last step these point one depth step
            // past the operand, which may leave its allocation.
            ap = ap.wrapping_add(a_ks);
            bp = bp.wrapping_add(b_ks);
        }
        acc
    }

    /// Store the accumulators as the row-major `MR × NV·LANES` tile at
    /// `tile` — after [`accumulate`], the accumulate-only kernel
    /// ([`super::AccFn`]).
    ///
    /// # Safety
    /// [`Vector`]'s CPU requirement; `tile` is valid for `MR·NV·LANES`
    /// writes.
    #[inline(always)]
    pub unsafe fn store_tile<V: Vector, const MR: usize, const NV: usize>(
        acc: &Tile<V, MR, NV>,
        tile: *mut V::Elem,
    ) {
        for (i, row) in acc.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                v.store(tile.add((i * NV + j) * V::LANES));
            }
        }
    }

    /// Fused kernel body ([`super::InPlaceFn`], and [`super::MicroFn`] at
    /// the packed strides): the live rows of the `C` tile are prefetched
    /// ([`prefetch_c`]), the tile accumulated, then a full tile is written
    /// back in vectors by the one rule; an edge tile is staged on the
    /// stack and merged by the scalar masked merge, which follows it too.
    ///
    /// # Safety
    /// [`Vector`]'s CPU requirement plus the [`super::InPlaceFn`] contract
    /// at `mr = MR`, `nr = NV·LANES`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub unsafe fn run<V: Vector, const MR: usize, const NV: usize>(
        kc: usize,
        a: *const V::Elem,
        a_rs: usize,
        a_ks: usize,
        b: *const V::Elem,
        b_ks: usize,
        c: *mut V::Elem,
        ldc: usize,
        live_m: usize,
        live_n: usize,
        alpha: V::Elem,
        beta: V::Elem,
    ) {
        prefetch_c::<V, NV>(c, ldc, live_m, live_n);
        let acc = accumulate::<V, MR, NV>(kc, a, a_rs, a_ks, b, b_ks);
        let nr = NV * V::LANES;
        if live_m == MR && live_n == nr {
            // `merge_tile`'s `write_back` in vectors, operation for
            // operation: `α·acc`, `β̂·C` (`β·C + 0`, or `0` with `C`
            // unread), their sum.
            let (va, vb, zero) = (V::splat(alpha), V::splat(beta), V::zero());
            let reads_c = beta != V::Elem::ZERO;
            for (i, row) in acc.iter().enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    // SAFETY: full-tile rows are valid per the contract.
                    let out = c.add(i * ldc + j * V::LANES);
                    let scaled_c = if reads_c { vb.mul(V::load(out)).add(zero) } else { zero };
                    va.mul(v).add(scaled_c).store(out);
                }
            }
        } else {
            // A buffer of exactly the tile's size: `Vector` guarantees
            // `Tile` has the layout of MR·nr scalars.
            let mut staged = MaybeUninit::<Tile<V, MR, NV>>::uninit();
            let tile = staged.as_mut_ptr().cast::<V::Elem>();
            // SAFETY: `store_tile` initialises all MR·nr elements before
            // the merge reads them; C bounds per the caller's contract.
            store_tile(&acc, tile);
            merge_tile(tile, nr, c, ldc, live_m, |_| live_n, alpha, beta);
        }
    }
}

/// x86-64: the template's `ymm` (AVX2 + FMA) and `zmm` (AVX-512F)
/// instantiations, and the AVX2 packing primitives both use.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::tile::{self, Vector};
    use super::{Kernel, KernelIsa};
    use crate::Element;
    use std::arch::x86_64::*;

    macro_rules! impl_vector {
        ($($V:ty = [$E:ty; $lanes:literal]:
           $zero:ident, $splat:ident, $load:ident, $store:ident, $fma:ident, $mul:ident,
           $add:ident;)*) => {$(
            // SAFETY: the register is `$lanes` packed `$E` in element
            // order; the `loadu`/`storeu` forms take any alignment.
            unsafe impl Vector for $V {
                type Elem = $E;
                const LANES: usize = $lanes;
                #[inline(always)]
                unsafe fn zero() -> Self {
                    $zero()
                }
                #[inline(always)]
                unsafe fn splat(x: $E) -> Self {
                    $splat(x)
                }
                #[inline(always)]
                unsafe fn load(p: *const $E) -> Self {
                    $load(p)
                }
                #[inline(always)]
                unsafe fn store(self, p: *mut $E) {
                    $store(p, self)
                }
                #[inline(always)]
                unsafe fn fma(self, b: Self, acc: Self) -> Self {
                    $fma(self, b, acc)
                }
                #[inline(always)]
                unsafe fn mul(self, b: Self) -> Self {
                    $mul(self, b)
                }
                #[inline(always)]
                unsafe fn add(self, b: Self) -> Self {
                    $add(self, b)
                }
            }
        )*};
    }
    impl_vector! {
        __m256 = [f32; 8]: _mm256_setzero_ps, _mm256_set1_ps, _mm256_loadu_ps,
            _mm256_storeu_ps, _mm256_fmadd_ps, _mm256_mul_ps, _mm256_add_ps;
        __m256d = [f64; 4]: _mm256_setzero_pd, _mm256_set1_pd, _mm256_loadu_pd,
            _mm256_storeu_pd, _mm256_fmadd_pd, _mm256_mul_pd, _mm256_add_pd;
        __m512 = [f32; 16]: _mm512_setzero_ps, _mm512_set1_ps, _mm512_loadu_ps,
            _mm512_storeu_ps, _mm512_fmadd_ps, _mm512_mul_ps, _mm512_add_ps;
        __m512d = [f64; 8]: _mm512_setzero_pd, _mm512_set1_pd, _mm512_loadu_pd,
            _mm512_storeu_pd, _mm512_fmadd_pd, _mm512_mul_pd, _mm512_add_pd;
    }

    /// One row of the kernel table: the template at `$mr` rows of `$nv`
    /// `$V` registers, compiled with `$features` enabled. The three shims
    /// are the only per-ISA kernel code — a `#[target_feature]` frame for
    /// the template to inline into, coercible to the table's fn pointers;
    /// the packed two pass their panels' strides as constants.
    macro_rules! kernel {
        ($isa:ident, $features:literal, $V:ty, $mr:literal, $nv:literal, $transpose:ident) => {{
            type E = <$V as Vector>::Elem;
            const NR: usize = $nv * <$V as Vector>::LANES;
            /// # Safety
            /// See [`super::MicroFn`]; dispatch installs this pointer
            /// only where `$features` are detected.
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $features)]
            unsafe fn run(
                kc: usize,
                a_panel: *const E,
                b_panel: *const E,
                c: *mut E,
                ldc: usize,
                live_m: usize,
                live_n: usize,
                alpha: E,
                beta: E,
            ) {
                tile::run::<$V, $mr, $nv>(
                    kc, a_panel, 1, $mr, b_panel, NR, c, ldc, live_m, live_n, alpha, beta,
                )
            }
            /// # Safety
            /// See [`super::InPlaceFn`]; dispatch as for `run`.
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $features)]
            unsafe fn run_in_place(
                kc: usize,
                a: *const E,
                a_rs: usize,
                a_ks: usize,
                b: *const E,
                b_ks: usize,
                c: *mut E,
                ldc: usize,
                live_m: usize,
                live_n: usize,
                alpha: E,
                beta: E,
            ) {
                tile::run::<$V, $mr, $nv>(
                    kc, a, a_rs, a_ks, b, b_ks, c, ldc, live_m, live_n, alpha, beta,
                )
            }
            /// # Safety
            /// See [`super::AccFn`]; dispatch as for `run`.
            #[target_feature(enable = $features)]
            unsafe fn acc(kc: usize, a_panel: *const E, b_panel: *const E, tile: *mut E) {
                let acc = tile::accumulate::<$V, $mr, $nv>(kc, a_panel, 1, $mr, b_panel, NR);
                tile::store_tile(&acc, tile)
            }
            Kernel {
                isa: KernelIsa::$isa,
                mr: $mr,
                nr: NR,
                run,
                run_in_place: Some(run_in_place),
                acc,
                pack_transpose: $transpose,
                pack_copy: pack_copy::<E>,
            }
        }};
    }

    // The x86 rows of the module docs' table (6×16, 6×8, 12×32, 12×16).
    pub const AVX2_F32: Kernel<f32> =
        kernel!(Avx2Fma, "avx2,fma", __m256, 6, 2, pack_transpose_f32);
    pub const AVX2_F64: Kernel<f64> =
        kernel!(Avx2Fma, "avx2,fma", __m256d, 6, 2, pack_transpose_f64);
    pub const AVX512_F32: Kernel<f32> =
        kernel!(Avx512, "avx512f", __m512, 12, 2, pack_transpose_f32);
    pub const AVX512_F64: Kernel<f64> =
        kernel!(Avx512, "avx512f", __m512d, 12, 2, pack_transpose_f64);

    /// Transpose body for f32: a strip of `W ∈ {6, 8, 12, 16, 32}` rows,
    /// four depth steps a block. Rows are taken eight at a time as four
    /// `ymm` whose low lane holds row `g+q` and high lane row `g+4+q`, so
    /// one in-lane 4×4 transpose (four unpacks, four shuffles) yields the
    /// four steps' eight-row vectors with no cross-lane permute. Rows past
    /// `live ≤ W` enter as zeros. Returns the steps packed (the multiple
    /// of four below `depth`); the caller packs the tail.
    ///
    /// A group with fewer than eight slots left stores fewer lanes.
    /// `W = 12`'s second group has four: the low `xmm`, exactly. `W = 6`
    /// stores eight lanes into six slots: the two zero lanes land on the
    /// next step's first slots, which the next store overwrites (it is the
    /// strip's only group, so stores run in step order, the caller's tail
    /// last). Only the strip's final step has nothing after it, and is
    /// stored as 4 + 2 lanes.
    ///
    /// # Safety
    /// CPU must support AVX2; bounds as established by
    /// [`super::check_panel`] for the transpose at `width = W`.
    #[target_feature(enable = "avx2")]
    unsafe fn transpose_f32<const W: usize>(
        src: *const f32,
        stride: usize,
        live: usize,
        depth: usize,
        dst: *mut f32,
    ) -> usize {
        assert!(matches!(W, 6 | 8 | 12 | 16 | 32));
        let row4 = |i: usize, d: usize| -> __m128 {
            if i < live {
                // SAFETY: row i < live is readable over steps d..d+4.
                _mm_loadu_ps(src.add(i * stride + d))
            } else {
                _mm_setzero_ps()
            }
        };
        let main = depth - depth % 4;
        let mut d = 0;
        while d < main {
            let mut g = 0;
            while g < W {
                let x0 = _mm256_set_m128(row4(g + 4, d), row4(g, d));
                let x1 = _mm256_set_m128(row4(g + 5, d), row4(g + 1, d));
                let x2 = _mm256_set_m128(row4(g + 6, d), row4(g + 2, d));
                let x3 = _mm256_set_m128(row4(g + 7, d), row4(g + 3, d));
                let t0 = _mm256_unpacklo_ps(x0, x1); // steps d, d+1 of rows q = 0, 1
                let t1 = _mm256_unpackhi_ps(x0, x1); // steps d+2, d+3
                let t2 = _mm256_unpacklo_ps(x2, x3); // the same of rows q = 2, 3
                let t3 = _mm256_unpackhi_ps(x2, x3);
                let steps = [
                    _mm256_shuffle_ps::<0x44>(t0, t2),
                    _mm256_shuffle_ps::<0xEE>(t0, t2),
                    _mm256_shuffle_ps::<0x44>(t1, t3),
                    _mm256_shuffle_ps::<0xEE>(t1, t3),
                ];
                for (j, &v) in steps.iter().enumerate() {
                    // SAFETY: step d+j < depth; eight lanes stay inside
                    // depth·W unless this is the last step of a W = 6
                    // strip, which takes the narrow store.
                    let out = dst.add((d + j) * W + g);
                    let slots = W - g;
                    if slots >= 8 || (slots == 6 && d + j + 1 < depth) {
                        _mm256_storeu_ps(out, v);
                    } else {
                        _mm_storeu_ps(out, _mm256_castps256_ps128(v));
                        if slots == 6 {
                            let high = _mm_castps_pd(_mm256_extractf128_ps::<1>(v));
                            _mm_store_sd(out.add(4).cast::<f64>(), high);
                        }
                    }
                }
                g += 8;
            }
            d += 4;
        }
        main
    }

    /// Transpose body for f64: a strip of `W ∈ {6, 8, 12, 16}` rows, two
    /// depth steps a block. Four rows at a time as two `ymm` (low lane rows
    /// `g`/`g+1`, high lane rows `g+2`/`g+3`): `unpacklo`/`unpackhi` are
    /// the two steps' four-row vectors. `W = 6` finishes with one `xmm`
    /// pair for rows 4 and 5, so every store is exact. Rows past `live`
    /// enter as zeros. Returns the steps packed (the even number below
    /// `depth`); the caller packs the tail.
    ///
    /// # Safety
    /// CPU must support AVX2; bounds as established by
    /// [`super::check_panel`] for the transpose at `width = W`.
    #[target_feature(enable = "avx2")]
    unsafe fn transpose_f64<const W: usize>(
        src: *const f64,
        stride: usize,
        live: usize,
        depth: usize,
        dst: *mut f64,
    ) -> usize {
        assert!(matches!(W, 6 | 8 | 12 | 16));
        let row2 = |i: usize, d: usize| -> __m128d {
            if i < live {
                // SAFETY: row i < live is readable over steps d, d+1.
                _mm_loadu_pd(src.add(i * stride + d))
            } else {
                _mm_setzero_pd()
            }
        };
        let main = depth - depth % 2;
        let mut d = 0;
        while d < main {
            // SAFETY (stores): steps d, d+1 < depth and g + lanes ≤ W.
            let mut g = 0;
            while g + 4 <= W {
                let a = _mm256_set_m128d(row2(g + 2, d), row2(g, d));
                let b = _mm256_set_m128d(row2(g + 3, d), row2(g + 1, d));
                _mm256_storeu_pd(dst.add(d * W + g), _mm256_unpacklo_pd(a, b));
                _mm256_storeu_pd(dst.add((d + 1) * W + g), _mm256_unpackhi_pd(a, b));
                g += 4;
            }
            if g < W {
                let (a, b) = (row2(g, d), row2(g + 1, d));
                _mm_storeu_pd(dst.add(d * W + g), _mm_unpacklo_pd(a, b));
                _mm_storeu_pd(dst.add((d + 1) * W + g), _mm_unpackhi_pd(a, b));
            }
            d += 2;
        }
        main
    }

    /// A transpose primitive (see [`super::PanelFn`]) from a transposer
    /// body: the body at the widths it has a register transpose for, the
    /// scalar loop for the depth tail it leaves and for any other width.
    macro_rules! transpose_primitive {
        ($name:ident, $T:ty, $body:ident, [$($width:literal),*]) => {
            pub fn $name(
                src: &[$T],
                stride: usize,
                live: usize,
                depth: usize,
                width: usize,
                dst: &mut [$T],
            ) {
                super::check_panel(src, stride, live, depth, width, dst, true);
                let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
                // SAFETY: check_panel proved the bounds the body relies on
                // at this width; dispatch installs this pointer only where
                // AVX2 is detected.
                let done = unsafe {
                    match width {
                        $($width => $body::<$width>(s, stride, live, depth, d),)*
                        _ => 0,
                    }
                };
                let (src, dst) = (&src[done..], &mut dst[done * width..]);
                super::pack_transpose_scalar(src, stride, live, depth - done, width, dst);
            }
        };
    }
    // The widths a kernel packs at: the AVX2 tiles (6×16, 6×8), the AVX-512
    // tiles (12×32, 12×16) and the scalar tile (8×8), which a plan can pin.
    transpose_primitive!(pack_transpose_f32, f32, transpose_f32, [6, 8, 12, 16, 32]);
    transpose_primitive!(pack_transpose_f64, f64, transpose_f64, [6, 8, 12, 16]);

    /// [`super::pack_copy_scalar`] compiled with AVX2 enabled, so a
    /// fixed-width row is `ymm` moves.
    ///
    /// # Safety
    /// CPU must support AVX2 (the body itself is safe code).
    #[target_feature(enable = "avx2")]
    unsafe fn copy_body<T: Element>(
        src: &[T],
        stride: usize,
        live: usize,
        depth: usize,
        width: usize,
        dst: &mut [T],
    ) {
        super::pack_copy_scalar(src, stride, live, depth, width, dst)
    }

    /// Copy primitive (see [`super::PanelFn`]).
    pub fn pack_copy<T: Element>(
        src: &[T],
        stride: usize,
        live: usize,
        depth: usize,
        width: usize,
        dst: &mut [T],
    ) {
        // SAFETY: dispatch installs this pointer only when AVX2 is detected.
        unsafe { copy_body(src, stride, live, depth, width, dst) }
    }
}

/// NEON micro-kernels (AArch64, 128-bit registers). NEON is baseline on
/// AArch64, so no `#[target_feature]` gymnastics are needed.
#[cfg(target_arch = "aarch64")]
mod neon {
    use crate::microkernel::merge_tile;
    use std::arch::aarch64::*;

    /// f32 register-tile rows.
    pub const MR_F32: usize = 6;
    /// f32 register-tile columns (two 4-lane `v` registers per row).
    pub const NR_F32: usize = 8;
    /// f64 register-tile rows.
    pub const MR_F64: usize = 6;
    /// f64 register-tile columns (two 2-lane `v` registers per row).
    pub const NR_F64: usize = 4;

    /// Fused 6×8 f32 NEON kernel: the tile staged by [`acc_f32`], then
    /// the one masked merge.
    ///
    /// # Safety
    /// See [`super::MicroFn`].
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn run_f32(
        kc: usize,
        a_panel: *const f32,
        b_panel: *const f32,
        c: *mut f32,
        ldc: usize,
        live_m: usize,
        live_n: usize,
        alpha: f32,
        beta: f32,
    ) {
        let mut tile = [0.0f32; MR_F32 * NR_F32];
        acc_f32(kc, a_panel, b_panel, tile.as_mut_ptr());
        // SAFETY: staged tile fully initialised; C bounds per caller.
        merge_tile(tile.as_ptr(), NR_F32, c, ldc, live_m, |_| live_n, alpha, beta);
    }

    /// Accumulate the full 6×8 f32 tile (12 accumulator vectors).
    ///
    /// # Safety
    /// `a` points at `kc·6` packed elements, `b` at `kc·8`.
    unsafe fn acc_tile_f32(kc: usize, a: *const f32, b: *const f32) -> [float32x4_t; 12] {
        let mut acc = [vdupq_n_f32(0.0); 12];
        let mut ap = a;
        let mut bp = b;
        for _ in 0..kc {
            // SAFETY: panel bounds per the function contract.
            let b0 = vld1q_f32(bp);
            let b1 = vld1q_f32(bp.add(4));
            for i in 0..6 {
                let ai = *ap.add(i);
                acc[2 * i] = vfmaq_n_f32(acc[2 * i], b0, ai);
                acc[2 * i + 1] = vfmaq_n_f32(acc[2 * i + 1], b1, ai);
            }
            ap = ap.add(MR_F32);
            bp = bp.add(NR_F32);
        }
        acc
    }

    /// Accumulate-only 6×8 f32 kernel.
    ///
    /// # Safety
    /// See [`super::AccFn`].
    pub unsafe fn acc_f32(kc: usize, a_panel: *const f32, b_panel: *const f32, tile: *mut f32) {
        let acc = acc_tile_f32(kc, a_panel, b_panel);
        for i in 0..MR_F32 {
            // SAFETY: `tile` holds mr·nr elements per the contract.
            vst1q_f32(tile.add(i * NR_F32), acc[2 * i]);
            vst1q_f32(tile.add(i * NR_F32 + 4), acc[2 * i + 1]);
        }
    }

    /// Fused 6×4 f64 NEON kernel: the tile staged by [`acc_f64`], then
    /// the one masked merge.
    ///
    /// # Safety
    /// See [`super::MicroFn`].
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn run_f64(
        kc: usize,
        a_panel: *const f64,
        b_panel: *const f64,
        c: *mut f64,
        ldc: usize,
        live_m: usize,
        live_n: usize,
        alpha: f64,
        beta: f64,
    ) {
        let mut tile = [0.0f64; MR_F64 * NR_F64];
        acc_f64(kc, a_panel, b_panel, tile.as_mut_ptr());
        // SAFETY: staged tile fully initialised; C bounds per caller.
        merge_tile(tile.as_ptr(), NR_F64, c, ldc, live_m, |_| live_n, alpha, beta);
    }

    /// Accumulate the full 6×4 f64 tile (12 accumulator vectors).
    ///
    /// # Safety
    /// `a` points at `kc·6` packed elements, `b` at `kc·4`.
    unsafe fn acc_tile_f64(kc: usize, a: *const f64, b: *const f64) -> [float64x2_t; 12] {
        let mut acc = [vdupq_n_f64(0.0); 12];
        let mut ap = a;
        let mut bp = b;
        for _ in 0..kc {
            // SAFETY: panel bounds per the function contract.
            let b0 = vld1q_f64(bp);
            let b1 = vld1q_f64(bp.add(2));
            for i in 0..6 {
                let ai = *ap.add(i);
                acc[2 * i] = vfmaq_n_f64(acc[2 * i], b0, ai);
                acc[2 * i + 1] = vfmaq_n_f64(acc[2 * i + 1], b1, ai);
            }
            ap = ap.add(MR_F64);
            bp = bp.add(NR_F64);
        }
        acc
    }

    /// Accumulate-only 6×4 f64 kernel.
    ///
    /// # Safety
    /// See [`super::AccFn`].
    pub unsafe fn acc_f64(kc: usize, a_panel: *const f64, b_panel: *const f64, tile: *mut f64) {
        let acc = acc_tile_f64(kc, a_panel, b_panel);
        for i in 0..MR_F64 {
            // SAFETY: `tile` holds mr·nr elements per the contract.
            vst1q_f64(tile.add(i * NR_F64), acc[2 * i]);
            vst1q_f64(tile.add(i * NR_F64 + 2), acc[2 * i + 1]);
        }
    }

    /// Transpose body for f32: a strip of `W ∈ {4, 6, 8}` rows, four depth
    /// steps a block. Four rows at a time through a 4×4 register transpose
    /// (`trn1`/`trn2`, then the 64-bit halves recombined); `W = 6`
    /// finishes with rows 4 and 5 as 2×4 → four 64-bit stores, so every
    /// store is exact. Rows past `live` enter as zeros. Returns the steps
    /// packed (the multiple of four below `depth`); the caller packs the
    /// tail.
    ///
    /// # Safety
    /// Bounds as established by [`super::check_panel`] for the transpose
    /// at `width = W`.
    unsafe fn transpose_f32<const W: usize>(
        src: *const f32,
        stride: usize,
        live: usize,
        depth: usize,
        dst: *mut f32,
    ) -> usize {
        assert!(W == 4 || W == 6 || W == 8);
        let row4 = |i: usize, d: usize| -> float32x4_t {
            if i < live {
                // SAFETY: row i < live is readable over steps d..d+4.
                vld1q_f32(src.add(i * stride + d))
            } else {
                vdupq_n_f32(0.0)
            }
        };
        let main = depth - depth % 4;
        let mut d = 0;
        while d < main {
            // SAFETY (stores): steps d..d+4 < depth and g + lanes ≤ W.
            let mut g = 0;
            while g + 4 <= W {
                let (r0, r1, r2, r3) = (row4(g, d), row4(g + 1, d), row4(g + 2, d), row4(g + 3, d));
                let t0 = vtrn1q_f32(r0, r1); // [r0[0] r1[0] r0[2] r1[2]]
                let t1 = vtrn2q_f32(r0, r1); // [r0[1] r1[1] r0[3] r1[3]]
                let t2 = vtrn1q_f32(r2, r3);
                let t3 = vtrn2q_f32(r2, r3);
                let out = dst.add(d * W + g);
                vst1q_f32(out, vcombine_f32(vget_low_f32(t0), vget_low_f32(t2)));
                vst1q_f32(out.add(W), vcombine_f32(vget_low_f32(t1), vget_low_f32(t3)));
                vst1q_f32(out.add(2 * W), vcombine_f32(vget_high_f32(t0), vget_high_f32(t2)));
                vst1q_f32(out.add(3 * W), vcombine_f32(vget_high_f32(t1), vget_high_f32(t3)));
                g += 4;
            }
            if g < W {
                let (r0, r1) = (row4(g, d), row4(g + 1, d));
                let t0 = vtrn1q_f32(r0, r1);
                let t1 = vtrn2q_f32(r0, r1);
                let out = dst.add(d * W + g);
                vst1_f32(out, vget_low_f32(t0));
                vst1_f32(out.add(W), vget_low_f32(t1));
                vst1_f32(out.add(2 * W), vget_high_f32(t0));
                vst1_f32(out.add(3 * W), vget_high_f32(t1));
            }
            d += 4;
        }
        main
    }

    /// Transpose primitive for f32 (see [`super::PanelFn`]): register
    /// transposes at widths 6 and 8 (this ISA's tile; 8 is also the scalar
    /// tile) and 4, the scalar loop otherwise.
    pub fn pack_transpose_f32(
        src: &[f32],
        stride: usize,
        live: usize,
        depth: usize,
        width: usize,
        dst: &mut [f32],
    ) {
        super::check_panel(src, stride, live, depth, width, dst, true);
        let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
        // SAFETY: check_panel proved the bounds the bodies rely on at this
        // width.
        let done = unsafe {
            match width {
                4 => transpose_f32::<4>(s, stride, live, depth, d),
                6 => transpose_f32::<6>(s, stride, live, depth, d),
                8 => transpose_f32::<8>(s, stride, live, depth, d),
                _ => 0,
            }
        };
        let (src, dst) = (&src[done..], &mut dst[done * width..]);
        super::pack_transpose_scalar(src, stride, live, depth - done, width, dst);
    }

    /// Transpose body for f64: a strip of `W ∈ {4, 6, 8}` rows, two depth
    /// steps a block, two rows at a time (`zip1`/`zip2` are the 2×2
    /// transpose); every store is exact. Rows past `live` enter as zeros.
    /// Returns the steps packed (the even number below `depth`); the
    /// caller packs the tail.
    ///
    /// # Safety
    /// Bounds as established by [`super::check_panel`] for the transpose
    /// at `width = W`.
    unsafe fn transpose_f64<const W: usize>(
        src: *const f64,
        stride: usize,
        live: usize,
        depth: usize,
        dst: *mut f64,
    ) -> usize {
        assert!(W == 4 || W == 6 || W == 8);
        let row2 = |i: usize, d: usize| -> float64x2_t {
            if i < live {
                // SAFETY: row i < live is readable over steps d, d+1.
                vld1q_f64(src.add(i * stride + d))
            } else {
                vdupq_n_f64(0.0)
            }
        };
        let main = depth - depth % 2;
        let mut d = 0;
        while d < main {
            // SAFETY (stores): steps d, d+1 < depth and g + 2 ≤ W.
            let mut g = 0;
            while g < W {
                let (r0, r1) = (row2(g, d), row2(g + 1, d));
                vst1q_f64(dst.add(d * W + g), vzip1q_f64(r0, r1));
                vst1q_f64(dst.add((d + 1) * W + g), vzip2q_f64(r0, r1));
                g += 2;
            }
            d += 2;
        }
        main
    }

    /// Transpose primitive for f64 (see [`super::PanelFn`]): register
    /// transposes at widths 6 and 4 (this ISA's tile) and 8 (the scalar
    /// tile), the scalar loop otherwise.
    pub fn pack_transpose_f64(
        src: &[f64],
        stride: usize,
        live: usize,
        depth: usize,
        width: usize,
        dst: &mut [f64],
    ) {
        super::check_panel(src, stride, live, depth, width, dst, true);
        let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
        // SAFETY: check_panel proved the bounds the bodies rely on at this
        // width.
        let done = unsafe {
            match width {
                4 => transpose_f64::<4>(s, stride, live, depth, d),
                6 => transpose_f64::<6>(s, stride, live, depth, d),
                8 => transpose_f64::<8>(s, stride, live, depth, d),
                _ => 0,
            }
        };
        let (src, dst) = (&src[done..], &mut dst[done * width..]);
        super::pack_transpose_scalar(src, stride, live, depth - done, width, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::MatView;

    /// Pack a dense row-major `mr×kc` A block / `kc×nr` B block the way
    /// the real pack routines would (one full strip each).
    fn pack_dense<T: Element>(
        a: &[T],
        b: &[T],
        kc: usize,
        mr: usize,
        nr: usize,
    ) -> (Vec<T>, Vec<T>) {
        let mut ap = vec![T::ZERO; kc * mr];
        for l in 0..kc {
            for i in 0..mr {
                ap[l * mr + i] = a[i * kc + l];
            }
        }
        let mut bp = vec![T::ZERO; kc * nr];
        bp.copy_from_slice(&b[..kc * nr]);
        (ap, bp)
    }

    fn dense_f64(n: usize, scale: f64) -> Vec<f64> {
        (0..n).map(|i| ((i % 17) as f64 - 8.0) * scale).collect()
    }

    /// The kernels a test can run here: every supported ISA's (one per
    /// ISA the host executes, scalar always). An ISA the host lacks is a
    /// printed skip, so a runner's coverage is on its log.
    fn runnable_kernels<T: Element>() -> Vec<Kernel<T>> {
        let mut kernels: Vec<Kernel<T>> = Vec::new();
        for isa in KernelIsa::ALL {
            let kernel = Kernel::<T>::for_isa(isa);
            if kernel.isa != isa {
                eprintln!("skipped: {isa} kernels cannot run here (resolved to {})", kernel.isa);
            } else {
                kernels.push(kernel);
            }
        }
        kernels
    }

    /// Every runnable kernel must agree with a naive tile product within
    /// an accumulation-order bound.
    #[test]
    fn kernels_match_naive_tile_product() {
        for kern in runnable_kernels::<f64>() {
            let isa = kern.isa;
            let (mr, nr) = (kern.mr, kern.nr);
            for kc in [0usize, 1, 3, 7, 64] {
                let a = dense_f64(mr * kc.max(1), 0.37);
                let b = dense_f64(kc.max(1) * nr, 0.53);
                let (ap, bp) = pack_dense(&a, &b, kc, mr, nr);
                let mut c = vec![0.0f64; mr * nr];
                // SAFETY: packed panels and C tile sized per contract.
                unsafe {
                    kern.run(kc, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), nr, mr, nr, 1.0, 0.0);
                }
                for i in 0..mr {
                    for j in 0..nr {
                        let mut want = 0.0;
                        for l in 0..kc {
                            want += a[i * kc + l] * b[l * nr + j];
                        }
                        let got = c[i * nr + j];
                        assert!(
                            (got - want).abs() <= 1e-10 * (1.0 + want.abs()),
                            "{isa:?} kc={kc} ({i},{j}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dispatched_beta_zero_never_reads_c() {
        runnable_kernels::<f32>().into_iter().for_each(beta_zero_never_reads_c);
    }

    fn beta_zero_never_reads_c(kern: Kernel<f32>) {
        let (mr, nr) = (kern.mr, kern.nr);
        let kc = 5;
        let a = vec![1.0f32; mr * kc];
        let b = vec![2.0f32; kc * nr];
        let (ap, bp) = pack_dense(&a, &b, kc, mr, nr);
        // Full tile: NaN in C must be fully overwritten.
        let mut c = vec![f32::NAN; mr * nr];
        // SAFETY: packed panels and C tile sized per contract.
        unsafe { kern.run(kc, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), nr, mr, nr, 0.5, 0.0) };
        for &v in &c {
            assert_eq!(v, 0.5 * kc as f32 * 2.0, "{}", kern.isa);
        }
        // Edge tile: live lanes overwritten, dead lanes untouched.
        let mut c = vec![f32::NAN; mr * nr];
        let (lm, ln) = (mr - 1, nr - 3);
        // SAFETY: live_m/live_n within the allocated tile.
        unsafe { kern.run(kc, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), nr, lm, ln, 1.0, 0.0) };
        for i in 0..mr {
            for j in 0..nr {
                let v = c[i * nr + j];
                if i < lm && j < ln {
                    assert_eq!(v, kc as f32 * 2.0, "{} ({i},{j})", kern.isa);
                } else {
                    assert!(v.is_nan(), "{}: dead lane ({i},{j}) was written", kern.isa);
                }
            }
        }
    }

    #[test]
    fn acc_matches_run_with_identity_merge() {
        for kern in runnable_kernels::<f64>() {
            let isa = kern.isa;
            let (mr, nr) = (kern.mr, kern.nr);
            let kc = 9;
            let a = dense_f64(mr * kc, 1.1);
            let b = dense_f64(kc * nr, -0.7);
            let (ap, bp) = pack_dense(&a, &b, kc, mr, nr);
            let mut via_run = vec![0.0f64; mr * nr];
            let mut via_acc = vec![0.0f64; mr * nr];
            // SAFETY: packed panels and tiles sized per contract.
            unsafe {
                kern.run(kc, ap.as_ptr(), bp.as_ptr(), via_run.as_mut_ptr(), nr, mr, nr, 1.0, 0.0);
                kern.acc(kc, ap.as_ptr(), bp.as_ptr(), via_acc.as_mut_ptr());
            }
            // α = 1, β = 0 merge adds `+ 0.0`, which is an exact no-op
            // for these finite values: the two paths agree bitwise.
            assert_eq!(via_run, via_acc, "{isa:?}");
        }
    }

    /// A full tile's vector write-back is the one masked merge, bit for
    /// bit: `run` on every runnable kernel must equal its `acc` merged by
    /// [`merge_tile`], for α ∈ {1, 1.25, −1} and β ∈ {0, 1, 0.3, −0.75},
    /// over a `C` that holds `+0` and `−0` among its values.
    #[test]
    fn full_tile_run_is_acc_plus_the_one_merge() {
        full_tile_run_is_acc_plus_merge::<f32>();
        full_tile_run_is_acc_plus_merge::<f64>();
    }

    fn full_tile_run_is_acc_plus_merge<T: Element + From<f32> + Into<f64>>() {
        let value = |i: usize| T::from(((i * 7 % 19) as f32 - 9.0) * 0.37);
        let kc = 11;
        for kern in runnable_kernels::<T>() {
            let (mr, nr) = (kern.mr, kern.nr);
            let ap: Vec<T> = (0..kc * mr).map(value).collect();
            // A zero depth step's column: `acc` holds exact zeros there.
            let bp: Vec<T> =
                (0..kc * nr).map(|i| if i % nr == 1 { T::ZERO } else { value(i + 3) }).collect();
            let c0: Vec<T> = (0..mr * nr)
                .map(|i| match i % 5 {
                    0 => T::ZERO,
                    1 => T::ZERO * T::from(-1.0),
                    _ => value(i + 11),
                })
                .collect();
            let mut acc = vec![T::ZERO; mr * nr];
            // SAFETY: packed panels of kc·mr / kc·nr, a tile of mr·nr.
            unsafe { kern.acc(kc, ap.as_ptr(), bp.as_ptr(), acc.as_mut_ptr()) };
            for alpha in [1.0, 1.25, -1.0].map(T::from) {
                for beta in [0.0, 1.0, 0.3, -0.75].map(T::from) {
                    let (mut via_run, mut via_merge) = (c0.clone(), c0.clone());
                    // SAFETY: as above; both C tiles hold mr·nr at stride nr.
                    unsafe {
                        let (a, b) = (ap.as_ptr(), bp.as_ptr());
                        kern.run(kc, a, b, via_run.as_mut_ptr(), nr, mr, nr, alpha, beta);
                        let c = via_merge.as_mut_ptr();
                        merge_tile(acc.as_ptr(), nr, c, nr, mr, |_| nr, alpha, beta);
                    }
                    let bits = |c: &[T]| c.iter().map(|&v| v.into().to_bits()).collect::<Vec<_>>();
                    assert!(
                        bits(&via_run) == bits(&via_merge),
                        "{} α={alpha:?} β={beta:?}: {:?}",
                        kern.isa,
                        via_run.iter().zip(&via_merge).find(|(x, y)| bits(&[**x]) != bits(&[**y]))
                    );
                }
            }
        }
    }

    /// The in-place entry reads its operands' `mr×kc` and `kc×nr` elements
    /// and nothing else. Each operand is stored at a padded leading
    /// dimension between NaN guards, and its view is built on a slice that
    /// ends at its last element: a read before or past the view leaves the
    /// slice (Miri reports it — CI runs this test under Miri), a read of
    /// the padding between its lines puts a NaN into the tile. The result
    /// must be the packed entry's, bit for bit, for `A` row-major and
    /// transposed, β = 0 over a NaN `C` and a general β, and a masked tile.
    #[test]
    fn in_place_entry_reads_only_inside_its_views() {
        in_place_reads_inside_views::<f32>();
        in_place_reads_inside_views::<f64>();
    }

    #[allow(clippy::eq_op)] // NaN is the one value unequal to itself
    fn is_nan<T: PartialEq>(x: T) -> bool {
        x != x
    }

    fn in_place_reads_inside_views<T: Element + From<f32>>() {
        const GUARD: usize = 16;
        let nan = T::ZERO * T::from(f32::INFINITY);
        let value = |i: usize| T::from(((i * 7 % 19) as f32 - 9.0) * 0.25);
        // `rows×cols` values `at(r, c)` at leading dimension `cols + 3`,
        // NaN everywhere else including before and after.
        let stored = |rows: usize, cols: usize, at: &dyn Fn(usize, usize) -> T| {
            let ld = cols + 3;
            let mut buf = vec![nan; GUARD + (rows - 1) * ld + cols + GUARD];
            for r in 0..rows {
                for c in 0..cols {
                    buf[GUARD + r * ld + c] = at(r, c);
                }
            }
            (buf, ld)
        };
        for kern in runnable_kernels::<T>().into_iter().filter(|k| k.reads_in_place()) {
            let (mr, nr) = (kern.mr, kern.nr);
            for kc in [1usize, 5, 17] {
                let a_at = |i: usize, l: usize| value(i * kc + l);
                let b_at = |l: usize, j: usize| value(3 + l * nr + j);
                let mut ap = vec![T::ZERO; kc * mr];
                let mut bp = vec![T::ZERO; kc * nr];
                for l in 0..kc {
                    (0..mr).for_each(|i| ap[l * mr + i] = a_at(i, l));
                    (0..nr).for_each(|j| bp[l * nr + j] = b_at(l, j));
                }
                let (b_buf, ldb) = stored(kc, nr, &b_at);
                let b_data = &b_buf[GUARD..GUARD + (kc - 1) * ldb + nr];
                let (b, b_ks, _) = MatView::row_major(b_data, kc, nr, ldb).raw_parts();
                for a_transposed in [false, true] {
                    let (a_buf, lda) = if a_transposed {
                        stored(kc, mr, &|l, i| a_at(i, l))
                    } else {
                        stored(mr, kc, &a_at)
                    };
                    let a_view = if a_transposed {
                        let data = &a_buf[GUARD..GUARD + (kc - 1) * lda + mr];
                        MatView::row_major(data, kc, mr, lda).t()
                    } else {
                        MatView::row_major(&a_buf[GUARD..GUARD + (mr - 1) * lda + kc], mr, kc, lda)
                    };
                    let (a, a_rs, a_ks) = a_view.raw_parts();
                    for (beta, live_m, live_n) in
                        [(T::ZERO, mr, nr), (T::from(0.5), mr, nr), (T::ZERO, mr - 1, nr - 1)]
                    {
                        let c0 = if beta == T::ZERO { nan } else { value(5) };
                        let (mut want, mut got) = (vec![c0; mr * nr], vec![c0; mr * nr]);
                        let alpha = T::from(1.5);
                        // SAFETY: packed panels of kc·mr / kc·nr; the views
                        // cover A(i, l) and B(l, j) for the whole tile; both
                        // C tiles hold mr·nr elements at stride nr.
                        unsafe {
                            let (want, got) = (want.as_mut_ptr(), got.as_mut_ptr());
                            let (p, q) = (ap.as_ptr(), bp.as_ptr());
                            kern.run(kc, p, q, want, nr, live_m, live_n, alpha, beta);
                            let in_place = kern.run_in_place.expect("filtered on reads_in_place");
                            in_place(
                                kc, a, a_rs, a_ks, b, b_ks, got, nr, live_m, live_n, alpha, beta,
                            );
                        }
                        let what = format!("{} kc={kc} a_transposed={a_transposed}", kern.isa);
                        for (x, y) in got.iter().zip(&want) {
                            let same = x == y || (is_nan(*x) && is_nan(*y));
                            assert!(
                                same,
                                "{what} β={beta:?} live {live_m}x{live_n}: {x:?} vs {y:?}"
                            );
                        }
                        assert!(
                            got.iter().take(live_m * nr).step_by(nr).all(|&v| !is_nan(v)),
                            "{what}: a NaN was read"
                        );
                    }
                }
            }
        }
    }

    /// The `C` prefetch reads nothing and changes no bit. The tile's last
    /// live row ends at the last element of its buffer, after NaN guards
    /// before the tile and in every row's padding (Miri reports a read
    /// past the buffer; a read of a guard puts a NaN into the result).
    /// With β = 0 over a NaN `C` and with a general β, for a full and a
    /// masked tile, the packed and the in-place entry must write exactly
    /// the live cells, with the bits of the one write-back rule applied to
    /// the accumulate-only entry's tile, which never touches `C`.
    #[test]
    fn c_prefetch_at_the_end_of_c_changes_no_bit() {
        c_prefetch_at_the_end_of_c::<f32>();
        c_prefetch_at_the_end_of_c::<f64>();
    }

    fn c_prefetch_at_the_end_of_c<T: Element + From<f32>>() {
        const GUARD: usize = 16;
        let nan = T::ZERO * T::from(f32::INFINITY);
        let value = |i: usize| T::from(((i * 7 % 19) as f32 - 9.3) * 0.37);
        let (kc, alpha) = (13, T::from(1.5));
        for kern in runnable_kernels::<T>().into_iter().filter(|k| k.reads_in_place()) {
            let (mr, nr) = (kern.mr, kern.nr);
            let ldc = nr + 5;
            let ap: Vec<T> = (0..kc * mr).map(value).collect();
            let bp: Vec<T> = (0..kc * nr).map(|i| value(i + 5)).collect();
            let mut acc = vec![T::ZERO; mr * nr];
            // SAFETY: packed panels of kc·mr / kc·nr, a tile of mr·nr.
            unsafe { kern.acc(kc, ap.as_ptr(), bp.as_ptr(), acc.as_mut_ptr()) };
            for (live_m, live_n) in [(mr, nr), (mr - 1, nr - 3)] {
                let len = GUARD + (live_m - 1) * ldc + live_n;
                let live = |i: usize, j: usize| GUARD + i * ldc + j;
                for beta in [T::ZERO, T::from(-0.75)] {
                    let mut c0 = vec![nan; len];
                    if beta != T::ZERO {
                        for i in 0..live_m {
                            (0..live_n).for_each(|j| c0[live(i, j)] = value(3 * i + j + 11));
                        }
                    }
                    let mut want = c0.clone();
                    for i in 0..live_m {
                        for j in 0..live_n {
                            let (v, out) = (acc[i * nr + j], &mut want[live(i, j)]);
                            let scaled_c = if beta == T::ZERO {
                                T::ZERO
                            } else {
                                beta.mul_add_e(*out, T::ZERO)
                            };
                            *out = alpha.mul_add_e(v, scaled_c);
                        }
                    }
                    for in_place in [false, true] {
                        let mut got = c0.clone();
                        let c = got[GUARD..].as_mut_ptr();
                        let (a, b) = (ap.as_ptr(), bp.as_ptr());
                        // SAFETY: packed panels, read by the in-place
                        // entry at their own strides; the live tile lies
                        // inside `got`, whose last element is its last.
                        unsafe {
                            if in_place {
                                let run = kern.run_in_place.expect("filtered on reads_in_place");
                                run(kc, a, 1, mr, b, nr, c, ldc, live_m, live_n, alpha, beta);
                            } else {
                                kern.run(kc, a, b, c, ldc, live_m, live_n, alpha, beta);
                            }
                        }
                        let what = format!(
                            "{} in_place={in_place} live {live_m}x{live_n} β={beta:?}",
                            kern.isa
                        );
                        for (at, (x, y)) in got.iter().zip(&want).enumerate() {
                            let same = x == y || (is_nan(*x) && is_nan(*y));
                            assert!(same, "{what} at {at}: {x:?} vs {y:?}");
                        }
                        assert_eq!(
                            got.iter().filter(|&&v| !is_nan(v)).count(),
                            live_m * live_n,
                            "{what}: a NaN was read or a guard written"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn detect_is_stable_and_supported() {
        let isa = KernelIsa::dispatched();
        assert!(isa.is_supported());
        assert_eq!(Some(isa), KernelIsa::supported().next(), "the widest supported ISA");
        assert_eq!(isa, KernelIsa::dispatched());
        assert!(KernelIsa::Scalar.is_supported());
        assert_eq!(KernelIsa::supported().last(), Some(KernelIsa::Scalar));
    }

    #[test]
    fn for_isa_falls_back_to_scalar_when_unsupported() {
        // Each architecture's ISAs form a ladder (`ALL` lists it widest
        // first): the host runs its detected rung and every one below it,
        // and nothing above — or of another architecture — may resolve to
        // anything but the scalar kernel. Were support `dispatched() == self`,
        // an AVX-512 host would run a call pinned to AVX2 on scalar.
        let ladder: &[KernelIsa] = if cfg!(target_arch = "x86_64") {
            &[KernelIsa::Avx512, KernelIsa::Avx2Fma, KernelIsa::Scalar]
        } else if cfg!(target_arch = "aarch64") {
            &[KernelIsa::Neon, KernelIsa::Scalar]
        } else {
            &[KernelIsa::Scalar]
        };
        let detected = KernelIsa::dispatched();
        let top = ladder.iter().position(|&isa| isa == detected).expect("detected off-ladder");
        for isa in KernelIsa::ALL {
            let runs = ladder.iter().position(|&rung| rung == isa).is_some_and(|at| at >= top);
            assert_eq!(isa.is_supported(), runs, "{isa} on a host that detects {detected}");
            let want = if runs { isa } else { KernelIsa::Scalar };
            assert_eq!(Kernel::<f32>::for_isa(isa).isa, want);
            assert_eq!(Kernel::<f64>::for_isa(isa).isa, want);
        }
    }

    #[test]
    fn every_table_entry_fits_the_staging_tile() {
        // The table functions themselves, not `for_isa`: an ISA this host
        // cannot run still has its row checked.
        let mut largest = 0;
        for isa in KernelIsa::ALL {
            let (k32, k64) = (kernel_f32(isa), kernel_f64(isa));
            for (mr, nr) in [(k32.mr, k32.nr), (k64.mr, k64.nr)] {
                assert!(mr * nr <= MAX_TILE_ELEMS, "{isa}: {mr}x{nr} > {MAX_TILE_ELEMS}");
                largest = largest.max(mr * nr);
            }
        }
        assert_eq!(largest, MAX_TILE_ELEMS, "the bound is the table's maximum, not a guess");
    }

    #[test]
    fn kernel_isa_serde_roundtrip() {
        for isa in KernelIsa::ALL {
            let v = serde::Serialize::to_value(&isa);
            let back: KernelIsa = serde::Deserialize::from_value(&v).unwrap();
            assert_eq!(isa, back);
        }
    }
}
