//! The blocked, packed, threaded loop nest — one copy of it — and the GEMM
//! entry points over it.
//!
//! Every FLOP of GEMM, Z-order, Strassen's base case and SYRK goes through
//! the same three stages:
//!
//! 1. **Prologue** (`Prologue::resolve`, `Member::new`): the plan's
//!    micro-kernel, the cache blocks at that kernel's register tile clamped
//!    to the shape, the wall clock, the operand views, the `C` bounds
//!    asserts and the empty-shape [`GemmStats`].
//! 2. **Task builder** (`run_tiles`): one worker per *grid row × grid
//!    column*; a `1×1` grid runs inline on the caller's thread with
//!    nothing boxed. The requested thread count is a *maximum*: like
//!    vendor BLAS, tiny problems run on fewer threads (see
//!    [`ThreadGrid::choose`]).
//! 3. **Tile loop** (`tile_loop` → `row_panel_sweep`): `jc → pc → ic → jr
//!    → ir` over a worker's tile of `C`, parameterised by which columns of
//!    each row of `C` may be written (`Merge`, resolved statically: `Full`
//!    all of them, SYRK's lower triangle those up to the diagonal). A tile
//!    with no row masked runs the fused `kernel.run`; SYRK skips a tile
//!    with every row masked, and only the tiles the diagonal cuts are
//!    staged by `kernel.acc` and merged under the row mask
//!    ([`crate::microkernel::merge_tile`], the same write-back rule). A
//!    worker whose operands fit L2
//!    ([`crate::blocking::reads_in_place`]) packs only their ragged strips
//!    and its kernel reads the rest where it lies (`Strips`; see
//!    [`crate::pack`] for which operands qualify).
//!
//! Every worker runs on a persistent [`ThreadPool`]: the caller's (the
//! serving path, [`gemm_with_stats_pooled`]) or the process-wide
//! [`ThreadPool::global`] ([`gemm_with_stats`]). Z-order keeps its own
//! Morton traversal between the prologue and `row_panel_sweep`. Every
//! worker enters its tile through `enter_tile`, the fault-injection hook's
//! one site.
//!
//! ## Packing workspace
//!
//! Nothing heap-allocates scratch on the hot path: packing buffers come
//! from [`crate::workspace`] arenas — pool workers use their stable
//! pool-owned slots, everything else a thread-local arena — so
//! steady-state pooled traffic performs **zero packing-path allocations**
//! (see `GemmStats::arena_bytes_reused` and the workspace counters).
//!
//! Every worker gets its `B` block one way: it packs the block into its
//! own arena, or reads it in place where `b_reads_in_place` allows. With a
//! row-split grid every row group therefore packs its own copy of the same
//! `kc×nc` block — the duplicated-copy effect the paper's Table VII
//! exposes (`more_threads_pack_more_b_panels` pins it) — but no worker
//! ever waits on another, so any grid runs on any pool.

use std::marker::PhantomData;
use std::time::Instant;

use crate::blocking::{reads_b_in_place, reads_in_place, BlockSizes};
use crate::isa::{Kernel, KernelIsa, MAX_TILE_ELEMS};
use crate::microkernel::{merge_tile, write_back};
use crate::pack::{morton_decode, pack_a, MatView};
use crate::plan::{Algorithm, ExecutionPlan};
use crate::pool::ThreadPool;
use crate::stats::{GemmStats, StatsCollector, ThreadLocalStats};
use crate::threading::{SendMutPtr, ThreadGrid};
use crate::workspace::{with_thread_arena, PackArena};
use crate::{Element, Transpose};

/// A fully described GEMM invocation: shape, flags, and the
/// [`ExecutionPlan`] saying how to run it.
///
/// The plan's non-thread axes default to "derive from the host"
/// ([`ExecutionPlan::with_threads`]), which is what the plain BLAS entry
/// points and threads-only decisions use; the grid-trained decision layer
/// hands full plans down instead.
#[derive(Debug, Clone, Copy)]
pub struct GemmCall {
    pub trans_a: Transpose,
    pub trans_b: Transpose,
    pub m: usize,
    pub n: usize,
    pub k: usize,
    /// How to execute: threads, micro-kernel ISA, cache blocking and
    /// algorithm. An explicit `kernel_isa` degrades to
    /// [`KernelIsa::Scalar`] when unsupported or force-scalar is active
    /// (see [`Kernel::for_isa`]); an explicit `blocking` keeps its cache
    /// blocks but always runs at the resolved kernel's register tile
    /// (via [`BlockSizes::with_tile`]).
    pub plan: ExecutionPlan,
}

impl GemmCall {
    /// Untransposed call with a threads-only plan (default blocking,
    /// process-wide kernel dispatch).
    pub fn new(m: usize, n: usize, k: usize, threads: usize) -> Self {
        Self {
            trans_a: Transpose::No,
            trans_b: Transpose::No,
            m,
            n,
            k,
            plan: ExecutionPlan::with_threads(u32::try_from(threads.max(1)).unwrap_or(u32::MAX)),
        }
    }

    /// This call with an explicit execution plan (shape and transpose
    /// flags kept).
    pub fn with_plan(mut self, plan: ExecutionPlan) -> Self {
        self.plan = plan;
        self
    }

    /// This call with an explicit micro-kernel ISA.
    pub fn with_isa(mut self, isa: KernelIsa) -> Self {
        self.plan.kernel_isa = Some(isa);
        self
    }

    /// This call with an explicit cache-blocking override.
    pub fn with_blocks(mut self, blocks: BlockSizes) -> Self {
        self.plan.blocking = Some(blocks);
        self
    }

    /// Maximum worker threads (≥ 1), as the drivers consume it.
    pub fn threads(&self) -> usize {
        self.plan.threads.max(1) as usize
    }
}

/// `C ← α·op(A)·op(B) + β·C`, returning the execution breakdown.
///
/// Matrices are row-major; `lda`/`ldb` are the row strides of the *stored*
/// operands, `ldc` the row stride of `C`. Workers run on the process-wide
/// pool ([`ThreadPool::global`]); [`gemm_with_stats_pooled`] runs the same
/// driver on a pool the caller owns.
///
/// # Panics
/// Panics if a buffer is too small for its described shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_stats<T: Element>(
    call: &GemmCall,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) -> GemmStats {
    gemm_with_stats_pooled(ThreadPool::global(), call, alpha, a, lda, b, ldb, beta, c, ldc)
}

/// [`gemm_with_stats`] on `pool`: its workers' warm packing arenas.
/// Results are bitwise identical on every pool.
///
/// Algorithm dispatch sits in front of the blocked driver: the call goes to
/// the plan's algorithm when the shape is eligible and degrades to the
/// blocked loop nest otherwise. The *executed* algorithm is reported in
/// [`GemmStats::algorithm`], so telemetry can count downgrades (a
/// Strassen plan refused below its cutoff reports `Blocked`).
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_stats_pooled<T: Element>(
    pool: &ThreadPool,
    call: &GemmCall,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) -> GemmStats {
    match call.plan.algorithm {
        Algorithm::Strassen { cutoff }
            if crate::strassen::applicable(call.m, call.n, call.k, cutoff) =>
        {
            crate::strassen::strassen_with_stats(
                pool, call, cutoff, alpha, a, lda, b, ldb, beta, c, ldc,
            )
        }
        Algorithm::ZOrder => zorder_with_stats(call, alpha, a, lda, b, ldb, beta, c, ldc),
        _ => drive(pool, call, alpha, a, lda, b, ldb, beta, c, ldc),
    }
}

/// The one blocked GEMM driver behind every public entry point (and the
/// Strassen recursion's base case, which re-enters it directly so a base
/// sub-problem can never re-dispatch on the algorithm axis).
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<T: Element>(
    pool: &ThreadPool,
    call: &GemmCall,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) -> GemmStats {
    let (m, n, k) = (call.m, call.n, call.k);
    let a_view = operand_view(call.trans_a, a, m, k, lda);
    let b_view = operand_view(call.trans_b, b, k, n, ldb);
    let member = Member::new(a_view, m, n, alpha, beta, c, ldc);
    let pro = Prologue::<T>::resolve(&call.plan, m, n, k);
    if m == 0 || n == 0 {
        return pro.empty_stats();
    }
    let grid = ThreadGrid::choose(call.threads(), m, n, pro.blocks.mr, pro.blocks.nr);
    let rows = |r| grid.row_range(r, m);
    // SAFETY: `member` was checked for this `m×n`, and the grid's row
    // ranges partition `0..m`.
    unsafe { run_tiles::<T, Full>(pool, &pro, &b_view, &member, grid, rows) };
    pro.finish(&member.stats, grid)
}

/// The Morton-traversal serial driver behind [`Algorithm::ZOrder`]:
/// identical per-tile FLOP order to the serial blocked driver (each `C`
/// macro-tile still sees its rank updates in ascending `pc`), but the
/// `(ic, jc)` macro-block grid is walked along the Z curve of
/// [`morton_decode`] and the packed `B` panel is reused whenever two
/// consecutive live Morton steps share a column block. Single-threaded by
/// construction — its profitability on large squares against the
/// parallel blocked driver is exactly what the model has to learn. Only
/// the traversal is its own: prologue, tile entry and the row sweep are
/// the blocked driver's.
#[allow(clippy::too_many_arguments)]
fn zorder_with_stats<T: Element>(
    call: &GemmCall,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) -> GemmStats {
    let (m, n, k) = (call.m, call.n, call.k);
    let a_view = operand_view(call.trans_a, a, m, k, lda);
    let b_view = operand_view(call.trans_b, b, k, n, ldb);
    let member = Member::new(a_view, m, n, alpha, beta, c, ldc);
    let pro = Prologue::<T>::resolve(&call.plan, m, n, k);
    if m == 0 || n == 0 {
        return GemmStats { algorithm: Algorithm::ZOrder, ..pro.empty_stats() };
    }
    let (kernel, blocks) = (&pro.kernel, &pro.blocks);
    let BlockSizes { mc, kc, nc, nr, .. } = *blocks;
    let c = member.c.0;
    // The packing-free rule over the whole call: it is the one worker.
    let in_place = kernel.reads_in_place() && reads_in_place::<T>(m, n, k);
    let b_in_place = in_place && b_reads_in_place(&b_view, m, blocks);

    let mut local = ThreadLocalStats::default();
    with_thread_arena(|arena| {
        let (a_buf, b_buf, reused) = arena.checkout_pair::<T>(blocks);
        local.arena_bytes_reused += reused;
        // SAFETY: `member` holds the exclusive borrow of the whole of `C`,
        // whose extent `Member::new` checked, and this thread is its only
        // worker.
        if !unsafe { enter_tile::<T, Full>(kernel.isa, c, ldc, 0, m, n, k, beta) } {
            return;
        }
        let nbi = m.div_ceil(mc);
        let nbj = n.div_ceil(nc);
        // Walk a power-of-two Morton square covering the (possibly
        // rectangular) block grid and skip dead codes: cheaper than sorting
        // a code list and — crucially for the zero-alloc invariant — free
        // of per-call heap traffic.
        let side = nbi.max(nbj).next_power_of_two() as u64;
        let mut pc = 0;
        while pc < k {
            let kcur = (k - pc).min(kc);
            let beta_eff = if pc == 0 { beta } else { T::ONE };
            let mut packed_bj = usize::MAX;
            for z in 0..side * side {
                let (bi, bj) = morton_decode(z);
                let (bi, bj) = (bi as usize, bj as usize);
                if bi >= nbi || bj >= nbj {
                    continue;
                }
                let jc = bj * nc;
                let ncur = (n - jc).min(nc);
                let ic = bi * mc;
                let mcur = (m - ic).min(mc);
                // Stage `B` only when the column block changes between
                // consecutive live steps.
                let b_block = b_view.sub(pc, jc, kcur, ncur).t();
                if packed_bj != bj {
                    let ThreadLocalStats { b_packed_bytes, pack_ns, .. } = &mut local;
                    stage(&b_block, nr, b_in_place, b_buf, b_packed_bytes, pack_ns);
                    packed_bj = bj;
                }
                let b = Strips { lines: b_block, packed: b_buf, in_place: b_in_place, width: nr };
                let a_rows = a_view.sub(ic, 0, mcur, k);
                // SAFETY: as above; the sweep covers rows `ic..ic + mcur`,
                // columns `jc..jc + ncur` of `C`, and `b_buf` holds what
                // that column block needs staged.
                unsafe {
                    row_panel_sweep::<T, Full>(
                        kernel,
                        &a_rows,
                        c.add(ic * ldc),
                        ldc,
                        ic,
                        mcur,
                        jc,
                        pc,
                        alpha,
                        beta_eff,
                        blocks,
                        in_place,
                        b,
                        a_buf,
                        &mut local,
                    );
                }
            }
            pc += kcur;
        }
    });
    member.stats.absorb(&local);
    let stats = pro.finish(&member.stats, ThreadGrid { rows: 1, cols: 1 });
    GemmStats { algorithm: Algorithm::ZOrder, ..stats }
}

/// The logical `rows×cols` view of a stored operand; transposition is a
/// stride swap.
fn operand_view<T: Element>(
    trans: Transpose,
    data: &[T],
    rows: usize,
    cols: usize,
    ld: usize,
) -> MatView<'_, T> {
    match trans {
        Transpose::No => MatView::row_major(data, rows, cols, ld),
        Transpose::Yes => MatView::row_major(data, cols, rows, ld).t(),
    }
}

/// What every blocked entry point — GEMM, Z-order, SYRK — resolves from
/// its plan before the first tile: the micro-kernel, the
/// cache blocks at that kernel's register tile clamped to the shape, and
/// the wall clock.
pub(crate) struct Prologue<T> {
    pub(crate) kernel: Kernel<T>,
    pub(crate) blocks: BlockSizes,
    start: Instant,
}

impl<T: Element> Prologue<T> {
    /// Resolve `plan` for an `m×n×k` product. The micro-kernel is resolved
    /// once per call (the dispatch itself once per process); blocking,
    /// grid choice, packing geometry and the per-tile kernel calls all
    /// flow from its register tile.
    pub(crate) fn resolve(plan: &ExecutionPlan, m: usize, n: usize, k: usize) -> Self {
        let kernel = match plan.kernel_isa {
            Some(isa) => Kernel::<T>::for_isa(isa),
            None => Kernel::<T>::dispatched(),
        };
        let start = Instant::now();
        let blocks = match (plan.blocking, plan.kernel_isa) {
            // An explicit MC/KC/NC override keeps its cache blocks but must
            // run at the resolved kernel's register tile.
            (Some(b), _) => b.with_tile(kernel.mr, kernel.nr),
            (None, None) => BlockSizes::dispatched::<T>(),
            (None, Some(isa)) => BlockSizes::for_isa::<T>(isa),
        };
        debug_assert!(blocks.is_valid(), "invalid block sizes {blocks:?}");
        Self { kernel, blocks: blocks.clamped(m, n, k), start }
    }

    /// The stats of a call whose `C` is empty: degenerate shapes still
    /// report their (tiny) wall time, so latency accounting upstream
    /// treats them like any other call.
    pub(crate) fn empty_stats(&self) -> GemmStats {
        GemmStats {
            kernel_isa: self.kernel.isa,
            mr: self.kernel.mr,
            nr: self.kernel.nr,
            wall_ns: self.start.elapsed().as_nanos() as u64,
            ..GemmStats::default()
        }
    }

    /// The call's stats once its workers have been absorbed.
    pub(crate) fn finish(&self, collector: &StatsCollector, grid: ThreadGrid) -> GemmStats {
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        let kernel_stat = (self.kernel.isa, self.kernel.mr, self.kernel.nr);
        collector.finish(grid.count(), grid.rows, grid.cols, wall_ns, kernel_stat)
    }
}

/// A blocked call's operands as its workers see them: the logical `A`
/// view, the checked `C` and the scalars, plus the collector its workers
/// report into.
pub(crate) struct Member<'v, T: Element> {
    a: MatView<'v, T>,
    c: SendMutPtr<T>,
    ldc: usize,
    alpha: T,
    beta: T,
    pub(crate) stats: StatsCollector,
    /// `c` stands for this exclusive borrow of the caller's buffer.
    _c: PhantomData<&'v mut [T]>,
}

impl<'v, T: Element> Member<'v, T> {
    /// Check that `c` holds an `m×n` matrix at row stride `ldc` and take
    /// it for the call's lifetime.
    ///
    /// # Panics
    /// Panics if `ldc < n` or the buffer is too small.
    pub(crate) fn new(
        a: MatView<'v, T>,
        m: usize,
        n: usize,
        alpha: T,
        beta: T,
        c: &'v mut [T],
        ldc: usize,
    ) -> Self {
        assert!(ldc >= n.max(1), "ldc too small");
        if m > 0 && n > 0 {
            assert!(c.len() >= (m - 1) * ldc + n, "C buffer too small");
        }
        let stats = StatsCollector::default();
        Self { a, c: SendMutPtr(c.as_mut_ptr()), ldc, alpha, beta, stats, _c: PhantomData }
    }
}

/// Which columns of `C` a routine writes, resolved statically per
/// routine. A tile whose every row is live to its edge runs the fused
/// `kernel.run`; a tile with no live column is skipped; a tile the mask
/// cuts is staged by `kernel.acc` and merged row by row over the columns
/// [`Merge::live_cols`] leaves writable.
pub(crate) trait Merge {
    /// No tile is ever cut, so the operands may be read in place (the
    /// staging `kernel.acc` reads packed panels only).
    const FULL: bool;

    /// How many of the leading `ns` columns of `C`'s row `row` may be
    /// written. `row` is global; columns count from the worker's first,
    /// so a masking merge runs on a one-column grid.
    fn live_cols(row: usize, ns: usize) -> usize;
}

/// GEMM's merge: all of `C` is written.
pub(crate) struct Full;

impl Merge for Full {
    const FULL: bool = true;

    #[inline(always)]
    fn live_cols(_row: usize, ns: usize) -> usize {
        ns
    }
}

/// The one task builder: run a worker for every *grid row × grid column*,
/// each on its tile of `member`'s `C` — rows `rows(r)`, columns
/// `grid.col_range(col, n)` — against the matching panels of `A` and `B`,
/// packed into the worker's own arena. A `1×1` grid runs inline on the
/// caller's thread and its thread-local arena, nothing boxed.
///
/// # Safety
/// `member`'s `C` must have been checked by [`Member::new`] for the `m×n`
/// of its `A` view's rows and `b`'s columns, and `rows(r)` for `r` in
/// `0..grid.rows` must be pairwise disjoint, non-empty sub-ranges of
/// `0..m`.
pub(crate) unsafe fn run_tiles<T: Element, M: Merge>(
    pool: &ThreadPool,
    pro: &Prologue<T>,
    b: &MatView<'_, T>,
    member: &Member<'_, T>,
    grid: ThreadGrid,
    rows: impl Fn(usize) -> (usize, usize) + Sync,
) {
    let Prologue { kernel, blocks, .. } = pro;
    let (k, n) = (b.rows(), b.cols());

    let worker = |r: usize, col: usize, arena: &mut PackArena| {
        let mut local = ThreadLocalStats::default();
        let (a_buf, b_buf, reused) = arena.checkout_pair::<T>(blocks);
        local.arena_bytes_reused += reused;
        let (r0, r1) = rows(r);
        let (c0, c1) = grid.col_range(col, n);
        // SAFETY: by this function's contract the tile (r0..r1) × (c0..c1)
        // lies inside the `C` that `Member::new` checked and is disjoint
        // from every other worker's, because the row and column ranges
        // partition it, and the pool blocks until every worker returns,
        // keeping the borrows alive.
        unsafe {
            tile_loop::<T, M>(
                kernel,
                &member.a.sub(r0, 0, r1 - r0, k),
                &b.sub(0, c0, k, c1 - c0),
                member.c.0.add(r0 * member.ldc + c0),
                member.ldc,
                r0,
                r1 - r0,
                c1 - c0,
                k,
                member.alpha,
                member.beta,
                blocks,
                a_buf,
                b_buf,
                &mut local,
            );
        }
        member.stats.absorb(&local);
    };

    if grid.count() == 1 {
        with_thread_arena(|arena| worker(0, 0, arena));
        return;
    }

    let ws = pool.workspace();
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(grid.count());
    for col in 0..grid.cols {
        for r in 0..grid.rows {
            let worker = &worker;
            tasks.push(Box::new(move || ws.with_arena(|arena| worker(r, col, arena))));
        }
    }
    pool.scope_execute(tasks);
}

/// `row ← β·row`: the write-back rule ([`write_back`]) of a zero product.
pub(crate) fn scale_row_by_beta<T: Element>(row: &mut [T], beta: T) {
    for v in row {
        write_back(v, T::ONE, T::ZERO, beta);
    }
}

/// One operand block as the micro-kernel reads it, in strips of `width`
/// lines (`A`'s rows, `B`'s columns): all from their packed panels, or —
/// `in_place` — every full strip where it lies and only the ragged last
/// one from the panels, at the slot [`stage`] packed it to.
#[derive(Clone, Copy)]
struct Strips<'p, T> {
    /// The block with its strip axis as rows: `A`'s block itself, `B`'s
    /// transposed (packing `B` is packing its transpose, see
    /// [`crate::pack`]).
    lines: MatView<'p, T>,
    packed: &'p [T],
    in_place: bool,
    width: usize,
}

impl<T: Element> Strips<'_, T> {
    /// Strip `s` as [`crate::isa::InPlaceFn`] reads it: its origin, the
    /// step between its lines and the step between its depth steps.
    #[inline(always)]
    fn strip(&self, s: usize) -> (*const T, usize, usize) {
        let (width, depth) = (self.width, self.lines.cols());
        if self.in_place && (s + 1) * width <= self.lines.rows() {
            let (origin, line_step, depth_step) = self.lines.raw_parts();
            (origin.wrapping_add(s * width * line_step), line_step, depth_step)
        } else {
            (self.packed[s * width * depth..][..width * depth].as_ptr(), 1, width)
        }
    }
}

/// Copy what the micro-kernel will not read of `lines` in place into
/// `buf`, on the copy clock: every strip, or — `in_place` — only a ragged
/// last strip, to its usual slot and zero-padded as usual. `copied` is
/// the operand's packed-bytes counter.
fn stage<T: Element>(
    lines: &MatView<'_, T>,
    width: usize,
    in_place: bool,
    buf: &mut [T],
    copied: &mut u64,
    pack_ns: &mut u64,
) {
    let (rows, depth) = (lines.rows(), lines.cols());
    let first = if in_place { rows / width * width } else { 0 };
    if first < rows {
        let t0 = Instant::now();
        // `pack_b` is `pack_a` of the transpose: the lines are both.
        *copied +=
            pack_a(&lines.sub(first, 0, rows - first, depth), width, &mut buf[first * depth..]);
        *pack_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// Whether a worker whose operands pass [`reads_in_place`] may read this
/// `B` in place too: its rows' columns must be adjacent (a row-major `B`)
/// for the kernel's vector loads, and the `ms.div_ceil(mr)` row strips
/// re-reading each `B` strip must pass [`reads_b_in_place`].
fn b_reads_in_place<T: Element>(b: &MatView<'_, T>, ms: usize, blocks: &BlockSizes) -> bool {
    let (_, ldb, col_step) = b.raw_parts();
    col_step == 1 && reads_b_in_place::<T>(ms.div_ceil(blocks.mr), blocks.kc, ldb)
}

/// The entry of every worker's tile, whichever traversal follows: the
/// fault-injection hook's one site, and the `k == 0` early out — pure
/// `C ← β·C` over the live columns; no packing, no kernels. Returns
/// whether there is a product left to accumulate.
///
/// # Safety
/// `c` must point at the tile origin, `row0` being that row's index in the
/// whole of `C`; the `ms` rows of `ns` elements spaced `ldc` apart must be
/// valid for read/write and not concurrently accessed.
#[allow(clippy::too_many_arguments)]
unsafe fn enter_tile<T: Element, M: Merge>(
    isa: KernelIsa,
    c: *mut T,
    ldc: usize,
    row0: usize,
    ms: usize,
    ns: usize,
    k: usize,
    beta: T,
) -> bool {
    crate::fault::kernel_entry(isa, ms, ns, k);
    if k == 0 {
        for i in 0..ms {
            let live = M::live_cols(row0 + i, ns);
            scale_row_by_beta(std::slice::from_raw_parts_mut(c.add(i * ldc), live), beta);
        }
    }
    k > 0
}

/// The one blocked loop nest: `jc → pc` over a worker's `ms×ns` tile of
/// `C`, each `kc×nc` block of `B` staged in `b_buf`, then swept down the
/// worker's rows by [`row_panel_sweep`].
///
/// Whether the tile reads its operands in place is decided once, by the
/// packing-free rule ([`reads_in_place`]) on its `ms×ns×k`: then `A` is
/// read in place, and so is a `B` that `b_reads_in_place` allows; SYRK's
/// masked merge keeps its packed panels.
///
/// # Safety
/// As for [`enter_tile`], with `ms, ns ≥ 1`. `blocks.mr`/`blocks.nr` must
/// equal `kernel.mr`/`kernel.nr` (a [`Prologue`] derives one from the
/// other) and `a_buf`/`b_buf` must come from
/// [`crate::workspace::pack_buffer_lens`] of `blocks`.
#[allow(clippy::too_many_arguments)]
unsafe fn tile_loop<T: Element, M: Merge>(
    kernel: &Kernel<T>,
    a: &MatView<'_, T>,
    b: &MatView<'_, T>,
    c: *mut T,
    ldc: usize,
    row0: usize,
    ms: usize,
    ns: usize,
    k: usize,
    alpha: T,
    beta: T,
    blocks: &BlockSizes,
    a_buf: &mut [T],
    b_buf: &mut [T],
    stats: &mut ThreadLocalStats,
) {
    debug_assert!((blocks.mr, blocks.nr) == (kernel.mr, kernel.nr), "blocks/kernel tile mismatch");
    debug_assert!(ms > 0 && ns > 0, "empty tile");
    // No row of the tile writes past its last row's live columns, so the
    // rest take no part: a SYRK band stops at its diagonal.
    let ns = M::live_cols(row0 + ms - 1, ns);
    if !enter_tile::<T, M>(kernel.isa, c, ldc, row0, ms, ns, k, beta) {
        return;
    }
    let BlockSizes { kc, nc, nr, .. } = *blocks;
    let in_place = M::FULL && kernel.reads_in_place() && reads_in_place::<T>(ms, ns, k);
    let b_in_place = in_place && b_reads_in_place(b, ms, blocks);

    let mut jc = 0;
    while jc < ns {
        let ncur = (ns - jc).min(nc);
        let mut pc = 0;
        while pc < k {
            let kcur = (k - pc).min(kc);
            // First rank update of a tile applies the caller's β; later
            // updates accumulate.
            let beta_eff = if pc == 0 { beta } else { T::ONE };
            let b_block = b.sub(pc, jc, kcur, ncur).t();
            let ThreadLocalStats { b_packed_bytes, pack_ns, .. } = stats;
            stage(&b_block, nr, b_in_place, b_buf, b_packed_bytes, pack_ns);
            let b_strips =
                Strips { lines: b_block, packed: b_buf, in_place: b_in_place, width: nr };
            row_panel_sweep::<T, M>(
                kernel, a, c, ldc, row0, ms, jc, pc, alpha, beta_eff, blocks, in_place, b_strips,
                a_buf, stats,
            );
            pc += kcur;
        }
        jc += ncur;
    }
}

/// The `A`-panel sweep for one `B` block — `ic → jr → ir`: stage each
/// `mc×kc` A block of the worker's rows (all of it, or its ragged strip
/// when `a_in_place`), run the micro-kernels against `b`'s strips and
/// merge each tile as `M` says. Every traversal (blocked, Z-order) ends
/// here.
///
/// # Safety
/// As for [`tile_loop`]; `b` must be the `kcur×ncur` block of columns
/// `jc..jc + ncur` (as its transpose) with what it does not read in place
/// staged in its `packed` slots, its lines adjacent (`B`'s columns) when
/// it is read in place, and with `a_in_place` or `b.in_place` `M` must be
/// [`Full`] and `kernel` must read in place.
#[allow(clippy::too_many_arguments)]
unsafe fn row_panel_sweep<T: Element, M: Merge>(
    kernel: &Kernel<T>,
    a: &MatView<'_, T>,
    c: *mut T,
    ldc: usize,
    row0: usize,
    ms: usize,
    jc: usize,
    pc: usize,
    alpha: T,
    beta_eff: T,
    blocks: &BlockSizes,
    a_in_place: bool,
    b: Strips<'_, T>,
    a_buf: &mut [T],
    stats: &mut ThreadLocalStats,
) {
    let BlockSizes { mc, mr, nr, .. } = *blocks;
    let (ncur, kcur) = (b.lines.rows(), b.lines.cols());
    // The register tile staged in memory for a masked merge;
    // MAX_TILE_ELEMS is the maximum over the table `kernel` came from.
    let mut tile = [T::ZERO; MAX_TILE_ELEMS];

    let mut ic = 0;
    while ic < ms {
        let mcur = (ms - ic).min(mc);
        let a_block = a.sub(ic, pc, mcur, kcur);
        let ThreadLocalStats { a_packed_bytes, pack_ns, .. } = stats;
        stage(&a_block, mr, a_in_place, a_buf, a_packed_bytes, pack_ns);
        let a_strips = Strips { lines: a_block, packed: a_buf, in_place: a_in_place, width: mr };

        let t0 = Instant::now();
        let m_strips = mcur.div_ceil(mr);
        let n_strips = ncur.div_ceil(nr);
        for jr in 0..n_strips {
            let j0 = jc + jr * nr;
            let live_n = (ncur - jr * nr).min(nr);
            let (b_strip, b_line_step, b_ks) = b.strip(jr);
            debug_assert_eq!(b_line_step, 1, "a B row's columns must be adjacent");
            for ir in 0..m_strips {
                let i0 = ic + ir * mr;
                let live_m = (mcur - ir * mr).min(mr);
                let a_strip = a_strips.strip(ir);
                // SAFETY: the tile origin stays inside this worker's C
                // region by construction of the loop bounds; a strip read
                // in place is a full one, inside its operand's view, and a
                // packed one holds kcur·mr / kcur·nr elements (zero
                // padded); mr/nr are the kernel's own tile, it reads in
                // place when a strip is (the contract) and the staged
                // tile holds mr·nr (≤ MAX_TILE_ELEMS).
                let c_tile = c.add(i0 * ldc + j0);
                // Live columns of the tile's row `di`: the first row has
                // the fewest, the last the most.
                let cols = |di: usize| M::live_cols(row0 + i0 + di, j0 + live_n).saturating_sub(j0);
                if cols(0) == live_n {
                    // No row masked (every GEMM tile; SYRK's on or below
                    // the diagonal): the fused kernel.
                    kernel.run_strided(
                        kcur,
                        a_strip,
                        (b_strip, b_ks),
                        c_tile,
                        ldc,
                        live_m,
                        live_n,
                        alpha,
                        beta_eff,
                    );
                } else if cols(live_m - 1) == 0 {
                    // Every row masked (SYRK: strictly above the diagonal).
                    continue;
                } else {
                    // Cut by the mask: staged from the packed strips (the
                    // contract) and merged row by row.
                    kernel.acc(kcur, a_strip.0, b_strip, tile.as_mut_ptr());
                    merge_tile(tile.as_ptr(), nr, c_tile, ldc, live_m, cols, alpha, beta_eff);
                }
                stats.kernel_calls += 1;
            }
        }
        stats.kernel_ns += t0.elapsed().as_nanos() as u64;
        ic += mcur;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::naive::naive_gemm;

    fn fill(n: usize, seed: u64) -> Vec<f64> {
        // Cheap deterministic pseudo-random fill (xorshift).
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 2000) as f64 - 1000.0) / 250.0
            })
            .collect()
    }

    fn assert_close(actual: &[f64], expected: &[f64], tol: f64) {
        assert_eq!(actual.len(), expected.len());
        for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
            assert!((a - e).abs() <= tol * (1.0 + e.abs()), "mismatch at {i}: {a} vs {e}");
        }
    }

    /// The least depth from `k` up at which every worker of an `m×n` `f64`
    /// call on `threads` is above the packing-free rule, so the call packs
    /// all it reads: a test pinning the packed path's copy volume runs
    /// there, whatever this host's L2.
    fn packed_depth(m: usize, n: usize, threads: usize, k: usize) -> usize {
        let kernel = Kernel::<f64>::dispatched();
        let grid = ThreadGrid::choose(threads, m, n, kernel.mr, kernel.nr);
        let (ms, ns) = (m / grid.rows, n / grid.cols); // the smallest worker tile
        (k..).step_by(16).find(|&k| !reads_in_place::<f64>(ms, ns, k)).expect("a deep enough k")
    }

    #[allow(clippy::too_many_arguments)] // mirrors the BLAS-style call
    fn check_against_naive(
        m: usize,
        n: usize,
        k: usize,
        threads: usize,
        ta: Transpose,
        tb: Transpose,
        alpha: f64,
        beta: f64,
    ) {
        let (ar, ac) = if ta.is_transposed() { (k, m) } else { (m, k) };
        let (br, bc) = if tb.is_transposed() { (n, k) } else { (k, n) };
        let a = fill(ar * ac.max(1), 1);
        let b = fill(br * bc.max(1), 2);
        let mut c = fill(m * n.max(1), 3);
        let mut c_ref = c.clone();

        let call = GemmCall { trans_a: ta, trans_b: tb, ..GemmCall::new(m, n, k, threads) };
        gemm_with_stats(&call, alpha, &a, ac.max(1), &b, bc.max(1), beta, &mut c, n.max(1));
        naive_gemm(
            ta,
            tb,
            m,
            n,
            k,
            alpha,
            &a,
            ac.max(1),
            &b,
            bc.max(1),
            beta,
            &mut c_ref,
            n.max(1),
        );
        assert_close(&c, &c_ref, 1e-10);
    }

    #[test]
    fn serial_matches_naive_square() {
        check_against_naive(64, 64, 64, 1, Transpose::No, Transpose::No, 1.0, 0.0);
    }

    #[test]
    fn serial_matches_naive_odd_sizes() {
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 7), (9, 130, 33), (257, 5, 129), (8, 8, 1)] {
            check_against_naive(m, n, k, 1, Transpose::No, Transpose::No, 1.0, 0.0);
        }
    }

    #[test]
    fn parallel_matches_naive() {
        for &threads in &[2, 3, 4, 7, 8] {
            check_against_naive(150, 170, 90, threads, Transpose::No, Transpose::No, 1.0, 0.0);
        }
    }

    #[test]
    fn alpha_beta_paths() {
        check_against_naive(40, 30, 20, 4, Transpose::No, Transpose::No, 2.5, 0.0);
        check_against_naive(40, 30, 20, 4, Transpose::No, Transpose::No, 1.0, 1.0);
        check_against_naive(40, 30, 20, 4, Transpose::No, Transpose::No, -0.5, 0.25);
    }

    #[test]
    fn transposed_operands() {
        check_against_naive(33, 44, 55, 3, Transpose::Yes, Transpose::No, 1.0, 0.5);
        check_against_naive(33, 44, 55, 3, Transpose::No, Transpose::Yes, 1.0, 0.5);
        check_against_naive(33, 44, 55, 3, Transpose::Yes, Transpose::Yes, 2.0, 0.0);
    }

    #[test]
    fn multiple_kc_blocks_accumulate_correctly() {
        // k much larger than KC forces the β_eff = 1 accumulation path.
        check_against_naive(16, 16, 1200, 2, Transpose::No, Transpose::No, 1.0, 2.0);
    }

    #[test]
    fn k_zero_scales_c_by_beta() {
        let mut c = vec![3.0f64; 12];
        let call = GemmCall::new(3, 4, 0, 2);
        gemm_with_stats(&call, 1.0, &[], 1, &[], 4, 0.5, &mut c, 4);
        assert!(c.iter().all(|&v| v == 1.5));
    }

    #[test]
    fn degenerate_shapes_report_wall_time() {
        // Regression: the m/n == 0 early return used to hand back a
        // default-zero stats struct even though the timer had started.
        let pool = crate::pool::ThreadPool::new(2);
        let a = vec![0.0f64; 64];
        let b = vec![0.0f64; 64];
        for (m, n) in [(0usize, 8usize), (8, 0)] {
            let call = GemmCall::new(m, n, 8, 4);
            let mut c = vec![0.0f64; 64];
            let global = gemm_with_stats(&call, 1.0, &a, 8, &b, 8.max(n), 0.0, &mut c, 8);
            let pooled =
                gemm_with_stats_pooled(&pool, &call, 1.0, &a, 8, &b, 8.max(n), 0.0, &mut c, 8);
            for s in [global, pooled] {
                assert!(s.wall_ns > 0, "degenerate ({m},{n}) must report wall time: {s:?}");
                assert_eq!(s.threads_used, 0);
                assert_eq!((s.grid_rows, s.grid_cols), (0, 0));
                assert_eq!(s.kernel_calls, 0);
            }
        }
    }

    #[test]
    fn stats_report_threads_and_work() {
        let m = 256;
        let n = 256;
        let k = packed_depth(m, n, 4, 64);
        let a = fill(m * k, 4);
        let b = fill(k * n, 5);
        let mut c = vec![0.0f64; m * n];
        let call = GemmCall::new(m, n, k, 4);
        let stats = gemm_with_stats(&call, 1.0, &a, k, &b, n, 0.0, &mut c, n);
        assert_eq!(stats.threads_used, 4);
        assert_eq!(stats.grid_rows * stats.grid_cols, 4);
        assert!(stats.kernel_calls > 0);
        // Every element of A and B must be packed at least once.
        assert!(stats.a_packed_bytes >= (m * k * 8) as u64);
        assert!(stats.b_packed_bytes >= (k * n * 8) as u64);
        assert!(stats.wall_ns > 0);
    }

    #[test]
    fn under_the_rule_only_the_edge_strip_and_edge_panel_are_copied() {
        let kernel = Kernel::<f64>::dispatched();
        if !kernel.reads_in_place() {
            eprintln!("skipped: the {} kernel packs always", kernel.isa);
            return;
        }
        let (mr, nr, bytes) = (kernel.mr, kernel.nr, 8u64);
        // Ragged in both tile dimensions, several KC blocks deep; then a
        // whole number of tiles, which copies nothing at all.
        let k = 2 * BlockSizes::dispatched::<f64>().kc + 5;
        for (m, n, edge_rows, edge_cols) in [(3 * mr + 1, 2 * nr + 3, 1, 1), (2 * mr, nr, 0, 0)] {
            assert!(
                reads_in_place::<f64>(m, n, k),
                "test shape {m}x{n}x{k} must be under the rule"
            );
            let a = fill(m * k, 151);
            let b = fill(k * n, 152);
            let serial = GemmCall::new(m, n, k, 1);
            let zorder = serial.with_plan(serial.plan.with_algorithm(Algorithm::ZOrder));
            let transposed_b = GemmCall { trans_b: Transpose::Yes, ..serial };
            for (call, b_copied) in [
                (serial, edge_cols * nr * k),
                (zorder, edge_cols * nr * k),
                // A transposed B is packed whole.
                (transposed_b, n.div_ceil(nr) * nr * k),
            ] {
                let (mut c, mut c_ref) = (vec![0.0; m * n], vec![0.0; m * n]);
                let ldb = if call.trans_b.is_transposed() { k } else { n };
                let s = gemm_with_stats(&call, 1.5, &a, k, &b, ldb, 0.0, &mut c, n);
                let what = format!("{m}x{n}x{k} {:?} trans_b={:?}", s.algorithm, call.trans_b);
                assert_eq!(s.a_packed_bytes, (edge_rows * mr * k) as u64 * bytes, "{what}");
                assert_eq!(s.b_packed_bytes, b_copied as u64 * bytes, "{what}");
                if s.a_packed_bytes + s.b_packed_bytes == 0 {
                    assert_eq!(s.pack_ns, 0, "{what}: nothing copied, nothing timed");
                }
                naive_gemm(
                    Transpose::No,
                    call.trans_b,
                    m,
                    n,
                    k,
                    1.5,
                    &a,
                    k,
                    &b,
                    ldb,
                    0.0,
                    &mut c_ref,
                    n,
                );
                assert_close(&c, &c_ref, 1e-10);
            }
        }
    }

    #[test]
    fn a_b_whose_re_reads_sweep_past_l2_is_packed_while_a_is_read_in_place() {
        let kernel = Kernel::<f64>::dispatched();
        if !kernel.reads_in_place() {
            eprintln!("skipped: the {} kernel packs always", kernel.isa);
            return;
        }
        let blocks = BlockSizes::dispatched::<f64>();
        let (mr, nr, bytes) = (kernel.mr, kernel.nr, 8u64);
        let (m, n, k) = (3 * mr + 1, 2 * nr + 3, blocks.kc);
        assert!(reads_in_place::<f64>(m, n, k), "test shape {m}x{n}x{k} must be under the rule");
        // B's rows padded until the four row strips' re-reads of a strip
        // sweep more than L2.
        let ldb = (n..).find(|&ld| !reads_b_in_place::<f64>(4, k, ld)).expect("a wide enough ldb");
        let a = fill(m * k, 161);
        let b = fill(k * ldb, 162);
        let (mut c, mut c_ref) = (vec![0.0; m * n], vec![0.0; m * n]);
        let s = gemm_with_stats(&GemmCall::new(m, n, k, 1), 1.0, &a, k, &b, ldb, 0.0, &mut c, n);
        assert_eq!(s.a_packed_bytes, (mr * k) as u64 * bytes, "A: only its edge strip");
        assert_eq!(s.b_packed_bytes, (k * n.div_ceil(nr) * nr) as u64 * bytes, "B: all of it");
        let no = Transpose::No;
        naive_gemm(no, no, m, n, k, 1.0, &a, k, &b, ldb, 0.0, &mut c_ref, n);
        assert_close(&c, &c_ref, 1e-10);
    }

    #[test]
    fn more_threads_pack_more_b_panels() {
        // With a row-split grid each row group packs its own copy of B —
        // the duplicated-copy effect the paper's Table VII exposes.
        let m = 512;
        let n = 64;
        let k = packed_depth(m, n, 8, 256);
        let a = fill(m * k, 6);
        let b = fill(k * n, 7);
        let run = |threads: usize| {
            let mut c = vec![0.0f64; m * n];
            gemm_with_stats(&GemmCall::new(m, n, k, threads), 1.0, &a, k, &b, n, 0.0, &mut c, n)
        };
        let s1 = run(1);
        let s8 = run(8);
        assert!(
            s8.b_packed_bytes > s1.b_packed_bytes,
            "expected duplicated B packing: {} vs {}",
            s8.b_packed_bytes,
            s1.b_packed_bytes
        );
    }

    /// A row-split grid on a private pool of 8: every row group packs the
    /// whole of `B` for itself, and the result is the serial call's bits
    /// (per-tile FLOP order is grid-invariant).
    #[test]
    fn pooled_row_groups_pack_their_own_b() {
        let pool = crate::pool::ThreadPool::new(8);
        let m = 512;
        let n = 64;
        let k = packed_depth(m, n, 8, 256);
        let a = fill(m * k, 6);
        let b = fill(k * n, 7);
        let run = |threads: usize| {
            let mut c = vec![0.0f64; m * n];
            let call = GemmCall::new(m, n, k, threads);
            let s = gemm_with_stats_pooled(&pool, &call, 1.0, &a, k, &b, n, 0.0, &mut c, n);
            (s, c)
        };
        let (s1, c1) = run(1);
        let (s8, c8) = run(8);
        assert_eq!((s8.grid_rows, s8.grid_cols), (8, 1), "expected a row-split grid: {s8:?}");
        assert_eq!(
            s8.b_packed_bytes,
            8 * s1.b_packed_bytes,
            "every row group packs its own copy of B: {s8:?} vs {s1:?}"
        );
        assert_eq!(c1, c8);
    }

    /// Multi-threaded calls on a private pool of 8 against the serial
    /// call: the same bits across every transpose of skewed shapes.
    #[test]
    fn pooled_bitwise_equal_across_transposes_and_skewed_shapes() {
        let pool = crate::pool::ThreadPool::new(8);
        let shapes = [(256usize, 40usize, 96usize, 8usize), (200, 200, 64, 4), (97, 33, 131, 6)];
        let flags = [Transpose::No, Transpose::Yes];
        for &(m, n, k, threads) in &shapes {
            let k = packed_depth(m, n, threads, k);
            for ta in flags {
                for tb in flags {
                    let (ar, ac) = if ta.is_transposed() { (k, m) } else { (m, k) };
                    let (br, bc) = if tb.is_transposed() { (n, k) } else { (k, n) };
                    let a = fill(ar * ac, 41);
                    let b = fill(br * bc, 42);
                    let mut c_serial = fill(m * n, 43);
                    let mut c_pooled = c_serial.clone();
                    let call = |threads| GemmCall {
                        trans_a: ta,
                        trans_b: tb,
                        ..GemmCall::new(m, n, k, threads)
                    };
                    let what = format!("{m}x{n}x{k} t{threads} {ta:?}/{tb:?}");
                    gemm_with_stats(&call(1), 1.3, &a, ac, &b, bc, 0.6, &mut c_serial, n);
                    let s = gemm_with_stats_pooled(
                        &pool,
                        &call(threads),
                        1.3,
                        &a,
                        ac,
                        &b,
                        bc,
                        0.6,
                        &mut c_pooled,
                        n,
                    );
                    assert!(s.threads_used > 1, "the call must split: {what} {s:?}");
                    assert_eq!(c_serial, c_pooled, "pooled differs from serial at {what}");
                }
            }
        }
    }

    /// More than one column block per worker: at an explicit `NC` of two
    /// register tiles every worker's `jc` loop walks three blocks (the
    /// last ragged), whatever this host's caches derive. A private pool of
    /// 4 must give the serial call's bits at 2 and 4 threads, under the
    /// packing-free rule and above it.
    #[test]
    fn pooled_bitwise_equal_across_column_blocks() {
        let pool = crate::pool::ThreadPool::new(4);
        let kernel = Kernel::<f64>::dispatched();
        let (mr, nr) = (kernel.mr, kernel.nr);
        let blocks = BlockSizes { mc: 4 * mr, kc: 64, nc: 2 * nr, mr, nr };
        let n = 2 * blocks.nc + nr / 2 + 3;
        let m = 4 * n + 5; // tall: every grid splits rows
        for threads in [2usize, 4] {
            let shallow = 3 * blocks.kc + 7;
            for k in [shallow, packed_depth(m, n, threads, shallow)] {
                let a = fill(m * k, 51);
                let b = fill(k * n, 52);
                let mut c_serial = fill(m * n, 53);
                let mut c_pooled = c_serial.clone();
                let call = GemmCall::new(m, n, k, threads).with_blocks(blocks);
                let serial = GemmCall::new(m, n, k, 1).with_blocks(blocks);
                let what = format!("{m}x{n}x{k} t{threads} at {blocks:?}");
                gemm_with_stats(&serial, 1.3, &a, k, &b, n, 0.6, &mut c_serial, n);
                let s =
                    gemm_with_stats_pooled(&pool, &call, 1.3, &a, k, &b, n, 0.6, &mut c_pooled, n);
                assert!(s.grid_rows > 1, "rows not split: {what} {s:?}");
                assert!(n / s.grid_cols > blocks.nc, "a single column block per worker: {what}");
                assert_eq!(c_serial, c_pooled, "pooled differs from serial: {what}");
            }
        }
    }

    /// Nothing in a driver waits on a groupmate, so a grid wider than the
    /// pool just queues: 4- and 8-thread GEMM and SYRK plans on private
    /// pools of 1 and 2 workers finish with the serial call's bits.
    #[test]
    fn any_grid_runs_on_any_pool() {
        let (m, n, k) = (512usize, 64usize, 128usize);
        let (alpha, beta) = (1.25, -0.75);
        let a = fill(m * k, 51);
        let b = fill(k * n, 52);
        let c0 = fill(m * m, 53);
        let serial_pool = crate::pool::ThreadPool::new(1);
        let gemm = |pool: &crate::pool::ThreadPool, threads: usize| {
            let mut c = c0[..m * n].to_vec();
            let call = GemmCall::new(m, n, k, threads);
            let s = gemm_with_stats_pooled(pool, &call, alpha, &a, k, &b, n, beta, &mut c, n);
            (s, c)
        };
        let syrk = |pool: &crate::pool::ThreadPool, threads: usize| {
            let mut c = c0.clone();
            let s = crate::syrk::syrk_with_stats_pooled(
                pool, m, k, alpha, &a, k, beta, &mut c, m, threads,
            );
            (s, c)
        };
        let (_, gemm_serial) = gemm(&serial_pool, 1);
        let (_, syrk_serial) = syrk(&serial_pool, 1);
        for workers in [1usize, 2] {
            let pool = crate::pool::ThreadPool::new(workers);
            for threads in [4usize, 8] {
                let what = format!("{threads} threads on {workers} workers");
                let (s, c) = gemm(&pool, threads);
                assert!(s.threads_used > workers, "GEMM grid must oversubscribe: {what} {s:?}");
                assert_eq!(c, gemm_serial, "GEMM differs: {what}");
                let (s, c) = syrk(&pool, threads);
                assert!(s.threads_used > workers, "SYRK bands must oversubscribe: {what} {s:?}");
                assert_eq!(c, syrk_serial, "SYRK differs: {what}");
            }
        }
    }

    #[test]
    fn pooled_packing_is_allocation_free_after_warmup() {
        let pool = crate::pool::ThreadPool::new(4);
        let (m, n, k) = (192usize, 192usize, 96usize);
        let a = fill(m * k, 61);
        let b = fill(k * n, 62);
        let call = GemmCall::new(m, n, k, 4);
        let run = || {
            let mut c = vec![0.0f64; m * n];
            gemm_with_stats_pooled(&pool, &call, 1.0, &a, k, &b, n, 0.0, &mut c, n)
        };
        // Warm-up until every worker's slot has grown once (each checks
        // out the same packing pair): which worker takes which job is the
        // pool's business, so no fixed number of calls guarantees it.
        let allocations = || pool.workspace().arena_stats().allocations;
        let warm = (0..2000).any(|_| {
            run();
            allocations() == pool.workers() as u64
        });
        assert!(warm, "some worker slot never warmed: {:?}", pool.workspace().arena_stats());
        let before = pool.workspace().arena_stats();
        for _ in 0..10 {
            let stats = run();
            assert!(stats.arena_bytes_reused > 0, "warm calls must reuse arena bytes");
        }
        let after = pool.workspace().arena_stats();
        assert_eq!(
            after.allocations, before.allocations,
            "steady-state pooled packing must not allocate: {before:?} -> {after:?}"
        );
        assert!(after.bytes_reused > before.bytes_reused);
    }

    #[test]
    fn serial_packing_reuses_thread_arena() {
        let (m, n, k) = (96usize, 64usize, 48usize);
        let a = fill(m * k, 71);
        let b = fill(k * n, 72);
        let call = GemmCall::new(m, n, k, 1);
        let run = || {
            let mut c = vec![0.0f64; m * n];
            gemm_with_stats(&call, 1.0, &a, k, &b, n, 0.0, &mut c, n)
        };
        run(); // warm this thread's arena
        let before = crate::workspace::thread_arena_stats();
        for _ in 0..5 {
            run();
        }
        let after = crate::workspace::thread_arena_stats();
        assert_eq!(
            after.allocations, before.allocations,
            "serial steady state must not allocate: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn f32_path_matches_naive() {
        let m = 37;
        let n = 29;
        let k = 41;
        let a: Vec<f32> = fill(m * k, 8).iter().map(|&v| v as f32).collect();
        let b: Vec<f32> = fill(k * n, 9).iter().map(|&v| v as f32).collect();
        let mut c = vec![0.0f32; m * n];
        let mut c_ref = c.clone();
        gemm_with_stats(&GemmCall::new(m, n, k, 3), 1.0f32, &a, k, &b, n, 0.0, &mut c, n);
        naive_gemm(Transpose::No, Transpose::No, m, n, k, 1.0f32, &a, k, &b, n, 0.0, &mut c_ref, n);
        for (x, y) in c.iter().zip(&c_ref) {
            assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn requesting_absurd_threads_is_safe() {
        check_against_naive(16, 16, 16, 1000, Transpose::No, Transpose::No, 1.0, 0.0);
    }

    /// The process pool (sized to the host) against a private pool of 4
    /// workers: the same bits and the same counters.
    #[test]
    fn pooled_driver_matches_scoped_driver() {
        let pool = crate::pool::ThreadPool::new(4);
        for &(m, n, k, threads) in
            &[(64usize, 64usize, 64usize, 4usize), (150, 90, 130, 8), (33, 7, 129, 3)]
        {
            let k = packed_depth(m, n, threads, k);
            let a = fill(m * k, 21);
            let b = fill(k * n, 22);
            let mut c1 = fill(m * n, 23);
            let mut c2 = c1.clone();
            let call = GemmCall::new(m, n, k, threads);
            let s1 = gemm_with_stats(&call, 1.5, &a, k, &b, n, 0.5, &mut c1, n);
            let s2 = gemm_with_stats_pooled(&pool, &call, 1.5, &a, k, &b, n, 0.5, &mut c2, n);
            assert_eq!(c1, c2, "pooled result differs at {m}x{n}x{k}");
            assert_eq!(s1.kernel_calls, s2.kernel_calls);
            assert_eq!(s1.a_packed_bytes, s2.a_packed_bytes);
            assert_eq!(s1.b_packed_bytes, s2.b_packed_bytes);
            assert_eq!(s1.threads_used, s2.threads_used);
        }
    }

    #[test]
    fn pooled_driver_reusable_across_calls() {
        let pool = crate::pool::ThreadPool::new(2);
        let m = 48;
        let a = fill(m * m, 24);
        let b = fill(m * m, 25);
        let call = GemmCall::new(m, m, m, 4);
        let mut first = vec![0.0f64; m * m];
        gemm_with_stats_pooled(&pool, &call, 1.0, &a, m, &b, m, 0.0, &mut first, m);
        for _ in 0..5 {
            let mut c = vec![0.0f64; m * m];
            gemm_with_stats_pooled(&pool, &call, 1.0, &a, m, &b, m, 0.0, &mut c, m);
            assert_eq!(c, first);
        }
    }

    #[test]
    fn zorder_matches_serial_blocked_bitwise() {
        // Same kernels, same blocking, same per-tile rank-update order —
        // only the macro-block traversal differs, so results must be
        // bitwise identical to the serial blocked driver.
        let pool = crate::pool::ThreadPool::new(2);
        for &(m, n, k) in &[(200usize, 300usize, 150usize), (97, 33, 131), (640, 640, 64)] {
            let a = fill(m * k, 101);
            let b = fill(k * n, 102);
            let mut c_blocked = fill(m * n, 103);
            let mut c_z = c_blocked.clone();
            let serial = GemmCall::new(m, n, k, 1);
            let zcall = serial
                .with_plan(serial.plan.with_algorithm(Algorithm::ZOrder).with_thread_count(8));
            let s1 = gemm_with_stats(&serial, 1.5, &a, k, &b, n, 0.25, &mut c_blocked, n);
            let s2 = gemm_with_stats_pooled(&pool, &zcall, 1.5, &a, k, &b, n, 0.25, &mut c_z, n);
            assert_eq!(c_blocked, c_z, "zorder differs at {m}x{n}x{k}");
            assert_eq!(s2.algorithm, Algorithm::ZOrder);
            assert_eq!(s1.algorithm, Algorithm::Blocked);
            assert_eq!(s2.threads_used, 1, "zorder is serial by construction");
            assert_eq!(s1.kernel_calls, s2.kernel_calls);
            assert_eq!(s1.a_packed_bytes, s2.a_packed_bytes);
            // Morton adjacency can only save B packs relative to the
            // column-major sweep, never add them.
            assert!(s2.b_packed_bytes <= s1.b_packed_bytes * 2);
        }
    }

    #[test]
    fn strassen_matches_naive_within_tolerance() {
        // Strassen reassociates additions, so equality is to a relative
        // tolerance, not bitwise. 256³ with the floor cutoff recurses
        // twice.
        let (m, n, k) = (256usize, 256usize, 256usize);
        let a = fill(m * k, 111);
        let b = fill(k * n, 112);
        let mut c = fill(m * n, 113);
        let mut c_ref = c.clone();
        let base = GemmCall::new(m, n, k, 4);
        let call = base.with_plan(base.plan.with_algorithm(Algorithm::Strassen { cutoff: 64 }));
        let stats = gemm_with_stats(&call, 1.25, &a, k, &b, n, 0.5, &mut c, n);
        assert_eq!(stats.algorithm, Algorithm::Strassen { cutoff: 64 });
        assert!(stats.kernel_calls > 0);
        naive_gemm(Transpose::No, Transpose::No, m, n, k, 1.25, &a, k, &b, n, 0.5, &mut c_ref, n);
        assert_close(&c, &c_ref, 1e-9);
    }

    #[test]
    fn strassen_ineligible_shape_degrades_to_blocked() {
        // 255 is odd: the dispatch layer must refuse Strassen, run the
        // blocked driver, and report the downgrade via the executed
        // algorithm.
        let (m, n, k) = (255usize, 256usize, 256usize);
        let a = fill(m * k, 121);
        let b = fill(k * n, 122);
        let mut c = vec![0.0f64; m * n];
        let mut c_ref = vec![0.0f64; m * n];
        let base = GemmCall::new(m, n, k, 2);
        let call = base.with_plan(base.plan.with_algorithm(Algorithm::Strassen { cutoff: 64 }));
        let stats = gemm_with_stats(&call, 1.0, &a, k, &b, n, 0.0, &mut c, n);
        assert_eq!(stats.algorithm, Algorithm::Blocked, "downgrade must be visible");
        gemm_with_stats(&base, 1.0, &a, k, &b, n, 0.0, &mut c_ref, n);
        assert_eq!(c, c_ref, "the degraded call is exactly the blocked call");
    }

    #[test]
    fn strassen_pooled_is_allocation_free_after_warmup() {
        let pool = crate::pool::ThreadPool::new(2);
        let (m, n, k) = (256usize, 256usize, 256usize);
        let a = fill(m * k, 131);
        let b = fill(k * n, 132);
        let base = GemmCall::new(m, n, k, 2);
        let call = base.with_plan(base.plan.with_algorithm(Algorithm::Strassen { cutoff: 64 }));
        let run = || {
            let mut c = vec![0.0f64; m * n];
            gemm_with_stats_pooled(&pool, &call, 1.0, &a, k, &b, n, 0.0, &mut c, n)
        };
        run();
        run();
        let scratch_before = crate::strassen::strassen_arena_stats();
        let pack_before = crate::workspace::thread_arena_stats();
        for _ in 0..5 {
            let stats = run();
            assert!(stats.arena_bytes_reused > 0, "warm Strassen must reuse arena bytes");
        }
        let scratch_after = crate::strassen::strassen_arena_stats();
        let pack_after = crate::workspace::thread_arena_stats();
        assert_eq!(
            scratch_after.allocations, scratch_before.allocations,
            "steady-state Strassen scratch must not allocate"
        );
        assert_eq!(
            pack_after.allocations, pack_before.allocations,
            "base-case packing must stay allocation-free too"
        );
    }

    #[test]
    fn strassen_transposed_operands_match_blocked() {
        let (m, n, k) = (256usize, 256usize, 256usize);
        let flags = [Transpose::No, Transpose::Yes];
        for ta in flags {
            for tb in flags {
                let (ar, ac) = if ta.is_transposed() { (k, m) } else { (m, k) };
                let (br, bc) = if tb.is_transposed() { (n, k) } else { (k, n) };
                let a = fill(ar * ac, 141);
                let b = fill(br * bc, 142);
                let mut c = fill(m * n, 143);
                let mut c_ref = c.clone();
                let base = GemmCall { trans_a: ta, trans_b: tb, ..GemmCall::new(m, n, k, 2) };
                let call =
                    base.with_plan(base.plan.with_algorithm(Algorithm::Strassen { cutoff: 64 }));
                let s = gemm_with_stats(&call, 1.0, &a, ac, &b, bc, 1.0, &mut c, n);
                assert_eq!(s.algorithm, Algorithm::Strassen { cutoff: 64 });
                gemm_with_stats(&base, 1.0, &a, ac, &b, bc, 1.0, &mut c_ref, n);
                assert_close(&c, &c_ref, 1e-9);
            }
        }
    }

    /// FNV-1a over the bits of `values` (as `f64`, to which `f32`
    /// converts exactly), continuing from `hash`.
    pub(crate) fn fnv1a<T: Element + Into<f64>>(hash: u64, values: &[T]) -> u64 {
        values
            .iter()
            .flat_map(|&v| v.into().to_bits().to_le_bytes())
            .fold(hash, |h, byte| (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3))
    }

    pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

    /// The kernels behind every ISA this host runs, each once: the ISA a
    /// pinned call actually executes on (all of them scalar under
    /// `ADSALA_FORCE_SCALAR`).
    pub(crate) fn resolved_isas() -> Vec<KernelIsa> {
        let mut isas: Vec<KernelIsa> =
            KernelIsa::supported().map(|isa| Kernel::<f32>::for_isa(isa).isa).collect();
        isas.dedup();
        isas
    }

    /// The hash of `C` after every GEMM of a fixed set of edge-heavy
    /// shapes (ragged in every loop at an explicit blocking, so no host
    /// cache changes the depth order), both transposes of each operand,
    /// 1, 2 and 3 threads, at each `(α, β)` of `scalars`, on `isa`'s
    /// kernel, `T`'s precision.
    fn gemm_bits<T: Element + Into<f64> + From<f32>>(
        isa: KernelIsa,
        scalars: &[(f32, f32)],
        from: fn(f64) -> T,
    ) -> u64 {
        let blocks = BlockSizes { mc: 24, kc: 24, nc: 64, mr: 1, nr: 1 };
        let to_t = |v: Vec<f64>| -> Vec<T> { v.into_iter().map(from).collect() };
        let mut hash = FNV_BASIS;
        for (seed, &(m, n, k)) in
            [(37usize, 75usize, 53usize), (13, 130, 29), (50, 9, 61)].iter().enumerate()
        {
            let a = to_t(fill(m * k, 91 + seed as u64));
            let b = to_t(fill(k * n, 92 + seed as u64));
            let c0 = to_t(fill(m * n, 93 + seed as u64));
            for (ta, tb) in [Transpose::No, Transpose::Yes]
                .into_iter()
                .flat_map(|ta| [(ta, Transpose::No), (ta, Transpose::Yes)])
            {
                let lda = if ta.is_transposed() { m } else { k };
                let ldb = if tb.is_transposed() { k } else { n };
                for &(alpha, beta) in scalars {
                    for threads in 1..=3 {
                        let call = GemmCall {
                            trans_a: ta,
                            trans_b: tb,
                            ..GemmCall::new(m, n, k, threads)
                        }
                        .with_isa(isa)
                        .with_blocks(blocks);
                        let mut c = c0.clone();
                        let (alpha, beta) = (T::from(alpha), T::from(beta));
                        gemm_with_stats(&call, alpha, &a, lda, &b, ldb, beta, &mut c, n);
                        hash = fnv1a(hash, &c);
                    }
                }
            }
        }
        hash
    }

    /// The bits of the write-back where its rule has not changed, recorded
    /// per kernel: every ISA's GEMM at α ∈ {1, −1.5} and β ∈ {0, 1}, and
    /// the scalar kernel's at general α and β. (SYRK's pins are in
    /// `syrk::tests`.) A kernel with no recorded bits is a printed skip.
    #[test]
    fn write_back_keeps_its_recorded_bits() {
        const UNIT: [(f32, f32); 4] = [(1.0, 0.0), (1.0, 1.0), (-1.5, 0.0), (-1.5, 1.0)];
        const RECORDED: [(KernelIsa, u64, u64); 3] = [
            (KernelIsa::Avx512, 0xaf00_3c06_6284_c534, 0x7aa2_257d_d543_823a),
            (KernelIsa::Avx2Fma, 0xaf00_3c06_6284_c534, 0x7aa2_257d_d543_823a),
            (KernelIsa::Scalar, 0xecff_5f54_5a7a_73d0, 0x01ab_0bf2_844d_e5ed),
        ];
        for isa in resolved_isas() {
            let got = (gemm_bits(isa, &UNIT, |x| x as f32), gemm_bits(isa, &UNIT, |x| x));
            eprintln!("{isa}: {:#018x}, {:#018x}", got.0, got.1);
            match RECORDED.iter().find(|r| r.0 == isa) {
                Some(&(_, f32_bits, f64_bits)) => assert_eq!(got, (f32_bits, f64_bits), "{isa}"),
                None => eprintln!("skipped: no bits recorded for the {isa} kernel"),
            }
        }
        const GENERAL: [(f32, f32); 2] = [(1.25, 0.3), (-0.5, -0.75)];
        let scalar = (
            gemm_bits(KernelIsa::Scalar, &GENERAL, |x| x as f32),
            gemm_bits(KernelIsa::Scalar, &GENERAL, |x| x),
        );
        eprintln!("scalar general: {:#018x}, {:#018x}", scalar.0, scalar.1);
        assert_eq!(scalar, (0xa81e_f533_b948_2fa5, 0x730c_d961_2701_c697));
    }

    #[test]
    fn concurrent_pooled_calls_do_not_deadlock() {
        // Four callers racing multi-threaded calls on one pool: their
        // tasks interleave on the pool's one queue and every call
        // finishes with the lone call's bits.
        let pool = std::sync::Arc::new(crate::pool::ThreadPool::new(4));
        let (m, n, k) = (256usize, 48usize, 128usize);
        let a = std::sync::Arc::new(fill(m * k, 81));
        let b = std::sync::Arc::new(fill(k * n, 82));
        let call = GemmCall::new(m, n, k, 4);
        let mut reference = vec![0.0f64; m * n];
        gemm_with_stats_pooled(&pool, &call, 1.0, &a, k, &b, n, 0.0, &mut reference, n);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = &pool;
                let a = &a;
                let b = &b;
                let reference = &reference;
                scope.spawn(move || {
                    for _ in 0..8 {
                        let mut c = vec![0.0f64; m * n];
                        gemm_with_stats_pooled(pool, &call, 1.0, a, k, b, n, 0.0, &mut c, n);
                        assert_eq!(&c, reference);
                    }
                });
            }
        });
    }
}
