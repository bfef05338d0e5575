//! The blocked, packed, threaded GEMM driver.
//!
//! Entry points:
//! * [`gemm_with_stats`] — spawn-per-call (scoped) execution, returns the
//!   [`GemmStats`] sync/copy/kernel breakdown,
//! * [`gemm_with_stats_pooled`] — the serving path: persistent
//!   [`ThreadPool`] workers, reusable packing arenas, and **cooperative
//!   shared-B packing**.
//!
//! Both are thin wrappers over one generic driver parameterised by
//! [`Executor`], so packing, statistics, and blocking logic exist in
//! exactly one place. Whether B is shared follows from the executor (a
//! gang needs pool workers) and the plan's
//! [`PackingStrategy`] — there is no separate switch.
//!
//! The requested thread count is a *maximum*: like vendor BLAS, tiny
//! problems run on fewer threads (see [`ThreadGrid::choose`]).
//!
//! ## Packing workspace
//!
//! No driver heap-allocates scratch on the hot path: packing buffers come
//! from [`crate::workspace`] arenas — pool workers use their stable
//! pool-owned slots, everything else a thread-local arena — so
//! steady-state pooled traffic performs **zero packing-path allocations**
//! (see `GemmStats::arena_bytes_reused` and the workspace counters).
//!
//! ## Cooperative shared-B packing
//!
//! With a row-split thread grid, the scoped driver's workers each pack a
//! private copy of the same `kc×nc` B block — the duplicated-copy effect
//! the paper's Table VII exposes (`more_threads_pack_more_b_panels`
//! pins it). The pooled driver instead packs each B block **once** into a
//! shared arena region per grid column group; a rotating designated
//! packer fills it, and a lightweight per-rank-update
//! [`crate::workspace::PanelBarrier`] publishes it to all row groups.
//! This turns `b_packed_bytes` from `O(grid_rows · k·n)` into `O(k·n)`
//! while keeping per-tile FLOP order — and therefore results — bitwise
//! identical to the independent driver. Cooperative batches are gang-
//! reserved on the pool ([`ThreadPool::try_reserve_gang`]); when the grid
//! is larger than the reservable workers the driver falls back to
//! independent (duplicated) packing rather than risk parking a barrier
//! group behind its own queued members.

use std::time::Instant;

use crate::blocking::BlockSizes;
use crate::isa::{Kernel, KernelIsa};
use crate::pack::{morton_decode, pack_a, pack_b, MatView};
use crate::plan::{Algorithm, ExecutionPlan, PackingStrategy};
use crate::pool::{Executor, ThreadPool};
use crate::stats::{GemmStats, StatsCollector, ThreadLocalStats};
use crate::threading::{SendMutPtr, ThreadGrid};
use crate::workspace::{
    pack_buffer_lens, with_thread_arena, PackArena, PanelBarrier, PoisonOnUnwind, Workspace,
    CACHE_LINE,
};
use crate::{beta_scaled, Element, Transpose};

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
    /// How to execute: threads, micro-kernel ISA, cache blocking, and
    /// B-panel packing. An explicit `kernel_isa` degrades to
    /// [`KernelIsa::Scalar`] when unsupported or force-scalar is active
    /// (see [`Kernel::for_isa`]); an explicit `blocking` keeps its cache
    /// blocks but always runs at the resolved kernel's register tile
    /// (via [`BlockSizes::with_tile`]).
    pub plan: ExecutionPlan,
}

impl GemmCall {
    /// Untransposed call with a threads-only plan (default blocking,
    /// process-wide kernel dispatch, shared-B packing).
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
/// operands, `ldc` the row stride of `C`. Workers are spawned per call
/// (the paper's baseline synchronisation cost); serving paths should use
/// [`gemm_with_stats_pooled`].
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
    run_planned(Executor::Scoped, call, alpha, a, lda, b, ldb, beta, c, ldc)
}

/// Like [`gemm_with_stats`], but running the workers on a persistent
/// [`ThreadPool`] — no per-call OS-thread spawn, warm packing arenas, and
/// cooperative shared-B packing for row-split grids (see the module
/// docs). Results are bitwise identical to the scoped driver; only the
/// copy-volume counters differ.
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
    run_planned(Executor::Pool(pool), call, alpha, a, lda, b, ldb, beta, c, ldc)
}

/// Algorithm dispatch in front of the blocked driver: route the call to
/// the plan's algorithm when the shape is eligible, degrade to the
/// blocked loop nest otherwise. The *executed* algorithm is reported in
/// [`GemmStats::algorithm`], so telemetry can count downgrades (a
/// Strassen plan refused below its cutoff reports `Blocked`).
#[allow(clippy::too_many_arguments)]
fn run_planned<T: Element>(
    exec: Executor<'_>,
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
                exec, call, cutoff, alpha, a, lda, b, ldb, beta, c, ldc,
            )
        }
        Algorithm::ZOrder => zorder_with_stats(call, alpha, a, lda, b, ldb, beta, c, ldc),
        _ => drive(exec, call, alpha, a, lda, b, ldb, beta, c, ldc),
    }
}

/// One member of a fused same-shape batch: its own `A` and `C` operands
/// (and scalars) for the `B` operand every member shares.
///
/// See [`gemm_fused_with_stats_pooled`].
#[derive(Debug)]
pub struct FusedGemm<'a, T: Element> {
    /// Scale on the product.
    pub alpha: T,
    /// Stored `A` for this member.
    pub a: &'a [T],
    /// Row stride of stored `A`.
    pub lda: usize,
    /// Scale on the existing `C`.
    pub beta: T,
    /// Output `C` (`m×n`) for this member.
    pub c: &'a mut [T],
    /// Row stride of `C`.
    pub ldc: usize,
}

/// Execute N same-shape GEMMs that share one stored `B` operand as a
/// single gang-reserved pooled dispatch: one plan, one packed-B stream,
/// N result matrices.
///
/// Every member becomes a rank in one cooperative barrier group per grid
/// column, so each `kc×nc` B block is packed **once** for the whole batch
/// instead of once per member — the co-scheduling layer uses this to
/// collapse a flood of small same-shape ops into one decision and one
/// copy of B traffic. `call` describes the shared shape/flags/plan;
/// `call.plan.threads` is the budget for the *whole batch* (each member
/// runs on `max(1, threads / N)` workers). Results are bitwise identical
/// to running each member through [`gemm_with_stats_pooled`] on its own.
///
/// When the batch cannot gang-reserve enough workers (or the plan asks
/// for independent packing) it degrades to executing the members
/// sequentially through the ordinary pooled driver — identical results,
/// counted in [`crate::PoolStats::gang_refused`].
///
/// # Panics
/// Panics if a member's `C` buffer is too small for its described shape.
pub fn gemm_fused_with_stats_pooled<T: Element>(
    pool: &ThreadPool,
    call: &GemmCall,
    b: &[T],
    ldb: usize,
    items: &mut [FusedGemm<'_, T>],
) -> Vec<GemmStats> {
    if items.is_empty() {
        return Vec::new();
    }
    let (m, n, k) = (call.m, call.n, call.k);
    for item in items.iter() {
        assert!(item.ldc >= n.max(1), "ldc too small");
        if m > 0 && n > 0 {
            assert!(item.c.len() >= (m - 1) * item.ldc + n, "C buffer too small");
        }
    }

    let kernel = match call.plan.kernel_isa {
        Some(isa) => Kernel::<T>::for_isa(isa),
        None => Kernel::<T>::dispatched(),
    };
    let kernel_stat = (kernel.isa, kernel.mr, kernel.nr);
    let start = Instant::now();
    if m == 0 || n == 0 {
        let wall_ns = start.elapsed().as_nanos() as u64;
        return items
            .iter()
            .map(|_| GemmStats {
                kernel_isa: kernel.isa,
                mr: kernel.mr,
                nr: kernel.nr,
                wall_ns,
                ..GemmStats::default()
            })
            .collect();
    }

    let blocks = match (call.plan.blocking, call.plan.kernel_isa) {
        (Some(b), _) => b.with_tile(kernel.mr, kernel.nr),
        (None, None) => BlockSizes::dispatched::<T>(),
        (None, Some(isa)) => BlockSizes::for_isa::<T>(isa),
    };
    let blocks = blocks.clamped(m, n, k);
    // The batch splits the plan's thread budget evenly; every member uses
    // the same grid, so their barrier sequences line up.
    let per_item_threads = (call.threads() / items.len()).max(1);
    let grid = ThreadGrid::choose(per_item_threads, m, n, blocks.mr, blocks.nr);
    let members = grid.count() * items.len();

    let share = call.plan.packing == PackingStrategy::SharedB;
    let gang = if share { pool.reserve_gang_backoff(members) } else { None };
    let Some(_reservation) = gang else {
        // Degraded path: same results, one member at a time, each free to
        // gang-reserve (or not) on its own.
        let item_call = GemmCall { plan: call.plan.with_thread_count(per_item_threads), ..*call };
        return items
            .iter_mut()
            .map(|it| {
                drive(
                    Executor::Pool(pool),
                    &item_call,
                    it.alpha,
                    it.a,
                    it.lda,
                    b,
                    ldb,
                    it.beta,
                    it.c,
                    it.ldc,
                )
            })
            .collect();
    };

    let b_view = match call.trans_b {
        Transpose::No => MatView::row_major(b, k, n, ldb),
        Transpose::Yes => MatView::row_major(b, n, k, ldb).t(),
    };
    struct MemberCtx<'v, T: Element> {
        a_view: MatView<'v, T>,
        c_ptr: SendMutPtr<T>,
        ldc: usize,
        alpha: T,
        beta: T,
    }
    let ctxs: Vec<MemberCtx<'_, T>> = items
        .iter_mut()
        .map(|it| {
            let a_view = match call.trans_a {
                Transpose::No => MatView::row_major(it.a, m, k, it.lda),
                Transpose::Yes => MatView::row_major(it.a, k, m, it.lda).t(),
            };
            MemberCtx {
                a_view,
                c_ptr: SendMutPtr(it.c.as_mut_ptr()),
                ldc: it.ldc,
                alpha: it.alpha,
                beta: it.beta,
            }
        })
        .collect();

    let ws = pool.workspace();
    let (a_len, b_len) = pack_buffer_lens(&blocks);
    let elems_per_line = (CACHE_LINE / std::mem::size_of::<T>()).max(1);
    let region_elems = b_len.div_ceil(elems_per_line) * elems_per_line;
    // The restore guard owns the arena *before* any region is checked
    // out, so a panic anywhere past this point (including inside
    // `checkout_elems` growth) returns the arena to the free list
    // instead of dropping it.
    let mut shared_return = RestoreSharedOnDrop { ws, arena: Some(ws.checkout_shared()) };
    let (b_all, shared_reused) =
        shared_return.arena_mut().checkout_elems::<T>(region_elems * grid.cols);
    let b_base = SendMutPtr(b_all.as_mut_ptr());

    // One barrier group per grid column spanning ALL members' row groups:
    // rank (item, r) packs when `block_idx % group_rows` lands on it, so
    // the whole batch shares one packed-B stream per column.
    let group_rows = grid.rows * items.len();
    let barriers: Vec<PanelBarrier> =
        (0..grid.cols).map(|_| PanelBarrier::new(group_rows)).collect();
    let collectors: Vec<StatsCollector> = items.iter().map(|_| StatsCollector::default()).collect();
    collectors[0]
        .absorb(&ThreadLocalStats { arena_bytes_reused: shared_reused, ..Default::default() });

    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(members * grid.cols);
    for (col, barrier) in barriers.iter().enumerate() {
        for (idx, ctx) in ctxs.iter().enumerate() {
            for r in 0..grid.rows {
                let rank = idx * grid.rows + r;
                let (r0, r1) = grid.row_range(r, m);
                let (c0, c1) = grid.col_range(col, n);
                let a_sub = ctx.a_view.sub(r0, 0, r1 - r0, k);
                let b_sub = b_view.sub(0, c0, k, c1 - c0);
                let (c_ptr, ldc, alpha, beta) = (ctx.c_ptr, ctx.ldc, ctx.alpha, ctx.beta);
                let collector = &collectors[idx];
                let blocks = &blocks;
                tasks.push(Box::new(move || {
                    let _poison = PoisonOnUnwind(barrier);
                    let mut local = ThreadLocalStats::default();
                    // Move the Send wrappers, not the raw pointers.
                    let c_ptr = c_ptr;
                    let b_base = b_base;
                    ws.with_arena(|arena| {
                        let (a_buf, reused) = arena.checkout_elems::<T>(a_len);
                        local.arena_bytes_reused += reused;
                        // SAFETY: C tiles are pairwise disjoint — across
                        // members because each `c` is its own `&mut`
                        // buffer, within a member by the grid partition.
                        // All `group_rows` ranks share one `b` view/`ns`/
                        // `k`, so their barrier sequences are identical;
                        // the shared region and arena lifetimes are as in
                        // `run_cooperative`.
                        unsafe {
                            coop_subproblem(
                                &kernel,
                                &a_sub,
                                &b_sub,
                                c_ptr.0.add(r0 * ldc + c0),
                                ldc,
                                r1 - r0,
                                c1 - c0,
                                k,
                                alpha,
                                beta,
                                blocks,
                                b_base.0.add(col * region_elems),
                                barrier,
                                rank,
                                group_rows,
                                a_buf,
                                &mut local,
                            );
                        }
                    });
                    collector.absorb(&local);
                }));
            }
        }
    }
    pool.scope_execute(tasks);

    let wall_ns = start.elapsed().as_nanos() as u64;
    collectors
        .iter()
        .map(|c| c.finish(grid.count(), grid.rows, grid.cols, wall_ns, kernel_stat))
        .collect()
}

/// The one blocked GEMM driver behind every public entry point (and the
/// Strassen recursion's base case, which re-enters it directly so a base
/// sub-problem can never re-dispatch on the algorithm axis).
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<T: Element>(
    exec: Executor<'_>,
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
    assert!(ldc >= n.max(1), "ldc too small");
    if m > 0 && n > 0 {
        assert!(c.len() >= (m - 1) * ldc + n, "C buffer too small");
    }

    // Build logical m×k / k×n views; transposition is a stride swap.
    let a_view = match call.trans_a {
        Transpose::No => MatView::row_major(a, m, k, lda),
        Transpose::Yes => MatView::row_major(a, k, m, lda).t(),
    };
    let b_view = match call.trans_b {
        Transpose::No => MatView::row_major(b, k, n, ldb),
        Transpose::Yes => MatView::row_major(b, n, k, ldb).t(),
    };

    // Resolve the micro-kernel once per call (the dispatch itself is
    // resolved once per process); everything downstream — blocking,
    // grid choice, packing geometry, the per-tile kernel calls — flows
    // from its register tile.
    let kernel = match call.plan.kernel_isa {
        Some(isa) => Kernel::<T>::for_isa(isa),
        None => Kernel::<T>::dispatched(),
    };
    let kernel_stat = (kernel.isa, kernel.mr, kernel.nr);

    let start = Instant::now();
    if m == 0 || n == 0 {
        // Degenerate shapes still report their (tiny) wall time, so
        // latency accounting upstream treats them like any other call.
        return GemmStats {
            kernel_isa: kernel.isa,
            mr: kernel.mr,
            nr: kernel.nr,
            wall_ns: start.elapsed().as_nanos() as u64,
            ..GemmStats::default()
        };
    }

    let blocks = match (call.plan.blocking, call.plan.kernel_isa) {
        // An explicit MC/KC/NC override keeps its cache blocks but must
        // run at the resolved kernel's register tile.
        (Some(b), _) => b.with_tile(kernel.mr, kernel.nr),
        (None, None) => BlockSizes::dispatched::<T>(),
        (None, Some(isa)) => BlockSizes::for_isa::<T>(isa),
    };
    debug_assert!(blocks.is_valid(), "invalid block sizes {blocks:?}");
    let blocks = blocks.clamped(m, n, k);
    let grid = ThreadGrid::choose(call.threads(), m, n, blocks.mr, blocks.nr);

    let collector = StatsCollector::default();
    if grid.count() == 1 {
        let mut local = ThreadLocalStats::default();
        with_thread_arena(|arena| {
            let (a_buf, b_buf, reused) = arena.checkout_pair::<T>(&blocks);
            local.arena_bytes_reused += reused;
            // SAFETY: single worker owns the whole of C.
            unsafe {
                subproblem(
                    &kernel,
                    &a_view,
                    &b_view,
                    c.as_mut_ptr(),
                    ldc,
                    m,
                    n,
                    k,
                    alpha,
                    beta,
                    &blocks,
                    a_buf,
                    b_buf,
                    &mut local,
                );
            }
        });
        collector.absorb(&local);
    } else {
        let c_ptr = SendMutPtr(c.as_mut_ptr());
        // Cooperative shared-B needs every group member running at once;
        // reserve the gang or fall back to independent packing. A plan
        // that asks for independent packing skips the gang entirely, and
        // the scoped executor has no pool to reserve one on.
        let share = call.plan.packing == PackingStrategy::SharedB;
        let gang = if share && grid.rows > 1 {
            exec.pool().and_then(|pool| pool.reserve_gang_backoff(grid.count()).map(|g| (pool, g)))
        } else {
            None
        };
        if let Some((pool, _reservation)) = gang {
            run_cooperative(
                pool, &kernel, &grid, m, n, k, &a_view, &b_view, c_ptr, ldc, alpha, beta, &blocks,
                &collector,
            );
        } else {
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(grid.count());
            for r in 0..grid.rows {
                for col in 0..grid.cols {
                    let (r0, r1) = grid.row_range(r, m);
                    let (c0, c1) = grid.col_range(col, n);
                    let a_sub = a_view.sub(r0, 0, r1 - r0, k);
                    let b_sub = b_view.sub(0, c0, k, c1 - c0);
                    let collector = &collector;
                    let blocks = &blocks;
                    tasks.push(Box::new(move || {
                        let mut local = ThreadLocalStats::default();
                        // Move the Send wrapper, not the raw ptr.
                        let ptr = c_ptr;
                        exec.with_arena(|arena| {
                            let (a_buf, b_buf, reused) = arena.checkout_pair::<T>(blocks);
                            local.arena_bytes_reused += reused;
                            // SAFETY: tile (r0..r1) × (c0..c1) is disjoint
                            // from every other worker's tile (ThreadGrid
                            // ranges partition rows and columns), and `c`
                            // outlives the executor's blocking run.
                            unsafe {
                                subproblem(
                                    &kernel,
                                    &a_sub,
                                    &b_sub,
                                    ptr.0.add(r0 * ldc + c0),
                                    ldc,
                                    r1 - r0,
                                    c1 - c0,
                                    k,
                                    alpha,
                                    beta,
                                    blocks,
                                    a_buf,
                                    b_buf,
                                    &mut local,
                                );
                            }
                        });
                        collector.absorb(&local);
                    }));
                }
            }
            exec.run(tasks);
        }
    }

    let wall_ns = start.elapsed().as_nanos() as u64;
    collector.finish(grid.count(), grid.rows, grid.cols, wall_ns, kernel_stat)
}

/// The Morton-traversal serial driver behind [`Algorithm::ZOrder`]:
/// identical per-tile FLOP order to the serial blocked driver (each `C`
/// macro-tile still sees its rank updates in ascending `pc`), but the
/// `(ic, jc)` macro-block grid is walked along the Z curve of
/// [`morton_decode`] and the packed `B` panel is reused whenever two
/// consecutive live Morton steps share a column block. Single-threaded by
/// construction — its profitability on large squares against the
/// parallel blocked driver is exactly what the model has to learn.
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
    assert!(ldc >= n.max(1), "ldc too small");
    if m > 0 && n > 0 {
        assert!(c.len() >= (m - 1) * ldc + n, "C buffer too small");
    }
    let kernel = match call.plan.kernel_isa {
        Some(isa) => Kernel::<T>::for_isa(isa),
        None => Kernel::<T>::dispatched(),
    };
    let kernel_stat = (kernel.isa, kernel.mr, kernel.nr);
    let start = Instant::now();
    if m == 0 || n == 0 {
        return GemmStats {
            kernel_isa: kernel.isa,
            algorithm: Algorithm::ZOrder,
            mr: kernel.mr,
            nr: kernel.nr,
            wall_ns: start.elapsed().as_nanos() as u64,
            ..GemmStats::default()
        };
    }
    let a_view = match call.trans_a {
        Transpose::No => MatView::row_major(a, m, k, lda),
        Transpose::Yes => MatView::row_major(a, k, m, lda).t(),
    };
    let b_view = match call.trans_b {
        Transpose::No => MatView::row_major(b, k, n, ldb),
        Transpose::Yes => MatView::row_major(b, n, k, ldb).t(),
    };
    let blocks = match (call.plan.blocking, call.plan.kernel_isa) {
        (Some(b), _) => b.with_tile(kernel.mr, kernel.nr),
        (None, None) => BlockSizes::dispatched::<T>(),
        (None, Some(isa)) => BlockSizes::for_isa::<T>(isa),
    };
    let blocks = blocks.clamped(m, n, k);

    let collector = StatsCollector::default();
    let mut local = ThreadLocalStats::default();
    with_thread_arena(|arena| {
        let (a_buf, b_buf, reused) = arena.checkout_pair::<T>(&blocks);
        local.arena_bytes_reused += reused;
        // SAFETY: single worker owns the whole of C.
        unsafe {
            zorder_subproblem(
                &kernel,
                &a_view,
                &b_view,
                c.as_mut_ptr(),
                ldc,
                m,
                n,
                k,
                alpha,
                beta,
                &blocks,
                a_buf,
                b_buf,
                &mut local,
            );
        }
    });
    collector.absorb(&local);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let mut stats = collector.finish(1, 1, 1, wall_ns, kernel_stat);
    stats.algorithm = Algorithm::ZOrder;
    stats
}

/// The Z-order macro-block sweep: for each `kc` rank update, visit the
/// `(row block, col block)` grid in Morton order, packing `B` only when
/// the column block changes between consecutive live steps.
///
/// # Safety
/// As for [`subproblem`]: `c` points at the matrix origin and the `ms`
/// rows of `ns` elements spaced `ldc` apart are exclusively owned.
#[allow(clippy::too_many_arguments)]
unsafe fn zorder_subproblem<T: Element>(
    kernel: &Kernel<T>,
    a: &MatView<'_, T>,
    b: &MatView<'_, T>,
    c: *mut T,
    ldc: usize,
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
    let BlockSizes { mc, kc, nc, nr, .. } = *blocks;

    if k == 0 {
        scale_rows_by_beta(c, ldc, ms, ns, beta);
        return;
    }

    let nbi = ms.div_ceil(mc);
    let nbj = ns.div_ceil(nc);
    // Walk a power-of-two Morton square covering the (possibly
    // rectangular) block grid and skip dead codes: cheaper than sorting a
    // code list and — crucially for the zero-alloc invariant — free of
    // per-call heap traffic.
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
            let ncur = (ns - jc).min(nc);
            let ic = bi * mc;
            let mcur = (ms - ic).min(mc);
            if packed_bj != bj {
                let t0 = Instant::now();
                let b_block = b.sub(pc, jc, kcur, ncur);
                stats.b_packed_bytes += pack_b(&b_block, nr, b_buf);
                stats.pack_ns += t0.elapsed().as_nanos() as u64;
                packed_bj = bj;
            }
            row_panel_sweep(
                kernel,
                &a.sub(ic, 0, mcur, k),
                c.add(ic * ldc),
                ldc,
                mcur,
                jc,
                pc,
                ncur,
                kcur,
                alpha,
                beta_eff,
                blocks,
                b_buf,
                a_buf,
                stats,
            );
        }
        pc += kcur;
    }
}

/// The cooperative shared-B parallel section: one shared packed-B region
/// and one [`PanelBarrier`] per grid column group; each `kc×nc` B block
/// is packed exactly once by a rotating designated worker and consumed
/// by every row group.
#[allow(clippy::too_many_arguments)]
fn run_cooperative<T: Element>(
    pool: &ThreadPool,
    kernel: &Kernel<T>,
    grid: &ThreadGrid,
    m: usize,
    n: usize,
    k: usize,
    a_view: &MatView<'_, T>,
    b_view: &MatView<'_, T>,
    c_ptr: SendMutPtr<T>,
    ldc: usize,
    alpha: T,
    beta: T,
    blocks: &BlockSizes,
    collector: &StatsCollector,
) {
    let ws = pool.workspace();
    let (a_len, b_len) = pack_buffer_lens(blocks);
    // Pad each column group's region to cache lines so groups never
    // false-share while one packs and another computes.
    let elems_per_line = (CACHE_LINE / std::mem::size_of::<T>()).max(1);
    let region_elems = b_len.div_ceil(elems_per_line) * elems_per_line;

    // Return the arena to the free list even if a worker panic is
    // re-raised below — dropping it would both lose its counters and
    // force the next shared-B call to re-allocate. The guard owns the
    // arena *before* the region checkout so even a panic during growth
    // restores it. The arena's heap buffer is address-stable inside the
    // guard, so `b_base` stays valid for the whole batch.
    let mut shared_return = RestoreSharedOnDrop { ws, arena: Some(ws.checkout_shared()) };
    let (b_all, shared_reused) =
        shared_return.arena_mut().checkout_elems::<T>(region_elems * grid.cols);
    collector.absorb(&ThreadLocalStats { arena_bytes_reused: shared_reused, ..Default::default() });
    let b_base = SendMutPtr(b_all.as_mut_ptr());
    let barriers: Vec<PanelBarrier> =
        (0..grid.cols).map(|_| PanelBarrier::new(grid.rows)).collect();

    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(grid.count());
    for (col, barrier) in barriers.iter().enumerate() {
        for r in 0..grid.rows {
            let (r0, r1) = grid.row_range(r, m);
            let (c0, c1) = grid.col_range(col, n);
            let a_sub = a_view.sub(r0, 0, r1 - r0, k);
            let b_sub = b_view.sub(0, c0, k, c1 - c0);
            let rows = grid.rows;
            let kernel = *kernel;
            tasks.push(Box::new(move || {
                // A panicking member poisons its group's barrier so the
                // rest fail fast instead of spinning forever.
                let _poison = PoisonOnUnwind(barrier);
                let mut local = ThreadLocalStats::default();
                // Move the Send wrappers, not the raw pointers (2021
                // precise capture would otherwise grab the `*mut T`).
                let c_ptr = c_ptr;
                let b_base = b_base;
                ws.with_arena(|arena| {
                    let (a_buf, reused) = arena.checkout_elems::<T>(a_len);
                    local.arena_bytes_reused += reused;
                    // SAFETY: C tiles are pairwise disjoint as in the
                    // independent driver. The shared B region for this
                    // column group is written only by the designated
                    // packer between barrier generations and read by the
                    // group only after the publish barrier; distinct
                    // groups use disjoint, cache-line-padded regions. The
                    // arena behind `b_base` outlives `scope_execute`.
                    unsafe {
                        coop_subproblem(
                            &kernel,
                            &a_sub,
                            &b_sub,
                            c_ptr.0.add(r0 * ldc + c0),
                            ldc,
                            r1 - r0,
                            c1 - c0,
                            k,
                            alpha,
                            beta,
                            blocks,
                            b_base.0.add(col * region_elems),
                            barrier,
                            r,
                            rows,
                            a_buf,
                            &mut local,
                        );
                    }
                });
                collector.absorb(&local);
            }));
        }
    }
    pool.scope_execute(tasks);
}

/// Returns a checked-out shared-B arena to its workspace's free list on
/// scope exit, panic or not.
struct RestoreSharedOnDrop<'w> {
    ws: &'w Workspace,
    arena: Option<PackArena>,
}

impl RestoreSharedOnDrop<'_> {
    /// The held arena (always present until drop).
    fn arena_mut(&mut self) -> &mut PackArena {
        self.arena.as_mut().expect("arena held until drop")
    }
}

impl Drop for RestoreSharedOnDrop<'_> {
    fn drop(&mut self) {
        if let Some(arena) = self.arena.take() {
            self.ws.restore_shared(arena);
        }
    }
}

/// `row ← β·row` (see [`beta_scaled`] for β = 0).
pub(crate) fn scale_row_by_beta<T: Element>(row: &mut [T], beta: T) {
    for v in row {
        *v = beta_scaled(beta, *v);
    }
}

/// `C ← β·C` over `ms` rows of `ns` elements (the `k == 0` early out).
///
/// # Safety
/// The rows must be valid for read/write and not concurrently accessed.
unsafe fn scale_rows_by_beta<T: Element>(c: *mut T, ldc: usize, ms: usize, ns: usize, beta: T) {
    for i in 0..ms {
        scale_row_by_beta(std::slice::from_raw_parts_mut(c.add(i * ldc), ns), beta);
    }
}

/// One worker's blocked GEMM over its `ms×ns` tile of `C`, packing both
/// operands into caller-provided arena scratch.
///
/// # Safety
/// `c` must point at the tile origin; the `ms` rows of `ns` elements spaced
/// `ldc` apart must be valid for read/write and not concurrently accessed.
#[allow(clippy::too_many_arguments)]
unsafe fn subproblem<T: Element>(
    kernel: &Kernel<T>,
    a: &MatView<'_, T>,
    b: &MatView<'_, T>,
    c: *mut T,
    ldc: usize,
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
    crate::fault::kernel_entry(kernel.isa, ms, ns, k);
    let BlockSizes { kc, nc, nr, .. } = *blocks;

    if k == 0 {
        // Pure C ← β·C scaling; no packing, no kernels.
        scale_rows_by_beta(c, ldc, ms, ns, beta);
        return;
    }

    let mut jc = 0;
    while jc < ns {
        let ncur = (ns - jc).min(nc);
        let mut pc = 0;
        while pc < k {
            let kcur = (k - pc).min(kc);
            // First rank update of a tile applies the caller's β; later
            // updates accumulate.
            let beta_eff = if pc == 0 { beta } else { T::ONE };

            let t0 = Instant::now();
            let b_block = b.sub(pc, jc, kcur, ncur);
            stats.b_packed_bytes += pack_b(&b_block, nr, b_buf);
            stats.pack_ns += t0.elapsed().as_nanos() as u64;

            row_panel_sweep(
                kernel, a, c, ldc, ms, jc, pc, ncur, kcur, alpha, beta_eff, blocks, b_buf, a_buf,
                stats,
            );
            pc += kcur;
        }
        jc += ncur;
    }
}

/// One worker's tile under the cooperative shared-B protocol: identical
/// loop structure and per-tile FLOP order to [`subproblem`], except that
/// the packed B panel lives in the group's shared region and only the
/// designated packer (rotating round-robin for balance) fills it.
///
/// # Safety
/// As for [`subproblem`]; additionally `shared_b` must point at this
/// column group's region (large enough for a `kc×nc` packed block), all
/// `group_rows` members must call this function with the same `b`
/// view/`ns`/`k` so they execute the same barrier sequence, and nothing
/// else may touch the region while the group runs.
#[allow(clippy::too_many_arguments)]
unsafe fn coop_subproblem<T: Element>(
    kernel: &Kernel<T>,
    a: &MatView<'_, T>,
    b: &MatView<'_, T>,
    c: *mut T,
    ldc: usize,
    ms: usize,
    ns: usize,
    k: usize,
    alpha: T,
    beta: T,
    blocks: &BlockSizes,
    shared_b: *mut T,
    barrier: &PanelBarrier,
    rank: usize,
    group_rows: usize,
    a_buf: &mut [T],
    stats: &mut ThreadLocalStats,
) {
    crate::fault::kernel_entry(kernel.isa, ms, ns, k);
    let BlockSizes { kc, nc, nr, .. } = *blocks;

    if k == 0 {
        scale_rows_by_beta(c, ldc, ms, ns, beta);
        return;
    }

    let mut block_idx = 0usize;
    let mut jc = 0;
    while jc < ns {
        let ncur = (ns - jc).min(nc);
        let mut pc = 0;
        while pc < k {
            let kcur = (k - pc).min(kc);
            let beta_eff = if pc == 0 { beta } else { T::ONE };
            let b_needed = kcur * ncur.div_ceil(nr) * nr;

            if block_idx % group_rows == rank {
                let t0 = Instant::now();
                let b_block = b.sub(pc, jc, kcur, ncur);
                // SAFETY: exclusive write access between barrier
                // generations by the group protocol (see caller).
                let buf = std::slice::from_raw_parts_mut(shared_b, b_needed);
                stats.b_packed_bytes += pack_b(&b_block, nr, buf);
                stats.pack_ns += t0.elapsed().as_nanos() as u64;
            } else {
                // Copy volume this worker did NOT pay thanks to sharing.
                stats.b_pack_shared += (b_needed * T::BYTES) as u64;
            }
            // Publish: the packed panel is visible to the whole group.
            barrier.wait();
            let b_buf = std::slice::from_raw_parts(shared_b, b_needed);
            row_panel_sweep(
                kernel, a, c, ldc, ms, jc, pc, ncur, kcur, alpha, beta_eff, blocks, b_buf, a_buf,
                stats,
            );
            // Retire: nobody still reads the panel when the next packer
            // overwrites it.
            barrier.wait();

            block_idx += 1;
            pc += kcur;
        }
        jc += ncur;
    }
}

/// The `A`-panel sweep for one packed B block: pack each `mc×kc` A block
/// of the worker's rows and run the micro-kernels against `b_buf`. Both
/// the independent and the cooperative drivers call this, which is what
/// keeps their per-tile FLOP order — and results — bitwise identical.
///
/// # Safety
/// As for [`subproblem`]; `b_buf` must hold the packed `kcur×ncur` block,
/// and `blocks.mr`/`blocks.nr` must equal `kernel.mr`/`kernel.nr` (the
/// drive entry point derives one from the other).
#[allow(clippy::too_many_arguments)]
unsafe fn row_panel_sweep<T: Element>(
    kernel: &Kernel<T>,
    a: &MatView<'_, T>,
    c: *mut T,
    ldc: usize,
    ms: usize,
    jc: usize,
    pc: usize,
    ncur: usize,
    kcur: usize,
    alpha: T,
    beta_eff: T,
    blocks: &BlockSizes,
    b_buf: &[T],
    a_buf: &mut [T],
    stats: &mut ThreadLocalStats,
) {
    let BlockSizes { mc, mr, nr, .. } = *blocks;
    let mut ic = 0;
    while ic < ms {
        let mcur = (ms - ic).min(mc);
        let t0 = Instant::now();
        let a_block = a.sub(ic, pc, mcur, kcur);
        stats.a_packed_bytes += pack_a(&a_block, mr, a_buf);
        stats.pack_ns += t0.elapsed().as_nanos() as u64;

        let t0 = Instant::now();
        let m_strips = mcur.div_ceil(mr);
        let n_strips = ncur.div_ceil(nr);
        for jr in 0..n_strips {
            let j0 = jr * nr;
            let live_n = (ncur - j0).min(nr);
            let b_panel = &b_buf[jr * nr * kcur..(jr + 1) * nr * kcur];
            for ir in 0..m_strips {
                let i0 = ir * mr;
                let live_m = (mcur - i0).min(mr);
                let a_panel = &a_buf[ir * mr * kcur..(ir + 1) * mr * kcur];
                // SAFETY: tile origin stays inside this worker's C
                // region by construction of the loop bounds; the packed
                // panels hold kcur·mr / kcur·nr elements (zero padded)
                // and mr/nr are the kernel's own tile.
                kernel.run(
                    kcur,
                    a_panel.as_ptr(),
                    b_panel.as_ptr(),
                    c.add((ic + i0) * ldc + jc + j0),
                    ldc,
                    live_m,
                    live_n,
                    alpha,
                    beta_eff,
                );
                stats.kernel_calls += 1;
            }
        }
        stats.kernel_ns += t0.elapsed().as_nanos() as u64;
        ic += mcur;
    }
}

#[cfg(test)]
mod tests {
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
            let scoped = gemm_with_stats(&call, 1.0, &a, 8, &b, 8.max(n), 0.0, &mut c, 8);
            let pooled =
                gemm_with_stats_pooled(&pool, &call, 1.0, &a, 8, &b, 8.max(n), 0.0, &mut c, 8);
            for s in [scoped, pooled] {
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
        let k = 64;
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
        // Scoped workers never share packed B.
        assert_eq!(stats.b_pack_shared, 0);
    }

    #[test]
    fn more_threads_pack_more_b_panels() {
        // With a row-split grid each scoped row group packs its own copy
        // of B — the duplicated-copy effect the paper's Table VII
        // exposes. The pooled shared-B driver inverts this; see
        // `pooled_row_groups_share_b_panels`.
        let m = 512;
        let n = 64;
        let k = 256;
        let a = fill(m * k, 6);
        let b = fill(k * n, 7);
        let run = |threads: usize| {
            let mut c = vec![0.0f64; m * n];
            let call = GemmCall::new(m, n, k, threads);
            gemm_with_stats(&call, 1.0, &a, k, &b, n, 0.0, &mut c, n)
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

    #[test]
    fn pooled_row_groups_share_b_panels() {
        // The inverse of `more_threads_pack_more_b_panels`: under the
        // cooperative pooled driver, a row-split grid packs each B
        // element exactly once per rank update, so b_packed_bytes is
        // independent of grid_rows.
        let pool = crate::pool::ThreadPool::new(8);
        let m = 512;
        let n = 64;
        let k = 256;
        let a = fill(m * k, 6);
        let b = fill(k * n, 7);
        let run = |threads: usize| {
            let mut c = vec![0.0f64; m * n];
            let s = gemm_with_stats_pooled(
                &pool,
                &GemmCall::new(m, n, k, threads),
                1.0,
                &a,
                k,
                &b,
                n,
                0.0,
                &mut c,
                n,
            );
            (s, c)
        };
        let (s1, c1) = run(1);
        let (s8, c8) = run(8);
        assert_eq!(s8.grid_rows, 8, "expected a row-split grid: {s8:?}");
        assert_eq!(
            s8.b_packed_bytes, s1.b_packed_bytes,
            "shared-B must pack each B element exactly once per rank update"
        );
        assert!(s8.b_pack_shared > 0, "consumers must account the copies they skipped");
        // Per-tile FLOP order is grid-invariant, so results agree bitwise.
        assert_eq!(c1, c8);
    }

    #[test]
    fn shared_b_copy_volume_matches_duplicated_driver() {
        // packed + shared under the cooperative driver must equal the
        // duplicated driver's packed volume: sharing moves bytes between
        // counters, it does not lose track of them.
        let pool = crate::pool::ThreadPool::new(8);
        let (m, n, k, threads) = (384usize, 96usize, 192usize, 6usize);
        let a = fill(m * k, 31);
        let b = fill(k * n, 32);
        let call = GemmCall::new(m, n, k, threads);
        let mut c_shared = fill(m * n, 33);
        let mut c_dup = c_shared.clone();
        let s_shared =
            gemm_with_stats_pooled(&pool, &call, 1.0, &a, k, &b, n, 0.5, &mut c_shared, n);
        let dup_call = call.with_plan(call.plan.with_packing(PackingStrategy::Independent));
        let s_dup = gemm_with_stats_pooled(&pool, &dup_call, 1.0, &a, k, &b, n, 0.5, &mut c_dup, n);
        assert_eq!(c_shared, c_dup, "sharing must not change results");
        assert!(s_shared.grid_rows > 1, "test shape must row-split: {s_shared:?}");
        assert_eq!(s_dup.b_pack_shared, 0);
        assert_eq!(
            s_shared.b_packed_bytes + s_shared.b_pack_shared,
            s_dup.b_packed_bytes,
            "copy volume must be conserved: {s_shared:?} vs {s_dup:?}"
        );
        assert_eq!(s_shared.a_packed_bytes, s_dup.a_packed_bytes);
        assert_eq!(s_shared.kernel_calls, s_dup.kernel_calls);
    }

    #[test]
    fn shared_b_bitwise_equal_across_transposes_and_skewed_shapes() {
        let pool = crate::pool::ThreadPool::new(8);
        let shapes = [(256usize, 40usize, 96usize, 8usize), (200, 200, 64, 4), (97, 33, 131, 6)];
        let flags = [Transpose::No, Transpose::Yes];
        for &(m, n, k, threads) in &shapes {
            for ta in flags {
                for tb in flags {
                    let (ar, ac) = if ta.is_transposed() { (k, m) } else { (m, k) };
                    let (br, bc) = if tb.is_transposed() { (n, k) } else { (k, n) };
                    let a = fill(ar * ac, 41);
                    let b = fill(br * bc, 42);
                    let mut c_scoped = fill(m * n, 43);
                    let mut c_pooled = c_scoped.clone();
                    let call =
                        GemmCall { trans_a: ta, trans_b: tb, ..GemmCall::new(m, n, k, threads) };
                    let s1 = gemm_with_stats(&call, 1.3, &a, ac, &b, bc, 0.6, &mut c_scoped, n);
                    let s2 = gemm_with_stats_pooled(
                        &pool,
                        &call,
                        1.3,
                        &a,
                        ac,
                        &b,
                        bc,
                        0.6,
                        &mut c_pooled,
                        n,
                    );
                    assert_eq!(
                        c_scoped, c_pooled,
                        "shared-B differs at {m}x{n}x{k} t{threads} {ta:?}/{tb:?}"
                    );
                    assert_eq!(s1.kernel_calls, s2.kernel_calls);
                    assert_eq!(s1.a_packed_bytes, s2.a_packed_bytes);
                    assert_eq!(
                        s2.b_packed_bytes + s2.b_pack_shared,
                        s1.b_packed_bytes,
                        "copy conservation at {m}x{n}x{k} t{threads} {ta:?}/{tb:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn oversubscribed_pool_falls_back_to_independent_packing() {
        // More grid tasks than pool workers: the gang reservation fails
        // and the driver must fall back to duplicated (barrier-free)
        // packing — same results, scoped-style counters.
        let pool = crate::pool::ThreadPool::new(2);
        let (m, n, k, threads) = (512usize, 64usize, 128usize, 8usize);
        let a = fill(m * k, 51);
        let b = fill(k * n, 52);
        let call = GemmCall::new(m, n, k, threads);
        let mut c_scoped = fill(m * n, 53);
        let mut c_pooled = c_scoped.clone();
        let s1 = gemm_with_stats(&call, 1.0, &a, k, &b, n, 0.25, &mut c_scoped, n);
        let s2 = gemm_with_stats_pooled(&pool, &call, 1.0, &a, k, &b, n, 0.25, &mut c_pooled, n);
        assert!(s1.grid_rows * s1.grid_cols > pool.workers());
        assert_eq!(c_scoped, c_pooled);
        assert_eq!(s2.b_pack_shared, 0, "fallback must not claim sharing");
        assert_eq!(s2.b_packed_bytes, s1.b_packed_bytes);
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
        // Warm-up until the arena counters hold still: which worker takes
        // which job is the pool's business, so no fixed number of calls
        // guarantees every worker's arena has grown.
        let allocations = || pool.workspace().arena_stats().allocations;
        let (mut seen, mut stable_calls) = (allocations(), 0);
        for _ in 0..200 {
            run();
            let now = allocations();
            stable_calls = if now == seen { stable_calls + 1 } else { 0 };
            seen = now;
            if stable_calls == 8 {
                break;
            }
        }
        assert_eq!(stable_calls, 8, "arena allocations never settled");
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

    #[test]
    fn pooled_driver_matches_scoped_driver() {
        let pool = crate::pool::ThreadPool::new(4);
        for &(m, n, k, threads) in
            &[(64usize, 64usize, 64usize, 4usize), (150, 90, 130, 8), (33, 7, 129, 3)]
        {
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
            // The pooled driver may share B panels; packed + shared is
            // always the scoped (duplicated) volume.
            assert_eq!(s2.b_packed_bytes + s2.b_pack_shared, s1.b_packed_bytes);
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
    fn fused_batch_matches_per_item_execution_bitwise() {
        let pool = crate::pool::ThreadPool::new(8);
        let (m, n, k) = (96usize, 64usize, 80usize);
        let b = fill(k * n, 90);
        let n_items = 4;
        let a_mats: Vec<Vec<f64>> = (0..n_items).map(|i| fill(m * k, 91 + i as u64)).collect();
        let c_init: Vec<Vec<f64>> = (0..n_items).map(|i| fill(m * n, 95 + i as u64)).collect();

        // Reference: each op through the ordinary pooled driver at the
        // same per-item thread count the fused batch will use.
        let call = GemmCall::new(m, n, k, 8);
        let item_call = GemmCall::new(m, n, k, 2); // 8 threads / 4 items
        let mut reference = c_init.clone();
        let mut ref_stats = Vec::new();
        for (a, c) in a_mats.iter().zip(reference.iter_mut()) {
            ref_stats.push(gemm_with_stats_pooled(&pool, &item_call, 1.25, a, k, &b, n, 0.5, c, n));
        }

        let mut fused_c = c_init.clone();
        let mut items: Vec<FusedGemm<'_, f64>> = a_mats
            .iter()
            .zip(fused_c.iter_mut())
            .map(|(a, c)| FusedGemm { alpha: 1.25, a, lda: k, beta: 0.5, c, ldc: n })
            .collect();
        let stats = gemm_fused_with_stats_pooled(&pool, &call, &b, n, &mut items);
        assert_eq!(stats.len(), n_items);
        assert_eq!(fused_c, reference, "fusion must not change results");

        // The whole batch shares one packed-B stream: total packed B
        // equals ONE op's worth (at the same grid), and every other
        // member accounts the copies it skipped.
        let packed: u64 = stats.iter().map(|s| s.b_packed_bytes).sum();
        let shared: u64 = stats.iter().map(|s| s.b_pack_shared).sum();
        let single = &ref_stats[0];
        assert_eq!(packed, single.b_packed_bytes, "B must be packed once for the whole batch");
        assert_eq!(
            packed + shared,
            (single.b_packed_bytes + single.b_pack_shared) * n_items as u64,
            "copy volume must be conserved across the batch"
        );
    }

    #[test]
    fn fused_batch_falls_back_when_gang_unavailable() {
        // A 2-worker pool cannot gang 4 members: the fused driver must
        // degrade to sequential per-item execution with equal results.
        let pool = crate::pool::ThreadPool::new(2);
        let _hold = pool.try_reserve_gang(1).expect("shrink the gang capacity");
        let (m, n, k) = (64usize, 48usize, 32usize);
        let b = fill(k * n, 70);
        let a_mats: Vec<Vec<f64>> = (0..4).map(|i| fill(m * k, 71 + i as u64)).collect();
        let mut reference: Vec<Vec<f64>> = (0..4).map(|_| vec![0.0f64; m * n]).collect();
        for (a, c) in a_mats.iter().zip(reference.iter_mut()) {
            gemm_with_stats_pooled(&pool, &GemmCall::new(m, n, k, 1), 1.0, a, k, &b, n, 0.0, c, n);
        }
        let refused_before = pool.stats().gang_refused;
        let mut fused_c: Vec<Vec<f64>> = (0..4).map(|_| vec![0.0f64; m * n]).collect();
        let mut items: Vec<FusedGemm<'_, f64>> = a_mats
            .iter()
            .zip(fused_c.iter_mut())
            .map(|(a, c)| FusedGemm { alpha: 1.0, a, lda: k, beta: 0.0, c, ldc: n })
            .collect();
        let stats =
            gemm_fused_with_stats_pooled(&pool, &GemmCall::new(m, n, k, 4), &b, n, &mut items);
        assert_eq!(stats.len(), 4);
        assert_eq!(fused_c, reference, "fallback must not change results");
        assert!(pool.stats().gang_refused > refused_before, "the refusal must be counted");
    }

    #[test]
    fn fused_single_item_matches_plain_pooled_driver() {
        let pool = crate::pool::ThreadPool::new(4);
        let (m, n, k) = (128usize, 96usize, 64usize);
        let a = fill(m * k, 11);
        let b = fill(k * n, 12);
        let mut c_plain = fill(m * n, 13);
        let mut c_fused = c_plain.clone();
        let call = GemmCall::new(m, n, k, 4);
        gemm_with_stats_pooled(&pool, &call, 2.0, &a, k, &b, n, -0.5, &mut c_plain, n);
        let mut items =
            vec![FusedGemm { alpha: 2.0, a: &a, lda: k, beta: -0.5, c: &mut c_fused, ldc: n }];
        // One item keeps the whole thread budget.
        gemm_fused_with_stats_pooled(&pool, &call, &b, n, &mut items);
        assert_eq!(c_fused, c_plain);
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

    #[test]
    fn concurrent_shared_b_calls_do_not_deadlock() {
        // Two coop-eligible calls racing on one pool: the gang
        // reservation admits at most one barrier group per worker, so
        // whichever call loses the race falls back to independent
        // packing — both finish, results identical.
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
