//! A from-scratch blocked, packed, multi-threaded GEMM — the BLAS substrate
//! of the ADSALA reproduction.
//!
//! The paper treats vendor BLAS GEMM (Intel MKL, AMD BLIS) as a black box
//! whose only exposed knob is the number of threads. This crate provides an
//! equivalent box with the same internal cost anatomy the paper's profiler
//! analysis (§VI-D) identifies:
//!
//! 1. **thread synchronisation** — pool dispatch/join,
//! 2. **data copies** — packing of `A` into `MC×KC` row panels and `B` into
//!    `KC×NC` column panels, laid out so the micro-kernel streams
//!    contiguously,
//! 3. **kernel calls** — an `MR×NR` register-blocked micro-kernel where all
//!    floating-point work happens.
//!
//! That anatomy exists once: [`gemm`] holds the one blocked loop nest —
//! a prologue (kernel, blocks, views, bounds checks), a task builder over
//! the thread grid, and a tile loop parameterised by a statically
//! dispatched merge — and GEMM,
//! Strassen's base case, Z-order and SYRK are entry points over it (GEMV, which packs nothing, has its own
//! driver). Every threaded call runs on a persistent [`ThreadPool`]. The
//! public entry points are [`gemm_with_stats`] (the process-wide
//! [`ThreadPool::global`]), [`gemm_with_stats_pooled`] (a pool the caller
//! owns), their SYRK/GEMV siblings,
//! and the typed [`OpRequest`] descriptors over all of them; each reports
//! a [`GemmStats`] breakdown (bytes packed, kernel calls, the thread grid)
//! so experiments can observe the same quantities the paper pulled out of
//! Intel VTune. The model-decided entry point lives on the serving
//! layer (`adsala::AdsalaService::run`).
//!
//! Matrices are dense, row-major, with an explicit leading (row) stride.
//! Operands may be logically transposed via [`Transpose`]; packing handles
//! both orientations with the same code path, like vendor BLAS.

pub mod blocking;
pub mod dispatch;
pub mod fault;
pub mod gemm;
pub mod gemv;
pub mod isa;
pub mod microkernel;
pub mod naive;
pub mod pack;
pub mod plan;
pub mod pool;
pub mod stats;
pub mod strassen;
pub mod syrk;
pub mod threading;
pub mod workspace;

pub use blocking::{BlockSizes, CacheInfo};
pub use dispatch::{
    GemmArgs, GemvArgs, OpRequest, OpShape, OpStats, Precision, Routine, ShapeError, SyrkArgs,
};
pub use fault::FaultPlan;
pub use gemm::{gemm_with_stats, gemm_with_stats_pooled, GemmCall};
pub use gemv::{gemv_with_stats, gemv_with_stats_pooled};
pub use isa::{Kernel, KernelIsa};
pub use plan::{
    Algorithm, BlockScale, ExecutionPlan, PlanGrid, PlanPoint, FEATURE_REV_AXES, FEATURE_REV_LEGACY,
};
pub use pool::{PoolStats, ThreadPool};
pub use stats::{GemmStats, PredictionErrorStats};
pub use syrk::{syrk_with_stats, syrk_with_stats_pooled};
pub use threading::ThreadGrid;
pub use workspace::{ArenaStats, PackArena, Workspace};

/// Transposition flag for an input operand, mirroring the BLAS `TRANS*`
/// parameters (conjugation is irrelevant for real elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the operand's transpose.
    Yes,
}

impl Transpose {
    /// `true` if the operand is transposed.
    pub fn is_transposed(self) -> bool {
        matches!(self, Transpose::Yes)
    }
}

/// Scalar element type usable by the GEMM kernels.
///
/// Implemented for `f32` and `f64`. The trait is deliberately tiny: the
/// micro-kernel only needs zero, addition and fused multiply-add shaped
/// arithmetic, and the pack routines need plain copies.
pub trait Element:
    Copy
    + Send
    + Sync
    + PartialEq
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Mul<Output = Self>
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// `self * a + b` — contracted to a hardware FMA under optimisation.
    fn mul_add_e(self, a: Self, b: Self) -> Self;
    /// `self - a` — the Strassen quadrant combinations need subtraction.
    fn sub_e(self, a: Self) -> Self;
    /// Size in bytes (used for packing statistics).
    const BYTES: usize;
    /// The precision tag the dispatch layer keys decisions on.
    const PRECISION: dispatch::Precision;
    /// The micro-kernel table for this element type under `isa` (see
    /// [`isa::Kernel`]; drivers resolve it once per call).
    fn kernel(isa: isa::KernelIsa) -> isa::Kernel<Self>;
}

impl Element for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    #[inline(always)]
    fn mul_add_e(self, a: Self, b: Self) -> Self {
        // A plain multiply-add vectorises better than `f32::mul_add` when
        // the target has no FMA: let LLVM contract it where profitable.
        self * a + b
    }
    #[inline(always)]
    fn sub_e(self, a: Self) -> Self {
        self - a
    }
    const BYTES: usize = 4;
    const PRECISION: dispatch::Precision = dispatch::Precision::F32;
    fn kernel(isa: isa::KernelIsa) -> isa::Kernel<Self> {
        isa::kernel_f32(isa)
    }
}

impl Element for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    #[inline(always)]
    fn mul_add_e(self, a: Self, b: Self) -> Self {
        self * a + b
    }
    #[inline(always)]
    fn sub_e(self, a: Self) -> Self {
        self - a
    }
    const BYTES: usize = 8;
    const PRECISION: dispatch::Precision = dispatch::Precision::F64;
    fn kernel(isa: isa::KernelIsa) -> isa::Kernel<Self> {
        isa::kernel_f64(isa)
    }
}
