//! Routine- and precision-generic operation dispatch.
//!
//! The serving stack above this crate should not grow one entry point per
//! `(routine, precision)` pair — the paper's closing remark that the method
//! "extends naturally to other BLAS level-3 routines" demands a surface
//! where adding a routine is additive, not breaking. This module provides
//! that surface:
//!
//! * [`Routine`] / [`Precision`] — the closed enums a decision layer keys
//!   on (cache entries, per-routine model tables),
//! * [`GemmArgs`] / [`SyrkArgs`] / [`GemvArgs`] — typed operand
//!   descriptors over any [`Element`], carrying scalars, slices and
//!   leading dimensions,
//! * [`OpRequest`] — the tagged union of the descriptors, with one
//!   validated [`OpRequest::execute`] entry point that routes to the
//!   blocked kernels on a persistent [`ThreadPool`],
//! * [`OpShape`] — the routine/precision/dimension key, and its
//!   [`OpShape::gemm_equivalent`] mapping into the paper's §III-A GEMM
//!   feature space (and back, [`OpShape::from_gemm_equivalent`];
//!   [`OpShape::project`] is the round trip),
//! * [`OpStats`] — the unified execution report ([`GemmStats`] tagged
//!   with what ran).
//!
//! Validation happens *before* any kernel is touched: undersized slices
//! and inconsistent leading dimensions come back as [`ShapeError`] values
//! instead of the kernels' internal panics, so a long-lived server can
//! reject a malformed request without dying.
//!
//! Execution is arena-aware end to end: [`OpRequest::execute`] routes to
//! the pooled drivers, which draw packing scratch from the pool's
//! [`crate::workspace::Workspace`] (stable per-worker arena slots) — so a
//! warm serving path performs zero packing-path heap allocations per
//! request.

use crate::gemm::{gemm_with_stats_pooled, GemmCall};
use crate::gemv::gemv_with_stats_pooled;
use crate::plan::ExecutionPlan;
use crate::pool::ThreadPool;
use crate::stats::GemmStats;
use crate::syrk::syrk_with_stats_pooled;
use crate::{Element, Transpose};

/// The BLAS routines the dispatch layer serves.
///
/// Adding a routine means adding a variant here, a descriptor type, and a
/// kernel arm in [`OpRequest::execute`] — nothing above the dispatch layer
/// changes shape.
///
/// ```
/// use adsala_gemm::dispatch::Routine;
///
/// // Each routine maps its own dimensions into the GEMM feature space:
/// assert_eq!(Routine::Gemm.as_str(), "gemm");
/// assert_eq!(Routine::Syrk.as_str(), "syrk");
/// assert_eq!(Routine::Gemv.as_str(), "gemv");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Routine {
    /// General matrix-matrix multiply `C ← α·op(A)·op(B) + β·C`.
    Gemm,
    /// Symmetric rank-k update `C ← α·A·Aᵀ + β·C` (lower triangle).
    Syrk,
    /// Matrix-vector multiply `y ← α·A·x + β·y`.
    Gemv,
}

impl Routine {
    /// Lower-case routine name (stable; used in reports and artefacts).
    pub fn as_str(self) -> &'static str {
        match self {
            Routine::Gemm => "gemm",
            Routine::Syrk => "syrk",
            Routine::Gemv => "gemv",
        }
    }

    /// All routines, for sweeps and tables.
    pub const ALL: [Routine; 3] = [Routine::Gemm, Routine::Syrk, Routine::Gemv];
}

impl std::fmt::Display for Routine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Floating-point precision of an operation's elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// IEEE 754 binary32 (`f32`).
    F32,
    /// IEEE 754 binary64 (`f64`).
    F64,
}

impl Precision {
    /// Lower-case BLAS-style prefix ("s" / "d").
    pub fn blas_prefix(self) -> &'static str {
        match self {
            Precision::F32 => "s",
            Precision::F64 => "d",
        }
    }

    /// Element size in bytes.
    pub fn bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F64 => 8,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::F32 => "f32",
            Precision::F64 => "f64",
        })
    }
}

/// The decision key of one operation: routine, precision, and the
/// routine's own logical dimensions.
///
/// `dims` is routine-specific — GEMM stores `[m, k, n]`, SYRK `[m, k, 0]`
/// (the output is `m×m`), GEMV `[m, n, 0]` — and
/// [`OpShape::gemm_equivalent`] maps each into the `(m, k, n)` GEMM
/// feature space the paper's §III-A model was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpShape {
    /// Which routine runs.
    pub routine: Routine,
    /// Element precision.
    pub precision: Precision,
    /// Routine-specific logical dimensions (unused trailing slots are 0).
    pub dims: [u64; 3],
}

impl OpShape {
    /// Key for an `m×k · k×n` GEMM.
    pub fn gemm(precision: Precision, m: u64, k: u64, n: u64) -> Self {
        Self { routine: Routine::Gemm, precision, dims: [m, k, n] }
    }

    /// Key for a SYRK with `m×k` input (and `m×m` output).
    pub fn syrk(precision: Precision, m: u64, k: u64) -> Self {
        Self { routine: Routine::Syrk, precision, dims: [m, k, 0] }
    }

    /// Key for a GEMV with `m×n` matrix.
    pub fn gemv(precision: Precision, m: u64, n: u64) -> Self {
        Self { routine: Routine::Gemv, precision, dims: [m, n, 0] }
    }

    /// Map this shape into the `(m, k, n)` GEMM feature space:
    /// GEMM `[m, k, n]` is itself, SYRK `(m, k)` is the `m×k · k×m`
    /// product it computes, GEMV `(m, n)` is an `m×n · n×1` product.
    pub fn gemm_equivalent(&self) -> (u64, u64, u64) {
        let [a, b, c] = self.dims;
        match self.routine {
            Routine::Gemm => (a, b, c),
            Routine::Syrk => (a, b, a),
            Routine::Gemv => (a, b, 1),
        }
    }

    /// The inverse of [`OpShape::gemm_equivalent`]: the `routine` call
    /// whose GEMM equivalent is `(m, k, n)`. SYRK reads its `(m, k)` and
    /// GEMV its `(m, n)` from the triple's `m` and `k`; the `n` a routine
    /// does not have is dropped ([`OpShape::project`] is the round trip).
    pub fn from_gemm_equivalent(
        routine: Routine,
        precision: Precision,
        (m, k, n): (u64, u64, u64),
    ) -> Self {
        match routine {
            Routine::Gemm => Self::gemm(precision, m, k, n),
            Routine::Syrk => Self::syrk(precision, m, k),
            Routine::Gemv => Self::gemv(precision, m, k),
        }
    }

    /// Project any GEMM triple onto the GEMM equivalents of `routine`'s
    /// calls, the shapes a timer of that routine is given: SYRK's
    /// `(m, k, m)`, GEMV's `(m, k, 1)`, GEMM's triple itself. The map is
    /// precision-free.
    pub fn project(routine: Routine, gemm: (u64, u64, u64)) -> (u64, u64, u64) {
        Self::from_gemm_equivalent(routine, Precision::F32, gemm).gemm_equivalent()
    }
}

/// A request was dimensionally inconsistent: a slice too short for its
/// described shape, or a leading dimension smaller than a row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// The routine whose descriptor failed validation.
    pub routine: Routine,
    /// Human-readable description of the inconsistency.
    pub message: String,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} shape error: {}", self.routine, self.message)
    }
}

impl std::error::Error for ShapeError {}

/// Validate one dense row-major operand: `ld` must cover a row and `len`
/// must cover the last element. Uses checked arithmetic so adversarially
/// huge dimensions report an error instead of overflowing.
fn check_operand(
    routine: Routine,
    name: &str,
    rows: usize,
    cols: usize,
    ld: usize,
    len: usize,
) -> Result<(), ShapeError> {
    let err = |message: String| Err(ShapeError { routine, message });
    if ld < cols.max(1) {
        return err(format!("leading dimension of {name} ({ld}) < row length ({cols})"));
    }
    if rows == 0 || cols == 0 {
        return Ok(());
    }
    let needed = (rows - 1).checked_mul(ld).and_then(|v| v.checked_add(cols));
    match needed {
        Some(needed) if len >= needed => Ok(()),
        Some(needed) => err(format!(
            "{name} has {len} elements but a {rows}x{cols} operand with leading \
             dimension {ld} needs {needed}"
        )),
        None => err(format!("{name} dimensions {rows}x{cols} (ld {ld}) overflow usize")),
    }
}

/// Validate a vector operand of logical length `n`.
fn check_vector(routine: Routine, name: &str, n: usize, len: usize) -> Result<(), ShapeError> {
    if len < n {
        return Err(ShapeError {
            routine,
            message: format!("{name} has {len} elements but length {n} is required"),
        });
    }
    Ok(())
}

/// Operands of a GEMM call: `C ← α·op(A)·op(B) + β·C`, row-major.
///
/// `a` is the stored `m×k` (or `k×m` when transposed) matrix with row
/// stride `lda`; likewise `b` and `c`. Build one and wrap it in an
/// [`OpRequest`] (or hand it to a serving layer's `run`).
#[derive(Debug)]
pub struct GemmArgs<'a, T: Element> {
    /// Transposition of `A`.
    pub trans_a: Transpose,
    /// Transposition of `B`.
    pub trans_b: Transpose,
    /// Rows of `op(A)` and `C`.
    pub m: usize,
    /// Columns of `op(B)` and `C`.
    pub n: usize,
    /// Columns of `op(A)` / rows of `op(B)`.
    pub k: usize,
    /// Scale on the product.
    pub alpha: T,
    /// Stored `A`.
    pub a: &'a [T],
    /// Row stride of stored `A`.
    pub lda: usize,
    /// Stored `B`.
    pub b: &'a [T],
    /// Row stride of stored `B`.
    pub ldb: usize,
    /// Scale on the existing `C`.
    pub beta: T,
    /// Output `C` (`m×n`).
    pub c: &'a mut [T],
    /// Row stride of `C`.
    pub ldc: usize,
}

impl<'a, T: Element> GemmArgs<'a, T> {
    /// Untransposed GEMM with the conventional argument order.
    #[allow(clippy::too_many_arguments)] // BLAS-style signature
    pub fn untransposed(
        m: usize,
        n: usize,
        k: usize,
        alpha: T,
        a: &'a [T],
        lda: usize,
        b: &'a [T],
        ldb: usize,
        beta: T,
        c: &'a mut [T],
        ldc: usize,
    ) -> Self {
        Self {
            trans_a: Transpose::No,
            trans_b: Transpose::No,
            m,
            n,
            k,
            alpha,
            a,
            lda,
            b,
            ldb,
            beta,
            c,
            ldc,
        }
    }

    /// This call's decision key.
    pub fn shape(&self) -> OpShape {
        OpShape::gemm(T::PRECISION, self.m as u64, self.k as u64, self.n as u64)
    }

    /// The driver-level call these operands make under `plan`.
    fn call(&self, plan: &ExecutionPlan) -> GemmCall {
        GemmCall {
            trans_a: self.trans_a,
            trans_b: self.trans_b,
            m: self.m,
            n: self.n,
            k: self.k,
            plan: *plan,
        }
    }

    /// Check every operand against the described dimensions.
    pub fn validate(&self) -> Result<(), ShapeError> {
        let r = Routine::Gemm;
        let (ar, ac) =
            if self.trans_a.is_transposed() { (self.k, self.m) } else { (self.m, self.k) };
        let (br, bc) =
            if self.trans_b.is_transposed() { (self.n, self.k) } else { (self.k, self.n) };
        check_operand(r, "a", ar, ac, self.lda, self.a.len())?;
        check_operand(r, "b", br, bc, self.ldb, self.b.len())?;
        check_operand(r, "c", self.m, self.n, self.ldc, self.c.len())
    }
}

/// Operands of a SYRK call: `C ← α·A·Aᵀ + β·C`, lower triangle, row-major.
#[derive(Debug)]
pub struct SyrkArgs<'a, T: Element> {
    /// Rows of `A` and order of the symmetric output.
    pub m: usize,
    /// Columns of `A` (the contracted dimension).
    pub k: usize,
    /// Scale on the product.
    pub alpha: T,
    /// Stored `m×k` `A`.
    pub a: &'a [T],
    /// Row stride of `A`.
    pub lda: usize,
    /// Scale on the existing `C`.
    pub beta: T,
    /// Output `C` (`m×m`; only the lower triangle is written).
    pub c: &'a mut [T],
    /// Row stride of `C`.
    pub ldc: usize,
}

impl<T: Element> SyrkArgs<'_, T> {
    /// This call's decision key.
    pub fn shape(&self) -> OpShape {
        OpShape::syrk(T::PRECISION, self.m as u64, self.k as u64)
    }

    /// Check every operand against the described dimensions.
    pub fn validate(&self) -> Result<(), ShapeError> {
        let r = Routine::Syrk;
        check_operand(r, "a", self.m, self.k, self.lda, self.a.len())?;
        check_operand(r, "c", self.m, self.m, self.ldc, self.c.len())
    }
}

/// Operands of a GEMV call: `y ← α·A·x + β·y`, row-major.
#[derive(Debug)]
pub struct GemvArgs<'a, T: Element> {
    /// Rows of `A` and length of `y`.
    pub m: usize,
    /// Columns of `A` and length of `x`.
    pub n: usize,
    /// Scale on the product.
    pub alpha: T,
    /// Stored `m×n` `A`.
    pub a: &'a [T],
    /// Row stride of `A`.
    pub lda: usize,
    /// Input vector (length `n`).
    pub x: &'a [T],
    /// Scale on the existing `y`.
    pub beta: T,
    /// Output vector (length `m`).
    pub y: &'a mut [T],
}

impl<T: Element> GemvArgs<'_, T> {
    /// This call's decision key.
    pub fn shape(&self) -> OpShape {
        OpShape::gemv(T::PRECISION, self.m as u64, self.n as u64)
    }

    /// Check every operand against the described dimensions.
    pub fn validate(&self) -> Result<(), ShapeError> {
        let r = Routine::Gemv;
        check_operand(r, "a", self.m, self.n, self.lda, self.a.len())?;
        check_vector(r, "x", self.n, self.x.len())?;
        check_vector(r, "y", self.m, self.y.len())
    }
}

/// Whether a GEMM executed something humbler than `plan` asked for: a
/// pinned kernel ISA clamped, or the requested algorithm refused.
fn gemm_plan_degraded(plan: &ExecutionPlan, exec: &GemmStats) -> bool {
    plan.kernel_isa.is_some_and(|isa| exec.kernel_isa != isa) || plan.algorithm != exec.algorithm
}

/// Unified execution report: the kernel breakdown tagged with what ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// The routine that executed.
    pub routine: Routine,
    /// The element precision it ran at.
    pub precision: Precision,
    /// The [`ExecutionPlan`] the caller requested for this operation.
    /// The ISA that actually ran is `exec.kernel_isa` — compare the two
    /// (or check [`OpStats::plan_degraded`]) to spot clamping.
    pub plan: ExecutionPlan,
    /// `true` when the executed configuration fell back from the
    /// requested plan: a pinned kernel ISA was clamped (unsupported host
    /// or `ADSALA_FORCE_SCALAR`), the requested algorithm was refused
    /// (e.g. Strassen on an ineligible shape ran blocked — compare
    /// `plan.algorithm` against `exec.algorithm`), or a non-thread plan
    /// axis was requested for a routine (SYRK/GEMV) that only honours the
    /// thread count.
    pub plan_degraded: bool,
    /// The model's runtime prediction for this call in nanoseconds, or 0
    /// when no model priced the plan (direct execution, a caller-pinned
    /// plan, a degraded retry).
    /// Stored as integer nanoseconds so `OpStats` stays `Eq`.
    pub predicted_ns: u64,
    /// The sync/copy/kernel breakdown shared by every routine.
    pub exec: GemmStats,
}

impl OpStats {
    /// Signed prediction log-error `ln(measured / predicted)`, or `None`
    /// when the call carried no prediction or no measurement. Positive
    /// means the model was optimistic (reality slower than predicted).
    pub fn prediction_log_error(&self) -> Option<f64> {
        if self.predicted_ns == 0 || self.exec.wall_ns == 0 {
            return None;
        }
        Some((self.exec.wall_ns as f64 / self.predicted_ns as f64).ln())
    }
}

/// One operation request: a routine tag plus its typed operands.
///
/// The single serving entry point — build from any descriptor via `From`,
/// then [`OpRequest::execute`] validates and routes to the blocked
/// kernels on a persistent pool:
///
/// ```
/// use adsala_gemm::dispatch::{GemmArgs, OpRequest, Routine};
/// use adsala_gemm::{ExecutionPlan, ThreadPool};
///
/// let pool = ThreadPool::new(2);
/// let (m, n, k) = (4, 3, 2);
/// let a = vec![1.0f32; m * k];
/// let b = vec![0.5f32; k * n];
/// let mut c = vec![0.0f32; m * n];
/// let mut req: OpRequest<'_, f32> =
///     GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
/// assert_eq!(req.routine(), Routine::Gemm);
/// let stats = req.execute(&pool, &ExecutionPlan::with_threads(2)).unwrap();
/// assert_eq!(stats.routine, Routine::Gemm);
/// assert_eq!(stats.plan.threads, 2);
/// assert!(c.iter().all(|&v| v == 1.0));
/// ```
#[derive(Debug)]
pub enum OpRequest<'a, T: Element> {
    /// General matrix-matrix multiply.
    Gemm(GemmArgs<'a, T>),
    /// Symmetric rank-k update.
    Syrk(SyrkArgs<'a, T>),
    /// Matrix-vector multiply.
    Gemv(GemvArgs<'a, T>),
}

impl<'a, T: Element> From<GemmArgs<'a, T>> for OpRequest<'a, T> {
    fn from(args: GemmArgs<'a, T>) -> Self {
        OpRequest::Gemm(args)
    }
}

impl<'a, T: Element> From<SyrkArgs<'a, T>> for OpRequest<'a, T> {
    fn from(args: SyrkArgs<'a, T>) -> Self {
        OpRequest::Syrk(args)
    }
}

impl<'a, T: Element> From<GemvArgs<'a, T>> for OpRequest<'a, T> {
    fn from(args: GemvArgs<'a, T>) -> Self {
        OpRequest::Gemv(args)
    }
}

impl<T: Element> OpRequest<'_, T> {
    /// Which routine this request runs.
    pub fn routine(&self) -> Routine {
        match self {
            OpRequest::Gemm(_) => Routine::Gemm,
            OpRequest::Syrk(_) => Routine::Syrk,
            OpRequest::Gemv(_) => Routine::Gemv,
        }
    }

    /// The decision key: routine, precision, logical dimensions.
    pub fn shape(&self) -> OpShape {
        match self {
            OpRequest::Gemm(g) => g.shape(),
            OpRequest::Syrk(s) => s.shape(),
            OpRequest::Gemv(v) => v.shape(),
        }
    }

    /// Check every operand slice and leading dimension against the
    /// described shape, without touching any data.
    pub fn validate(&self) -> Result<(), ShapeError> {
        match self {
            OpRequest::Gemm(g) => g.validate(),
            OpRequest::Syrk(s) => s.validate(),
            OpRequest::Gemv(v) => v.validate(),
        }
    }

    /// Whether rerunning this request from scratch yields the same
    /// result even after a partial earlier attempt wrote into the output
    /// buffer. True exactly when `beta == 0`: the kernels then overwrite
    /// `C` (or `y`) without reading it, so a panicked first attempt can
    /// be retried on a degraded plan. With `beta != 0` the output is an
    /// accumulator input and a retry would double-apply it.
    pub fn is_idempotent(&self) -> bool {
        match self {
            OpRequest::Gemm(g) => g.beta == T::ZERO,
            OpRequest::Syrk(s) => s.beta == T::ZERO,
            OpRequest::Gemv(v) => v.beta == T::ZERO,
        }
    }

    /// Validate, then run the routine's blocked kernel on `pool` under
    /// `plan`. The output buffer is untouched on error.
    ///
    /// Results are bitwise-identical to the corresponding direct kernel
    /// call under the same plan — dispatch adds a match and a few
    /// compares, nothing numeric.
    pub fn execute(
        &mut self,
        pool: &ThreadPool,
        plan: &ExecutionPlan,
    ) -> Result<OpStats, ShapeError> {
        self.validate()?;
        Ok(self.execute_validated(pool, plan))
    }

    /// Run the routine's kernel without re-checking the operands — for
    /// callers that already ran [`OpRequest::validate`] on this request
    /// (the serving layers validate before consulting their memo, so the
    /// hot path should not pay the bounds checks twice).
    ///
    /// GEMM honours every plan axis; SYRK and GEMV have no configurable
    /// kernel, blocking or algorithm and honour only `plan.threads` (the report's
    /// [`OpStats::plan_degraded`] flags when other axes were requested).
    ///
    /// On a request that would fail validation, the underlying kernels
    /// fall back to their own assertions and may panic; memory safety is
    /// never at stake.
    pub fn execute_validated(&mut self, pool: &ThreadPool, plan: &ExecutionPlan) -> OpStats {
        let shape = self.shape();
        let threads = plan.threads.max(1) as usize;
        let exec = match self {
            OpRequest::Gemm(g) => gemm_with_stats_pooled(
                pool,
                &g.call(plan),
                g.alpha,
                g.a,
                g.lda,
                g.b,
                g.ldb,
                g.beta,
                g.c,
                g.ldc,
            ),
            OpRequest::Syrk(s) => syrk_with_stats_pooled(
                pool, s.m, s.k, s.alpha, s.a, s.lda, s.beta, s.c, s.ldc, threads,
            ),
            OpRequest::Gemv(v) => gemv_with_stats_pooled(
                pool, v.m, v.n, v.alpha, v.a, v.lda, v.x, v.beta, v.y, threads,
            ),
        };
        let plan_degraded = match shape.routine {
            Routine::Gemm => gemm_plan_degraded(plan, &exec),
            Routine::Syrk | Routine::Gemv => !plan.is_threads_only(),
        };
        OpStats {
            routine: shape.routine,
            precision: shape.precision,
            plan: *plan,
            plan_degraded,
            predicted_ns: 0,
            exec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemv::naive_gemv;
    use crate::naive::naive_gemm;
    use crate::syrk::naive_syrk;

    fn fill(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 2000) as f64 - 1000.0) / 350.0
            })
            .collect()
    }

    #[test]
    fn gemm_equivalent_mappings() {
        assert_eq!(OpShape::gemm(Precision::F32, 5, 6, 7).gemm_equivalent(), (5, 6, 7));
        assert_eq!(OpShape::syrk(Precision::F64, 100, 30).gemm_equivalent(), (100, 30, 100));
        assert_eq!(OpShape::gemv(Precision::F32, 200, 50).gemm_equivalent(), (200, 50, 1));
        for shape in [
            OpShape::gemm(Precision::F32, 5, 6, 7),
            OpShape::syrk(Precision::F64, 100, 30),
            OpShape::gemv(Precision::F32, 200, 50),
        ] {
            let back = OpShape::from_gemm_equivalent(
                shape.routine,
                shape.precision,
                shape.gemm_equivalent(),
            );
            assert_eq!(back, shape);
        }
        // Any GEMM triple projects onto the routine's own shapes.
        assert_eq!(OpShape::project(Routine::Gemm, (9, 4, 70)), (9, 4, 70));
        assert_eq!(OpShape::project(Routine::Syrk, (9, 4, 70)), (9, 4, 9));
        assert_eq!(OpShape::project(Routine::Gemv, (9, 4, 70)), (9, 4, 1));
    }

    #[test]
    fn shapes_distinguish_routine_and_precision() {
        let g32 = OpShape::gemm(Precision::F32, 8, 8, 8);
        let g64 = OpShape::gemm(Precision::F64, 8, 8, 8);
        let s32 = OpShape::syrk(Precision::F32, 8, 8);
        assert_ne!(g32, g64);
        assert_ne!(g32, s32);
        assert_eq!(g32, OpShape::gemm(Precision::F32, 8, 8, 8));
    }

    #[test]
    fn element_precision_tags() {
        assert_eq!(<f32 as Element>::PRECISION, Precision::F32);
        assert_eq!(<f64 as Element>::PRECISION, Precision::F64);
        assert_eq!(Precision::F32.bytes(), 4);
        assert_eq!(Precision::F64.blas_prefix(), "d");
    }

    #[test]
    fn gemm_request_matches_naive() {
        let pool = ThreadPool::new(3);
        let (m, n, k) = (33, 29, 17);
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut c = fill(m * n, 3);
        let mut c_ref = c.clone();
        let mut req: OpRequest<'_, f64> =
            GemmArgs::untransposed(m, n, k, 1.5, &a, k, &b, n, 0.5, &mut c, n).into();
        let stats = req.execute(&pool, &ExecutionPlan::with_threads(3)).unwrap();
        assert_eq!(stats.routine, Routine::Gemm);
        assert_eq!(stats.precision, Precision::F64);
        assert_eq!(stats.plan.threads, 3);
        assert!(!stats.plan_degraded, "a threads-only plan never degrades");
        assert!(stats.exec.kernel_calls > 0);
        naive_gemm(Transpose::No, Transpose::No, m, n, k, 1.5, &a, k, &b, n, 0.5, &mut c_ref, n);
        for (x, y) in c.iter().zip(&c_ref) {
            assert!((x - y).abs() <= 1e-10 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn syrk_request_matches_naive() {
        let pool = ThreadPool::new(4);
        let (m, k) = (40, 21);
        let a = fill(m * k, 4);
        let mut c = fill(m * m, 5);
        let mut c_ref = c.clone();
        let mut req: OpRequest<'_, f64> =
            SyrkArgs { m, k, alpha: 2.0, a: &a, lda: k, beta: -0.5, c: &mut c, ldc: m }.into();
        let stats = req.execute(&pool, &ExecutionPlan::with_threads(4)).unwrap();
        assert_eq!(stats.routine, Routine::Syrk);
        assert!(!stats.plan_degraded);
        naive_syrk(m, k, 2.0, &a, k, -0.5, &mut c_ref, m);
        for i in 0..m {
            for j in 0..=i {
                let (x, y) = (c[i * m + j], c_ref[i * m + j]);
                assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()), "({i},{j}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn gemv_request_matches_naive() {
        let pool = ThreadPool::new(2);
        let (m, n) = (57, 23);
        let a = fill(m * n, 6);
        let x = fill(n, 7);
        let mut y = fill(m, 8);
        let mut y_ref = y.clone();
        let mut req: OpRequest<'_, f64> =
            GemvArgs { m, n, alpha: 1.0, a: &a, lda: n, x: &x, beta: 1.0, y: &mut y }.into();
        let stats = req.execute(&pool, &ExecutionPlan::with_threads(2)).unwrap();
        assert_eq!(stats.routine, Routine::Gemv);
        naive_gemv(m, n, 1.0, &a, n, &x, 1.0, &mut y_ref);
        for (u, v) in y.iter().zip(&y_ref) {
            assert!((u - v).abs() <= 1e-10 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn plan_degradation_is_reported() {
        use crate::isa::KernelIsa;
        let pool = ThreadPool::new(2);

        // A scalar-pinned GEMM plan always runs as requested.
        let (m, n, k) = (16, 16, 16);
        let a = fill(m * k, 9);
        let b = fill(k * n, 10);
        let mut c = vec![0.0f64; m * n];
        let mut req: OpRequest<'_, f64> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let plan = ExecutionPlan::with_threads(2).with_isa(KernelIsa::Scalar);
        let stats = req.execute(&pool, &plan).unwrap();
        assert_eq!(stats.exec.kernel_isa, KernelIsa::Scalar);
        assert!(!stats.plan_degraded);
        assert_eq!(stats.plan, plan);

        // SYRK has no algorithm axis: a non-default algorithm degrades.
        let (m, k) = (12, 8);
        let a = fill(m * k, 11);
        let mut c = vec![0.0f64; m * m];
        let mut req: OpRequest<'_, f64> =
            SyrkArgs { m, k, alpha: 1.0, a: &a, lda: k, beta: 0.0, c: &mut c, ldc: m }.into();
        let plan = ExecutionPlan::with_threads(2).with_algorithm(crate::plan::Algorithm::ZOrder);
        let stats = req.execute(&pool, &plan).unwrap();
        assert!(stats.plan_degraded, "SYRK honours only the thread axis");
    }

    #[test]
    fn algorithm_downgrade_is_reported() {
        use crate::plan::Algorithm;
        let pool = ThreadPool::new(2);
        let (m, n, k) = (30, 30, 30); // far below any Strassen cutoff
        let a = fill(m * k, 12);
        let b = fill(k * n, 13);
        let plan =
            ExecutionPlan::with_threads(2).with_algorithm(Algorithm::Strassen { cutoff: 64 });

        let mut c = vec![0.0f64; m * n];
        let mut req: OpRequest<'_, f64> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let stats = req.execute(&pool, &plan).unwrap();
        assert_eq!(stats.exec.algorithm, Algorithm::Blocked);
        assert!(stats.plan_degraded, "a refused Strassen plan must be flagged");

        // An honoured algorithm is not a degradation.
        let mut c = vec![0.0f64; m * n];
        let mut req: OpRequest<'_, f64> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let zplan = ExecutionPlan::with_threads(2).with_algorithm(Algorithm::ZOrder);
        let stats = req.execute(&pool, &zplan).unwrap();
        assert_eq!(stats.exec.algorithm, Algorithm::ZOrder);
        assert!(!stats.plan_degraded);
    }

    #[test]
    fn undersized_operands_error_without_touching_output() {
        let pool = ThreadPool::new(1);
        let a = vec![0.0f32; 5]; // needs 6 for 2x3
        let b = vec![0.0f32; 12];
        let mut c = vec![7.0f32; 8];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(2, 4, 3, 1.0, &a, 3, &b, 4, 0.0, &mut c, 4).into();
        let err = req.execute(&pool, &ExecutionPlan::with_threads(2)).unwrap_err();
        assert_eq!(err.routine, Routine::Gemm);
        assert!(err.message.contains('a'), "{err}");
        assert!(c.iter().all(|&v| v == 7.0), "output must be untouched on error");
    }

    #[test]
    fn bad_leading_dimension_rejected() {
        let a = vec![0.0f64; 100];
        let x = vec![0.0f64; 10];
        let mut y = vec![0.0f64; 10];
        let args =
            GemvArgs { m: 10, n: 10, alpha: 1.0, a: &a, lda: 9, x: &x, beta: 0.0, y: &mut y };
        let err = args.validate().unwrap_err();
        assert!(err.message.contains("leading dimension"), "{err}");
    }

    #[test]
    fn overflowing_dimensions_are_an_error_not_a_panic() {
        let a: Vec<f32> = vec![0.0; 4];
        let b: Vec<f32> = vec![0.0; 4];
        let mut c: Vec<f32> = vec![0.0; 4];
        let args = GemmArgs::untransposed(
            usize::MAX,
            usize::MAX,
            2,
            1.0f32,
            &a,
            2,
            &b,
            usize::MAX,
            0.0,
            &mut c,
            usize::MAX,
        );
        assert!(args.validate().is_err());
    }

    #[test]
    fn zero_dimensions_validate_cleanly() {
        let mut c = vec![1.0f64; 6];
        let args = GemmArgs::untransposed(3, 2, 0, 1.0, &[], 1, &[], 2, 0.5, &mut c, 2);
        assert!(args.validate().is_ok());
    }

    #[test]
    fn transposed_gemm_validates_stored_shape() {
        // A stored as k×m (3×2) with lda = 2: valid only under transpose.
        let a = vec![0.0f64; 6];
        let b = vec![0.0f64; 12];
        let mut c = vec![0.0f64; 8];
        let mut args = GemmArgs::untransposed(2, 4, 3, 1.0, &a, 2, &b, 4, 0.0, &mut c, 4);
        assert!(args.validate().is_err(), "lda 2 is too small for untransposed 2x3 A");
        args.trans_a = Transpose::Yes;
        assert!(args.validate().is_ok());
    }
}
