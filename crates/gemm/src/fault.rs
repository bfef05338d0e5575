//! Fault injection for chaos testing the serving stack.
//!
//! A production GEMM service has to survive the failures the happy path
//! never exercises: a micro-kernel panicking mid-tile, a worker thread
//! wedging mid-batch, a truncated artifact on disk. This module is
//! the controlled way to *cause* those failures so the recovery machinery
//! (service-boundary panic isolation, degraded retry, deadline shedding,
//! artifact validation) can be tested end to end instead of trusted.
//!
//! A [`FaultPlan`] describes what to inject:
//!
//! * **kernel panics** by shape predicate (`m`/`n`/`k` thresholds), with
//!   optional filters for the kernel ISA (`isa=simd` skips scalar, so a
//!   degraded scalar retry succeeds) and execution context (`where=worker`
//!   fires only on pool worker threads, so a serial retry on the caller's
//!   thread succeeds), plus an optional fire-count budget;
//! * **per-worker stalls** — an artificial wait a pool worker takes
//!   before each job, optionally limited to one worker index and budget;
//!   [`FaultPlan::release_stalls`] ends them early, which makes a long
//!   stall a gate a test can hold a job behind and open on cue;
//! * **artifact corruption** — a flag consumers (the tests) use to
//!   corrupt an artifact JSON document before loading it.
//!
//! The plan comes from the `ADSALA_FAULTS` environment variable (resolved
//! once, like `ADSALA_FORCE_SCALAR`) or programmatically via
//! [`set_plan`] for deterministic in-process tests. When no plan is
//! active, every hook is a single relaxed atomic load — the hot path pays
//! nothing measurable, and the zero-allocation and bitwise-equivalence
//! suites hold unchanged.
//!
//! Grammar: directives separated by `,`, fields separated by `:`.
//!
//! ```text
//! ADSALA_FAULTS="panic:k>=97:isa=simd:count=1,stall:worker=0:ms=20,artifact:nan"
//! ```

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Duration;

use crate::isa::KernelIsa;

/// Which kernels a panic fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsaFilter {
    /// Fire on any kernel ISA.
    #[default]
    Any,
    /// Fire only on SIMD kernels (AVX-512/AVX2/NEON) — a degraded scalar retry
    /// then runs clean.
    SimdOnly,
    /// Fire only on the scalar kernel.
    ScalarOnly,
}

/// Which threads a panic fault fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContextFilter {
    /// Fire wherever the kernel runs.
    #[default]
    Any,
    /// Fire only on pool worker threads — a serial (caller-thread)
    /// degraded retry then runs clean.
    WorkerOnly,
}

/// One injected kernel panic: fires when the subproblem dimensions meet
/// every threshold and the ISA/context filters match, while the fire
/// budget lasts.
#[derive(Debug)]
pub struct PanicFault {
    /// Minimum subproblem rows for the fault to fire.
    pub min_m: usize,
    /// Minimum subproblem columns for the fault to fire.
    pub min_n: usize,
    /// Minimum contraction depth for the fault to fire.
    pub min_k: usize,
    /// Kernel-ISA filter.
    pub isa: IsaFilter,
    /// Execution-context filter.
    pub context: ContextFilter,
    /// Remaining fires (negative = unlimited).
    budget: AtomicI64,
}

impl PanicFault {
    fn matches(&self, isa: KernelIsa, m: usize, n: usize, k: usize, on_worker: bool) -> bool {
        if m < self.min_m || n < self.min_n || k < self.min_k {
            return false;
        }
        let isa_ok = match self.isa {
            IsaFilter::Any => true,
            IsaFilter::SimdOnly => isa != KernelIsa::Scalar,
            IsaFilter::ScalarOnly => isa == KernelIsa::Scalar,
        };
        let ctx_ok = match self.context {
            ContextFilter::Any => true,
            ContextFilter::WorkerOnly => on_worker,
        };
        isa_ok && ctx_ok
    }
}

/// One injected stall: a sleep a pool worker takes before running a job.
#[derive(Debug)]
pub struct StallFault {
    /// Only this worker index stalls (`None` = every worker).
    pub worker: Option<usize>,
    /// Stall duration in milliseconds.
    pub millis: u64,
    /// Remaining fires (negative = unlimited).
    budget: AtomicI64,
}

/// A set of faults to inject, plus counters recording what actually fired.
#[derive(Debug, Default)]
pub struct FaultPlan {
    panics: Vec<PanicFault>,
    stalls: Vec<StallFault>,
    artifact_corruption: bool,
    injected_panics: AtomicU64,
    injected_stalls: AtomicU64,
    /// Set by [`FaultPlan::release_stalls`]; stalls wait on it.
    stalls_released: Mutex<bool>,
    stall_gate: Condvar,
}

/// Try to consume one unit of a fire budget; negative budgets never run
/// out.
fn consume(budget: &AtomicI64) -> bool {
    let mut current = budget.load(Ordering::Relaxed);
    loop {
        if current < 0 {
            return true;
        }
        if current == 0 {
            return false;
        }
        match budget.compare_exchange_weak(
            current,
            current - 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return true,
            Err(seen) => current = seen,
        }
    }
}

impl FaultPlan {
    /// Parse the `ADSALA_FAULTS` grammar: comma-separated directives of
    /// colon-separated fields.
    ///
    /// * `panic[:m>=X][:n>=X][:k>=X][:isa=simd|scalar|any][:where=worker|any][:count=N]`
    /// * `stall[:worker=I][:ms=D][:count=N]`
    /// * `artifact:nan`
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for directive in spec.split(',').map(str::trim).filter(|d| !d.is_empty()) {
            let mut fields = directive.split(':').map(str::trim);
            let head = fields.next().unwrap_or("");
            match head {
                "panic" => {
                    let mut fault = PanicFault {
                        min_m: 0,
                        min_n: 0,
                        min_k: 0,
                        isa: IsaFilter::Any,
                        context: ContextFilter::Any,
                        budget: AtomicI64::new(-1),
                    };
                    for field in fields {
                        if let Some(v) = field.strip_prefix("m>=") {
                            fault.min_m = parse_num(directive, v)?;
                        } else if let Some(v) = field.strip_prefix("n>=") {
                            fault.min_n = parse_num(directive, v)?;
                        } else if let Some(v) = field.strip_prefix("k>=") {
                            fault.min_k = parse_num(directive, v)?;
                        } else if let Some(v) = field.strip_prefix("isa=") {
                            fault.isa = match v {
                                "simd" => IsaFilter::SimdOnly,
                                "scalar" => IsaFilter::ScalarOnly,
                                "any" => IsaFilter::Any,
                                other => {
                                    return Err(format!("unknown isa filter `{other}`"));
                                }
                            };
                        } else if let Some(v) = field.strip_prefix("where=") {
                            fault.context = match v {
                                "worker" => ContextFilter::WorkerOnly,
                                "any" => ContextFilter::Any,
                                other => {
                                    return Err(format!("unknown context filter `{other}`"));
                                }
                            };
                        } else if let Some(v) = field.strip_prefix("count=") {
                            fault.budget = AtomicI64::new(parse_num::<i64>(directive, v)?.max(0));
                        } else {
                            return Err(format!("unknown panic field `{field}` in `{directive}`"));
                        }
                    }
                    plan.panics.push(fault);
                }
                "stall" => {
                    let mut fault =
                        StallFault { worker: None, millis: 10, budget: AtomicI64::new(-1) };
                    for field in fields {
                        if let Some(v) = field.strip_prefix("worker=") {
                            fault.worker = Some(parse_num(directive, v)?);
                        } else if let Some(v) = field.strip_prefix("ms=") {
                            fault.millis = parse_num(directive, v)?;
                        } else if let Some(v) = field.strip_prefix("count=") {
                            fault.budget = AtomicI64::new(parse_num::<i64>(directive, v)?.max(0));
                        } else {
                            return Err(format!("unknown stall field `{field}` in `{directive}`"));
                        }
                    }
                    plan.stalls.push(fault);
                }
                "artifact" => match fields.next() {
                    Some("nan") => plan.artifact_corruption = true,
                    other => {
                        return Err(format!("unknown artifact fault `{}`", other.unwrap_or("")));
                    }
                },
                other => return Err(format!("unknown fault directive `{other}`")),
            }
        }
        Ok(plan)
    }

    /// `true` when this plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty() && self.stalls.is_empty() && !self.artifact_corruption
    }

    /// `true` when the plan asks consumers to corrupt artifact JSON
    /// before loading it.
    pub fn corrupts_artifact(&self) -> bool {
        self.artifact_corruption
    }

    /// Kernel panics fired so far.
    pub fn injected_panics(&self) -> u64 {
        self.injected_panics.load(Ordering::Relaxed)
    }

    /// Worker stalls fired so far.
    pub fn injected_stalls(&self) -> u64 {
        self.injected_stalls.load(Ordering::Relaxed)
    }

    fn maybe_panic(&self, isa: KernelIsa, m: usize, n: usize, k: usize, on_worker: bool) {
        for fault in &self.panics {
            if fault.matches(isa, m, n, k, on_worker) && consume(&fault.budget) {
                self.injected_panics.fetch_add(1, Ordering::Relaxed);
                panic!(
                    "injected fault: kernel panic at {m}x{n}x{k} ({isa}, {ctx})",
                    isa = isa.as_str(),
                    ctx = if on_worker { "worker" } else { "caller" },
                );
            }
        }
    }

    fn maybe_stall(&self, worker: usize) {
        for fault in &self.stalls {
            if fault.worker.is_none_or(|w| w == worker) && consume(&fault.budget) {
                self.injected_stalls.fetch_add(1, Ordering::Relaxed);
                // A timed wait, not a sleep, so `release_stalls` can end it.
                let released = self.stalls_released.lock().unwrap_or_else(PoisonError::into_inner);
                let stall = Duration::from_millis(fault.millis);
                drop(self.stall_gate.wait_timeout_while(released, stall, |released| !*released));
            }
        }
    }

    /// End every stall in progress and make every later one return at
    /// once. A test that needs a pool job held until some interleaving is
    /// in place installs a long stall, waits for the state it needs, and
    /// calls this — instead of racing a sleep against the job's runtime.
    pub fn release_stalls(&self) {
        *self.stalls_released.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.stall_gate.notify_all();
    }

    /// Corrupt an artifact JSON document the way a truncated float does:
    /// replace the first floating-point literal inside the `"models"`
    /// section with `1e999`, which Rust's float parser round-trips to
    /// `+∞`. Returns the document unchanged if no such literal exists.
    pub fn corrupt_artifact_json(json: &str) -> String {
        let start = json.find("\"models\"").map_or(0, |i| i + "\"models\"".len());
        let bytes = json.as_bytes();
        let mut i = start;
        while i < bytes.len() {
            // A float literal: a digit run containing '.' or an exponent,
            // not inside a string (heuristic: artifact keys never start
            // with a digit, so any digit run here is a number token).
            if bytes[i].is_ascii_digit() || (bytes[i] == b'-' && i + 1 < bytes.len()) {
                let tok_start = i;
                if bytes[i] == b'-' {
                    i += 1;
                }
                let mut is_float = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || bytes[i] == b'+'
                        || bytes[i] == b'-')
                {
                    if bytes[i] == b'.' || bytes[i] == b'e' || bytes[i] == b'E' {
                        is_float = true;
                    }
                    i += 1;
                }
                if is_float && i > tok_start {
                    let mut out = String::with_capacity(json.len() + 8);
                    out.push_str(&json[..tok_start]);
                    out.push_str("1e999");
                    out.push_str(&json[i..]);
                    return out;
                }
            } else {
                i += 1;
            }
        }
        json.to_string()
    }
}

/// 0 = unresolved, 1 = no faults, 2 = faults active.
static STATE: AtomicU8 = AtomicU8::new(0);
static PLAN: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);
static ENV_RESOLVED: OnceLock<()> = OnceLock::new();

const OFF: u8 = 1;
const ON: u8 = 2;

fn resolve_env() -> u8 {
    ENV_RESOLVED.get_or_init(|| {
        // Only adopt the environment if no programmatic plan raced us in.
        if STATE.load(Ordering::Acquire) == 0 {
            let plan = match std::env::var("ADSALA_FAULTS") {
                Ok(spec) if !spec.trim().is_empty() => match FaultPlan::parse(&spec) {
                    Ok(plan) if !plan.is_empty() => Some(Arc::new(plan)),
                    Ok(_) => None,
                    Err(err) => {
                        eprintln!("adsala: ignoring invalid ADSALA_FAULTS ({err})");
                        None
                    }
                },
                _ => None,
            };
            let state = if plan.is_some() { ON } else { OFF };
            *PLAN.write().unwrap_or_else(PoisonError::into_inner) = plan;
            STATE.store(state, Ordering::Release);
        }
    });
    STATE.load(Ordering::Acquire)
}

#[inline]
fn state() -> u8 {
    let s = STATE.load(Ordering::Relaxed);
    if s != 0 {
        s
    } else {
        resolve_env()
    }
}

/// `true` when a fault plan is active (env or programmatic).
#[inline]
pub fn active() -> bool {
    state() == ON
}

/// Install (or clear, with `None`) a fault plan programmatically,
/// overriding `ADSALA_FAULTS`. Returns the installed plan so tests can
/// read its fire counters. A plan that is replaced or cleared stops
/// stalling: its stalls in progress are released. Process-global:
/// serialize tests that use it.
pub fn set_plan(plan: Option<FaultPlan>) -> Option<Arc<FaultPlan>> {
    let plan = plan.map(Arc::new);
    let state = if plan.is_some() { ON } else { OFF };
    let mut slot = PLAN.write().unwrap_or_else(PoisonError::into_inner);
    let replaced = std::mem::replace(&mut *slot, plan.clone());
    STATE.store(state, Ordering::Release);
    if let Some(old) = replaced {
        old.release_stalls();
    }
    plan
}

/// The currently active plan, if any. One relaxed load when inactive.
#[inline]
pub fn current_plan() -> Option<Arc<FaultPlan>> {
    if !active() {
        return None;
    }
    PLAN.read().unwrap_or_else(PoisonError::into_inner).clone()
}

/// Hook at the entry of a kernel subproblem: panics if an active panic
/// fault matches, pool workers told apart from callers. Its two call
/// sites are the blocked loop nest's tile entry, which every worker of
/// every GEMM algorithm and every SYRK band passes with its tile's
/// `m×n×k`, and the top of GEMV's row range, which every GEMV worker
/// passes with its rows as an `m×1×n` product.
#[inline]
pub fn kernel_entry(isa: KernelIsa, m: usize, n: usize, k: usize) {
    if active() {
        if let Some(plan) = current_plan() {
            plan.maybe_panic(isa, m, n, k, crate::workspace::on_worker_thread());
        }
    }
}

/// Hook a pool worker calls before each job: sleeps if a stall fault
/// matches this worker index.
#[inline]
pub fn worker_job_entry(worker: usize) {
    if active() {
        if let Some(plan) = current_plan() {
            plan.maybe_stall(worker);
        }
    }
}

fn parse_num<T: std::str::FromStr>(directive: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad number `{v}` in fault directive `{directive}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan = FaultPlan::parse(
            "panic:m>=8:n>=8:k>=97:isa=simd:where=worker:count=2, stall:worker=1:ms=5:count=3, \
             artifact:nan",
        )
        .unwrap();
        assert_eq!(plan.panics.len(), 1);
        assert_eq!(plan.panics[0].min_k, 97);
        assert_eq!(plan.panics[0].isa, IsaFilter::SimdOnly);
        assert_eq!(plan.panics[0].context, ContextFilter::WorkerOnly);
        assert_eq!(plan.stalls.len(), 1);
        assert_eq!(plan.stalls[0].worker, Some(1));
        assert_eq!(plan.stalls[0].millis, 5);
        assert!(plan.corrupts_artifact());
        assert!(!plan.is_empty());
    }

    #[test]
    fn rejects_unknown_directives() {
        assert!(FaultPlan::parse("explode").is_err());
        assert!(FaultPlan::parse("panic:q>=3").is_err());
        assert!(FaultPlan::parse("stall:ms=abc").is_err());
        assert!(FaultPlan::parse("artifact:flip").is_err());
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert!(FaultPlan::parse(" , ,").unwrap().is_empty());
    }

    #[test]
    fn budget_limits_fires() {
        let plan = FaultPlan::parse("panic:count=2").unwrap();
        let fault = &plan.panics[0];
        assert!(consume(&fault.budget));
        assert!(consume(&fault.budget));
        assert!(!consume(&fault.budget), "budget of 2 fires exactly twice");
        let unlimited = FaultPlan::parse("panic").unwrap();
        for _ in 0..100 {
            assert!(consume(&unlimited.panics[0].budget));
        }
    }

    #[test]
    fn predicates_filter_by_shape_and_isa() {
        let plan = FaultPlan::parse("panic:k>=97:isa=simd").unwrap();
        let f = &plan.panics[0];
        assert!(!f.matches(KernelIsa::Scalar, 128, 128, 128, true), "scalar filtered out");
        assert!(!f.matches(KernelIsa::Avx2Fma, 128, 128, 96, true), "k below threshold");
        assert!(f.matches(KernelIsa::Avx2Fma, 1, 1, 97, false));
    }

    #[test]
    fn corrupts_first_model_float() {
        let json = r#"{"version":4,"models":{"gemm":{"threshold":0.75,"leaf":2}}}"#;
        let corrupt = FaultPlan::corrupt_artifact_json(json);
        assert!(corrupt.contains("1e999"), "{corrupt}");
        assert!(!corrupt.contains("0.75"));
        assert!(corrupt.contains("\"leaf\":2"), "integer after the float is preserved");
    }
}
