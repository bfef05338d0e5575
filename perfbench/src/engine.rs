//! Set-up and the measured loops: operand allocation, the warm-up pass,
//! closed-loop repetitions of a workload's trace, and the traced replay
//! of each request down the ladder of public entry points.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use crate::layers::{
    self, ExecutionPlan, GemmStats, Installed, OpRequest, Pool, Precision, Routine, Scalar, Served,
    Stack,
};
use crate::oracle;
use crate::spans::{Span, SpanBuf, ROOT};
use crate::workloads::{Rng, Spec, Workload};

/// One timed request in this many has its output checked (every distinct
/// request is also checked in warm-up).
const CHECK_EVERY: u64 = 64;

/// Input buffers of one element type, indexed by a spec's `a_buf`/`b_buf`.
#[derive(Default)]
pub struct Inputs<T> {
    a: Vec<Vec<T>>,
    b: Vec<Vec<T>>,
}

/// Output buffers of one element type, indexed by a spec's `c_buf`: the
/// output itself, and for `beta != 0` requests what it held before.
#[derive(Default)]
pub struct Outputs<T> {
    c: Vec<Vec<T>>,
    c0: Vec<Vec<T>>,
}

/// Inputs are only read, so all clients share one set — which is also what
/// lets the scheduler see the fusable requests' `B` as one allocation.
#[derive(Default)]
pub struct Shared {
    f32: Inputs<f32>,
    f64: Inputs<f64>,
}

/// Outputs are written, so every client owns its own.
#[derive(Default)]
pub struct Owned {
    f32: Outputs<f32>,
    f64: Outputs<f64>,
}

/// Picks an element type's buffers out of [`Shared`] and [`Owned`].
pub trait Element: Scalar {
    fn inputs(shared: &Shared) -> &Inputs<Self>;
    fn inputs_mut(shared: &mut Shared) -> &mut Inputs<Self>;
    fn outputs(owned: &Owned) -> &Outputs<Self>;
    fn outputs_mut(owned: &mut Owned) -> &mut Outputs<Self>;
}

macro_rules! element {
    ($t:ident) => {
        impl Element for $t {
            fn inputs(shared: &Shared) -> &Inputs<$t> {
                &shared.$t
            }
            fn inputs_mut(shared: &mut Shared) -> &mut Inputs<$t> {
                &mut shared.$t
            }
            fn outputs(owned: &Owned) -> &Outputs<$t> {
                &owned.$t
            }
            fn outputs_mut(owned: &mut Owned) -> &mut Outputs<$t> {
                &mut owned.$t
            }
        }
    };
}
element!(f32);
element!(f64);

/// Run `$call::<T>($args)` with `T` the element type of `$precision`.
macro_rules! by_precision {
    ($precision:expr, $call:ident ( $($arg:expr),* $(,)? )) => {
        match $precision {
            Precision::F32 => $call::<f32>($($arg),*),
            Precision::F64 => $call::<f64>($($arg),*),
        }
    };
}

fn grow<T: Scalar>(pool: &mut Vec<Vec<T>>, index: usize, len: usize) {
    if pool.len() <= index {
        pool.resize_with(index + 1, Vec::new);
    }
    if pool[index].len() < len {
        pool[index].resize(len, T::ZERO);
    }
}

fn allocate_inputs<T: Element>(shared: &mut Shared, spec: &Spec) {
    let inputs = T::inputs_mut(shared);
    grow(&mut inputs.a, spec.a_buf, spec.stored_len(spec.a_dims()));
    grow(&mut inputs.b, spec.b_buf, spec.stored_len(spec.b_dims()));
}

/// Allocate `spec`'s output and give it its first contents: what the
/// request accumulates into when `beta != 0`, else values the request
/// must overwrite.
fn prepare_output<T: Element>(owned: &mut Owned, spec: &Spec, rng: &mut Rng) {
    let outputs = T::outputs_mut(owned);
    let len = spec.stored_len(spec.c_dims());
    grow(&mut outputs.c, spec.c_buf, len);
    grow(&mut outputs.c0, spec.c_buf, 0);
    let (c, c0) = (&mut outputs.c[spec.c_buf], &mut outputs.c0[spec.c_buf]);
    if spec.beta != 0.0 {
        *c0 = (0..len).map(|_| T::from_f64(rng.unit())).collect();
        c.copy_from_slice(c0);
    } else if spec.routine == Routine::Gemm {
        // beta == 0 must overwrite, never read: start from NaN.
        c.fill(T::from_f64(f64::NAN));
    }
    // SYRK and GEMV start from zeros instead: the library computes
    // `0 * C` for them, so a NaN in C survives a beta == 0 call (a
    // finding this benchmark reports, README "Findings"; the workloads
    // must not fail on it).
}

fn fill_inputs<T: Element>(shared: &mut Shared, rng: &mut Rng) {
    let inputs = T::inputs_mut(shared);
    for buf in inputs.a.iter_mut().chain(&mut inputs.b) {
        buf.iter_mut().for_each(|v| *v = T::from_f64(rng.unit()));
    }
}

/// What the clients of a run share.
pub struct Env {
    pub workload: Workload,
    pub installed: Installed,
    pub stack: Stack,
    shared: Shared,
    /// Zero of the span clock.
    pub epoch: Instant,
}

/// Sums of what served requests reported back, for the per-workload layer
/// shares.
#[derive(Debug, Default, Clone, Copy)]
pub struct Aggregate {
    pub served: u64,
    pub fused: u64,
    pub nonblocked: u64,
    pub threads: u64,
    pub pack_ns: u64,
    pub kernel_ns: u64,
    pub sync_ns: u64,
    pub wall_ns: u64,
    /// `wall_ns × threads_used`: the thread time requests occupied.
    pub thread_ns: u64,
}

impl Aggregate {
    fn add(&mut self, s: &Served) {
        let e = &s.stats.exec;
        self.merge(&Aggregate {
            served: 1,
            fused: u64::from(s.fused),
            nonblocked: u64::from(s.nonblocked()),
            threads: u64::from(s.plan.threads),
            pack_ns: e.pack_ns,
            kernel_ns: e.kernel_ns,
            sync_ns: e.sync_ns,
            wall_ns: e.wall_ns,
            thread_ns: e.wall_ns * e.threads_used.max(1) as u64,
        });
    }

    pub fn merge(&mut self, o: &Aggregate) {
        self.served += o.served;
        self.fused += o.fused;
        self.nonblocked += o.nonblocked;
        self.threads += o.threads;
        self.pack_ns += o.pack_ns;
        self.kernel_ns += o.kernel_ns;
        self.sync_ns += o.sync_ns;
        self.wall_ns += o.wall_ns;
        self.thread_ns += o.thread_ns;
    }
}

/// One closed-loop client: its outputs and what it has measured so far.
pub struct Client {
    id: usize,
    owned: Owned,
    rng: Rng,
    pub latencies_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub agg: Aggregate,
    /// Top-level spans of traced repetitions (see
    /// [`Context::reserve_spans`]).
    pub spans: SpanBuf,
}

/// The two entry points a workload's clients call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    Submit,
    Run,
}

/// `spec`'s operands `(a, b, c)`, with `C` restored to its previous
/// contents if the request accumulates into it.
fn operands<'a, T: Element>(
    env: &'a Env,
    owned: &'a mut Owned,
    spec: &Spec,
) -> (&'a [T], &'a [T], &'a mut [T]) {
    let inputs = T::inputs(&env.shared);
    let outputs = T::outputs_mut(owned);
    let c = &mut outputs.c[spec.c_buf];
    if spec.beta != 0.0 {
        c.copy_from_slice(&outputs.c0[spec.c_buf]);
    }
    (&inputs.a[spec.a_buf], &inputs.b[spec.b_buf], c)
}

/// Build the request over `spec`'s operands and hand it to `f`.
fn with_request<T: Element, R>(
    env: &Env,
    owned: &mut Owned,
    spec: &Spec,
    f: impl FnOnce(&mut OpRequest<'_, T>) -> R,
) -> R {
    let (a, b, c) = operands::<T>(env, owned, spec);
    f(&mut layers::request(spec, a, b, c))
}

fn check_output<T: Element>(env: &Env, owned: &Owned, spec: &Spec, rng: &mut Rng) -> bool {
    let inputs = T::inputs(&env.shared);
    let outputs = T::outputs(owned);
    let c0 = &outputs.c0[spec.c_buf];
    oracle::check(
        spec,
        &inputs.a[spec.a_buf],
        &inputs.b[spec.b_buf],
        &outputs.c[spec.c_buf],
        (!c0.is_empty()).then_some(c0.as_slice()),
        rng,
    )
}

/// Overwrite the output with corrupted values: the oracle must then trip.
fn corrupt_output<T: Element>(owned: &mut Owned, spec: &Spec) {
    for v in &mut T::outputs_mut(owned).c[spec.c_buf] {
        *v = oracle::corrupted(spec, *v);
    }
}

/// Issue `spec` through `rung`, time it, and (every [`CHECK_EVERY`]th
/// time, or when `check`) verify its output. Returns the latency and what
/// was served; an `Err`, a shed request or a wrong output counts as failed.
fn issue<T: Element>(
    env: &Env,
    client: &mut Client,
    spec: &Spec,
    rung: Rung,
    check: bool,
) -> (u64, Option<Served>) {
    let (latency_ns, served) = with_request::<T, _>(env, &mut client.owned, spec, |req| {
        let start = Instant::now();
        let served = match rung {
            Rung::Submit => layers::submit(&env.stack, req),
            Rung::Run => layers::run(&env.stack, req),
        };
        (start.elapsed().as_nanos() as u64, served)
    });
    client.attempted += 1;
    let due = check || client.attempted.is_multiple_of(CHECK_EVERY);
    let ok = match &served {
        Err(_) => false,
        Ok(_) if due => check_output::<T>(env, &client.owned, spec, &mut client.rng),
        Ok(_) => true,
    };
    client.failed += u64::from(!ok);
    (latency_ns, served.ok())
}

/// Set-up: install, build the stack, allocate and fill operands, and run
/// one untimed pass in which every client serves and checks every distinct
/// request. The second value reports whether the oracle rejected a
/// deliberately corrupted output of this run.
pub fn set_up(workload: Workload, seed: u64, smoke: bool) -> (Context, bool) {
    let epoch = Instant::now();
    let installed = layers::install(smoke);
    let stack = Stack::new(installed.bundle.clone());
    let mut rng = Rng::new(seed ^ 0x6f70_6572_616e_6473);
    let mut shared = Shared::default();
    for spec in &workload.specs {
        by_precision!(spec.precision, allocate_inputs(&mut shared, spec));
    }
    fill_inputs::<f32>(&mut shared, &mut rng);
    fill_inputs::<f64>(&mut shared, &mut rng);
    let mut clients: Vec<Client> = (0..workload.traces.len())
        .map(|id| {
            let mut owned = Owned::default();
            for spec in &workload.specs {
                by_precision!(spec.precision, prepare_output(&mut owned, spec, &mut rng));
            }
            Client {
                id,
                owned,
                rng: Rng::new(seed ^ (0x636c_6965_6e74 + id as u64)),
                // Room for more repetitions than a run has time for, so
                // that the timed loop never reallocates.
                latencies_ns: Vec::with_capacity(workload.traces[id].len() * 256),
                attempted: 0,
                failed: 0,
                agg: Aggregate::default(),
                spans: SpanBuf::with_capacity(0),
            }
        })
        .collect();
    let env = Env { workload, installed, stack, shared, epoch };

    for client in &mut clients {
        for spec in &env.workload.specs {
            by_precision!(spec.precision, issue(&env, client, spec, Rung::Run, true));
        }
    }
    let (client, spec) = (&mut clients[0], &env.workload.specs[0]);
    by_precision!(spec.precision, corrupt_output(&mut client.owned, spec));
    let oracle_trips =
        !by_precision!(spec.precision, check_output(&env, &client.owned, spec, &mut client.rng));
    (Context { env, clients }, oracle_trips)
}

/// Everything a run holds after set-up.
pub struct Context {
    pub env: Env,
    pub clients: Vec<Client>,
}

impl Context {
    /// Closed-loop repetitions of the trace, for as long as `next` says:
    /// before each one it is given the wall-clock seconds of those done so
    /// far and returns whether to run another, and whether traced. In a
    /// repetition every client issues its requests back to back, each
    /// waiting for its own result; its wall clock runs from the moment all
    /// clients are released until the last one is done. Latencies and
    /// failures accumulate in the clients; a traced repetition also
    /// records a span around every top-level call and sums the reports
    /// into the client's [`Aggregate`].
    ///
    /// Client threads live for the whole call, as real clients outlive
    /// their requests: the thread-local packing arenas the library keeps
    /// for them stay warm from one repetition to the next.
    pub fn repetitions(&mut self, mut next: impl FnMut(&Env, &[f64]) -> Option<bool>) -> Vec<f64> {
        let env = &self.env;
        let mut walls = Vec::new();
        let mut begin = |walls: &[f64]| {
            let traced = next(env, walls)?;
            if env.workload.clear_cache_each_rep {
                env.stack.clear_cache();
            }
            Some(traced)
        };
        if let [client] = self.clients.as_mut_slice() {
            while let Some(traced) = begin(&walls) {
                let start = Instant::now();
                run_trace(env, client, traced);
                walls.push(start.elapsed().as_secs_f64());
            }
            return walls;
        }
        const STOP: u8 = 0;
        const PLAIN: u8 = 1;
        const TRACED: u8 = 2;
        // Written by this thread before the barrier that releases the
        // clients and read by them after it; the barrier orders the two.
        let command = AtomicU8::new(STOP);
        let barrier = Barrier::new(self.clients.len() + 1);
        std::thread::scope(|scope| {
            for client in &mut self.clients {
                let (command, barrier) = (&command, &barrier);
                scope.spawn(move || loop {
                    barrier.wait();
                    match command.load(Ordering::SeqCst) {
                        STOP => break,
                        mode => run_trace(env, client, mode == TRACED),
                    }
                    barrier.wait();
                });
            }
            while let Some(traced) = begin(&walls) {
                command.store(if traced { TRACED } else { PLAIN }, Ordering::SeqCst);
                barrier.wait();
                let start = Instant::now();
                barrier.wait();
                walls.push(start.elapsed().as_secs_f64());
            }
            command.store(STOP, Ordering::SeqCst);
            barrier.wait();
        });
        walls
    }

    /// Give every client room for the spans of `reps` traced repetitions.
    pub fn reserve_spans(&mut self, reps: usize) {
        for client in &mut self.clients {
            let per_rep = self.env.workload.traces[client.id].len();
            client.spans = SpanBuf::with_capacity(per_rep * reps);
        }
    }

    /// Replay the first [`LADDER_MAX_REQUESTS`] requests of client 0's
    /// trace (a shuffle, so a fair sample of it) down the ladder
    /// `scheduler.submit ⊃ service.run ⊃ {service.validate, select.decide,
    /// service.run_pinned ⊃ gemm.pooled ⊃ {pack, kernel, sync}}`, one rung
    /// per call, restoring `C` between calls when `beta != 0`.
    pub fn ladder(&mut self, spans: &mut SpanBuf) -> Vec<LadderRow> {
        let pool = layers::new_pool(layers::pool_workers());
        let (env, client) = (&self.env, &mut self.clients[0]);
        let trace =
            &env.workload.traces[0][..env.workload.traces[0].len().min(LADDER_MAX_REQUESTS)];
        // The raw rung runs on a pool of its own, whose packing arenas
        // start empty: let it grow them before anything is timed, as the
        // warm-up pass did for the service's pool.
        let mut warmed = vec![false; env.workload.specs.len()];
        for &index in trace {
            if !std::mem::replace(&mut warmed[index as usize], true) {
                let spec = &env.workload.specs[index as usize];
                by_precision!(spec.precision, warm_raw_rung(env, &pool, client, spec));
            }
        }
        trace
            .iter()
            .enumerate()
            .map(|(i, &index)| {
                let spec = &env.workload.specs[index as usize];
                by_precision!(spec.precision, replay(env, &pool, client, spec, i as u32, spans))
            })
            .collect()
    }
}

/// One client's pass over its trace.
fn run_trace(env: &Env, client: &mut Client, traced: bool) {
    let (rung, name) = if env.workload.via_scheduler {
        (Rung::Submit, "scheduler.submit")
    } else {
        (Rung::Run, "service.run")
    };
    let trace = &env.workload.traces[client.id];
    for (i, &index) in trace.iter().enumerate() {
        let spec = &env.workload.specs[index as usize];
        let start_ns = env.epoch.elapsed().as_nanos() as u64;
        let (latency_ns, served) =
            by_precision!(spec.precision, issue(env, client, spec, rung, false));
        client.latencies_ns.push(latency_ns);
        if traced {
            client.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + latency_ns,
                parent: ROOT,
                request: (client.id * trace.len() + i) as u32,
            });
            if let Some(served) = &served {
                client.agg.add(served);
            }
        }
    }
}

/// Durations of one request's replay down the ladder, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LadderRow {
    pub submit: u64,
    pub run: u64,
    pub validate: u64,
    pub decide: u64,
    pub pinned: u64,
    /// The raw pooled driver; `None` for routines without that rung.
    pub raw: Option<u64>,
}

/// Requests the ladder replays at most: it costs five calls a request, and
/// the medians it feeds settle long before this many.
pub const LADDER_MAX_REQUESTS: usize = 2048;
/// Spans one request's ladder replay records at most.
pub const LADDER_SPANS_PER_REQUEST: usize = 9;

fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_nanos() as u64, r)
}

/// The bottom rung: the pooled driver itself under `plan`, timed. `None`
/// stats for routines without this rung.
fn raw_rung<T: Element>(
    env: &Env,
    pool: &Pool,
    client: &mut Client,
    spec: &Spec,
    plan: &ExecutionPlan,
) -> (u64, Option<GemmStats>) {
    let (a, b, c) = operands::<T>(env, &mut client.owned, spec);
    timed(|| layers::raw_pooled(pool, spec, plan, a, b, c))
}

/// One untimed pass of the bottom rung under the service's own decision.
fn warm_raw_rung<T: Element>(env: &Env, pool: &Pool, client: &mut Client, spec: &Spec) {
    let plan = with_request::<T, _>(env, &mut client.owned, spec, |req| {
        layers::decide(&env.stack, req).plan
    });
    raw_rung::<T>(env, pool, client, spec, &plan);
}

fn replay<T: Element>(
    env: &Env,
    pool: &Pool,
    client: &mut Client,
    spec: &Spec,
    request: u32,
    spans: &mut SpanBuf,
) -> LadderRow {
    let stack = &env.stack;
    // On the cold workload every decision must stay a miss: `submit`
    // decides through the scheduler's own curve memo, `run` inserts.
    let forget = || {
        if env.workload.clear_cache_each_rep {
            stack.clear_cache();
        }
    };
    let root_start = env.epoch.elapsed().as_nanos() as u64;
    let (submit, _) = issue::<T>(env, client, spec, Rung::Submit, false);
    forget();
    let (run, _) = issue::<T>(env, client, spec, Rung::Run, false);
    forget();
    let (validate, decide, decision) = with_request::<T, _>(env, &mut client.owned, spec, |req| {
        let (validate, valid) = timed(|| layers::validate(req));
        std::hint::black_box(valid);
        let (decide, decision) = timed(|| layers::decide(stack, req));
        (validate, decide, decision)
    });
    let (pinned, _) = with_request::<T, _>(env, &mut client.owned, spec, |req| {
        timed(|| layers::run_pinned(stack, req, &decision.plan))
    });
    let (raw, raw_stats) = raw_rung::<T>(env, pool, client, spec, &decision.plan);

    // The rungs ran one after another; lay them out as nested spans from
    // the root's real start, children back to back inside their parent,
    // so that a layer's self time is its span minus its children.
    let mut push = |name, start_ns: u64, dur: u64, parent| {
        spans.push(Span { name, start_ns, end_ns: start_ns + dur, parent, request })
    };
    let s_submit = push("scheduler.submit", root_start, submit, ROOT);
    let s_run = push("service.run", root_start, run, s_submit);
    push("service.validate", root_start, validate, s_run);
    push("select.decide", root_start + validate, decide, s_run);
    let pinned_start = root_start + validate + decide;
    let s_pinned = push("service.run_pinned", pinned_start, pinned, s_run);
    if let Some(stats) = raw_stats {
        let s_raw = push("gemm.pooled", pinned_start, raw, s_pinned);
        // Pack and kernel time are summed over threads; a span is wall
        // time, so divide by the threads that shared the work.
        let threads = stats.threads_used.max(1) as u64;
        let (pack, kernel) = (stats.pack_ns / threads, stats.kernel_ns / threads);
        push("pack", pinned_start, pack, s_raw);
        push("kernel", pinned_start + pack, kernel, s_raw);
        push("sync", pinned_start + pack + kernel, stats.sync_ns, s_raw);
    }
    debug_assert_eq!(spec.routine == Routine::Gemm, raw_stats.is_some());
    LadderRow { submit, run, validate, decide, pinned, raw: raw_stats.map(|_| raw) }
}
