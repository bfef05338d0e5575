//! The four workloads: which distinct requests each one holds, how many
//! times a repetition issues them, and the seeded trace order.
//!
//! The *set* of requests of a workload is fixed (plain Halton points and
//! hand-listed shapes), so every seed does exactly the same amount of
//! work; the seed decides the order the requests arrive in and the operand
//! values. That keeps the spread across seeds down to scheduling and cache
//! effects instead of a different FLOP total per seed.

use std::collections::HashSet;

use crate::layers::{Precision, Routine};

/// One distinct request: routine, precision, dimensions, flags, and which
/// operand buffers it reads and writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub routine: Routine,
    pub precision: Precision,
    /// GEMM: `m×k · k×n`; SYRK: `m×k` in, `m×m` out (`n == m`); GEMV:
    /// `m×n` matrix (`k == 0`).
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub trans_a: bool,
    pub trans_b: bool,
    pub beta: f64,
    /// Extra elements on every leading dimension (0 = dense).
    pub ld_pad: usize,
    /// Indices into the per-precision operand pools (see `Operands`).
    pub a_buf: usize,
    pub b_buf: usize,
    pub c_buf: usize,
}

impl Spec {
    fn new(routine: Routine, precision: Precision, m: usize, n: usize, k: usize) -> Self {
        Self {
            routine,
            precision,
            m,
            n,
            k,
            trans_a: false,
            trans_b: false,
            beta: 0.0,
            ld_pad: 0,
            a_buf: 0,
            b_buf: 0,
            c_buf: 0,
        }
    }

    fn gemm(precision: Precision, m: usize, n: usize, k: usize) -> Self {
        Self::new(Routine::Gemm, precision, m, n, k)
    }

    /// Useful floating-point operations: `2mnk` GEMM, `m(m+1)k` SYRK
    /// (lower triangle incl. diagonal), `2mn` GEMV.
    pub fn flops(&self) -> u64 {
        let (m, n, k) = (self.m as u64, self.n as u64, self.k as u64);
        match self.routine {
            Routine::Gemm => 2 * m * n * k,
            Routine::Syrk => m * (m + 1) * k,
            Routine::Gemv => 2 * m * n,
        }
    }

    /// Stored `(rows, cols)` of the first input (`A`).
    pub fn a_dims(&self) -> (usize, usize) {
        match self.routine {
            Routine::Gemm if self.trans_a => (self.k, self.m),
            Routine::Gemm | Routine::Syrk => (self.m, self.k),
            Routine::Gemv => (self.m, self.n),
        }
    }

    /// Stored `(rows, cols)` of the second input (`B`, or `x` as a row).
    pub fn b_dims(&self) -> (usize, usize) {
        match self.routine {
            Routine::Gemm if self.trans_b => (self.n, self.k),
            Routine::Gemm => (self.k, self.n),
            Routine::Syrk => (0, 0),
            Routine::Gemv => (1, self.n),
        }
    }

    /// Stored `(rows, cols)` of the output (`C`, or `y` as a column).
    pub fn c_dims(&self) -> (usize, usize) {
        match self.routine {
            Routine::Gemm => (self.m, self.n),
            Routine::Syrk => (self.m, self.m),
            Routine::Gemv => (self.m, 1),
        }
    }

    /// Leading dimension of a stored operand with `cols` columns.
    pub fn ld(&self, cols: usize) -> usize {
        cols.max(1) + self.ld_pad
    }

    /// Elements a stored `rows×cols` operand occupies at this spec's `ld`.
    pub fn stored_len(&self, (rows, cols): (usize, usize)) -> usize {
        if rows == 0 || cols == 0 {
            0
        } else {
            (rows - 1) * self.ld(cols) + cols
        }
    }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    SmallRepeat,
    ColdShapes,
    LargeCompute,
    MixedClients,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::SmallRepeat,
        WorkloadKind::ColdShapes,
        WorkloadKind::LargeCompute,
        WorkloadKind::MixedClients,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::SmallRepeat => "small_repeat",
            WorkloadKind::ColdShapes => "cold_shapes",
            WorkloadKind::LargeCompute => "large_compute",
            WorkloadKind::MixedClients => "mixed_clients",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A generated workload: the distinct requests, and per client the order
/// one repetition issues them in.
pub struct Workload {
    pub specs: Vec<Spec>,
    /// `traces[client]` = indices into `specs`, one repetition's worth.
    pub traces: Vec<Vec<u32>>,
    /// Clients go through `ServiceScheduler::submit` (else
    /// `AdsalaService::run`).
    pub via_scheduler: bool,
    /// The decision cache is cleared before every repetition, so every
    /// request is a miss.
    pub clear_cache_each_rep: bool,
}

impl Workload {
    pub fn requests_per_rep(&self) -> usize {
        self.traces.iter().map(Vec::len).sum()
    }

    pub fn flops_per_rep(&self) -> u64 {
        self.traces.iter().flatten().map(|&i| self.specs[i as usize].flops()).sum()
    }

    /// FNV-1a over every spec and every trace entry: equal seeds must give
    /// equal hashes, different seeds different ones.
    pub fn trace_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for s in &self.specs {
            for v in [s.m, s.n, s.k, s.ld_pad, s.a_buf, s.b_buf, s.c_buf] {
                h.write(v as u64);
            }
            h.write(s.routine as u64);
            h.write(s.precision as u64);
            h.write(u64::from(s.trans_a) | u64::from(s.trans_b) << 1);
            h.write(s.beta.to_bits());
        }
        for t in &self.traces {
            h.write(t.len() as u64);
            for &i in t {
                h.write(u64::from(i));
            }
        }
        h.0
    }
}

/// FNV-1a, 64 bit, fed whole words.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// SplitMix64: small, seedable, good enough to shuffle and to fill
/// operands.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (n > 0); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Radical inverse of `index` in `base`: one coordinate of a Halton point.
fn radical_inverse(mut index: u64, base: u64) -> f64 {
    let mut inv = 0.0;
    let mut f = 1.0 / base as f64;
    while index > 0 {
        inv += f * (index % base) as f64;
        index /= base;
        f /= base as f64;
    }
    inv
}

/// `count` distinct `(m, n, k)` triples with every dimension in
/// `[lo, hi]`, from the Halton sequence in bases 2/3/5 starting at
/// `first` (collisions after rounding are skipped).
fn halton_dims(count: usize, first: u64, lo: usize, hi: usize) -> Vec<(usize, usize, usize)> {
    let span = (hi - lo + 1) as f64;
    let map = |u: f64| lo + ((u * span) as usize).min(hi - lo);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut index = first;
    while out.len() < count {
        let dims = (
            map(radical_inverse(index, 2)),
            map(radical_inverse(index, 3)),
            map(radical_inverse(index, 5)),
        );
        if seen.insert(dims) {
            out.push(dims);
        }
        index += 1;
    }
    out
}

/// `copies` of every index in `specs`, shuffled by `rng`: each distinct
/// request appears exactly `copies` times whatever the seed.
fn balanced_trace(specs: std::ops::Range<usize>, copies: usize, rng: &mut Rng) -> Vec<u32> {
    let mut t: Vec<u32> = specs.flat_map(|i| (0..copies).map(move |_| i as u32)).collect();
    rng.shuffle(&mut t);
    t
}

/// Give every spec its own `A`, `B` and `C` buffers.
fn own_buffers(specs: &mut [Spec]) {
    let mut next = [0usize; 2];
    for s in specs {
        let slot = &mut next[s.precision as usize];
        (s.a_buf, s.b_buf, s.c_buf) = (*slot, *slot, *slot);
        *slot += 1;
    }
}

/// ResNet-50 im2col GEMMs (`examples/resnet_conv.rs`) cut to `m/16` row
/// tiles, as `(m, k, n)`.
const RESNET_TILES: [(usize, usize, usize); 8] = [
    (196, 147, 64),
    (196, 64, 64),
    (196, 576, 64),
    (49, 128, 128),
    (49, 1152, 128),
    (12, 2304, 64),
    (3, 4608, 32),
    (4, 3000, 64),
];

/// Clients of `mixed_clients`. More than the pool has workers on this
/// host, because the scheduler only fuses requests that wait in its queue
/// together, and with one client per worker none ever waits.
pub const MIXED_CLIENTS: usize = 4;

/// Where the fusable set sits among the `mixed_clients` specs.
const FUSABLE: std::ops::Range<usize> = 34..45;

/// Build `kind` for `seed`. `smoke` shrinks the repetition to a few
/// requests (unit tests, `--smoke`).
pub fn build(kind: WorkloadKind, seed: u64, smoke: bool) -> Workload {
    let mut rng = Rng::new(seed ^ 0x7065_7266_6265_6e63);
    match kind {
        WorkloadKind::SmallRepeat => {
            let mut specs: Vec<Spec> =
                RESNET_TILES.iter().map(|&(m, k, n)| Spec::gemm(Precision::F32, m, n, k)).collect();
            // 40 Halton shapes in [16, 256]; every eighth is f64, which
            // makes 5 of 48 requests (about a tenth) double precision.
            for (i, (m, n, k)) in halton_dims(40, 1, 16, 256).into_iter().enumerate() {
                let precision = if i % 8 == 3 { Precision::F64 } else { Precision::F32 };
                specs.push(Spec::gemm(precision, m, n, k));
            }
            own_buffers(&mut specs);
            let copies = if smoke { 2 } else { 100 };
            let traces = vec![balanced_trace(0..specs.len(), copies, &mut rng)];
            Workload { specs, traces, via_scheduler: false, clear_cache_each_rep: false }
        }
        WorkloadKind::ColdShapes => {
            // More than twice DEFAULT_CACHE_CAPACITY (4096) distinct
            // shapes, so the second half of a repetition inserts into a
            // full cache. All requests share one maximal operand set: it
            // is the decision cache that is cold here, not the data.
            let count = if smoke { 96 } else { 8448 };
            let specs: Vec<Spec> = halton_dims(count, 1, 8, 160)
                .into_iter()
                .map(|(m, n, k)| Spec::gemm(Precision::F32, m, n, k))
                .collect();
            let traces = vec![balanced_trace(0..specs.len(), 1, &mut rng)];
            Workload { specs, traces, via_scheduler: false, clear_cache_each_rep: true }
        }
        WorkloadKind::LargeCompute => {
            use Precision::{F32, F64};
            let mut specs = if smoke {
                vec![
                    Spec::gemm(F32, 192, 192, 192),
                    Spec::gemm(F64, 128, 128, 128),
                    Spec::new(Routine::Syrk, F32, 128, 128, 64),
                    Spec { trans_a: true, ..Spec::gemm(F32, 128, 128, 128) },
                    Spec { beta: 1.0, ..Spec::gemm(F32, 128, 128, 128) },
                ]
            } else {
                vec![
                    Spec::gemm(F32, 768, 768, 768),
                    Spec::gemm(F32, 1024, 1024, 1024),
                    Spec::gemm(F32, 1536, 1536, 1536),
                    Spec::gemm(F32, 2048, 2048, 2048),
                    Spec::gemm(F64, 512, 512, 512),
                    Spec::gemm(F64, 1024, 1024, 1024),
                    Spec::new(Routine::Syrk, F32, 1024, 1024, 512),
                    Spec::gemm(F32, 4096, 64, 1024),
                    Spec { trans_a: true, ..Spec::gemm(F32, 1024, 1024, 1024) },
                    Spec { beta: 1.0, ..Spec::gemm(F32, 1024, 1024, 1024) },
                ]
            };
            own_buffers(&mut specs);
            let traces = vec![balanced_trace(0..specs.len(), 1, &mut rng)];
            Workload { specs, traces, via_scheduler: false, clear_cache_each_rep: false }
        }
        WorkloadKind::MixedClients => {
            // 64 distinct requests: 45 GEMM (11 of them one shape sharing
            // one stored B, so the scheduler may fuse them), 10 SYRK,
            // 9 GEMV; every fourth is f64; transposes, padded leading
            // dimensions and beta != 0 are spread over the GEMMs.
            let hi = if smoke { 96 } else { 512 };
            let dims = halton_dims(64, 1, 32, hi);
            let mut specs = Vec::with_capacity(64);
            for (i, &(m, n, k)) in dims.iter().enumerate() {
                let precision = if i % 4 == 3 { Precision::F64 } else { Precision::F32 };
                let spec = match i {
                    // Large enough that the model widens a lone one to two
                    // threads, which is what lets a fused batch form
                    // behind it (see the README on fusion).
                    i if FUSABLE.contains(&i) => {
                        Spec::gemm(Precision::F32, 512.min(hi), 384.min(hi), 512.min(hi))
                    }
                    0..=44 => Spec {
                        trans_a: i % 5 == 1,
                        trans_b: i % 7 == 2,
                        beta: if i % 6 == 4 { 0.5 } else { 0.0 },
                        ld_pad: if i % 9 == 5 { 8 } else { 0 },
                        ..Spec::gemm(precision, m, n, k)
                    },
                    45..=54 => Spec {
                        beta: if i % 2 == 0 { 0.0 } else { 1.0 },
                        ..Spec::new(Routine::Syrk, precision, m, m, k)
                    },
                    _ => Spec::new(Routine::Gemv, precision, m, n, 0),
                };
                specs.push(spec);
            }
            own_buffers(&mut specs);
            let shared_b = specs[FUSABLE.start].b_buf;
            for s in &mut specs[FUSABLE] {
                s.b_buf = shared_b;
            }
            // Every client opens a repetition with the fusable set (clients
            // working through one shared-weight layer together), then the
            // rest in its own order.
            let copies = if smoke { 1 } else { 4 };
            let traces = (0..MIXED_CLIENTS)
                .map(|_| {
                    let mut trace = balanced_trace(FUSABLE, copies, &mut rng);
                    trace.extend(balanced_trace(0..FUSABLE.start, copies, &mut rng));
                    trace.extend(balanced_trace(FUSABLE.end..specs.len(), copies, &mut rng));
                    trace
                })
                .collect();
            Workload { specs, traces, via_scheduler: true, clear_cache_each_rep: false }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace_different_seed_different_trace() {
        for kind in WorkloadKind::ALL {
            let a = build(kind, 7, true);
            let b = build(kind, 7, true);
            let c = build(kind, 8, true);
            assert_eq!(a.trace_hash(), b.trace_hash(), "{}", kind.name());
            assert_ne!(a.trace_hash(), c.trace_hash(), "{}", kind.name());
            // The seed reorders; it never changes the amount of work.
            assert_eq!(a.flops_per_rep(), c.flops_per_rep(), "{}", kind.name());
            assert_eq!(a.requests_per_rep(), c.requests_per_rep(), "{}", kind.name());
        }
    }

    #[test]
    fn flop_counts_per_routine() {
        let gemm = Spec::gemm(Precision::F32, 3, 5, 7);
        assert_eq!(gemm.flops(), 2 * 3 * 5 * 7);
        let syrk = Spec::new(Routine::Syrk, Precision::F64, 4, 4, 9);
        assert_eq!(syrk.flops(), 4 * 5 * 9);
        let gemv = Spec::new(Routine::Gemv, Precision::F32, 6, 11, 0);
        assert_eq!(gemv.flops(), 2 * 6 * 11);
    }

    #[test]
    fn workload_shapes_match_their_description() {
        let small = build(WorkloadKind::SmallRepeat, 1, false);
        assert_eq!(small.specs.len(), 48);
        assert_eq!(small.specs.iter().filter(|s| s.precision == Precision::F64).count(), 5);
        assert_eq!(small.requests_per_rep(), 48 * 100);

        let cold = build(WorkloadKind::ColdShapes, 1, false);
        assert!(cold.requests_per_rep() > 2 * 4096);
        let distinct: HashSet<_> = cold.specs.iter().map(|s| (s.m, s.n, s.k)).collect();
        assert_eq!(distinct.len(), cold.specs.len(), "every cold request is a new shape");
        assert!(cold.specs.iter().all(|s| (8..=160).contains(&s.m.min(s.n).min(s.k))));

        let mixed = build(WorkloadKind::MixedClients, 1, false);
        assert_eq!(mixed.traces.len(), MIXED_CLIENTS);
        let count = |r| mixed.specs.iter().filter(|s| s.routine == r).count();
        assert_eq!((count(Routine::Gemm), count(Routine::Syrk), count(Routine::Gemv)), (45, 10, 9));
        let fusable = &mixed.specs[FUSABLE];
        assert!(fusable.iter().all(|s| s.b_buf == fusable[0].b_buf && s.m == fusable[0].m));
        assert!(fusable.windows(2).all(|w| w[0].a_buf != w[1].a_buf));
    }

    #[test]
    fn halton_points_are_distinct_and_in_range() {
        let pts = halton_dims(500, 1, 8, 160);
        let set: HashSet<_> = pts.iter().copied().collect();
        assert_eq!(set.len(), 500);
        assert!(pts.iter().all(|&(m, n, k)| [m, n, k].iter().all(|d| (8..=160).contains(d))));
    }
}
