//! Cache-blocking parameters for the packed GEMM loop nest.
//!
//! The GotoBLAS/BLIS decomposition walks `C` in `NC`-wide column panels
//! (outer `jc` loop), `A·B` in `KC`-deep rank updates (`pc` loop) and `MC`-
//! tall row panels (`ic` loop); inside, the packed micro-panels are `MR×KC`
//! strips of `A` and `KC×NR` strips of `B`.
//!
//! Since the kernel-dispatch layer landed, the blocking is **derived at
//! runtime** from two inputs:
//!
//! * the dispatched micro-kernel's `MR×NR` register tile (one per ISA and
//!   precision, from 8×8 scalar to 12×32 AVX-512 `f32`: see
//!   [`crate::isa`]), which `MC`/`NC` must be multiples of and which sets
//!   `KC` through `MR`. Nothing here names an ISA: a new tile is blocked
//!   by the same three rules; and
//! * the host's cache hierarchy, probed once per process from
//!   `/sys/devices/system/cpu/.../cache` ([`CacheInfo::detect`]); when the
//!   probe is unavailable (non-Linux, sandboxed sysfs) the derivation
//!   falls back to the conservative per-precision constants the crate
//!   shipped before ([`BlockSizes::for_f32`]/[`BlockSizes::for_f64`]),
//!   snapped to the kernel's tile.
//!
//! The three rules, each a budget in one core's own caches:
//!
//! | block | budget | 48 KiB L1d, 2 MiB L2, AVX-512 (`f32` / `f64`) |
//! | --- | --- | --- |
//! | `KC` | the `MR×KC` `A` micro-panel in ½ of L1d, `KC` ∈ [64, 512] | 512 / 256 |
//! | `MC` | the `MC×KC` `A` block in ¼ of L2 | 252 / 252 |
//! | `NC` | the `KC×NC` packed `B` block in ¾ of L2 | 768 / 768 |
//!
//! They were set by measurement on a two-core AVX-512 host, not by the
//! textbook residency rule. The micro-kernel's rate is flat within a few
//! per cent from `KC` 128 to 512, so the `KC×NR` `B` strip, which streams
//! once per row strip, need not fit L1; what a short `KC` costs is passes
//! over `C` (11 at n = 2048 with `KC` 192). A deep `KC` and an `NC` that
//! keeps the packed `B` block in L2 took the two-thread 2048³ `f32`
//! product from 130 to 164 GF/s. `NC` is bounded by L2 rather than L3 so
//! a packed-`B` block is at most ¾ of L2 (1.5 MiB there, what the L3 rule
//! gave an `f32` n = 2048 product); an `NC` of 8192 was a few per cent
//! faster but raised the peak RSS of perfbench's `large_compute` from 187
//! to 195 MB.
//!
//! The packing-free rule ([`reads_in_place`]) is a budget of its own:
//! when a worker's `ms×k` rows of `A` and `k×ns` columns of `B` together
//! fit half of L2, every panel would be copied to be read a handful of
//! times from the cache it already sits in, so the loop nest reads `A` in
//! place, and `B` too unless the address range its re-reads sweep
//! outgrows L2 ([`reads_b_in_place`]; see [`crate::pack`]). Above the
//! budget — an `f32` n = 1024 square on one worker is 8 MiB — packing is
//! what keeps the kernel fed, and nothing changes. Like `KC`/`MC`/`NC` it
//! is a rule over the detected cache and the operands' shapes and
//! strides, not a plan axis or an option.
//!
//! Per-machine blocking is exactly the layer of optimisation the paper
//! delegates to the vendor library; deriving it here is what makes the
//! learned thread-selection model's training data reflect real hardware
//! behaviour instead of one hard-coded machine's.

use std::sync::OnceLock;

use crate::isa::{Kernel, KernelIsa};
use crate::Element;
use serde::{Deserialize, Serialize};

/// Blocking parameters, in elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockSizes {
    /// Row-panel height of `A` (L2 resident): `MC`.
    pub mc: usize,
    /// Rank-update depth (the `A` micro-panel L1 resident): `KC`.
    pub kc: usize,
    /// Column-panel width of `B` (L2 resident): `NC`.
    pub nc: usize,
    /// Micro-kernel rows: `MR`.
    pub mr: usize,
    /// Micro-kernel columns: `NR`.
    pub nr: usize,
}

impl BlockSizes {
    /// Fallback constants for `f32` operands at the scalar `MR×NR` tile —
    /// the pre-dispatch defaults, kept as the no-probe baseline.
    pub fn for_f32() -> Self {
        Self { mc: 128, kc: 384, nc: 4096, mr: MR, nr: NR }
    }

    /// Fallback constants for `f64` operands at the scalar tile.
    pub fn for_f64() -> Self {
        Self { mc: 96, kc: 256, nc: 4096, mr: MR, nr: NR }
    }

    /// Fallback constants by element size in bytes (4 → f32, otherwise
    /// f64), at the scalar tile.
    pub fn for_element_bytes(bytes: usize) -> Self {
        if bytes == 4 {
            Self::for_f32()
        } else {
            Self::for_f64()
        }
    }

    /// Derive blocking for a `mr×nr` register tile and an element of
    /// `bytes` bytes from the cache hierarchy (the module docs' rules):
    ///
    /// * `KC` sizes one `MR×KC` packed A micro-panel to at most half of
    ///   L1d, clamped to [64, 512] and a multiple of 4,
    /// * `MC` sizes one `MC×KC` packed A block to at most a quarter of L2,
    /// * `NC` sizes one `KC×NC` packed B block to at most three quarters
    ///   of L2,
    ///
    /// rounded down so `MC % MR == 0` and `NC % NR == 0` (never below one
    /// tile). With `cache == None` the per-precision fallback constants
    /// are used, snapped to the tile.
    pub fn for_tile(mr: usize, nr: usize, bytes: usize, cache: Option<&CacheInfo>) -> Self {
        let (mr, nr) = (mr.max(1), nr.max(1));
        let Some(cache) = cache else {
            return Self::for_element_bytes(bytes).with_tile(mr, nr);
        };
        // KC from L1d: half the cache for the A micro-panel the kernel
        // re-reads against every B strip, rounded to a multiple of 4 for
        // the unrolled depth loop (the clamp floor of 64 survives the
        // flooring, so kc ∈ [64, 512]).
        let kc = (cache.l1d / 2 / (mr * bytes)).clamp(64, 512) / 4 * 4;
        // MC from L2: a quarter for the resident A block.
        let mc_raw = (cache.l2 / 4 / (kc * bytes)).max(mr);
        let mc = (mc_raw / mr * mr).clamp(mr, 4096 / mr * mr);
        // NC from L2: three quarters for the packed B block.
        let nc_raw = (cache.l2 / 4 * 3 / (kc * bytes)).max(nr);
        let nc = (nc_raw / nr * nr).clamp(nr, 8192 / nr * nr);
        let derived = Self { mc, kc, nc, mr, nr };
        debug_assert!(derived.is_valid(), "derived blocking invalid: {derived:?}");
        derived
    }

    /// The process-wide blocking for element type `T`: the dispatched
    /// kernel's tile ([`Kernel::dispatched`]) plus the detected cache
    /// hierarchy, computed once and cached per precision.
    pub fn dispatched<T: Element>() -> Self {
        static F32: OnceLock<BlockSizes> = OnceLock::new();
        static F64: OnceLock<BlockSizes> = OnceLock::new();
        let derive = || {
            let kern = Kernel::<T>::dispatched();
            Self::for_tile(kern.mr, kern.nr, T::BYTES, CacheInfo::detected())
        };
        match T::BYTES {
            4 => *F32.get_or_init(derive),
            _ => *F64.get_or_init(derive),
        }
    }

    /// Blocking for element type `T` under an explicit ISA (tests and
    /// the `GemmCall` ISA override use this; serving paths use
    /// [`BlockSizes::dispatched`]).
    pub fn for_isa<T: Element>(isa: KernelIsa) -> Self {
        let kern = Kernel::<T>::for_isa(isa);
        Self::for_tile(kern.mr, kern.nr, T::BYTES, CacheInfo::detected())
    }

    /// The process-wide blocking by precision tag — the monomorphised
    /// [`BlockSizes::dispatched`] for callers (the plan-candidate grid)
    /// that only hold a [`crate::dispatch::Precision`].
    pub fn dispatched_for(precision: crate::dispatch::Precision) -> Self {
        match precision {
            crate::dispatch::Precision::F32 => Self::dispatched::<f32>(),
            crate::dispatch::Precision::F64 => Self::dispatched::<f64>(),
        }
    }

    /// Scale the cache blocks `MC`/`KC`/`NC` to `percent` of their
    /// current values (100 = unchanged) and re-snap to the register tile.
    /// This is the legacy single-knob blocking axis of the plan-candidate
    /// grid; it is exactly [`BlockSizes::scaled_axes`] with the same
    /// percent on every axis, which is what schema-v3 artefacts migrate
    /// to.
    pub fn scaled(self, percent: u32) -> Self {
        self.scaled_axes(percent, percent, percent)
    }

    /// Scale each cache-block axis independently (in percent of the
    /// current values; 100 = unchanged) and re-snap to the register tile.
    /// Degenerate inputs (0%) are snapped to 1% and the tile snap keeps
    /// `MC`/`NC` at whole tiles and `KC ≥ 1`, so any candidate triple
    /// yields a valid, cache-legal blocking — coarse deviations around the
    /// topology-derived baseline, not a free search over raw block sizes.
    pub fn scaled_axes(self, mc_percent: u32, kc_percent: u32, nc_percent: u32) -> Self {
        let scale = |v: usize, percent: u32| (v * percent.max(1) as usize / 100).max(1);
        Self {
            mc: scale(self.mc, mc_percent),
            kc: scale(self.kc, kc_percent),
            nc: scale(self.nc, nc_percent),
            ..self
        }
        .with_tile(self.mr, self.nr)
    }

    /// Re-target these cache blocks at a different register tile: sets
    /// `mr`/`nr` and snaps `mc`/`nc` down to tile multiples (never below
    /// one tile). Cache-derived `kc` is tile-independent and kept.
    pub fn with_tile(mut self, mr: usize, nr: usize) -> Self {
        let (mr, nr) = (mr.max(1), nr.max(1));
        self.mr = mr;
        self.nr = nr;
        self.mc = (self.mc / mr * mr).max(mr);
        self.nc = (self.nc / nr * nr).max(nr);
        self.kc = self.kc.max(1);
        self
    }

    /// Clamp the cache blocks to the problem size so tiny problems do not
    /// allocate oversized packing buffers.
    ///
    /// Rounding follows the blocking's own (dispatched) `mr`/`nr`, so the
    /// micro-kernel still sees whole tiles after clamping, and degenerate
    /// dimensions (`m`, `n` or `k` of 0) still produce valid, non-empty
    /// panel geometry — the drivers early-out before packing, but the
    /// workspace sizing math must never see a zero block. Degenerate
    /// *candidates* (a plan carrying `MC`/`KC`/`NC` of 0 or below one
    /// register tile, e.g. a hand-built `BlockSizes`) are snapped to the
    /// nearest legal geometry first instead of flowing zero blocks into
    /// the workspace math.
    pub fn clamped(self, m: usize, n: usize, k: usize) -> Self {
        // Snap hand-built or otherwise degenerate blocks (zero axes, a
        // zero tile, MC/NC not tile multiples) to legal geometry before
        // clamping; `with_tile` floors MC/NC at one whole tile and KC at 1.
        let mut snapped = self.with_tile(self.mr.max(1), self.nr.max(1));
        let round_up = |v: usize, q: usize| v.div_ceil(q.max(1)) * q.max(1);
        snapped.mc = snapped.mc.min(round_up(m.max(1), snapped.mr));
        snapped.nc = snapped.nc.min(round_up(n.max(1), snapped.nr));
        snapped.kc = snapped.kc.min(k.max(1));
        snapped
    }

    /// Validity check used by debug assertions and property tests.
    pub fn is_valid(&self) -> bool {
        self.mr > 0
            && self.nr > 0
            && self.kc > 0
            && self.mc >= self.mr
            && self.nc >= self.nr
            && self.mc.is_multiple_of(self.mr)
            && self.nc.is_multiple_of(self.nr)
    }
}

/// The packing-free rule: `true` when a worker's `ms×k` rows of `A` and
/// `k×ns` columns of `B` of element type `T` fit in half of L2, so the
/// blocked loop nest reads `A` in place instead of packing it, and `B`
/// too where [`reads_b_in_place`] allows (see [`crate::pack`]). Operands
/// that fit half of L2 stay in L2 across the loop nest's re-reads, with
/// the other half left to `C`, so a copy would only add traffic: reading
/// them in place made `small_repeat` and `cold_shapes`, whose shapes sit
/// under this budget, about 7 % faster. The budget is its own, fixed at
/// half of L2 whatever the `MC`/`KC`/`NC` rules of
/// [`BlockSizes::for_tile`] size their blocks to. From the detected cache,
/// like the blocks.
pub fn reads_in_place<T: Element>(ms: usize, ns: usize, k: usize) -> bool {
    ms.saturating_add(ns).saturating_mul(k).saturating_mul(T::BYTES) <= l2_bytes() / 2
}

/// The second half of the rule, for a `B` that [`reads_in_place`] lets
/// the kernel read in place: `true` while the address range its rows
/// sweep per rank update — `strips` row strips of `A`, each re-reading a
/// `kc`-row strip of `B` spread over `kc·ldb` elements — fits L2. A packed
/// strip is a few contiguous pages that stay in L1; a strip read in place
/// drags a row stride per depth step through L1, L2 and the TLB on every
/// re-read, so a `B` re-read often, or with wide rows, is cheaper copied
/// once (measured: at the same size, 128³ gains 5 % from reading `B` in
/// place and 256³ loses 7 %; a 107×388×108 `f64` with its 3 KiB rows
/// loses 10 %).
pub fn reads_b_in_place<T: Element>(strips: usize, kc: usize, ldb: usize) -> bool {
    strips.saturating_mul(kc).saturating_mul(ldb).saturating_mul(T::BYTES) <= l2_bytes()
}

/// L2 as detected; without a probe, the 384 KiB whose half the fallback
/// constants size `MC·KC` to (`MC·KC·bytes` = 192 KiB at either
/// precision).
fn l2_bytes() -> usize {
    match CacheInfo::detected() {
        Some(cache) => cache.l2,
        None => {
            let fallback = BlockSizes::for_f32();
            2 * fallback.mc * fallback.kc * 4
        }
    }
}

/// Scalar micro-kernel tile rows (the dispatch layer's always-available
/// reference tile; SIMD kernels carry their own `mr`/`nr`).
pub const MR: usize = 8;
/// Scalar micro-kernel tile columns.
pub const NR: usize = 8;

/// Data-cache sizes (bytes) of the core the process starts on, as probed
/// from the OS. Feeds the `MC`/`KC`/`NC` derivation in
/// [`BlockSizes::for_tile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheInfo {
    /// L1 data cache size.
    pub l1d: usize,
    /// L2 (unified) cache size.
    pub l2: usize,
    /// L3 (last-level) cache size, or `l2` on parts without an L3.
    /// Reported with the host's description; no block is sized from it.
    pub l3: usize,
}

impl CacheInfo {
    /// Probe the host's cache hierarchy. Linux: parses
    /// `/sys/devices/system/cpu/cpu0/cache/index*/{level,type,size}`.
    /// Returns `None` when the probe is unsupported or yields nonsense
    /// (callers then fall back to the shipped constants).
    pub fn detect() -> Option<CacheInfo> {
        Self::from_sysfs(std::path::Path::new("/sys/devices/system/cpu/cpu0/cache"))
    }

    /// The process-wide probe result, computed once.
    pub fn detected() -> Option<&'static CacheInfo> {
        static DETECTED: OnceLock<Option<CacheInfo>> = OnceLock::new();
        DETECTED.get_or_init(CacheInfo::detect).as_ref()
    }

    /// Parse a sysfs-style cache directory (`index*/level,type,size`).
    /// Split out from [`CacheInfo::detect`] so tests can exercise the
    /// parser against a fixture tree.
    pub fn from_sysfs(dir: &std::path::Path) -> Option<CacheInfo> {
        let mut l1d = 0usize;
        let mut l2 = 0usize;
        let mut l3 = 0usize;
        for entry in std::fs::read_dir(dir).ok()? {
            // One unreadable or malformed index directory must not abort
            // the probe — skip it and keep whatever the rest describe.
            let Some(path) = entry.ok().map(|e| e.path()) else {
                continue;
            };
            if !path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("index")) {
                continue;
            }
            let read = |leaf: &str| -> Option<String> {
                Some(std::fs::read_to_string(path.join(leaf)).ok()?.trim().to_string())
            };
            let Some(level) = read("level").and_then(|l| l.parse::<u32>().ok()) else {
                continue;
            };
            let Some(ty) = read("type") else {
                continue;
            };
            let Some(size) = read("size").and_then(|s| parse_cache_size(&s)) else {
                continue;
            };
            match (level, ty.as_str()) {
                (1, "Data") => l1d = l1d.max(size),
                (2, "Unified" | "Data") => l2 = l2.max(size),
                (3, "Unified" | "Data") => l3 = l3.max(size),
                _ => {}
            }
        }
        // Sanity: require L1d and L2; tolerate missing L3 (some parts
        // stop at L2) by reporting L2 in its place.
        if l1d == 0 || l2 == 0 || l1d > l2 {
            return None;
        }
        Some(CacheInfo { l1d, l2, l3: if l3 == 0 { l2 } else { l3 } })
    }
}

/// Parse a sysfs cache size string (`"48K"`, `"2048K"`, `"8M"`, plain
/// bytes) into bytes.
fn parse_cache_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' | b'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    let n: usize = digits.trim().parse().ok()?;
    (n > 0).then_some(n * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(BlockSizes::for_f32().is_valid());
        assert!(BlockSizes::for_f64().is_valid());
    }

    #[test]
    fn clamp_small_problem() {
        let b = BlockSizes::for_f32().clamped(5, 7, 3);
        assert!(b.is_valid());
        assert!(b.mc >= 5 && b.mc <= 8);
        assert!(b.nc >= 7 && b.nc <= 8);
        assert_eq!(b.kc, 3);
    }

    #[test]
    fn clamp_keeps_big_problem_defaults() {
        let d = BlockSizes::for_f32();
        let b = d.clamped(10_000, 10_000, 10_000);
        assert_eq!(b, d);
    }

    #[test]
    fn element_size_dispatch() {
        assert_eq!(BlockSizes::for_element_bytes(4), BlockSizes::for_f32());
        assert_eq!(BlockSizes::for_element_bytes(8), BlockSizes::for_f64());
    }

    #[test]
    fn dispatched_blocks_match_dispatched_kernel_tile() {
        let k32 = Kernel::<f32>::dispatched();
        let b32 = BlockSizes::dispatched::<f32>();
        assert_eq!((b32.mr, b32.nr), (k32.mr, k32.nr));
        assert!(b32.is_valid());
        let k64 = Kernel::<f64>::dispatched();
        let b64 = BlockSizes::dispatched::<f64>();
        assert_eq!((b64.mr, b64.nr), (k64.mr, k64.nr));
        assert!(b64.is_valid());
    }

    #[test]
    fn derivation_without_probe_snaps_constants_to_tile() {
        // A 6×16 tile against the f32 fallback constants: mc 128 → 126,
        // nc 4096 stays (multiple of 16), kc unchanged.
        let b = BlockSizes::for_tile(6, 16, 4, None);
        assert_eq!(b, BlockSizes { mc: 126, kc: 384, nc: 4096, mr: 6, nr: 16 });
        assert!(b.is_valid());
        // The scalar tile reproduces the constants exactly.
        assert_eq!(BlockSizes::for_tile(MR, NR, 4, None), BlockSizes::for_f32());
        assert_eq!(BlockSizes::for_tile(MR, NR, 8, None), BlockSizes::for_f64());
    }

    /// Cache hierarchies the derivation is pinned on: a small client
    /// part, a large-L1 server part, and the 48 KiB L1d / 2 MiB L2 host
    /// the rules were measured on (also what the sysfs fixture below
    /// describes).
    const FIXTURE_CACHES: [CacheInfo; 3] = [
        CacheInfo { l1d: 32 * 1024, l2: 256 * 1024, l3: 4 << 20 },
        CacheInfo { l1d: 64 * 1024, l2: 2 << 20, l3: 64 << 20 },
        CacheInfo { l1d: 48 * 1024, l2: 2 << 20, l3: 16 << 20 },
    ];

    #[test]
    fn derivation_scales_with_cache_sizes() {
        let [small, big, _] = FIXTURE_CACHES;
        for (mr, nr, bytes) in [(6usize, 16usize, 4usize), (6, 8, 8), (8, 8, 4)] {
            let bs = BlockSizes::for_tile(mr, nr, bytes, Some(&small));
            let bb = BlockSizes::for_tile(mr, nr, bytes, Some(&big));
            assert!(bs.is_valid(), "{bs:?}");
            assert!(bb.is_valid(), "{bb:?}");
            assert!(bb.kc >= bs.kc, "bigger L1 must not shrink KC: {bs:?} vs {bb:?}");
            assert!(bb.mc >= bs.mc, "bigger L2 must not shrink MC: {bs:?} vs {bb:?}");
            assert!(bb.nc >= bs.nc, "bigger L2 must not shrink NC: {bs:?} vs {bb:?}");
        }
    }

    /// The three budgets of the module docs hold for every register tile
    /// in the kernel table, at both precisions, on every fixture
    /// hierarchy — and the derivation gives the measured blocks on the
    /// host they were measured on.
    #[test]
    fn derived_blocks_keep_their_cache_budgets() {
        use crate::isa::{kernel_f32, kernel_f64};
        for cache in FIXTURE_CACHES {
            for isa in KernelIsa::ALL {
                let (k32, k64) = (kernel_f32(isa), kernel_f64(isa));
                for (mr, nr, bytes) in [(k32.mr, k32.nr, 4), (k64.mr, k64.nr, 8)] {
                    let b = BlockSizes::for_tile(mr, nr, bytes, Some(&cache));
                    let what = format!("{isa} {mr}x{nr} {bytes}-byte on {cache:?}: {b:?}");
                    assert!(b.is_valid(), "{what}");
                    assert_eq!((b.mr, b.nr), (mr, nr), "{what}");
                    assert!(mr * b.kc * bytes <= cache.l1d / 2, "A micro-panel over ½ L1d: {what}");
                    assert!(b.mc * b.kc * bytes <= cache.l2 / 4, "A block over ¼ L2: {what}");
                    assert!(b.kc * b.nc * bytes <= cache.l2 / 4 * 3, "B block over ¾ L2: {what}");
                }
            }
        }
        let host = FIXTURE_CACHES[2];
        let f32_blocks = BlockSizes::for_tile(12, 32, 4, Some(&host));
        assert_eq!(f32_blocks, BlockSizes { mc: 252, kc: 512, nc: 768, mr: 12, nr: 32 });
        let f64_blocks = BlockSizes::for_tile(12, 16, 8, Some(&host));
        assert_eq!(f64_blocks, BlockSizes { mc: 252, kc: 256, nc: 768, mr: 12, nr: 16 });
    }

    #[test]
    fn with_tile_snaps_and_never_undershoots() {
        let b = BlockSizes::for_f64().with_tile(6, 8);
        assert_eq!((b.mr, b.nr), (6, 8));
        assert!(b.is_valid());
        // A pathological tiny block still yields one whole tile.
        let t = BlockSizes { mc: 2, kc: 1, nc: 3, mr: 8, nr: 8 }.with_tile(6, 16);
        assert_eq!((t.mc, t.nc), (6, 16));
        assert!(t.is_valid());
    }

    #[test]
    fn clamped_rounds_to_runtime_tile_and_survives_degenerate_k() {
        // Regression (dispatch era): clamping must round to the
        // *dispatched* kernel's tile, not the scalar constants, and
        // k == 0 must still produce valid panel geometry.
        for (mr, nr) in [(6usize, 16usize), (6, 8), (8, 8)] {
            let blocks = BlockSizes::for_tile(mr, nr, 4, None);
            let c = blocks.clamped(mr + 1, nr + 1, 0);
            assert!(c.is_valid(), "degenerate k: {c:?}");
            assert_eq!(c.kc, 1, "k == 0 must clamp KC to one, not zero");
            assert_eq!(c.mc, 2 * mr, "mc must round up to the runtime tile: {c:?}");
            assert_eq!(c.nc, 2 * nr, "nc must round up to the runtime tile: {c:?}");
            // And the packing workspace derived from it is non-empty.
            let (a_len, b_len) = crate::workspace::pack_buffer_lens(&c);
            assert!(a_len > 0 && b_len > 0);
            // All-degenerate problems stay valid too.
            assert!(blocks.clamped(0, 0, 0).is_valid());
        }
    }

    #[test]
    fn scaled_blocks_stay_valid_and_identity_at_100() {
        for base in
            [BlockSizes::for_f32(), BlockSizes::for_f64(), BlockSizes::for_tile(6, 16, 4, None)]
        {
            assert_eq!(base.scaled(100), base, "100% must be the identity");
            for percent in [25, 50, 200, 400] {
                let s = base.scaled(percent);
                assert!(s.is_valid(), "{percent}% of {base:?} -> {s:?}");
                assert_eq!((s.mr, s.nr), (base.mr, base.nr), "tile must not change");
                if percent > 100 {
                    assert!(s.kc >= base.kc && s.mc >= base.mc && s.nc >= base.nc);
                } else {
                    assert!(s.kc <= base.kc && s.mc <= base.mc && s.nc <= base.nc);
                }
            }
            // Pathological scales still yield one whole tile.
            assert!(base.scaled(1).is_valid());
            assert!(base.scaled(0).is_valid());
        }
    }

    #[test]
    fn scaled_axes_uniform_matches_legacy_scaled() {
        // The v3→v4 migration maps block_percent=p to (p,p,p); the two
        // paths must stay bit-identical.
        for base in
            [BlockSizes::for_f32(), BlockSizes::for_f64(), BlockSizes::for_tile(6, 16, 4, None)]
        {
            for percent in [1u32, 25, 50, 100, 200, 400] {
                assert_eq!(base.scaled(percent), base.scaled_axes(percent, percent, percent));
            }
        }
    }

    #[test]
    fn scaled_axes_scales_independently() {
        let base = BlockSizes::for_f32();
        let s = base.scaled_axes(50, 100, 200);
        assert!(s.is_valid());
        assert!(s.mc <= base.mc && s.mc >= base.mc / 4, "{s:?}");
        assert_eq!(s.kc, base.kc, "kc at 100% must be untouched");
        assert_eq!(s.nc, base.nc * 2, "nc at 200% doubles (already tile-aligned)");
        // Degenerate percents still yield one whole tile.
        assert!(base.scaled_axes(0, 0, 0).is_valid());
    }

    #[test]
    fn clamped_snaps_degenerate_candidates() {
        // Regression (algorithm-axis era): a hand-built plan can carry
        // MC/KC/NC of 0 or below one register tile; `clamped` must snap
        // them to legal geometry instead of panicking downstream. Sits
        // alongside the degenerate-k pin above.
        for degenerate in [
            BlockSizes { mc: 0, kc: 0, nc: 0, mr: 8, nr: 8 },
            BlockSizes { mc: 3, kc: 1, nc: 2, mr: 6, nr: 16 },
            BlockSizes { mc: 0, kc: 384, nc: 0, mr: 6, nr: 8 },
            BlockSizes { mc: 0, kc: 0, nc: 0, mr: 0, nr: 0 },
        ] {
            let c = degenerate.clamped(64, 64, 64);
            assert!(c.is_valid(), "{degenerate:?} -> {c:?}");
            let (a_len, b_len) = crate::workspace::pack_buffer_lens(&c);
            assert!(a_len > 0 && b_len > 0, "{c:?}");
            // And the all-degenerate problem on a degenerate candidate.
            assert!(degenerate.clamped(0, 0, 0).is_valid());
        }
        // Valid blocks are untouched by the snap.
        let d = BlockSizes::for_f32();
        assert_eq!(d.clamped(10_000, 10_000, 10_000), d);
    }

    #[test]
    fn dispatched_for_matches_generic_dispatch() {
        use crate::dispatch::Precision;
        assert_eq!(BlockSizes::dispatched_for(Precision::F32), BlockSizes::dispatched::<f32>());
        assert_eq!(BlockSizes::dispatched_for(Precision::F64), BlockSizes::dispatched::<f64>());
    }

    #[test]
    fn cache_size_parsing() {
        assert_eq!(parse_cache_size("48K"), Some(48 * 1024));
        assert_eq!(parse_cache_size("2048K"), Some(2048 * 1024));
        assert_eq!(parse_cache_size("8M"), Some(8 << 20));
        assert_eq!(parse_cache_size("266240K"), Some(266240 * 1024));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("0K"), None);
        assert_eq!(parse_cache_size("fastK"), None);
    }

    #[test]
    fn sysfs_probe_on_linux_hosts() {
        // On Linux with sysfs the probe should produce an ordered
        // hierarchy; elsewhere `None` is the documented answer.
        if let Some(info) = CacheInfo::detect() {
            assert!(info.l1d >= 4 * 1024, "{info:?}");
            assert!(info.l1d <= info.l2, "{info:?}");
            assert!(info.l2 <= info.l3, "{info:?}");
        }
    }

    #[test]
    fn sysfs_parser_reads_fixture_tree() {
        let dir = std::env::temp_dir().join(format!("adsala-cache-fixture-{}", std::process::id()));
        let index = |name: &str, level: &str, ty: &str, size: &str| {
            let d = dir.join(name);
            std::fs::create_dir_all(&d).unwrap();
            std::fs::write(d.join("level"), level).unwrap();
            std::fs::write(d.join("type"), ty).unwrap();
            std::fs::write(d.join("size"), size).unwrap();
        };
        index("index0", "1", "Data", "48K\n");
        index("index1", "1", "Instruction", "32K\n");
        index("index2", "2", "Unified", "2048K\n");
        index("index3", "3", "Unified", "16M\n");
        let info = CacheInfo::from_sysfs(&dir).expect("fixture tree must parse");
        assert_eq!(info, FIXTURE_CACHES[2], "instruction caches must be ignored");
        std::fs::remove_dir_all(&dir).ok();
    }
}
