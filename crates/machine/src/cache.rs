//! Host cache-hierarchy probe — the dynamic counterpart of the static
//! [`crate::topology::NodeTopology`] descriptions.
//!
//! The presets in [`crate::presets`] describe the *paper's* machines;
//! this module describes the machine the process is actually running on,
//! so the compute substrate can derive its cache blocking (`MC`/`KC`/`NC`)
//! from real L1d/L2 sizes instead of one hard-coded part's. The raw
//! sysfs read lives in `adsala_gemm::blocking` (the GEMM crate sits below
//! this one and needs the numbers at kernel-dispatch time); this module
//! re-exposes it at the machine-description layer together with the
//! derived blocking per precision — what the repro binary prints next to
//! its topology banner, and what experiments record alongside timings.

use adsala_gemm::blocking::{BlockSizes, CacheInfo};
use adsala_gemm::dispatch::Precision;
use adsala_gemm::isa::{Kernel, KernelIsa};

/// The probed cache hierarchy of the host, plus the kernel dispatch that
/// will consume it. `None` sizes mean the probe was unavailable and the
/// GEMM substrate is running on its shipped fallback constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCaches {
    /// Probed L1d/L2/L3 sizes in bytes, if sysfs exposed them.
    pub info: Option<CacheInfo>,
    /// The micro-kernel ISA the process dispatches to.
    pub kernel_isa: KernelIsa,
}

impl HostCaches {
    /// Probe the running host (cached per process below the hood: the
    /// sysfs walk happens at most once).
    pub fn probe() -> HostCaches {
        HostCaches { info: CacheInfo::detected().copied(), kernel_isa: KernelIsa::dispatched() }
    }

    /// The blocking the GEMM substrate derives for `precision` under
    /// *this description* — the struct's own ISA and cache sizes, so a
    /// `HostCaches` describing another machine (or a forced ISA) stays
    /// internally consistent. For the probed host this equals
    /// [`BlockSizes::dispatched`].
    pub fn blocks(&self, precision: Precision) -> BlockSizes {
        let (mr, nr) = self.tile(precision);
        BlockSizes::for_tile(mr, nr, precision.bytes(), self.info.as_ref())
    }

    /// This description's register tile for `precision` as `(mr, nr)`
    /// (the kernel [`Kernel::for_isa`] resolves for `self.kernel_isa`).
    pub fn tile(&self, precision: Precision) -> (usize, usize) {
        match precision {
            Precision::F32 => {
                let k = Kernel::<f32>::for_isa(self.kernel_isa);
                (k.mr, k.nr)
            }
            Precision::F64 => {
                let k = Kernel::<f64>::for_isa(self.kernel_isa);
                (k.mr, k.nr)
            }
        }
    }

    /// One-line summary for banners and `[service]` log lines, e.g.
    /// `"isa=avx2fma f32=6x16 f64=6x8 l1d=48KiB l2=2MiB l3=260MiB"`.
    pub fn summary(&self) -> String {
        let (m32, n32) = self.tile(Precision::F32);
        let (m64, n64) = self.tile(Precision::F64);
        let caches = match self.info {
            Some(c) => format!(
                "l1d={} l2={} l3={}",
                format_bytes(c.l1d),
                format_bytes(c.l2),
                format_bytes(c.l3)
            ),
            None => "caches=fallback-constants".to_string(),
        };
        format!("isa={} f32={m32}x{n32} f64={m64}x{n64} {caches}", self.kernel_isa)
    }
}

/// Human-readable power-of-two byte size (`48KiB`, `2MiB`, ...): the
/// largest unit the size reaches, integral when exact, one decimal
/// otherwise.
fn format_bytes(bytes: usize) -> String {
    const UNITS: [(usize, &str); 3] = [(1 << 30, "GiB"), (1 << 20, "MiB"), (1 << 10, "KiB")];
    for (scale, unit) in UNITS {
        if bytes >= scale {
            return if bytes.is_multiple_of(scale) {
                format!("{}{unit}", bytes / scale)
            } else {
                format!("{:.1}{unit}", bytes as f64 / scale as f64)
            };
        }
    }
    format!("{bytes}B")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_consistent_with_gemm_dispatch() {
        let host = HostCaches::probe();
        assert_eq!(host.kernel_isa, KernelIsa::dispatched());
        for p in [Precision::F32, Precision::F64] {
            let blocks = host.blocks(p);
            assert!(blocks.is_valid(), "{p}: {blocks:?}");
            assert_eq!((blocks.mr, blocks.nr), host.tile(p), "{p}");
            // For the probed host the description-level derivation must
            // agree with what the GEMM substrate actually dispatches.
            let dispatched = match p {
                Precision::F32 => BlockSizes::dispatched::<f32>(),
                Precision::F64 => BlockSizes::dispatched::<f64>(),
            };
            assert_eq!(blocks, dispatched, "{p}");
        }
    }

    #[test]
    fn probed_sizes_are_ordered_when_present() {
        if let Some(info) = HostCaches::probe().info {
            assert!(info.l1d > 0);
            assert!(info.l1d <= info.l2);
            assert!(info.l2 <= info.l3);
        }
    }

    #[test]
    fn summary_names_isa_and_tiles() {
        let host = HostCaches::probe();
        let s = host.summary();
        assert!(s.contains(&format!("isa={}", host.kernel_isa)), "{s}");
        let (m32, n32) = host.tile(Precision::F32);
        assert!(s.contains(&format!("f32={m32}x{n32}")), "{s}");
        if host.info.is_none() {
            assert!(s.contains("fallback"), "{s}");
        }
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(48 * 1024), "48KiB");
        assert_eq!(format_bytes(2 << 20), "2MiB");
        assert_eq!(format_bytes(512), "512B");
        assert_eq!(format_bytes(266240 * 1024), "260MiB");
        assert_eq!(format_bytes(1536 * 1024 * 1024), "1.5GiB");
        assert_eq!(format_bytes(1 << 30), "1GiB");
    }
}
