//! Analytic performance simulator of two-socket NUMA HPC nodes.
//!
//! The paper's experiments ran on exclusive nodes of two supercomputers —
//! Setonix (2× AMD Milan, 128 cores, 8 NUMA domains) and Gadi (2× Intel
//! Cascade Lake 8274, 48 cores, 4 NUMA domains) — timing vendor GEMM at
//! every thread count. Neither machine (nor MKL/BLIS) is available here,
//! so this crate substitutes a first-principles cost model with exactly
//! the wall-time anatomy the paper's VTune analysis identifies (§VI-D):
//!
//! * **spawn/sync** — thread-team wake-up plus one barrier per rank-update
//!   block, growing with `log₂ p` and with the number of sockets spanned;
//! * **data copy** — operand packing: duplicated panel copies across the
//!   thread grid, zero-padding of ragged tiles, a bandwidth term with NUMA
//!   interleave efficiency, and a contention floor that models allocator/
//!   page-fault serialisation when per-thread copies are tiny (the
//!   mechanism behind the paper's 81× outlier, Table VII);
//! * **kernel** — a roofline: compute capacity from active cores, SMT
//!   gain, frequency-vs-active-cores curves and fringe efficiency, capped
//!   by memory bandwidth for the `C`-update streaming traffic.
//!
//! Deterministic log-normal measurement noise (seeded per experiment)
//! reproduces run-to-run variance, so every paper figure regenerates
//! bit-identically.
//!
//! [`timer::GemmTimer`] abstracts "run GEMM, SYRK or GEMV at shape s on t
//! threads and time it": [`timer::SimTimer`] queries this model, while
//! [`timer::HostTimer`] runs the real kernel from `adsala-gemm` on the
//! host — the same interface the ADSALA installation workflow consumes.

#![forbid(unsafe_code)]

pub mod cache;
pub mod cost;
pub mod noise;
pub mod ops;
pub mod presets;
pub mod timer;
pub mod topology;
pub mod vendor;

pub use cache::HostCaches;
pub use cost::{CostBreakdown, MachineModel};
pub use presets::{gadi, setonix};
pub use timer::{GemmTimer, HostTimer, SimTimer};
pub use topology::{Affinity, NodeTopology, Placement};
pub use vendor::Vendor;
