//! Quasi-random sampling of GEMM problem domains.
//!
//! The ADSALA installation workflow gathers training data by sampling GEMM
//! input dimensions `(m, k, n)` from the space of problems whose aggregate
//! memory footprint stays below a cap. The paper uses a *scrambled Halton
//! sequence* (Mascagni & Chi, 2004) so that samples are low-discrepancy —
//! evenly spread across the space — while digit scrambling breaks the
//! correlation between coordinates that plain Halton exhibits for
//! non-coprime or large bases.
//!
//! This crate provides:
//!
//! * [`halton`] — plain and scrambled Halton sequence generators,
//! * [`domain`] — mapping of unit-cube points to GEMM dimension triples
//!   under a memory cap, plus the pre-designed benchmark grids used by the
//!   paper's Figs. 13/14.

#![forbid(unsafe_code)]

pub mod domain;
pub mod halton;

pub use domain::{DomainSampler, GemmShape, MemoryCap, Precision, PredesignedGrid};
pub use halton::{HaltonSequence, ScrambledHalton};
