//! Property-based invariants of the machine simulator: costs are finite,
//! positive, deterministic, and respond to shape/thread changes the way a
//! physical machine must.

use adsala_repro::adsala_gemm::plan::PlanPoint;
use adsala_repro::adsala_machine::{Affinity, MachineModel, Placement};
use adsala_repro::adsala_sampling::GemmShape;
use proptest::prelude::*;

fn machines() -> [MachineModel; 2] {
    [MachineModel::setonix(), MachineModel::gadi()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn expected_cost_is_finite_positive_everywhere(
        m in 1u64..50_000,
        k in 1u64..50_000,
        n in 1u64..50_000,
        p in 1u32..300,
    ) {
        let shape = GemmShape::new(m, k, n);
        for model in machines() {
            let c = model.expected(shape, p);
            prop_assert!(c.total().is_finite(), "{shape:?} p={p}");
            prop_assert!(c.total() > 0.0);
            prop_assert!(c.kernel_s > 0.0 && c.copy_s > 0.0);
            prop_assert!(c.sync_s >= 0.0 && c.spawn_s >= 0.0);
        }
    }

    #[test]
    fn more_flops_never_run_faster_at_fixed_threads(
        m in 1u64..5_000,
        k in 1u64..5_000,
        n in 1u64..5_000,
        p in 1u32..97,
    ) {
        // Doubling k strictly increases work and every cost component
        // derived from it.
        let small = GemmShape::new(m, k, n);
        let big = GemmShape::new(m, k * 2, n);
        for model in machines() {
            prop_assert!(
                model.expected(big, p).total() > model.expected(small, p).total() * 0.999,
                "bigger problem ran faster: {small:?} vs {big:?} at p={p}"
            );
        }
    }

    #[test]
    fn measurements_are_deterministic_and_near_expected(
        m in 1u64..10_000,
        k in 1u64..10_000,
        n in 1u64..10_000,
        p in 1u32..257,
        rep in 0u32..20,
    ) {
        let shape = GemmShape::new(m, k, n);
        for model in machines() {
            let point = PlanPoint::threads_only(p);
            let a = model.measure_point(shape, &point, rep);
            let b = model.measure_point(shape, &point, rep);
            prop_assert_eq!(a, b, "noise not deterministic");
            let expected = model.expected(shape, p).total();
            // Log-normal σ = 0.12 plus rare heavy-tail spikes (up to a
            // handful of multiples of the mean).
            prop_assert!(
                a > expected * 0.5 && a < expected * 30.0,
                "noise factor out of range: {} vs {}",
                a,
                expected
            );
        }
    }

    #[test]
    fn placement_invariants(p in 1u32..400) {
        for model in machines() {
            let topo = &model.topology;
            for affinity in [Affinity::CoreBased, Affinity::ThreadBased] {
                let pl = Placement::place(topo, p, affinity);
                prop_assert!(pl.threads >= 1 && pl.threads <= topo.total_threads());
                prop_assert!(pl.cores_used >= 1 && pl.cores_used <= topo.total_cores());
                prop_assert!(pl.sockets_used >= 1 && pl.sockets_used <= topo.sockets);
                prop_assert!(pl.l3_groups_used >= 1);
                prop_assert!(pl.numa_used >= 1);
                prop_assert!(pl.smt_occupancy >= 1.0 - 1e-12);
                prop_assert!(pl.smt_occupancy <= topo.smt as f64 + 1e-12);
                // Can't use more cores than threads.
                prop_assert!(pl.cores_used <= pl.threads);
            }
        }
    }

    #[test]
    fn single_thread_beats_max_threads_for_tiny_problems(
        d in 8u64..48,
    ) {
        let shape = GemmShape::new(d, d, d);
        for model in machines() {
            let serial = model.expected(shape, 1).total();
            let maxed = model.expected(shape, model.max_threads()).total();
            prop_assert!(
                serial < maxed,
                "{}: {d}^3 faster at max threads ({maxed}) than serial ({serial})",
                model.topology.name
            );
        }
    }

    #[test]
    fn optimal_threads_is_argmin(
        m in 16u64..2_000,
        k in 16u64..2_000,
        n in 16u64..2_000,
    ) {
        // Spot-check the argmin against a stride of candidates.
        let shape = GemmShape::new(m, k, n);
        let model = MachineModel::gadi();
        let opt = model.optimal_threads(shape);
        let best = model.expected(shape, opt).total();
        for p in (1..=96).step_by(7) {
            prop_assert!(
                best <= model.expected(shape, p).total() + 1e-15,
                "p={p} beats the reported optimum {opt}"
            );
        }
    }
}
