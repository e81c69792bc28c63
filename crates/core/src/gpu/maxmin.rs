//! Baseline GPU coloring: iterative max/min independent-set selection.
//!
//! This is the algorithm of the authors' Pannotia `color` benchmark. Every
//! vertex holds a unique random priority. Each iteration launches:
//!
//! 1. an **assign** kernel — every uncolored vertex scans its uncolored
//!    neighbors' priorities; a local maximum becomes a candidate for color
//!    `2i`, a local minimum for `2i + 1` (two independent sets per round);
//! 2. a **commit** kernel (shared driver) — candidates write their color
//!    and bump a device counter the host polls for termination.
//!
//! The assign kernel is where the paper's load imbalance lives: a lane's
//! work is proportional to its vertex's degree, so one hub vertex stalls
//! its entire wavefront. The optimizations in [`GpuOptions`] attack exactly
//! that kernel: work stealing re-balances chunks across CUs, frontier
//! compaction stops re-scanning colored vertices, and the hybrid path scans
//! high-degree vertices with a whole cooperative workgroup.

use gc_gpusim::{Buffer, Gpu, LaneCtx, Launch, ScheduleMode};
use gc_graph::CsrGraph;

use crate::gpu::driver::{self, IterState, IterationKernels};
use crate::gpu::GpuOptions;
use crate::report::RunReport;
use crate::verify::UNCOLORED;

/// LDS layout of the cooperative (workgroup-per-vertex) assign kernel.
mod lds {
    pub const ACTIVE: usize = 0;
    pub const VTX: usize = 1;
    pub const PRIO: usize = 2;
    pub const START: usize = 3;
    pub const END: usize = 4;
    pub const NOT_MAX: usize = 5;
    pub const NOT_MIN: usize = 6;
    pub const WORDS: usize = 7;
}

/// Color `g` with the max/min algorithm under the given options.
///
/// Panics if the device fails to make progress (impossible with the unique
/// priority permutation unless `opts.max_iterations` is exceeded).
pub fn color(g: &CsrGraph, opts: &GpuOptions) -> RunReport {
    let mut gpu = Gpu::new(opts.device.clone());
    color_on(&mut gpu, g, opts)
}

/// Like [`color`], but on a caller-supplied device — the entry point used by
/// profiling tools that attach [`gc_gpusim::ProfileSink`] observers before
/// the run. Resets device statistics first, so the report covers exactly
/// this run.
pub fn color_on(gpu: &mut Gpu, g: &CsrGraph, opts: &GpuOptions) -> RunReport {
    driver::color_on(gpu, g, opts, "gpu-maxmin", &MaxMinKernels)
}

struct MaxMinKernels;

impl IterationKernels for MaxMinKernels {
    fn assign_tpv(
        &self,
        gpu: &mut Gpu,
        st: &IterState,
        opts: &GpuOptions,
        iter: u32,
        list: Option<Buffer<u32>>,
        items: usize,
    ) {
        let dev = st.dev;
        let cand = st.cand;
        let kernel = move |ctx: &mut LaneCtx| {
            let idx = ctx.item();
            let v = match list {
                Some(l) => ctx.read(l, idx) as usize,
                None => idx,
            };
            let c = ctx.read(dev.colors, v);
            ctx.alu(1);
            if c != UNCOLORED {
                return;
            }
            let start = ctx.read(dev.row_ptr, v) as usize;
            let end = ctx.read(dev.row_ptr, v + 1) as usize;
            let my_p = ctx.read(dev.priority, v);
            ctx.alu(2);
            let mut is_max = true;
            let mut is_min = true;
            for j in start..end {
                let u = ctx.read(dev.col_idx, j) as usize;
                let cu = ctx.read(dev.colors, u);
                ctx.alu(1);
                if cu == UNCOLORED {
                    let pu = ctx.read(dev.priority, u);
                    ctx.alu(2);
                    if pu > my_p {
                        is_max = false;
                    } else {
                        is_min = false;
                    }
                    if !is_max && !is_min {
                        break;
                    }
                }
            }
            let value = if is_max {
                2 * iter
            } else if is_min {
                2 * iter + 1
            } else {
                UNCOLORED
            };
            ctx.write(cand, v, value);
        };
        let mut launch = Launch::threads("maxmin-assign", items)
            .wg_size(opts.wg_size)
            .independent_groups();
        launch.mode = opts.schedule.to_mode();
        gpu.launch(&kernel, launch);
    }

    /// The whole group strides the adjacency list — coalesced, and immune
    /// to single-lane starvation.
    fn assign_wgv(
        &self,
        gpu: &mut Gpu,
        st: &IterState,
        opts: &GpuOptions,
        iter: u32,
        list: Buffer<u32>,
        items: usize,
    ) {
        let dev = st.dev;
        let cand = st.cand;
        let kernel = move |ctx: &mut LaneCtx| {
            if ctx.local_id() == 0 {
                let idx = ctx.item();
                let v = ctx.read(list, idx) as usize;
                let c = ctx.read(dev.colors, v);
                ctx.alu(1);
                ctx.lds_write(lds::ACTIVE, u32::from(c == UNCOLORED));
                ctx.lds_write(lds::VTX, v as u32);
                if c == UNCOLORED {
                    let prio = ctx.read(dev.priority, v);
                    let start = ctx.read(dev.row_ptr, v);
                    let end = ctx.read(dev.row_ptr, v + 1);
                    ctx.lds_write(lds::PRIO, prio);
                    ctx.lds_write(lds::START, start);
                    ctx.lds_write(lds::END, end);
                    ctx.lds_write(lds::NOT_MAX, 0);
                    ctx.lds_write(lds::NOT_MIN, 0);
                }
            }
            ctx.barrier();
            if ctx.lds_read(lds::ACTIVE) == 0 {
                return;
            }
            let my_p = ctx.lds_read(lds::PRIO);
            let start = ctx.lds_read(lds::START) as usize;
            let end = ctx.lds_read(lds::END) as usize;
            let stride = ctx.group_size();
            let mut j = start + ctx.local_id();
            while j < end {
                let u = ctx.read(dev.col_idx, j) as usize;
                let cu = ctx.read(dev.colors, u);
                ctx.alu(1);
                if cu == UNCOLORED {
                    let pu = ctx.read(dev.priority, u);
                    ctx.alu(2);
                    if pu > my_p {
                        ctx.lds_atomic_or(lds::NOT_MAX, 1);
                    } else {
                        ctx.lds_atomic_or(lds::NOT_MIN, 1);
                    }
                }
                j += stride;
            }
            ctx.barrier();
            if ctx.is_last_in_group() {
                let not_max = ctx.lds_read(lds::NOT_MAX);
                let not_min = ctx.lds_read(lds::NOT_MIN);
                let v = ctx.lds_read(lds::VTX) as usize;
                ctx.alu(2);
                let value = if not_max == 0 {
                    2 * iter
                } else if not_min == 0 {
                    2 * iter + 1
                } else {
                    UNCOLORED
                };
                ctx.write(cand, v, value);
            }
        };
        // Full-size workgroups keep occupancy (and thus latency hiding)
        // comparable to the thread-per-vertex kernels.
        let mut launch = Launch::groups("maxmin-assign-wgv", items)
            .wg_size(opts.wg_size)
            .independent_groups()
            .lds_words(lds::WORDS);
        launch.mode = match opts.schedule.to_mode() {
            ScheduleMode::WorkStealing { .. } => ScheduleMode::WorkStealing { chunk_items: 2 },
            other => other,
        };
        gpu.launch(&kernel, launch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_coloring;
    use gc_gpusim::DeviceConfig;
    use gc_graph::generators::{grid_2d, regular, rmat, RmatParams};
    use gc_graph::Scale;

    fn tiny_opts() -> GpuOptions {
        GpuOptions::baseline().with_device(DeviceConfig::small_test())
    }

    #[test]
    fn baseline_colors_properly() {
        for g in [
            grid_2d(12, 12),
            regular::complete(9),
            regular::star(40),
            rmat(8, 6, RmatParams::graph500(), 2),
        ] {
            let r = color(&g, &tiny_opts());
            verify_coloring(&g, &r.colors).unwrap_or_else(|e| panic!("{e}"));
            assert!(r.iterations >= 1);
            assert_eq!(r.active_per_iteration[0], g.num_vertices());
        }
    }

    #[test]
    fn all_option_combinations_agree_on_colors() {
        let g = rmat(8, 8, RmatParams::graph500(), 5);
        let baseline = color(&g, &tiny_opts());
        for opts in [
            tiny_opts().with_schedule(crate::gpu::WorkSchedule::WorkStealing { chunk: 16 }),
            tiny_opts().with_schedule(crate::gpu::WorkSchedule::DynamicHw),
            tiny_opts().with_frontier(true),
            tiny_opts().with_hybrid_threshold(Some(8)),
            tiny_opts()
                .with_frontier(true)
                .with_hybrid_threshold(Some(8))
                .with_schedule(crate::gpu::WorkSchedule::WorkStealing { chunk: 16 }),
        ] {
            let r = color(&g, &opts);
            verify_coloring(&g, &r.colors).unwrap();
            // Same priorities => identical independent sets regardless of
            // scheduling/compaction/binning.
            assert_eq!(r.colors, baseline.colors, "{}", r.algorithm);
            assert_eq!(r.iterations, baseline.iterations);
        }
    }

    #[test]
    fn labels_encode_options() {
        let g = regular::cycle(8);
        assert_eq!(color(&g, &tiny_opts()).algorithm, "gpu-maxmin");
        let r = color(
            &g,
            &tiny_opts()
                .with_frontier(true)
                .with_schedule(crate::gpu::WorkSchedule::WorkStealing { chunk: 4 }),
        );
        assert_eq!(r.algorithm, "gpu-maxmin-steal-frontier");
        assert!(r.steal_pops > 0);
    }

    #[test]
    fn iteration_timeline_matches_run_shape() {
        let g = grid_2d(16, 16);
        let r = color(&g, &tiny_opts());
        assert_eq!(r.iteration_timeline.len(), r.iterations);
        // Every launch happens inside some iteration, so the per-iteration
        // cycle deltas tile the whole run.
        let cycles: u64 = r.iteration_timeline.iter().map(|it| it.cycles).sum();
        assert_eq!(cycles, r.cycles);
        let launches: u64 = r
            .iteration_timeline
            .iter()
            .map(|it| it.kernel_launches)
            .sum();
        assert_eq!(launches, r.kernel_launches);
        let colored: usize = r.iteration_timeline.iter().map(|it| it.colored).sum();
        assert_eq!(colored, g.num_vertices());
        for (it, &active) in r.iteration_timeline.iter().zip(&r.active_per_iteration) {
            assert_eq!(it.active, active);
            assert!(it.imbalance_factor >= 1.0);
            assert!((0.0..=1.0).contains(&it.simd_utilization));
            assert!(it.kernel_launches >= 1);
            assert!(it.cycles > 0);
        }
    }

    #[test]
    fn color_on_reports_iterations_to_attached_profiler() {
        use gc_gpusim::{CaptureSink, Gpu};
        use std::cell::RefCell;
        use std::rc::Rc;

        let g = grid_2d(12, 12);
        let capture = Rc::new(RefCell::new(CaptureSink::new()));
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        gpu.attach_profiler(capture.clone());
        let r = color_on(&mut gpu, &g, &tiny_opts());
        let cap = capture.borrow();
        assert_eq!(cap.iterations().count(), r.iterations);
        assert_eq!(cap.kernels().count(), r.kernel_launches as usize);
        // The trace and the report agree on total device time.
        assert_eq!(cap.kernels().last().unwrap().end_cycle, r.cycles);
        // Same priorities => same coloring as the owned-device entry point.
        assert_eq!(r.colors, color(&g, &tiny_opts()).colors);
    }

    #[test]
    fn active_curve_is_strictly_decreasing() {
        let g = grid_2d(16, 16);
        let r = color(&g, &tiny_opts());
        assert!(r.active_per_iteration.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn frontier_is_functionally_identical() {
        // Compaction must never change the algorithm's result — only its
        // schedule. (Whether it *pays* is graph-dependent: maxmin's
        // early-exit scan is nearly free, so the F12 ablation reports wins
        // and losses per graph class.)
        let g = gc_graph::by_name("road-net").unwrap().build(Scale::Tiny);
        let plain = color(&g, &tiny_opts());
        let compacted = color(&g, &tiny_opts().with_frontier(true));
        assert_eq!(plain.colors, compacted.colors);
        assert_eq!(plain.iterations, compacted.iterations);
        assert_eq!(plain.active_per_iteration, compacted.active_per_iteration);
        // The compacted variant issues strictly fewer assign lane-slots.
        assert!(compacted.kernel_launches >= plain.kernel_launches);
    }

    #[test]
    fn aggregated_push_is_functionally_identical_and_cheaper() {
        let g = gc_graph::by_name("citation-rmat")
            .unwrap()
            .build(Scale::Tiny);
        let naive = color(&g, &tiny_opts().with_frontier(true));
        let mut opts = tiny_opts().with_frontier(true);
        opts.aggregated_push = true;
        let agg = color(&g, &opts);
        assert_eq!(naive.colors, agg.colors);
        assert!(
            agg.cycles < naive.cycles,
            "aggregated pushes {} should beat naive {}",
            agg.cycles,
            naive.cycles
        );
    }

    #[test]
    fn hybrid_helps_on_skewed_graphs() {
        let g = regular::star(512);
        let base = color(&g, &tiny_opts());
        let hybrid = color(&g, &tiny_opts().with_hybrid_threshold(Some(16)));
        assert_eq!(base.colors, hybrid.colors);
        assert!(
            hybrid.cycles < base.cycles,
            "hybrid {} vs base {}",
            hybrid.cycles,
            base.cycles
        );
        // The hub is scanned cooperatively: utilization must improve.
        assert!(hybrid.simd_utilization > base.simd_utilization);
    }

    #[test]
    fn fixed_cutover_cuts_the_iteration_tail_across_option_combos() {
        use crate::gpu::Cutover;
        let g = rmat(9, 8, RmatParams::graph500(), 4);
        let off = color(&g, &tiny_opts());
        for base in [
            tiny_opts(),
            tiny_opts().with_frontier(true),
            tiny_opts().with_hybrid_threshold(Some(8)),
        ] {
            let cut = color(&g, &base.with_cutover(Cutover::Fixed(64)));
            verify_coloring(&g, &cut.colors).unwrap();
            assert!(
                cut.iterations < off.iterations,
                "{}: {} vs {}",
                cut.algorithm,
                cut.iterations,
                off.iterations
            );
            assert!(cut.critical_path.get("host_tail") > 0);
            assert_eq!(cut.critical_path.total(), cut.cycles);
            let cycles: u64 = cut.iteration_timeline.iter().map(|it| it.cycles).sum();
            assert_eq!(cycles, cut.cycles);
            let colored: usize = cut.iteration_timeline.iter().map(|it| it.colored).sum();
            assert_eq!(colored, g.num_vertices());
        }
    }

    #[test]
    fn auto_cutover_acts_on_the_collapse_signal_without_warning() {
        use crate::gpu::Cutover;
        use std::cell::RefCell;
        use std::rc::Rc;
        // A tightened collapse detector fires deterministically on the
        // max/min tail (two colors per round leave a long dribble of tiny
        // rounds); acting on it must leave no warning behind — the trace
        // records the decision as a `cutover` event instead.
        let g = rmat(9, 8, RmatParams::graph500(), 4);
        let opts = tiny_opts()
            .with_cutover(Cutover::Auto)
            .with_watch(crate::watch::WatchConfig {
                collapse_active_fraction: 0.2,
                collapse_window: 2,
                ..Default::default()
            });
        let mut gpu = gc_gpusim::Gpu::new(gc_gpusim::DeviceConfig::small_test());
        let cap = Rc::new(RefCell::new(gc_gpusim::CaptureSink::new()));
        gpu.attach_profiler(cap.clone());
        let r = color_on(&mut gpu, &g, &opts);
        verify_coloring(&g, &r.colors).unwrap();
        assert!(r.critical_path.get("host_tail") > 0, "host finish ran");
        assert!(
            !r.warnings
                .iter()
                .any(|w| w.kind == crate::watch::WARN_COLLAPSE),
            "{:?}",
            r.warnings
        );
        let cap = cap.borrow();
        let ev = cap
            .watchdog_events()
            .find(|e| e.kind == "cutover")
            .expect("cutover event reached the sink");
        assert!(ev.detail.contains("residual vertices"), "{}", ev.detail);
        assert!(!cap
            .watchdog_events()
            .any(|e| e.kind == crate::watch::WARN_COLLAPSE));
        let off = color(&g, &tiny_opts());
        assert!(r.iterations < off.iterations);
    }

    #[test]
    fn star_needs_exactly_two_iterations_worth_of_colors() {
        // Hub + leaves: maxmin colors hub and all leaves within 1-2 rounds.
        let g = regular::star(64);
        let r = color(&g, &tiny_opts());
        assert!(r.num_colors <= 3, "colors {}", r.num_colors);
        assert!(r.iterations <= 2);
    }
}
