//! GPU Jones–Plassmann: independent-set coloring with first-fit color
//! choice — the quality-preserving cousin of [`crate::gpu::maxmin`].
//!
//! Per round, a vertex whose priority beats all *uncolored* neighbors takes
//! the smallest color absent from its *colored* neighbors. Selected
//! vertices form an independent set, so the round is conflict-free, and the
//! result respects the greedy `Δ + 1` bound — unlike max/min, which burns
//! two fresh colors per round. The cost: a winning vertex scans its
//! adjacency twice (once to win, once to choose a color).
//!
//! Shares the driver, scheduling, frontier, and hybrid machinery of the
//! other iterative algorithms, so every optimization of the paper applies.

use gc_gpusim::{Buffer, Gpu, LaneCtx, Launch, ScheduleMode};
use gc_graph::CsrGraph;

use crate::gpu::driver::{self, IterState, IterationKernels};
use crate::gpu::GpuOptions;
use crate::report::RunReport;
use crate::verify::UNCOLORED;

/// LDS layout of the cooperative assign kernel: header, flags, then a
/// shared forbidden-color bitset of `opts.ff_mask_words` words.
mod lds {
    pub const ACTIVE: usize = 0;
    pub const VTX: usize = 1;
    pub const PRIO: usize = 2;
    pub const START: usize = 3;
    pub const END: usize = 4;
    pub const NOT_MAX: usize = 5;
    pub const OVERFLOW: usize = 6;
    pub const MASK0: usize = 7;
}

/// Color `g` with GPU Jones–Plassmann under the given options.
pub fn color(g: &CsrGraph, opts: &GpuOptions) -> RunReport {
    let mut gpu = Gpu::new(opts.device.clone());
    color_on(&mut gpu, g, opts)
}

/// Like [`color`], but on a caller-supplied device — the entry point used by
/// profiling tools that attach [`gc_gpusim::ProfileSink`] observers before
/// the run. Resets device statistics first.
pub fn color_on(gpu: &mut Gpu, g: &CsrGraph, opts: &GpuOptions) -> RunReport {
    driver::color_on(gpu, g, opts, "gpu-jp", &JpKernels)
}

struct JpKernels;

impl IterationKernels for JpKernels {
    fn assign_tpv(
        &self,
        gpu: &mut Gpu,
        st: &IterState,
        opts: &GpuOptions,
        _iter: u32,
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
            // Pass 1: am I the local priority maximum among the uncolored?
            for j in start..end {
                let u = ctx.read(dev.col_idx, j) as usize;
                let cu = ctx.read(dev.colors, u);
                ctx.alu(1);
                if cu == UNCOLORED {
                    let pu = ctx.read(dev.priority, u);
                    ctx.alu(1);
                    if pu > my_p {
                        ctx.write(cand, v, UNCOLORED);
                        return;
                    }
                }
            }
            // Pass 2: smallest color absent from colored neighbors.
            let chosen = dev.first_free_color(ctx, start, end, 0);
            ctx.write(cand, v, chosen);
        };
        let mut launch = Launch::threads("jp-assign", items)
            .wg_size(opts.wg_size)
            .independent_groups();
        launch.mode = opts.schedule.to_mode();
        gpu.launch(&kernel, launch);
    }

    fn assign_wgv(
        &self,
        gpu: &mut Gpu,
        st: &IterState,
        opts: &GpuOptions,
        _iter: u32,
        list: Buffer<u32>,
        items: usize,
    ) {
        let dev = st.dev;
        let cand = st.cand;
        let mask_words = opts.ff_mask_words.max(1);
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
                    ctx.lds_write(lds::OVERFLOW, 0);
                }
            }
            ctx.barrier();
            if ctx.lds_read(lds::ACTIVE) == 0 {
                return;
            }
            let my_p = ctx.lds_read(lds::PRIO);
            let start = ctx.lds_read(lds::START) as usize;
            let end = ctx.lds_read(lds::END) as usize;
            let capacity = 32 * mask_words as u32;
            let stride = ctx.group_size();
            // One cooperative pass accumulates both the max test and the
            // forbidden bitset.
            let mut j = start + ctx.local_id();
            while j < end {
                let u = ctx.read(dev.col_idx, j) as usize;
                let cu = ctx.read(dev.colors, u);
                ctx.alu(2);
                if cu == UNCOLORED {
                    let pu = ctx.read(dev.priority, u);
                    ctx.alu(1);
                    if pu > my_p {
                        ctx.lds_atomic_or(lds::NOT_MAX, 1);
                    }
                } else if cu < capacity {
                    ctx.lds_atomic_or(lds::MASK0 + (cu / 32) as usize, 1u32 << (cu % 32));
                } else {
                    ctx.lds_atomic_or(lds::OVERFLOW, 1);
                }
                j += stride;
            }
            ctx.barrier();
            if ctx.is_last_in_group() {
                let v = ctx.lds_read(lds::VTX) as usize;
                if ctx.lds_read(lds::NOT_MAX) != 0 {
                    ctx.write(cand, v, UNCOLORED);
                    return;
                }
                let mut chosen = None;
                for w in 0..mask_words {
                    let bits = ctx.lds_read(lds::MASK0 + w);
                    ctx.alu(1);
                    if bits != u32::MAX {
                        chosen = Some(32 * w as u32 + bits.trailing_ones());
                        break;
                    }
                }
                let color = match chosen {
                    Some(c) => c,
                    // Rare fallback: every tracked color forbidden — one
                    // lane rescans the windows above the bitset capacity.
                    None => dev.first_free_color(ctx, start, end, capacity),
                };
                ctx.write(cand, v, color);
            }
        };
        let mut launch = Launch::groups("jp-assign-wgv", items)
            .wg_size(opts.wg_size)
            .independent_groups()
            .lds_words(lds::MASK0 + mask_words);
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
    use gc_graph::generators::{erdos_renyi, grid_2d, regular, rmat, RmatParams};

    fn tiny_opts() -> GpuOptions {
        GpuOptions::baseline().with_device(DeviceConfig::small_test())
    }

    #[test]
    fn proper_and_within_greedy_bound() {
        for g in [
            grid_2d(12, 12),
            regular::complete(9),
            regular::star(50),
            erdos_renyi(400, 2000, 3),
            rmat(8, 6, RmatParams::graph500(), 2),
        ] {
            let r = color(&g, &tiny_opts());
            let k = verify_coloring(&g, &r.colors).unwrap_or_else(|e| panic!("{e}"));
            assert!(k <= g.max_degree() + 1, "{k} colors");
        }
    }

    #[test]
    fn better_quality_than_maxmin() {
        let g = rmat(9, 8, RmatParams::graph500(), 4);
        let jp = color(&g, &tiny_opts());
        let mm = crate::gpu::maxmin::color(&g, &tiny_opts());
        assert!(
            jp.num_colors < mm.num_colors,
            "jp {} vs maxmin {}",
            jp.num_colors,
            mm.num_colors
        );
    }

    #[test]
    fn matches_cpu_jones_plassmann_structure() {
        // Same selection rule as the CPU implementation: both finish in a
        // similar number of rounds on the same graph.
        let g = erdos_renyi(500, 3000, 7);
        let gpu_r = color(&g, &tiny_opts());
        let cpu_r = crate::cpu::jones_plassmann(&g);
        assert!(gpu_r.iterations.abs_diff(cpu_r.iterations) <= 4);
    }

    #[test]
    fn fixed_cutover_keeps_the_greedy_bound_and_cuts_the_tail() {
        // The host greedy finish assigns each residual vertex a color
        // <= degree + 1, so JP's Delta+1 guarantee survives the cutover.
        let g = erdos_renyi(600, 4800, 5);
        let off = color(&g, &tiny_opts());
        let cut = color(
            &g,
            &tiny_opts().with_cutover(crate::gpu::Cutover::Fixed(64)),
        );
        let k = verify_coloring(&g, &cut.colors).unwrap_or_else(|e| panic!("{e}"));
        assert!(k <= g.max_degree() + 1, "{k} colors");
        assert!(
            cut.iterations < off.iterations,
            "cutover did not shorten the run: {} vs {}",
            cut.iterations,
            off.iterations
        );
        assert!(cut.critical_path.get("host_tail") > 0);
        assert_eq!(cut.critical_path.total(), cut.cycles);
    }

    #[test]
    fn options_are_functionally_invisible() {
        let g = rmat(8, 8, RmatParams::graph500(), 6);
        let reference = color(&g, &tiny_opts());
        for opts in [
            tiny_opts().with_frontier(true),
            tiny_opts().with_hybrid_threshold(Some(8)),
            tiny_opts().with_schedule(crate::gpu::WorkSchedule::WorkStealing { chunk: 16 }),
        ] {
            let r = color(&g, &opts);
            assert_eq!(r.colors, reference.colors, "{}", r.algorithm);
        }
    }

    #[test]
    fn wgv_mask_overflow_fallback_works() {
        let g = regular::complete(40);
        let mut opts = tiny_opts().with_hybrid_threshold(Some(8));
        opts.ff_mask_words = 1;
        let r = color(&g, &opts);
        verify_coloring(&g, &r.colors).unwrap();
        assert_eq!(r.num_colors, 40);
    }

    #[test]
    fn label_is_distinct() {
        let g = regular::cycle(8);
        assert_eq!(color(&g, &tiny_opts()).algorithm, "gpu-jp");
    }
}
