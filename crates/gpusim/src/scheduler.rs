//! Workgroup-to-CU scheduling: static, greedy-dynamic, and work stealing.
//!
//! The scheduler is an event-driven model of the device's dispatcher. Each
//! compute unit has a timeline; workgroups (or work-stealing chunks) are
//! placed on timelines according to the [`ScheduleMode`]:
//!
//! * `StaticRoundRobin` — workgroup `i` runs on CU `i mod num_cus`. With
//!   skewed per-workgroup costs (hub vertices in scale-free graphs) some CUs
//!   finish long after others: this is the baseline load imbalance.
//! * `DynamicHw` — workgroups go, in order, to the earliest-free CU, like a
//!   hardware dispatcher; granularity is still a whole workgroup.
//! * `WorkStealing` — every CU runs a persistent workgroup that pops
//!   fixed-size chunks of items from a shared queue, paying a global atomic
//!   per pop ([`DeviceConfig::steal_pop_cycles`]). Small chunks balance
//!   better but pay more queue overhead: the trade-off Figure F8 sweeps.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::buffer::MemoryState;
use crate::cache::L2Cache;
use crate::config::DeviceConfig;
use crate::exec::execute;
use crate::kernel::{GridStyle, Kernel, Launch, ScheduleMode};
use crate::metrics::{DeviceStats, Histogram};
use crate::profile::Probe;
use crate::workgroup::{WgOutcome, WgParams, WgWork};

/// Run one launch to completion, returning its record. The workgroups run
/// first ([`execute`], on up to `workers` host threads when the launch
/// declares independent groups); their outcomes are then placed on CUs in
/// task order. When a `probe` is attached it receives one event per
/// workgroup retire (with the CU id and CU-local cycle span) and per
/// work-steal queue pop.
pub(crate) fn run_launch(
    kernel: &dyn Kernel,
    launch: &Launch,
    cfg: &DeviceConfig,
    mem: &mut MemoryState,
    l2: &mut Option<L2Cache>,
    probe: Option<&Probe<'_>>,
    workers: usize,
) -> DeviceStats {
    validate_launch(launch, cfg);

    let tasks = build_tasks(launch);
    let occupancy = estimate_occupancy(launch, cfg, tasks.len());
    let params = WgParams {
        cfg,
        kernel_name: &launch.name,
        wg_size: launch.wg_size,
        lds_words: launch.lds_words,
        num_items: launch.items,
        occupancy,
    };
    let (outcomes, tally) = execute(kernel, launch, &params, &tasks, mem, l2, workers);

    let mut busy = vec![0u64; cfg.num_cus];
    let mut wg_duration = Histogram::new();
    let mut steal_depth = Histogram::new();
    let mut stats = DeviceStats {
        kernels_launched: 1,
        launch_cycles: cfg.kernel_launch_cycles,
        ..Default::default()
    };
    let placed = tasks.iter().zip(&outcomes).enumerate();

    match launch.mode {
        ScheduleMode::StaticRoundRobin => {
            for (i, (&work, outcome)) in placed {
                let cu = i % cfg.num_cus;
                let t0 = busy[cu];
                busy[cu] += cfg.wg_dispatch_cycles + outcome.service_cycles;
                wg_duration.record(outcome.service_cycles);
                if let Some(p) = probe {
                    p.workgroup_retire(cu, i, t0, busy[cu], outcome, work);
                }
                absorb(&mut stats, outcome);
            }
        }
        ScheduleMode::DynamicHw => {
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
                (0..cfg.num_cus).map(|cu| Reverse((0u64, cu))).collect();
            for (i, (&work, outcome)) in placed {
                let Reverse((t0, cu)) = heap.pop().expect("heap holds one entry per CU");
                let t = t0 + cfg.wg_dispatch_cycles + outcome.service_cycles;
                busy[cu] += cfg.wg_dispatch_cycles + outcome.service_cycles;
                wg_duration.record(outcome.service_cycles);
                if let Some(p) = probe {
                    p.workgroup_retire(cu, i, t0, t, outcome, work);
                }
                absorb(&mut stats, outcome);
                heap.push(Reverse((t, cu)));
            }
        }
        ScheduleMode::WorkStealing { .. } => {
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
                (0..cfg.num_cus).map(|cu| Reverse((0u64, cu))).collect();
            for (i, (&work, outcome)) in placed {
                let Reverse((t0, cu)) = heap.pop().expect("heap holds one entry per CU");
                // Depth seen by the popping workgroup: chunks still queued,
                // including the one it takes.
                steal_depth.record((tasks.len() - i) as u64);
                let t = t0 + cfg.steal_pop_cycles + outcome.service_cycles;
                busy[cu] += cfg.steal_pop_cycles + outcome.service_cycles;
                wg_duration.record(outcome.service_cycles);
                if let Some(p) = probe {
                    let chunk = match work {
                        WgWork::Range { start, end } | WgWork::Items { start, end } => (start, end),
                    };
                    p.steal_pop(cu, t0, Some(chunk));
                    p.workgroup_retire(cu, i, t0, t, outcome, work);
                }
                absorb(&mut stats, outcome);
                stats.steal_pops += 1;
                heap.push(Reverse((t, cu)));
            }
            // Every persistent workgroup pays one final (empty) pop to learn
            // the queue is drained.
            for Reverse((t, cu)) in heap {
                if let Some(p) = probe {
                    p.steal_pop(cu, t, None);
                }
                steal_depth.record(0);
                busy[cu] += cfg.steal_pop_cycles;
            }
            stats.steal_pops += cfg.num_cus as u64;
        }
    }

    stats.total_cycles = busy.iter().copied().max().unwrap_or(0) + cfg.kernel_launch_cycles;
    stats.path_kernel_cycles = busy.iter().copied().min().unwrap_or(0);
    stats.busy_per_cu = busy;
    stats.per_buffer = tally.per_buffer_by_name(mem);
    stats.hot_lines = tally.top_hot_lines(mem, cfg.cacheline_bytes);
    stats.lane_occupancy = tally.lane_occupancy;
    stats.wg_duration = wg_duration;
    stats.steal_depth = steal_depth;
    stats
}

fn absorb(stats: &mut DeviceStats, outcome: &WgOutcome) {
    stats.workgroups += 1;
    stats.waves += outcome.waves;
    stats.steps += outcome.cost.steps;
    stats.active_lane_ops += outcome.cost.active_lane_ops;
    stats.possible_lane_ops += outcome.cost.possible_lane_ops;
    stats.mem_transactions += outcome.cost.mem_transactions;
    stats.mem_instructions += outcome.cost.mem_instructions;
    stats.global_atomics += outcome.cost.global_atomics;
    stats.divergent_steps += outcome.cost.divergent_steps;
    stats.l2_hits += outcome.cost.l2_hits;
    stats.l2_misses += outcome.cost.l2_misses;
}

fn validate_launch(launch: &Launch, cfg: &DeviceConfig) {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid device config: {e}"));
    if launch.wg_size == 0 || !launch.wg_size.is_multiple_of(cfg.wavefront_size) {
        panic!(
            "kernel '{}': wg_size {} must be a positive multiple of the wavefront size {}",
            launch.name, launch.wg_size, cfg.wavefront_size
        );
    }
    if let ScheduleMode::WorkStealing { chunk_items } = launch.mode {
        if chunk_items == 0 {
            panic!(
                "kernel '{}': work-stealing chunk size must be positive",
                launch.name
            );
        }
    }
}

/// Split the item range into per-workgroup tasks.
fn build_tasks(launch: &Launch) -> Vec<WgWork> {
    let n = launch.items;
    if n == 0 {
        return Vec::new();
    }
    match (launch.grid, launch.mode) {
        (GridStyle::ThreadPerItem, ScheduleMode::WorkStealing { chunk_items }) => {
            chunked(n, chunk_items)
                .map(|(s, e)| WgWork::Range { start: s, end: e })
                .collect()
        }
        (GridStyle::ThreadPerItem, _) => chunked(n, launch.wg_size)
            .map(|(s, e)| WgWork::Range { start: s, end: e })
            .collect(),
        (GridStyle::WorkgroupPerItem, ScheduleMode::WorkStealing { chunk_items }) => {
            chunked(n, chunk_items)
                .map(|(s, e)| WgWork::Items { start: s, end: e })
                .collect()
        }
        (GridStyle::WorkgroupPerItem, _) => (0..n)
            .map(|i| WgWork::Items {
                start: i,
                end: i + 1,
            })
            .collect(),
    }
}

fn chunked(n: usize, chunk: usize) -> impl Iterator<Item = (usize, usize)> {
    let chunk = chunk.max(1);
    (0..n.div_ceil(chunk)).map(move |i| (i * chunk, ((i + 1) * chunk).min(n)))
}

/// Resident wavefronts per CU, used to hide memory latency.
fn estimate_occupancy(launch: &Launch, cfg: &DeviceConfig, num_tasks: usize) -> u64 {
    let waves_per_wg = (launch.wg_size / cfg.wavefront_size).max(1) as u64;
    let occ = match launch.mode {
        ScheduleMode::WorkStealing { .. } => cfg.persistent_wgs_per_cu as u64 * waves_per_wg,
        _ => {
            let total_waves = num_tasks as u64 * waves_per_wg;
            total_waves.div_ceil(cfg.num_cus as u64)
        }
    };
    occ.clamp(1, cfg.max_waves_per_cu as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::LaneCtx;

    fn increment_kernel(buf: crate::buffer::Buffer<u32>) -> impl Fn(&mut LaneCtx) {
        move |ctx: &mut LaneCtx| {
            let i = ctx.item();
            let v = ctx.read(buf, i);
            ctx.write(buf, i, v + 1);
        }
    }

    fn setup(n: usize) -> (DeviceConfig, MemoryState, crate::buffer::Buffer<u32>) {
        let cfg = DeviceConfig::small_test();
        let mut mem = MemoryState::new();
        let buf = mem.alloc(vec![0u32; n]);
        (cfg, mem, buf)
    }

    #[test]
    fn all_modes_produce_same_functional_result() {
        for mode in [
            ScheduleMode::StaticRoundRobin,
            ScheduleMode::DynamicHw,
            ScheduleMode::WorkStealing { chunk_items: 3 },
        ] {
            let (cfg, mut mem, buf) = setup(37);
            let mut launch = Launch::threads("inc", 37).wg_size(4);
            launch.mode = mode;
            let stats = run_launch(
                &increment_kernel(buf),
                &launch,
                &cfg,
                &mut mem,
                &mut None,
                None,
                1,
            );
            assert_eq!(mem.as_slice(&buf), &[1u32; 37], "mode {mode:?}");
            assert!(stats.total_cycles > cfg.kernel_launch_cycles);
        }
    }

    #[test]
    fn zero_items_is_launch_overhead_only() {
        let (cfg, mut mem, buf) = setup(1);
        let launch = Launch::threads("empty", 0).wg_size(4);
        let stats = run_launch(
            &increment_kernel(buf),
            &launch,
            &cfg,
            &mut mem,
            &mut None,
            None,
            1,
        );
        assert_eq!(stats.total_cycles, cfg.kernel_launch_cycles);
        assert_eq!(stats.workgroups, 0);
        assert_eq!(mem.as_slice(&buf), &[0u32]);
    }

    #[test]
    fn round_robin_pins_workgroups() {
        // One expensive workgroup among cheap ones: under round-robin with
        // 2 CUs, workgroups 0,2,4.. pile onto CU 0.
        let cfg = DeviceConfig::small_test();
        let mut mem = MemoryState::new();
        let buf = mem.alloc(vec![0u32; 16]);
        let kernel = move |ctx: &mut LaneCtx| {
            let i = ctx.item();
            // Items 0..4 (workgroup 0) do extra work.
            if i < 4 {
                ctx.alu(1000);
            }
            ctx.write(buf, i, 1);
        };
        let launch = Launch::threads("skewed", 16).wg_size(4);
        let stats = run_launch(&kernel, &launch, &cfg, &mut mem, &mut None, None, 1);
        assert!(
            stats.imbalance_factor() > 1.2,
            "imbalance {}",
            stats.imbalance_factor()
        );

        let (mut mem2, buf2);
        {
            let mut m = MemoryState::new();
            let b = m.alloc(vec![0u32; 16]);
            mem2 = m;
            buf2 = b;
        }
        let kernel2 = move |ctx: &mut LaneCtx| {
            let i = ctx.item();
            if i < 4 {
                ctx.alu(1000);
            }
            ctx.write(buf2, i, 1);
        };
        let dyn_launch = Launch::threads("skewed", 16).wg_size(4).dynamic();
        let dyn_stats = run_launch(&kernel2, &dyn_launch, &cfg, &mut mem2, &mut None, None, 1);
        assert!(dyn_stats.total_cycles <= stats.total_cycles);
    }

    #[test]
    fn stealing_chunk_larger_than_wg_processes_every_item() {
        // Regression: chunks wider than the workgroup must be iterated in
        // wg-size slices, not truncated.
        let (cfg, mut mem, buf) = setup(40);
        let launch = Launch::threads("bigchunk", 40).wg_size(4).stealing(16);
        let stats = run_launch(
            &increment_kernel(buf),
            &launch,
            &cfg,
            &mut mem,
            &mut None,
            None,
            1,
        );
        assert_eq!(mem.as_slice(&buf), &[1u32; 40]);
        // 3 chunks (16 + 16 + 8), each sliced into wg_size-4 instances.
        assert_eq!(stats.workgroups, 3);
        assert_eq!(stats.waves, 4 + 4 + 2);
    }

    #[test]
    fn stealing_counts_pops_and_pays_overhead() {
        let (cfg, mut mem, buf) = setup(32);
        let launch = Launch::threads("steal", 32).wg_size(4).stealing(4);
        let stats = run_launch(
            &increment_kernel(buf),
            &launch,
            &cfg,
            &mut mem,
            &mut None,
            None,
            1,
        );
        // 8 chunks + one drain pop per CU.
        assert_eq!(stats.steal_pops, 8 + cfg.num_cus as u64);
        assert_eq!(stats.workgroups, 8);
        assert_eq!(mem.as_slice(&buf), &[1u32; 32]);
    }

    #[test]
    fn stealing_balances_skewed_work() {
        // Heavy items live in even-indexed workgroups, so static round-robin
        // over 2 CUs piles all of them onto CU 0 while stealing rebalances.
        let cfg = DeviceConfig::small_test();
        let run = |mode: ScheduleMode| {
            let mut mem = MemoryState::new();
            let buf = mem.alloc(vec![0u32; 64]);
            let kernel = move |ctx: &mut LaneCtx| {
                let i = ctx.item();
                // wg_size = 4: workgroup index = i / 4. Even ones are heavy.
                if (i / 4).is_multiple_of(2) {
                    ctx.alu(2000);
                }
                ctx.write(buf, i, 1);
            };
            let mut launch = Launch::threads("skew", 64).wg_size(4);
            launch.mode = mode;
            run_launch(&kernel, &launch, &cfg, &mut mem, &mut None, None, 1)
        };
        let rr = run(ScheduleMode::StaticRoundRobin);
        let ws = run(ScheduleMode::WorkStealing { chunk_items: 4 });
        assert!(
            ws.total_cycles < rr.total_cycles,
            "stealing {} should beat round-robin {}",
            ws.total_cycles,
            rr.total_cycles
        );
    }

    #[test]
    fn occupancy_estimates() {
        let cfg = DeviceConfig::small_test(); // wave 4, 2 CUs, max 8 waves
        let l = Launch::threads("k", 1000).wg_size(8); // 2 waves per wg
        let tasks = build_tasks(&l);
        assert_eq!(tasks.len(), 125);
        let occ = estimate_occupancy(&l, &cfg, tasks.len());
        assert_eq!(occ, 8); // clamped to max_waves_per_cu

        let small = Launch::threads("k", 8).wg_size(8);
        let occ_small = estimate_occupancy(&small, &cfg, 1);
        assert_eq!(occ_small, 1);

        let steal = Launch::threads("k", 1000).wg_size(4).stealing(16);
        // persistent_wgs_per_cu = 2, 1 wave per wg => 2
        assert_eq!(estimate_occupancy(&steal, &cfg, 63), 2);
    }

    #[test]
    #[should_panic(expected = "multiple of the wavefront size")]
    fn bad_wg_size_panics() {
        let (cfg, mut mem, buf) = setup(4);
        let launch = Launch::threads("bad", 4).wg_size(3);
        run_launch(
            &increment_kernel(buf),
            &launch,
            &cfg,
            &mut mem,
            &mut None,
            None,
            1,
        );
    }

    #[test]
    fn wg_per_item_grid_runs_groups() {
        let cfg = DeviceConfig::small_test();
        let mut mem = MemoryState::new();
        let out = mem.alloc(vec![0u32; 5]);
        let kernel = move |ctx: &mut LaneCtx| {
            // All 4 lanes add 1 to the item's slot.
            ctx.atomic_add(out, ctx.item(), 1);
        };
        let launch = Launch::groups("coop", 5).wg_size(4).lds_words(0);
        let stats = run_launch(&kernel, &launch, &cfg, &mut mem, &mut None, None, 1);
        assert_eq!(mem.as_slice(&out), &[4u32; 5]);
        assert_eq!(stats.workgroups, 5);
    }
}
