//! Workgroup execution: functional run of the lanes plus cost folding.

use crate::cache::L2Cache;
use crate::config::DeviceConfig;
use crate::kernel::Kernel;
use crate::lane::{LaneCtx, LaneIds, LaneMem};
use crate::metrics::LaunchTally;
use crate::trace::Recorder;
use crate::wave::{fold_wave_segment, SegmentCost};

/// Work assigned to one workgroup execution.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WgWork {
    /// Thread-per-item over `start..end` (one lane per item).
    Range { start: usize, end: usize },
    /// Workgroup-per-item over `start..end`: the whole group cooperates on
    /// each item in turn (a work-stealing chunk may hold several).
    Items { start: usize, end: usize },
}

/// Result of executing one workgroup's work.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WgOutcome {
    /// Cycles the owning CU is busy executing this work.
    pub service_cycles: u64,
    /// Wavefront executions.
    pub waves: u64,
    /// Aggregated step counters.
    pub cost: SegmentCost,
}

/// Executes workgroups, reusing recorder/LDS allocations across calls.
pub(crate) struct WgExecutor {
    rec: Recorder,
    lds: Vec<u32>,
    /// The fold's LDS bank counters, kept across calls.
    banks: Vec<u64>,
}

/// Static parameters shared by every workgroup of a launch.
pub(crate) struct WgParams<'a> {
    pub cfg: &'a DeviceConfig,
    pub kernel_name: &'a str,
    pub wg_size: usize,
    pub lds_words: usize,
    pub num_items: usize,
    pub occupancy: u64,
}

impl WgExecutor {
    pub fn new(wave_size: usize) -> Self {
        Self {
            rec: Recorder::new(wave_size),
            lds: Vec::new(),
            banks: Vec::new(),
        }
    }

    /// Execute one workgroup's work (functionally and in the cost model).
    #[allow(clippy::too_many_arguments)] // internal hot path; a param struct would obscure it
    pub fn run(
        &mut self,
        kernel: &dyn Kernel,
        mut mem: LaneMem<'_>,
        l2: &mut Option<L2Cache>,
        params: &WgParams<'_>,
        group_id: usize,
        work: WgWork,
        tally: &mut LaunchTally,
    ) -> WgOutcome {
        let mut outcome = WgOutcome::default();
        match work {
            WgWork::Range { start, end } => {
                // A range larger than the workgroup (a work-stealing chunk)
                // is processed in workgroup-sized slices, like a persistent
                // workgroup iterating its chunk.
                let mut s = start;
                while s < end {
                    let e = (s + params.wg_size).min(end);
                    let inst = self.exec_instance(
                        kernel,
                        &mut mem,
                        l2,
                        params,
                        group_id,
                        e - s,
                        |l| s + l,
                        tally,
                    );
                    accumulate(&mut outcome, inst);
                    s = e;
                }
            }
            WgWork::Items { start, end } => {
                for item in start..end {
                    let inst = self.exec_instance(
                        kernel,
                        &mut mem,
                        l2,
                        params,
                        group_id,
                        params.wg_size,
                        |_| item,
                        tally,
                    );
                    accumulate(&mut outcome, inst);
                }
            }
        }
        outcome
    }

    /// Run `active_lanes` lanes of one workgroup instance and fold the cost.
    ///
    /// Barriers are workgroup-uniform, so lane 0's count is the instance's.
    /// Without barriers each wave is folded as soon as its lanes have run,
    /// while its slots are still in cache; with barriers every lane runs
    /// first and the fold goes segment by segment. Both orders hand the L2
    /// and the tally the same access sequence, because functional execution
    /// never touches either.
    #[allow(clippy::too_many_arguments)] // internal hot path; a param struct would obscure it
    fn exec_instance(
        &mut self,
        kernel: &dyn Kernel,
        mem: &mut LaneMem<'_>,
        l2: &mut Option<L2Cache>,
        params: &WgParams<'_>,
        group_id: usize,
        active_lanes: usize,
        item_for_lane: impl Fn(usize) -> usize,
        tally: &mut LaunchTally,
    ) -> WgOutcome {
        let cfg = params.cfg;
        let wave_size = cfg.wavefront_size;
        let waves = active_lanes.div_ceil(wave_size);
        self.lds.clear();
        self.lds.resize(params.lds_words, 0);

        self.rec.begin_instance(waves);
        let mut fold = InstanceFold::default();
        let mut barriers = 0;
        // Functional execution: lanes in increasing local-id order.
        for wave in 0..waves {
            let first = wave * wave_size;
            for local in first..(first + wave_size).min(active_lanes) {
                let lane = local - first;
                // A barrier-free instance records every wave into matrix set 0.
                let set = if barriers == 0 { 0 } else { wave };
                self.rec.begin_lane(set, lane);
                let mut ctx = LaneCtx {
                    mem: mem.reborrow(),
                    lds: &mut self.lds,
                    rec: &mut self.rec,
                    ids: LaneIds {
                        item: item_for_lane(local),
                        lane,
                        wave,
                        local,
                        group: group_id,
                        group_size: params.wg_size,
                        num_items: params.num_items,
                    },
                };
                kernel.run(&mut ctx);
                let executed = self.rec.end_lane();
                if local == 0 {
                    barriers = executed;
                } else if executed != barriers {
                    panic!(
                        "kernel '{}': lane {local} of workgroup {group_id} executed {executed} \
                         barriers but lane 0 executed {barriers} (barriers must be \
                         workgroup-uniform)",
                        params.kernel_name,
                    );
                }
            }
            if barriers == 0 {
                fold.wave(self.fold(0, 0, params, l2, tally));
                self.rec.clear();
            }
        }

        if barriers == 0 {
            fold.end_segment(cfg, 0);
        } else {
            for seg in 0..=barriers {
                for w in 0..waves {
                    fold.wave(self.fold(w, seg, params, l2, tally));
                }
                let barrier = if seg < barriers {
                    cfg.barrier_cycles
                } else {
                    0
                };
                fold.end_segment(cfg, barrier);
            }
            self.rec.clear();
        }

        WgOutcome {
            service_cycles: fold.service,
            waves: waves as u64,
            cost: fold.cost,
        }
    }

    /// Fold segment `seg` of recorded wave matrix set `wave`.
    fn fold(
        &mut self,
        wave: usize,
        seg: usize,
        params: &WgParams<'_>,
        l2: &mut Option<L2Cache>,
        tally: &mut LaunchTally,
    ) -> SegmentCost {
        fold_wave_segment(
            self.rec.matrix(wave, seg),
            params.cfg.wavefront_size,
            params.cfg,
            params.occupancy,
            &mut self.banks,
            l2,
            tally,
        )
    }
}

/// Running service time of one workgroup instance.
#[derive(Default)]
struct InstanceFold {
    /// Slowest and summed wave of the open segment.
    seg_max: u64,
    seg_sum: u64,
    service: u64,
    cost: SegmentCost,
}

impl InstanceFold {
    fn wave(&mut self, cost: SegmentCost) {
        self.seg_max = self.seg_max.max(cost.cycles);
        self.seg_sum += cost.cycles;
        self.cost.add(&cost);
    }

    /// Close a segment followed by `barrier` cycles. Waves of a workgroup
    /// overlap across the CU's SIMD units: throughput-bound at
    /// `simds_per_cu`, but never faster than the slowest wave.
    fn end_segment(&mut self, cfg: &DeviceConfig, barrier: u64) {
        let simds = cfg.simds_per_cu as u64;
        self.service += self.seg_max.max(self.seg_sum.div_ceil(simds)) + barrier;
        self.seg_max = 0;
        self.seg_sum = 0;
    }
}

fn accumulate(into: &mut WgOutcome, inst: WgOutcome) {
    into.service_cycles += inst.service_cycles;
    into.waves += inst.waves;
    into.cost.add(&inst.cost);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::MemoryState;

    fn params(cfg: &DeviceConfig, wg_size: usize, lds: usize, n: usize) -> WgParams<'_> {
        WgParams {
            cfg,
            kernel_name: "test",
            wg_size,
            lds_words: lds,
            num_items: n,
            occupancy: 1,
        }
    }

    #[test]
    fn range_work_runs_each_item_once() {
        let cfg = DeviceConfig::small_test();
        let mut mem = MemoryState::new();
        let buf = mem.alloc(vec![0u32; 10]);
        let kernel = move |ctx: &mut LaneCtx| {
            let i = ctx.item();
            let v = ctx.read(buf, i);
            ctx.write(buf, i, v + 1);
        };
        let mut ex = WgExecutor::new(cfg.wavefront_size);
        let mut tally = LaunchTally::new(&mem);
        let p = params(&cfg, 4, 0, 10);
        // Two workgroups of 4 plus a partial one of 2.
        let o1 = ex.run(
            &kernel,
            LaneMem::Direct(&mut mem),
            &mut None,
            &p,
            0,
            WgWork::Range { start: 0, end: 4 },
            &mut tally,
        );
        let _ = ex.run(
            &kernel,
            LaneMem::Direct(&mut mem),
            &mut None,
            &p,
            1,
            WgWork::Range { start: 4, end: 8 },
            &mut tally,
        );
        let o3 = ex.run(
            &kernel,
            LaneMem::Direct(&mut mem),
            &mut None,
            &p,
            2,
            WgWork::Range { start: 8, end: 10 },
            &mut tally,
        );
        assert_eq!(mem.as_slice(&buf), &[1u32; 10]);
        assert!(o1.service_cycles > 0);
        assert_eq!(o1.waves, 1);
        // Partial workgroup has lower utilization (2 of 4 lanes).
        assert!(o3.cost.active_lane_ops < o3.cost.possible_lane_ops);
    }

    #[test]
    fn items_work_cooperates_per_item() {
        let cfg = DeviceConfig::small_test();
        let mut mem = MemoryState::new();
        let sums = mem.alloc(vec![0u32; 3]);
        // Each lane atomically adds its local id + 1; per item the total is
        // 1+2+3+4 = 10.
        let kernel = move |ctx: &mut LaneCtx| {
            let item = ctx.item();
            let v = ctx.local_id() as u32 + 1;
            ctx.atomic_add(sums, item, v);
        };
        let mut ex = WgExecutor::new(cfg.wavefront_size);
        let mut tally = LaunchTally::new(&mem);
        let p = params(&cfg, 4, 0, 3);
        let o = ex.run(
            &kernel,
            LaneMem::Direct(&mut mem),
            &mut None,
            &p,
            0,
            WgWork::Items { start: 0, end: 3 },
            &mut tally,
        );
        assert_eq!(mem.as_slice(&sums), &[10, 10, 10]);
        assert_eq!(o.waves, 3); // one wave per item instance
    }

    #[test]
    fn last_lane_sees_lds_accumulation() {
        let cfg = DeviceConfig::small_test();
        let mut mem = MemoryState::new();
        let out = mem.alloc(vec![0u32; 1]);
        // Reduction pattern: every lane ORs a bit into LDS word 0, barrier,
        // last lane publishes.
        let kernel = move |ctx: &mut LaneCtx| {
            let bit = 1u32 << ctx.local_id();
            ctx.lds_atomic_or(0, bit);
            ctx.barrier();
            if ctx.is_last_in_group() {
                let v = ctx.lds_read(0);
                ctx.write(out, 0, v);
            }
        };
        let mut ex = WgExecutor::new(cfg.wavefront_size);
        let mut tally = LaunchTally::new(&mem);
        let p = params(&cfg, 4, 1, 1);
        let o = ex.run(
            &kernel,
            LaneMem::Direct(&mut mem),
            &mut None,
            &p,
            0,
            WgWork::Items { start: 0, end: 1 },
            &mut tally,
        );
        assert_eq!(mem.as_slice(&out), &[0b1111]);
        // Barrier cost charged once.
        assert!(o.service_cycles >= cfg.barrier_cycles);
    }

    #[test]
    fn lds_is_zeroed_per_item() {
        let cfg = DeviceConfig::small_test();
        let mut mem = MemoryState::new();
        let out = mem.alloc(vec![0u32; 2]);
        let kernel = move |ctx: &mut LaneCtx| {
            ctx.lds_atomic_add(0, 1);
            ctx.barrier();
            if ctx.is_last_in_group() {
                let v = ctx.lds_read(0);
                ctx.write(out, ctx.item(), v);
            }
        };
        let mut ex = WgExecutor::new(cfg.wavefront_size);
        let mut tally = LaunchTally::new(&mem);
        let p = params(&cfg, 4, 1, 2);
        ex.run(
            &kernel,
            LaneMem::Direct(&mut mem),
            &mut None,
            &p,
            0,
            WgWork::Items { start: 0, end: 2 },
            &mut tally,
        );
        // Without zeroing, item 1 would read 8.
        assert_eq!(mem.as_slice(&out), &[4, 4]);
    }

    #[test]
    #[should_panic(expected = "barriers must be workgroup-uniform")]
    fn divergent_barriers_panic() {
        let cfg = DeviceConfig::small_test();
        let mut mem = MemoryState::new();
        let kernel = |ctx: &mut LaneCtx| {
            if ctx.local_id() == 0 {
                ctx.barrier();
            }
        };
        let mut ex = WgExecutor::new(cfg.wavefront_size);
        let mut tally = LaunchTally::new(&mem);
        let p = params(&cfg, 4, 0, 4);
        ex.run(
            &kernel,
            LaneMem::Direct(&mut mem),
            &mut None,
            &p,
            0,
            WgWork::Range { start: 0, end: 4 },
            &mut tally,
        );
    }

    #[test]
    #[should_panic(expected = "lane 6 of workgroup 0 executed 1 barriers but lane 0 executed 0")]
    fn a_barrier_after_a_barrier_free_lane_0_panics() {
        // Lane 0 runs no barrier, so the first wave is folded early; the
        // stray barrier in the second wave must still be caught.
        let cfg = DeviceConfig::small_test();
        let mut mem = MemoryState::new();
        let kernel = |ctx: &mut LaneCtx| {
            ctx.alu(1);
            if ctx.local_id() == 6 {
                ctx.barrier();
            }
        };
        let mut ex = WgExecutor::new(cfg.wavefront_size);
        let mut tally = LaunchTally::new(&mem);
        let p = params(&cfg, 8, 0, 8);
        ex.run(
            &kernel,
            LaneMem::Direct(&mut mem),
            &mut None,
            &p,
            0,
            WgWork::Range { start: 0, end: 8 },
            &mut tally,
        );
    }

    #[test]
    fn multi_wave_workgroup_overlaps_on_simds() {
        let cfg = DeviceConfig::small_test(); // 2 SIMDs per CU
        let mut mem = MemoryState::new();
        let kernel = |ctx: &mut LaneCtx| {
            ctx.alu(8);
        };
        let mut ex = WgExecutor::new(cfg.wavefront_size);
        let mut tally = LaunchTally::new(&mem);
        // 8 lanes = 2 waves; each wave costs 8*2 = 16 cycles of ALU.
        let p = params(&cfg, 8, 0, 8);
        let o = ex.run(
            &kernel,
            LaneMem::Direct(&mut mem),
            &mut None,
            &p,
            0,
            WgWork::Range { start: 0, end: 8 },
            &mut tally,
        );
        assert_eq!(o.waves, 2);
        // max(16, (16+16)/2) = 16, not 32: the waves overlap.
        assert_eq!(o.service_cycles, 16);
    }
}
