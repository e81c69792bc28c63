//! Reference cost fold: a deliberately naive restatement of the per-step
//! charges in [`crate::wave`]'s module docs, used as the oracle for the
//! executor's recorder and fold.
//!
//! It works on plain per-lane `Vec<Op>` programs holding real addresses,
//! merges ALU runs, splits on barriers, rebuilds each step as a fresh vector
//! of ops, and attributes memory traffic by scanning the buffer list. Nothing
//! here is shared with the fast path except the L2 model itself.

use std::collections::BTreeMap;

use crate::cache::L2Cache;
use crate::config::DeviceConfig;
use crate::metrics::{BufferMemStats, Histogram, HotLine, HOT_LINES_TOP_K};
use crate::trace::Op;
use crate::wave::SegmentCost;
use crate::workgroup::WgOutcome;

/// Naive fold of whole workgroup instances, with its own tally.
pub(crate) struct Reference<'a> {
    cfg: &'a DeviceConfig,
    occupancy: u64,
    /// `(base address, name)` of every buffer, in allocation order.
    buffers: Vec<(u64, String)>,
    l2: Option<L2Cache>,
    pub outcome: WgOutcome,
    per_buffer: Vec<BufferMemStats>,
    atomic_lines: BTreeMap<u64, u64>,
    pub lane_occupancy: Histogram,
}

/// Issue-order group of an op, and its ALU count, address or LDS word.
fn classify(op: Op) -> (usize, u64) {
    match op {
        Op::Alu(n) => (0, n as u64),
        Op::GlobalRead { addr } => (1, addr),
        Op::GlobalWrite { addr } => (2, addr),
        Op::GlobalAtomic { addr } => (3, addr),
        Op::GlobalAtomicAgg { addr } => (4, addr),
        Op::LdsRead { word } => (5, word as u64),
        Op::LdsWrite { word } => (6, word as u64),
        Op::LdsAtomic { word } => (7, word as u64),
        Op::Barrier => unreachable!("segments hold no barriers"),
    }
}

/// Consecutive ALU ops merged (saturating), as one SIMT step.
fn merge_alu(ops: &[Op]) -> Vec<Op> {
    let mut out: Vec<Op> = Vec::new();
    for &op in ops {
        match (op, out.last_mut()) {
            (Op::Alu(n), Some(Op::Alu(m))) => *m = m.saturating_add(n),
            _ => out.push(op),
        }
    }
    out
}

impl<'a> Reference<'a> {
    pub fn new(cfg: &'a DeviceConfig, occupancy: u64, buffers: Vec<(u64, String)>) -> Self {
        let n = buffers.len();
        Self {
            cfg,
            occupancy,
            buffers,
            l2: L2Cache::from_config(cfg),
            outcome: WgOutcome::default(),
            per_buffer: vec![BufferMemStats::default(); n],
            atomic_lines: BTreeMap::new(),
            lane_occupancy: Histogram::new(),
        }
    }

    /// Buffer owning `addr`: the last one whose base is `<= addr`, else the
    /// first.
    fn owner(&self, addr: u64) -> usize {
        let mut id = 0;
        for (i, (base, _)) in self.buffers.iter().enumerate() {
            if *base <= addr {
                id = i;
            }
        }
        id
    }

    /// Charge a vector instruction to the plurality buffer of its lanes
    /// (ties go to the lowest buffer id).
    fn instruction(&mut self, addrs: &[u64], bump: fn(&mut BufferMemStats)) {
        let mut votes = vec![0u64; self.buffers.len()];
        for &a in addrs {
            votes[self.owner(a)] += 1;
        }
        let best = *votes.iter().max().unwrap();
        let winner = votes.iter().position(|&v| v == best).unwrap();
        bump(&mut self.per_buffer[winner]);
    }

    fn transaction(&mut self, addr: u64) {
        let owner = self.owner(addr);
        let b = &mut self.per_buffer[owner];
        b.transactions += 1;
        b.bytes_moved += self.cfg.cacheline_bytes;
    }

    /// Fold one workgroup instance; `lanes[local]` is lane `local`'s program.
    pub fn instance(&mut self, lanes: &[Vec<Op>]) {
        let ws = self.cfg.wavefront_size;
        let segments: Vec<Vec<Vec<Op>>> = lanes
            .iter()
            .map(|p| p.split(|o| *o == Op::Barrier).map(merge_alu).collect())
            .collect();
        let barriers = segments[0].len() - 1;
        for seg in 0..=barriers {
            let seg_lanes: Vec<&[Op]> = segments.iter().map(|l| &l[seg][..]).collect();
            let (mut max, mut sum) = (0u64, 0u64);
            for wave in seg_lanes.chunks(ws) {
                let cost = self.wave(wave);
                max = max.max(cost.cycles);
                sum += cost.cycles;
                self.outcome.cost.add(&cost);
            }
            self.outcome.service_cycles += max.max(sum.div_ceil(self.cfg.simds_per_cu as u64));
            if seg < barriers {
                self.outcome.service_cycles += self.cfg.barrier_cycles;
            }
        }
        self.outcome.waves += lanes.len().div_ceil(ws) as u64;
    }

    fn wave(&mut self, lanes: &[&[Op]]) -> SegmentCost {
        let cfg = self.cfg;
        let issue = cfg.wave_issue_cycles();
        let line = cfg.cacheline_bytes;
        let mut cost = SegmentCost::default();
        let steps = lanes.iter().map(|l| l.len()).max().unwrap_or(0);
        for step in 0..steps {
            let ops: Vec<Op> = lanes.iter().filter_map(|l| l.get(step).copied()).collect();
            self.lane_occupancy.record(ops.len() as u64);
            cost.steps += 1;
            cost.active_lane_ops += ops.len() as u64;
            cost.possible_lane_ops += cfg.wavefront_size as u64;
            // One group per op kind; each non-empty group issues in turn.
            let mut groups: [Vec<u64>; 8] = Default::default();
            for &op in &ops {
                let (group, value) = classify(op);
                groups[group].push(value);
            }
            if groups.iter().filter(|g| !g.is_empty()).count() > 1 {
                cost.divergent_steps += 1;
            }
            let [alu, reads, writes, atomics, aggregated, lds_reads, lds_writes, lds_atomics] =
                groups;
            if let Some(n) = alu.iter().max() {
                cost.cycles += n * issue;
            }
            for (addrs, is_read) in [(reads, true), (writes, false)] {
                if addrs.is_empty() {
                    continue;
                }
                if is_read {
                    self.instruction(&addrs, |b| b.read_instructions += 1);
                } else {
                    self.instruction(&addrs, |b| b.write_instructions += 1);
                }
                let mut lines: Vec<u64> = addrs.iter().map(|a| a / line).collect();
                lines.sort();
                lines.dedup();
                let hits: Vec<bool> = match self.l2.as_mut() {
                    Some(l2) => lines.iter().map(|&l| l2.access(l)).collect(),
                    None => Vec::new(),
                };
                // With the L2 on, a single miss exposes the full latency.
                let latency = if self.l2.is_some() && hits.iter().all(|&h| h) {
                    cfg.l2_hit_latency_cycles
                } else {
                    cfg.mem_latency_cycles
                };
                for (&l, &hit) in lines.iter().zip(&hits) {
                    let owner = self.owner(l * line);
                    let b = &mut self.per_buffer[owner];
                    if hit {
                        b.l2_hits += 1;
                        cost.l2_hits += 1;
                    } else {
                        b.l2_misses += 1;
                        cost.l2_misses += 1;
                    }
                }
                for &l in &lines {
                    self.transaction(l * line);
                }
                let tx = lines.len() as u64;
                cost.cycles += issue
                    + cfg.mem_issue_cycles
                    + (tx - 1) * cfg.mem_tx_cycles
                    + latency / self.occupancy;
                cost.mem_transactions += tx;
                cost.mem_instructions += 1;
            }
            for (addrs, agg) in [(atomics, false), (aggregated, true)] {
                if addrs.is_empty() {
                    continue;
                }
                self.instruction(&addrs, |b| b.atomic_instructions += 1);
                let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
                for &a in &addrs {
                    let owner = self.owner(a);
                    self.per_buffer[owner].atomic_lane_ops += 1;
                    *self.atomic_lines.entry(a / line).or_insert(0) += 1;
                    *counts.entry(a).or_insert(0) += 1;
                }
                // Plain atomics: one transaction per distinct line, same-address
                // lanes serialize. Aggregated: one transaction per distinct
                // address, never serialized, two issue slots for the scan.
                let tx_addrs: Vec<u64> = if agg {
                    counts.keys().copied().collect()
                } else {
                    let mut lines: Vec<u64> = counts.keys().map(|a| a / line * line).collect();
                    lines.dedup();
                    lines
                };
                for &a in &tx_addrs {
                    self.transaction(a);
                }
                cost.cycles += if agg {
                    2 * issue + cfg.mem_issue_cycles + cfg.atomic_latency_cycles
                } else {
                    issue
                        + cfg.mem_issue_cycles
                        + counts.values().max().unwrap() * cfg.atomic_latency_cycles
                };
                cost.mem_transactions += tx_addrs.len() as u64;
                cost.mem_instructions += 1;
                cost.global_atomics += addrs.len() as u64;
            }
            for (words, atomic) in [(lds_reads, false), (lds_writes, false), (lds_atomics, true)] {
                if words.is_empty() {
                    continue;
                }
                let mut per_key: BTreeMap<u64, BTreeMap<u64, u64>> = BTreeMap::new();
                for &w in &words {
                    // Atomics serialize per word; reads and writes per bank,
                    // counting each distinct word once (broadcast).
                    let key = if atomic { w } else { w % cfg.lds_banks as u64 };
                    *per_key.entry(key).or_default().entry(w).or_insert(0) += 1;
                }
                let degree = per_key
                    .values()
                    .map(|words| {
                        if atomic {
                            words.values().sum()
                        } else {
                            words.len() as u64
                        }
                    })
                    .max()
                    .unwrap();
                cost.cycles += issue + degree * cfg.lds_latency_cycles;
            }
        }
        cost
    }

    /// Per-buffer counters keyed by name, zero rows dropped.
    pub fn per_buffer_by_name(&self) -> BTreeMap<String, BufferMemStats> {
        let mut out: BTreeMap<String, BufferMemStats> = BTreeMap::new();
        for (b, (_, name)) in self.per_buffer.iter().zip(&self.buffers) {
            if *b != BufferMemStats::default() {
                out.entry(name.clone()).or_default().add(b);
            }
        }
        out
    }

    /// The top lines by atomic lane-ops, ties by lower address.
    pub fn top_hot_lines(&self) -> Vec<HotLine> {
        let mut lines: Vec<HotLine> = self
            .atomic_lines
            .iter()
            .map(|(&l, &ops)| HotLine {
                line_addr: l * self.cfg.cacheline_bytes,
                buffer: self.buffers[self.owner(l * self.cfg.cacheline_bytes)]
                    .1
                    .clone(),
                atomic_lane_ops: ops,
            })
            .collect();
        lines.sort_by_key(|h| (std::cmp::Reverse(h.atomic_lane_ops), h.line_addr));
        lines.truncate(HOT_LINES_TOP_K);
        lines
    }
}

mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::buffer::{Buffer, MemoryState};
    use crate::lane::{LaneCtx, LaneMem};
    use crate::metrics::LaunchTally;
    use crate::workgroup::{WgExecutor, WgParams, WgWork};

    const LDS_WORDS: usize = 16;

    /// SplitMix64, so one proptest seed draws a whole set of programs.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(state: &mut u64, n: usize) -> usize {
        (next(state) % n as u64) as usize
    }

    /// One lane's program: `barriers + 1` segments of up to six ops each.
    /// Indices come from a small window so lanes coalesce and collide.
    fn program(rng: &mut u64, bufs: &[Buffer<u32>], barriers: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        for seg in 0..=barriers {
            if seg > 0 {
                ops.push(Op::Barrier);
            }
            for _ in 0..below(rng, 7) {
                let buf = bufs[below(rng, bufs.len())];
                let addr = buf.addr_of(below(rng, buf.len().min(40)));
                let word = below(rng, LDS_WORDS) as u32;
                ops.push(match below(rng, 10) {
                    0 => Op::Alu(u32::MAX - 1),
                    1..=3 => Op::Alu(1 + below(rng, 4) as u32),
                    4 => Op::GlobalRead { addr },
                    5 => Op::GlobalWrite { addr },
                    6 => match below(rng, 2) {
                        0 => Op::GlobalAtomic { addr },
                        _ => Op::GlobalAtomicAgg { addr },
                    },
                    7 => Op::LdsRead { word },
                    8 => Op::LdsWrite { word },
                    _ => Op::LdsAtomic { word },
                });
            }
        }
        ops
    }

    /// One lockstep instruction of `lanes` lanes: a shared kind, with
    /// addresses broadcast, lane-strided (coalesced), scattered, or split
    /// between the tail of one buffer and the head of the next, and LDS
    /// words broadcast, strided or scattered.
    fn lockstep_op(rng: &mut u64, bufs: &[Buffer<u32>], lanes: usize) -> Vec<Op> {
        let kind = below(rng, 8);
        let mode = below(rng, 4);
        let buf = bufs[below(rng, bufs.len())];
        let (base, stride) = (below(rng, buf.len()), 1 + below(rng, 2));
        let pair = below(rng, bufs.len() - 1);
        let (lo, hi) = (bufs[pair], bufs[pair + 1]);
        let split = below(rng, lanes.min(lo.len()) + 1);
        let word = below(rng, LDS_WORDS);
        let count = 1 + below(rng, 4) as u32;
        (0..lanes)
            .map(|lane| {
                let addr = match mode {
                    0 => buf.addr_of(base),
                    1 => buf.addr_of((base + lane * stride) % buf.len()),
                    2 => buf.addr_of(below(rng, buf.len().min(40))),
                    _ if lane < split => lo.addr_of(lo.len() - split + lane),
                    _ => hi.addr_of((lane - split) % hi.len()),
                };
                let word = match mode {
                    0 => word,
                    1 => (word + lane * stride) % LDS_WORDS,
                    _ => below(rng, LDS_WORDS),
                } as u32;
                match kind {
                    0 if mode == 0 => Op::Alu(count),
                    0 => Op::Alu(1 + below(rng, 4) as u32),
                    1 => Op::GlobalRead { addr },
                    2 => Op::GlobalWrite { addr },
                    3 => Op::GlobalAtomic { addr },
                    4 => Op::GlobalAtomicAgg { addr },
                    5 => Op::LdsRead { word },
                    6 => Op::LdsWrite { word },
                    _ => Op::LdsAtomic { word },
                }
            })
            .collect()
    }

    /// Programs of one wave's `lanes` lanes in lockstep: each step is one
    /// [`lockstep_op`], and now and then the tail lanes leave the segment
    /// early, so uniform steps have any lane count.
    fn lockstep_wave(
        rng: &mut u64,
        bufs: &[Buffer<u32>],
        barriers: usize,
        lanes: usize,
    ) -> Vec<Vec<Op>> {
        let mut programs = vec![Vec::new(); lanes];
        for seg in 0..=barriers {
            if seg > 0 {
                for p in &mut programs {
                    p.push(Op::Barrier);
                }
            }
            let mut active = lanes;
            for _ in 0..below(rng, 7) {
                if below(rng, 4) == 0 {
                    active = 1 + below(rng, active);
                }
                for (p, op) in programs.iter_mut().zip(lockstep_op(rng, bufs, active)) {
                    p.push(op);
                }
            }
        }
        programs
    }

    /// Replays `op` through the lane context, locating its buffer by address.
    fn replay(ctx: &mut LaneCtx, bufs: &[Buffer<u32>], op: Op) {
        let locate = |addr: u64| {
            let b = *bufs.iter().rev().find(|b| b.base_addr <= addr).unwrap();
            (b, ((addr - b.base_addr) / 4) as usize)
        };
        match op {
            Op::Alu(n) => ctx.alu(n),
            Op::GlobalRead { addr } => {
                let (b, i) = locate(addr);
                ctx.read(b, i);
            }
            Op::GlobalWrite { addr } => {
                let (b, i) = locate(addr);
                ctx.write(b, i, 1);
            }
            Op::GlobalAtomic { addr } => {
                let (b, i) = locate(addr);
                ctx.atomic_max(b, i, 3);
            }
            Op::GlobalAtomicAgg { addr } => {
                let (b, i) = locate(addr);
                ctx.atomic_add_aggregated(b, i, 1);
            }
            Op::LdsRead { word } => {
                ctx.lds_read(word as usize);
            }
            Op::LdsWrite { word } => ctx.lds_write(word as usize, 1),
            Op::LdsAtomic { word } => {
                ctx.lds_atomic_add(word as usize, 1);
            }
            Op::Barrier => ctx.barrier(),
        }
    }

    /// Fold random programs through the executor and the reference and
    /// compare everything. `lockstep` draws one template per wave (see
    /// [`lockstep_wave`]); otherwise every lane's program is independent.
    fn check(
        seed: u64,
        barriers: usize,
        occupancy: u64,
        cfg: &DeviceConfig,
        items: bool,
        lockstep: bool,
    ) {
        let mut rng = seed;
        let mut mem = MemoryState::new();
        let bufs = [
            mem.alloc_named(vec![0u32; 48], "colors"),
            mem.alloc_named(vec![0u32; 200], "adj"),
            mem.alloc_named(vec![0u32; 8], "colors"),
        ];
        let ws = cfg.wavefront_size;
        let wg = ws * (1 + below(&mut rng, 2));
        // Two calls per case; the Range ones span several or partial groups.
        let works = if items {
            let k = 1 + below(&mut rng, 2);
            [
                WgWork::Items { start: 0, end: k },
                WgWork::Items {
                    start: k,
                    end: k + 2,
                },
            ]
        } else {
            let a = 1 + below(&mut rng, 2 * wg);
            let b = a + 1 + below(&mut rng, 2 * wg);
            [
                WgWork::Range { start: 0, end: a },
                WgWork::Range { start: a, end: b },
            ]
        };
        let lanes = match works[1] {
            WgWork::Items { end, .. } => end * wg,
            WgWork::Range { end, .. } => end,
        };
        let programs: Vec<Vec<Op>> = if lockstep {
            // The executor's waves: `ws`-lane slices of each instance.
            let mut waves = Vec::new();
            for work in works {
                let instances: Vec<(usize, usize)> = match work {
                    WgWork::Items { start, end } => {
                        (start..end).map(|i| (i * wg, (i + 1) * wg)).collect()
                    }
                    WgWork::Range { start, end } => (start..end)
                        .step_by(wg)
                        .map(|s| (s, (s + wg).min(end)))
                        .collect(),
                };
                for (s, e) in instances {
                    waves.extend((s..e).step_by(ws).map(|w| (w + ws).min(e) - w));
                }
            }
            waves
                .into_iter()
                .flat_map(|n| lockstep_wave(&mut rng, &bufs, barriers, n))
                .collect()
        } else {
            (0..lanes)
                .map(|_| program(&mut rng, &bufs, barriers))
                .collect()
        };

        let buffers: Vec<(u64, String)> = bufs
            .iter()
            .map(|b| (b.base_addr, mem.buffer_name(b.id).to_string()))
            .collect();
        let mut reference = Reference::new(cfg, occupancy, buffers);
        let kernel = |ctx: &mut LaneCtx| {
            let key = if items {
                ctx.item() * wg + ctx.local_id()
            } else {
                ctx.item()
            };
            for &op in &programs[key] {
                replay(ctx, &bufs, op);
            }
        };
        let params = WgParams {
            cfg,
            kernel_name: "replay",
            wg_size: wg,
            lds_words: LDS_WORDS,
            num_items: lanes,
            occupancy,
        };
        let mut executor = WgExecutor::new(cfg.wavefront_size);
        let mut tally = LaunchTally::new(&mem);
        let mut l2 = L2Cache::from_config(cfg);
        let mut outcome = WgOutcome::default();
        for (group, &work) in works.iter().enumerate() {
            let o = executor.run(
                &kernel,
                LaneMem::Direct(&mut mem),
                &mut l2,
                &params,
                group,
                work,
                &mut tally,
            );
            outcome.service_cycles += o.service_cycles;
            outcome.waves += o.waves;
            outcome.cost.add(&o.cost);
            match work {
                WgWork::Items { start, end } => {
                    for item in start..end {
                        reference.instance(&programs[item * wg..(item + 1) * wg]);
                    }
                }
                WgWork::Range { start, end } => {
                    for s in (start..end).step_by(wg) {
                        reference.instance(&programs[s..(s + wg).min(end)]);
                    }
                }
            }
        }
        assert_eq!(outcome, reference.outcome);
        assert_eq!(
            tally.per_buffer_by_name(&mem),
            reference.per_buffer_by_name()
        );
        assert_eq!(
            tally.top_hot_lines(&mem, cfg.cacheline_bytes),
            reference.top_hot_lines()
        );
        assert_eq!(tally.lane_occupancy, reference.lane_occupancy);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The executor's recorder and fold agree with the reference on
        /// random programs, independent per lane and lockstep per wave:
        /// both work styles, both wave sizes, L2 off and on.
        #[test]
        fn executor_matches_reference_fold(
            seed in any::<u64>(),
            barriers in 0usize..3,
            occupancy in 1u64..4,
        ) {
            for base in [DeviceConfig::small_test(), DeviceConfig::hd7950()] {
                for l2_lines in [0, 8] {
                    let mut cfg = base.clone();
                    cfg.l2_size_bytes = l2_lines * cfg.cacheline_bytes;
                    cfg.l2_ways = 2;
                    for lockstep in [false, true] {
                        check(seed, barriers, occupancy, &cfg, false, lockstep);
                        check(seed, barriers, occupancy, &cfg, true, lockstep);
                    }
                }
            }
        }
    }
}
