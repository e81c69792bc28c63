//! Kernel- and device-level performance counters.

use std::collections::BTreeMap;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::buffer::{BufferMap, MemoryState};
use crate::config::DeviceConfig;

/// Serde predicate keeping zero-valued optional counters out of the JSON,
/// so reports from runs that never touch a feature stay byte-identical to
/// reports from before the counter existed. (`dead_code` allowed because
/// the offline stub serde derive ignores `skip_serializing_if`.)
#[allow(dead_code)]
pub(crate) fn u64_is_zero(v: &u64) -> bool {
    *v == 0
}

/// Fraction `active / possible`, defined as 1.0 when `possible` is zero
/// (an empty launch wastes no lanes). Shared by every stats level.
pub fn utilization_of(active_lane_ops: u64, possible_lane_ops: u64) -> f64 {
    if possible_lane_ops == 0 {
        1.0
    } else {
        active_lane_ops as f64 / possible_lane_ops as f64
    }
}

/// Load imbalance across CUs: `max(busy) / mean(busy)`. 1.0 is perfectly
/// balanced (the paper's "load imbalance factor"). Shared by every stats
/// level.
///
/// Degenerate inputs are defined by convention, not computed:
///
/// * **Empty slice** (no CUs / no devices): returns 1.0. There is nothing
///   to be imbalanced against, and `NaN` would poison downstream
///   aggregation.
/// * **All-idle** (every entry 0): returns 1.0. An idle device is vacuously
///   balanced — but it is *not* evidence of good load distribution.
///
/// Consumers that need to distinguish "balanced under load" from "never
/// ran" must check activity separately (e.g. a nonzero busy total); this
/// function intentionally does not encode that distinction in its return
/// value.
pub fn imbalance_factor_of(busy_per_cu: &[u64]) -> f64 {
    let max = busy_per_cu.iter().copied().max().unwrap_or(0);
    let sum: u64 = busy_per_cu.iter().sum();
    if sum == 0 {
        1.0
    } else {
        max as f64 / (sum as f64 / busy_per_cu.len() as f64)
    }
}

/// Log2-bucketed distribution of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `k >= 1` holds `[2^(k-1), 2^k - 1]`.
/// Exact count/sum/min/max are kept alongside, so the mean is exact and
/// percentiles are accurate to within a power of two — plenty to tell a
/// balanced distribution from a heavy tail, at O(65) memory.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Bucket counts; trailing empty buckets are not stored.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Largest value stored in bucket `k`.
fn bucket_hi(k: usize) -> u64 {
    match k {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << k) - 1,
    }
}

/// Smallest value stored in bucket `k`.
fn bucket_lo(k: usize) -> u64 {
    if k == 0 {
        0
    } else {
        1u64 << (k - 1)
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let k = bucket_index(v);
        if self.buckets.len() <= k {
            self.buckets.resize(k + 1, 0);
        }
        self.buckets[k] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        // Saturate rather than overflow: a histogram of near-u64::MAX
        // samples keeps exact count/min/max and an approximate sum.
        self.sum = self.sum.saturating_add(v);
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (acc, &c) in self.buckets.iter_mut().zip(&other.buckets) {
            *acc += c;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at percentile `p` in `[0, 100]`: the upper bound of the bucket
    /// holding the `ceil(p/100 · count)`-th smallest sample, clamped to the
    /// observed max. 0 when empty.
    ///
    /// No intra-bucket interpolation is performed. Buckets are log2-sized
    /// (bucket 0 holds the value 0; bucket `k >= 1` holds
    /// `[2^(k-1), 2^k - 1]`), so the result is a conservative *upper bound*
    /// on the true order statistic: it can overshoot by at most a factor of
    /// two, and never exceeds the exact observed `max()`. Together with the
    /// exact `min()` this bounds every quantile by the recorded extremes:
    /// `min() <= percentile(p) <= max()` for all `p`, an invariant that
    /// survives [`Histogram::merge`] (merged quantiles stay within the
    /// union of the inputs' `[min, max]` ranges).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut cum = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_hi(k).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// The 99.9th percentile — the deep-tail view the log2 buckets exist
    /// for (stragglers that p99 still averages away on large counts).
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Non-empty buckets as `(lo, hi, count)`, smallest values first.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(k, &c)| (bucket_lo(k), bucket_hi(k), c))
    }
}

/// Per-buffer memory counters for one kernel launch (or an aggregate of
/// launches). The invariant maintained by the simulator: summing any field
/// over all buffers of a launch reproduces the corresponding
/// [`DeviceStats`] total of the launch exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferMemStats {
    /// Vector read instructions attributed to this buffer.
    pub read_instructions: u64,
    /// Vector write instructions attributed to this buffer.
    pub write_instructions: u64,
    /// Vector atomic instructions (plain and aggregated).
    pub atomic_instructions: u64,
    /// Coalesced transactions touching this buffer.
    pub transactions: u64,
    /// Bytes moved: `transactions × cacheline_bytes`.
    pub bytes_moved: u64,
    /// L2 hits on this buffer's lines (explicit-cache mode only).
    pub l2_hits: u64,
    /// L2 misses on this buffer's lines (explicit-cache mode only).
    pub l2_misses: u64,
    /// Atomic lane-operations landing in this buffer.
    pub atomic_lane_ops: u64,
}

impl BufferMemStats {
    /// Accumulate another buffer's (or launch's) counters.
    pub fn add(&mut self, o: &BufferMemStats) {
        self.read_instructions += o.read_instructions;
        self.write_instructions += o.write_instructions;
        self.atomic_instructions += o.atomic_instructions;
        self.transactions += o.transactions;
        self.bytes_moved += o.bytes_moved;
        self.l2_hits += o.l2_hits;
        self.l2_misses += o.l2_misses;
        self.atomic_lane_ops += o.atomic_lane_ops;
    }

    /// All vector memory instructions attributed to this buffer.
    pub fn instructions(&self) -> u64 {
        self.read_instructions + self.write_instructions + self.atomic_instructions
    }

    /// Coalescing efficiency: transactions per vector instruction. 1.0 is
    /// perfectly coalesced; `wavefront_size` is fully scattered.
    pub fn tx_per_instruction(&self) -> f64 {
        let instr = self.instructions();
        if instr == 0 {
            0.0
        } else {
            self.transactions as f64 / instr as f64
        }
    }

    fn is_zero(&self) -> bool {
        *self == BufferMemStats::default()
    }
}

/// How many hot cache lines each launch retains.
pub const HOT_LINES_TOP_K: usize = 8;

/// One contended cache line: atomic lane-operations observed on it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HotLine {
    /// Byte address of the cache line's first byte.
    pub line_addr: u64,
    /// Name of the buffer owning the line.
    pub buffer: String,
    /// Atomic lane-operations that landed on this line.
    pub atomic_lane_ops: u64,
}

/// Merge hot-line lists (by line address), keeping the top
/// [`HOT_LINES_TOP_K`] by atomic traffic. Per-launch lists are exact; merged
/// lists are top-K-of-top-K approximations, which is fine for spotting the
/// contended color/worklist lines this tracker exists for.
pub(crate) fn merge_hot_lines(into: &mut Vec<HotLine>, other: &[HotLine]) {
    for o in other {
        match into.iter_mut().find(|h| h.line_addr == o.line_addr) {
            Some(h) => h.atomic_lane_ops += o.atomic_lane_ops,
            None => into.push(o.clone()),
        }
    }
    into.sort_by(|a, b| {
        b.atomic_lane_ops
            .cmp(&a.atomic_lane_ops)
            .then(a.line_addr.cmp(&b.line_addr))
    });
    into.truncate(HOT_LINES_TOP_K);
}

/// Vector memory instruction classes for per-buffer attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessKind {
    Read,
    Write,
    Atomic,
}

/// Mutable per-launch attribution state, threaded through the wave fold.
///
/// Indexed by buffer id during the launch; reduced to name-keyed maps and
/// top-K lists when the launch's [`DeviceStats`] is assembled.
pub(crate) struct LaunchTally {
    map: BufferMap,
    /// The last range `map` resolved and its buffer id. Accesses cluster,
    /// so most lookups hit it and skip the binary search.
    last: (Range<u64>, u32),
    per_buffer: Vec<BufferMemStats>,
    /// Cache-line index → atomic lane-ops.
    atomic_lines: BTreeMap<u64, u64>,
    /// Active-lane count of every SIMT step.
    pub lane_occupancy: Histogram,
    /// Scratch for plurality voting: `(buffer id, lanes)`.
    votes: Vec<(u32, u64)>,
}

impl LaunchTally {
    pub fn new(mem: &MemoryState) -> Self {
        Self {
            map: mem.buffer_map(),
            last: (0..0, 0),
            per_buffer: vec![BufferMemStats::default(); mem.num_buffers()],
            atomic_lines: BTreeMap::new(),
            lane_occupancy: Histogram::new(),
            votes: Vec::new(),
        }
    }

    /// A tally with no buffers, for unit tests that fold raw op traces.
    #[cfg(test)]
    pub fn detached() -> Self {
        Self {
            map: BufferMap::default(),
            last: (0..0, 0),
            per_buffer: Vec::new(),
            atomic_lines: BTreeMap::new(),
            lane_occupancy: Histogram::new(),
            votes: Vec::new(),
        }
    }

    fn bucket(&mut self, id: u32) -> &mut BufferMemStats {
        &mut self.per_buffer[id as usize]
    }

    /// Buffer id owning `addr`, through the last resolved range.
    #[inline]
    fn owner(&mut self, addr: u64) -> Option<u32> {
        if self.last.0.contains(&addr) {
            return Some(self.last.1);
        }
        let (range, id) = self.map.resolve_range(addr)?;
        self.last = (range, id);
        Some(id)
    }

    /// Record one SIMT step's active-lane count.
    pub fn step(&mut self, active_lanes: u64) {
        self.lane_occupancy.record(active_lanes);
    }

    /// Attribute one vector memory instruction to the buffer accessed by the
    /// plurality of its lanes (ties break to the lowest buffer id, which is
    /// deterministic), keeping per-buffer instruction sums exact.
    /// `lane_addrs` must be sorted, so each buffer's lanes form one run.
    pub fn instruction(&mut self, kind: AccessKind, lane_addrs: &[u64]) {
        debug_assert!(lane_addrs.is_sorted());
        let (Some(&lo), Some(&hi)) = (lane_addrs.first(), lane_addrs.last()) else {
            return;
        };
        let Some(first) = self.owner(lo) else {
            return;
        };
        let winner = if self.last.0.contains(&hi) {
            first
        } else {
            self.votes.clear();
            for &a in lane_addrs {
                let Some(id) = self.owner(a) else {
                    return;
                };
                match self.votes.last_mut() {
                    Some((v, n)) if *v == id => *n += 1,
                    _ => self.votes.push((id, 1)),
                }
            }
            let Some(&(winner, _)) = self
                .votes
                .iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            else {
                return;
            };
            winner
        };
        let b = self.bucket(winner);
        match kind {
            AccessKind::Read => b.read_instructions += 1,
            AccessKind::Write => b.write_instructions += 1,
            AccessKind::Atomic => b.atomic_instructions += 1,
        }
    }

    /// Attribute `count` coalesced transactions moving `bytes` each, at
    /// distinct addresses from `first` to `last`, in one step when one
    /// buffer owns both ends (ownership is monotone in the address, so it
    /// owns every address between). Returns false, attributing nothing,
    /// when the ends fall in different buffers; a single transaction
    /// (`first == last`, `count` 1) is always attributed.
    pub fn transactions(&mut self, first: u64, last: u64, count: u64, bytes: u64) -> bool {
        match self.owner(first) {
            Some(id) if self.last.0.contains(&last) => {
                let b = self.bucket(id);
                b.transactions += count;
                b.bytes_moved += count * bytes;
                true
            }
            Some(_) => false,
            None => true,
        }
    }

    /// Attribute one L2 access on the line starting at `line_addr`.
    pub fn l2_access(&mut self, line_addr: u64, hit: bool) {
        if let Some(id) = self.owner(line_addr) {
            let b = self.bucket(id);
            if hit {
                b.l2_hits += 1;
            } else {
                b.l2_misses += 1;
            }
        }
    }

    /// Attribute `lanes` atomic lane-operations at `addr` and count them
    /// toward the hot-line tracker.
    pub fn atomic_lanes(&mut self, addr: u64, cacheline_bytes: u64, lanes: u64) {
        if let Some(id) = self.owner(addr) {
            self.bucket(id).atomic_lane_ops += lanes;
        }
        *self.atomic_lines.entry(addr / cacheline_bytes).or_insert(0) += lanes;
    }

    /// Add the counts of another tally of the same launch (another worker's
    /// share of its workgroups). Every count is a sum, so the result does
    /// not depend on how the workgroups were shared out.
    pub fn merge(&mut self, other: &LaunchTally) {
        for (a, b) in self.per_buffer.iter_mut().zip(&other.per_buffer) {
            a.add(b);
        }
        for (&line, &ops) in &other.atomic_lines {
            *self.atomic_lines.entry(line).or_insert(0) += ops;
        }
        self.lane_occupancy.merge(&other.lane_occupancy);
    }

    /// Reduce to the name-keyed per-buffer map (zero rows dropped; buffers
    /// sharing a name are merged).
    pub fn per_buffer_by_name(&self, mem: &MemoryState) -> BTreeMap<String, BufferMemStats> {
        let mut out: BTreeMap<String, BufferMemStats> = BTreeMap::new();
        for (id, b) in self.per_buffer.iter().enumerate() {
            if b.is_zero() {
                continue;
            }
            out.entry(mem.buffer_name(id as u32).to_string())
                .or_default()
                .add(b);
        }
        out
    }

    /// Reduce the full per-line atomic counts to the launch's top-K.
    pub fn top_hot_lines(&self, mem: &MemoryState, cacheline_bytes: u64) -> Vec<HotLine> {
        let mut lines: Vec<HotLine> = self
            .atomic_lines
            .iter()
            .map(|(&line, &ops)| {
                let addr = line * cacheline_bytes;
                HotLine {
                    line_addr: addr,
                    buffer: self
                        .map
                        .resolve(addr)
                        .map(|id| mem.buffer_name(id).to_string())
                        .unwrap_or_default(),
                    atomic_lane_ops: ops,
                }
            })
            .collect();
        lines.sort_by(|a, b| {
            b.atomic_lane_ops
                .cmp(&a.atomic_lane_ops)
                .then(a.line_addr.cmp(&b.line_addr))
        });
        lines.truncate(HOT_LINES_TOP_K);
        lines
    }
}

/// Summed statistics of kernel launches: one device's launches since
/// construction or the last reset, one kernel name's launches (the
/// [`DeviceStats::per_kernel`] entries), or several devices added together.
/// A single launch is one such record too ([`crate::Gpu::launch`] returns
/// it): `kernels_launched` 1, `total_cycles = max(busy_per_cu) +
/// launch_cycles`, `path_kernel_cycles = min(busy_per_cu)` and no
/// `per_kernel` entries. Records grow only through [`DeviceStats::merge`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Total wall cycles across all launches.
    pub total_cycles: u64,
    /// Number of kernel launches.
    pub kernels_launched: u64,
    /// Fixed launch overhead included in `total_cycles` (the critical-path
    /// "host" term).
    pub launch_cycles: u64,
    /// Workgroup executions across all launches.
    pub workgroups: u64,
    /// Wavefront executions across all launches.
    pub waves: u64,
    /// All-CUs-busy cycles summed across launches (critical-path "kernel"
    /// term: `min(busy_per_cu)` of each launch). Not recoverable from the
    /// summed `busy_per_cu`, so it accumulates launch by launch.
    #[serde(default)]
    pub path_kernel_cycles: u64,
    /// Host cycles charged by a sequential tail-cutover finish
    /// ([`crate::Gpu::charge_host_tail`]) — the critical-path `host_tail`
    /// term. Included in `total_cycles` but produced by no kernel launch;
    /// skipped when zero so runs without a cutover serialize exactly as
    /// before the term existed.
    #[serde(default, skip_serializing_if = "u64_is_zero")]
    pub path_host_tail_cycles: u64,
    /// Summed statistics per kernel name.
    pub per_kernel: BTreeMap<String, DeviceStats>,
    /// Per-CU busy cycles summed across launches.
    pub busy_per_cu: Vec<u64>,
    /// SIMT steps across all launches.
    pub steps: u64,
    /// Active lane-operations across all launches.
    pub active_lane_ops: u64,
    /// Possible lane-operations across all launches.
    pub possible_lane_ops: u64,
    /// Divergent SIMT steps across all launches.
    pub divergent_steps: u64,
    /// Coalesced memory transactions across all launches.
    pub mem_transactions: u64,
    /// Vector memory instructions across all launches.
    pub mem_instructions: u64,
    /// Global atomic lane-operations across all launches.
    pub global_atomics: u64,
    /// Work-stealing queue pops across all launches.
    pub steal_pops: u64,
    /// L2 hits across all launches (explicit-cache mode only).
    pub l2_hits: u64,
    /// L2 misses across all launches (explicit-cache mode only).
    pub l2_misses: u64,
    /// Per-buffer memory attribution summed across all launches.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub per_buffer: BTreeMap<String, BufferMemStats>,
    /// Top cache lines by atomic traffic, merged across all launches.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub hot_lines: Vec<HotLine>,
    /// Active lanes per SIMT step across all launches.
    #[serde(default, skip_serializing_if = "Histogram::is_empty")]
    pub lane_occupancy: Histogram,
    /// Service cycles per workgroup across all launches.
    #[serde(default, skip_serializing_if = "Histogram::is_empty")]
    pub wg_duration: Histogram,
    /// Steal-queue depth at pop time across all launches.
    #[serde(default, skip_serializing_if = "Histogram::is_empty")]
    pub steal_depth: Histogram,
}

impl DeviceStats {
    /// Account the record of one launch named `name`: into the totals and
    /// into its kernel's entry.
    pub(crate) fn absorb(&mut self, name: &str, launch: &DeviceStats) {
        self.per_kernel
            .entry(name.to_string())
            .or_default()
            .merge(launch);
        self.merge(launch);
    }

    /// Add `other` into this record: counters sum, `busy_per_cu` sums CU by
    /// CU, name-keyed maps merge entry by entry, and histograms and hot
    /// lines merge.
    pub fn merge(&mut self, other: &DeviceStats) {
        self.total_cycles += other.total_cycles;
        self.kernels_launched += other.kernels_launched;
        self.launch_cycles += other.launch_cycles;
        self.workgroups += other.workgroups;
        self.waves += other.waves;
        self.path_kernel_cycles += other.path_kernel_cycles;
        self.path_host_tail_cycles += other.path_host_tail_cycles;
        for (name, k) in &other.per_kernel {
            self.per_kernel.entry(name.clone()).or_default().merge(k);
        }
        if self.busy_per_cu.len() < other.busy_per_cu.len() {
            self.busy_per_cu.resize(other.busy_per_cu.len(), 0);
        }
        for (acc, &b) in self.busy_per_cu.iter_mut().zip(&other.busy_per_cu) {
            *acc += b;
        }
        self.steps += other.steps;
        self.active_lane_ops += other.active_lane_ops;
        self.possible_lane_ops += other.possible_lane_ops;
        self.divergent_steps += other.divergent_steps;
        self.mem_transactions += other.mem_transactions;
        self.mem_instructions += other.mem_instructions;
        self.global_atomics += other.global_atomics;
        self.steal_pops += other.steal_pops;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        for (name, b) in &other.per_buffer {
            self.per_buffer.entry(name.clone()).or_default().add(b);
        }
        merge_hot_lines(&mut self.hot_lines, &other.hot_lines);
        self.lane_occupancy.merge(&other.lane_occupancy);
        self.wg_duration.merge(&other.wg_duration);
        self.steal_depth.merge(&other.steal_depth);
    }

    /// Critical-path decomposition of the launches' cycles into `(kernel,
    /// tail, host)`, summed over the launches. Per launch, **kernel** is the
    /// window where every CU is busy (`min(busy_per_cu)`), **tail** the
    /// straggler window where some CUs have drained (`max - min`), and
    /// **host** the fixed launch overhead. Only `kernel` is stored: `host`
    /// is `launch_cycles`, and since every launch satisfies `total =
    /// max(busy) + launch`, `tail` is whatever of `total_cycles` the other
    /// terms and `host_tail` leave.
    pub fn path_components(&self) -> (u64, u64, u64) {
        let accounted = self.path_kernel_cycles + self.launch_cycles + self.path_host_tail_cycles;
        debug_assert!(
            self.total_cycles >= accounted,
            "total_cycles {} below kernel + launch + host_tail {accounted}: a cycle charge \
             bypassed absorb/charge_host_tail",
            self.total_cycles
        );
        let tail = self.total_cycles.saturating_sub(accounted);
        (self.path_kernel_cycles, tail, self.launch_cycles)
    }

    /// Total time in milliseconds at the device clock.
    pub fn total_ms(&self, cfg: &DeviceConfig) -> f64 {
        cfg.cycles_to_ms(self.total_cycles)
    }

    /// Cumulative imbalance factor across all launches.
    pub fn imbalance_factor(&self) -> f64 {
        imbalance_factor_of(&self.busy_per_cu)
    }

    /// Cumulative SIMD utilization across all launches, in `[0, 1]`.
    pub fn simd_utilization(&self) -> f64 {
        utilization_of(self.active_lane_ops, self.possible_lane_ops)
    }

    /// Cumulative L2 hit rate in `[0, 1]`, or `None` when the explicit cache
    /// saw no traffic.
    pub fn l2_hit_rate(&self) -> Option<f64> {
        let total = self.l2_hits + self.l2_misses;
        (total > 0).then(|| self.l2_hits as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A launch record obeying the scheduler invariant `total = max(busy) +
    /// launch`.
    fn stats(busy: Vec<u64>) -> DeviceStats {
        DeviceStats {
            kernels_launched: 1,
            workgroups: 2,
            waves: 4,
            total_cycles: busy.iter().copied().max().unwrap_or(0) + 10,
            launch_cycles: 10,
            path_kernel_cycles: busy.iter().copied().min().unwrap_or(0),
            busy_per_cu: busy,
            steps: 10,
            active_lane_ops: 30,
            possible_lane_ops: 40,
            mem_transactions: 5,
            mem_instructions: 5,
            global_atomics: 1,
            l2_hits: 3,
            l2_misses: 1,
            ..Default::default()
        }
    }

    #[test]
    fn utilization_and_imbalance() {
        let s = stats(vec![10, 30]);
        assert!((s.simd_utilization() - 0.75).abs() < 1e-12);
        // max 30, mean 20 => 1.5
        assert!((s.imbalance_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zero_skip_predicate() {
        // The serde predicate behind the skip-at-zero optional counters.
        assert!(super::u64_is_zero(&0));
        assert!(!super::u64_is_zero(&1));
    }

    #[test]
    fn balanced_is_one() {
        let s = stats(vec![20, 20]);
        assert!((s.imbalance_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_busy_is_one() {
        let s = stats(vec![]);
        assert!((s.imbalance_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn device_stats_aggregate_by_name() {
        let mut d = DeviceStats::default();
        d.absorb("k", &stats(vec![10, 30]));
        d.absorb("k", &stats(vec![5, 5]));
        assert_eq!(d.kernels_launched, 2);
        assert_eq!(d.total_cycles, 55);
        let agg = &d.per_kernel["k"];
        assert_eq!(agg.kernels_launched, 2);
        assert_eq!(agg.total_cycles, 55);
        assert!(agg.per_kernel.is_empty());
        assert_eq!(d.busy_per_cu, vec![15, 35]);
        assert_eq!(agg.busy_per_cu, vec![15, 35]);
        assert_eq!(agg.launch_cycles, 20);
        // max 35, mean 25 => 1.4
        assert!((agg.imbalance_factor() - 1.4).abs() < 1e-12);
        assert!((agg.simd_utilization() - 0.75).abs() < 1e-12);
        // Device-level totals mirror the per-kernel sums.
        assert_eq!(d.steps, 20);
        assert_eq!(d.active_lane_ops, 60);
        assert_eq!(d.possible_lane_ops, 80);
        assert_eq!(d.mem_transactions, 10);
        assert_eq!(d.global_atomics, 2);
        assert_eq!((d.l2_hits, d.l2_misses), (6, 2));
        assert!((d.simd_utilization() - 0.75).abs() < 1e-12);
        assert!((d.l2_hit_rate().unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(agg.steps, 20);
        assert_eq!(agg.mem_instructions, 10);
        assert_eq!(agg.divergent_steps, 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        // 0 | 1 | [2,3] | [4,7] | [8,15] | [512,1023]
        assert_eq!(
            buckets,
            vec![
                (0, 0, 1),
                (1, 1, 1),
                (2, 3, 2),
                (4, 7, 2),
                (8, 15, 1),
                (512, 1023, 1),
            ]
        );
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1025);
        assert_eq!((h.min(), h.max()), (0, 1000));
    }

    #[test]
    fn histogram_percentiles_walk_buckets() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Rank 50 lives in bucket [32,63]; rank 95 and 99 in [64,127],
        // clamped to the observed max of 100.
        assert_eq!(h.p50(), 63);
        assert_eq!(h.p95(), 100);
        assert_eq!(h.p99(), 100);
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(100.0), 100);
        assert!((h.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn path_components_split_min_tail_launch() {
        let s = stats(vec![10, 30]);
        // kernel = min busy, tail = max - min, host = launch overhead.
        assert_eq!(s.path_components(), (10, 20, 10));
        // Zero-workgroup launch: the whole wall is launch overhead.
        let empty = stats(vec![]);
        assert_eq!(empty.path_components(), (0, 0, 10));
    }

    #[test]
    fn path_counters_accumulate_per_launch() {
        let launches = [stats(vec![10, 30]), stats(vec![20, 5]), stats(vec![])];
        let mut d = DeviceStats::default();
        let mut summed = (0, 0, 0);
        for s in &launches {
            d.absorb("k", s);
            let (kernel, tail, host) = s.path_components();
            summed = (summed.0 + kernel, summed.1 + tail, summed.2 + host);
        }
        // (10, 20, 10) + (5, 15, 10) + (0, 0, 10): the derived tail and host
        // match the launch-by-launch sums, for the device and the kernel.
        assert_eq!(summed, (15, 35, 30));
        assert_eq!(d.path_components(), summed);
        assert_eq!(d.per_kernel["k"].path_components(), summed);
        // A host-tail charge lands in the total but moves no other term.
        d.total_cycles += 7;
        d.path_host_tail_cycles += 7;
        assert_eq!(d.path_components(), summed);
        // The per-launch minimum is NOT recoverable from the aggregated
        // busy_per_cu sums ([30, 35] -> min 30, but the true kernel term
        // is 10 + 5 = 15): the counters must accumulate launch-by-launch.
        assert_ne!(
            d.path_kernel_cycles,
            d.busy_per_cu.iter().copied().min().unwrap()
        );
    }

    #[test]
    fn histogram_single_sample_pins_all_percentiles() {
        let mut h = Histogram::new();
        h.record(37);
        assert_eq!(h.count(), 1);
        for p in [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 37, "p{p}");
        }
        assert_eq!((h.min(), h.max()), (37, 37));
        assert_eq!(h.mean(), 37.0);
    }

    #[test]
    fn histogram_empty_percentiles_are_zero_at_every_rank() {
        let h = Histogram::new();
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 0, "p{p}");
        }
        assert_eq!((h.min(), h.max()), (0, 0));
    }

    #[test]
    fn histogram_top_bucket_saturation_clamps_to_max() {
        // Every sample in the top (k = 64) bucket: bucket_hi is u64::MAX,
        // so percentiles must clamp to the observed max, not overflow.
        let mut h = Histogram::new();
        for v in [u64::MAX - 2, u64::MAX - 1, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.p50(), u64::MAX);
        assert_eq!(h.p99(), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        // A single huge outlier above small samples also clamps.
        let mut h = Histogram::new();
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.p99(), u64::MAX);
        assert_eq!(h.p50(), 1);
    }

    #[test]
    fn histogram_percentiles_are_monotone() {
        // p50 <= p95 <= p99 for a spread of shapes, including heavy tails
        // and all-equal distributions.
        let shapes: Vec<Vec<u64>> = vec![
            (1..=100).collect(),
            vec![7; 50],
            vec![0, 0, 0, 1_000_000],
            (0..64).map(|k| 1u64 << k).collect(),
        ];
        for samples in shapes {
            let mut h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            assert!(h.p50() <= h.p95(), "{samples:?}");
            assert!(h.p95() <= h.p99(), "{samples:?}");
            assert!(h.p99() <= h.max(), "{samples:?}");
            assert!(h.min() <= h.p50(), "{samples:?}");
        }
    }

    #[test]
    fn histogram_empty_and_merge() {
        let empty = Histogram::new();
        assert!(empty.is_empty());
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.mean(), 0.0);

        let mut a = Histogram::new();
        a.record(4);
        a.record(5);
        let mut b = Histogram::new();
        b.record(1_000_000);
        a.merge(&b);
        a.merge(&empty);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1_000_009);
        assert_eq!((a.min(), a.max()), (4, 1_000_000));
        assert_eq!(a.p99(), 1_000_000);

        let mut c = Histogram::new();
        c.merge(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn histogram_p999_reaches_deeper_than_p99() {
        // 998 small samples plus one huge outlier: rank 990 (p99 of 999)
        // still lands in the small bucket, rank 999 (p99.9: ceil of
        // 998.001) reaches the outlier.
        let mut h = Histogram::new();
        for _ in 0..998 {
            h.record(3);
        }
        h.record(1 << 40);
        assert_eq!(h.p99(), 3);
        assert_eq!(h.p999(), 1 << 40);
        assert!(h.p99() <= h.p999() && h.p999() <= h.max());
    }

    #[test]
    fn histogram_merge_bounds_quantiles_by_input_extremes() {
        // Property-style pin of merge + quantile semantics: for many
        // deterministic pseudo-random shape pairs, the merged histogram's
        // quantiles stay within [min(a.min, b.min), max(a.max, b.max)],
        // quantiles are monotone in p, counts/sums add exactly, and merge
        // is commutative. SplitMix64 keeps the generator dependency-free.
        fn splitmix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        let quantiles = [0.0, 1.0, 50.0, 95.0, 99.0, 99.9, 100.0];
        for seed in 0..32u64 {
            let mut s = seed;
            let build = |s: &mut u64| {
                let mut h = Histogram::new();
                let n = 1 + (splitmix(s) % 200) as usize;
                // Shift the magnitude range per histogram so the two inputs
                // often occupy disjoint bucket ranges. At least 16 bits keep
                // samples <= 2^48, so a few hundred sum without overflow.
                let shift = 16 + (splitmix(s) % 32) as u32;
                for _ in 0..n {
                    h.record(splitmix(s) >> shift);
                }
                h
            };
            let a = build(&mut s);
            let b = build(&mut s);
            let mut merged = a.clone();
            merged.merge(&b);
            assert_eq!(merged.count(), a.count() + b.count());
            assert_eq!(merged.sum(), a.sum() + b.sum());
            assert_eq!(merged.min(), a.min().min(b.min()), "seed {seed}");
            assert_eq!(merged.max(), a.max().max(b.max()), "seed {seed}");
            let mut prev = 0u64;
            for &p in &quantiles {
                let q = merged.percentile(p);
                assert!(
                    merged.min() <= q && q <= merged.max(),
                    "seed {seed}: p{p} = {q} escapes [{}, {}]",
                    merged.min(),
                    merged.max()
                );
                assert!(q >= prev, "seed {seed}: quantiles must be monotone");
                prev = q;
            }
            // Commutativity: merging in the other order is identical.
            let mut other = b.clone();
            other.merge(&a);
            assert_eq!(other, merged, "seed {seed}");
        }
    }

    #[test]
    fn shared_metric_helpers() {
        assert_eq!(utilization_of(0, 0), 1.0);
        assert_eq!(utilization_of(3, 4), 0.75);
        assert_eq!(imbalance_factor_of(&[]), 1.0);
        assert_eq!(imbalance_factor_of(&[0, 0]), 1.0);
        assert_eq!(imbalance_factor_of(&[10, 30]), 1.5);
    }

    #[test]
    fn hot_line_merge_is_top_k() {
        let mut into = vec![HotLine {
            line_addr: 256,
            buffer: "colors".into(),
            atomic_lane_ops: 10,
        }];
        let other: Vec<HotLine> = (0..10)
            .map(|i| HotLine {
                line_addr: 256 + 64 * i,
                buffer: "colors".into(),
                atomic_lane_ops: i,
            })
            .collect();
        merge_hot_lines(&mut into, &other);
        assert_eq!(into.len(), HOT_LINES_TOP_K);
        // The 256 line merged: 10 + 0 = 10, still the hottest.
        assert_eq!(into[0].line_addr, 256);
        assert_eq!(into[0].atomic_lane_ops, 10);
        // Descending by traffic afterwards.
        for w in into.windows(2) {
            assert!(w[0].atomic_lane_ops >= w[1].atomic_lane_ops);
        }
    }

    #[test]
    fn tally_attributes_by_plurality_and_merges_names() {
        let mut mem = MemoryState::new();
        let a = mem.alloc_named(vec![0u32; 64], "a");
        let b = mem.alloc_named(vec![0u32; 64], "b");
        let b2 = mem.alloc_named(vec![0u32; 64], "b");
        let mut t = LaunchTally::new(&mem);

        // 3 lanes in `a`, 1 in `b`: instruction goes to `a`.
        t.instruction(
            AccessKind::Read,
            &[a.addr_of(0), a.addr_of(1), a.addr_of(2), b.addr_of(0)],
        );
        // 2-2 tie between a (id 0) and b2 (id 2): lowest id wins.
        t.instruction(
            AccessKind::Write,
            &[a.addr_of(0), a.addr_of(1), b2.addr_of(0), b2.addr_of(1)],
        );
        t.transactions(a.addr_of(0), a.addr_of(0), 1, 64);
        t.transactions(b.addr_of(0), b.addr_of(0), 1, 64);
        t.transactions(b2.addr_of(0), b2.addr_of(0), 1, 64);
        t.l2_access(a.addr_of(0), true);
        t.l2_access(b.addr_of(0), false);
        t.atomic_lanes(b.addr_of(0), 64, 1);
        t.atomic_lanes(b.addr_of(0), 64, 1);
        t.instruction(AccessKind::Atomic, &[b.addr_of(0), b.addr_of(0)]);

        let by_name = t.per_buffer_by_name(&mem);
        assert_eq!(by_name.len(), 2);
        let sa = &by_name["a"];
        assert_eq!(sa.read_instructions, 1);
        assert_eq!(sa.write_instructions, 1);
        assert_eq!(sa.transactions, 1);
        assert_eq!(sa.bytes_moved, 64);
        assert_eq!(sa.l2_hits, 1);
        let sb = &by_name["b"];
        // The two same-named buffers merged: b tx + b2 tx.
        assert_eq!(sb.transactions, 2);
        assert_eq!(sb.atomic_lane_ops, 2);
        assert_eq!(sb.atomic_instructions, 1);
        assert_eq!(sb.l2_misses, 1);

        let hot = t.top_hot_lines(&mem, 64);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].buffer, "b");
        assert_eq!(hot[0].atomic_lane_ops, 2);
        assert_eq!(hot[0].line_addr, b.addr_of(0));
    }
    #[test]
    fn imbalance_factor_of_empty_slice_is_one_by_convention() {
        // No CUs at all: defined as 1.0 (not NaN) so aggregation stays
        // finite. See the function docs — this is NOT "balanced under
        // load"; callers must check activity separately.
        assert_eq!(imbalance_factor_of(&[]), 1.0);
    }

    #[test]
    fn imbalance_factor_of_all_idle_is_one_by_convention() {
        // Every CU idle: vacuously balanced, defined as 1.0 rather than
        // 0/0. A consumer that wants "did this device do anything" must
        // look at the busy totals, not the imbalance factor.
        assert_eq!(imbalance_factor_of(&[0, 0, 0]), 1.0);
        assert_eq!(imbalance_factor_of(&[0]), 1.0);
    }

    #[test]
    fn imbalance_factor_of_loaded_slices() {
        assert_eq!(imbalance_factor_of(&[10, 10, 10]), 1.0);
        // max 30, mean 20 -> 1.5; zeros count toward the mean.
        assert!((imbalance_factor_of(&[30, 10, 20]) - 1.5).abs() < 1e-12);
        assert!((imbalance_factor_of(&[40, 0]) - 2.0).abs() < 1e-12);
    }
}
