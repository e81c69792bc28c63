//! Simulated multi-GPU substrate: N independent devices plus an
//! inter-device link.
//!
//! [`MultiGpu`] owns one [`Gpu`] per device, all sharing a single
//! [`DeviceConfig`]. The devices are independent simulators with their own
//! memory, counters, and timelines; the substrate adds what single-device
//! simulation lacks:
//!
//! * a **link model** ([`LinkConfig`]) charging boundary-color exchanges a
//!   fixed latency plus a bandwidth term (`bytes / bytes_per_cycle`);
//! * a **superstep clock**: devices execute rounds concurrently, so wall
//!   time per round is the *maximum* of the per-device round times (the
//!   straggler), not the sum — [`MultiGpu::begin_step`] /
//!   [`MultiGpu::end_step`] bracket a round and accumulate the critical
//!   path, and link transfers extend it;
//! * **exchange/compute overlap**: [`MultiGpu::begin_overlap_step`] /
//!   [`MultiGpu::queue_transfer`] / [`MultiGpu::end_overlap_step`] model a
//!   round whose link traffic runs concurrently with the compute launched
//!   inside the step — the round costs `max(compute, exchange)` instead of
//!   `compute + exchange`, and the hidden/exposed split of every link
//!   cycle is tracked so reports can state the overlap efficiency;
//! * one record of the machine-level counters, [`MultiGpu::stats`]
//!   ([`MultiDeviceStats`]), kept beside each device's own
//!   [`crate::DeviceStats`] the way [`Gpu::stats`] is kept beside its
//!   launches.
//!
//! The host simulates a superstep's devices the way the model runs them:
//! concurrently. [`MultiGpu::each_device`] runs one piece of work per
//! device on up to `available_parallelism()` scoped host threads, unless a
//! profiler is attached to any device; then it runs them in device order
//! on the calling thread, because the `Rc`-shared sinks cannot cross
//! threads and observed runs keep their event order and live host timing.
//! A device running beside others gets `max(1, P / devices)` workers for
//! its launches that declare independent groups (`P` is
//! `available_parallelism()`), so the two levels together never run more
//! than `P` simulation threads at once.
//! Both orders give the same results. Devices share no memory, counters
//! or L2, every kernel captures only its own device's buffer handles, and
//! the superstep clock reads each device's cycles only after the work has
//! joined.
//!
//! Everything stays deterministic: the same inputs replay to identical
//! cycle counts, byte counts, and statistics.

use serde::{Deserialize, Serialize};

use crate::config::DeviceConfig;
use crate::gpu::{host_threads, Gpu, LaunchView, Launcher};

/// Inter-device link parameters. Defaults model a PCIe-class interconnect
/// relative to the simulated 800 MHz device clock: ~1 µs latency per
/// message and 16 bytes per device cycle (~12.8 GB/s).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Fixed cycles per transfer (latency, software stack, sync).
    pub latency_cycles: u64,
    /// Payload bytes moved per device cycle once streaming.
    pub bytes_per_cycle: u64,
}

impl LinkConfig {
    /// PCIe-class default used by the multi-device experiments.
    pub fn pcie() -> Self {
        Self {
            latency_cycles: 800,
            bytes_per_cycle: 16,
        }
    }

    /// A fast NVLink/xGMI-class link: lower latency, 4x the bandwidth.
    pub fn fast() -> Self {
        Self {
            latency_cycles: 200,
            bytes_per_cycle: 64,
        }
    }

    /// Cycles one transfer of `bytes` occupies the link.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        self.latency_cycles + bytes.div_ceil(self.bytes_per_cycle.max(1))
    }

    /// Check internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.bytes_per_cycle == 0 {
            return Err("link bytes_per_cycle must be positive".into());
        }
        Ok(())
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::pcie()
    }
}

/// What a superstep (or serialized transfer) spent its wall time on.
/// The labels drive the critical-path decomposition: every cycle the
/// multi-device wall clock advances is charged to exactly one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepKind {
    /// Plain superstep closed by [`MultiGpu::end_step`]: boundary
    /// assignment / conflict settling, charged at the straggler.
    Settle,
    /// Plain superstep closed by [`MultiGpu::end_interior_step`]:
    /// interior compute with no concurrent exchange.
    Interior,
    /// Overlap superstep: interior compute with exchange running
    /// concurrently; charged `max(compute, exchange)`.
    Overlap,
    /// Serialized link transfer outside any step (fully exposed).
    Transfer,
    /// Host-side sequential tail-cutover finish charged by
    /// [`MultiGpu::charge_host_tail`]: every device idles while the CPU
    /// colors the residual frontier.
    HostTail,
}

impl StepKind {
    /// Human-readable label, used by trace and report rendering.
    pub fn label(self) -> &'static str {
        match self {
            StepKind::Settle => "settle",
            StepKind::Interior => "interior",
            StepKind::Overlap => "overlap",
            StepKind::Transfer => "transfer",
            StepKind::HostTail => "host-tail",
        }
    }
}

/// One entry of the superstep log: what happened, when it started on the
/// wall clock, how long each device was busy inside it, and what it added
/// to the wall. `start` values are contiguous (`start + charged` of one
/// span is the `start` of the next), so the log tiles the wall clock
/// exactly — the raw material for phase traces and per-step attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepSpan {
    /// What this span spent its time on.
    pub kind: StepKind,
    /// Wall cycle at which the span began.
    pub start: u64,
    /// Per-device busy cycles inside the span (all zero for transfers).
    pub device_cycles: Vec<u64>,
    /// Link cycles active during the span (queued exchange for overlap
    /// steps, the message itself for transfers, 0 for plain steps).
    pub exchange_cycles: u64,
    /// Cycles this span added to the wall clock.
    pub charged: u64,
}

/// Machine-level counters of a multi-device run: the superstep clock and
/// the link. Per-device counters stay in each device's
/// [`crate::DeviceStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MultiDeviceStats {
    /// Modeled wall cycles along the critical path: per superstep the
    /// slowest device, plus the serialized link transfers.
    pub wall_cycles: u64,
    /// Cycles spent in link transfers (included in `wall_cycles`).
    pub link_cycles: u64,
    /// Payload bytes moved over the link.
    pub link_bytes: u64,
    /// Number of link transfers (messages).
    pub link_transfers: u64,
    /// Supersteps executed.
    pub steps: u64,
    /// How many of `steps` were overlap steps (exchange concurrent with
    /// compute).
    pub overlap_steps: u64,
    /// Link cycles hidden behind concurrent compute in overlap steps.
    pub exchange_hidden_cycles: u64,
    /// Link cycles exposed on the wall clock: serialized transfers plus
    /// the part of overlap-step exchanges that outlasted the compute.
    pub exchange_exposed_cycles: u64,
    /// Wall cycles charged by [`StepKind::Settle`] steps (boundary
    /// assignment / conflict settling stragglers).
    pub settle_step_cycles: u64,
    /// Wall cycles charged to interior compute: the straggler of
    /// [`StepKind::Interior`] steps plus the compute term of
    /// [`StepKind::Overlap`] steps. The critical-path identity
    /// `settle_step_cycles + interior_compute_cycles +
    /// exchange_exposed_cycles + host_tail_cycles == wall_cycles` holds
    /// exactly (`host_tail_cycles` is zero unless a cutover ran).
    pub interior_compute_cycles: u64,
    /// Wall cycles charged to the sequential tail-cutover host finish
    /// ([`StepKind::HostTail`] spans).
    pub host_tail_cycles: u64,
}

impl MultiDeviceStats {
    /// Critical-path components as `(settle, interior, exchange_exposed)`.
    /// Together with `host_tail_cycles` their sum equals `wall_cycles`
    /// exactly at every step boundary.
    pub fn path_components(&self) -> (u64, u64, u64) {
        (
            self.settle_step_cycles,
            self.interior_compute_cycles,
            self.exchange_exposed_cycles,
        )
    }

    /// Fraction of link cycles hidden behind concurrent compute, in
    /// `[0, 1]`. 1.0 when the link was never used (nothing to hide).
    /// `exchange_hidden_cycles + exchange_exposed_cycles == link_cycles`
    /// always holds.
    pub fn overlap_efficiency(&self) -> f64 {
        if self.link_cycles == 0 {
            1.0
        } else {
            self.exchange_hidden_cycles as f64 / self.link_cycles as f64
        }
    }
}

/// N simulated GPUs sharing one [`DeviceConfig`], plus the link between
/// them and the superstep clock.
pub struct MultiGpu {
    devices: Vec<Gpu>,
    link: LinkConfig,
    stats: MultiDeviceStats,
    /// Superstep log: one span per closed step or serialized transfer.
    step_log: Vec<StepSpan>,
    /// Per-device `total_cycles` snapshot taken at [`MultiGpu::begin_step`].
    step_base: Option<Vec<u64>>,
    /// Whether the open step is an overlap step, and the link cycles
    /// queued on it so far.
    overlap_open: bool,
    pending_exchange_cycles: u64,
}

impl MultiGpu {
    /// Create `n` devices of identical configuration joined by `link`.
    /// Panics on an invalid configuration or `n == 0`.
    pub fn new(n: usize, cfg: DeviceConfig, link: LinkConfig) -> Self {
        assert!(n > 0, "a MultiGpu needs at least one device");
        link.validate()
            .unwrap_or_else(|e| panic!("invalid link config: {e}"));
        Self {
            devices: (0..n).map(|_| Gpu::new(cfg.clone())).collect(),
            link,
            stats: MultiDeviceStats::default(),
            step_log: Vec::new(),
            step_base: None,
            overlap_open: false,
            pending_exchange_cycles: 0,
        }
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// The shared device configuration.
    pub fn config(&self) -> &DeviceConfig {
        self.devices[0].config()
    }

    /// The link configuration.
    pub fn link(&self) -> &LinkConfig {
        &self.link
    }

    /// Borrow one device mutably (for allocations and launches).
    pub fn device(&mut self, i: usize) -> &mut Gpu {
        &mut self.devices[i]
    }

    /// Borrow one device immutably (for read-backs and stats).
    pub fn device_ref(&self, i: usize) -> &Gpu {
        &self.devices[i]
    }

    /// Iterate the devices mutably, e.g. to attach profilers.
    pub fn devices_mut(&mut self) -> impl Iterator<Item = &mut Gpu> {
        self.devices.iter_mut()
    }

    /// Run `work(p, device)` once for every device `p`. With no profiler
    /// attached anywhere, the devices are split into contiguous chunks run
    /// on `min(devices, available_parallelism())` scoped host threads (the
    /// calling thread takes the first chunk), each device's launches with
    /// `max(1, available_parallelism() / devices)` workers. With a profiler
    /// attached, they run in device order on the calling thread. Either
    /// way each device ends in the same state, since devices share nothing.
    pub fn each_device<F>(&mut self, work: F)
    where
        F: Fn(usize, &mut dyn Launcher) + Sync,
    {
        if self.devices.iter().any(Gpu::observed) {
            for (p, gpu) in self.devices.iter_mut().enumerate() {
                work(p, gpu);
            }
            return;
        }
        let devices = self.devices.len();
        let threads = host_threads().min(devices);
        let chunk = devices.div_ceil(threads);
        let workers = (host_threads() / devices).max(1);
        let mut views: Vec<LaunchView<'_>> = self
            .devices
            .iter_mut()
            .map(|gpu| gpu.launch_view(workers))
            .collect();
        let work = &work;
        let run = move |first: usize, views: &mut [LaunchView<'_>]| {
            for (i, view) in views.iter_mut().enumerate() {
                work(first + i, view);
            }
        };
        std::thread::scope(|s| {
            let mut chunks = views.chunks_mut(chunk);
            let own = chunks.next().expect("a MultiGpu has a device");
            for (c, views) in chunks.enumerate() {
                s.spawn(move || run((c + 1) * chunk, views));
            }
            run(0, own);
        });
    }

    /// Reset the aggregate clocks and every device's statistics.
    pub fn reset_stats(&mut self) {
        for d in &mut self.devices {
            d.reset_stats();
        }
        self.stats = MultiDeviceStats::default();
        self.step_log.clear();
        self.step_base = None;
        self.overlap_open = false;
        self.pending_exchange_cycles = 0;
    }

    /// Begin a superstep: snapshot each device's clock. Launches issued on
    /// any device until [`MultiGpu::end_step`] count as concurrent work.
    pub fn begin_step(&mut self) {
        assert!(self.step_base.is_none(), "begin_step while a step is open");
        self.step_base = Some(self.devices.iter().map(|d| d.now_cycles()).collect());
    }

    /// End the superstep: wall time advances by the *slowest* device's
    /// delta (devices run concurrently). Returns the per-device deltas.
    /// The charge is attributed to [`StepKind::Settle`] (boundary
    /// assignment / conflict settling); use
    /// [`MultiGpu::end_interior_step`] for interior-compute steps.
    pub fn end_step(&mut self) -> Vec<u64> {
        self.end_plain_step(StepKind::Settle)
    }

    /// End the superstep like [`MultiGpu::end_step`], but attribute the
    /// charge to [`StepKind::Interior`] (interior compute with no
    /// concurrent exchange — the serial-exchange driver's compute step).
    pub fn end_interior_step(&mut self) -> Vec<u64> {
        self.end_plain_step(StepKind::Interior)
    }

    fn end_plain_step(&mut self, kind: StepKind) -> Vec<u64> {
        assert!(
            !self.overlap_open,
            "end_step on an overlap step; use end_overlap_step"
        );
        let start = self.stats.wall_cycles;
        let deltas = self.take_step_deltas();
        let charged = deltas.iter().copied().max().unwrap_or(0);
        self.stats.wall_cycles += charged;
        match kind {
            StepKind::Settle => self.stats.settle_step_cycles += charged,
            StepKind::Interior => self.stats.interior_compute_cycles += charged,
            _ => unreachable!("plain steps are settle or interior"),
        }
        self.stats.steps += 1;
        self.step_log.push(StepSpan {
            kind,
            start,
            device_cycles: deltas.clone(),
            exchange_cycles: 0,
            charged,
        });
        deltas
    }

    /// Begin an **overlap step**: like [`MultiGpu::begin_step`], but link
    /// transfers queued inside it (via [`MultiGpu::queue_transfer`]) run
    /// concurrently with the compute launched on the devices. The step's
    /// wall cost, settled at [`MultiGpu::end_overlap_step`], is
    /// `max(slowest device, queued exchange)`.
    pub fn begin_overlap_step(&mut self) {
        self.begin_step();
        self.overlap_open = true;
    }

    /// Queue one link transfer of `bytes` on the open overlap step. The
    /// transfers still serialize against each other on the shared link,
    /// but the resulting exchange window overlaps the step's compute
    /// instead of extending the wall clock directly. Zero-byte and self
    /// transfers are free, exactly as in [`MultiGpu::transfer`]. Returns
    /// the link cycles the message occupies.
    pub fn queue_transfer(&mut self, from: usize, to: usize, bytes: u64) -> u64 {
        assert!(
            self.overlap_open,
            "queue_transfer outside an overlap step; use transfer"
        );
        assert!(from < self.devices.len() && to < self.devices.len());
        if from == to || bytes == 0 {
            return 0;
        }
        let cycles = self.count_transfer(bytes);
        self.pending_exchange_cycles += cycles;
        cycles
    }

    /// End the overlap step: wall time advances by
    /// `max(slowest device delta, queued exchange cycles)` — the exchange
    /// hides behind compute up to the compute's length, and any excess is
    /// exposed. Accumulates the hidden/exposed split
    /// (`exchange_hidden_cycles + exchange_exposed_cycles == link_cycles`
    /// over the whole run). Returns the per-device deltas.
    pub fn end_overlap_step(&mut self) -> Vec<u64> {
        assert!(
            self.overlap_open,
            "end_overlap_step without a matching begin_overlap_step"
        );
        let start = self.stats.wall_cycles;
        let deltas = self.take_step_deltas();
        let compute = deltas.iter().copied().max().unwrap_or(0);
        let exchange = self.pending_exchange_cycles;
        self.stats.wall_cycles += compute.max(exchange);
        self.stats.exchange_hidden_cycles += compute.min(exchange);
        self.stats.exchange_exposed_cycles += exchange.saturating_sub(compute);
        self.stats.interior_compute_cycles += compute;
        self.pending_exchange_cycles = 0;
        self.overlap_open = false;
        self.stats.steps += 1;
        self.stats.overlap_steps += 1;
        self.step_log.push(StepSpan {
            kind: StepKind::Overlap,
            start,
            device_cycles: deltas.clone(),
            exchange_cycles: exchange,
            charged: compute.max(exchange),
        });
        deltas
    }

    fn take_step_deltas(&mut self) -> Vec<u64> {
        let base = self
            .step_base
            .take()
            .expect("end_step without a matching begin_step");
        self.devices
            .iter()
            .zip(&base)
            .map(|(d, &b)| d.now_cycles() - b)
            .collect()
    }

    /// Charge one link transfer of `bytes` from `from` to `to`. Transfers
    /// serialize on the shared link, so the cost lands on the wall clock
    /// (fully exposed — nothing hides it). Zero-byte transfers are free
    /// (no message is sent).
    pub fn transfer(&mut self, from: usize, to: usize, bytes: u64) -> u64 {
        assert!(from < self.devices.len() && to < self.devices.len());
        if from == to || bytes == 0 {
            return 0;
        }
        let cycles = self.count_transfer(bytes);
        self.stats.exchange_exposed_cycles += cycles;
        self.step_log.push(StepSpan {
            kind: StepKind::Transfer,
            start: self.stats.wall_cycles,
            device_cycles: vec![0; self.devices.len()],
            exchange_cycles: cycles,
            charged: cycles,
        });
        self.stats.wall_cycles += cycles;
        cycles
    }

    /// Count one link message of `bytes`; returns the cycles it occupies.
    fn count_transfer(&mut self, bytes: u64) -> u64 {
        let cycles = self.link.transfer_cycles(bytes);
        self.stats.link_cycles += cycles;
        self.stats.link_bytes += bytes;
        self.stats.link_transfers += 1;
        cycles
    }

    /// Advance the wall clock by `cycles` of host work: the sequential
    /// tail-cutover gathers the residual frontier, finishes it on the CPU,
    /// and scatters the colors back while every device idles. Logged as a
    /// [`StepKind::HostTail`] span so the step log keeps tiling the wall
    /// clock, and charged to its own critical-path term — the identity
    /// extends to `settle + interior + exchange_exposed + host_tail ==
    /// wall_cycles`.
    pub fn charge_host_tail(&mut self, cycles: u64) {
        assert!(
            self.step_base.is_none(),
            "charge_host_tail inside an open step"
        );
        self.step_log.push(StepSpan {
            kind: StepKind::HostTail,
            start: self.stats.wall_cycles,
            device_cycles: vec![0; self.devices.len()],
            exchange_cycles: 0,
            charged: cycles,
        });
        self.stats.wall_cycles += cycles;
        self.stats.host_tail_cycles += cycles;
    }

    /// The machine-level counters since construction or the last reset.
    pub fn stats(&self) -> &MultiDeviceStats {
        &self.stats
    }

    /// Convert the wall clock to milliseconds at the shared device clock.
    pub fn wall_ms(&self) -> f64 {
        self.config().cycles_to_ms(self.stats.wall_cycles)
    }

    /// The superstep log so far: one [`StepSpan`] per closed step or
    /// serialized transfer, tiling the wall clock contiguously. Cleared by
    /// [`MultiGpu::reset_stats`].
    pub fn step_log(&self) -> &[StepSpan] {
        &self.step_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Launch;
    use crate::lane::LaneCtx;

    fn write_kernel(gpu: &mut Gpu, items: usize, name: &str) -> u64 {
        let buf = gpu.alloc_filled(items, 0u32);
        let kernel = move |ctx: &mut LaneCtx| {
            ctx.write(buf, ctx.item(), 1);
        };
        gpu.launch(&kernel, Launch::threads(name, items).wg_size(4))
            .total_cycles
    }

    #[test]
    fn supersteps_charge_the_straggler() {
        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), LinkConfig::pcie());
        mg.begin_step();
        let c0 = write_kernel(mg.device(0), 4, "small");
        let c1 = write_kernel(mg.device(1), 64, "big");
        let deltas = mg.end_step();
        assert_eq!(deltas, vec![c0, c1]);
        assert!(c1 > c0);
        assert_eq!(
            mg.stats().wall_cycles,
            c1,
            "wall clock follows the straggler"
        );
        assert_eq!(mg.stats().steps, 1);
        assert_eq!(mg.device_ref(0).now_cycles(), c0);
        assert_eq!(mg.device_ref(1).now_cycles(), c1);
    }

    #[test]
    fn each_device_visits_every_device_once_with_its_own_index() {
        for n in [1, 2, 3, 5] {
            let mut mg = MultiGpu::new(n, DeviceConfig::small_test(), LinkConfig::default());
            let bufs: Vec<_> = (0..n).map(|p| mg.device(p).alloc_filled(4, 0u32)).collect();
            mg.each_device(|p, gpu| {
                let buf = bufs[p];
                let kernel = move |ctx: &mut LaneCtx| {
                    let v = ctx.read(buf, ctx.item());
                    ctx.write(buf, ctx.item(), v + p as u32 + 1);
                };
                gpu.launch(&kernel, Launch::threads("mark", 4).wg_size(4));
            });
            for (p, &buf) in bufs.iter().enumerate() {
                assert_eq!(mg.device_ref(p).read_back(buf), vec![p as u32 + 1; 4]);
                assert_eq!(mg.device_ref(p).stats().kernels_launched, 1);
            }
        }
    }

    #[test]
    fn nested_workers_stay_within_the_host_budget_and_change_nothing() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        use std::sync::Mutex;

        let items = 3 * crate::exec::PARALLEL_MIN_LANES + 1;
        // Lanes running at once, across every device and worker.
        let (active, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let mark = |buf: crate::Buffer<u32>, p: usize| {
            let (active, peak) = (&active, &peak);
            move |ctx: &mut LaneCtx| {
                peak.fetch_max(active.fetch_add(1, SeqCst) + 1, SeqCst);
                ctx.alu(1 + (ctx.item() % 3) as u32);
                ctx.write(buf, ctx.item(), (ctx.item() * (p + 1)) as u32);
                active.fetch_sub(1, SeqCst);
            }
        };
        for n in [1, 2, 3, 5] {
            let mut mg = MultiGpu::new(n, DeviceConfig::small_test(), LinkConfig::default());
            let bufs: Vec<_> = (0..n)
                .map(|p| mg.device(p).alloc_filled(items, 0u32))
                .collect();
            let records = Mutex::new(vec![None; n]);
            mg.each_device(|p, gpu| {
                let launch = Launch::threads("mark", items).wg_size(4);
                let stats = gpu.launch(&mark(bufs[p], p), launch.independent_groups());
                records.lock().unwrap()[p] = Some(stats);
            });
            let records = records.into_inner().unwrap();
            for (p, &buf) in bufs.iter().enumerate() {
                // A lone device running the launch in order on one thread.
                let mut lone = Gpu::new(DeviceConfig::small_test());
                assert_eq!(lone.alloc_filled(items, 0u32).id, buf.id);
                let launch = Launch::threads("mark", items).wg_size(4);
                let stats = lone.launch(&mark(buf, p), launch);
                assert_eq!(records[p].as_ref(), Some(&stats), "{n} devices, device {p}");
                assert_eq!(mg.device_ref(p).read_back(buf), lone.read_back(buf));
            }
        }
        assert!(peak.into_inner() <= host_threads());
    }

    #[test]
    fn observed_devices_run_in_device_order() {
        use crate::profile::CaptureSink;
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), LinkConfig::default());
        let capture = Rc::new(RefCell::new(CaptureSink::new()));
        for gpu in mg.devices_mut() {
            gpu.attach_profiler(capture.clone());
        }
        let bufs: Vec<_> = (0..2).map(|p| mg.device(p).alloc_filled(8, 0u32)).collect();
        mg.each_device(|p, gpu| {
            let buf = bufs[p];
            let kernel = move |ctx: &mut LaneCtx| ctx.write(buf, ctx.item(), 1);
            for k in 0..2 {
                let name = format!("dev{p}-k{k}");
                gpu.launch(&kernel, Launch::threads(name, 8).wg_size(4));
            }
        });
        let cap = capture.borrow();
        let names: Vec<&str> = cap.kernels().map(|k| k.name.as_str()).collect();
        assert_eq!(names, ["dev0-k0", "dev0-k1", "dev1-k0", "dev1-k1"]);
    }

    #[test]
    fn transfers_cost_latency_plus_bandwidth() {
        let link = LinkConfig {
            latency_cycles: 100,
            bytes_per_cycle: 8,
        };
        assert_eq!(link.transfer_cycles(0), 100);
        assert_eq!(link.transfer_cycles(1), 101);
        assert_eq!(link.transfer_cycles(64), 108);

        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), link);
        assert_eq!(mg.transfer(0, 1, 64), 108);
        assert_eq!(mg.transfer(0, 1, 0), 0, "empty messages are free");
        assert_eq!(mg.transfer(1, 1, 64), 0, "self transfers are free");
        assert_eq!(mg.stats().wall_cycles, 108);
        let stats = mg.stats();
        assert_eq!(stats.link_transfers, 1);
        assert_eq!(stats.link_bytes, 64);
        assert_eq!(stats.link_cycles, 108);
    }

    #[test]
    fn balanced_devices_have_unit_imbalance() {
        let mut mg = MultiGpu::new(3, DeviceConfig::small_test(), LinkConfig::default());
        mg.begin_step();
        for i in 0..3 {
            write_kernel(mg.device(i), 16, "same");
        }
        mg.end_step();
        let cycles: Vec<u64> = (0..3).map(|i| mg.device_ref(i).now_cycles()).collect();
        assert!((crate::metrics::imbalance_factor_of(&cycles) - 1.0).abs() < 1e-12);
        assert_eq!(mg.device_ref(0).stats().kernels_launched, 1);
        // Wall = one device's time, not 3x.
        assert_eq!(mg.stats().wall_cycles, cycles[0]);
    }

    #[test]
    fn reset_clears_all_clocks() {
        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), LinkConfig::default());
        mg.begin_step();
        write_kernel(mg.device(0), 8, "k");
        mg.end_step();
        mg.transfer(0, 1, 128);
        mg.reset_stats();
        assert_eq!(mg.stats(), &MultiDeviceStats::default());
        assert_eq!(mg.device_ref(0).now_cycles(), 0);
        assert!(mg.step_log().is_empty());
    }

    #[test]
    #[should_panic(expected = "begin_step while a step is open")]
    fn nested_steps_panic() {
        let mut mg = MultiGpu::new(1, DeviceConfig::small_test(), LinkConfig::default());
        mg.begin_step();
        mg.begin_step();
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_panics() {
        MultiGpu::new(0, DeviceConfig::small_test(), LinkConfig::default());
    }

    #[test]
    fn overlap_step_hides_exchange_behind_compute() {
        let link = LinkConfig {
            latency_cycles: 10,
            bytes_per_cycle: 8,
        };
        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), link);
        mg.begin_overlap_step();
        let c0 = write_kernel(mg.device(0), 64, "big");
        let c1 = write_kernel(mg.device(1), 64, "big");
        // Small exchange: fully hidden behind the concurrent compute.
        let x = mg.queue_transfer(0, 1, 8);
        assert_eq!(x, 11);
        let compute = c0.max(c1);
        assert!(x < compute, "test premise: exchange shorter than compute");
        mg.end_overlap_step();
        assert_eq!(mg.stats().wall_cycles, compute, "exchange fully hidden");
        let stats = mg.stats();
        assert_eq!(stats.steps, 1);
        assert_eq!(stats.overlap_steps, 1);
        assert_eq!(stats.exchange_hidden_cycles, x);
        assert_eq!(stats.exchange_exposed_cycles, 0);
        assert!((stats.overlap_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_step_exposes_exchange_excess() {
        let link = LinkConfig {
            latency_cycles: 5_000,
            bytes_per_cycle: 1,
        };
        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), link);
        mg.begin_overlap_step();
        let c0 = write_kernel(mg.device(0), 4, "small");
        let x = mg.queue_transfer(0, 1, 100) + mg.queue_transfer(1, 0, 100);
        assert!(x > c0, "test premise: exchange outlasts compute");
        mg.end_overlap_step();
        assert_eq!(mg.stats().wall_cycles, x, "step costs the longer exchange");
        let stats = mg.stats();
        assert_eq!(stats.exchange_hidden_cycles, c0);
        assert_eq!(stats.exchange_exposed_cycles, x - c0);
        assert_eq!(
            stats.exchange_hidden_cycles + stats.exchange_exposed_cycles,
            stats.link_cycles
        );
        assert!((stats.overlap_efficiency() - c0 as f64 / x as f64).abs() < 1e-12);
    }

    #[test]
    fn hidden_plus_exposed_always_equals_link_cycles() {
        // Mixed run: serialized transfers (fully exposed), an overlap step
        // that hides its exchange, and one that exposes part of it.
        let link = LinkConfig {
            latency_cycles: 50,
            bytes_per_cycle: 4,
        };
        let mut mg = MultiGpu::new(3, DeviceConfig::small_test(), link);
        mg.transfer(0, 1, 256);
        mg.begin_overlap_step();
        for i in 0..3 {
            write_kernel(mg.device(i), 64, "work");
        }
        mg.queue_transfer(0, 2, 16);
        mg.end_overlap_step();
        mg.begin_overlap_step();
        mg.queue_transfer(1, 0, 4096);
        mg.end_overlap_step();
        mg.begin_step();
        write_kernel(mg.device(0), 8, "tail");
        mg.end_step();

        let stats = mg.stats();
        assert_eq!(
            stats.exchange_hidden_cycles + stats.exchange_exposed_cycles,
            stats.link_cycles
        );
        assert_eq!(stats.steps, 3);
        assert_eq!(stats.overlap_steps, 2);
        assert!(stats.exchange_hidden_cycles > 0);
        assert!(stats.exchange_exposed_cycles > 0);
        let eff = stats.overlap_efficiency();
        assert!(eff > 0.0 && eff < 1.0);
        assert!((0..3).all(|i| stats.wall_cycles >= mg.device_ref(i).now_cycles()));
    }

    #[test]
    fn overlap_efficiency_is_one_with_no_link_traffic() {
        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), LinkConfig::default());
        mg.begin_overlap_step();
        write_kernel(mg.device(0), 8, "k");
        mg.end_overlap_step();
        let stats = mg.stats();
        assert_eq!(stats.link_cycles, 0);
        assert!((stats.overlap_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_and_serial_accounting_agree_on_zero_exchange() {
        // With no queued transfers an overlap step must cost exactly what
        // a plain superstep costs: the straggler.
        let mut serial = MultiGpu::new(2, DeviceConfig::small_test(), LinkConfig::default());
        serial.begin_step();
        write_kernel(serial.device(0), 32, "k");
        serial.end_step();

        let mut overlap = MultiGpu::new(2, DeviceConfig::small_test(), LinkConfig::default());
        overlap.begin_overlap_step();
        write_kernel(overlap.device(0), 32, "k");
        overlap.end_overlap_step();

        assert_eq!(serial.stats().wall_cycles, overlap.stats().wall_cycles);
    }

    #[test]
    #[should_panic(expected = "queue_transfer outside an overlap step")]
    fn queue_transfer_needs_an_open_overlap_step() {
        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), LinkConfig::default());
        mg.queue_transfer(0, 1, 64);
    }

    #[test]
    #[should_panic(expected = "end_step on an overlap step")]
    fn plain_end_step_rejects_overlap_steps() {
        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), LinkConfig::default());
        mg.begin_overlap_step();
        mg.end_step();
    }

    #[test]
    #[should_panic(expected = "end_overlap_step without a matching begin_overlap_step")]
    fn end_overlap_step_rejects_plain_steps() {
        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), LinkConfig::default());
        mg.begin_step();
        mg.end_overlap_step();
    }

    #[test]
    fn reset_clears_overlap_state() {
        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), LinkConfig::default());
        mg.begin_overlap_step();
        mg.queue_transfer(0, 1, 1024);
        mg.end_overlap_step();
        mg.transfer(0, 1, 64);
        mg.reset_stats();
        let stats = mg.stats();
        assert_eq!(stats.overlap_steps, 0);
        assert_eq!(stats.exchange_hidden_cycles, 0);
        assert_eq!(stats.exchange_exposed_cycles, 0);
        // And a fresh plain step works after reset.
        mg.begin_step();
        mg.end_step();
    }

    #[test]
    fn step_charges_decompose_the_wall_clock_exactly() {
        // Mixed run exercising every StepKind: the settle/interior/exposed
        // split must sum to the wall clock with no remainder.
        let link = LinkConfig {
            latency_cycles: 50,
            bytes_per_cycle: 4,
        };
        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), link);
        mg.transfer(0, 1, 256); // serialized: fully exposed
        mg.begin_step();
        write_kernel(mg.device(0), 16, "settle");
        mg.end_step();
        mg.begin_overlap_step();
        write_kernel(mg.device(0), 64, "interior");
        mg.queue_transfer(0, 1, 16);
        mg.end_overlap_step();
        mg.begin_step();
        write_kernel(mg.device(1), 32, "interior-serial");
        mg.end_interior_step();

        let stats = mg.stats();
        assert!(stats.settle_step_cycles > 0);
        assert!(stats.interior_compute_cycles > 0);
        assert!(stats.exchange_exposed_cycles > 0);
        assert_eq!(
            stats.settle_step_cycles
                + stats.interior_compute_cycles
                + stats.exchange_exposed_cycles,
            stats.wall_cycles,
            "decomposition must be exact"
        );
    }

    #[test]
    fn step_log_tiles_the_wall_clock() {
        let link = LinkConfig {
            latency_cycles: 10,
            bytes_per_cycle: 8,
        };
        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), link);
        mg.begin_step();
        write_kernel(mg.device(0), 8, "a");
        mg.end_step();
        mg.transfer(0, 1, 64);
        mg.begin_overlap_step();
        write_kernel(mg.device(1), 32, "b");
        mg.queue_transfer(1, 0, 8);
        mg.end_overlap_step();

        let log = mg.step_log();
        assert_eq!(log.len(), 3);
        assert_eq!(
            log.iter().map(|s| s.kind).collect::<Vec<_>>(),
            vec![StepKind::Settle, StepKind::Transfer, StepKind::Overlap]
        );
        // Spans are contiguous and cover the wall clock exactly.
        let mut cursor = 0;
        for s in log {
            assert_eq!(s.start, cursor, "{:?}", s.kind);
            cursor += s.charged;
            assert_eq!(s.device_cycles.len(), 2);
            assert!(s.charged >= s.device_cycles.iter().copied().max().unwrap());
        }
        assert_eq!(cursor, mg.stats().wall_cycles);
        // The transfer span carries its link cycles and no device work.
        assert_eq!(log[1].exchange_cycles, log[1].charged);
        assert_eq!(log[1].device_cycles, vec![0, 0]);
        // reset_stats clears the log.
        mg.reset_stats();
        assert!(mg.step_log().is_empty());
    }

    #[test]
    fn host_tail_charge_extends_the_decomposition_and_tiles_the_log() {
        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), LinkConfig::pcie());
        mg.begin_step();
        write_kernel(mg.device(0), 16, "settle");
        mg.end_step();
        mg.transfer(0, 1, 64);
        mg.charge_host_tail(4_321);
        let stats = mg.stats();
        assert_eq!(stats.host_tail_cycles, 4_321);
        assert_eq!(
            stats.settle_step_cycles
                + stats.interior_compute_cycles
                + stats.exchange_exposed_cycles
                + stats.host_tail_cycles,
            stats.wall_cycles,
            "decomposition stays exact with a host tail"
        );
        // The host-tail span tiles the wall clock like every other span
        // and carries no device or link work.
        let log = mg.step_log();
        let span = log.last().unwrap();
        assert_eq!(span.kind, StepKind::HostTail);
        assert_eq!(StepKind::HostTail.label(), "host-tail");
        assert_eq!(span.charged, 4_321);
        assert_eq!(span.device_cycles, vec![0, 0]);
        assert_eq!(span.exchange_cycles, 0);
        let mut cursor = 0;
        for s in log {
            assert_eq!(s.start, cursor, "{:?}", s.kind);
            cursor += s.charged;
        }
        assert_eq!(cursor, mg.stats().wall_cycles);
        // reset_stats clears the host-tail counter with the rest.
        mg.reset_stats();
        assert_eq!(mg.stats().host_tail_cycles, 0);
    }

    #[test]
    fn interior_step_charges_interior_not_settle() {
        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), LinkConfig::default());
        mg.begin_step();
        write_kernel(mg.device(0), 16, "k");
        let deltas = mg.end_interior_step();
        let charged = *deltas.iter().max().unwrap();
        let stats = mg.stats();
        assert_eq!(stats.interior_compute_cycles, charged);
        assert_eq!(stats.settle_step_cycles, 0);
        assert_eq!(stats.wall_cycles, charged);
        assert_eq!(mg.step_log()[0].kind, StepKind::Interior);
    }

    #[test]
    fn wall_ms_uses_shared_clock() {
        let mut mg = MultiGpu::new(2, DeviceConfig::small_test(), LinkConfig::default());
        mg.transfer(0, 1, 16_000);
        let expect = mg.config().cycles_to_ms(mg.stats().wall_cycles);
        assert!((mg.wall_ms() - expect).abs() < 1e-12);
        assert!(mg.wall_ms() > 0.0);
    }
}
