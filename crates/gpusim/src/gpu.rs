//! The device facade: buffer management, kernel launches, statistics.

use std::sync::OnceLock;

use crate::buffer::{Buffer, DeviceScalar, MemoryState};
use crate::cache::L2Cache;
use crate::config::DeviceConfig;
use crate::kernel::{Kernel, Launch, ScheduleMode};
use crate::metrics::DeviceStats;
use crate::profile::{
    notify, IterationBeginEvent, IterationEndEvent, KernelDispatchEvent, KernelRetireEvent, Probe,
    SharedSink, WatchdogEvent,
};
use crate::scheduler::run_launch;

/// A simulated GPU: global memory plus an execution/timing engine.
///
/// ```
/// use gc_gpusim::{DeviceConfig, Gpu, LaneCtx, Launch};
///
/// let mut gpu = Gpu::new(DeviceConfig::hd7950());
/// let xs = gpu.alloc_from(&[1.0f32, 2.0, 3.0]);
/// let ys = gpu.alloc_filled(3, 0.0f32);
/// let stats = gpu.launch(
///     &|ctx: &mut LaneCtx| {
///         let i = ctx.item();
///         let x = ctx.read(xs, i);
///         ctx.write(ys, i, x * 2.0);
///     },
///     Launch::threads("saxpy-ish", 3).wg_size(64),
/// );
/// assert_eq!(gpu.read_back(ys), vec![2.0, 4.0, 6.0]);
/// assert!(stats.total_cycles > 0);
/// ```
pub struct Gpu {
    cfg: DeviceConfig,
    mem: MemoryState,
    stats: DeviceStats,
    /// Explicit L2 state; `None` under the flat-latency model. Persists
    /// across launches (device data stays resident between kernels).
    l2: Option<L2Cache>,
    /// Attached profilers; empty in normal runs, so events go nowhere and
    /// the scheduler gets no probe.
    sinks: Vec<SharedSink>,
    /// Device-wide launch sequence number (survives [`Gpu::reset_stats`]).
    launch_seq: u64,
    /// Host threads a launch declaring independent groups may use:
    /// [`host_threads`], or fewer in tests.
    pub(crate) workers: usize,
}

impl Gpu {
    /// Create a device. Panics if the configuration is inconsistent.
    pub fn new(cfg: DeviceConfig) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid device config: {e}"));
        let l2 = L2Cache::from_config(&cfg);
        Self {
            cfg,
            mem: MemoryState::new(),
            stats: DeviceStats::default(),
            l2,
            sinks: Vec::new(),
            launch_seq: 0,
            workers: host_threads(),
        }
    }

    /// Attach a profiler; every subsequent launch reports events to it.
    /// Callers keep their own `Rc` clone to read results back afterwards.
    pub fn attach_profiler(&mut self, sink: SharedSink) {
        self.sinks.push(sink);
    }

    /// Current device time: cumulative cycles across all launches so far.
    pub fn now_cycles(&self) -> u64 {
        self.stats.total_cycles
    }

    /// Report an algorithm-level iteration boundary to attached profilers
    /// (the driver layer calls this around each outer iteration).
    pub fn profile_iteration_begin(&self, iteration: usize, active: usize) {
        let ev = IterationBeginEvent {
            iteration,
            active,
            cycle: self.now_cycles(),
        };
        notify(&self.sinks, |s| s.iteration_begin(&ev));
    }

    /// Report the end of an algorithm-level iteration to attached profilers.
    pub fn profile_iteration_end(&self, iteration: usize, completed: usize) {
        let ev = IterationEndEvent {
            iteration,
            completed,
            cycle: self.now_cycles(),
        };
        notify(&self.sinks, |s| s.iteration_end(&ev));
    }

    /// Report a convergence-watchdog warning to attached profilers (the
    /// driver layer calls this when a detector in `gc-core::watch` fires).
    pub fn profile_watchdog(&self, iteration: usize, kind: &str, detail: &str) {
        let ev = WatchdogEvent {
            iteration,
            kind,
            detail,
            cycle: self.now_cycles(),
        };
        notify(&self.sinks, |s| s.watchdog(&ev));
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Allocate a buffer initialized from host data. The buffer gets an
    /// auto-generated attribution name (`buf{id}`); prefer
    /// [`Gpu::alloc_from_named`] for buffers that matter in profiles.
    pub fn alloc_from<T: DeviceScalar>(&mut self, data: &[T]) -> Buffer<T> {
        self.mem.alloc(data.to_vec())
    }

    /// Allocate a buffer of `len` copies of `value` with an auto name.
    pub fn alloc_filled<T: DeviceScalar>(&mut self, len: usize, value: T) -> Buffer<T> {
        self.mem.alloc(vec![value; len])
    }

    /// Allocate a named buffer taking ownership of `data`. The name keys the
    /// per-buffer memory attribution in [`DeviceStats::per_buffer`]; buffers
    /// sharing a name are merged there (useful for double buffers).
    pub fn alloc_named<T: DeviceScalar>(&mut self, data: Vec<T>, name: &str) -> Buffer<T> {
        self.mem.alloc_named(data, name)
    }

    /// Allocate a named buffer initialized from host data.
    pub fn alloc_from_named<T: DeviceScalar>(&mut self, data: &[T], name: &str) -> Buffer<T> {
        self.mem.alloc_named(data.to_vec(), name)
    }

    /// Allocate a named buffer of `len` copies of `value`.
    pub fn alloc_filled_named<T: DeviceScalar>(
        &mut self,
        len: usize,
        value: T,
        name: &str,
    ) -> Buffer<T> {
        self.mem.alloc_named(vec![value; len], name)
    }

    /// Attribution name of a buffer.
    pub fn buffer_name<T: DeviceScalar>(&self, buf: Buffer<T>) -> &str {
        self.mem.buffer_name(buf.id)
    }

    /// Copy a buffer's contents back to the host.
    pub fn read_back<T: DeviceScalar>(&self, buf: Buffer<T>) -> Vec<T> {
        self.mem.as_slice(&buf).to_vec()
    }

    /// Borrow a buffer's contents (host-side view, no copy).
    pub fn read_slice<T: DeviceScalar>(&self, buf: Buffer<T>) -> &[T] {
        self.mem.as_slice(&buf)
    }

    /// Overwrite a buffer from host data; lengths must match.
    pub fn write_slice<T: DeviceScalar>(&mut self, buf: Buffer<T>, data: &[T]) {
        let dst = self.mem.as_slice_mut(&buf);
        assert_eq!(
            dst.len(),
            data.len(),
            "write_slice length mismatch: buffer {}, host {}",
            dst.len(),
            data.len()
        );
        dst.copy_from_slice(data);
    }

    /// Fill a buffer with one value (simulated `memset`).
    pub fn fill<T: DeviceScalar>(&mut self, buf: Buffer<T>, value: T) {
        self.mem.as_slice_mut(&buf).fill(value);
    }

    /// Total bytes currently allocated on the device.
    pub fn bytes_allocated(&self) -> u64 {
        self.mem.bytes_allocated()
    }

    /// Number of live buffers.
    pub fn num_buffers(&self) -> usize {
        self.mem.num_buffers()
    }

    /// Execute a kernel over the launch's items; returns the launch's
    /// record (see [`DeviceStats`]) and merges it into [`Gpu::stats`] and
    /// its `per_kernel` entry.
    ///
    /// With profilers attached, fires `kernel_dispatch` before execution,
    /// per-workgroup and steal-pop events during it, and `kernel_retire`
    /// after. All event timestamps are absolute device cycles based at
    /// [`Gpu::now_cycles`], so consecutive launches tile the timeline with
    /// no gaps: summed kernel-span durations equal total device cycles.
    pub fn launch(&mut self, kernel: &dyn Kernel, launch: Launch) -> DeviceStats {
        let (mut view, sinks) = self.split();
        if sinks.is_empty() {
            return view.run(kernel, &launch, None);
        }
        let base_cycle = view.stats.total_cycles;
        let seq = *view.launch_seq;
        let ev = KernelDispatchEvent {
            seq,
            name: &launch.name,
            items: launch.items,
            wg_size: launch.wg_size,
            mode: mode_name(launch.mode),
            start_cycle: base_cycle,
        };
        notify(sinks, |s| s.kernel_dispatch(&ev));
        let probe = Probe {
            sinks,
            seq,
            name: &launch.name,
            base_cycle,
            launch_overhead: view.cfg.kernel_launch_cycles,
        };
        let stats = view.run(kernel, &launch, Some(&probe));
        let ev = KernelRetireEvent {
            seq,
            name: &launch.name,
            start_cycle: base_cycle,
            end_cycle: base_cycle + stats.total_cycles,
            stats: &stats,
        };
        notify(sinks, |s| s.kernel_retire(&ev));
        stats
    }

    /// Whether a profiler is attached.
    pub(crate) fn observed(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Everything a launch touches except the observer list, borrowed as
    /// one `Send` value whose launches use at most `workers` host threads:
    /// what lets [`crate::MultiGpu::each_device`] run unobserved devices on
    /// other host threads.
    pub(crate) fn launch_view(&mut self, workers: usize) -> LaunchView<'_> {
        let mut view = self.split().0;
        view.workers = workers;
        view
    }

    fn split(&mut self) -> (LaunchView<'_>, &[SharedSink]) {
        let view = LaunchView {
            cfg: &self.cfg,
            mem: &mut self.mem,
            stats: &mut self.stats,
            l2: &mut self.l2,
            launch_seq: &mut self.launch_seq,
            workers: self.workers,
        };
        (view, &self.sinks)
    }

    /// Advance the device clock by `cycles` of *host* work. The sequential
    /// tail-cutover finishes the residual frontier on the CPU while the
    /// device sits idle, so the cost lands on the same wall clock as kernel
    /// launches but under its own `host_tail` critical-path term
    /// ([`DeviceStats::path_host_tail_cycles`]); the single-device
    /// decomposition becomes `kernel + tail + host + host_tail ==
    /// total_cycles` and still telescopes exactly.
    pub fn charge_host_tail(&mut self, cycles: u64) {
        self.stats.total_cycles += cycles;
        self.stats.path_host_tail_cycles += cycles;
    }

    /// Cumulative statistics since construction or the last reset.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Clear cumulative statistics (buffers are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = DeviceStats::default();
    }

    /// Cumulative device time in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.stats.total_ms(&self.cfg)
    }
}

/// Something a kernel can be launched on: a [`Gpu`], or the launch view
/// [`crate::MultiGpu::each_device`] hands out for a device. Code that
/// only launches takes `&mut dyn Launcher`, so the same code runs a device
/// in place or on another host thread.
pub trait Launcher {
    /// Execute `kernel` over the launch's items and return the launch's
    /// record, exactly as [`Gpu::launch`] does.
    fn launch(&mut self, kernel: &dyn Kernel, launch: Launch) -> DeviceStats;
}

impl Launcher for Gpu {
    fn launch(&mut self, kernel: &dyn Kernel, launch: Launch) -> DeviceStats {
        Gpu::launch(self, kernel, launch)
    }
}

/// Host threads the simulator may use at once: `available_parallelism()`,
/// read once per process (the query costs several system calls).
pub(crate) fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// A device's configuration, memory, statistics, L2 and launch sequence,
/// borrowed together without its observers. Observers are `Rc`-shared and
/// stay behind on the owning thread; everything here is `Send`.
pub(crate) struct LaunchView<'a> {
    cfg: &'a DeviceConfig,
    mem: &'a mut MemoryState,
    stats: &'a mut DeviceStats,
    l2: &'a mut Option<L2Cache>,
    launch_seq: &'a mut u64,
    /// Host threads a launch declaring independent groups may use.
    workers: usize,
}

impl LaunchView<'_> {
    /// The one launch body: take a sequence number, run the launch, and
    /// merge its record into the device statistics.
    fn run(
        &mut self,
        kernel: &dyn Kernel,
        launch: &Launch,
        probe: Option<&Probe<'_>>,
    ) -> DeviceStats {
        *self.launch_seq += 1;
        let stats = run_launch(
            kernel,
            launch,
            self.cfg,
            self.mem,
            self.l2,
            probe,
            self.workers,
        );
        self.stats.absorb(&launch.name, &stats);
        stats
    }
}

impl Launcher for LaunchView<'_> {
    fn launch(&mut self, kernel: &dyn Kernel, launch: Launch) -> DeviceStats {
        self.run(kernel, &launch, None)
    }
}

/// Stable human-readable name of a scheduling mode, used in profile events.
fn mode_name(mode: ScheduleMode) -> &'static str {
    match mode {
        ScheduleMode::StaticRoundRobin => "static-round-robin",
        ScheduleMode::DynamicHw => "dynamic",
        ScheduleMode::WorkStealing { .. } => "work-stealing",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::LaneCtx;

    #[test]
    fn end_to_end_launch_accumulates_stats() {
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let buf = gpu.alloc_filled(16, 0u32);
        let kernel = move |ctx: &mut LaneCtx| {
            let i = ctx.item();
            ctx.write(buf, i, i as u32);
        };
        let s1 = gpu.launch(&kernel, Launch::threads("iota", 16).wg_size(4));
        let s2 = gpu.launch(&kernel, Launch::threads("iota", 16).wg_size(4));
        assert_eq!(s1.total_cycles, s2.total_cycles, "determinism");
        assert_eq!(gpu.stats().kernels_launched, 2);
        assert_eq!(gpu.stats().total_cycles, s1.total_cycles * 2);
        assert_eq!(gpu.stats().per_kernel["iota"].kernels_launched, 2);
        let expect: Vec<u32> = (0..16).collect();
        assert_eq!(gpu.read_back(buf), expect);
        gpu.reset_stats();
        assert_eq!(gpu.stats().kernels_launched, 0);
    }

    #[test]
    fn a_launch_record_is_the_stats_of_a_fresh_device() {
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let buf = gpu.alloc_filled(40, 0u32);
        let kernel = move |ctx: &mut LaneCtx| {
            let i = ctx.item();
            ctx.atomic_add(buf, i % 3, 1);
        };
        gpu.launch(&kernel, Launch::threads("warm", 40).wg_size(4));
        gpu.reset_stats();
        let launch = gpu.launch(&kernel, Launch::threads("count", 40).wg_size(4).stealing(8));
        assert!(launch.per_kernel.is_empty());
        assert_eq!(launch.kernels_launched, 1);
        let mut stats = gpu.stats().clone();
        let per_kernel = std::mem::take(&mut stats.per_kernel);
        assert_eq!(stats, launch);
        assert_eq!(per_kernel.len(), 1);
        assert_eq!(per_kernel["count"], launch);
    }

    #[test]
    fn write_slice_and_fill() {
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let buf = gpu.alloc_filled(4, 0u32);
        gpu.write_slice(buf, &[1, 2, 3, 4]);
        assert_eq!(gpu.read_slice(buf), &[1, 2, 3, 4]);
        gpu.fill(buf, 9);
        assert_eq!(gpu.read_back(buf), vec![9; 4]);
        assert_eq!(gpu.num_buffers(), 1);
        assert_eq!(gpu.bytes_allocated(), 16);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn write_slice_length_mismatch_panics() {
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let buf = gpu.alloc_filled(4, 0u32);
        gpu.write_slice(buf, &[1, 2]);
    }

    #[test]
    fn profiler_sees_kernel_and_iteration_events() {
        use crate::profile::CaptureSink;
        use std::cell::RefCell;
        use std::rc::Rc;

        let capture = Rc::new(RefCell::new(CaptureSink::new()));
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        gpu.attach_profiler(capture.clone());

        let buf = gpu.alloc_filled(32, 0u32);
        let kernel = move |ctx: &mut LaneCtx| {
            ctx.write(buf, ctx.item(), 1);
        };
        gpu.profile_iteration_begin(0, 32);
        let s1 = gpu.launch(&kernel, Launch::threads("a", 32).wg_size(4));
        let s2 = gpu.launch(&kernel, Launch::threads("b", 32).wg_size(4).stealing(8));
        gpu.profile_iteration_end(0, 32);

        let cap = capture.borrow();
        // Kernel spans tile the device timeline exactly.
        let kernels: Vec<_> = cap.kernels().collect();
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[0].seq, 0);
        assert_eq!(kernels[1].seq, 1);
        assert_eq!(kernels[0].start_cycle, 0);
        assert_eq!(kernels[0].end_cycle, s1.total_cycles);
        assert_eq!(kernels[1].start_cycle, s1.total_cycles);
        assert_eq!(kernels[1].end_cycle, s1.total_cycles + s2.total_cycles);
        assert_eq!(kernels[1].end_cycle, gpu.now_cycles());

        // Workgroup spans stay inside their kernel's span and never exceed
        // its busy window.
        assert_eq!(
            cap.workgroups().count(),
            (s1.workgroups + s2.workgroups) as usize
        );
        for wg in cap.workgroups() {
            let k = kernels[wg.kernel_seq as usize];
            assert!(wg.start_cycle >= k.start_cycle);
            assert!(wg.end_cycle <= k.end_cycle, "wg ends inside kernel span");
            assert!(wg.end_cycle > wg.start_cycle);
        }

        // Kernel "b" stole 4 chunks + one drain pop per CU.
        let drains = cap.steal_pops().filter(|p| p.chunk.is_none()).count();
        assert_eq!(drains, gpu.config().num_cus);
        assert_eq!(cap.steal_pops().count() as u64, s2.steal_pops);

        // The iteration span covers both launches.
        let its: Vec<_> = cap.iterations().collect();
        assert_eq!(its.len(), 1);
        let it = its[0];
        assert_eq!((it.active, it.completed), (32, 32));
        assert_eq!(it.start_cycle, 0);
        assert_eq!(it.end_cycle, gpu.now_cycles());
    }

    #[test]
    fn elapsed_ms_tracks_cycles() {
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        let buf = gpu.alloc_filled(4, 0u32);
        let kernel = move |ctx: &mut LaneCtx| {
            ctx.write(buf, ctx.item(), 1);
        };
        gpu.launch(&kernel, Launch::threads("w", 4).wg_size(4));
        let expect = gpu.config().cycles_to_ms(gpu.stats().total_cycles);
        assert!((gpu.elapsed_ms() - expect).abs() < 1e-12);
        assert!(gpu.elapsed_ms() > 0.0);
    }
}
