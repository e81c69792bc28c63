//! Functional execution of a launch's workgroup tasks, before placement.
//!
//! A task's outcome ([`WgOutcome`]) never depends on the CU it lands on, so
//! the scheduler executes every task first and places the outcomes on CUs
//! afterwards. Tasks run in task order on the calling thread, except in a
//! launch that declares [`Launch::independent_groups`]:
//!
//! * up to `workers` host threads (the calling thread among them) claim
//!   tasks one at a time from a shared counter. Hub-heavy tasks cluster at
//!   low ids, so a static split would leave one thread with most of the
//!   work;
//! * every worker owns its own executor (recorder, LDS, bank counters),
//!   tally and write log, so step rows never leave the core that recorded
//!   them. Only the read-only memory, the kernel and the counter are shared;
//! * lanes read the memory as it was at launch start and log their writes
//!   per task. After the join the logs are applied in task order, so the
//!   last writer wins as in sequential execution, and the tallies are
//!   summed.
//!
//! The deferred path runs even with one worker, so the kernel's promise is
//! checked whatever the host's core count. Launches with an explicit L2 stay
//! on one worker, because L2 state depends on the order of accesses.

use std::ops::Range;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use crate::buffer::{MemoryState, WriteLog};
use crate::cache::L2Cache;
use crate::kernel::{GridStyle, Kernel, Launch};
use crate::lane::LaneMem;
use crate::metrics::LaunchTally;
use crate::workgroup::{WgExecutor, WgOutcome, WgParams, WgWork};

/// Simulated lanes below which a declared launch spawns no thread.
///
/// Spawning and joining one scoped thread costs ~50 µs on a 2-vCPU VM, and
/// simulating one lane of the max/min assign kernels ~50 ns on average
/// (16M lanes in ~0.8 s per `rmat(14, 8)` coloring). With two workers a
/// helper takes about half the lanes and saves `lanes / 2 × 50 ns`; asking
/// it to save at least twice its start-up cost gives ~4000 lanes.
pub(crate) const PARALLEL_MIN_LANES: usize = 4096;

/// Execute `tasks` (workgroup `i` is `tasks[i]`), returning their outcomes
/// in task order and the launch's tally. `workers` bounds the host threads
/// a declared launch may use.
pub(crate) fn execute(
    kernel: &dyn Kernel,
    launch: &Launch,
    params: &WgParams<'_>,
    tasks: &[WgWork],
    mem: &mut MemoryState,
    l2: &mut Option<L2Cache>,
    workers: usize,
) -> (Vec<WgOutcome>, LaunchTally) {
    if !launch.independent_groups {
        let mut executor = WgExecutor::new(params.cfg.wavefront_size);
        // Buffers cannot be allocated mid-launch, so one address→buffer
        // snapshot serves the whole launch.
        let mut tally = LaunchTally::new(mem);
        let mut outcomes = Vec::with_capacity(tasks.len());
        for (i, &work) in tasks.iter().enumerate() {
            let mem = LaneMem::Direct(mem);
            outcomes.push(executor.run(kernel, mem, l2, params, i, work, &mut tally));
        }
        return (outcomes, tally);
    }

    let workers = if l2.is_some() || lanes(launch) < PARALLEL_MIN_LANES {
        1
    } else {
        workers.clamp(1, tasks.len().max(1))
    };
    let next = AtomicUsize::new(0);
    let shared: &MemoryState = mem;
    let mut done = if workers == 1 {
        vec![work(kernel, params, tasks, shared, l2, &next)]
    } else {
        thread::scope(|s| {
            let helpers: Vec<_> = (1..workers)
                .map(|_| s.spawn(|| work(kernel, params, tasks, shared, &mut None, &next)))
                .collect();
            let mut done = vec![work(kernel, params, tasks, shared, &mut None, &next)];
            for h in helpers {
                // A memory fault or a broken promise re-raises as itself.
                let helper = h.join().unwrap_or_else(|p| panic::resume_unwind(p));
                done.push(helper);
            }
            done
        })
    };

    let (first, rest) = done.split_first_mut().expect("at least one worker");
    for other in rest.iter() {
        first.tally.merge(&other.tally);
        first.log.merge_access(&other.log);
    }
    if let Some(id) = first.log.read_and_written() {
        panic!(
            "kernel '{}' declares independent groups but reads buffer '{}', which it also writes",
            params.kernel_name,
            mem.buffer_name(id)
        );
    }
    let mut outcomes = vec![WgOutcome::default(); tasks.len()];
    let mut writes = vec![(0, 0..0); tasks.len()];
    for (w, worker) in done.iter().enumerate() {
        for (task, outcome, range) in &worker.done {
            outcomes[*task] = *outcome;
            writes[*task] = (w, range.clone());
        }
    }
    for (w, range) in writes {
        mem.apply(&done[w].log, range);
    }
    (outcomes, done.swap_remove(0).tally)
}

/// Lanes the launch simulates: its size as host work.
fn lanes(launch: &Launch) -> usize {
    match launch.grid {
        GridStyle::ThreadPerItem => launch.items,
        GridStyle::WorkgroupPerItem => launch.items.saturating_mul(launch.wg_size),
    }
}

/// What one worker of a declared launch leaves behind.
struct Worker {
    tally: LaunchTally,
    log: WriteLog,
    /// `(task, outcome, the task's writes in log)` for every task it ran.
    done: Vec<(usize, WgOutcome, Range<usize>)>,
}

/// Claim and run tasks until none is left.
fn work(
    kernel: &dyn Kernel,
    params: &WgParams<'_>,
    tasks: &[WgWork],
    mem: &MemoryState,
    l2: &mut Option<L2Cache>,
    next: &AtomicUsize,
) -> Worker {
    let mut executor = WgExecutor::new(params.cfg.wavefront_size);
    let mut worker = Worker {
        tally: LaunchTally::new(mem),
        log: WriteLog::new(mem.num_buffers()),
        done: Vec::new(),
    };
    loop {
        // Relaxed: the counter only hands out task ids. The tasks are
        // read-only, and results come back through the join.
        let task = next.fetch_add(1, Ordering::Relaxed);
        let Some(&work) = tasks.get(task) else {
            return worker;
        };
        let first = worker.log.len();
        let lane_mem = LaneMem::Deferred {
            mem,
            log: &mut worker.log,
            kernel: params.kernel_name,
        };
        let outcome = executor.run(kernel, lane_mem, l2, params, task, work, &mut worker.tally);
        worker.done.push((task, outcome, first..worker.log.len()));
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::rc::Rc;
    use std::sync::Mutex;

    use super::*;
    use crate::buffer::Buffer;
    use crate::config::DeviceConfig;
    use crate::gpu::Gpu;
    use crate::lane::LaneCtx;
    use crate::metrics::DeviceStats;
    use crate::profile::CaptureSink;

    /// Items of the thread-per-item launches: above [`PARALLEL_MIN_LANES`],
    /// with a partial last workgroup at every size used.
    const N: usize = 5003;
    /// Slots of `out`, fewer than workgroups, so workgroups share slots.
    const OUT: usize = 64;

    #[derive(Clone, Copy)]
    struct Bufs {
        src: Buffer<u32>,
        dst: Buffer<u32>,
        out: Buffer<u32>,
    }

    /// A small-test device with `workers` workers and the three buffers
    /// every test kernel uses; allocation is deterministic, so every
    /// device gets the same handles.
    fn device(workers: usize) -> (Gpu, Bufs) {
        let mut gpu = Gpu::new(DeviceConfig::small_test());
        gpu.workers = workers;
        let src: Vec<u32> = (0..N as u32)
            .map(|i| i.wrapping_mul(2_654_435_761) >> 7)
            .collect();
        let bufs = Bufs {
            src: gpu.alloc_named(src, "src"),
            dst: gpu.alloc_filled_named(N, 0u32, "dst"),
            out: gpu.alloc_filled_named(OUT, 0u32, "out"),
        };
        (gpu, bufs)
    }

    fn bufs() -> Bufs {
        device(1).1
    }

    /// Everything a launch leaves behind that must not depend on how its
    /// workgroups were executed.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        stats: DeviceStats,
        memory: Vec<Vec<u32>>,
        events: String,
    }

    fn observe(kernel: &dyn Kernel, launch: &Launch, workers: usize) -> Outcome {
        let (mut gpu, b) = device(workers);
        let capture = Rc::new(RefCell::new(CaptureSink::new()));
        gpu.attach_profiler(capture.clone());
        let stats = gpu.launch(kernel, launch.clone());
        let events = format!("{:?}", capture.borrow().events);
        Outcome {
            stats,
            memory: [b.src, b.dst, b.out].map(|x| gpu.read_back(x)).to_vec(),
            events,
        }
    }

    /// Declared with 1, 2 and 3 workers, with and without an observer,
    /// `launch` leaves exactly what the exclusive path leaves.
    fn assert_equivalent(kernel: &dyn Kernel, launch: Launch) {
        assert!(!launch.independent_groups);
        let exclusive = observe(kernel, &launch, 1);
        let declared = launch.independent_groups();
        for workers in 1..=3 {
            let got = observe(kernel, &declared, workers);
            assert_eq!(got, exclusive, "{} with {workers} workers", declared.name);
            let (mut gpu, b) = device(workers);
            let stats = gpu.launch(kernel, declared.clone());
            assert_eq!(stats, exclusive.stats);
            assert_eq!(gpu.read_back(b.out), exclusive.memory[2]);
        }
    }

    /// Thread-per-item: LDS atomics, a barrier, per-lane writes and a
    /// last-lane write into a slot other workgroups also write.
    fn per_item_kernel(b: Bufs) -> impl Fn(&mut LaneCtx) + Sync {
        move |ctx: &mut LaneCtx| {
            let i = ctx.item();
            let x = ctx.read(b.src, i);
            ctx.alu(1 + x % 5);
            ctx.lds_atomic_add(0, x % 7);
            ctx.barrier();
            ctx.write(b.dst, i, x.wrapping_mul(3));
            if ctx.is_last_in_group() {
                let sum = ctx.lds_read(0);
                ctx.write(b.out, ctx.group_id() % OUT, sum);
            }
        }
    }

    /// Workgroup-per-item: the group strides a pseudo adjacency list of
    /// data-dependent length, reduces through LDS, and the last lane
    /// publishes into shared slots.
    fn per_group_kernel(b: Bufs) -> impl Fn(&mut LaneCtx) + Sync {
        move |ctx: &mut LaneCtx| {
            let item = ctx.item();
            let deg = ctx.read(b.src, item) as usize % 200;
            let mut j = ctx.local_id();
            while j < deg {
                let v = ctx.read(b.src, (item * 31 + j) % N);
                if v.is_multiple_of(2) {
                    ctx.lds_atomic_or(0, 1 << (v % 32));
                }
                j += ctx.group_size();
            }
            ctx.barrier();
            if ctx.is_last_in_group() {
                let mask = ctx.lds_read(0);
                ctx.write(b.out, item % OUT, mask);
                ctx.write(b.dst, item, deg as u32);
            }
        }
    }

    #[test]
    fn thread_per_item_launches_match_the_exclusive_path() {
        let kernel = per_item_kernel(bufs());
        let base = Launch::threads("tpv", N).wg_size(8).lds_words(1);
        assert_equivalent(&kernel, base.clone());
        assert_equivalent(&kernel, base.clone().dynamic());
        // Chunks wider than the workgroup, the last one partial.
        assert_equivalent(&kernel, base.stealing(20));
    }

    #[test]
    fn workgroup_per_item_launches_match_the_exclusive_path() {
        let kernel = per_group_kernel(bufs());
        let items = PARALLEL_MIN_LANES.div_ceil(64) + 3;
        let base = Launch::groups("wgv", items).wg_size(64).lds_words(1);
        assert_equivalent(&kernel, base.clone());
        assert_equivalent(&kernel, base.clone().stealing(2));
        let mut rr = base.stealing(3);
        rr.mode = crate::kernel::ScheduleMode::StaticRoundRobin;
        assert_equivalent(&kernel, rr);
    }

    #[test]
    fn the_last_workgroup_to_write_an_address_wins() {
        let b = bufs();
        let kernel = move |ctx: &mut LaneCtx| {
            let i = ctx.item();
            ctx.write(b.out, 0, i as u32);
            ctx.write(b.out, 1 + i % 3, ctx.group_id() as u32);
        };
        let launch = Launch::threads("collide", N).wg_size(4);
        assert_equivalent(&kernel, launch.clone());
        let (mut gpu, b) = device(3);
        gpu.launch(&kernel, launch.independent_groups());
        assert_eq!(gpu.read_back(b.out)[0], N as u32 - 1);
    }

    #[test]
    fn zero_items_match_the_exclusive_path() {
        let kernel = per_item_kernel(bufs());
        assert_equivalent(&kernel, Launch::threads("empty", 0).wg_size(4).lds_words(1));
        assert_equivalent(
            &kernel,
            Launch::groups("empty-wgv", 0).wg_size(4).stealing(2),
        );
    }

    /// Host threads that ran lanes of `launch` with `workers` workers.
    fn threads_used(launch: Launch, workers: usize) -> usize {
        let b = bufs();
        let seen = Mutex::new(HashSet::new());
        let kernel = |ctx: &mut LaneCtx| {
            seen.lock().unwrap().insert(thread::current().id());
            let i = ctx.item();
            ctx.write(b.dst, i, 1);
        };
        let (mut gpu, _) = device(workers);
        gpu.launch(&kernel, launch.independent_groups());
        let n = seen.lock().unwrap().len();
        n
    }

    #[test]
    fn small_launches_spawn_no_thread_and_large_ones_respect_the_budget() {
        let small = Launch::threads("small", PARALLEL_MIN_LANES - 1).wg_size(4);
        assert_eq!(threads_used(small, 3), 1);
        let large = Launch::threads("large", N).wg_size(4);
        assert_eq!(threads_used(large.clone(), 1), 1);
        assert!(threads_used(large, 2) <= 2);
    }

    fn reads_what_it_writes(workers: usize) {
        let b = bufs();
        let kernel = move |ctx: &mut LaneCtx| {
            let i = ctx.item();
            let v = ctx.read(b.dst, i);
            ctx.write(b.dst, i, v + 1);
        };
        let (mut gpu, _) = device(workers);
        gpu.launch(
            &kernel,
            Launch::threads("rw", N).wg_size(4).independent_groups(),
        );
    }

    #[test]
    #[should_panic(expected = "kernel 'rw' declares independent groups but reads buffer 'dst'")]
    fn reading_a_written_buffer_panics_with_one_worker() {
        reads_what_it_writes(1);
    }

    #[test]
    #[should_panic(expected = "kernel 'rw' declares independent groups but reads buffer 'dst'")]
    fn reading_a_written_buffer_panics_with_several_workers() {
        reads_what_it_writes(3);
    }

    fn adds_atomically(workers: usize) {
        let b = bufs();
        let kernel = move |ctx: &mut LaneCtx| {
            ctx.atomic_add(b.out, ctx.item() % OUT, 1);
        };
        let (mut gpu, _) = device(workers);
        gpu.launch(
            &kernel,
            Launch::threads("count", N).wg_size(4).independent_groups(),
        );
    }

    #[test]
    #[should_panic(
        expected = "kernel 'count' declares independent groups but issues a global atomic on buffer 'out'"
    )]
    fn a_global_atomic_panics_with_one_worker() {
        adds_atomically(1);
    }

    #[test]
    #[should_panic(
        expected = "kernel 'count' declares independent groups but issues a global atomic on buffer 'out'"
    )]
    fn a_global_atomic_panics_with_several_workers() {
        adds_atomically(3);
    }

    #[test]
    #[should_panic(expected = "device memory fault: read u32[")]
    fn a_read_fault_in_a_worker_keeps_its_message() {
        let b = bufs();
        let kernel = move |ctx: &mut LaneCtx| {
            let v = ctx.read(b.src, ctx.item() + N / 2);
            ctx.write(b.dst, ctx.item(), v);
        };
        let (mut gpu, _) = device(3);
        gpu.launch(
            &kernel,
            Launch::threads("oob", N).wg_size(4).independent_groups(),
        );
    }

    #[test]
    #[should_panic(expected = "device memory fault: write u32[")]
    fn a_write_fault_in_a_worker_keeps_its_message() {
        let b = bufs();
        let kernel = move |ctx: &mut LaneCtx| {
            ctx.write(b.out, ctx.item(), 1);
        };
        let (mut gpu, _) = device(3);
        gpu.launch(
            &kernel,
            Launch::threads("oob", N).wg_size(4).independent_groups(),
        );
    }
}
