//! The per-lane kernel execution context.
//!
//! A kernel body receives a [`LaneCtx`] and performs all device memory
//! traffic through it. Every call first *executes* the operation against the
//! simulated memory (functional result, bounds checked) and then *records*
//! it for the timing model.
//!
//! # Execution contract
//!
//! The simulator executes the lanes of a workgroup **sequentially in
//! increasing local-id order**, each lane running its kernel body to
//! completion. Consequences kernel authors rely on:
//!
//! * Atomics need no special machinery: a read-modify-write is indivisible.
//! * [`LaneCtx::barrier`] is a **timing** construct only (it aligns the cost
//!   model and charges barrier cycles). For cross-lane reductions through
//!   LDS, accumulate with LDS atomics and let the **last** lane of the
//!   workgroup ([`LaneCtx::is_last_in_group`]) read the final value — in
//!   sequential order it observes every prior lane's contribution, and on a
//!   real GPU the same code is correct with the barrier.
//! * Cross-workgroup data races resolve in workgroup execution order, which
//!   is deterministic for a given dispatch; algorithms must be correct under
//!   *any* interleaving (as on real hardware), and the simulator realizes one
//!   legal one.
//!
//! A launch that declares [`crate::Launch::independent_groups`] promises
//! more: no lane reads a buffer the launch writes, and no lane issues a
//! global atomic. Its workgroups then run on several host threads, and
//! global memory behaves as if every workgroup ran alone:
//!
//! * every global read sees memory as it was when the launch started;
//! * every global write lands after the launch, in workgroup order, so of
//!   two workgroups writing one address the later one wins, exactly as in
//!   sequential execution.
//!
//! LDS and barriers behave as above. The promise is checked in every build:
//! a read of a written buffer or a global atomic panics, naming the kernel
//! and the buffer.

use crate::buffer::{AtomicScalar, Buffer, DeviceScalar};
use crate::buffer::{MemoryState, WriteLog};
use crate::trace::{Op, Recorder};

/// Identity of the executing lane within the dispatch.
#[derive(Debug, Clone, Copy)]
pub struct LaneIds {
    /// Index of the item this lane works on under `ThreadPerItem` grids, or
    /// the workgroup's item under `WorkgroupPerItem` grids.
    pub item: usize,
    /// Lane index within the wavefront, `0..wavefront_size`.
    pub lane: usize,
    /// Wavefront index within the workgroup.
    pub wave: usize,
    /// Lane index within the workgroup, `0..group_size`.
    pub local: usize,
    /// Workgroup index within the dispatch.
    pub group: usize,
    /// Lanes per workgroup for this dispatch.
    pub group_size: usize,
    /// Total items in the dispatch.
    pub num_items: usize,
}

/// Where a lane's global memory traffic goes.
pub(crate) enum LaneMem<'a> {
    /// Every access acts on device memory at once.
    Direct(&'a mut MemoryState),
    /// A launch declaring independent groups: reads see launch-start
    /// memory and writes go to the worker's log.
    Deferred {
        mem: &'a MemoryState,
        log: &'a mut WriteLog,
        kernel: &'a str,
    },
}

impl LaneMem<'_> {
    /// The same destination, borrowed for one lane.
    #[inline]
    pub(crate) fn reborrow(&mut self) -> LaneMem<'_> {
        match self {
            LaneMem::Direct(mem) => LaneMem::Direct(mem),
            LaneMem::Deferred { mem, log, kernel } => LaneMem::Deferred { mem, log, kernel },
        }
    }
}

/// Kernel-side handle to the device: memory access, LDS, and identity.
pub struct LaneCtx<'a> {
    pub(crate) mem: LaneMem<'a>,
    pub(crate) lds: &'a mut [u32],
    pub(crate) rec: &'a mut Recorder,
    pub(crate) ids: LaneIds,
}

impl<'a> LaneCtx<'a> {
    /// The item index this invocation is responsible for. Under
    /// `ThreadPerItem` grids this is the global thread id clamped to the
    /// item range; under `WorkgroupPerItem` grids every lane of the group
    /// sees the same item and cooperates via [`Self::local_id`].
    #[inline]
    pub fn item(&self) -> usize {
        self.ids.item
    }

    /// Lane index within the wavefront.
    #[inline]
    pub fn lane_id(&self) -> usize {
        self.ids.lane
    }

    /// Lane index within the workgroup.
    #[inline]
    pub fn local_id(&self) -> usize {
        self.ids.local
    }

    /// Workgroup index within the dispatch.
    #[inline]
    pub fn group_id(&self) -> usize {
        self.ids.group
    }

    /// Lanes per workgroup.
    #[inline]
    pub fn group_size(&self) -> usize {
        self.ids.group_size
    }

    /// Total number of items in the dispatch.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.ids.num_items
    }

    /// True for the lane with the highest local id in the workgroup. Under
    /// the sequential execution contract this lane observes every other
    /// lane's LDS writes (and their global writes, unless the launch
    /// declares independent groups), so it is the canonical finalizer for
    /// workgroup reductions.
    #[inline]
    pub fn is_last_in_group(&self) -> bool {
        self.ids.local + 1 == self.ids.group_size
    }

    /// Charge `count` vector ALU instructions (compares, index math, bit
    /// twiddling). Consecutive charges merge into one SIMT step.
    #[inline]
    pub fn alu(&mut self, count: u32) {
        self.rec.record(Op::Alu(count));
    }

    /// Read `buf[idx]` from global memory.
    #[inline]
    #[track_caller]
    pub fn read<T: DeviceScalar>(&mut self, buf: Buffer<T>, idx: usize) -> T {
        let value = match &mut self.mem {
            LaneMem::Direct(mem) => mem.load(&buf, idx),
            LaneMem::Deferred { mem, log, .. } => {
                let value = mem.load(&buf, idx);
                log.note_read(&buf);
                value
            }
        };
        self.rec.record(Op::GlobalRead {
            addr: buf.addr_of(idx),
        });
        value
    }

    /// Write `value` to `buf[idx]` in global memory.
    #[inline]
    #[track_caller]
    pub fn write<T: DeviceScalar>(&mut self, buf: Buffer<T>, idx: usize, value: T) {
        match &mut self.mem {
            LaneMem::Direct(mem) => mem.store(&buf, idx, value),
            LaneMem::Deferred { mem, log, .. } => log.write(mem, &buf, idx, value),
        }
        self.rec.record(Op::GlobalWrite {
            addr: buf.addr_of(idx),
        });
    }

    /// Functional read-modify-write of a global atomic.
    #[inline]
    #[track_caller]
    fn rmw<T: DeviceScalar>(&mut self, buf: Buffer<T>, idx: usize, f: impl FnOnce(T) -> T) -> T {
        match &mut self.mem {
            LaneMem::Direct(mem) => mem.rmw(&buf, idx, f),
            LaneMem::Deferred { mem, kernel, .. } => panic!(
                "kernel '{kernel}' declares independent groups but issues a global atomic \
                 on buffer '{}'",
                mem.buffer_name(buf.id)
            ),
        }
    }

    #[inline]
    #[track_caller]
    fn atomic<T: DeviceScalar>(&mut self, buf: Buffer<T>, idx: usize, f: impl FnOnce(T) -> T) -> T {
        let old = self.rmw(buf, idx, f);
        self.rec.record(Op::GlobalAtomic {
            addr: buf.addr_of(idx),
        });
        old
    }

    /// Atomic `buf[idx] += value`, returning the previous value.
    #[track_caller]
    pub fn atomic_add<T: AtomicScalar>(&mut self, buf: Buffer<T>, idx: usize, value: T) -> T {
        self.atomic(buf, idx, |old| old.wrapping_add(value))
    }

    /// Wavefront-aggregated atomic `buf[idx] += value`, returning the
    /// previous value. Functionally identical to [`Self::atomic_add`];
    /// in the timing model the wavefront's lanes combine (ballot + lane
    /// scan) into a single memory atomic, so same-address lanes do not
    /// serialize — the standard trick for worklist pushes.
    #[track_caller]
    pub fn atomic_add_aggregated<T: AtomicScalar>(
        &mut self,
        buf: Buffer<T>,
        idx: usize,
        value: T,
    ) -> T {
        let old = self.rmw(buf, idx, |old| old.wrapping_add(value));
        self.rec.record(Op::GlobalAtomicAgg {
            addr: buf.addr_of(idx),
        });
        old
    }

    /// Atomic `buf[idx] = max(buf[idx], value)`, returning the previous value.
    #[track_caller]
    pub fn atomic_max<T: AtomicScalar>(&mut self, buf: Buffer<T>, idx: usize, value: T) -> T {
        self.atomic(buf, idx, |old| old.max(value))
    }

    /// Read LDS word `word` (workgroup-local scratch).
    #[inline]
    #[track_caller]
    pub fn lds_read(&mut self, word: usize) -> u32 {
        let value = self.lds[word];
        self.rec.record(Op::LdsRead { word: word as u32 });
        value
    }

    /// Write LDS word `word`.
    #[inline]
    #[track_caller]
    pub fn lds_write(&mut self, word: usize, value: u32) {
        self.lds[word] = value;
        self.rec.record(Op::LdsWrite { word: word as u32 });
    }

    /// Atomic `lds[word] |= value`, returning the previous value.
    #[track_caller]
    pub fn lds_atomic_or(&mut self, word: usize, value: u32) -> u32 {
        let old = self.lds[word];
        self.lds[word] = old | value;
        self.rec.record(Op::LdsAtomic { word: word as u32 });
        old
    }

    /// Atomic `lds[word] += value`, returning the previous value.
    #[track_caller]
    pub fn lds_atomic_add(&mut self, word: usize, value: u32) -> u32 {
        let old = self.lds[word];
        self.lds[word] = old.wrapping_add(value);
        self.rec.record(Op::LdsAtomic { word: word as u32 });
        old
    }

    /// Workgroup barrier. Timing-only under the execution contract (see
    /// module docs); every lane of the workgroup must execute the same
    /// number of barriers or the dispatch panics.
    #[inline]
    pub fn barrier(&mut self) {
        self.rec.record(Op::Barrier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> LaneIds {
        LaneIds {
            item: 3,
            lane: 3,
            wave: 0,
            local: 3,
            group: 1,
            group_size: 4,
            num_items: 100,
        }
    }

    /// Run `f` as lane 3 of a 4-wide wave; returns its result, its recorded
    /// ops (first segment) and the LDS.
    fn run_lane<R>(
        mem: &mut MemoryState,
        f: impl FnOnce(&mut LaneCtx) -> R,
    ) -> (R, Vec<Op>, Vec<u32>) {
        let mut lds = vec![0u32; 16];
        let mut rec = Recorder::new(4);
        rec.begin_lane(0, 3);
        let r = f(&mut LaneCtx {
            mem: LaneMem::Direct(mem),
            lds: &mut lds,
            rec: &mut rec,
            ids: ids(),
        });
        rec.end_lane();
        let ops = rec.lane_ops(0, 0, 3);
        (r, ops, lds)
    }

    #[test]
    fn reads_and_writes_record_trace() {
        let mut mem = MemoryState::new();
        let buf = mem.alloc(vec![5u32, 6]);
        let (_, ops, _) = run_lane(&mut mem, |ctx| {
            assert_eq!(ctx.read(buf, 1), 6);
            ctx.write(buf, 0, 9);
            ctx.alu(2);
            ctx.lds_read(1);
        });
        assert_eq!(
            ops,
            vec![
                Op::GlobalRead {
                    addr: buf.addr_of(1)
                },
                Op::GlobalWrite {
                    addr: buf.addr_of(0)
                },
                Op::Alu(2),
                Op::LdsRead { word: 1 },
            ]
        );
        assert_eq!(mem.load(&buf, 0), 9);
    }

    #[test]
    fn atomics_return_old_values() {
        let mut mem = MemoryState::new();
        let buf = mem.alloc(vec![10u32; 4]);
        let (_, ops, _) = run_lane(&mut mem, |ctx| {
            assert_eq!(ctx.atomic_add(buf, 0, 5), 10);
            assert_eq!(ctx.atomic_max(buf, 2, 99), 10);
            assert_eq!(ctx.atomic_max(buf, 2, 7), 99);
        });
        assert_eq!(mem.as_slice(&buf), &[15, 10, 99, 10]);
        assert_eq!(ops.len(), 3);
        assert!(ops.iter().all(|o| matches!(o, Op::GlobalAtomic { .. })));
    }

    #[test]
    fn aggregated_atomic_is_functionally_plain() {
        let mut mem = MemoryState::new();
        let buf = mem.alloc(vec![100u32]);
        let (old, ops, _) = run_lane(&mut mem, |ctx| ctx.atomic_add_aggregated(buf, 0, 7));
        assert_eq!(old, 100);
        assert_eq!(mem.load(&buf, 0), 107);
        assert_eq!(
            ops,
            vec![Op::GlobalAtomicAgg {
                addr: buf.addr_of(0)
            }]
        );
    }

    #[test]
    fn lds_atomics_accumulate() {
        let mut mem = MemoryState::new();
        let ((), ops, lds) = run_lane(&mut mem, |ctx| {
            ctx.lds_write(0, 0b001);
            assert_eq!(ctx.lds_atomic_or(0, 0b100), 0b001);
            assert_eq!(ctx.lds_atomic_add(1, 2), 0);
            assert_eq!(ctx.lds_read(0), 0b101);
        });
        assert_eq!(lds[0], 0b101);
        assert_eq!(lds[1], 2);
        assert_eq!(ops[1], Op::LdsAtomic { word: 0 });
    }

    #[test]
    fn identity_accessors() {
        let mut mem = MemoryState::new();
        run_lane(&mut mem, |ctx| {
            assert_eq!(ctx.item(), 3);
            assert_eq!(ctx.lane_id(), 3);
            assert_eq!(ctx.local_id(), 3);
            assert_eq!(ctx.group_id(), 1);
            assert_eq!(ctx.group_size(), 4);
            assert_eq!(ctx.num_items(), 100);
            assert!(ctx.is_last_in_group());
        });
    }

    // An out-of-range index faults in memory before anything is recorded,
    // so debug builds report the fault rather than an address overflow.

    #[test]
    #[should_panic(expected = "device memory fault")]
    fn out_of_range_read_faults() {
        let mut mem = MemoryState::new();
        let buf = mem.alloc(vec![0u32; 4]);
        run_lane(&mut mem, |ctx| ctx.read(buf, usize::MAX));
    }

    #[test]
    #[should_panic(expected = "device memory fault")]
    fn out_of_range_write_faults() {
        let mut mem = MemoryState::new();
        let buf = mem.alloc(vec![0u32; 4]);
        run_lane(&mut mem, |ctx| ctx.write(buf, usize::MAX, 1));
    }

    #[test]
    #[should_panic(expected = "device memory fault")]
    fn out_of_range_atomic_faults() {
        let mut mem = MemoryState::new();
        let buf = mem.alloc(vec![0u64; 4]);
        run_lane(&mut mem, |ctx| ctx.atomic_add(buf, usize::MAX, 1));
    }
}
