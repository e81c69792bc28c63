//! Kernel trait and launch descriptors.

use crate::lane::LaneCtx;

/// A device kernel: the body executed by every lane of a dispatch.
///
/// Implemented for any `Fn(&mut LaneCtx) + Sync`, so kernels are usually
/// closures capturing the (`Copy`) buffer handles they operate on. `Sync`
/// lets the workgroups of a launch that declares
/// [`Launch::independent_groups`] run on several host threads at once:
///
/// ```
/// # use gc_gpusim::{Gpu, DeviceConfig, Launch};
/// let mut gpu = Gpu::new(DeviceConfig::small_test());
/// let data = gpu.alloc_from(&[1u32, 2, 3, 4]);
/// gpu.launch(
///     &|ctx: &mut gc_gpusim::LaneCtx| {
///         let i = ctx.item();
///         let v = ctx.read(data, i);
///         ctx.write(data, i, v * 2);
///     },
///     Launch::threads("double", data.len()),
/// );
/// assert_eq!(gpu.read_back(data), vec![2, 4, 6, 8]);
/// ```
pub trait Kernel: Sync {
    /// Execute one lane. Under `ThreadPerItem` grids, `ctx.item()` is the
    /// lane's item; under `WorkgroupPerItem` grids every lane of a group
    /// shares `ctx.item()` and cooperates via `ctx.local_id()`.
    fn run(&self, ctx: &mut LaneCtx);
}

impl<F: Fn(&mut LaneCtx) + Sync> Kernel for F {
    fn run(&self, ctx: &mut LaneCtx) {
        self(ctx)
    }
}

/// How items map onto the dispatch geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridStyle {
    /// One lane per item (classic "thread per vertex").
    ThreadPerItem,
    /// One whole workgroup cooperates on each item ("workgroup per vertex");
    /// used for high-degree vertices in the hybrid algorithm.
    WorkgroupPerItem,
}

/// Workgroup-to-CU scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Workgroup `i` is pinned to CU `i mod num_cus` (static partitioning —
    /// the paper's baseline distribution).
    StaticRoundRobin,
    /// Workgroups dispatch in order to the next free CU (greedy hardware
    /// dispatcher).
    DynamicHw,
    /// Persistent workgroups pop fixed-size chunks of items from a shared
    /// queue; every pop costs a global atomic (the paper's work stealing).
    WorkStealing {
        /// Items handed out per queue pop.
        chunk_items: usize,
    },
}

/// Descriptor of one kernel dispatch.
#[derive(Debug, Clone)]
pub struct Launch {
    /// Name used in metrics and error messages.
    pub name: String,
    /// Number of items to process.
    pub items: usize,
    /// Item-to-lane mapping.
    pub grid: GridStyle,
    /// Lanes per workgroup. Must be a positive multiple of the wavefront
    /// size (enforced at launch).
    pub wg_size: usize,
    /// Words of LDS scratch available to each workgroup (zero-initialized
    /// for every item under `WorkgroupPerItem`, per workgroup otherwise).
    pub lds_words: usize,
    /// Scheduling policy.
    pub mode: ScheduleMode,
    /// The kernel's promise that its workgroups do not depend on each
    /// other: no lane reads a buffer the launch writes, and no lane issues
    /// a global atomic. The simulator may then run the workgroups on
    /// several host threads; results are identical either way, and a
    /// broken promise panics (see [`crate::lane`]).
    pub independent_groups: bool,
}

impl Launch {
    /// Thread-per-item launch with a 256-lane workgroup and static
    /// round-robin scheduling (the baseline configuration).
    pub fn threads(name: impl Into<String>, items: usize) -> Self {
        Self {
            name: name.into(),
            items,
            grid: GridStyle::ThreadPerItem,
            wg_size: 256,
            lds_words: 0,
            mode: ScheduleMode::StaticRoundRobin,
            independent_groups: false,
        }
    }

    /// Workgroup-per-item launch (cooperative kernels).
    pub fn groups(name: impl Into<String>, items: usize) -> Self {
        Self {
            name: name.into(),
            items,
            grid: GridStyle::WorkgroupPerItem,
            wg_size: 64,
            lds_words: 64,
            mode: ScheduleMode::DynamicHw,
            independent_groups: false,
        }
    }

    /// Set the workgroup size.
    pub fn wg_size(mut self, wg_size: usize) -> Self {
        self.wg_size = wg_size;
        self
    }

    /// Set the LDS scratch size in words.
    pub fn lds_words(mut self, words: usize) -> Self {
        self.lds_words = words;
        self
    }

    /// Use the greedy hardware dispatcher.
    pub fn dynamic(mut self) -> Self {
        self.mode = ScheduleMode::DynamicHw;
        self
    }

    /// Use work stealing with the given chunk size.
    pub fn stealing(mut self, chunk_items: usize) -> Self {
        self.mode = ScheduleMode::WorkStealing { chunk_items };
        self
    }

    /// Declare that the kernel's workgroups are independent (see
    /// [`Launch::independent_groups`]).
    pub fn independent_groups(mut self) -> Self {
        self.independent_groups = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let l = Launch::threads("k", 1000).wg_size(128).stealing(64);
        assert_eq!(l.wg_size, 128);
        assert_eq!(l.mode, ScheduleMode::WorkStealing { chunk_items: 64 });
        assert_eq!(l.grid, GridStyle::ThreadPerItem);

        let g = Launch::groups("g", 10).lds_words(32).dynamic();
        assert_eq!(g.grid, GridStyle::WorkgroupPerItem);
        assert_eq!(g.lds_words, 32);
        assert_eq!(g.mode, ScheduleMode::DynamicHw);
    }
}
