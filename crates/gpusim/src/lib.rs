//! # gc-gpusim — a deterministic analytical SIMT GPU simulator
//!
//! This crate is the hardware substrate of the reproduction of *"Graph
//! Coloring on the GPU and Some Techniques to Improve Load Imbalance"*
//! (Che, Rodgers, Beckmann, Reinhardt — IPDPSW 2015). The paper ran OpenCL
//! kernels on an AMD Radeon HD 7950; this simulator stands in for that GPU
//! so the algorithms, their load-imbalance pathologies, and the paper's
//! optimizations (work stealing, hybrid degree binning) can be studied in
//! pure Rust.
//!
//! ## What is modeled
//!
//! * **Geometry** — compute units, 64-lane wavefronts issued over 16-wide
//!   SIMDs, workgroups, LDS, resident-wave occupancy
//!   ([`DeviceConfig::hd7950`] matches Tahiti).
//! * **Intra-wavefront imbalance** — lanes execute in SIMT lockstep; a lane
//!   that finishes early idles until the slowest lane of its wavefront is
//!   done. SIMD utilization is reported per kernel.
//! * **Divergence** — lanes executing different operation kinds at the same
//!   step serialize.
//! * **Memory** — accesses coalesce into cache-line transactions; latency is
//!   hidden by occupancy; atomics to one address serialize.
//! * **Scheduling** — static round-robin workgroup placement (baseline),
//!   greedy hardware dispatch, and persistent-workgroup work stealing with
//!   per-pop atomic cost ([`ScheduleMode`]).
//! * **Overheads** — kernel launch, workgroup dispatch, barriers, LDS bank
//!   conflicts.
//! * **Observability** — optional [`ProfileSink`] observers receive kernel
//!   dispatch/retire, workgroup-retire, steal-pop, and iteration events;
//!   [`CaptureSink`] records them in emission order and renders them as a
//!   Perfetto-compatible timeline with one track per compute unit
//!   ([`CaptureSink::write_chrome`]) or as JSON lines
//!   ([`CaptureSink::write_jsonl`]). Every launch additionally attributes
//!   its memory counters to named buffers ([`BufferMemStats`]), tracks the
//!   hottest cache lines by atomic traffic ([`HotLine`]), and records
//!   lane-occupancy / workgroup-duration / steal-depth distributions as
//!   log2 [`Histogram`]s.
//!
//! ## What is not modeled
//!
//! Caches beyond the coalescing window, instruction scheduling details,
//! register pressure, and DVFS. Absolute cycle counts are *model* cycles;
//! the reproduction compares configurations against each other, never
//! against wall-clock silicon.
//!
//! ## Execution contract
//!
//! Kernels are plain Rust closures over [`LaneCtx`]. Lanes of a workgroup
//! execute sequentially in increasing local-id order, and workgroups in a
//! deterministic event order, so every run is exactly reproducible. A launch
//! that declares [`Launch::independent_groups`] runs its workgroups on
//! several host threads with the same results. See [`lane`] for the rules
//! this implies for barriers, LDS reductions and declared launches.

pub mod buffer;
mod cache;
pub mod config;
mod exec;
pub mod gpu;
pub mod host;
pub mod kernel;
pub mod lane;
pub mod metrics;
pub mod multi;
pub mod profile;
#[cfg(test)]
mod reference;
pub mod registry;
mod scheduler;
mod trace;
mod wave;
mod workgroup;

pub use buffer::{AtomicScalar, Buffer, DeviceScalar};
pub use config::DeviceConfig;
pub use gpu::{Gpu, Launcher};
pub use host::HostCostModel;
pub use kernel::{GridStyle, Kernel, Launch, ScheduleMode};
pub use lane::{LaneCtx, LaneIds};
pub use metrics::{
    imbalance_factor_of, utilization_of, BufferMemStats, DeviceStats, Histogram, HotLine,
    HOT_LINES_TOP_K,
};
pub use multi::{LinkConfig, MultiDeviceStats, MultiGpu, StepKind, StepSpan};
pub use profile::{
    write_multi_phase_trace, CaptureSink, CapturedWatchdog, ProfileSink, SharedSink, WatchdogEvent,
};
pub use registry::{validate_prometheus_text, MetricsRegistry};
