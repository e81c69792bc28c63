//! # gc-serve — a multi-tenant graph-coloring job server
//!
//! Without this crate every coloring is a one-shot CLI invocation with no
//! admission control and no reuse of repeated work. `gc-serve` turns the
//! stack into a long-lived service:
//!
//! * **Jobs over HTTP** — `POST /jobs` with a JSON [`JobSpec`] naming a
//!   registry dataset (or carrying an inline CSR) plus the same knobs the
//!   CLI takes. Specs resolve through the *shared* `gc-bench::cli`
//!   validation (`validate_knobs`, `color_job`), so a served job and a CLI
//!   run of the same configuration execute — and error — identically.
//! * **Asynchronous lifecycle** — submission returns a job id immediately;
//!   results are fetched with `GET /jobs/<id>` or by submitting with
//!   `?wait=1`. Worker threads execute jobs; a device job first takes
//!   one of the server's `devices` slots, so at most that many run at once.
//! * **Weighted fair admission** — tenants are scheduled by deficit round
//!   robin ([`queue::DrrQueue`]): each visit grants a tenant
//!   `quantum × weight` cost credit, jobs are charged their graph size, so
//!   one tenant's burst of huge graphs cannot starve another's trickle of
//!   small ones.
//! * **Fingerprint result cache** — results are cached under
//!   `(CsrGraph::fingerprint, algorithm, config hash)`; a repeat
//!   submission returns the *byte-identical* report without touching a
//!   device, with `"cached":true` in the response envelope. Every job
//!   executes alone, so the cached bytes depend only on the graph,
//!   algorithm and config.
//! * **Streaming mutations** — `POST /graphs/<fingerprint>/edges` applies
//!   an edge insertion/deletion batch ([`spec::MutationRequest`]) to a
//!   previously submitted graph (job responses carry the graph's
//!   `"fingerprint"` precisely so clients can address it) and recolors
//!   the cached result
//!   *incrementally* (`gc_core::gpu::incremental`): only the endpoints of
//!   edges that actually appeared are re-examined, deletions never force
//!   a recolor, and the new result replaces the old cache entry under the
//!   mutated graph's fingerprint. The response reports the recolor cost
//!   (dirty count, device iterations, cycles) next to the new report.
//! * **Observability** — job latency lands in the existing
//!   [`gc_gpusim::Histogram`] type, exported with every counter through a
//!   [`gc_gpusim::MetricsRegistry`] at `GET /metrics` (Prometheus text);
//!   completed jobs can append to the PR 7 run ledger.
//!
//! The binary (`gc-serve serve|load|bench|shutdown`) and the [`load`]
//! module provide an open-loop synthetic load generator and the F24
//! latency-vs-offered-load experiment.

pub mod cache;
pub mod http;
mod json;
pub mod load;
pub mod queue;
pub mod server;
pub mod spec;

pub use cache::{CacheKey, ResultCache};
pub use load::{run_load, LoadMix, LoadOptions, LoadSummary};
pub use queue::DrrQueue;
pub use server::{Server, ServerConfig};
pub use spec::{JobSpec, MutationRequest, ResolvedJob};
