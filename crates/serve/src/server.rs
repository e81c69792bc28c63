//! The job server: admission, execution, caching, observability.
//!
//! Life of a job: `submit` resolves the [`JobSpec`] through the shared CLI
//! validation, probes the result cache — a hit completes the job
//! immediately with the cached bytes — and otherwise enqueues it under
//! deficit round robin. Worker threads pop jobs fairly, execute each one
//! alone (a device job inside one of the server's device slots, see
//! `SlotGate`), and publish the report bytes. A job never shares a launch
//! with another, so its report (and the cached bytes every later hit
//! serves) depends only on its graph, algorithm and config. Waiters block
//! on a condvar; every completion lands in the latency histograms and,
//! optionally, the run ledger.
//!
//! A finished job keeps only its tenant, fingerprint, hit flag and a
//! shared handle on the cached report bytes. The response envelope is
//! rendered from those each time it is served, by concatenation with the
//! report JSON as the *last* field, so the `report` value in a cache-hit
//! response is the stored bytes verbatim — byte-identity with the first
//! response is structural, not a serializer accident:
//!
//! ```json
//! {"job_id":7,"tenant":"a","status":"done","cached":true,"report":{...}}
//! ```
//!
//! Connections (see [`Server::serve`]): every connection-handler thread
//! accepts from the shared listener and serves the connection it accepted
//! on the same thread, so a request wakes one thread, not an accept thread
//! and then a handler. A handler that accepts while no other handler is
//! idle first starts one more, so one is always waiting in `accept`; a
//! handler whose response write would block (a client that does not read)
//! counts itself busy the same way. The pool grows to the peak number of
//! connections in flight and is exported as the `gc_serve_handler_threads`
//! gauge. Every accepted stream reads and writes under a 30 s timeout, so
//! a silent client holds its handler for at most that long.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gc_core::RunReport;
use gc_gpusim::{Histogram, MetricsRegistry};
use gc_graph::CsrGraph;

use crate::cache::{CacheKey, ResultCache};
use crate::http::{read_request, response_bytes, Request};
use crate::json;
use crate::queue::DrrQueue;
use crate::spec::{self, JobSpec, MutationRequest, ResolvedJob};

/// Server tuning knobs (all have serving-friendly defaults).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Device slots: at most this many device jobs execute at once.
    pub devices: usize,
    /// Worker threads. 0 runs no workers — callers then drive execution
    /// with [`Server::step`] (deterministic tests, synchronous embedding).
    pub workers: usize,
    /// Result-cache capacity in reports (0 disables caching).
    pub cache_capacity: usize,
    /// DRR credit granted per weight point per round, in cost units
    /// (vertices + arcs).
    pub quantum: u64,
    /// Device model single-device jobs run on (`gc-color --device`).
    pub device: String,
    /// Append completed jobs to this run ledger.
    pub ledger: Option<String>,
    /// Static tenant weights (unlisted tenants default to weight 1).
    pub tenant_weights: Vec<(String, u64)>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            devices: 2,
            workers: 2,
            cache_capacity: 64,
            quantum: 4096,
            device: "hd7950".into(),
            ledger: None,
            tenant_weights: Vec::new(),
        }
    }
}

struct QueuedJob {
    id: u64,
    resolved: ResolvedJob,
    submitted: Instant,
}

enum JobState {
    Queued,
    Running,
    /// What the response envelope is rendered from each time it is
    /// served; `report` shares its bytes with the result cache.
    Done {
        tenant: String,
        fingerprint: u64,
        cached: bool,
        report: Arc<String>,
    },
}

impl JobState {
    fn status(&self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done { .. } => "done",
        }
    }

    /// The response envelope of job `id`, once it is done.
    fn envelope(&self, id: u64) -> Option<String> {
        match self {
            Self::Done {
                tenant,
                fingerprint,
                cached,
                report,
            } => Some(envelope(id, tenant, *fingerprint, *cached, report)),
            _ => None,
        }
    }
}

struct QueueState {
    queue: DrrQueue<QueuedJob>,
    shutdown: bool,
}

#[derive(Default)]
struct Metrics {
    jobs_total: BTreeMap<String, u64>,
    /// Streaming edge batches applied through the mutation endpoint.
    mutations: u64,
    /// Total dirty vertices those mutations recolored.
    mutation_dirty: u64,
    /// Latency from submission to completion in µs, per tenant plus an
    /// aggregate "all" series.
    latency_us: BTreeMap<String, Histogram>,
}

/// Registry entry: the graph behind a fingerprint plus the label it was
/// first submitted under. Mutations register the mutated graph under its
/// new fingerprint with the same label, so the ledger keeps the lineage
/// while the fingerprint column tracks the structure.
struct GraphEntry {
    graph: Arc<CsrGraph>,
    label: String,
}

struct Shared {
    cfg: ServerConfig,
    queue: Mutex<QueueState>,
    work: Condvar,
    /// Signalled with `work` by `begin_shutdown`, on the `queue` lock:
    /// what `serve`'s own thread waits on, so it never takes a wake-up
    /// meant for a worker.
    stopped: Condvar,
    jobs: Mutex<BTreeMap<u64, JobState>>,
    done: Condvar,
    next_id: AtomicU64,
    cache: Mutex<ResultCache>,
    /// Graphs seen by this server, by fingerprint — the lookup the
    /// mutation endpoint resolves `POST /graphs/<fp>/edges` against (the
    /// result cache stores report bytes only, not structure).
    graphs: Mutex<BTreeMap<u64, GraphEntry>>,
    slots: SlotGate,
    metrics: Mutex<Metrics>,
    handlers: Mutex<Handlers>,
}

/// The connection-handler threads of [`Server::serve`]: `live` ones run,
/// and `idle` ones of those are not serving a connection (they wait in
/// `accept` or are on their way back to it).
#[derive(Default)]
struct Handlers {
    live: usize,
    idle: usize,
}

/// What the connection handlers of one [`Server::serve`] call share.
struct Acceptor {
    listener: TcpListener,
    /// Where an exiting handler connects to wake a peer blocked in
    /// `accept`.
    addr: SocketAddr,
    /// The first `accept` error, which ends `serve`.
    error: Mutex<Option<String>>,
}

/// Read and write timeout of every accepted connection.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Counting gate over the server's device slots: a device job holds one
/// slot while it runs, so at most `slots` device jobs run at once.
///
/// Slots are counted rather than holding devices because a
/// [`gc_gpusim::Gpu`] is not `Send` (its profiler hook takes `Rc`-shared
/// sinks), so a device cannot pass between worker threads. Each job builds
/// its device inside the worker instead: the simulator is deterministic
/// and keeps no state across runs, so a fresh device is indistinguishable
/// from a reused one with its statistics reset. A slot is a unit of
/// admission, not a host thread: a multi-device job holds one slot, yet
/// [`gc_gpusim::MultiGpu::each_device`] simulates its devices on up to
/// `available_parallelism()` host threads unless a profiler is attached.
struct SlotGate {
    slots: usize,
    in_use: Mutex<usize>,
    freed: Condvar,
}

/// One held slot, given back on drop — also while a panicking job unwinds.
struct Slot<'a>(&'a SlotGate);

impl SlotGate {
    fn new(slots: usize) -> Self {
        Self {
            slots,
            in_use: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Block until a slot is free and take it.
    fn acquire(&self) -> Slot<'_> {
        let mut in_use = self.lock();
        while *in_use == self.slots {
            in_use = self
                .freed
                .wait(in_use)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *in_use += 1;
        Slot(self)
    }

    fn in_use(&self) -> usize {
        *self.lock()
    }

    /// Every update of the count is a single step, so the count is still
    /// right after a panic has poisoned the lock.
    fn lock(&self) -> MutexGuard<'_, usize> {
        self.in_use.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        *self.0.lock() -= 1;
        self.0.freed.notify_one();
    }
}

/// A running job server (workers spawned at construction). Dropping the
/// server drains the queue and joins the workers.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Build the server and spawn its worker threads.
    pub fn new(cfg: ServerConfig) -> Result<Self, String> {
        // Refuse an unknown `--device` at startup, not at the first job.
        gc_gpusim::DeviceConfig::by_name(&cfg.device)?;
        let mut queue = DrrQueue::new(cfg.quantum);
        for (tenant, weight) in &cfg.tenant_weights {
            queue.set_weight(tenant, *weight);
        }
        let shared = Arc::new(Shared {
            cache: Mutex::new(ResultCache::new(cfg.cache_capacity)),
            queue: Mutex::new(QueueState {
                queue,
                shutdown: false,
            }),
            work: Condvar::new(),
            stopped: Condvar::new(),
            jobs: Mutex::new(BTreeMap::new()),
            done: Condvar::new(),
            next_id: AtomicU64::new(0),
            graphs: Mutex::new(BTreeMap::new()),
            slots: SlotGate::new(cfg.devices.max(1)),
            metrics: Mutex::new(Metrics::default()),
            handlers: Mutex::new(Handlers::default()),
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || {
                    while let Some(job) = sh.next_job(true) {
                        sh.execute(job);
                    }
                })
            })
            .collect();
        Ok(Self { shared, workers })
    }

    /// Resolve, admit, and (on a cache hit) immediately complete a job.
    /// Returns the job id; fetch the result with [`Server::wait`].
    pub fn submit(&self, spec: &JobSpec) -> Result<u64, String> {
        self.shared.submit(spec)
    }

    /// Apply a streaming edge batch to the registered graph with this
    /// fingerprint, recoloring the cached result incrementally (see
    /// `POST /graphs/<fingerprint>/edges`). Returns the JSON response
    /// body; errors carry the HTTP status the route layer serves.
    pub fn mutate(&self, fingerprint: u64, req: &MutationRequest) -> Result<String, (u16, String)> {
        self.shared.mutate(fingerprint, req)
    }

    /// Block until job `id` completes and return its response envelope.
    /// `None` for an unknown id.
    pub fn wait(&self, id: u64) -> Option<String> {
        self.shared.wait(id)
    }

    /// Current status without blocking: `(status, response-if-done)`.
    pub fn status(&self, id: u64) -> Option<(&'static str, Option<String>)> {
        let jobs = self.shared.jobs.lock().unwrap();
        jobs.get(&id).map(|j| (j.status(), j.envelope(id)))
    }

    /// Execute the next job DRR admits on the calling thread. Returns
    /// false when the queue is idle. With `workers: 0` this gives tests
    /// and embedders deterministic control over execution order.
    pub fn step(&self) -> bool {
        match self.shared.next_job(false) {
            Some(job) => {
                self.shared.execute(job);
                true
            }
            None => false,
        }
    }

    /// Jobs currently queued (not running, not done).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().unwrap().queue.len()
    }

    /// Render the metrics registry as Prometheus text (see `/metrics`).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Stop accepting queue work, drain queued jobs, join the workers.
    pub fn shutdown(&mut self) {
        self.shared.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Serve HTTP on `listener` until `POST /shutdown`, then drain and
    /// join the workers. Consumes the server.
    ///
    /// Connection handlers are persistent threads, each of which accepts a
    /// connection from `listener` and serves it itself. A handler that
    /// accepts while no other handler is idle first starts one more, so a
    /// handler is always waiting in `accept`. A handler counts itself idle
    /// once it starts writing its response, and busy again (starting one
    /// more handler if need be) if that write would block. Every accepted
    /// stream gets a 30 s read and write timeout. A panic while a
    /// connection is served ends that connection only.
    ///
    /// This thread handles no connection: it waits for the shutdown flag,
    /// so it returns once `/shutdown` has been answered and the workers
    /// have drained, whatever other connections are doing. Handlers check
    /// the flag before and after `accept`, and every handler that exits
    /// connects to the listener once, which wakes the next handler blocked
    /// in `accept`; so shutdown reaches the idle ones, and the last to
    /// exit closes the listening socket. Handlers are not joined: one
    /// reading a slow client exits when its read ends, within the timeout.
    /// An `accept` error shuts the server down and is returned.
    pub fn serve(mut self, listener: TcpListener) -> Result<(), String> {
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let acceptor = Arc::new(Acceptor {
            listener,
            addr,
            error: Mutex::new(None),
        });
        *self.shared.handlers() = Handlers { live: 1, idle: 1 };
        spawn_handler(&self.shared, &acceptor)
            .map_err(|e| format!("start a connection handler: {e}"))?;
        let q = self.shared.queue.lock().unwrap();
        drop(self.shared.stopped.wait_while(q, |q| !q.shutdown).unwrap());
        self.shutdown();
        let error = acceptor.error.lock().unwrap().take();
        error.map_or(Ok(()), Err)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    fn submit(&self, spec: &JobSpec) -> Result<u64, String> {
        let resolved = spec::resolve_for(spec, &self.cfg.device)?;
        // Register the graph so mutation requests can find it by
        // fingerprint later (cache hits included — the cached report has
        // no structure to recolor against).
        self.graphs
            .lock()
            .unwrap()
            .entry(resolved.fingerprint)
            .or_insert_with(|| GraphEntry {
                graph: Arc::clone(&resolved.graph),
                label: resolved.graph_label.clone(),
            });
        let submitted = Instant::now();
        let id = self.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let hit = self.cache.lock().unwrap().get(&resolved.cache_key());
        if let Some(report) = hit {
            self.jobs.lock().unwrap().insert(
                id,
                JobState::Done {
                    tenant: resolved.tenant.clone(),
                    fingerprint: resolved.fingerprint,
                    cached: true,
                    report,
                },
            );
            self.done.notify_all();
            self.record_completion(&resolved.tenant, submitted);
            return Ok(id);
        }
        let tenant = resolved.tenant.clone();
        let cost = resolved.cost();
        {
            let mut q = self.queue.lock().unwrap();
            if q.shutdown {
                return Err("server is shutting down".into());
            }
            self.jobs.lock().unwrap().insert(id, JobState::Queued);
            q.queue.push(
                &tenant,
                cost,
                QueuedJob {
                    id,
                    resolved,
                    submitted,
                },
            );
        }
        self.work.notify_one();
        Ok(id)
    }

    /// Pop the next job under DRR and mark it running. `blocking` waits
    /// for work and returns `None` only at shutdown with an empty queue
    /// (so queued jobs always drain).
    fn next_job(&self, blocking: bool) -> Option<QueuedJob> {
        let mut q = self.queue.lock().unwrap();
        let (_, job) = loop {
            if let Some(item) = q.queue.pop() {
                break item;
            }
            if !blocking || q.shutdown {
                return None;
            }
            q = self.work.wait(q).unwrap();
        };
        drop(q);
        if let Some(state) = self.jobs.lock().unwrap().get_mut(&job.id) {
            *state = JobState::Running;
        }
        Some(job)
    }

    fn execute(&self, job: QueuedJob) {
        let report = self.run(&job.resolved);
        self.finish(&job, &report);
    }

    fn run(&self, resolved: &ResolvedJob) -> RunReport {
        // Host algorithms never take a device slot.
        let _slot = resolved.job.is_device_job().then(|| self.slots.acquire());
        resolved.job.execute(&resolved.graph)
    }

    /// The mutation endpoint: apply an edge batch to graph `fp`, recolor
    /// the cached result incrementally from its colors, and re-register
    /// graph and result under the new fingerprint. The `report` field of
    /// the response is the bytes now cached under that fingerprint (for a
    /// no-op batch those are the untouched original bytes), so future
    /// cache hits are byte-identical to this response's report by
    /// construction. Errors are `(status, json-body)` pairs ready to
    /// serve.
    fn mutate(&self, fp: u64, req: &MutationRequest) -> Result<String, (u16, String)> {
        fn fail(status: u16, msg: &str) -> (u16, String) {
            (status, error_body(msg))
        }
        if req.job.dataset.is_some()
            || req.job.scale.is_some()
            || req.job.row_ptr.is_some()
            || req.job.col_idx.is_some()
        {
            return Err(fail(
                400,
                "mutation job config must not name a graph source — \
                 the graph comes from the fingerprint in the path",
            ));
        }
        let entry = {
            let graphs = self.graphs.lock().unwrap();
            let Some(e) = graphs.get(&fp) else {
                return Err(fail(
                    404,
                    "unknown graph fingerprint — submit a job for this graph first",
                ));
            };
            GraphEntry {
                graph: Arc::clone(&e.graph),
                label: e.label.clone(),
            }
        };
        let submitted = Instant::now();
        let resolved = spec::resolve_on_for(
            &req.job,
            Arc::clone(&entry.graph),
            entry.label.clone(),
            &self.cfg.device,
        )
        .map_err(|e| fail(400, &e))?;
        if !resolved.job.supports_incremental() {
            return Err(fail(
                400,
                &format!(
                    "incremental recoloring requires algorithm firstfit (got '{}')",
                    resolved.job.algorithm()
                ),
            ));
        }
        let old_key = resolved.cache_key();
        let Some(prev_json) = self.cache.lock().unwrap().get(&old_key) else {
            return Err(fail(
                404,
                "no cached result for this graph and config — submit the job first",
            ));
        };
        let prev_colors = json::report_colors(&prev_json)
            .map_err(|e| fail(500, &format!("cached report failed to parse: {e}")))?;
        let out = req
            .batch()
            .apply(&entry.graph)
            .map_err(|e| fail(400, &format!("bad mutation batch: {e}")))?;
        let report = {
            let _slot = self.slots.acquire();
            resolved
                .job
                .execute_incremental(&out.graph, &prev_colors, &out.dirty)
                .map_err(|e| fail(400, &e))?
        };
        let json = serde_json::to_string(&report).expect("reports serialize");
        let new_key = CacheKey {
            fingerprint: out.fingerprint,
            algorithm: resolved.job.algorithm().to_string(),
            config_hash: resolved.config_hash.clone(),
        };
        let bytes = {
            let mut cache = self.cache.lock().unwrap();
            // A changed fingerprint supersedes the old entry; a no-op
            // batch keeps the key, and first-writer-wins below preserves
            // the original cached bytes.
            if new_key != old_key {
                cache.remove(&old_key);
            }
            cache.insert(new_key, Arc::new(json))
        };
        let new_fp = out.fingerprint;
        if new_fp != fp {
            let new_graph = Arc::new(out.graph);
            self.graphs
                .lock()
                .unwrap()
                .entry(new_fp)
                .or_insert_with(|| GraphEntry {
                    graph: new_graph,
                    label: entry.label.clone(),
                });
        }
        if let Some(path) = &self.cfg.ledger {
            let record = gc_core::LedgerRecord::new(
                "gc-serve",
                &entry.label,
                new_fp,
                &resolved.config_desc,
                &report,
            );
            if let Err(e) = record.append(path) {
                eprintln!("gc-serve: ledger append failed: {e}");
            }
        }
        {
            let mut m = self.metrics.lock().unwrap();
            m.mutations += 1;
            m.mutation_dirty += out.dirty.len() as u64;
        }
        self.record_completion(&resolved.tenant, submitted);
        Ok(format!(
            "{{\"fingerprint\":\"{fp:016x}\",\"new_fingerprint\":\"{new_fp:016x}\",\
             \"inserted\":{},\"deleted\":{},\"dirty\":{},\"lowerable\":{},\
             \"iterations\":{},\"cycles\":{},\"num_colors\":{},\"report\":{}}}",
            out.inserted,
            out.deleted,
            out.dirty.len(),
            out.lowerable.len(),
            report.iterations,
            report.cycles,
            report.num_colors,
            bytes
        ))
    }

    fn finish(&self, job: &QueuedJob, report: &RunReport) {
        let json = serde_json::to_string(report).expect("reports serialize");
        // First writer wins: the bytes now cached are the bytes served,
        // today and on every future hit.
        let report_bytes = self
            .cache
            .lock()
            .unwrap()
            .insert(job.resolved.cache_key(), Arc::new(json));
        if let Some(path) = &self.cfg.ledger {
            let record = gc_core::LedgerRecord::new(
                "gc-serve",
                &job.resolved.graph_label,
                job.resolved.fingerprint,
                &job.resolved.config_desc,
                report,
            );
            if let Err(e) = record.append(path) {
                eprintln!("gc-serve: ledger append failed: {e}");
            }
        }
        if let Some(state) = self.jobs.lock().unwrap().get_mut(&job.id) {
            *state = JobState::Done {
                tenant: job.resolved.tenant.clone(),
                fingerprint: job.resolved.fingerprint,
                cached: false,
                report: report_bytes,
            };
        }
        self.done.notify_all();
        self.record_completion(&job.resolved.tenant, job.submitted);
    }

    fn record_completion(&self, tenant: &str, submitted: Instant) {
        let us = submitted.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let mut m = self.metrics.lock().unwrap();
        *m.jobs_total.entry(tenant.to_string()).or_default() += 1;
        for series in [tenant, "all"] {
            m.latency_us
                .entry(series.to_string())
                .or_default()
                .record(us);
        }
    }

    /// Block until job `id` completes and render its response envelope.
    /// `None` for an unknown id.
    fn wait(&self, id: u64) -> Option<String> {
        let mut jobs = self.jobs.lock().expect("jobs lock poisoned");
        loop {
            let state = jobs.get(&id)?;
            if let Some(body) = state.envelope(id) {
                return Some(body);
            }
            jobs = self.done.wait(jobs).expect("jobs lock poisoned");
        }
    }

    fn begin_shutdown(&self) {
        self.queue.lock().unwrap().shutdown = true;
        self.work.notify_all();
        self.stopped.notify_all();
    }

    fn stopping(&self) -> bool {
        self.queue.lock().unwrap().shutdown
    }

    /// Every update of the counts is a single step, so they are still
    /// right after a panic has poisoned the lock.
    fn handlers(&self) -> MutexGuard<'_, Handlers> {
        self.handlers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count an idle handler busy: one that starts serving a connection,
    /// or whose response write would block. True when it was the last idle
    /// one: the count then holds one more live, idle handler, which the
    /// caller starts.
    fn claim_handler(&self) -> bool {
        let mut h = self.handlers();
        if h.idle == 1 {
            h.live += 1;
            true
        } else {
            h.idle -= 1;
            false
        }
    }

    /// Uncount an idle handler that exits (or never started).
    fn retire_handler(&self) {
        let mut h = self.handlers();
        h.live -= 1;
        h.idle -= 1;
    }

    fn metrics_text(&self) -> String {
        let mut reg = MetricsRegistry::new();
        let (hits, misses, evictions) = self.cache.lock().unwrap().stats();
        reg.add_counter(
            "gc_serve_cache_hits_total",
            "Jobs served from the result cache",
            &[],
            hits,
        );
        reg.add_counter(
            "gc_serve_cache_misses_total",
            "Jobs that missed the result cache",
            &[],
            misses,
        );
        reg.add_counter(
            "gc_serve_cache_evictions_total",
            "Reports evicted from the result cache (LRU)",
            &[],
            evictions,
        );
        {
            let m = self.metrics.lock().unwrap();
            for (tenant, n) in &m.jobs_total {
                reg.add_counter(
                    "gc_serve_jobs_total",
                    "Jobs completed",
                    &[("tenant", tenant)],
                    *n,
                );
            }
            reg.add_counter(
                "gc_serve_mutations_total",
                "Streaming edge batches applied",
                &[],
                m.mutations,
            );
            reg.add_counter(
                "gc_serve_mutation_dirty_vertices_total",
                "Dirty vertices recolored by streaming mutations",
                &[],
                m.mutation_dirty,
            );
            for (series, hist) in &m.latency_us {
                reg.record_histogram(
                    "gc_serve_job_latency_us",
                    "Job latency from submission to completion (microseconds)",
                    &[("tenant", series)],
                    hist,
                );
            }
        }
        reg.set_gauge(
            "gc_serve_queue_depth",
            "Jobs queued for admission",
            &[],
            self.queue.lock().unwrap().queue.len() as f64,
        );
        let cache = self.cache.lock().unwrap();
        reg.set_gauge(
            "gc_serve_cache_entries",
            "Reports currently cached",
            &[],
            cache.len() as f64,
        );
        drop(cache);
        reg.set_gauge(
            "gc_serve_graphs_registered",
            "Graphs in the fingerprint registry",
            &[],
            self.graphs.lock().unwrap().len() as f64,
        );
        reg.set_gauge(
            "gc_serve_devices_in_use",
            "Device slots currently leased",
            &[],
            self.slots.in_use() as f64,
        );
        reg.set_gauge(
            "gc_serve_handler_threads",
            "Connection-handler threads alive (the peak number of connections in flight, plus one)",
            &[],
            self.handlers().live as f64,
        );
        reg.render_prometheus()
    }
}

/// A `{"error":…}` body carrying `msg` as a JSON string.
fn error_body(msg: &str) -> String {
    let quoted = serde_json::to_string(msg).expect("strings serialize");
    format!("{{\"error\":{quoted}}}")
}

/// Build the response envelope. `report` must already be JSON; it is the
/// last field so cached bytes pass through verbatim.
fn envelope(id: u64, tenant: &str, fingerprint: u64, cached: bool, report: &str) -> String {
    let tenant_json = serde_json::to_string(tenant).expect("strings serialize");
    format!(
        "{{\"job_id\":{id},\"tenant\":{tenant_json},\"status\":\"done\",\
         \"fingerprint\":\"{fingerprint:016x}\",\
         \"cached\":{cached},\"report\":{report}}}"
    )
}

/// Start a connection handler that the caller has already counted live
/// and idle.
fn spawn_handler(shared: &Arc<Shared>, acceptor: &Arc<Acceptor>) -> io::Result<()> {
    let (sh, acc) = (Arc::clone(shared), Arc::clone(acceptor));
    let spawned = std::thread::Builder::new().spawn(move || handle_conns(&sh, &acc));
    if spawned.is_err() {
        shared.retire_handler();
    }
    spawned.map(drop)
}

/// Accept one connection and give it the server's socket timeouts.
fn accept(listener: &TcpListener) -> io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// A connection handler thread: accept a connection, serve it, repeat
/// until shutdown.
fn handle_conns(shared: &Arc<Shared>, acceptor: &Arc<Acceptor>) {
    while !shared.stopping() {
        let accepted = accept(&acceptor.listener);
        if shared.stopping() {
            // Woken for shutdown: by an exiting peer, or a late client.
            break;
        }
        let mut stream = match accepted {
            Ok(stream) => stream,
            Err(e) => {
                let first = format!("accept: {e}");
                acceptor.error.lock().unwrap().get_or_insert(first);
                shared.begin_shutdown();
                break;
            }
        };
        claim(shared, acceptor);
        // A panic drops this connection unanswered; the default hook has
        // printed it.
        let response = panic::catch_unwind(AssertUnwindSafe(|| respond(shared, &mut stream)));
        let Ok(Some((status, content_type, body, shuts_down))) = response else {
            shared.handlers().idle += 1;
            continue;
        };
        let msg = response_bytes(status, content_type, body.as_bytes());
        write_idle(shared, acceptor, &mut stream, &msg);
        if shuts_down {
            // Only after the response is on the wire: stop admissions.
            // This handler then exits and wakes the others.
            shared.begin_shutdown();
        }
    }
    shared.retire_handler();
    // Wake the next handler blocked in `accept`, which does the same.
    let _ = TcpStream::connect(acceptor.addr);
}

/// Count this idle handler busy, and start one more if it was the last
/// idle one, so that a handler is always waiting in `accept`.
fn claim(shared: &Arc<Shared>, acceptor: &Arc<Acceptor>) {
    if shared.claim_handler() {
        if let Err(e) = spawn_handler(shared, acceptor) {
            eprintln!("gc-serve: cannot start a connection handler: {e}");
        }
    }
}

/// Write the response `msg`, counting this handler idle again.
///
/// The handler counts itself idle *before* the response can reach the
/// client, so a client that reads it and reconnects at once finds a
/// handler idle and is not given a new thread. The write is then tried
/// without blocking. If the socket buffer fills (a client that reads
/// slowly or not at all), the handler counts itself busy again, with
/// [`claim`], and finishes the write blocking, under the write timeout.
/// So a handler that cannot return to `accept` is never counted idle for
/// longer than a non-blocking write takes.
fn write_idle(shared: &Arc<Shared>, acceptor: &Arc<Acceptor>, stream: &mut TcpStream, msg: &[u8]) {
    shared.handlers().idle += 1;
    let Ok(sent) = write_nonblocking(stream, msg) else {
        return;
    };
    if sent < msg.len() {
        claim(shared, acceptor);
        let _ = stream
            .set_nonblocking(false)
            .and_then(|()| stream.write_all(&msg[sent..]));
        shared.handlers().idle += 1;
    }
}

/// Write as much of `msg` as the socket takes without blocking, and leave
/// `stream` non-blocking: the number of bytes written.
fn write_nonblocking(stream: &mut TcpStream, msg: &[u8]) -> io::Result<usize> {
    stream.set_nonblocking(true)?;
    let mut sent = 0;
    while sent < msg.len() {
        match stream.write(&msg[sent..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(sent)
}

/// Read one request and route it: the response to write, if any, and
/// whether it answers `POST /shutdown`.
fn respond(shared: &Shared, stream: &mut TcpStream) -> Option<(u16, &'static str, String, bool)> {
    match read_request(stream) {
        Ok(req) => {
            let (status, content_type, body) = route(shared, &req);
            let shuts_down = req.method == "POST" && req.path == "/shutdown";
            Some((status, content_type, body, shuts_down))
        }
        // A client that closed without sending a request line: nothing
        // to answer.
        Err(e) if e == "empty request line" => None,
        // Anything else sent bytes that are not HTTP (or went silent past
        // the read timeout); answer with a structured 400 instead of
        // silently dropping the connection.
        Err(e) => {
            let body = error_body(&format!("bad request: {e}"));
            Some((400, "application/json", body, false))
        }
    }
}

fn route(shared: &Shared, req: &Request) -> (u16, &'static str, String) {
    const JSON: &str = "application/json";
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => {
            let spec = match JobSpec::from_json(&req.body) {
                Ok(s) => s,
                Err(e) => return (400, JSON, error_body(&format!("bad job spec: {e}"))),
            };
            match shared.submit(&spec) {
                Err(e) => (400, JSON, error_body(&e)),
                Ok(id) if req.query_param("wait").is_some_and(|v| v != "0") => {
                    let body = shared.wait(id).expect("a submitted job is registered");
                    (200, JSON, body)
                }
                Ok(id) => (
                    202,
                    JSON,
                    format!("{{\"job_id\":{id},\"status\":\"queued\"}}"),
                ),
            }
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            let Ok(id) = path["/jobs/".len()..].parse::<u64>() else {
                return (400, JSON, "{\"error\":\"bad job id\"}".into());
            };
            let jobs = shared.jobs.lock().unwrap();
            match jobs.get(&id) {
                None => (404, JSON, "{\"error\":\"unknown job\"}".into()),
                Some(j) => match j.envelope(id) {
                    Some(body) => (200, JSON, body),
                    None => (
                        200,
                        JSON,
                        format!("{{\"job_id\":{id},\"status\":\"{}\"}}", j.status()),
                    ),
                },
            }
        }
        ("POST", path) if path.starts_with("/graphs/") && path.ends_with("/edges") => {
            let hex = path
                .strip_prefix("/graphs/")
                .and_then(|p| p.strip_suffix("/edges"))
                .unwrap_or("");
            let Ok(fp) = u64::from_str_radix(hex, 16) else {
                return (
                    400,
                    JSON,
                    "{\"error\":\"bad graph fingerprint (expected hex)\"}".into(),
                );
            };
            let mutation = match MutationRequest::from_json(&req.body) {
                Ok(m) => m,
                Err(e) => return (400, JSON, error_body(&format!("bad mutation request: {e}"))),
            };
            match shared.mutate(fp, &mutation) {
                Ok(body) => (200, JSON, body),
                Err((status, body)) => (status, JSON, body),
            }
        }
        ("GET", "/metrics") => (200, "text/plain; version=0.0.4", shared.metrics_text()),
        ("GET", "/healthz") => (200, JSON, "{\"ok\":true}".into()),
        // Side effects happen in handle_conns after the response is written.
        ("POST", "/shutdown") => (200, JSON, "{\"ok\":true}".into()),
        // Known paths with the wrong method get a structured 405, not the
        // generic unknown-endpoint 404.
        (_, p)
            if p == "/jobs"
                || p == "/metrics"
                || p == "/healthz"
                || p == "/shutdown"
                || p.starts_with("/jobs/")
                || (p.starts_with("/graphs/") && p.ends_with("/edges")) =>
        {
            (405, JSON, "{\"error\":\"method not allowed\"}".into())
        }
        _ => (404, JSON, "{\"error\":\"unknown endpoint\"}".into()),
    }
}

/// Extract the `report` object from a response envelope (everything after
/// `"report":` minus the closing envelope brace). Test and client helper
/// for byte-level comparisons.
pub fn report_bytes(envelope: &str) -> Option<&str> {
    let idx = envelope.find("\"report\":")?;
    let rest = &envelope[idx + "\"report\":".len()..];
    rest.strip_suffix('}')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> ServerConfig {
        ServerConfig {
            devices: 1,
            workers: 0, // tests drive execution with step()
            cache_capacity: 8,
            quantum: 1 << 20,
            device: "warp32".into(),
            ledger: None,
            tenant_weights: Vec::new(),
        }
    }

    fn tiny_spec(seed: u64) -> JobSpec {
        JobSpec {
            dataset: Some("road-net".into()),
            scale: Some("tiny".into()),
            algorithm: Some("firstfit".into()),
            seed: Some(seed),
            ..JobSpec::default()
        }
    }

    /// A 2×2 grid as inline CSR (4 vertices, 8 arcs).
    fn inline_square(tenant: &str) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            row_ptr: Some(vec![0, 2, 4, 6, 8]),
            col_idx: Some(vec![1, 2, 0, 3, 0, 3, 1, 2]),
            algorithm: Some("firstfit".into()),
            ..JobSpec::default()
        }
    }

    fn drain(server: &Server) {
        while server.step() {}
    }

    #[test]
    fn repeat_submission_hits_the_cache_byte_identically() {
        let mut server = Server::new(test_config()).unwrap();
        let a = server.submit(&tiny_spec(1)).unwrap();
        drain(&server);
        let first = server.wait(a).unwrap();
        assert!(first.contains("\"cached\":false"), "{first}");

        let b = server.submit(&tiny_spec(1)).unwrap();
        let second = server.wait(b).unwrap(); // no step(): served from cache
        assert!(second.contains("\"cached\":true"), "{second}");
        assert_eq!(
            report_bytes(&first).unwrap(),
            report_bytes(&second).unwrap(),
            "cache hit must return the original report bytes"
        );

        // A different config (seed) misses and queues, even on the same
        // graph. (firstfit ignores the priority seed, so the *report* may
        // match — the cache key must not.)
        let c = server.submit(&tiny_spec(2)).unwrap();
        assert_eq!(server.status(c).unwrap().0, "queued");
        drain(&server);
        let third = server.wait(c).unwrap();
        assert!(third.contains("\"cached\":false"), "{third}");

        // A different algorithm produces genuinely different bytes.
        let mut jp = tiny_spec(1);
        jp.algorithm = Some("jp".into());
        let d = server.submit(&jp).unwrap();
        drain(&server);
        let fourth = server.wait(d).unwrap();
        assert!(fourth.contains("\"cached\":false"), "{fourth}");
        assert_ne!(report_bytes(&first), report_bytes(&fourth));
        server.shutdown();
    }

    /// An inline maxmin job over the CSR arrays of `g`.
    fn inline_maxmin(g: &CsrGraph) -> JobSpec {
        JobSpec {
            row_ptr: Some(g.row_ptr().to_vec()),
            col_idx: Some(g.col_idx().to_vec()),
            algorithm: Some("maxmin".into()),
            ..JobSpec::default()
        }
    }

    /// Report bytes of `spec` executed on a fresh server, with nothing
    /// else queued.
    fn alone(spec: &JobSpec) -> String {
        let mut server = Server::new(test_config()).unwrap();
        let id = server.submit(spec).unwrap();
        drain(&server);
        let body = server.wait(id).unwrap();
        server.shutdown();
        report_bytes(&body).unwrap().to_string()
    }

    #[test]
    fn queued_jobs_report_exactly_what_they_report_alone() {
        // Same config, different small graphs, both queued before any
        // step: each job still executes alone, so its report (algorithm
        // name, colors, cycles, critical path) and every later cache hit
        // match a solo run byte for byte.
        let specs = [
            inline_maxmin(&gc_graph::generators::regular::path(5)),
            inline_maxmin(&gc_graph::generators::regular::cycle(4)),
        ];
        let mut server = Server::new(test_config()).unwrap();
        let ids: Vec<u64> = specs.iter().map(|s| server.submit(s).unwrap()).collect();
        assert_eq!(server.queue_depth(), 2);
        drain(&server);
        for (spec, id) in specs.iter().zip(ids) {
            let body = server.wait(id).unwrap();
            assert!(body.contains("\"cached\":false"), "{body}");
            let report = report_bytes(&body).unwrap();
            assert_eq!(report, alone(spec), "queued report differs from a solo run");
            let hit = server.wait(server.submit(spec).unwrap()).unwrap();
            assert!(hit.contains("\"cached\":true"), "{hit}");
            assert_eq!(report_bytes(&hit).unwrap(), report);
        }
        server.shutdown();
    }

    #[test]
    fn invalid_wg_is_refused_at_submit_and_the_worker_lives_on() {
        let mut server = Server::new(ServerConfig {
            workers: 1,
            ..test_config()
        })
        .unwrap();
        let mut bad = inline_square("t");
        bad.wg = Some(65);
        let err = server.submit(&bad).unwrap_err();
        assert!(err.contains("--wg"), "{err}");
        let body = server.wait(server.submit(&inline_square("t")).unwrap());
        assert!(body.unwrap().contains("\"status\":\"done\""));
        server.shutdown();
    }

    #[test]
    fn knobs_are_checked_against_the_pool_device() {
        // A warp32 server (wavefront 32) runs wg 32 and 96, which the
        // default hd7950's wavefront of 64 does not tile; naming the
        // server's device explicitly resolves to the same cache key.
        let mut server = Server::new(ServerConfig {
            workers: 1,
            ..test_config()
        })
        .unwrap();
        for wg in [32, 96] {
            let mut spec = inline_square("t");
            spec.wg = Some(wg);
            let body = server.wait(server.submit(&spec).unwrap()).unwrap();
            assert!(body.contains("\"status\":\"done\""), "wg {wg}: {body}");
            spec.device = Some("warp32".into());
            let hit = server.wait(server.submit(&spec).unwrap()).unwrap();
            assert!(hit.contains("\"cached\":true"), "wg {wg}: {hit}");
        }
        server.shutdown();

        // A single-device job naming another device would run on the
        // server's device instead: refused at submit, and the worker lives on.
        let mut server = Server::new(ServerConfig {
            workers: 1,
            device: "hd7950".into(),
            ..test_config()
        })
        .unwrap();
        let mut other = inline_square("t");
        other.device = Some("warp32".into());
        other.wg = Some(32);
        let err = server.submit(&other).unwrap_err();
        assert_eq!(
            err,
            "--device warp32 differs from the server's device hd7950"
        );
        let body = server.wait(server.submit(&inline_square("t")).unwrap());
        assert!(body.unwrap().contains("\"status\":\"done\""));
        server.shutdown();
    }

    #[test]
    fn metrics_render_validates_and_counts_tenants() {
        let mut server = Server::new(test_config()).unwrap();
        server.submit(&inline_square("team-a")).unwrap();
        server.submit(&inline_square("team-a")).unwrap(); // same key: queued, not cached (miss — no result yet)
        drain(&server);
        let text = server.metrics_text();
        gc_gpusim::validate_prometheus_text(&text).unwrap();
        assert!(
            text.contains("gc_serve_jobs_total{tenant=\"team-a\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("gc_serve_job_latency_us{tenant=\"all\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("gc_serve_job_latency_us_count"), "{text}");
        server.shutdown();
    }

    #[test]
    fn bad_specs_are_rejected_at_submit() {
        let server = Server::new(test_config()).unwrap();
        let err = server.submit(&JobSpec::default()).unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        let mut s = tiny_spec(1);
        s.algorithm = Some("nope".into());
        assert!(server.submit(&s).unwrap_err().contains("unknown algorithm"));
        assert!(server.wait(999).is_none(), "unknown id");
    }

    /// The graph `inline_square` submits, as a value (for fingerprints and
    /// expected-mutation bookkeeping).
    fn square_graph() -> CsrGraph {
        CsrGraph::from_parts(vec![0, 2, 4, 6, 8], vec![1, 2, 0, 3, 0, 3, 1, 2]).unwrap()
    }

    fn mutation(insert: &[(u32, u32)], delete: &[(u32, u32)], job: JobSpec) -> MutationRequest {
        MutationRequest {
            insert: insert.to_vec(),
            delete: delete.to_vec(),
            job,
        }
    }

    /// Knob fields matching `inline_square`'s resolved config.
    fn knobs() -> JobSpec {
        JobSpec {
            algorithm: Some("firstfit".into()),
            ..JobSpec::default()
        }
    }

    #[test]
    fn streaming_mutation_recolors_and_recaches_under_the_new_fingerprint() {
        let mut server = Server::new(test_config()).unwrap();
        let id = server.submit(&inline_square("t")).unwrap();
        drain(&server);
        let first = server.wait(id).unwrap();
        assert!(first.contains("\"cached\":false"), "{first}");

        let g = square_graph();
        let fp = g.fingerprint();
        // The envelope reveals the fingerprint — it is the address of the
        // mutation endpoint, so clients must not have to compute it.
        assert!(
            first.contains(&format!("\"fingerprint\":\"{fp:016x}\"")),
            "{first}"
        );
        let req = mutation(&[(0, 3)], &[], knobs());
        let body = server.mutate(fp, &req).unwrap();
        let out = req.batch().apply(&g).unwrap();
        assert!(
            body.contains(&format!("\"fingerprint\":\"{fp:016x}\"")),
            "{body}"
        );
        assert!(
            body.contains(&format!("\"new_fingerprint\":\"{:016x}\"", out.fingerprint)),
            "{body}"
        );
        assert!(body.contains("\"inserted\":1"), "{body}");
        // Only the chord endpoints were re-examined: dirty = 2 < |V| = 4.
        assert!(body.contains("\"dirty\":2"), "{body}");
        let report = report_bytes(&body).unwrap();
        assert!(report.contains("gpu-incremental"), "{report}");

        // The recolored result is cached under the new fingerprint: an
        // inline submission of the mutated structure with the same knobs
        // hits without a single step().
        let spec2 = JobSpec {
            tenant: "t".into(),
            row_ptr: Some(out.graph.row_ptr().to_vec()),
            col_idx: Some(out.graph.col_idx().to_vec()),
            algorithm: Some("firstfit".into()),
            ..JobSpec::default()
        };
        let id2 = server.submit(&spec2).unwrap();
        let hit = server.wait(id2).unwrap();
        assert!(hit.contains("\"cached\":true"), "{hit}");
        assert!(
            hit.contains(&format!("\"fingerprint\":\"{:016x}\"", out.fingerprint)),
            "cache hits carry the fingerprint too: {hit}"
        );
        assert_eq!(
            report_bytes(&hit).unwrap(),
            report,
            "cache hit serves the mutation's report bytes"
        );

        // The superseded entry is gone: resubmitting the original graph
        // misses and queues.
        let id3 = server.submit(&inline_square("t")).unwrap();
        assert_eq!(server.status(id3).unwrap().0, "queued");
        drain(&server);

        let metrics = server.metrics_text();
        assert!(metrics.contains("gc_serve_mutations_total 1"), "{metrics}");
        assert!(
            metrics.contains("gc_serve_mutation_dirty_vertices_total 2"),
            "{metrics}"
        );
        server.shutdown();
    }

    #[test]
    fn noop_and_deletion_batches_never_force_a_recolor() {
        let mut server = Server::new(test_config()).unwrap();
        let id = server.submit(&inline_square("t")).unwrap();
        drain(&server);
        let first = server.wait(id).unwrap();
        let fp = square_graph().fingerprint();

        // Empty batch: fingerprint unchanged, zero device rounds, and the
        // cached bytes survive untouched (first writer wins on the key).
        let body = server.mutate(fp, &mutation(&[], &[], knobs())).unwrap();
        assert!(
            body.contains(&format!("\"new_fingerprint\":\"{fp:016x}\"")),
            "{body}"
        );
        assert!(body.contains("\"dirty\":0"), "{body}");
        assert!(body.contains("\"iterations\":0"), "{body}");
        assert_eq!(
            report_bytes(&body).unwrap(),
            report_bytes(&first).unwrap(),
            "no-op mutation serves the original cached bytes"
        );

        // Deletion-only batch: endpoints are lowerable, never dirty — the
        // coloring is reused verbatim under the new fingerprint.
        let del = server
            .mutate(fp, &mutation(&[], &[(0, 1)], knobs()))
            .unwrap();
        assert!(del.contains("\"deleted\":1"), "{del}");
        assert!(del.contains("\"dirty\":0"), "{del}");
        assert!(del.contains("\"lowerable\":2"), "{del}");
        assert!(del.contains("\"iterations\":0"), "{del}");
        assert!(
            !del.contains(&format!("\"new_fingerprint\":\"{fp:016x}\"")),
            "deletion changes the fingerprint: {del}"
        );
        server.shutdown();
    }

    #[test]
    fn mutation_errors_are_structured_and_status_coded() {
        let mut server = Server::new(test_config()).unwrap();
        let (status, body) = server
            .mutate(0xdead_beef, &mutation(&[(0, 1)], &[], knobs()))
            .unwrap_err();
        assert_eq!(status, 404);
        assert!(body.contains("unknown graph fingerprint"), "{body}");

        // Known graph but the job is still queued: no cached result yet.
        let id = server.submit(&inline_square("t")).unwrap();
        let fp = square_graph().fingerprint();
        let (status, body) = server
            .mutate(fp, &mutation(&[(0, 3)], &[], knobs()))
            .unwrap_err();
        assert_eq!(status, 404);
        assert!(body.contains("no cached result"), "{body}");
        drain(&server);
        server.wait(id).unwrap();

        let mut bad = knobs();
        bad.dataset = Some("road-net".into());
        let (status, body) = server.mutate(fp, &mutation(&[], &[], bad)).unwrap_err();
        assert_eq!(status, 400);
        assert!(body.contains("must not name a graph source"), "{body}");

        // Default algorithm resolves to maxmin, which cannot recolor
        // incrementally.
        let (status, body) = server
            .mutate(fp, &mutation(&[], &[], JobSpec::default()))
            .unwrap_err();
        assert_eq!(status, 400);
        assert!(body.contains("requires algorithm firstfit"), "{body}");

        // Knob validation reuses the CLI wording.
        let mut zero = knobs();
        zero.wg = Some(0);
        let (status, body) = server.mutate(fp, &mutation(&[], &[], zero)).unwrap_err();
        assert_eq!(status, 400);
        assert!(body.contains("--wg must be positive"), "{body}");
        server.shutdown();
    }

    #[test]
    fn served_reports_are_what_the_job_executes_to() {
        // Every served report is the bytes of `execute` (or
        // `execute_incremental`) on the same resolved job: single-device
        // jobs on the server's device, multi-device and host jobs alike.
        let mut server = Server::new(test_config()).unwrap();
        let g = square_graph();
        let mut multi = inline_square("t");
        multi.devices = Some(2);
        multi.partition = Some("block".into());
        let mut dsatur = inline_square("t");
        dsatur.algorithm = Some("dsatur".into());
        let mut last = String::new();
        for spec in [inline_maxmin(&g), multi, dsatur, inline_square("t")] {
            let id = server.submit(&spec).unwrap();
            drain(&server);
            let resolved = spec::resolve_for(&spec, "warp32").unwrap();
            let expected = serde_json::to_string(&resolved.job.execute(&resolved.graph)).unwrap();
            last = server.wait(id).unwrap();
            assert_eq!(report_bytes(&last).unwrap(), expected, "{last}");
        }

        // An edge batch on the firstfit square, served last above.
        let prev: RunReport = serde_json::from_str(report_bytes(&last).unwrap()).unwrap();
        let req = mutation(&[(0, 3)], &[], knobs());
        let body = server.mutate(g.fingerprint(), &req).unwrap();
        let resolved =
            spec::resolve_on_for(&req.job, Arc::new(g.clone()), String::new(), "warp32").unwrap();
        let out = req.batch().apply(&g).unwrap();
        let expected = resolved
            .job
            .execute_incremental(&out.graph, &prev.colors, &out.dirty)
            .unwrap();
        assert_eq!(
            report_bytes(&body).unwrap(),
            serde_json::to_string(&expected).unwrap()
        );
        assert_eq!(server.shared.slots.in_use(), 0);
        server.shutdown();
    }

    #[test]
    fn a_panicking_holder_gives_its_slot_back() {
        let gate = SlotGate::new(1);
        let held = std::thread::scope(|s| {
            s.spawn(|| {
                let _slot = gate.acquire();
                panic!("job panicked while holding the only slot");
            })
            .join()
        });
        assert!(held.is_err());
        assert_eq!(gate.in_use(), 0);
        let _slot = gate.acquire();
        assert_eq!(gate.in_use(), 1);
    }

    #[test]
    fn blocked_acquires_wake_when_a_slot_returns() {
        let gate = SlotGate::new(2);
        let (done, max_held) = (Mutex::new(0usize), Mutex::new(0usize));
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _slot = gate.acquire();
                    let held = gate.in_use();
                    {
                        let mut max = max_held.lock().unwrap();
                        *max = (*max).max(held);
                    }
                    // Hold the slot across a pause so peers contend.
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    *done.lock().unwrap() += 1;
                });
            }
        });
        assert_eq!(*done.lock().unwrap(), 8);
        assert!(*max_held.lock().unwrap() <= 2);
        assert_eq!(gate.in_use(), 0);
    }

    #[test]
    fn accepted_streams_time_out_reads_and_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let stream = accept(&listener).unwrap();
        assert_eq!(stream.read_timeout().unwrap(), Some(IO_TIMEOUT));
        assert_eq!(stream.write_timeout().unwrap(), Some(IO_TIMEOUT));
    }

    #[test]
    fn a_panic_while_serving_ends_only_its_connection() {
        use crate::http::request;
        let server = Server::new(ServerConfig {
            workers: 1,
            ..test_config()
        })
        .unwrap();
        // Poison the jobs map: `GET /jobs/<id>` then panics in its handler.
        let shared = Arc::clone(&server.shared);
        let poisoned = std::thread::spawn(move || {
            let _jobs = shared.jobs.lock().unwrap();
            panic!("poison the jobs lock");
        })
        .join();
        assert!(poisoned.is_err());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let serving = std::thread::spawn(move || server.serve(listener));
        for _ in 0..3 {
            assert!(request(&addr, "GET", "/jobs/1", None).is_err());
            assert_eq!(request(&addr, "GET", "/healthz", None).unwrap().0, 200);
        }
        let (_, metrics) = request(&addr, "GET", "/metrics", None).unwrap();
        assert!(metrics.contains("gc_serve_handler_threads 2"), "{metrics}");
        assert_eq!(request(&addr, "POST", "/shutdown", None).unwrap().0, 200);
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn multi_device_mutation_recolors_across_devices() {
        let mut server = Server::new(test_config()).unwrap();
        let mut spec = inline_square("t");
        spec.devices = Some(2);
        spec.partition = Some("block".into());
        let id = server.submit(&spec).unwrap();
        drain(&server);
        server.wait(id).unwrap();

        let fp = square_graph().fingerprint();
        let mut job = knobs();
        job.devices = Some(2);
        job.partition = Some("block".into());
        let body = server.mutate(fp, &mutation(&[(0, 3)], &[], job)).unwrap();
        let report = report_bytes(&body).unwrap();
        assert!(report.contains("multi2"), "{report}");
        assert!(report.contains("incremental"), "{report}");
        assert!(body.contains("\"dirty\":2"), "{body}");
        server.shutdown();
    }

    #[test]
    fn mutations_read_the_colors_the_full_report_parse_reads() {
        // Cached reports of every device algorithm, single- and
        // multi-device, and of a mutation's recolor: the colors a mutation
        // recolors from are the report's `colors` field.
        let mut server = Server::new(test_config()).unwrap();
        let mut multi = inline_square("t");
        multi.devices = Some(2);
        multi.partition = Some("block".into());
        let mut jp = inline_square("t");
        jp.algorithm = Some("jp".into());
        let big = inline_maxmin(&gc_graph::generators::erdos_renyi(90, 250, 5));
        let mut reports = Vec::new();
        for spec in [
            inline_maxmin(&square_graph()),
            jp,
            big,
            multi,
            inline_square("t"),
        ] {
            let id = server.submit(&spec).unwrap();
            drain(&server);
            reports.push(report_bytes(&server.wait(id).unwrap()).unwrap().to_string());
        }
        let fp = square_graph().fingerprint();
        let body = server
            .mutate(fp, &mutation(&[(0, 3)], &[], knobs()))
            .unwrap();
        reports.push(report_bytes(&body).unwrap().to_string());
        for report in &reports {
            let full: RunReport = serde_json::from_str(report).unwrap();
            assert_eq!(
                json::report_colors(report).unwrap(),
                full.colors,
                "{report}"
            );
        }
        server.shutdown();
    }
}
