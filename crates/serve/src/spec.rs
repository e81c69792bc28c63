//! HTTP job specifications and their resolution into schedulable jobs.
//!
//! A [`JobSpec`] is the JSON body of `POST /jobs`: a graph source (registry
//! dataset or inline CSR arrays) plus the same knobs `gc-color` takes as
//! flags, field-for-flag (`wg` ↔ `--wg`, `no_overlap` ↔ `--no-overlap`,
//! …). Resolution deliberately goes through the *shared* `gc-bench::cli`
//! helpers — [`gc_bench::cli::validate_knobs`] for the cross-knob rules and
//! [`gc_bench::cli::color_job`] for the final [`ColorJob`] — so a served
//! job accepts and rejects exactly what the CLI does, with identical error
//! wording (flag spelling included, so server errors point at the
//! equivalent CLI flag).
//!
//! Request bodies are read by [`JobSpec::from_json`] and
//! [`MutationRequest::from_json`], which pull each field straight out of
//! the bytes with the crate's typed JSON reader (`json.rs`). A missing or `null`
//! field takes its default, unknown keys are skipped (their nesting costs
//! no stack), and a field named twice is refused. Every number field takes
//! only a JSON integer that fits its type: `"wg": 64.5`, `"wg": -64`,
//! `"chunk": 1e2` and a `"seed"` beyond `u64` are refused with an error
//! naming the field, and a `"seed"` above 2^53 runs exactly that seed, as
//! `gc-color --seed` does. The structs keep `Serialize` for clients that
//! write specs.

use std::sync::Arc;

use gc_bench::cli::{self, ColorArgs};
use gc_core::ColorJob;
use gc_graph::CsrGraph;
#[cfg(test)]
use serde::Deserialize;
use serde::Serialize;

use crate::cache::CacheKey;
use crate::json::{Field, Reader};

/// A coloring job as submitted over HTTP. Every field is optional except
/// the graph source: exactly one of `dataset` or (`row_ptr` + `col_idx`)
/// must be present. Knob fields mirror the `gc-color` flags one-to-one.
#[derive(Debug, Clone, Default, Serialize)]
#[cfg_attr(test, derive(Deserialize))]
pub struct JobSpec {
    /// Tenant the job is billed to for fair scheduling ("default" if empty).
    #[serde(default)]
    pub tenant: String,
    /// Registry dataset name (see `gc-color --help` for the list).
    #[serde(default)]
    pub dataset: Option<String>,
    /// Dataset scale: tiny | small | full (default small).
    #[serde(default)]
    pub scale: Option<String>,
    /// Inline CSR row pointers (with `col_idx`, the alternative to
    /// `dataset`). Must describe a valid symmetric graph.
    #[serde(default)]
    pub row_ptr: Option<Vec<u32>>,
    /// Inline CSR adjacency, sorted per row, no self loops.
    #[serde(default)]
    pub col_idx: Option<Vec<u32>>,
    /// Algorithm name (default maxmin; forced to firstfit by `devices > 1`).
    #[serde(default)]
    pub algorithm: Option<String>,
    /// Apply the paper's optimized preset (`--optimized`).
    #[serde(default)]
    pub optimized: bool,
    /// Worklist compaction (`--frontier`).
    #[serde(default)]
    pub frontier: bool,
    /// Simulated devices; >1 selects the partitioned multi-device driver.
    #[serde(default)]
    pub devices: Option<usize>,
    /// Partition strategy for `devices > 1` (`--partition`).
    #[serde(default)]
    pub partition: Option<String>,
    /// Charge boundary-exchange link time serially (`--no-overlap`).
    #[serde(default)]
    pub no_overlap: bool,
    /// Workgroup size (`--wg`).
    #[serde(default)]
    pub wg: Option<usize>,
    /// Work-stealing chunk size (`--chunk`).
    #[serde(default)]
    pub chunk: Option<usize>,
    /// Hybrid kernel degree threshold (`--hybrid-threshold`).
    #[serde(default)]
    pub hybrid_threshold: Option<usize>,
    /// Link latency in cycles/message (`--link-latency`, `devices > 1`).
    #[serde(default)]
    pub link_latency: Option<u64>,
    /// Link bytes/cycle (`--link-bandwidth`, `devices > 1`).
    #[serde(default)]
    pub link_bandwidth: Option<u64>,
    /// Device model (`--device`: hd7950 | hd7970 | apu | warp32).
    #[serde(default)]
    pub device: Option<String>,
    /// Priority-permutation seed (`--seed`).
    #[serde(default)]
    pub seed: Option<u64>,
}

/// A validated, fully resolved job: the schedulable [`ColorJob`], the graph
/// it runs on, and the identity strings every downstream consumer keys on
/// (cache, ledger, metrics).
#[derive(Debug, Clone)]
pub struct ResolvedJob {
    /// Tenant for fair scheduling and metric labels.
    pub tenant: String,
    /// The `Send + Clone` job description (algorithm + resolved options).
    pub job: ColorJob,
    /// The graph, shared with the server's fingerprint registry.
    pub graph: Arc<CsrGraph>,
    /// Ledger/metrics label: the dataset name, or `inline:<fingerprint>`.
    pub graph_label: String,
    /// `CsrGraph::fingerprint` of the graph.
    pub fingerprint: u64,
    /// Canonical resolved-config description (`cli::config_description`).
    pub config_desc: String,
    /// FNV-1a hash of `config_desc` (`gc_core::ledger::config_hash`).
    pub config_hash: String,
}

impl ResolvedJob {
    /// The result-cache key: `(fingerprint, algorithm, config hash)`.
    pub fn cache_key(&self) -> CacheKey {
        CacheKey {
            fingerprint: self.fingerprint,
            algorithm: self.job.algorithm().to_string(),
            config_hash: self.config_hash.clone(),
        }
    }

    /// DRR cost charged to the tenant: graph vertices + arcs (≥ 1), a
    /// proxy for device occupancy that needs no pre-run timing.
    pub fn cost(&self) -> u64 {
        (self.graph.num_vertices() + self.graph.num_arcs()).max(1) as u64
    }
}

/// A streaming mutation request: the body of
/// `POST /graphs/<fingerprint>/edges`. The edge lists mirror
/// [`gc_graph::MutationBatch`]; `job` carries the knob fields identifying
/// *which* cached result to recolor (same config-hash discipline as the
/// cache key) and must not name a graph source — the graph comes from the
/// fingerprint in the path.
#[derive(Debug, Clone, Default, Serialize)]
#[cfg_attr(test, derive(Deserialize))]
pub struct MutationRequest {
    /// Undirected edges to insert, as `[u, v]` pairs.
    #[serde(default)]
    pub insert: Vec<(u32, u32)>,
    /// Undirected edges to delete, as `[u, v]` pairs.
    #[serde(default)]
    pub delete: Vec<(u32, u32)>,
    /// Knobs of the cached job to recolor (tenant + flag fields only).
    #[serde(default)]
    pub job: JobSpec,
}

impl JobSpec {
    /// The JSON fields of a spec, in declaration order.
    const FIELDS: [Field<Self>; 18] = [
        ("tenant", |s, r| {
            r.nullable(Reader::string)
                .map(|v| s.tenant = v.unwrap_or_default())
        }),
        ("dataset", |s, r| {
            r.nullable(Reader::string).map(|v| s.dataset = v)
        }),
        ("scale", |s, r| {
            r.nullable(Reader::string).map(|v| s.scale = v)
        }),
        ("row_ptr", |s, r| {
            r.nullable(|r| r.array(Reader::uint)).map(|v| s.row_ptr = v)
        }),
        ("col_idx", |s, r| {
            r.nullable(|r| r.array(Reader::uint)).map(|v| s.col_idx = v)
        }),
        ("algorithm", |s, r| {
            r.nullable(Reader::string).map(|v| s.algorithm = v)
        }),
        ("optimized", |s, r| {
            r.nullable(Reader::bool)
                .map(|v| s.optimized = v.unwrap_or_default())
        }),
        ("frontier", |s, r| {
            r.nullable(Reader::bool)
                .map(|v| s.frontier = v.unwrap_or_default())
        }),
        ("devices", |s, r| {
            r.nullable(Reader::uint).map(|v| s.devices = v)
        }),
        ("partition", |s, r| {
            r.nullable(Reader::string).map(|v| s.partition = v)
        }),
        ("no_overlap", |s, r| {
            r.nullable(Reader::bool)
                .map(|v| s.no_overlap = v.unwrap_or_default())
        }),
        ("wg", |s, r| r.nullable(Reader::uint).map(|v| s.wg = v)),
        ("chunk", |s, r| {
            r.nullable(Reader::uint).map(|v| s.chunk = v)
        }),
        ("hybrid_threshold", |s, r| {
            r.nullable(Reader::uint).map(|v| s.hybrid_threshold = v)
        }),
        ("link_latency", |s, r| {
            r.nullable(Reader::uint).map(|v| s.link_latency = v)
        }),
        ("link_bandwidth", |s, r| {
            r.nullable(Reader::uint).map(|v| s.link_bandwidth = v)
        }),
        ("device", |s, r| {
            r.nullable(Reader::string).map(|v| s.device = v)
        }),
        ("seed", |s, r| r.nullable(Reader::uint).map(|v| s.seed = v)),
    ];

    /// Parse a `POST /jobs` body (see the module docs for the rules).
    pub fn from_json(body: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(body);
        let spec = Self::read(&mut r)?;
        r.end()?;
        Ok(spec)
    }

    fn read(r: &mut Reader) -> Result<Self, String> {
        let mut spec = Self::default();
        r.object(&mut spec, &Self::FIELDS)?;
        Ok(spec)
    }
}

impl MutationRequest {
    const FIELDS: [Field<Self>; 3] = [
        ("insert", |m, r| edges(r).map(|v| m.insert = v)),
        ("delete", |m, r| edges(r).map(|v| m.delete = v)),
        ("job", |m, r| {
            r.nullable(JobSpec::read)
                .map(|v| m.job = v.unwrap_or_default())
        }),
    ];

    /// Parse a `POST /graphs/<fingerprint>/edges` body (the rules of
    /// [`JobSpec::from_json`]; `job` is read by them too).
    pub fn from_json(body: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(body);
        let mut m = Self::default();
        r.object(&mut m, &Self::FIELDS)?;
        r.end()?;
        Ok(m)
    }

    /// The edge lists as a [`gc_graph::MutationBatch`].
    pub fn batch(&self) -> gc_graph::MutationBatch {
        gc_graph::MutationBatch {
            insert: self.insert.clone(),
            delete: self.delete.clone(),
        }
    }
}

/// An edge list: `[u, v]` pairs, `null` for none.
fn edges(r: &mut Reader) -> Result<Vec<(u32, u32)>, String> {
    r.nullable(|r| r.array(|r| r.pair(Reader::uint, Reader::uint)))
        .map(Option::unwrap_or_default)
}

/// Resolve and validate a spec for a server on gc-color's default device
/// (see [`resolve_for`]).
pub fn resolve(spec: &JobSpec) -> Result<ResolvedJob, String> {
    resolve_for(spec, &ColorArgs::default().device)
}

/// Resolve and validate a spec for a server whose single-device jobs run
/// on `server_device`. Graph construction happens here (dataset build or
/// inline-CSR validation), then the knob checks and job construction are
/// delegated to the shared `gc-bench::cli` helpers via [`resolve_on_for`].
pub fn resolve_for(spec: &JobSpec, server_device: &str) -> Result<ResolvedJob, String> {
    let inline = spec.row_ptr.is_some() || spec.col_idx.is_some();
    if spec.dataset.is_some() == inline {
        return Err("exactly one of dataset or row_ptr+col_idx is required".into());
    }
    let (graph, graph_label) = if let Some(name) = &spec.dataset {
        let ds = gc_graph::by_name(name).ok_or_else(|| {
            format!(
                "unknown dataset '{name}' ({})",
                cli::dataset_names().join(" | ")
            )
        })?;
        let scale = match &spec.scale {
            Some(s) => gc_graph::Scale::parse(s)?,
            None => gc_graph::Scale::Small,
        };
        (ds.build(scale), name.clone())
    } else {
        if spec.scale.is_some() {
            return Err("scale only applies with dataset".into());
        }
        let (Some(row_ptr), Some(col_idx)) = (&spec.row_ptr, &spec.col_idx) else {
            return Err("inline graphs need both row_ptr and col_idx".into());
        };
        let g = CsrGraph::from_parts(row_ptr.clone(), col_idx.clone())
            .map_err(|e| format!("bad inline graph: {e}"))?;
        let label = format!("inline:{:016x}", g.fingerprint());
        (g, label)
    };
    resolve_on_for(spec, Arc::new(graph), graph_label, server_device)
}

/// [`resolve_on_for`] on gc-color's default device.
pub fn resolve_on(
    spec: &JobSpec,
    graph: Arc<CsrGraph>,
    graph_label: String,
) -> Result<ResolvedJob, String> {
    resolve_on_for(spec, graph, graph_label, &ColorArgs::default().device)
}

/// Resolve the *knob* fields of a spec against an already-known graph
/// (the mutation endpoint looks graphs up by fingerprint instead of
/// rebuilding them). Graph-source fields in `spec` are ignored here;
/// callers that must reject them do so before resolving.
///
/// Single-device GPU jobs run on the server's device, so a spec
/// that names no device resolves on `server_device` (its `wg` is checked
/// against that device's wavefront), and one that names another device is
/// refused. Multi-device jobs build their own devices from the resolved
/// device; host algorithms use none.
pub fn resolve_on_for(
    spec: &JobSpec,
    graph: Arc<CsrGraph>,
    graph_label: String,
    server_device: &str,
) -> Result<ResolvedJob, String> {
    // Map spec fields onto the CLI argument struct, tracking which knobs
    // the spec pinned exactly like the flag parser does, then run the
    // shared validation, which owns every knob-value check.
    let mut args = ColorArgs {
        device: server_device.to_string(),
        ..ColorArgs::default()
    };
    let mut pinned: Vec<&'static str> = Vec::new();
    let algorithm_explicit = spec.algorithm.is_some();
    if let Some(a) = &spec.algorithm {
        args.algorithm = a.clone();
    }
    if spec.optimized {
        args.optimized = true;
        pinned.push("--optimized");
    }
    args.frontier = spec.frontier;
    if let Some(d) = spec.devices {
        args.devices = d;
        pinned.push("--devices");
    }
    if spec.no_overlap {
        args.overlap = false;
        pinned.push("--no-overlap");
    }
    if let Some(p) = &spec.partition {
        args.partition = Some(p.clone());
        pinned.push("--partition");
    }
    if let Some(wg) = spec.wg {
        args.wg = Some(wg);
        pinned.push("--wg");
    }
    if let Some(chunk) = spec.chunk {
        args.chunk = Some(chunk);
        pinned.push("--chunk");
    }
    if let Some(t) = spec.hybrid_threshold {
        args.hybrid_threshold = Some(t);
        pinned.push("--hybrid-threshold");
    }
    if let Some(l) = spec.link_latency {
        args.link_latency = Some(l);
        pinned.push("--link-latency");
    }
    if let Some(b) = spec.link_bandwidth {
        args.link_bandwidth = Some(b);
        pinned.push("--link-bandwidth");
    }
    if let Some(d) = &spec.device {
        args.device = d.clone();
    }
    if let Some(s) = spec.seed {
        args.seed = s;
    }
    cli::validate_knobs(&mut args, algorithm_explicit, &pinned)?;
    let job = cli::color_job(&args)?;
    if job.devices() == 1 && job.is_device_job() && args.device != server_device {
        return Err(format!(
            "--device {} differs from the server's device {server_device}",
            args.device
        ));
    }
    let config_desc = cli::config_description(&args)?;
    let config_hash = gc_core::ledger::config_hash(&config_desc);
    let fingerprint = graph.fingerprint();
    Ok(ResolvedJob {
        tenant: if spec.tenant.is_empty() {
            "default".into()
        } else {
            spec.tenant.clone()
        },
        job,
        graph,
        graph_label,
        fingerprint,
        config_desc,
        config_hash,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset_spec(name: &str) -> JobSpec {
        JobSpec {
            dataset: Some(name.into()),
            scale: Some("tiny".into()),
            ..JobSpec::default()
        }
    }

    /// A small inline path graph 0-1-2 (symmetric, sorted, loop-free).
    fn inline_spec() -> JobSpec {
        JobSpec {
            row_ptr: Some(vec![0, 1, 3, 4]),
            col_idx: Some(vec![1, 0, 2, 1]),
            ..JobSpec::default()
        }
    }

    #[test]
    fn dataset_spec_resolves_with_defaults() {
        let r = resolve(&dataset_spec("road-net")).unwrap();
        assert_eq!(r.tenant, "default");
        assert_eq!(r.job.algorithm(), "maxmin");
        assert_eq!(r.graph_label, "road-net");
        assert_eq!(r.fingerprint, r.graph.fingerprint());
        assert_eq!(r.config_hash, gc_core::ledger::config_hash(&r.config_desc));
        assert!(r.cost() >= r.graph.num_vertices() as u64);
    }

    #[test]
    fn inline_spec_resolves_and_labels_by_fingerprint() {
        let r = resolve(&inline_spec()).unwrap();
        assert_eq!(r.graph.num_vertices(), 3);
        assert_eq!(r.graph_label, format!("inline:{:016x}", r.fingerprint));
        // A malformed inline graph is rejected with the CSR error.
        let mut bad = inline_spec();
        bad.col_idx = Some(vec![1, 0, 2, 0]); // asymmetric
        let err = resolve(&bad).unwrap_err();
        assert!(err.contains("bad inline graph"), "{err}");
    }

    #[test]
    fn graph_source_is_exactly_one() {
        let err = resolve(&JobSpec::default()).unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        let mut both = inline_spec();
        both.dataset = Some("road-net".into());
        assert!(resolve(&both).unwrap_err().contains("exactly one"));
        let mut half = inline_spec();
        half.col_idx = None;
        let err = resolve(&half).unwrap_err();
        assert!(err.contains("both row_ptr and col_idx"), "{err}");
        let mut scaled = inline_spec();
        scaled.scale = Some("tiny".into());
        assert!(resolve(&scaled).unwrap_err().contains("scale"));
    }

    #[test]
    fn validation_reuses_cli_wording() {
        // Each bad spec produces the same message the CLI parser gives for
        // the equivalent flag set (pinned by cli::tests too).
        let mut s = dataset_spec("road-net");
        s.algorithm = Some("nope".into());
        let err = resolve(&s).unwrap_err();
        assert!(err.contains("unknown algorithm 'nope'"), "{err}");

        let mut s = dataset_spec("road-net");
        s.partition = Some("block".into());
        let err = resolve(&s).unwrap_err();
        assert_eq!(err, "--partition only applies with --devices > 1");

        let mut s = dataset_spec("road-net");
        s.no_overlap = true;
        let err = resolve(&s).unwrap_err();
        assert_eq!(err, "--no-overlap only applies with --devices > 1");

        let mut s = dataset_spec("road-net");
        s.link_latency = Some(100);
        let err = resolve(&s).unwrap_err();
        assert!(err.contains("--link-latency"), "{err}");

        let mut s = dataset_spec("road-net");
        s.devices = Some(0);
        let err = resolve(&s).unwrap_err();
        assert_eq!(err, "--devices must be at least 1");

        let mut s = dataset_spec("road-net");
        s.devices = Some(2);
        s.algorithm = Some("jp".into());
        let err = resolve(&s).unwrap_err();
        assert!(err.contains("requires --algorithm firstfit"), "{err}");

        let mut s = dataset_spec("road-net");
        s.wg = Some(0);
        assert_eq!(resolve(&s).unwrap_err(), "--wg must be positive");

        // A wg the device's wavefronts do not tile is refused at submit,
        // as gc-color refuses the flag, instead of panicking a worker.
        s.wg = Some(65);
        let argv = ["--dataset", "road-net", "--wg", "65"].map(String::from);
        let err = resolve(&s).unwrap_err();
        assert_eq!(err, cli::parse_color_args(argv).unwrap_err());
        assert!(err.contains("--wg") && err.contains("wavefront"), "{err}");

        let mut s = dataset_spec("road-net");
        s.device = Some("rtx4090".into());
        let err = resolve(&s).unwrap_err();
        assert!(err.contains("unknown device"), "{err}");

        let mut s = dataset_spec("karate-club");
        let err = resolve(&s).unwrap_err();
        assert!(err.contains("unknown dataset 'karate-club'"), "{err}");
        s.dataset = Some("road-net".into());
        s.scale = Some("huge".into());
        assert!(resolve(&s).unwrap_err().contains("unknown scale"));
    }

    #[test]
    fn multi_device_spec_forces_firstfit_like_the_cli() {
        let mut s = dataset_spec("road-net");
        s.devices = Some(2);
        s.partition = Some("block".into());
        let r = resolve(&s).unwrap();
        assert_eq!(r.job.algorithm(), "firstfit");
        assert_eq!(r.job.devices(), 2);
        assert!(r.config_desc.contains("devices=2"), "{}", r.config_desc);
    }

    #[test]
    fn single_device_gpu_jobs_resolve_on_the_server_device() {
        let mut s = dataset_spec("road-net");
        s.wg = Some(32);
        let err = resolve(&s).unwrap_err();
        assert!(err.contains("hd7950 wavefront size 64"), "{err}");
        let r = resolve_for(&s, "warp32").unwrap();
        assert!(
            r.config_desc.starts_with("device=warp32 wg=32"),
            "{}",
            r.config_desc
        );
        // Naming the server's device is the same job as naming none.
        s.device = Some("warp32".into());
        assert_eq!(
            resolve_for(&s, "warp32").unwrap().cache_key(),
            r.cache_key()
        );
        assert_eq!(
            resolve(&s).unwrap_err(),
            "--device warp32 differs from the server's device hd7950"
        );
        // Host algorithms use no device; multi-device jobs build their own.
        s.algorithm = Some("dsatur".into());
        assert!(resolve(&s).is_ok());
        s.algorithm = None;
        s.devices = Some(2);
        assert!(resolve(&s).is_ok());
    }

    #[test]
    fn cache_key_discriminates_config_and_graph() {
        let a = resolve(&dataset_spec("road-net")).unwrap();
        let b = resolve(&dataset_spec("road-net")).unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        let mut s = dataset_spec("road-net");
        s.wg = Some(64);
        let c = resolve(&s).unwrap();
        assert_ne!(a.cache_key(), c.cache_key());
        let d = resolve(&dataset_spec("ecology-mesh")).unwrap();
        assert_ne!(a.cache_key(), d.cache_key());
        // Same graph + config but different algorithm also misses.
        let mut s = dataset_spec("road-net");
        s.algorithm = Some("jp".into());
        assert_ne!(a.cache_key(), resolve(&s).unwrap().cache_key());
    }

    #[test]
    fn resolve_on_shares_the_cache_key_with_full_resolution() {
        // The mutation path resolves knobs against a registry graph; its
        // cache key must equal the one the original submission produced,
        // or mutations could never find the cached result.
        let full = resolve(&dataset_spec("road-net")).unwrap();
        let knobs = JobSpec::default();
        let r = resolve_on(&knobs, Arc::clone(&full.graph), "road-net".into()).unwrap();
        assert_eq!(r.cache_key(), full.cache_key());
        assert_eq!(r.graph_label, "road-net");
        assert_eq!(r.fingerprint, full.fingerprint);
        // Knob validation still runs with identical wording.
        let bad = JobSpec {
            wg: Some(0),
            ..JobSpec::default()
        };
        let err = resolve_on(&bad, Arc::clone(&full.graph), "x".into()).unwrap_err();
        assert_eq!(err, "--wg must be positive");
    }

    /// Pins the `MutationBatch` JSON wire shape (gc-graph has no
    /// serde_json dev-dep, so the round trip is pinned here).
    #[test]
    fn mutation_batch_json_round_trips_with_defaults() {
        let batch = gc_graph::MutationBatch {
            insert: vec![(0, 9), (5, 60)],
            delete: vec![(1, 2)],
        };
        let json = serde_json::to_string(&batch).unwrap();
        let back: gc_graph::MutationBatch = serde_json::from_str(&json).unwrap();
        assert_eq!(back, batch);
        // Partial bodies rely on field defaults — an insert-only request
        // deserializes with an empty delete list, and `{}` is the empty
        // batch.
        let req = MutationRequest::from_json(br#"{"insert":[[3,4]]}"#).unwrap();
        assert_eq!(req.batch().insert, vec![(3, 4)]);
        assert!(req.delete.is_empty() && req.job.dataset.is_none());
        let empty: gc_graph::MutationBatch = serde_json::from_str("{}").unwrap();
        assert!(empty.is_empty());
        let full = MutationRequest::from_json(
            br#"{"insert":[[0,9]],"delete":[[1,2]],"job":{"algorithm":"firstfit","devices":2,"partition":"block"}}"#,
        )
        .unwrap();
        assert_eq!(full.job.algorithm.as_deref(), Some("firstfit"));
        assert_eq!(full.job.devices, Some(2));
    }

    #[test]
    fn spec_json_round_trips() {
        let mut s = dataset_spec("road-net");
        s.tenant = "team-a".into();
        s.wg = Some(128);
        let json = serde_json::to_string(&s).unwrap();
        let back = JobSpec::from_json(json.as_bytes()).unwrap();
        assert_eq!(back.tenant, "team-a");
        assert_eq!(back.dataset.as_deref(), Some("road-net"));
        assert_eq!(back.wg, Some(128));
        // Sparse JSON relies on field defaults.
        let sparse = JobSpec::from_json(br#"{"dataset":"road-net"}"#).unwrap();
        assert_eq!(sparse.dataset.as_deref(), Some("road-net"));
        assert!(sparse.algorithm.is_none() && !sparse.optimized);
    }

    /// The derive's reading of `body`, the oracle `from_json` must match.
    fn oracle<T: Deserialize>(body: &str) -> T {
        serde_json::from_str(body).unwrap_or_else(|e| panic!("{body}: {e}"))
    }

    fn same_spec(body: &str) {
        let ours = JobSpec::from_json(body.as_bytes()).unwrap_or_else(|e| panic!("{body}: {e}"));
        assert_eq!(
            format!("{ours:?}"),
            format!("{:?}", oracle::<JobSpec>(body)),
            "{body}"
        );
    }

    fn same_mutation(body: &str) {
        let ours =
            MutationRequest::from_json(body.as_bytes()).unwrap_or_else(|e| panic!("{body}: {e}"));
        assert_eq!(
            format!("{ours:?}"),
            format!("{:?}", oracle::<MutationRequest>(body)),
            "{body}"
        );
    }

    #[test]
    fn integer_fields_are_exact() {
        let spec = |body: &str| JobSpec::from_json(body.as_bytes());
        let s = spec(r#"{"dataset":"road-net","seed":9007199254740993}"#).unwrap();
        assert_eq!(s.seed, Some(9_007_199_254_740_993));
        let s = spec(r#"{"seed":18446744073709551615,"link_latency":0}"#).unwrap();
        assert_eq!((s.seed, s.link_latency), (Some(u64::MAX), Some(0)));
        for (body, field) in [
            (r#"{"wg":64.5}"#, "wg"),
            (r#"{"wg":-64}"#, "wg"),
            (r#"{"wg":1e30}"#, "wg"),
            (r#"{"wg":64.0}"#, "wg"),
            (r#"{"chunk":1e2}"#, "chunk"),
            (r#"{"devices":"2"}"#, "devices"),
            (r#"{"seed":18446744073709551616}"#, "seed"),
            (r#"{"row_ptr":[0,4294967296]}"#, "row_ptr"),
            (r#"{"optimized":1}"#, "optimized"),
        ] {
            let err = spec(body).unwrap_err();
            assert!(
                err.starts_with(&format!("field '{field}': ")),
                "{body}: {err}"
            );
        }
        let err = MutationRequest::from_json(br#"{"insert":[[-3,4]]}"#).unwrap_err();
        assert_eq!(
            err,
            "field 'insert': expected an unsigned integer at byte 12"
        );
        let err = MutationRequest::from_json(br#"{"job":{"wg":64.5}}"#).unwrap_err();
        assert!(err.starts_with("field 'job': field 'wg': "), "{err}");
        let err = MutationRequest::from_json(br#"{"delete":[[1,2,3]]}"#).unwrap_err();
        assert!(err.starts_with("field 'delete': expected ']'"), "{err}");
    }

    #[test]
    fn a_served_seed_above_2_pow_53_is_the_cli_seed() {
        let body = br#"{"dataset":"road-net","scale":"tiny","seed":9007199254740993}"#;
        let served = resolve(&JobSpec::from_json(body).unwrap()).unwrap();
        let argv = [
            "--dataset",
            "road-net",
            "--scale",
            "tiny",
            "--seed",
            "9007199254740993",
        ];
        let cli::Parsed::Run(args) = cli::parse_color_args(argv.map(String::from)).unwrap() else {
            panic!("not a run");
        };
        assert_eq!(args.seed, 9_007_199_254_740_993);
        assert_eq!(
            format!("{:?}", served.job),
            format!("{:?}", cli::color_job(&args).unwrap())
        );
        assert_eq!(served.config_desc, cli::config_description(&args).unwrap());
        assert!(served.config_desc.contains("seed=9007199254740993"));
    }

    #[test]
    fn malformed_bodies_are_refused() {
        for body in [
            "",
            "null",
            "[]",
            r#"{"wg":64,"wg":64}"#,
            r#"{"dataset":"road-net"} {}"#,
            r#"{"dataset":"road-net",}"#,
            r#"{"dataset":"road-net""#,
        ] {
            assert!(JobSpec::from_json(body.as_bytes()).is_err(), "{body}");
        }
        let nested = format!(r#"{{"x":{}{}}}"#, "[".repeat(40), "]".repeat(40));
        assert!(JobSpec::from_json(nested.as_bytes()).is_ok());
        let deep = "[".repeat(100_000);
        assert!(JobSpec::from_json(deep.as_bytes()).is_err());
        let deep_key = format!(r#"{{"x":{deep}"#);
        let err = MutationRequest::from_json(deep_key.as_bytes()).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        let err = JobSpec::from_json(br#"{"wg":64,"wg":64}"#).unwrap_err();
        assert_eq!(err, "duplicate field 'wg' at byte 14");
    }

    #[test]
    fn from_json_reads_valid_bodies_as_the_derive_does() {
        for body in [
            "{}",
            " \t\r\n{ } \n",
            r#"{"tenant":"a","dataset":"road-net","scale":"tiny","row_ptr":[0,1,2],
                "col_idx":[1,0],"algorithm":"jp","optimized":true,"frontier":true,
                "devices":2,"partition":"block","no_overlap":true,"wg":128,"chunk":4,
                "hybrid_threshold":32,"link_latency":100,"link_bandwidth":8,
                "device":"warp32","seed":7}"#,
            r#"{"tenant":null,"dataset":null,"scale":null,"row_ptr":null,"col_idx":null,
                "algorithm":null,"optimized":null,"frontier":null,"devices":null,
                "partition":null,"no_overlap":null,"wg":null,"chunk":null,
                "hybrid_threshold":null,"link_latency":null,"link_bandwidth":null,
                "device":null,"seed":null}"#,
            r#"{"seed":3,"wg":64,"tenant":"z","dataset":"road-net","optimized":false}"#,
            r#"{"x":[1,-2.5e3,{"y":[null,true,false,"s"]},[]],"dataset":"d","z":{},"w":"\""}"#,
            "{\"tenant\"\t:\n\"a\" ,\r\"row_ptr\" : [ 0 , 1 ]\x0c,\"col_idx\":[ ]}",
            r#"{"tenant":"q\"b\\s\/n\nt\tr\rb\bf\fu\u00e9\u4e2d\ud83d","d\u0061taset":"x"}"#,
            r#"{"tenant":"é中","algorithm":""}"#,
        ] {
            same_spec(body);
        }
        for body in [
            "{}",
            r#"{"insert":[[0,9],[5,60]],"delete":[[1,2]]}"#,
            r#"{"insert":null,"delete":[],"job":null}"#,
            r#"{"job":{"tenant":"t","algorithm":"firstfit","devices":2},"x":[[0]],"insert":[ [ 3 , 4 ] ]}"#,
        ] {
            same_mutation(body);
        }
    }

    /// A random JSON value for an unknown key: nested arrays and objects.
    fn junk(rng: &mut gc_graph::rng::SplitMix64, depth: usize) -> String {
        match rng.below(if depth > 3 { 4 } else { 6 }) {
            0 => "null".into(),
            1 => format!("{}", rng.below(1000) as f64 / 8.0 - 60.0),
            2 => r#""j\u006bnk""#.into(),
            3 => "true".into(),
            4 => format!("[{},{}]", junk(rng, depth + 1), junk(rng, depth + 1)),
            _ => format!(r#"{{"k":{},"colors":[{}]}}"#, junk(rng, depth + 1), depth),
        }
    }

    /// `fields` as an object in random order, with random whitespace and
    /// unknown keys between them.
    fn scramble(rng: &mut gc_graph::rng::SplitMix64, mut fields: Vec<(String, String)>) -> String {
        if rng.below(3) == 0 {
            let junk = junk(rng, 0);
            fields.push(("unknown".into(), junk));
        }
        rng.shuffle(&mut fields);
        let ws = |rng: &mut gc_graph::rng::SplitMix64| {
            [" ", "", "\n", "\t", "\r\n ", "\x0c", ""][rng.below(7)].to_string()
        };
        let items: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}\"{k}\"{}:{}{v}{}", ws(rng), ws(rng), ws(rng), ws(rng)))
            .collect();
        format!("{}{{{}}}{}", ws(rng), items.join(","), ws(rng))
    }

    /// A random spec over every field, as `(key, json)` pairs; `null` and
    /// absence both stand for "not set".
    fn random_spec_fields(
        rng: &mut gc_graph::rng::SplitMix64,
        graph: bool,
    ) -> Vec<(String, String)> {
        let mut fields = Vec::new();
        let mut put =
            |rng: &mut gc_graph::rng::SplitMix64, key: &str, value: String| match rng.below(4) {
                0 => {}
                1 => fields.push((key.to_string(), "null".into())),
                _ => fields.push((key.to_string(), value)),
            };
        for key in [
            "tenant",
            "dataset",
            "scale",
            "algorithm",
            "partition",
            "device",
        ] {
            let v = format!(r#""{key}-\u00e9-{}""#, rng.below(100));
            put(rng, key, v);
        }
        for key in ["optimized", "frontier", "no_overlap"] {
            let v = ["true", "false"][rng.below(2)].to_string();
            put(rng, key, v);
        }
        let ints = [
            "devices",
            "wg",
            "chunk",
            "hybrid_threshold",
            "link_latency",
            "link_bandwidth",
            "seed",
        ];
        for key in ints {
            let v = rng.below(1 << 40).to_string();
            put(rng, key, v);
        }
        if graph {
            let n = 24 + rng.below(104);
            let g = gc_graph::generators::erdos_renyi(n, n * (1 + rng.below(3)), rng.next_u64());
            let list = |xs: &[u32]| format!("{xs:?}");
            fields.push(("row_ptr".into(), list(g.row_ptr())));
            fields.push(("col_idx".into(), list(g.col_idx())));
        }
        fields
    }

    #[test]
    fn from_json_matches_the_derive_on_seeded_bodies() {
        let mut rng = gc_graph::rng::SplitMix64::seed_from_u64(33);
        for case in 0..300 {
            let fields = random_spec_fields(&mut rng, case % 3 != 2);
            let body = scramble(&mut rng, fields);
            same_spec(&body);

            let pairs = |rng: &mut gc_graph::rng::SplitMix64| {
                let list: Vec<String> = (0..rng.below(4))
                    .map(|_| format!("[{},{}]", rng.below(1 << 20), rng.below(1 << 20)))
                    .collect();
                format!("[{}]", list.join(","))
            };
            let mut fields = vec![
                ("insert".to_string(), pairs(&mut rng)),
                ("delete".to_string(), pairs(&mut rng)),
            ];
            let job_fields = random_spec_fields(&mut rng, false);
            fields.push(("job".into(), scramble(&mut rng, job_fields)));
            let keep = rng.below(fields.len() + 1);
            fields.truncate(keep);
            let body = scramble(&mut rng, fields);
            same_mutation(&body);
        }
    }

    #[test]
    fn serialized_specs_read_back_unchanged() {
        let mut rng = gc_graph::rng::SplitMix64::seed_from_u64(7);
        for _ in 0..50 {
            let fields = random_spec_fields(&mut rng, true);
            let body = scramble(&mut rng, fields);
            let spec = JobSpec::from_json(body.as_bytes()).unwrap();
            let json = serde_json::to_string(&spec).unwrap();
            let back = JobSpec::from_json(json.as_bytes()).unwrap();
            assert_eq!(format!("{back:?}"), format!("{spec:?}"), "{json}");
            let m = MutationRequest {
                insert: vec![(rng.below(1000) as u32, 4_000_000_000)],
                delete: Vec::new(),
                job: spec,
            };
            let json = serde_json::to_string(&m).unwrap();
            let back = MutationRequest::from_json(json.as_bytes()).unwrap();
            assert_eq!(format!("{back:?}"), format!("{m:?}"), "{json}");
        }
    }

    /// `Serialize` writes every struct field, so a field missing from a
    /// table (which `from_json` would skip as unknown) fails here.
    #[test]
    fn field_tables_name_every_struct_field_in_order() {
        let keys = |json: String| crate::json::object_keys(&json).unwrap();
        let spec_keys = keys(serde_json::to_string(&JobSpec::default()).unwrap());
        let table: Vec<_> = JobSpec::FIELDS.iter().map(|f| f.0).collect();
        assert_eq!(spec_keys, table);
        let m_keys = keys(serde_json::to_string(&MutationRequest::default()).unwrap());
        let table: Vec<_> = MutationRequest::FIELDS.iter().map(|f| f.0).collect();
        assert_eq!(m_keys, table);
    }
}
