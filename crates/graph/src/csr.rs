//! Compressed sparse row (CSR) graph representation.
//!
//! The coloring kernels consume exactly this layout as two device buffers
//! (`row_ptr`, `col_idx`), matching the adjacency representation the paper's
//! OpenCL kernels use. Vertices are `u32`; an undirected edge is stored in
//! both endpoints' adjacency lists.

use std::sync::OnceLock;

/// Vertex identifier. `u32` halves the memory traffic of the kernels
/// relative to `usize` and matches GPU practice.
pub type VertexId = u32;

/// Errors produced by CSR validation and construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// `row_ptr` is missing, non-monotonic, or does not end at `col_idx.len()`.
    BadRowPtr(String),
    /// A neighbor index is out of range.
    BadNeighbor {
        vertex: VertexId,
        neighbor: VertexId,
    },
    /// A vertex lists itself as a neighbor.
    SelfLoop(VertexId),
    /// An adjacency list is unsorted or contains duplicates.
    UnsortedAdjacency(VertexId),
    /// Edge (u, v) present without its reverse (v, u).
    Asymmetric { from: VertexId, to: VertexId },
    /// More than `u32::MAX` vertices or edges.
    TooLarge(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::BadRowPtr(msg) => write!(f, "bad row_ptr: {msg}"),
            GraphError::BadNeighbor { vertex, neighbor } => {
                write!(f, "vertex {vertex} lists out-of-range neighbor {neighbor}")
            }
            GraphError::SelfLoop(v) => write!(f, "vertex {v} has a self loop"),
            GraphError::UnsortedAdjacency(v) => {
                write!(f, "adjacency of vertex {v} is unsorted or has duplicates")
            }
            GraphError::Asymmetric { from, to } => {
                write!(f, "edge ({from}, {to}) has no reverse edge")
            }
            GraphError::TooLarge(msg) => write!(f, "graph too large: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected graph in CSR form.
///
/// Invariants (checked by [`CsrGraph::validate`], established by
/// [`crate::builder::GraphBuilder`]):
/// * `row_ptr.len() == num_vertices + 1`, monotonically non-decreasing,
///   `row_ptr[0] == 0`, `row_ptr[n] == col_idx.len()`.
/// * Every adjacency list is strictly sorted (no duplicates).
/// * No self loops.
/// * Symmetric: `(u, v)` present iff `(v, u)` present.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    row_ptr: Vec<u32>,
    col_idx: Vec<VertexId>,
    /// Memoized [`CsrGraph::fingerprint`]. The graph is immutable once
    /// built (mutation constructs a fresh graph with an empty cell), so
    /// the cell is filled at most once and never goes stale.
    memo: OnceLock<u64>,
}

/// Equality is structural: the memo cell is derived state and two graphs
/// with equal arrays are the same graph whether or not either has
/// computed its fingerprint yet.
impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.row_ptr == other.row_ptr && self.col_idx == other.col_idx
    }
}

impl Eq for CsrGraph {}

impl CsrGraph {
    /// Wrap raw CSR arrays, validating every invariant. Prefer
    /// [`crate::builder::GraphBuilder`] for constructing graphs from edges.
    pub fn from_parts(row_ptr: Vec<u32>, col_idx: Vec<VertexId>) -> Result<Self, GraphError> {
        let g = Self {
            row_ptr,
            col_idx,
            memo: OnceLock::new(),
        };
        g.validate()?;
        Ok(g)
    }

    /// Wrap raw CSR arrays without validation.
    ///
    /// The caller must uphold the type's invariants; use only on arrays
    /// produced by code that already guarantees them (e.g. the builder).
    pub(crate) fn from_parts_unchecked(row_ptr: Vec<u32>, col_idx: Vec<VertexId>) -> Self {
        let g = Self {
            row_ptr,
            col_idx,
            memo: OnceLock::new(),
        };
        debug_assert!(g.validate().is_ok());
        g
    }

    /// Allocated lengths of `row_ptr` and `col_idx`, for tests that pin
    /// exact-size construction.
    #[cfg(test)]
    pub(crate) fn capacities(&self) -> (usize, usize) {
        (self.row_ptr.capacity(), self.col_idx.capacity())
    }

    /// The empty graph.
    pub fn empty() -> Self {
        Self {
            row_ptr: vec![0],
            col_idx: Vec::new(),
            memo: OnceLock::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of undirected edges (half the stored directed arcs).
    pub fn num_edges(&self) -> usize {
        self.col_idx.len() / 2
    }

    /// Number of stored directed arcs (`2 × num_edges`).
    pub fn num_arcs(&self) -> usize {
        self.col_idx.len()
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.row_ptr[v + 1] - self.row_ptr[v]) as usize
    }

    /// Neighbors of `v`, strictly sorted.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.col_idx[self.row_ptr[v] as usize..self.row_ptr[v + 1] as usize]
    }

    /// True if `(u, v)` is an edge (binary search).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The raw row-pointer array (`num_vertices + 1` entries), as uploaded
    /// to the device.
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The raw column-index array, as uploaded to the device.
    pub fn col_idx(&self) -> &[VertexId] {
        &self.col_idx
    }

    /// Maximum degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Deterministic 64-bit structural fingerprint: FNV-1a over the vertex
    /// and arc counts followed by both CSR arrays. Two graphs fingerprint
    /// equal iff they are the same labeled graph, so the value keys
    /// externally persisted per-graph state (e.g. the autotuner cache)
    /// across runs and machines.
    ///
    /// The value is memoized: the hash walks both CSR arrays, and cache
    /// and ledger lookups call this on every probe, so only the first
    /// call per graph pays for the scan. A mutated graph is a *new*
    /// `CsrGraph` whose memo starts empty, so stale values cannot leak
    /// across mutations.
    pub fn fingerprint(&self) -> u64 {
        *self.memo.get_or_init(|| self.compute_fingerprint())
    }

    fn compute_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut word = |w: u32| {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(PRIME);
            }
        };
        word(self.row_ptr.len() as u32);
        word(self.col_idx.len() as u32);
        for &w in &self.row_ptr {
            word(w);
        }
        for &w in &self.col_idx {
            word(w);
        }
        h
    }

    /// Check all invariants.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.validate_rows()?;
        if self.rows_mirror_each_other() {
            return Ok(());
        }
        self.find_missing_reverse()
    }

    /// Every invariant but symmetry: the shape of `row_ptr`, neighbors in
    /// range, no self loops, strictly sorted rows.
    fn validate_rows(&self) -> Result<(), GraphError> {
        if self.row_ptr.is_empty() {
            return Err(GraphError::BadRowPtr("row_ptr must not be empty".into()));
        }
        if self.row_ptr[0] != 0 {
            return Err(GraphError::BadRowPtr("row_ptr[0] must be 0".into()));
        }
        let n = self.row_ptr.len() - 1;
        if n > u32::MAX as usize {
            return Err(GraphError::TooLarge(format!("{n} vertices")));
        }
        if *self.row_ptr.last().unwrap() as usize != self.col_idx.len() {
            return Err(GraphError::BadRowPtr(format!(
                "row_ptr ends at {} but col_idx has {} entries",
                self.row_ptr.last().unwrap(),
                self.col_idx.len()
            )));
        }
        for w in self.row_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(GraphError::BadRowPtr(
                    "row_ptr must be non-decreasing".into(),
                ));
            }
        }
        for u in 0..n as VertexId {
            let nbrs = self.neighbors(u);
            for (i, &v) in nbrs.iter().enumerate() {
                if v as usize >= n {
                    return Err(GraphError::BadNeighbor {
                        vertex: u,
                        neighbor: v,
                    });
                }
                if v == u {
                    return Err(GraphError::SelfLoop(u));
                }
                if i > 0 && nbrs[i - 1] >= v {
                    return Err(GraphError::UnsortedAdjacency(u));
                }
            }
        }
        Ok(())
    }

    /// Symmetry in one pass over rows that [`Self::validate_rows`]
    /// accepted. Sources are visited in ascending order, so in a symmetric
    /// graph the arcs into `v` arrive in the order row `v` lists them: one
    /// cursor per row, advanced on each match, finds every reverse in
    /// O(1). Every arc advances one cursor within its own row, and there
    /// are as many arcs as row entries, so a pass without a mismatch
    /// leaves every cursor at the end of its row.
    fn rows_mirror_each_other(&self) -> bool {
        let mut cursor = self.row_ptr[..self.num_vertices()].to_vec();
        for u in self.vertices() {
            for &v in self.neighbors(u) {
                let v = v as usize;
                let c = cursor[v];
                if c == self.row_ptr[v + 1] || self.col_idx[c as usize] != u {
                    return false;
                }
                cursor[v] = c + 1;
            }
        }
        true
    }

    /// Symmetry by binary search, naming the first arc `(u, v)` in
    /// `(u, v)` order whose reverse is missing.
    fn find_missing_reverse(&self) -> Result<(), GraphError> {
        for u in self.vertices() {
            for &v in self.neighbors(u) {
                if !self.has_edge(v, u) {
                    return Err(GraphError::Asymmetric { from: u, to: v });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle 0-1-2 plus pendant 3 attached to 0.
    fn sample() -> CsrGraph {
        CsrGraph::from_parts(vec![0, 3, 5, 7, 8], vec![1, 2, 3, 0, 2, 0, 1, 0]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = sample();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_arcs(), 8);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.max_degree(), 3);
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = sample();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (0, 3), (1, 2)]);
    }

    #[test]
    fn fingerprint_distinguishes_structure_and_is_stable() {
        let g = sample();
        assert_eq!(g.fingerprint(), sample().fingerprint());
        // Different structure, different fingerprint — including graphs with
        // identical counts (path 0-1-2 vs triangle has different counts, so
        // also compare two distinct 2-edge graphs on 4 vertices).
        let path = CsrGraph::from_parts(vec![0, 1, 3, 4, 4], vec![1, 0, 2, 1]).unwrap();
        let split = CsrGraph::from_parts(vec![0, 1, 2, 3, 4], vec![1, 0, 3, 2]).unwrap();
        assert_ne!(path.fingerprint(), split.fingerprint());
        assert_ne!(g.fingerprint(), path.fingerprint());
        assert_ne!(g.fingerprint(), CsrGraph::empty().fingerprint());
    }

    #[test]
    fn fingerprint_is_memoized_and_survives_clone() {
        let g = sample();
        let first = g.fingerprint();
        assert_eq!(g.memo.get(), Some(&first));
        assert_eq!(g.fingerprint(), first);
        // Clone carries the memo but stays structurally equal.
        let c = g.clone();
        assert_eq!(c.fingerprint(), first);
        assert_eq!(c, g);
        // A graph that never computed its fingerprint still compares equal.
        assert_eq!(sample(), g);
    }

    #[test]
    fn mutated_graph_never_reuses_the_stale_memo() {
        // Pin the satellite fix: building a new graph from the mutated
        // edge set starts with an empty memo, so its fingerprint reflects
        // the new structure rather than the original's cached value.
        let g = sample();
        let before = g.fingerprint();
        let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        edges.push((1, 3));
        let mutated = crate::builder::from_edges(g.num_vertices(), &edges).unwrap();
        assert_ne!(mutated.fingerprint(), before);
        // The original's memo is untouched by the mutation.
        assert_eq!(g.fingerprint(), before);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn validate_rejects_self_loop() {
        let err = CsrGraph::from_parts(vec![0, 1], vec![0]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop(0));
    }

    #[test]
    fn validate_rejects_asymmetry() {
        let err = CsrGraph::from_parts(vec![0, 1, 1], vec![1]).unwrap_err();
        assert_eq!(err, GraphError::Asymmetric { from: 0, to: 1 });
    }

    #[test]
    fn validate_rejects_unsorted() {
        let err = CsrGraph::from_parts(vec![0, 2, 3, 4], vec![2, 1, 0, 0]).unwrap_err();
        assert_eq!(err, GraphError::UnsortedAdjacency(0));
    }

    #[test]
    fn validate_rejects_duplicates() {
        let err = CsrGraph::from_parts(vec![0, 2, 4], vec![1, 1, 0, 0]).unwrap_err();
        assert_eq!(err, GraphError::UnsortedAdjacency(0));
    }

    #[test]
    fn validate_rejects_bad_row_ptr() {
        assert!(matches!(
            CsrGraph::from_parts(vec![0, 2], vec![1]).unwrap_err(),
            GraphError::BadRowPtr(_)
        ));
        assert!(matches!(
            CsrGraph::from_parts(vec![1, 1], vec![]).unwrap_err(),
            GraphError::BadRowPtr(_)
        ));
        assert!(matches!(
            CsrGraph::from_parts(vec![0, 2, 1, 3], vec![1, 2, 0].into_iter().collect())
                .unwrap_err(),
            GraphError::BadRowPtr(_)
        ));
    }

    #[test]
    fn validate_rejects_out_of_range_neighbor() {
        let err = CsrGraph::from_parts(vec![0, 1, 2], vec![5, 0]).unwrap_err();
        assert_eq!(
            err,
            GraphError::BadNeighbor {
                vertex: 0,
                neighbor: 5
            }
        );
    }

    /// Rebuild `g`'s arrays with row `u` replaced by `edit` of it.
    fn with_row(g: &CsrGraph, u: usize, edit: impl FnOnce(&mut Vec<VertexId>)) -> CsrGraph {
        let mut rows: Vec<Vec<VertexId>> = g.vertices().map(|v| g.neighbors(v).to_vec()).collect();
        edit(&mut rows[u]);
        let mut row_ptr = vec![0u32];
        for row in &rows {
            row_ptr.push(row_ptr.last().unwrap() + row.len() as u32);
        }
        CsrGraph {
            row_ptr,
            col_idx: rows.concat(),
            memo: OnceLock::new(),
        }
    }

    #[test]
    fn one_pass_symmetry_check_returns_what_the_scan_returns() {
        use crate::rng::SplitMix64;
        let by_scan = |g: &CsrGraph| g.validate_rows().and_then(|()| g.find_missing_reverse());
        let mut rng = SplitMix64::seed_from_u64(7);
        let mut asymmetric = 0;
        for seed in 0..300 {
            let n = 2 + rng.below(30);
            let m = rng.below(n * (n - 1) / 2 + 1);
            let g = crate::generators::erdos_renyi(n, m, seed);
            assert_eq!(g.validate(), Ok(()));
            let u = rng.below(n);
            let mut forged = Vec::new();
            if g.degree(u as VertexId) > 0 {
                // One arc dropped.
                let at = rng.below(g.degree(u as VertexId));
                forged.push(with_row(&g, u, |row| {
                    row.remove(at);
                }));
            }
            // One arc added, at its sorted place.
            let w = rng.below(n) as VertexId;
            if w as usize != u && !g.has_edge(u as VertexId, w) {
                forged.push(with_row(&g, u, |row| {
                    let at = row.partition_point(|&x| x < w);
                    row.insert(at, w);
                }));
            }
            // An unmatched extra entry at the end of a row: unsorted, a
            // duplicate, a self loop or out of range as it falls.
            let extra = rng.below(n + 1) as VertexId;
            forged.push(with_row(&g, u, |row| row.push(extra)));
            // Two targets swapped, within a row or across rows.
            if g.num_arcs() > 1 {
                let (i, j) = (rng.below(g.num_arcs()), rng.below(g.num_arcs()));
                let mut col_idx = g.col_idx.clone();
                col_idx.swap(i, j);
                forged.push(CsrGraph {
                    row_ptr: g.row_ptr.clone(),
                    col_idx,
                    memo: OnceLock::new(),
                });
            }
            for f in &forged {
                let got = f.validate();
                assert_eq!(got, by_scan(f), "{f:?}");
                asymmetric += usize::from(matches!(got, Err(GraphError::Asymmetric { .. })));
            }
        }
        assert!(asymmetric > 300, "only {asymmetric} asymmetric forgeries");
    }

    #[test]
    fn error_display_is_informative() {
        let msgs = [
            GraphError::SelfLoop(3).to_string(),
            GraphError::Asymmetric { from: 1, to: 2 }.to_string(),
            GraphError::UnsortedAdjacency(7).to_string(),
        ];
        assert!(msgs[0].contains("self loop"));
        assert!(msgs[1].contains("reverse"));
        assert!(msgs[2].contains("unsorted"));
    }
}
