//! Two-tier instrumentation for the whole workspace: deterministic work
//! counters, explicitly nondeterministic perf stats, and a span layer
//! that exports chrome://tracing-compatible trace-event JSON.
//!
//! # The two tiers
//!
//! **Deterministic work counters** ([`Counter`]) measure *what* the
//! pipeline computed: facets enumerated, views interned, boundary rows
//! assembled, GF(2) ranks reduced, CSP verdicts produced, budget
//! admissions, registry materializations. Every counted site performs a
//! thread-count-invariant amount of work (the determinism contract,
//! DESIGN.md §4), so the totals are **bit-identical at any
//! `KSA_THREADS`** — CI diffs them across pool sizes exactly like
//! experiment verdicts, which turns the profile into a correctness gate.
//!
//! **Perf stats** ([`PerfCounter`]) measure *how* the pool got it done:
//! steals, parks, spawns, portfolio nodes explored before cancellation,
//! restart slices, redundant racer builds. These depend on scheduling
//! and live in a separate namespace that CI strips before diffing.
//!
//! # Sharding and merging
//!
//! Counts land in per-thread shards (one cache line of relaxed atomics
//! per thread, registered on first use) so the hot path is a single
//! uncontended `fetch_add`. A [`snapshot`] merges shards in their
//! registration order; since merging is integer addition, the totals are
//! independent of both the merge order and how work was distributed —
//! which is exactly why the deterministic tier survives work stealing.
//! Reads use relaxed ordering: callers snapshot after joining the work
//! they want counted, and the join's synchronization publishes the
//! increments.
//!
//! # Scopes
//!
//! A [`Scope`] counts (and, if traced, records the spans of) exactly
//! the work run under [`Scope::enter`]: each count also lands in the
//! current scope and every scope enclosing it. Executors capture the
//! spawner's [`Scope::current`] and run each job under it, so a scope's
//! counts do not depend on which worker stole what (DESIGN.md §9.2).
//! The trace buffer lives on the scope; there is no process-wide trace.
//!
//! # Feature gating
//!
//! With the `enabled` feature off, every entry point is a no-op that the
//! optimizer deletes: counters vanish, [`span`] returns a unit guard and
//! never evaluates its name closure, [`snapshot`] returns empty tiers,
//! and [`Scope`] is an empty handle.
//! Downstream crates therefore call the API unconditionally.
//!
//! # JSON
//!
//! [`json`] is the workspace's one JSON value, parser and serializer.
//! It is compiled regardless of the feature: the trace export escapes
//! through it, and the bench and server crates build their documents
//! with it.

use std::borrow::Cow;

pub mod json;

/// The deterministic tier: work performed, invariant across
/// `KSA_THREADS` by the determinism contract.
///
/// Variant order is the canonical presentation order (JSON, reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Facets materialized into complexes (protocol rounds,
    /// pseudospheres, closed-above interpretations).
    FacetsEnumerated,
    /// Total simplexes closed into chain-complex arenas.
    FacesClosed,
    /// Distinct views interned into round/view tables.
    ViewsInterned,
    /// Sparse boundary rows assembled for rank reduction.
    BoundaryRows,
    /// Nonzeros across those boundary rows.
    BoundaryNnz,
    /// GF(2) rank reductions completed (sparse echelon + dense).
    RanksComputed,
    /// Connectivity scans that stopped before their requested cap.
    ConnectivityEarlyExits,
    /// CSP solvability verdicts produced (decided or Unknown).
    CspVerdicts,
    /// Symmetry-group order detected per CSP instance, summed (process
    /// automorphisms × value permutations). Detection runs once per
    /// instance before any racing starts, so it is schedule-invariant.
    CspSymmetries,
    /// Root branches pruned as non-lex-least orbit representatives.
    /// Computed from the instance alone (root propagation + first
    /// branch variable), before any strategy races — deterministic.
    CspOrbitRootPrunes,
    /// k-sweep verdicts derived by lifting a solvability certificate
    /// from k to k+1 (monotonicity) instead of searching.
    CspSweepSeeded,
    /// k-sweep verdicts derived from an impossibility proof at a higher
    /// k (monotonicity) instead of searching.
    CspSweepPruned,
    /// Budget admissions granted.
    BudgetAdmissions,
    /// Budget admissions refused.
    BudgetRejections,
    /// Registry resolutions through the materialization cache.
    RegistryLookups,
    /// Unique model materializations inserted into a registry cache.
    /// Cache hits are `RegistryLookups − RegistryMaterializations`;
    /// raw hit/miss counts would be racy (two concurrent first lookups
    /// both miss), the unique-insert count is not.
    RegistryMaterializations,
    /// Executions explored by the runtime checker.
    CheckerExecutions,
    /// Graph-layer domination/covering queries answered.
    DominationQueries,
    /// Machine-checkable certificates emitted into a certificate sink
    /// (one per verdict, regardless of schedule).
    CertsEmitted,
    /// Certificates re-verified by the standalone `ksa-cert` checkers
    /// (one per check call, accept or reject).
    CertsChecked,
    /// Server cache lookups answered from a verified on-disk entry.
    /// Deterministic given the request sequence: a hit depends only on
    /// which keys were written before, never on scheduling.
    CacheHits,
    /// Server cache lookups that found no usable entry (absent, key
    /// mismatch, or quarantined — quarantines are additionally counted
    /// in the perf tier because *when* corruption is observed is not).
    CacheMisses,
    /// Server cache entries committed to disk (temp-file-then-rename).
    CacheWrites,
}

impl Counter {
    /// All counters, in presentation order.
    pub const ALL: [Counter; 23] = [
        Counter::FacetsEnumerated,
        Counter::FacesClosed,
        Counter::ViewsInterned,
        Counter::BoundaryRows,
        Counter::BoundaryNnz,
        Counter::RanksComputed,
        Counter::ConnectivityEarlyExits,
        Counter::CspVerdicts,
        Counter::CspSymmetries,
        Counter::CspOrbitRootPrunes,
        Counter::CspSweepSeeded,
        Counter::CspSweepPruned,
        Counter::BudgetAdmissions,
        Counter::BudgetRejections,
        Counter::RegistryLookups,
        Counter::RegistryMaterializations,
        Counter::CheckerExecutions,
        Counter::DominationQueries,
        Counter::CertsEmitted,
        Counter::CertsChecked,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheWrites,
    ];

    /// Stable snake_case name (JSON keys, report labels).
    pub fn name(self) -> &'static str {
        match self {
            Counter::FacetsEnumerated => "facets_enumerated",
            Counter::FacesClosed => "faces_closed",
            Counter::ViewsInterned => "views_interned",
            Counter::BoundaryRows => "boundary_rows",
            Counter::BoundaryNnz => "boundary_nnz",
            Counter::RanksComputed => "ranks_computed",
            Counter::ConnectivityEarlyExits => "connectivity_early_exits",
            Counter::CspVerdicts => "csp_verdicts",
            Counter::CspSymmetries => "csp_symmetries",
            Counter::CspOrbitRootPrunes => "csp_orbit_root_prunes",
            Counter::CspSweepSeeded => "csp_sweep_seeded",
            Counter::CspSweepPruned => "csp_sweep_pruned",
            Counter::BudgetAdmissions => "budget_admissions",
            Counter::BudgetRejections => "budget_rejections",
            Counter::RegistryLookups => "registry_lookups",
            Counter::RegistryMaterializations => "registry_materializations",
            Counter::CheckerExecutions => "checker_executions",
            Counter::DominationQueries => "domination_queries",
            Counter::CertsEmitted => "certs_emitted",
            Counter::CertsChecked => "certs_checked",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheWrites => "cache_writes",
        }
    }
}

/// The perf tier: scheduling-dependent statistics, explicitly **not**
/// deterministic across pool sizes (CI strips them before diffing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum PerfCounter {
    /// Jobs acquired from another worker's deque or the injector.
    ExecSteals,
    /// Times a worker parked waiting for work.
    ExecParks,
    /// Jobs made stealable (deque pushes + injector submissions).
    ExecSpawns,
    /// CSP decision nodes explored across all portfolio strategies
    /// (includes work thrown away at cancellation).
    PortfolioNodes,
    /// No-good table probes that hit a published dead subtree (work
    /// skipped). Which prunes fire depends on publication timing, so
    /// this is perf-tier by design — the *verdicts* they protect are
    /// not.
    NoGoodHits,
    /// Canonical dead-subtree signatures published into no-good tables
    /// (unique insertions).
    NoGoodInserts,
    /// Portfolio races won by the canonical strategy.
    PortfolioCanonicalWins,
    /// Portfolio races won by an alternate strategy.
    PortfolioAlternateWins,
    /// Registry materializations discarded because a concurrent racer
    /// already populated the cache entry.
    RegistryRedundantBuilds,
    /// Corrupt or truncated server cache entries quarantined on read
    /// (renamed aside, then transparently recomputed).
    CacheCorruptionsQuarantined,
    /// Requests refused with `Overloaded` because the server's bounded
    /// queue was full.
    RequestsShed,
    /// Deadlines observed tripping a `CancelToken` (counted once at
    /// the live→deadline transition; *when* a checkpoint notices is
    /// scheduling-dependent).
    DeadlinesTripped,
    /// Worker tasks that panicked and were isolated by `catch_unwind`
    /// into a structured error response.
    RequestsPanicked,
}

impl PerfCounter {
    /// All perf counters, in presentation order.
    pub const ALL: [PerfCounter; 13] = [
        PerfCounter::ExecSteals,
        PerfCounter::ExecParks,
        PerfCounter::ExecSpawns,
        PerfCounter::PortfolioNodes,
        PerfCounter::NoGoodHits,
        PerfCounter::NoGoodInserts,
        PerfCounter::PortfolioCanonicalWins,
        PerfCounter::PortfolioAlternateWins,
        PerfCounter::RegistryRedundantBuilds,
        PerfCounter::CacheCorruptionsQuarantined,
        PerfCounter::RequestsShed,
        PerfCounter::DeadlinesTripped,
        PerfCounter::RequestsPanicked,
    ];

    /// Stable snake_case name (JSON keys, report labels).
    pub fn name(self) -> &'static str {
        match self {
            PerfCounter::ExecSteals => "exec_steals",
            PerfCounter::ExecParks => "exec_parks",
            PerfCounter::ExecSpawns => "exec_spawns",
            PerfCounter::PortfolioNodes => "portfolio_nodes",
            PerfCounter::NoGoodHits => "nogood_hits",
            PerfCounter::NoGoodInserts => "nogood_inserts",
            PerfCounter::PortfolioCanonicalWins => "portfolio_canonical_wins",
            PerfCounter::PortfolioAlternateWins => "portfolio_alternate_wins",
            PerfCounter::RegistryRedundantBuilds => "registry_redundant_builds",
            PerfCounter::CacheCorruptionsQuarantined => "cache_corruptions_quarantined",
            PerfCounter::RequestsShed => "requests_shed",
            PerfCounter::DeadlinesTripped => "deadlines_tripped",
            PerfCounter::RequestsPanicked => "requests_panicked",
        }
    }
}

/// Per-worker perf breakdown (shards whose thread was a pool worker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPerf {
    /// The worker thread's name (`ksa-exec-N`).
    pub label: String,
    /// Jobs it stole (sibling deques + injector).
    pub steals: u64,
    /// Times it parked.
    pub parks: u64,
    /// Jobs it made stealable.
    pub spawns: u64,
}

/// A merged view of every shard at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Deterministic tier, in [`Counter::ALL`] order.
    pub det: Vec<(&'static str, u64)>,
    /// Perf tier, in [`PerfCounter::ALL`] order.
    pub perf: Vec<(&'static str, u64)>,
    /// Per-worker perf rows, sorted by worker label.
    pub workers: Vec<WorkerPerf>,
}

impl MetricsSnapshot {
    /// The deterministic-tier value for `c` (0 when the tier is empty,
    /// i.e. instrumentation compiled out).
    pub fn det_value(&self, c: Counter) -> u64 {
        self.det
            .iter()
            .find(|(name, _)| *name == c.name())
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Deterministic tier as a delta against an `earlier` snapshot of
    /// the process totals (a [`Scope`] measures one workload without
    /// diffing).
    pub fn det_delta(&self, earlier: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
        self.det
            .iter()
            .map(|&(name, v)| (name, v - earlier.det_value_by_name(name)))
            .collect()
    }

    fn det_value_by_name(&self, name: &str) -> u64 {
        self.det
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }
}

#[cfg(feature = "enabled")]
mod imp {
    use super::json::write_escaped;
    use super::{Counter, MetricsSnapshot, PerfCounter, WorkerPerf};
    use std::borrow::Cow;
    use std::cell::Cell;
    use std::fmt::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::thread::ThreadId;
    use std::time::Instant;

    const DET: usize = Counter::ALL.len();
    const PERF: usize = PerfCounter::ALL.len();

    /// Both tiers as relaxed atomics: one thread's shard, or one
    /// scope's running totals.
    struct Tiers {
        det: [AtomicU64; DET],
        perf: [AtomicU64; PERF],
    }

    impl Tiers {
        fn new() -> Self {
            Tiers {
                det: std::array::from_fn(|_| AtomicU64::new(0)),
                perf: std::array::from_fn(|_| AtomicU64::new(0)),
            }
        }

        fn snapshot(&self, workers: Vec<WorkerPerf>) -> MetricsSnapshot {
            MetricsSnapshot {
                det: Counter::ALL
                    .iter()
                    .map(|&c| (c.name(), self.det[c as usize].load(Ordering::Relaxed)))
                    .collect(),
                perf: PerfCounter::ALL
                    .iter()
                    .map(|&p| (p.name(), self.perf[p as usize].load(Ordering::Relaxed)))
                    .collect(),
                workers,
            }
        }
    }

    /// One thread's counters. Shards are append-only in a global list:
    /// a dead thread's totals must keep contributing to snapshots.
    struct Shard {
        label: String,
        tiers: Tiers,
    }

    fn shards() -> &'static Mutex<Vec<Arc<Shard>>> {
        static SHARDS: OnceLock<Mutex<Vec<Arc<Shard>>>> = OnceLock::new();
        SHARDS.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// One scope: its totals, the scope it was opened in, and the trace
    /// buffer its spans land in (its own, or the nearest traced
    /// ancestor's).
    pub struct Node {
        parent: Option<Arc<Node>>,
        tiers: Tiers,
        trace: Option<Arc<TraceBuf>>,
    }

    thread_local! {
        static LOCAL: OnceLock<Arc<Shard>> = const { OnceLock::new() };
        /// The scope this thread runs under, or null. The node is kept
        /// alive by the `enter` frame that installed it further up this
        /// thread's stack, which restores the previous value on exit.
        static CURRENT: Cell<*const Node> = const { Cell::new(std::ptr::null()) };
    }

    fn with_local<R>(f: impl FnOnce(&Shard) -> R) -> R {
        LOCAL.with(|cell| {
            let shard = cell.get_or_init(|| {
                let shard = Arc::new(Shard {
                    label: std::thread::current().name().unwrap_or("?").to_string(),
                    tiers: Tiers::new(),
                });
                shards()
                    .lock()
                    .expect("obs shards")
                    .push(Arc::clone(&shard));
                shard
            });
            f(shard)
        })
    }

    /// Calls `f` on the current scope and every scope enclosing it.
    fn for_each_scope(f: impl Fn(&Tiers)) {
        CURRENT.with(|cur| {
            // SAFETY: see `CURRENT`.
            let mut node = unsafe { cur.get().as_ref() };
            while let Some(n) = node {
                f(&n.tiers);
                node = n.parent.as_deref();
            }
        });
    }

    pub fn count(c: Counter, n: u64) {
        if n != 0 {
            with_local(|s| s.tiers.det[c as usize].fetch_add(n, Ordering::Relaxed));
            for_each_scope(|t| {
                t.det[c as usize].fetch_add(n, Ordering::Relaxed);
            });
        }
    }

    pub fn perf_count(p: PerfCounter, n: u64) {
        if n != 0 {
            with_local(|s| s.tiers.perf[p as usize].fetch_add(n, Ordering::Relaxed));
            for_each_scope(|t| {
                t.perf[p as usize].fetch_add(n, Ordering::Relaxed);
            });
        }
    }

    pub fn snapshot() -> MetricsSnapshot {
        let shards = shards().lock().expect("obs shards");
        let total = Tiers::new();
        let mut workers = Vec::new();
        for shard in shards.iter() {
            for (sum, slot) in total.det.iter().zip(&shard.tiers.det) {
                sum.fetch_add(slot.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            for (sum, slot) in total.perf.iter().zip(&shard.tiers.perf) {
                sum.fetch_add(slot.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            if shard.label.starts_with("ksa-exec-") {
                let perf = |p: PerfCounter| shard.tiers.perf[p as usize].load(Ordering::Relaxed);
                workers.push(WorkerPerf {
                    label: shard.label.clone(),
                    steals: perf(PerfCounter::ExecSteals),
                    parks: perf(PerfCounter::ExecParks),
                    spawns: perf(PerfCounter::ExecSpawns),
                });
            }
        }
        workers.sort_by(|a, b| a.label.cmp(&b.label));
        // Several workers may have indexed shards across different pools
        // (tests spin up throwaway pools); merge rows sharing a label.
        workers.dedup_by(|b, a| {
            if a.label == b.label {
                a.steals += b.steals;
                a.parks += b.parks;
                a.spawns += b.spawns;
                true
            } else {
                false
            }
        });
        total.snapshot(workers)
    }

    // ---- scopes ----------------------------------------------------------

    /// An observation scope: counts (and, if traced, records the spans
    /// of) the work run under [`Scope::enter`] (DESIGN.md §9.2).
    ///
    /// A scope opened while another is current is nested in it, so its
    /// counts also land in the enclosing scope. `ksa-exec` jobs capture
    /// [`Scope::current`] where they are created and run under it, so a
    /// scope counts the same work whichever worker runs it. Threads
    /// started with `std::thread` begin outside every scope.
    #[derive(Clone)]
    pub struct Scope(Option<Arc<Node>>);

    impl Default for Scope {
        fn default() -> Self {
            Scope::new()
        }
    }

    impl Scope {
        /// A scope nested in the calling thread's current scope, if any;
        /// its spans go to the nearest traced enclosing scope.
        pub fn new() -> Scope {
            Scope::open(None)
        }

        /// A scope that records the spans opened under it into its own
        /// trace buffer, timed from its creation.
        pub fn traced() -> Scope {
            Scope::open(Some(Arc::new(TraceBuf {
                epoch: Instant::now(),
                state: Mutex::new(TraceState::default()),
            })))
        }

        fn open(trace: Option<Arc<TraceBuf>>) -> Scope {
            let parent = Scope::current().0;
            let trace = trace.or_else(|| parent.as_ref().and_then(|p| p.trace.clone()));
            Scope(Some(Arc::new(Node {
                parent,
                tiers: Tiers::new(),
                trace,
            })))
        }

        /// The calling thread's current scope — the empty scope outside
        /// every scope.
        pub fn current() -> Scope {
            CURRENT.with(|cur| {
                let node = cur.get();
                if node.is_null() {
                    return Scope(None);
                }
                // SAFETY: a live `enter` frame holds a strong count (see
                // `CURRENT`), so taking one more is sound.
                unsafe {
                    Arc::increment_strong_count(node);
                    Scope(Some(Arc::from_raw(node)))
                }
            })
        }

        /// Runs `f` with this scope current on the calling thread (the
        /// empty scope: outside every scope), restoring the previous one
        /// afterwards.
        pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
            struct Restore(*const Node);
            impl Drop for Restore {
                fn drop(&mut self) {
                    CURRENT.with(|cur| cur.set(self.0));
                }
            }
            let node = self.0.as_ref().map_or(std::ptr::null(), Arc::as_ptr);
            let _restore = Restore(CURRENT.with(|cur| cur.replace(node)));
            f()
        }

        /// Both tiers as counted under this scope so far (`workers`
        /// stays empty: per-worker rows are process-wide, see
        /// [`snapshot`](crate::snapshot)).
        pub fn snapshot(&self) -> MetricsSnapshot {
            match &self.0 {
                Some(node) => node.tiers.snapshot(Vec::new()),
                None => Tiers::new().snapshot(Vec::new()),
            }
        }

        /// The spans recorded in this scope's trace buffer as
        /// chrome://tracing trace-event JSON (`{"traceEvents": [...]}` —
        /// load it at `chrome://tracing` or <https://ui.perfetto.dev>).
        /// Spans still open are not included; without a buffer the
        /// document is empty but valid.
        pub fn trace(&self) -> String {
            match self.0.as_ref().and_then(|n| n.trace.as_ref()) {
                Some(buf) => render_trace(&buf.state.lock().expect("obs trace")),
                None => render_trace(&TraceState::default()),
            }
        }
    }

    // ---- span layer / trace export -------------------------------------

    struct TraceEvent {
        name: Cow<'static, str>,
        cat: &'static str,
        tid: usize,
        ts_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, u64)>,
    }

    struct TraceBuf {
        epoch: Instant,
        state: Mutex<TraceState>,
    }

    /// Events in completion order; a thread's trace id is its index in
    /// `threads`.
    #[derive(Default)]
    struct TraceState {
        events: Vec<TraceEvent>,
        threads: Vec<(ThreadId, String)>,
    }

    impl TraceState {
        fn tid(&mut self) -> usize {
            let me = std::thread::current();
            if let Some(tid) = self.threads.iter().position(|(id, _)| *id == me.id()) {
                return tid;
            }
            self.threads
                .push((me.id(), me.name().unwrap_or("?").to_string()));
            self.threads.len() - 1
        }
    }

    pub struct SpanGuard {
        open: Option<OpenSpan>,
    }

    struct OpenSpan {
        trace: Arc<TraceBuf>,
        name: Cow<'static, str>,
        cat: &'static str,
        start: Instant,
        args: Vec<(&'static str, u64)>,
    }

    impl SpanGuard {
        pub fn arg(mut self, key: &'static str, value: u64) -> Self {
            if let Some(open) = self.open.as_mut() {
                open.args.push((key, value));
            }
            self
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let Some(open) = self.open.take() else {
                return;
            };
            let end = Instant::now();
            let ts_ns = open
                .start
                .saturating_duration_since(open.trace.epoch)
                .as_nanos() as u64;
            let dur_ns = end.saturating_duration_since(open.start).as_nanos() as u64;
            let mut state = open.trace.state.lock().expect("obs trace");
            let tid = state.tid();
            state.events.push(TraceEvent {
                name: open.name,
                cat: open.cat,
                tid,
                ts_ns,
                dur_ns,
                args: open.args,
            });
        }
    }

    pub fn span<N>(cat: &'static str, name: impl FnOnce() -> N) -> SpanGuard
    where
        N: Into<Cow<'static, str>>,
    {
        // SAFETY: see `CURRENT`.
        let trace = CURRENT.with(|cur| unsafe { cur.get().as_ref() }.and_then(|n| n.trace.clone()));
        SpanGuard {
            open: trace.map(|trace| OpenSpan {
                trace,
                name: name().into(),
                cat,
                start: Instant::now(),
                args: Vec::new(),
            }),
        }
    }

    fn render_trace(state: &TraceState) -> String {
        let mut out = String::with_capacity(256 + state.events.len() * 128);
        out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [");
        let mut first = true;
        for (tid, (_, name)) in state.threads.iter().enumerate() {
            push_event_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": "
            );
            write_escaped(&mut out, name);
            out.push_str("}}");
        }
        for ev in &state.events {
            push_event_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"name\": ",
                ev.tid
            );
            write_escaped(&mut out, &ev.name);
            out.push_str(", \"cat\": ");
            write_escaped(&mut out, ev.cat);
            let _ = write!(
                out,
                ", \"ts\": {:.3}, \"dur\": {:.3}",
                ev.ts_ns as f64 / 1_000.0,
                ev.dur_ns as f64 / 1_000.0,
            );
            if !ev.args.is_empty() {
                out.push_str(", \"args\": {");
                for (i, (key, value)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_escaped(&mut out, key);
                    let _ = write!(out, ": {value}");
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    fn push_event_sep(out: &mut String, first: &mut bool) {
        if *first {
            *first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n    ");
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::{Counter, MetricsSnapshot, PerfCounter};
    use std::borrow::Cow;

    #[inline(always)]
    pub fn count(_c: Counter, _n: u64) {}

    #[inline(always)]
    pub fn perf_count(_p: PerfCounter, _n: u64) {}

    pub fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Empty handle: scopes were compiled out.
    #[derive(Clone, Default)]
    pub struct Scope;

    impl Scope {
        pub fn new() -> Scope {
            Scope
        }

        pub fn traced() -> Scope {
            Scope
        }

        #[inline(always)]
        pub fn current() -> Scope {
            Scope
        }

        #[inline(always)]
        pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
            f()
        }

        pub fn snapshot(&self) -> MetricsSnapshot {
            MetricsSnapshot::default()
        }

        pub fn trace(&self) -> String {
            "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n  ]\n}\n".to_string()
        }
    }

    /// Unit guard: the span was compiled out.
    pub struct SpanGuard;

    impl SpanGuard {
        pub fn arg(self, _key: &'static str, _value: u64) -> Self {
            self
        }
    }

    #[inline(always)]
    pub fn span<N>(_cat: &'static str, _name: impl FnOnce() -> N) -> SpanGuard
    where
        N: Into<Cow<'static, str>>,
    {
        SpanGuard
    }
}

pub use imp::{Scope, SpanGuard};

/// Adds `n` to a deterministic-tier counter on this thread's shard and
/// in the current [`Scope`] and every scope enclosing it.
///
/// Call sites must perform a thread-count-invariant amount of counted
/// work (see the tier contract in the module docs) — that, not this
/// function, is what makes [`snapshot`] totals deterministic.
#[inline]
pub fn count(c: Counter, n: u64) {
    imp::count(c, n);
}

/// Adds `n` to a perf-tier counter on this thread's shard and in every
/// enclosing [`Scope`].
#[inline]
pub fn perf_count(p: PerfCounter, n: u64) {
    imp::perf_count(p, n);
}

/// Merges every shard into one [`MetricsSnapshot`]: the process totals,
/// scoped or not. Counts from work that was joined before this call are
/// fully visible.
pub fn snapshot() -> MetricsSnapshot {
    imp::snapshot()
}

/// Opens a duration span; the returned guard records the span when
/// dropped, into the trace buffer of the current [`Scope`] (nothing is
/// recorded outside a traced scope). The name closure is only evaluated
/// while a trace is being collected, so `span("bench", ||
/// format!("experiment:{id}"))` costs one thread-local read when tracing
/// is off.
#[inline]
pub fn span<N>(cat: &'static str, name: impl FnOnce() -> N) -> SpanGuard
where
    N: Into<Cow<'static, str>>,
{
    imp::span(cat, name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_and_snapshot_merges() {
        let scope = Scope::new();
        scope.enter(|| {
            count(Counter::BoundaryRows, 3);
            count(Counter::BoundaryRows, 4);
            count(Counter::RanksComputed, 0); // no-op, not a panic
            perf_count(PerfCounter::ExecSteals, 2);
        });
        let snap = scope.snapshot();
        if cfg!(feature = "enabled") {
            assert_eq!(snap.det_value(Counter::BoundaryRows), 7);
            assert_eq!(snap.det_value(Counter::RanksComputed), 0);
            assert_eq!(snap.det.len(), Counter::ALL.len());
            assert_eq!(snap.perf.len(), PerfCounter::ALL.len());
            assert!(snapshot().det_value(Counter::BoundaryRows) >= 7);
        } else {
            assert!(snap.det.is_empty());
            assert!(snapshot().perf.is_empty());
        }
    }

    #[test]
    fn cross_thread_counts_merge_into_one_total() {
        let scope = Scope::new();
        let captured = scope.enter(Scope::current);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let captured = captured.clone();
                std::thread::spawn(move || {
                    captured.enter(|| count(Counter::FacesClosed, 5));
                    // Back outside: a bare thread starts in no scope.
                    count(Counter::FacesClosed, 1);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let faces = scope.snapshot().det_value(Counter::FacesClosed);
        assert_eq!(faces, if cfg!(feature = "enabled") { 20 } else { 0 });
    }

    #[test]
    fn names_are_unique_and_ordered() {
        let names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate counter name");
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL order must match discriminant order");
        }
        for (i, p) in PerfCounter::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "ALL order must match discriminant order");
        }
    }

    #[test]
    fn spans_export_wellformed_trace_json() {
        let scope = Scope::traced();
        scope.enter(|| {
            let _outer = span("test", || "outer").arg("k", 2);
            let _inner = span("test", || format!("inner:{}", 7));
        });
        let json = scope.trace();
        if cfg!(feature = "enabled") {
            assert!(json.contains("\"traceEvents\""));
            assert!(json.contains("\"name\": \"outer\""));
            assert!(json.contains("\"name\": \"inner:7\""));
            assert!(json.contains("\"args\": {\"k\": 2}"));
            assert!(json.contains("\"ph\": \"M\""), "thread metadata present");
        } else {
            assert!(json.contains("\"traceEvents\""));
        }
        // Spans opened outside a traced scope are free and recordless.
        let _ = span("test", || -> &'static str { panic!("name must be lazy") });
    }
}
