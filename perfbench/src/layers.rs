//! The layer calls of the traced runs: each public entry point a
//! workload exercises, called directly and wrapped in a span named after
//! its layer. The untraced runs call the same computations through one
//! entry point per op; these helpers split them into the layers the
//! ledger attributes time to.

use ksa_cert::{Cert, HomologyCert};
use ksa_core::bounds::cross_check::{cross_check_round_sweep, RoundCrossCheck};
use ksa_core::bounds::lower::best_lower_bound;
use ksa_core::bounds::LowerBound;
use ksa_core::budget::CancelToken;
use ksa_core::solvability::{decide_one_round_sweep_cancellable, KSweep};
use ksa_models::spec::ModelSpec;
use ksa_models::ClosedAboveModel;
use ksa_topology::chain::{reduced_betti_certified, ChainComplex, SweepStep};
use ksa_topology::rounds::{protocol_complex_rounds_cancellable, RoundsComplex};

use crate::trace::Tracer;

/// Inputs range over `{0, 1}` in every rounds computation.
pub const VALUE_MAX: usize = 1;
/// Round count of the sweep and `rounds` request inputs.
pub const ROUNDS: usize = 2;
/// Sweep ceiling of the `solv` requests.
pub const K_MAX: usize = 3;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `models.materialize`.
pub fn materialize(
    t: &mut Tracer,
    spec: &ModelSpec,
    budget: u128,
) -> Result<ClosedAboveModel, String> {
    t.counted("models.materialize", |_| {
        crate::inputs::materialize(spec, budget)
    })
}

/// `topology.rounds`: the input complex and the iterated protocol
/// complexes.
pub fn build_rounds(
    t: &mut Tracer,
    model: &ClosedAboveModel,
    rounds: usize,
    budget: u128,
) -> Result<RoundsComplex<u32>, String> {
    t.counted("topology.rounds", |_| {
        let n = ksa_models::ObliviousModel::n(model);
        let input = ksa_core::task::input_complex(n, VALUE_MAX, budget).map_err(err)?;
        protocol_complex_rounds_cancellable(
            model.generators(),
            &input,
            rounds,
            budget,
            &CancelToken::new(),
        )
        .map_err(err)
    })
}

/// `core.lower_bound` for rounds `1..=rounds`.
pub fn lower_bounds(
    t: &mut Tracer,
    model: &ClosedAboveModel,
    rounds: usize,
) -> Result<Vec<Option<LowerBound>>, String> {
    t.span("core.lower_bound", |_| {
        (1..=rounds)
            .map(|r| best_lower_bound(model, r).map_err(err))
            .collect()
    })
}

/// The uncertified rounds path (the `rounds` request, the `hunt`
/// experiment): complex build, one chain sweep, lower bounds.
pub fn plain_rounds(
    t: &mut Tracer,
    model: &ClosedAboveModel,
    rounds: usize,
    budget: u128,
) -> Result<Vec<RoundCrossCheck>, String> {
    let rc = build_rounds(t, model, rounds, budget)?;
    let steps: Vec<SweepStep> = t.counted("topology.homology_sweep", |_| {
        rc.homology_sweep_cancellable(&CancelToken::new())
            .map_err(err)
    })?;
    let lower = lower_bounds(t, model, rounds)?;
    Ok(steps
        .into_iter()
        .zip(lower)
        .enumerate()
        .map(|(i, (step, lower))| {
            use ksa_topology::connectivity::Connectivity;
            let measured_connectivity = match step.connectivity {
                Connectivity::Empty => -2,
                Connectivity::Exactly(k) | Connectivity::AtLeast(k) => k,
            };
            row(&rc, i + 1, lower, measured_connectivity, step.betti)
        })
        .collect())
}

fn row(
    rc: &RoundsComplex<u32>,
    round: usize,
    lower: Option<LowerBound>,
    measured_connectivity: isize,
    betti: Vec<usize>,
) -> RoundCrossCheck {
    RoundCrossCheck {
        round,
        predicted_l: lower.as_ref().map_or(-1, |b| b.impossible_k as isize - 1),
        lower,
        measured_connectivity,
        betti,
        facets: rc.complex_at(round).expect("round was built").facet_count(),
        interned_views: rc.table_at(round).expect("round was built").len(),
    }
}

/// `core.csp`: the one-round solvability k-sweep as the server runs it.
pub fn csp_sweep(t: &mut Tracer, model: &ClosedAboveModel, k_max: usize) -> Result<KSweep, String> {
    t.counted("core.csp", |_| {
        decide_one_round_sweep_cancellable(
            model,
            k_max,
            ksa_server::server::EXEC_LIMIT,
            ksa_server::server::NODE_BUDGET,
            &CancelToken::new(),
            &mut |_| {},
        )
        .map_err(err)
    })
}

/// What one certified round sweep left behind for the probes.
pub struct CertifiedSweep {
    /// The model swept.
    pub model: ClosedAboveModel,
    /// Its protocol complexes.
    pub rc: RoundsComplex<u32>,
    /// One row per round, as `cross_check_round_sweep_certified`
    /// reports them.
    pub rows: Vec<RoundCrossCheck>,
    /// One certificate per round.
    pub certs: Vec<HomologyCert>,
}

/// The certified rounds path (the `sweep` op, the `rounds` experiment)
/// split into layers: complex build, per round lower bound and
/// certified Betti numbers (`cert.produce`), then every certificate
/// checked (`cert.check`). A rejected certificate is an error.
pub fn certified_rounds(
    t: &mut Tracer,
    spec: &ModelSpec,
    rounds: usize,
    budget: u128,
) -> Result<CertifiedSweep, String> {
    let model = materialize(t, spec, budget)?;
    let rc = build_rounds(t, &model, rounds, budget)?;
    let label = spec.name();
    let mut rows = Vec::with_capacity(rounds);
    let mut certs = Vec::with_capacity(rounds);
    for r in 1..=rounds {
        let lower = t.span("core.lower_bound", |_| {
            best_lower_bound(&model, r).map_err(err)
        })?;
        let complex = rc.complex_at(r).expect("round was built");
        let (betti, cert) = t
            .counted("cert.produce", |_| {
                reduced_betti_certified(complex, &format!("{label} r={r}"))
            })
            .ok_or("protocol complexes are never void")?;
        rows.push(row(&rc, r, lower, cert.connectivity as isize, betti));
        certs.push(cert);
    }
    for cert in &certs {
        let cert = Cert::Homology(cert.clone());
        t.counted("cert.check", |_| cert.check())
            .map_err(|e| format!("certificate {} rejected: {e}", cert.label()))?;
    }
    Ok(CertifiedSweep {
        model,
        rc,
        rows,
        certs,
    })
}

/// Measurements the certified op does not make itself, taken on its
/// results: face closure and rank reduction split out of the certified
/// Betti computation, the text round trip of every certificate, and the
/// row-by-row comparison with the uncertified sweep. Returns the
/// certificate bytes.
pub fn certified_probes(
    t: &mut Tracer,
    sweep: &CertifiedSweep,
    budget: u128,
) -> Result<usize, String> {
    for (r, row) in (1..).zip(&sweep.rows) {
        let complex = sweep.rc.complex_at(r).expect("round was built");
        let mut chain = t.counted("topology.closure", |_| ChainComplex::from_complex(complex));
        let betti = t.counted("topology.rank", |_| chain.reduced_betti());
        if betti != row.betti {
            return Err(format!(
                "r={r}: chain Betti {betti:?} != certified {:?}",
                row.betti
            ));
        }
    }
    let mut bytes = 0;
    for cert in &sweep.certs {
        let cert = Cert::Homology(cert.clone());
        let text = t.span("cert.text", |_| {
            let text = cert.to_text();
            Cert::parse(&text).map(|parsed| (parsed, text))
        });
        let (parsed, text) = text.map_err(err)?;
        if parsed != cert {
            return Err(format!(
                "{}: text round trip changed the certificate",
                cert.label()
            ));
        }
        bytes += text.len();
    }
    let plain = t.span("verify.plain_sweep", |_| {
        cross_check_round_sweep(&sweep.model, VALUE_MAX, sweep.rows.len(), budget).map_err(err)
    })?;
    if plain.per_round != sweep.rows {
        return Err("certified report differs from cross_check_round_sweep".to_string());
    }
    Ok(bytes)
}

/// The per-layer metrics every traced workload derives from its ledger,
/// each per op: `ops` is the number of traced ops. Layers a workload
/// never called come out as 0.
pub fn ledger_metrics(ledger: &crate::trace::Ledger, ops: f64, out: &mut crate::Traced) {
    let per = |x: f64| x / ops;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let count = |span: &str, counter: &str| ledger.count(span, counter) as f64;
    for (metric, span) in [
        ("models.materialize_ms", "models.materialize"),
        ("topology.rounds_ms", "topology.rounds"),
        ("topology.closure_ms", "topology.closure"),
        ("topology.rank_ms", "topology.rank"),
        ("topology.homology_sweep_ms", "topology.homology_sweep"),
        ("core.lower_bound_ms", "core.lower_bound"),
        ("core.csp_ms", "core.csp"),
        ("cert.produce_ms", "cert.produce"),
        ("cert.check_ms", "cert.check"),
        ("cert.text_ms", "cert.text"),
    ] {
        out.set(metric, per(ledger.ms(span)));
    }
    for (metric, span, counter) in [
        ("topology.facets", "topology.rounds", "facets_enumerated"),
        (
            "topology.views_interned",
            "topology.rounds",
            "views_interned",
        ),
        ("topology.faces_closed", "topology.closure", "faces_closed"),
        ("topology.boundary_rows", "topology.rank", "boundary_rows"),
        ("topology.boundary_nnz", "topology.rank", "boundary_nnz"),
        ("core.csp_verdicts", "core.csp", "csp_verdicts"),
        ("core.csp_nodes", "core.csp", "portfolio_nodes"),
    ] {
        out.set(metric, per(count(span, counter)));
    }
    let calls = ledger.calls.get("models.materialize").copied().unwrap_or(0);
    out.set("models.materializations", per(calls as f64));
    out.set(
        "core.nogood_hit_ratio",
        ratio(
            count("core.csp", "nogood_hits"),
            count("core.csp", "portfolio_nodes"),
        ),
    );
    out.set(
        "cert.check_per_produce",
        ratio(ledger.ms("cert.check"), ledger.ms("cert.produce")),
    );
    // Scheduler counters over whole ops (and whole experiments).
    let roots: Vec<&String> = ledger
        .calls
        .keys()
        .filter(|name| *name == "op" || name.starts_with("bench.exp."))
        .collect();
    for (metric, counter) in [
        ("exec.steals", "exec_steals"),
        ("exec.parks", "exec_parks"),
        ("exec.spawns", "exec_spawns"),
    ] {
        let total: f64 = roots.iter().map(|r| count(r, counter)).sum();
        out.set(metric, per(total));
    }
}
