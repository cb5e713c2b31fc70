//! The traced in-process replay: the same inputs the TCP run sent, fed
//! to each layer's public function separately, with a span around each
//! call. Layers are named after the crates and modules they time.

use crate::stats::median;
use crate::trace::Tracer;
use crate::vfs::{CountingVfs, Tally};
use crate::workload::copy_data_dir;
use betalike::bucketize::dp_partition;
use betalike::burel::rows_per_bucket;
use betalike::ectree::{bi_split, BetaEligibility};
use betalike::model::{BetaLikeness, BoundKind};
use betalike::retrieve::{hilbert_keys, Materializer};
use betalike::{burel_with_keys, perturb, BurelConfig};
use betalike_baselines::constraints::LikenessConstraint;
use betalike_baselines::mondrian::{mondrian, MondrianConfig};
use betalike_baselines::sabre::{sabre_with_keys, SabreConfig};
use betalike_baselines::AnatomyBaseline;
use betalike_metrics::audit::audit_partition;
use betalike_microdata::census::{self, CensusConfig};
use betalike_microdata::json::Json;
use betalike_query::{AggQuery, Catalog, CatalogStats, RangePred};
use betalike_server::artifact::{Artifact, AUDIT_METRIC};
use betalike_server::wire::ok_response;
use betalike_server::{
    persist, Algo, Conn, CountRequest, DatasetSpec, LocalServer, PublishRequest, Registry,
    ServerConfig,
};
use betalike_store::{
    publication_from_slice, publication_to_vec, ArtifactStore, PublicationSnapshot,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Count requests per block of the replay; blocks alternate spans on/off.
const TRACE_BLOCK: usize = 50;

/// Layers of one count request that `LocalServer::respond_line` covers.
pub const RESPOND_PARTS: [&str; 5] = [
    "microdata.json.parse",
    "server.wire.decode",
    "query.catalog.plan",
    "query.published.estimate",
    "microdata.json.encode",
];

/// The top-level layers of one publish, in the server's order.
pub const PUBLISH_PARTS: [&str; 4] = [
    "server.artifact.publish",
    "metrics.audit",
    "server.persist.snapshot",
    "store.disk.save",
];

/// Reads a stored publication without opening (and so rewriting) its
/// store.
pub fn read_snapshot(data_dir: &Path, handle: &str) -> Result<PublicationSnapshot, String> {
    let path = data_dir.join("artifacts").join(format!("{handle}.bpub"));
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    publication_from_slice(&bytes).map_err(|e| format!("decode {}: {e}", path.display()))
}

/// The catalog plan counters, read as plain numbers.
pub fn plan_counts(stats: &CatalogStats) -> [u64; 4] {
    [
        stats.disjoint.get(),
        stats.full_cover.get(),
        stats.straddle.get(),
        stats.residual_scan.get(),
    ]
}

/// The server's names for [`plan_counts`], in the same order.
pub const PLAN_COUNTERS: [&str; 4] = [
    "catalog_plan_disjoint",
    "catalog_plan_full_cover",
    "catalog_plan_straddle",
    "catalog_plan_residual_scan",
];

/// Plan counts the catalog path records while answering `queries`, on
/// two threads. The server's counters must move by exactly this much
/// when it misses the result cache on the same queries.
pub fn plan_counts_of(
    snap: &PublicationSnapshot,
    queries: &[&AggQuery],
) -> Result<[u64; 4], String> {
    let stats = CatalogStats::default();
    let artifact = persist::restore_with(snap.clone(), true, Some(stats.clone()))?;
    let half = queries.len() / 2;
    std::thread::scope(|s| {
        for part in [&queries[..half], &queries[half..]] {
            let artifact = &artifact;
            s.spawn(move || {
                for q in part {
                    let _ = artifact.answerer.estimate(q);
                }
            });
        }
    });
    Ok(plan_counts(&stats))
}

fn local_server(prepared: &Path, dir: &Path) -> Result<LocalServer, String> {
    copy_data_dir(prepared, dir)?;
    LocalServer::new(&ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("local server on {}: {e}", dir.display()))
}

fn cache_hits(local: &LocalServer) -> f64 {
    let (health, _) = local.respond_line(r#"{"op":"health"}"#);
    Json::parse(&health)
        .ok()
        .and_then(|h| h.get("result_cache_hits").and_then(Json::as_f64))
        .unwrap_or(0.0)
}

/// The count-path replay's result.
#[derive(Debug)]
pub struct CountReplay {
    /// Median ns per layer (over the requests the layer ran on).
    pub layer_ns: BTreeMap<&'static str, f64>,
    /// Median over requests of the separately timed parts of
    /// `server.respond` that ran for the request.
    pub parts_ns: f64,
    /// Median of `server.respond` minus its separately timed parts.
    pub dispatch_self_ns: f64,
    /// Plan counts recorded by the replay's own catalog.
    pub plan: [u64; 4],
    /// Requests replayed.
    pub requests: usize,
    /// Groups in the artifact's catalog.
    pub groups: usize,
    /// Median per-request time with spans on over the same with spans off,
    /// minus one.
    pub trace_overhead_frac: f64,
    /// Every span of the traced blocks.
    pub spans: Json,
}

/// Replays `untimed` lines (to put the caches in the run's state), then
/// `timed` lines, through a fresh `LocalServer` with the server's default
/// config on its own copy of the prepared data directory. Per-layer
/// medians come from the blocks replayed with spans on.
pub fn replay_counts(
    prepared: &Path,
    run_dir: &Path,
    snap: &PublicationSnapshot,
    untimed: &[&str],
    timed: &[&str],
) -> Result<CountReplay, String> {
    let stats = CatalogStats::default();
    let artifact = persist::restore_with(snap.clone(), true, Some(stats.clone()))?;
    let catalog = artifact
        .answerer
        .catalog()
        .ok_or("the prepared artifact has no catalog")?
        .clone();
    let local = local_server(prepared, &run_dir.join("replay-count"))?;
    for line in untimed {
        local.respond_line(line);
    }
    let mut conn = Conn::new(local.max_line_bytes());
    let (mut traced, mut untraced) = (Tracer::new(true), Tracer::new(false));
    let mut outer: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let before = plan_counts(&stats);
    for (r, line) in timed.iter().enumerate() {
        // Spans are on in every other block of requests, so drift in
        // machine speed cannot masquerade as tracing overhead.
        let on = (r / TRACE_BLOCK).is_multiple_of(2);
        let tracer = if on { &mut traced } else { &mut untraced };
        let ns = replay_one(
            tracer, &local, &mut conn, &artifact, &catalog, line, r as u64,
        )?;
        outer[usize::from(on)].push(ns);
    }
    let after = plan_counts(&stats);
    let mut plan = [0u64; 4];
    for (p, (a, b)) in plan.iter_mut().zip(after.into_iter().zip(before)) {
        *p = a - b;
    }
    let durations = traced.durations();
    let layer_ns = durations
        .iter()
        .map(|(name, d)| (*name, median(d)))
        .collect();
    let respond = traced.per_request(&["server.respond"]);
    let parts = traced.per_request(&RESPOND_PARTS);
    let self_ns: Vec<f64> = respond
        .iter()
        .map(|(r, ns)| ns - parts.get(r).copied().unwrap_or(0.0))
        .collect();
    Ok(CountReplay {
        layer_ns,
        parts_ns: median(&parts.values().copied().collect::<Vec<_>>()),
        dispatch_self_ns: median(&self_ns),
        plan,
        requests: timed.len(),
        groups: catalog.num_groups(),
        trace_overhead_frac: median(&outer[1]) / median(&outer[0]) - 1.0,
        spans: traced.to_json(),
    })
}

/// One count request through every count-path layer; returns the
/// request's whole replay time in nanoseconds.
fn replay_one(
    tracer: &mut Tracer,
    local: &LocalServer,
    conn: &mut Conn,
    artifact: &Artifact,
    catalog: &Catalog,
    line: &str,
    r: u64,
) -> Result<f64, String> {
    let bytes = format!("{line}\n");
    let hits = cache_hits(local);
    let started = Instant::now();
    let (framed, _) = tracer.time("server.conn.frame", None, r, || {
        conn.on_bytes(bytes.as_bytes())
    });
    let framed = framed
        .into_iter()
        .next()
        .ok_or("the framer returned no request")?;
    let ((response, _), respond) = tracer.time("server.respond", None, r, || {
        local.respond_line(&framed.text)
    });
    let hit = cache_hits(local) > hits;
    let (doc, _) = tracer.time("microdata.json.parse", respond, r, || {
        Json::parse(&framed.text)
    });
    let doc = doc.map_err(|e| format!("replay parse: {e}"))?;
    let (request, _) = tracer.time("server.wire.decode", respond, r, || {
        CountRequest::from_json(&doc)
    });
    let request = request?;
    let query = AggQuery {
        qi_preds: request.qi_preds.clone(),
        sa_pred: RangePred {
            attr: artifact.dataset.sa,
            lo: request.sa_lo,
            hi: request.sa_hi,
        },
    };
    let preds: Vec<RangePred> = query
        .qi_preds
        .iter()
        .chain([&query.sa_pred])
        .copied()
        .collect();
    tracer.time("query.catalog.plan", respond, r, || catalog.plan(&preds));
    let estimate = if hit {
        crate::check::estimate_of(&response).ok_or("replayed count was not answered")?
    } else {
        let (estimate, _) = tracer.time("query.published.estimate", respond, r, || {
            artifact.answerer.estimate(&query)
        });
        estimate.map_err(|e| format!("replay estimate: {e}"))?
    };
    tracer.time("microdata.json.encode", respond, r, || {
        ok_response(vec![("estimate".to_string(), Json::Num(estimate))]).compact()
    });
    let ns = started.elapsed().as_nanos() as f64;
    conn.complete(framed.seq, &response, false);
    let written = conn.output().len();
    conn.consume(written);
    Ok(ns)
}

/// The publish-path replay's result.
#[derive(Debug)]
pub struct PublishReplay {
    /// Median ms per layer (over the publishes the layer ran on).
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// Median over publishes of the summed top-level layers, ms.
    pub layers_sum_ms: f64,
    /// Per scheme: median ms per layer.
    pub by_scheme: BTreeMap<&'static str, BTreeMap<&'static str, f64>>,
    /// Store syscalls over every save.
    pub tally: Tally,
    /// Saves replayed.
    pub saves: usize,
    /// Every span.
    pub spans: Json,
}

/// Replays every publish of the run, in order, against a store opened on
/// the replay's own copy of the prepared data directory.
pub fn replay_publishes(
    prepared: &Path,
    run_dir: &Path,
    requests: &[PublishRequest],
) -> Result<PublishReplay, String> {
    let dir = run_dir.join("replay-publish");
    copy_data_dir(prepared, &dir)?;
    let vfs = Arc::new(CountingVfs::default());
    let (store, _) = ArtifactStore::open_with(&dir, vfs.clone())
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    let opened = vfs.tally();
    let mut tracer = Tracer::new(true);
    let mut scheme_of = BTreeMap::new();
    for (i, request) in requests.iter().enumerate() {
        let r = i as u64;
        scheme_of.insert(r, request.algo.as_str());
        let registry = Registry::new();
        let (artifact, p) = tracer.time("server.artifact.publish", None, r, || {
            Artifact::publish_with(&registry, request, true, Some(CatalogStats::default()))
        });
        let artifact = artifact?;
        publish_children(&mut tracer, p, r, request, &artifact)?;
        if let Some(partition) = &artifact.partition {
            let table = artifact.answerer.source();
            tracer.time("metrics.audit", None, r, || {
                audit_partition(table, partition, AUDIT_METRIC)
            });
        }
        // Forced here, untimed, so the snapshot span is the capture alone
        // (the server forces the audit inside its snapshot).
        let _ = artifact.audit();
        let (snap, _) = tracer.time("server.persist.snapshot", None, r, || {
            persist::snapshot(&artifact)
        });
        let (saved, s) = tracer.time("store.disk.save", None, r, || store.save(&snap));
        saved.map_err(|e| format!("replay save: {e}"))?;
        let _ = tracer.time("store.bpub.encode", s, r, || publication_to_vec(&snap));
    }
    let mut by_scheme: BTreeMap<&'static str, BTreeMap<&'static str, Vec<f64>>> = BTreeMap::new();
    for span in tracer.spans() {
        by_scheme
            .entry(scheme_of[&span.request])
            .or_default()
            .entry(span.name)
            .or_default()
            .push(span.ns() / 1e6);
    }
    let sums: Vec<f64> = tracer
        .per_request(&PUBLISH_PARTS)
        .values()
        .map(|ns| ns / 1e6)
        .collect();
    Ok(PublishReplay {
        layer_ms: tracer
            .durations()
            .iter()
            .map(|(name, d)| (*name, median(d) / 1e6))
            .collect(),
        layers_sum_ms: median(&sums),
        by_scheme: by_scheme
            .into_iter()
            .map(|(scheme, layers)| {
                (
                    scheme,
                    layers.iter().map(|(n, d)| (*n, median(d))).collect(),
                )
            })
            .collect(),
        tally: vfs.tally().since(&opened),
        saves: requests.len(),
        spans: tracer.to_json(),
    })
}

/// Re-runs, separately, the stages `Artifact::publish_with` ran for
/// `request`, each on the inputs the artifact holds.
fn publish_children(
    tracer: &mut Tracer,
    parent: Option<usize>,
    r: u64,
    request: &PublishRequest,
    artifact: &Artifact,
) -> Result<(), String> {
    let DatasetSpec::Census { rows, seed } = request.dataset else {
        return Err("publishes are census datasets".into());
    };
    tracer.time("microdata.census.generate", parent, r, || {
        census::generate(&CensusConfig::new(rows, seed))
    });
    let table = artifact.answerer.source();
    let (qi, sa) = (&artifact.qi, artifact.dataset.sa);
    let keys = if matches!(request.algo, Algo::Burel | Algo::Sabre) {
        tracer
            .time("hilbert.keys", parent, r, || hilbert_keys(table, qi))
            .0
    } else {
        Vec::new()
    };
    match request.algo {
        Algo::Burel => {
            let cfg = BurelConfig::new(request.beta).with_seed(request.seed);
            let (_, b) = tracer.time("core.burel", parent, r, || {
                burel_with_keys(table, qi, sa, &cfg, &keys)
            });
            let model = BetaLikeness::with_bound(cfg.beta, cfg.bound).map_err(|e| e.to_string())?;
            let dist = table.sa_distribution(sa);
            let (buckets, _) = tracer.time("core.bucketize", b, r, || {
                dp_partition(&dist, &model, cfg.bucket_slack.clamp(0.0, 0.99))
            });
            let sizes: Vec<u64> = buckets.iter().map(|b| b.count).collect();
            let eligibility = BetaEligibility::from_buckets(&buckets);
            let (templates, _) =
                tracer.time("core.ectree", b, r, || bi_split(&sizes, &eligibility));
            let templates = templates.ok_or("the ECTree root is not eligible")?;
            tracer.time("core.retrieve", b, r, || {
                let bucket_rows = rows_per_bucket(table, sa, &buckets);
                let mut mat = Materializer::with_seed_choice(
                    &keys,
                    &bucket_rows,
                    cfg.strategy,
                    cfg.seed_choice,
                );
                let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
                templates
                    .iter()
                    .map(|t| mat.fill(&t.counts, &mut rng))
                    .collect::<Vec<_>>()
            });
        }
        Algo::Perturb => {
            let model = BetaLikeness::new(request.beta).map_err(|e| e.to_string())?;
            let _ = tracer.time("core.perturb", parent, r, || {
                perturb(table, sa, &model, request.seed)
            });
        }
        Algo::Sabre => {
            let cfg = SabreConfig::new(request.t).with_seed(request.seed);
            let _ = tracer.time("baselines.sabre", parent, r, || {
                sabre_with_keys(table, qi, sa, &cfg, &keys)
            });
        }
        Algo::Mondrian => {
            let model = BetaLikeness::with_bound(request.beta, BoundKind::Enhanced)
                .map_err(|e| e.to_string())?;
            let constraint = LikenessConstraint::new(table, sa, model);
            let _ = tracer.time("baselines.mondrian", parent, r, || {
                mondrian(table, qi, sa, &constraint, &MondrianConfig::default())
            });
        }
        Algo::Anatomy => {
            tracer.time("baselines.anatomy", parent, r, || {
                AnatomyBaseline::publish(table, sa)
            });
        }
    }
    tracer.time("query.catalog.build", parent, r, || {
        match (&artifact.partition, artifact.answerer.perturbed_form()) {
            (Some(partition), _) => Catalog::for_partition(table, partition),
            (None, Some(published)) => {
                Catalog::for_table(table, sa).with_perturbed_overlay(published)
            }
            (None, None) => Catalog::for_table(table, sa),
        }
    });
    Ok(())
}

/// The set-up replay's result: median ms per layer.
#[derive(Debug)]
pub struct SetupReplay {
    /// Median ms per layer.
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// Every span.
    pub spans: Json,
}

/// Opens a fresh copy of the prepared data directory `times` times, and
/// loads, decodes and restores the prepared artifact each time.
pub fn replay_setup(
    prepared: &Path,
    run_dir: &Path,
    handle: &str,
    times: usize,
) -> Result<SetupReplay, String> {
    let dir = run_dir.join("replay-setup");
    let mut tracer = Tracer::new(true);
    for k in 0..times as u64 {
        copy_data_dir(prepared, &dir)?;
        let (opened, _) = tracer.time("store.disk.open", None, k, || {
            ArtifactStore::open_with(&dir, Arc::new(CountingVfs::default()))
        });
        let (store, _) = opened.map_err(|e| format!("open {}: {e}", dir.display()))?;
        let (loaded, l) = tracer.time("store.disk.load", None, k, || store.load(handle));
        let snap = loaded
            .map_err(|e| format!("load {handle}: {e}"))?
            .ok_or("the prepared artifact is not in the store")?;
        let bytes =
            std::fs::read(store.path_of(handle)).map_err(|e| format!("read {handle}: {e}"))?;
        let _ = tracer.time("store.bpub.decode", l, k, || publication_from_slice(&bytes));
        let (restored, _) = tracer.time("server.persist.restore", None, k, || {
            persist::restore_with(snap, true, Some(CatalogStats::default()))
        });
        restored?;
    }
    Ok(SetupReplay {
        layer_ms: tracer
            .durations()
            .iter()
            .map(|(name, d)| (*name, median(d) / 1e6))
            .collect(),
        spans: tracer.to_json(),
    })
}
