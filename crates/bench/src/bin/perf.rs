//! PERF — the reproducible performance harness behind `BENCH_*.json`.
//!
//! Times every BUREL pipeline stage plus the end-to-end run on the CENSUS
//! generator, at several dataset sizes and at 1 vs N worker threads
//! (N = `max(4, available_parallelism)`), and writes the measurements as a
//! JSON trajectory file every future PR appends to.
//!
//! Stages (best-of-`iters` wall clock each):
//!
//! * `hilbert_keys` — per-row Hilbert transform over the QI grid;
//! * `bucketize` — the `DPpartition` dynamic program;
//! * `ectree` — `biSplit` reallocation;
//! * `materialize` — per-bucket store build + EC filling;
//! * `audit` — the full cross-model [`audit_partition`];
//! * `naive_bayes` — the Section 7 attack;
//! * `burel_e2e` — the whole pipeline through [`burel()`].
//!
//! Since PR 3 the harness also measures *serving*: an in-process
//! `betalike-server` publishes one BUREL artifact and the harness replays a
//! count workload through 1 vs N concurrent TCP clients, recording
//! queries/sec into a `serve` section of the same JSON document.
//!
//! Since PR 4 it also measures *durability* (`store` section): per dataset
//! size, the cold publish cost (dataset generation + full BUREL + view
//! build, i.e. what a restart used to pay per artifact) versus the warm
//! path (read the `.bpub` snapshot and restore a serving-ready artifact),
//! plus raw snapshot write/read throughput in MB/s.
//!
//! Since PR 5 it also measures *conformance* (`verify` section): per
//! dataset size, the independent oracle's full verification of a BUREL
//! and a perturbation snapshot versus the (warm-registry) publish cost —
//! the price of never trusting a publication the pipeline's own auditor
//! blessed.
//!
//! Since PR 6 it also measures *resilience* (`faults` section): client-
//! observed count-query p50/p99 under a flood of more clients than
//! workers, with the bounded admission queue shedding (`overloaded`
//! refusals + deterministic client backoff) versus an effectively
//! unbounded queue; count throughput while the store is degraded
//! (read-only after injected write failures); and the post-crash
//! recovery-to-first-answer time — process start through store recovery
//! to the first served count over a freshly opened data dir.
//!
//! Since PR 7 it also measures *indexed answering* (`catalog` section):
//! per dataset size, count-query throughput through the per-artifact
//! aggregate catalog (`betalike_query::Catalog`) versus the row-scan path
//! — the same workload, bit-identical answers, different asymptotics —
//! plus an end-to-end comparison of two servers (one `--no-catalog`)
//! replaying the same count workload over TCP.
//!
//! Since PR 8 the serve section also records client-observed latency
//! quantiles (`p50_ms`/`p99_ms`/`p999_ms`, from a log-bucketed
//! `betalike_obs::Histogram` shared across the client threads) — the
//! single-client `qps` field is kept for trajectory continuity but
//! deprecated in favour of them — and an `obs` section measures the
//! cost of observability itself: the same warm count workload against
//! two in-process servers, timings on vs `obs: false`, with the
//! fractional overhead asserted ≤ 5% by the schema checker.
//!
//! Since PR 9 the serve section also carries `pipeline` points: one
//! client pipelining batches of depth 1 and 32, recording batch-amortized
//! per-request latency quantiles. Documents up to BENCH_9.json also hold
//! `event` points from a second server core that no longer exists; the
//! schema checker still accepts them.
//!
//! ```text
//! cargo run --release -p betalike-bench --bin perf -- --rows 200000
//! cargo run --release -p betalike-bench --bin perf -- smoke --out perf-smoke.json
//! cargo run --release -p betalike-bench --bin perf -- serve
//! cargo run --release -p betalike-bench --bin perf -- catalog
//! cargo run --release -p betalike-bench --bin perf -- check --file perf-smoke.json
//! ```
//!
//! Positional sub-modes:
//!
//! * `smoke` — one small dataset, one iteration, a small serve workload:
//!   what CI runs on every push;
//! * `serve` — only the serve-throughput section (quick iteration on the
//!   server);
//! * `catalog` — only the catalog-vs-scan section (quick iteration on the
//!   query planner; prints, never writes);
//! * `check` — parse `--file` and validate it against the trajectory
//!   schema (the checked-in schema *is* this binary's `check_schema`);
//!   non-zero exit on any violation, so CI catches a malformed artifact
//!   before uploading it.
//!
//! `--rows N` replaces the default 10k/50k/200k grid with the single size
//! N; `--out FILE` overrides the default `BENCH_9.json`.

use betalike::bucketize::dp_partition;
use betalike::burel::rows_per_bucket;
use betalike::ectree::{bi_split, BetaEligibility};
use betalike::model::BetaLikeness;
use betalike::retrieve::{hilbert_keys, FillStrategy, Materializer, SeedChoice};
use betalike::{burel, BurelConfig};
use betalike_attacks::naive_bayes::naive_bayes_attack;
use betalike_bench::algos::METRIC;
use betalike_bench::cli::ExpArgs;
use betalike_bench::tablefmt::print_table;
use betalike_bench::{qi_set, secs, time_it, SA};
use betalike_metrics::audit::audit_partition;
use betalike_microdata::census::{self, CensusConfig};
use betalike_microdata::json::Json;
use betalike_microdata::{RowId, Table};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

const BETA: f64 = 4.0;

/// One measured cell of the grid.
struct Measurement {
    stage: &'static str,
    rows: usize,
    threads: usize,
    secs: f64,
}

fn main() {
    let args = ExpArgs::parse();
    let sub = args.sub.as_deref().unwrap_or("");
    if sub == "check" {
        run_check(&args);
        return;
    }
    let smoke = sub == "smoke";
    let serve_only = sub == "serve";
    let catalog_only = sub == "catalog";
    let explicit_out = args.extra.contains_key("out");
    let out_path = args
        .extra
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_9.json".into());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // On a single-core host 4 threads still exercise the pool (and honestly
    // record the oversubscription cost); on real hardware N = all cores.
    let parallel_threads = cpus.max(4);
    // Flag *presence* (not value) selects single-size mode, so an explicit
    // `--rows 100000` equal to the ExpArgs default still replaces the grid.
    let rows_flag_passed = std::env::args().any(|a| a == "--rows");
    let (row_grid, iters): (Vec<usize>, usize) = if smoke {
        (vec![2_000], 1)
    } else if rows_flag_passed {
        (vec![args.rows], 3)
    } else {
        (vec![10_000, 50_000, 200_000], 3)
    };
    let qi = qi_set(args.qi);
    println!(
        "perf harness: CENSUS, beta = {BETA}, QI = {}, threads 1 vs {parallel_threads} \
         ({cpus} cpu(s) visible), best of {iters}\n",
        qi.len()
    );

    if catalog_only {
        let serve_rows = row_grid.iter().copied().max().unwrap_or(50_000).min(50_000);
        let catalog = measure_catalog(&row_grid, 300, iters, &qi, serve_rows, 300);
        print_catalog(&catalog);
        println!("(catalog mode prints only; run the full harness to write a trajectory document)");
        return;
    }

    let mut measurements: Vec<Measurement> = Vec::new();
    if !serve_only {
        for &rows in &row_grid {
            let table = census::generate(&CensusConfig::new(rows, args.seed));
            for &threads in &[1usize, parallel_threads] {
                mini_rayon::set_threads(threads);
                measure_stages(&table, &qi, rows, threads, iters, &mut measurements);
            }
        }
        mini_rayon::set_threads(0);
        print_measurements(&measurements, parallel_threads);
    }

    let (serve_rows, serve_queries) = if smoke { (2_000, 100) } else { (50_000, 1_000) };
    let serve = measure_serve(serve_rows, serve_queries, &[1, parallel_threads]);
    print_serve(&serve);

    let (store, verify, faults, catalog, obs) = if serve_only {
        (Vec::new(), Vec::new(), None, None, None)
    } else {
        let store = measure_store(&row_grid, iters);
        print_store(&store);
        let verify = measure_verify(&row_grid, iters);
        print_verify(&verify);
        let (faults_rows, faults_queries, flood_clients) = if smoke {
            (2_000, 60, 6)
        } else {
            (10_000, 300, 8)
        };
        let faults = measure_faults(faults_rows, faults_queries, flood_clients);
        print_faults(&faults);
        let (catalog_queries, catalog_serve_rows, catalog_serve_queries) = if smoke {
            (100, 2_000, 100)
        } else {
            (300, 50_000, 300)
        };
        let catalog = measure_catalog(
            &row_grid,
            catalog_queries,
            iters,
            &qi,
            catalog_serve_rows,
            catalog_serve_queries,
        );
        print_catalog(&catalog);
        // Even the smoke pass replays a decent workload: the overhead is
        // a ratio of two ~millisecond measurements, so a small numerator
        // would be noise-dominated against the 5% budget.
        let (obs_rows, obs_queries, obs_passes) = if smoke {
            (2_000, 400, 5)
        } else {
            (10_000, 400, 5)
        };
        let obs = measure_obs_overhead(obs_rows, obs_queries, obs_passes);
        print_obs_overhead(&obs);
        (store, verify, Some(faults), Some(catalog), Some(obs))
    };

    if serve_only && !explicit_out {
        // Quick-iteration mode: a default write would clobber the committed
        // trajectory with a document whose `measurements` array is empty.
        println!("\n(serve mode prints only; pass --out FILE to write a trajectory document)");
        return;
    }
    let doc = to_json(
        &measurements,
        &serve,
        &store,
        &verify,
        faults.as_ref(),
        catalog.as_ref(),
        obs.as_ref(),
        cpus,
        parallel_threads,
        iters,
        smoke,
    );
    if let Err(e) = check_schema(&doc) {
        // The harness must never write a document its own checker rejects.
        eprintln!("internal error: emitted document fails the schema: {e}");
        std::process::exit(1);
    }
    std::fs::write(&out_path, doc.pretty() + "\n").expect("write perf JSON");
    println!("\nwrote {out_path}");
}

/// `perf -- check --file F`: validate a trajectory document against the
/// checked-in schema.
fn run_check(args: &ExpArgs) {
    let Some(file) = args.extra.get("file") else {
        eprintln!("check needs --file FILE");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("read {file}: {e}");
        std::process::exit(1);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{file}: not JSON: {e}");
        std::process::exit(1);
    });
    match check_schema(&doc) {
        Ok(summary) => println!("{file}: schema OK ({summary})"),
        Err(e) => {
            eprintln!("{file}: schema check failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The trajectory-document schema, as executable checks. CI runs this over
/// the freshly-emitted smoke artifact; the writer runs it over every
/// document before writing.
fn check_schema(doc: &Json) -> Result<String, String> {
    let num = |d: &Json, key: &str| {
        d.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing/ill-typed number `{key}`"))
    };
    let text = |d: &Json, key: &str| {
        d.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing/ill-typed string `{key}`"))
    };
    let pr = num(doc, "pr")?;
    text(doc, "harness")?;
    text(doc, "dataset")?;
    num(doc, "beta")?;
    num(doc, "cpus_visible")?;
    num(doc, "parallel_threads")?;
    num(doc, "iters")?;
    doc.get("smoke")
        .and_then(Json::as_bool)
        .ok_or("missing/ill-typed bool `smoke`")?;
    let measurements = doc
        .get("measurements")
        .and_then(Json::as_arr)
        .ok_or("missing array `measurements`")?;
    for (i, m) in measurements.iter().enumerate() {
        let ctx = |e: String| format!("measurements[{i}]: {e}");
        text(m, "stage").map_err(ctx)?;
        num(m, "rows").map_err(ctx)?;
        num(m, "threads").map_err(ctx)?;
        let secs = num(m, "secs").map_err(ctx)?;
        if secs.is_nan() || secs < 0.0 {
            return Err(format!("measurements[{i}]: secs = {secs} is not >= 0"));
        }
    }
    // The `serve` section exists from PR 3 on; earlier committed
    // trajectory files (BENCH_2.json) must still validate.
    let serve = match doc.get("serve") {
        Some(serve) => serve,
        None if pr < 3.0 => {
            return Ok(format!(
                "{} stage measurements, pre-PR3 document without a serve section",
                measurements.len()
            ))
        }
        None => return Err("missing object `serve` (required from pr 3 on)".into()),
    };
    num(serve, "dataset_rows").map_err(|e| format!("serve: {e}"))?;
    num(serve, "workload_queries").map_err(|e| format!("serve: {e}"))?;
    text(serve, "algo").map_err(|e| format!("serve: {e}"))?;
    let clients = serve
        .get("clients")
        .and_then(Json::as_arr)
        .ok_or("serve: missing array `clients`")?;
    if clients.is_empty() {
        return Err("serve: `clients` must not be empty".into());
    }
    for (i, c) in clients.iter().enumerate() {
        let ctx = |e: String| format!("serve.clients[{i}]: {e}");
        num(c, "clients").map_err(ctx)?;
        num(c, "total_queries").map_err(ctx)?;
        num(c, "secs").map_err(ctx)?;
        let qps = num(c, "qps").map_err(ctx)?;
        if !qps.is_finite() || qps <= 0.0 {
            return Err(format!("serve.clients[{i}]: qps = {qps} is not > 0"));
        }
        // Latency quantiles exist from PR 8 on (`qps` is kept but
        // deprecated); earlier committed trajectory files must validate.
        if pr >= 8.0 {
            let p50 = num(c, "p50_ms").map_err(ctx)?;
            let p99 = num(c, "p99_ms").map_err(ctx)?;
            let p999 = num(c, "p999_ms").map_err(ctx)?;
            if !p50.is_finite() || p50 <= 0.0 || p50 > p99 || p99 > p999 {
                return Err(format!(
                    "serve.clients[{i}]: p50_ms = {p50} / p99_ms = {p99} / p999_ms = {p999} \
                     are not ordered positive latencies"
                ));
            }
        }
    }
    // Pipelined serve points exist from PR 9 on. `event` points were
    // measured against a server core that has since been deleted; they
    // stay valid so committed trajectory files keep passing.
    if pr >= 9.0 {
        let pipeline = serve
            .get("pipeline")
            .and_then(Json::as_arr)
            .ok_or("serve: missing array `pipeline` (required from pr 9 on)")?;
        for (i, p) in pipeline.iter().enumerate() {
            let ctx = |e: String| format!("serve.pipeline[{i}]: {e}");
            let mode = text(p, "mode").map_err(ctx)?;
            if mode != "threaded" && mode != "event" {
                return Err(format!(
                    "serve.pipeline[{i}]: mode `{mode}` is neither `threaded` nor `event`"
                ));
            }
            num(p, "depth").map_err(ctx)?;
            num(p, "total_queries").map_err(ctx)?;
            num(p, "secs").map_err(ctx)?;
            let qps = num(p, "qps").map_err(ctx)?;
            if !qps.is_finite() || qps <= 0.0 {
                return Err(format!("serve.pipeline[{i}]: qps = {qps} is not > 0"));
            }
            let p50 = num(p, "p50_ms").map_err(ctx)?;
            let p99 = num(p, "p99_ms").map_err(ctx)?;
            let p999 = num(p, "p999_ms").map_err(ctx)?;
            if !p50.is_finite() || p50 <= 0.0 || p50 > p99 || p99 > p999 {
                return Err(format!(
                    "serve.pipeline[{i}]: p50_ms = {p50} / p99_ms = {p99} / p999_ms = {p999} \
                     are not ordered positive latencies"
                ));
            }
        }
    }
    // The `store` section exists from PR 4 on; earlier committed
    // trajectory files (BENCH_2/BENCH_3) must still validate.
    let store = match doc.get("store") {
        Some(store) => store,
        None if pr < 4.0 => {
            return Ok(format!(
                "{} stage measurements, {} serve points, pre-PR4 document without a store section",
                measurements.len(),
                clients.len()
            ))
        }
        None => return Err("missing object `store` (required from pr 4 on)".into()),
    };
    let points = store
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("store: missing array `points`")?;
    for (i, p) in points.iter().enumerate() {
        let ctx = |e: String| format!("store.points[{i}]: {e}");
        num(p, "rows").map_err(ctx)?;
        num(p, "bytes").map_err(ctx)?;
        for key in [
            "write_mbps",
            "read_mbps",
            "cold_publish_secs",
            "warm_load_secs",
        ] {
            let v = num(p, key).map_err(ctx)?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("store.points[{i}]: {key} = {v} is not > 0"));
            }
        }
    }
    // The `verify` section exists from PR 5 on; earlier committed
    // trajectory files (BENCH_2/3/4) must still validate.
    let verify = match doc.get("verify") {
        Some(verify) => verify,
        None if pr < 5.0 => {
            return Ok(format!(
                "{} stage measurements, {} serve points, {} store points, \
                 pre-PR5 document without a verify section",
                measurements.len(),
                clients.len(),
                points.len()
            ))
        }
        None => return Err("missing object `verify` (required from pr 5 on)".into()),
    };
    let verify_points = verify
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("verify: missing array `points`")?;
    for (i, p) in verify_points.iter().enumerate() {
        let ctx = |e: String| format!("verify.points[{i}]: {e}");
        num(p, "rows").map_err(ctx)?;
        text(p, "algo").map_err(ctx)?;
        for key in ["publish_secs", "verify_secs"] {
            let v = num(p, key).map_err(ctx)?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("verify.points[{i}]: {key} = {v} is not > 0"));
            }
        }
    }
    // The `faults` section exists from PR 6 on; earlier committed
    // trajectory files (BENCH_2..5) must still validate.
    let faults = match doc.get("faults") {
        Some(faults) => faults,
        None if pr < 6.0 => {
            return Ok(format!(
                "{} stage measurements, {} serve points, {} store points, {} verify points, \
                 pre-PR6 document without a faults section",
                measurements.len(),
                clients.len(),
                points.len(),
                verify_points.len()
            ))
        }
        None => return Err("missing object `faults` (required from pr 6 on)".into()),
    };
    let overload = faults
        .get("overload")
        .and_then(Json::as_arr)
        .ok_or("faults: missing array `overload`")?;
    // A serve-only document (empty measurements) may skip the faults
    // measurements; a full or smoke run must carry them.
    if overload.is_empty() && !measurements.is_empty() {
        return Err("faults: `overload` must not be empty".into());
    }
    for (i, p) in overload.iter().enumerate() {
        let ctx = |e: String| format!("faults.overload[{i}]: {e}");
        p.get("shedding")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("faults.overload[{i}]: missing/ill-typed bool `shedding`"))?;
        num(p, "clients").map_err(ctx)?;
        num(p, "queue").map_err(ctx)?;
        num(p, "total_queries").map_err(ctx)?;
        let sheds = num(p, "sheds").map_err(ctx)?;
        if sheds < 0.0 {
            return Err(format!("faults.overload[{i}]: sheds = {sheds} is negative"));
        }
        let p50 = num(p, "p50_ms").map_err(ctx)?;
        let p99 = num(p, "p99_ms").map_err(ctx)?;
        if !p50.is_finite() || p50 <= 0.0 || !p99.is_finite() || p99 < p50 {
            return Err(format!(
                "faults.overload[{i}]: p50_ms = {p50} / p99_ms = {p99} are not sane latencies"
            ));
        }
    }
    if !overload.is_empty() {
        let degraded = faults
            .get("degraded")
            .ok_or("faults: missing object `degraded`")?;
        num(degraded, "queries").map_err(|e| format!("faults.degraded: {e}"))?;
        let qps = num(degraded, "count_qps").map_err(|e| format!("faults.degraded: {e}"))?;
        if !qps.is_finite() || qps <= 0.0 {
            return Err(format!("faults.degraded: count_qps = {qps} is not > 0"));
        }
        let recovery = faults
            .get("recovery")
            .ok_or("faults: missing object `recovery`")?;
        num(recovery, "rows").map_err(|e| format!("faults.recovery: {e}"))?;
        let secs = num(recovery, "secs").map_err(|e| format!("faults.recovery: {e}"))?;
        if !secs.is_finite() || secs <= 0.0 {
            return Err(format!("faults.recovery: secs = {secs} is not > 0"));
        }
    }
    // The `catalog` section exists from PR 7 on; earlier committed
    // trajectory files (BENCH_2..6) must still validate.
    let catalog = match doc.get("catalog") {
        Some(catalog) => catalog,
        None if pr < 7.0 => {
            return Ok(format!(
                "{} stage measurements, {} serve points, {} store points, {} verify points, \
                 {} overload points, pre-PR7 document without a catalog section",
                measurements.len(),
                clients.len(),
                points.len(),
                verify_points.len(),
                overload.len()
            ))
        }
        None => return Err("missing object `catalog` (required from pr 7 on)".into()),
    };
    num(catalog, "workload_queries").map_err(|e| format!("catalog: {e}"))?;
    let catalog_points = catalog
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("catalog: missing array `points`")?;
    // A serve-only document (empty measurements) may skip the catalog
    // measurements; a full or smoke run must carry them.
    if catalog_points.is_empty() && !measurements.is_empty() {
        return Err("catalog: `points` must not be empty".into());
    }
    for (i, p) in catalog_points.iter().enumerate() {
        let ctx = |e: String| format!("catalog.points[{i}]: {e}");
        num(p, "rows").map_err(ctx)?;
        text(p, "algo").map_err(ctx)?;
        for key in ["scan_qps", "catalog_qps"] {
            let v = num(p, key).map_err(ctx)?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("catalog.points[{i}]: {key} = {v} is not > 0"));
            }
        }
    }
    if !catalog_points.is_empty() {
        let serve = catalog
            .get("serve")
            .ok_or("catalog: missing object `serve`")?;
        num(serve, "rows").map_err(|e| format!("catalog.serve: {e}"))?;
        num(serve, "queries").map_err(|e| format!("catalog.serve: {e}"))?;
        for key in ["scan_qps", "catalog_qps"] {
            let v = num(serve, key).map_err(|e| format!("catalog.serve: {e}"))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("catalog.serve: {key} = {v} is not > 0"));
            }
        }
    }
    // The `obs` overhead section exists from PR 8 on; earlier committed
    // trajectory files (BENCH_2..7) must still validate, and a serve-only
    // document (empty measurements) may skip the measurement.
    match doc.get("obs") {
        Some(obs) => {
            for key in ["rows", "queries", "passes"] {
                num(obs, key).map_err(|e| format!("obs: {e}"))?;
            }
            for key in ["on_secs", "off_secs"] {
                let v = num(obs, key).map_err(|e| format!("obs: {e}"))?;
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!("obs: {key} = {v} is not > 0"));
                }
            }
            let frac = num(obs, "overhead_frac").map_err(|e| format!("obs: {e}"))?;
            // The observability contract itself: timings must cost less
            // than 5% of the serving path (DESIGN.md §14).
            if !frac.is_finite() || !(0.0..=0.05).contains(&frac) {
                return Err(format!(
                    "obs: overhead_frac = {frac} is outside the 5% observability budget"
                ));
            }
        }
        None if pr < 8.0 || measurements.is_empty() => {}
        None => return Err("missing object `obs` (required from pr 8 on)".into()),
    }
    Ok(format!(
        "{} stage measurements, {} serve points, {} store points, {} verify points, \
         {} overload points, {} catalog points",
        measurements.len(),
        clients.len(),
        points.len(),
        verify_points.len(),
        overload.len(),
        catalog_points.len()
    ))
}

/// Runs `f` `iters` times and returns the best wall-clock duration.
fn best_of<T>(iters: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let (_, d) = time_it(&mut f);
        best = best.min(d);
    }
    best
}

/// Times every stage at the current thread count.
fn measure_stages(
    table: &Table,
    qi: &[usize],
    rows: usize,
    threads: usize,
    iters: usize,
    out: &mut Vec<Measurement>,
) {
    let mut push = |stage: &'static str, d: Duration| {
        out.push(Measurement {
            stage,
            rows,
            threads,
            secs: d.as_secs_f64(),
        });
    };

    // Stage inputs, computed once (the stages themselves are timed).
    let model = BetaLikeness::new(BETA).expect("valid beta");
    let dist = table.sa_distribution(SA);
    let keys = hilbert_keys(table, qi);
    let buckets = dp_partition(&dist, &model, 0.25);
    let sizes: Vec<u64> = buckets.iter().map(|b| b.count).collect();
    let eligibility = BetaEligibility::from_buckets(&buckets);
    let templates = bi_split(&sizes, &eligibility).expect("root eligible");
    let bucket_rows = rows_per_bucket(table, SA, &buckets);
    let partition = burel(table, qi, SA, &BurelConfig::new(BETA).with_seed(42)).expect("BUREL");

    push("hilbert_keys", best_of(iters, || hilbert_keys(table, qi)));
    push(
        "bucketize",
        best_of(iters, || dp_partition(&dist, &model, 0.25)),
    );
    push(
        "ectree",
        best_of(iters, || bi_split(&sizes, &eligibility).expect("eligible")),
    );
    push(
        "materialize",
        best_of(iters, || {
            let mut mat = Materializer::with_seed_choice(
                &keys,
                &bucket_rows,
                FillStrategy::HilbertNearest,
                SeedChoice::Random,
            );
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            let ecs: Vec<Vec<RowId>> = templates
                .iter()
                .map(|t| mat.fill(&t.counts, &mut rng))
                .collect();
            ecs
        }),
    );
    push(
        "audit",
        best_of(iters, || audit_partition(table, &partition, METRIC)),
    );
    push(
        "naive_bayes",
        best_of(iters, || naive_bayes_attack(table, &partition)),
    );
    push(
        "burel_e2e",
        best_of(iters, || {
            burel(table, qi, SA, &BurelConfig::new(BETA).with_seed(42)).expect("BUREL")
        }),
    );
}

/// One serve-throughput point: `clients` concurrent TCP clients each
/// replaying the workload once.
struct ServePoint {
    clients: usize,
    total_queries: usize,
    secs: f64,
    /// Aggregate throughput. Deprecated since PR 8 (a single-client rate
    /// says little once latency quantiles are recorded); kept so older
    /// trajectory tooling keeps parsing the document.
    qps: f64,
    /// Client-observed per-request latency quantiles, merged across all
    /// client threads through one log-bucketed obs histogram.
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
}

/// One pipelined serving point: a single client writing `depth` requests
/// per batch before reading any response. `p*_ms` are batch-amortized
/// per-request latencies (`batch_elapsed / batch_len`), the quantity
/// pipelining improves.
struct PipelinePoint {
    depth: usize,
    total_queries: usize,
    secs: f64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
}

/// The serve-throughput section of the trajectory document.
struct ServeMeasurement {
    dataset_rows: usize,
    workload_queries: usize,
    points: Vec<ServePoint>,
    /// Pipelined points at depth ∈ {1, 32} (PR 9 on).
    pipeline: Vec<PipelinePoint>,
}

/// Publishes one BUREL artifact on an in-process `betalike-server` and
/// measures count-query throughput at each client count. Every response is
/// checked for `ok`, so a served error would fail the harness rather than
/// inflate the rate.
fn measure_serve(rows: usize, num_queries: usize, client_counts: &[usize]) -> ServeMeasurement {
    use betalike_server::{
        serve, Algo, Client, CountRequest, DatasetSpec, PublishRequest, ServerConfig,
    };

    let max_clients = client_counts.iter().copied().max().unwrap_or(1);
    let server = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: max_clients + 1,
        preload: None,
        data_dir: None,
        ..Default::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.addr();
    let spec = DatasetSpec::Census { rows, seed: 42 };
    let request = PublishRequest::new(spec, Algo::Burel);
    let handle = {
        let mut client = Client::connect(addr).expect("connect");
        client.publish(&request).expect("publish").handle
    };

    // The request lines every client replays (exact=false: measure the
    // serving path, not the ground-truth scan).
    let table = census::generate(&CensusConfig::new(rows, 42));
    let queries = betalike_query::generate_workload(
        &table,
        &betalike_query::WorkloadConfig {
            qi_pool: (0..3).collect(),
            sa: SA,
            lambda: 2,
            theta: 0.1,
            num_queries,
            seed: 7,
        },
    );
    let lines: Vec<String> = queries
        .iter()
        .map(|q| {
            CountRequest {
                handle: handle.clone(),
                qi_preds: q.qi_preds.clone(),
                sa_lo: q.sa_pred.lo,
                sa_hi: q.sa_pred.hi,
                exact: false,
            }
            .to_json()
            .compact()
        })
        .collect();

    let mut points = Vec::new();
    for &clients in client_counts {
        // One histogram shared by every client thread: atomic buckets, so
        // recording from N threads needs no locking and the quantiles are
        // the merged client-observed distribution.
        let latency = betalike_obs::Histogram::new();
        let (_, elapsed) = betalike_bench::time_it(|| {
            // betalike-lint: allow(D3, reason = "perf harness simulates N independent TCP clients; the worker pool cannot model separate connections")
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|_| {
                        let lines = &lines;
                        let latency = &latency;
                        s.spawn(move || {
                            let mut client = Client::connect(addr).expect("connect");
                            for line in lines {
                                let t0 = std::time::Instant::now();
                                let response = client.call_raw(line).expect("count");
                                latency.record(t0.elapsed().as_nanos() as u64);
                                assert!(
                                    response.contains("\"ok\":true"),
                                    "served error during perf: {response}"
                                );
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("client thread");
                }
            });
        });
        let total = clients * lines.len();
        let secs = elapsed.as_secs_f64();
        let (p50, p99, p999) = latency.snapshot().p50_p99_p999();
        points.push(ServePoint {
            clients,
            total_queries: total,
            secs,
            qps: total as f64 / secs.max(1e-12),
            p50_ms: p50 as f64 / 1e6,
            p99_ms: p99 as f64 / 1e6,
            p999_ms: p999 as f64 / 1e6,
        });
    }
    // Pipelined points: one client, batches of `depth` requests written
    // before any response is read, batch-amortized per-request latency.
    let measure_pipelined = |depth: usize| {
        let latency = betalike_obs::Histogram::new();
        let mut client = Client::connect(addr).expect("connect pipelined");
        let (_, elapsed) = betalike_bench::time_it(|| {
            for batch in lines.chunks(depth) {
                let t0 = std::time::Instant::now();
                let responses = client.pipeline_raw(batch).expect("pipelined batch");
                let amortized = t0.elapsed().as_nanos() as u64 / batch.len() as u64;
                for response in &responses {
                    latency.record(amortized);
                    assert!(
                        response.contains("\"ok\":true"),
                        "served error during pipelined perf: {response}"
                    );
                }
            }
        });
        let secs = elapsed.as_secs_f64();
        let (p50, p99, p999) = latency.snapshot().p50_p99_p999();
        PipelinePoint {
            depth,
            total_queries: lines.len(),
            secs,
            qps: lines.len() as f64 / secs.max(1e-12),
            p50_ms: p50 as f64 / 1e6,
            p99_ms: p99 as f64 / 1e6,
            p999_ms: p999 as f64 / 1e6,
        }
    };
    let pipeline = [1, 32].map(measure_pipelined).into();
    server.shutdown_and_join();

    ServeMeasurement {
        dataset_rows: rows,
        workload_queries: num_queries,
        points,
        pipeline,
    }
}

/// The `obs` section: what request timing itself costs. Criterion for the
/// whole observability layer — DESIGN.md §14 promises that per-request
/// timings stay under 5% of the serving path, and the schema checker
/// holds every emitted document to it.
struct ObsOverhead {
    rows: usize,
    queries: usize,
    passes: usize,
    /// Best-pass wall clock replaying the workload with timings on.
    on_secs: f64,
    /// Best-pass wall clock against an `obs: false` server.
    off_secs: f64,
    /// `max(0, (on - off) / off)` over the best passes.
    overhead_frac: f64,
}

/// Replays one warm count workload against two in-process servers — one
/// with request timings, one `obs: false` — and reports the fractional
/// wall-clock cost of the timed path. Both servers run with the result
/// cache disabled so every request pays the full lookup + catalog answer
/// (a cache-hit replay would shrink the denominator and overstate the
/// overhead), and each gets one untimed warm-up replay first. Passes
/// alternate on/off and the best pass per server is compared, so a
/// background hiccup lands on one pass, not one server.
fn measure_obs_overhead(rows: usize, num_queries: usize, passes: usize) -> ObsOverhead {
    use betalike_server::{
        serve, Algo, Client, CountRequest, DatasetSpec, PublishRequest, ServerConfig,
    };

    let setup = |obs: bool| {
        let server = serve(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            result_cache: 0,
            obs,
            ..Default::default()
        })
        .expect("bind an ephemeral port");
        let addr = server.addr();
        let spec = DatasetSpec::Census { rows, seed: 42 };
        let handle = {
            let mut client = Client::connect(addr).expect("connect");
            client
                .publish(&PublishRequest::new(spec, Algo::Burel))
                .expect("publish")
                .handle
        };
        (server, addr, handle)
    };
    let (server_on, addr_on, handle_on) = setup(true);
    let (server_off, addr_off, handle_off) = setup(false);

    let table = census::generate(&CensusConfig::new(rows, 42));
    let workload = betalike_query::generate_workload(
        &table,
        &betalike_query::WorkloadConfig {
            qi_pool: (0..3).collect(),
            sa: SA,
            lambda: 2,
            theta: 0.1,
            num_queries,
            seed: 7,
        },
    );
    let lines_for = |handle: &str| -> Vec<String> {
        workload
            .iter()
            .map(|q| {
                CountRequest {
                    handle: handle.to_string(),
                    qi_preds: q.qi_preds.clone(),
                    sa_lo: q.sa_pred.lo,
                    sa_hi: q.sa_pred.hi,
                    exact: false,
                }
                .to_json()
                .compact()
            })
            .collect()
    };
    let lines_on = lines_for(&handle_on);
    let lines_off = lines_for(&handle_off);

    let mut client_on = Client::connect(addr_on).expect("connect");
    let mut client_off = Client::connect(addr_off).expect("connect");
    let replay = |client: &mut Client, lines: &[String]| {
        for line in lines {
            let response = client.call_raw(line).expect("count");
            assert!(
                response.contains("\"ok\":true"),
                "served error during obs overhead run: {response}"
            );
        }
    };
    // Warm-up: fault in the artifact and JIT-warm both connections.
    replay(&mut client_on, &lines_on);
    replay(&mut client_off, &lines_off);

    let (mut on_secs, mut off_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..passes {
        let (_, on) = time_it(|| replay(&mut client_on, &lines_on));
        let (_, off) = time_it(|| replay(&mut client_off, &lines_off));
        on_secs = on_secs.min(on.as_secs_f64());
        off_secs = off_secs.min(off.as_secs_f64());
    }
    server_on.shutdown_and_join();
    server_off.shutdown_and_join();
    ObsOverhead {
        rows,
        queries: num_queries,
        passes,
        on_secs,
        off_secs,
        overhead_frac: ((on_secs - off_secs) / off_secs.max(1e-12)).max(0.0),
    }
}

/// One measured durability point: snapshot size and throughput plus the
/// cold-vs-warm publish comparison at one dataset size.
struct StorePoint {
    rows: usize,
    bytes: u64,
    write_mbps: f64,
    read_mbps: f64,
    cold_publish_secs: f64,
    warm_load_secs: f64,
}

/// Measures the `store` section: per dataset size, the cold artifact cost
/// (generate + BUREL + view build, from an empty registry — what every
/// restart used to pay) versus the warm path (`ArtifactStore::load` +
/// `persist::restore`), and raw snapshot write/read MB/s.
fn measure_store(row_grid: &[usize], iters: usize) -> Vec<StorePoint> {
    use betalike_server::artifact::Artifact;
    use betalike_server::{persist, Algo, DatasetSpec, PublishRequest, Registry};
    use betalike_store::ArtifactStore;

    let mut points = Vec::new();
    for &rows in row_grid {
        let request = PublishRequest::new(DatasetSpec::Census { rows, seed: 42 }, Algo::Burel);
        // Cold: a fresh registry per run, so dataset generation and the
        // Hilbert transform are paid like on a cold restart.
        let cold = best_of(iters, || {
            Artifact::publish(&Registry::new(), &request).expect("publish")
        });

        let registry = Registry::new();
        let artifact = Artifact::publish(&registry, &request).expect("publish");
        let snap = persist::snapshot(&artifact);
        let dir =
            std::env::temp_dir().join(format!("betalike-perf-store-{}-{rows}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = ArtifactStore::open(&dir).expect("open data dir");
        let write = best_of(iters, || store.save(&snap).expect("save"));
        let entry = store.entry(&snap.params.handle).expect("saved");
        let read = best_of(iters, || {
            store
                .load(&snap.params.handle)
                .expect("load")
                .expect("stored")
        });
        let warm = best_of(iters, || {
            let loaded = store
                .load(&snap.params.handle)
                .expect("load")
                .expect("stored");
            persist::restore(loaded).expect("restore")
        });
        let _ = std::fs::remove_dir_all(&dir);

        let mb = entry.bytes as f64 / 1e6;
        points.push(StorePoint {
            rows,
            bytes: entry.bytes,
            write_mbps: mb / write.as_secs_f64().max(1e-12),
            read_mbps: mb / read.as_secs_f64().max(1e-12),
            cold_publish_secs: cold.as_secs_f64(),
            warm_load_secs: warm.as_secs_f64(),
        });
    }
    points
}

/// One measured conformance point: the independent oracle's verification
/// time versus the (warm-registry) publish time, per dataset size and
/// scheme.
struct VerifyPoint {
    rows: usize,
    algo: &'static str,
    publish_secs: f64,
    verify_secs: f64,
}

/// Measures the `verify` section: per dataset size, snapshot a BUREL and a
/// perturbation publication the way the durable store would and time the
/// independent conformance oracle's full verification of each, alongside
/// the warm publish cost for scale.
fn measure_verify(row_grid: &[usize], iters: usize) -> Vec<VerifyPoint> {
    use betalike_server::artifact::Artifact;
    use betalike_server::{persist, Algo, DatasetSpec, PublishRequest, Registry};

    let mut points = Vec::new();
    for &rows in row_grid {
        let registry = Registry::new();
        for algo in [Algo::Burel, Algo::Perturb] {
            let request = PublishRequest::new(DatasetSpec::Census { rows, seed: 42 }, algo);
            // Warm the dataset/geometry caches, then time the pipeline and
            // the oracle on equal footing.
            let artifact = Artifact::publish(&registry, &request).expect("publish");
            let publish = best_of(iters, || {
                Artifact::publish(&registry, &request).expect("publish")
            });
            let snap = persist::snapshot(&artifact);
            let verify = best_of(iters, || {
                let report = betalike_conformance::verify_snapshot(&snap);
                assert!(
                    report.pass(),
                    "perf artifact must verify: {}",
                    report.summary()
                );
                report
            });
            points.push(VerifyPoint {
                rows,
                algo: algo.as_str(),
                publish_secs: publish.as_secs_f64(),
                verify_secs: verify.as_secs_f64(),
            });
        }
    }
    points
}

/// One overload point: client-observed count latency with `clients`
/// concurrent connections against a 2-worker server, with or without the
/// bounded admission queue doing real shedding.
struct OverloadPoint {
    shedding: bool,
    clients: usize,
    queue: usize,
    /// Server-side shed counter (from `health`) after the flood.
    sheds: u64,
    total_queries: usize,
    p50_ms: f64,
    p99_ms: f64,
}

/// The `faults` section of the trajectory document.
struct FaultsMeasurement {
    overload: Vec<OverloadPoint>,
    degraded_queries: usize,
    /// Count throughput against a server whose store is degraded
    /// (read-only): reads must not pay for the broken disk.
    degraded_count_qps: f64,
    recovery_rows: usize,
    /// Process start → store recovery → first served count, over a data
    /// dir left behind by a simulated mid-save crash.
    recovery_secs: f64,
}

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Measures the `faults` section: overload latency with and without
/// shedding, degraded-store read throughput, and post-crash recovery to
/// the first served answer.
fn measure_faults(rows: usize, num_queries: usize, flood_clients: usize) -> FaultsMeasurement {
    use betalike_faults::{ChaosVfs, FaultPlan, RetryPolicy};
    use betalike_server::artifact::Artifact;
    use betalike_server::{
        persist, serve, Algo, Client, CountRequest, DatasetSpec, PublishRequest, Registry,
        ServerConfig,
    };
    use betalike_store::disk::DEGRADED_AFTER;
    use betalike_store::ArtifactStore;
    use std::sync::Arc;
    use std::time::Instant;

    let spec = DatasetSpec::Census { rows, seed: 42 };
    let request = PublishRequest::new(spec.clone(), Algo::Burel);
    let table = census::generate(&CensusConfig::new(rows, 42));
    let workload = betalike_query::generate_workload(
        &table,
        &betalike_query::WorkloadConfig {
            qi_pool: (0..3).collect(),
            sa: SA,
            lambda: 2,
            theta: 0.1,
            num_queries,
            seed: 7,
        },
    );
    let lines_for = |handle: &str| -> Vec<String> {
        workload
            .iter()
            .map(|q| {
                CountRequest {
                    handle: handle.to_string(),
                    qi_preds: q.qi_preds.clone(),
                    sa_lo: q.sa_pred.lo,
                    sa_hi: q.sa_pred.hi,
                    exact: false,
                }
                .to_json()
                .compact()
            })
            .collect()
    };

    // --- Overload: flood 2 workers with more clients than seats. ---
    let mut overload = Vec::new();
    for (shedding, queue) in [(true, 2usize), (false, 4096usize)] {
        let server = serve(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            queue,
            ..Default::default()
        })
        .expect("bind an ephemeral port");
        let addr = server.addr();
        let handle = {
            let mut client = Client::connect(addr).expect("connect");
            client.publish(&request).expect("publish").handle
        };
        let lines = lines_for(&handle);
        let mut latencies: Vec<f64> = Vec::new();
        // betalike-lint: allow(D3, reason = "the overload bench simulates N independent TCP clients; the worker pool cannot model separate connections")
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..flood_clients)
                .map(|c| {
                    let lines = &lines;
                    s.spawn(move || {
                        let policy = RetryPolicy::standard(12, c as u64);
                        let mut lat = Vec::with_capacity(lines.len());
                        let mut conn: Option<Client> = None;
                        for line in lines {
                            let t0 = Instant::now();
                            let mut attempt = 0u32;
                            loop {
                                let client = match conn.as_mut() {
                                    Some(client) => client,
                                    None => {
                                        conn = Some(Client::connect(addr).expect("connect"));
                                        conn.as_mut().expect("just connected")
                                    }
                                };
                                match client.call_raw(line) {
                                    Ok(resp) if resp.contains("\"retryable\":true") => {
                                        conn = None;
                                    }
                                    Ok(resp) => {
                                        assert!(
                                            resp.contains("\"ok\":true"),
                                            "served error during overload bench: {resp}"
                                        );
                                        break;
                                    }
                                    Err(_) => conn = None,
                                }
                                attempt += 1;
                                assert!(attempt < 200, "overload bench cannot make progress");
                                std::thread::sleep(Duration::from_millis(policy.delay_ms(attempt)));
                            }
                            lat.push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                        lat
                    })
                })
                .collect();
            for h in handles {
                latencies.extend(h.join().expect("flood client"));
            }
        });
        let sheds = {
            let mut client = Client::connect(addr).expect("connect");
            client
                .health()
                .expect("health")
                .get("shed")
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        server.shutdown_and_join();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        overload.push(OverloadPoint {
            shedding,
            clients: flood_clients,
            queue,
            sheds,
            total_queries: latencies.len(),
            p50_ms: percentile_ms(&latencies, 0.50),
            p99_ms: percentile_ms(&latencies, 0.99),
        });
    }

    // --- Degraded store: reads must keep full speed while writes fail. ---
    let dir = std::env::temp_dir().join(format!(
        "betalike-perf-degraded-{}-{rows}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let chaos = Arc::new(ChaosVfs::new(FaultPlan::None));
    let server = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        data_dir: Some(dir.clone()),
        vfs: Some(chaos.clone()),
        ..Default::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let handle = client.publish(&request).expect("publish").handle;
    // Injected write failures trip the store into degraded (read-only).
    chaos.set_plan(FaultPlan::FailWrites);
    for i in 0..DEGRADED_AFTER {
        let broken = PublishRequest::new(
            DatasetSpec::Census {
                rows,
                seed: 100 + u64::from(i),
            },
            Algo::Burel,
        );
        client
            .publish(&broken)
            .expect("publish computes; persist fails");
    }
    let lines = lines_for(&handle);
    let (_, elapsed) = betalike_bench::time_it(|| {
        for line in &lines {
            let resp = client.call_raw(line).expect("count");
            assert!(
                resp.contains("\"ok\":true"),
                "degraded reads must keep serving: {resp}"
            );
        }
    });
    let degraded_count_qps = lines.len() as f64 / elapsed.as_secs_f64().max(1e-12);
    drop(client);
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);

    // --- Recovery: crash mid-save, then time restart → first answer. ---
    let dir = std::env::temp_dir().join(format!(
        "betalike-perf-recovery-{}-{rows}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::new();
    let artifact = Artifact::publish(&registry, &request).expect("publish");
    let snap = persist::snapshot(&artifact);
    let second = persist::snapshot(
        &Artifact::publish(
            &registry,
            &PublishRequest::new(DatasetSpec::Census { rows, seed: 43 }, Algo::Burel),
        )
        .expect("publish"),
    );
    {
        let chaos = Arc::new(ChaosVfs::new(FaultPlan::None));
        let (store, _) = ArtifactStore::open_with(&dir, chaos.clone()).expect("open");
        store.save(&snap).expect("save committed artifact");
        // Power loss on the next syscall: the second save tears mid-write,
        // leaving a stale tempfile for recovery to sweep.
        chaos.set_plan(FaultPlan::CrashAt(chaos.ops()));
        let _ = store.save(&second);
    }
    let count_line = lines_for(&snap.params.handle)
        .into_iter()
        .next()
        .expect("one query");
    let t0 = Instant::now();
    let server = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        data_dir: Some(dir.clone()),
        ..Default::default()
    })
    .expect("bind an ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect");
    let resp = client.call_raw(&count_line).expect("count");
    assert!(
        resp.contains("\"ok\":true"),
        "post-crash count must serve from the recovered store: {resp}"
    );
    let recovery_secs = t0.elapsed().as_secs_f64();
    drop(client);
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);

    FaultsMeasurement {
        overload,
        degraded_queries: num_queries,
        degraded_count_qps,
        recovery_rows: rows,
        recovery_secs,
    }
}

/// One catalog point: count-query throughput through the aggregate
/// catalog versus the row-scan path, same workload, at one dataset size
/// and publication form.
struct CatalogPoint {
    rows: usize,
    algo: &'static str,
    scan_qps: f64,
    catalog_qps: f64,
}

/// The `catalog` section of the trajectory document.
struct CatalogMeasurement {
    workload_queries: usize,
    points: Vec<CatalogPoint>,
    serve_rows: usize,
    serve_queries: usize,
    /// End-to-end count qps of a `--no-catalog` server (1 client,
    /// `exact: true`, result cache off).
    serve_scan_qps: f64,
    /// Same server configuration with catalogs on.
    serve_catalog_qps: f64,
}

/// Measures the `catalog` section: per dataset size, exact-count
/// throughput over the same workload through `PublishedAnswerer::exact`
/// (catalog) versus `exact_scan` (row scan) for an EC-grouped BUREL
/// catalog and a block-grouped Anatomy catalog — asserting bitwise
/// equality before timing — plus the end-to-end server comparison.
fn measure_catalog(
    row_grid: &[usize],
    num_queries: usize,
    iters: usize,
    qi: &[usize],
    serve_rows: usize,
    serve_queries: usize,
) -> CatalogMeasurement {
    use betalike_query::{generate_workload, PublishedAnswerer, WorkloadConfig};
    use std::sync::Arc;

    let mut points = Vec::new();
    for &rows in row_grid {
        let table = Arc::new(census::generate(&CensusConfig::new(rows, 42)));
        let workload = generate_workload(
            &table,
            &WorkloadConfig {
                qi_pool: qi.to_vec(),
                sa: SA,
                lambda: 2,
                theta: 0.1,
                num_queries,
                seed: 7,
            },
        );
        let partition =
            burel(&table, qi, SA, &BurelConfig::new(BETA).with_seed(42)).expect("BUREL");
        let answerers = [
            (
                "burel",
                PublishedAnswerer::generalized(Arc::clone(&table), &partition),
            ),
            (
                "anatomy",
                PublishedAnswerer::anatomy(Arc::clone(&table), SA),
            ),
        ];
        for (algo, answerer) in &answerers {
            // The whole point is bit-identity: a fast wrong answer must
            // fail the harness before it gets timed.
            for q in &workload {
                assert_eq!(
                    answerer.exact(q),
                    answerer.exact_scan(q),
                    "catalog diverged from scan for {algo}"
                );
            }
            let scan = best_of(iters, || {
                workload
                    .iter()
                    .fold(0u64, |acc, q| acc.wrapping_add(answerer.exact_scan(q)))
            });
            let catalog = best_of(iters, || {
                workload
                    .iter()
                    .fold(0u64, |acc, q| acc.wrapping_add(answerer.exact(q)))
            });
            points.push(CatalogPoint {
                rows,
                algo,
                scan_qps: num_queries as f64 / scan.as_secs_f64().max(1e-12),
                catalog_qps: num_queries as f64 / catalog.as_secs_f64().max(1e-12),
            });
        }
    }

    let serve_scan_qps = catalog_serve_qps(serve_rows, serve_queries, qi, false);
    let serve_catalog_qps = catalog_serve_qps(serve_rows, serve_queries, qi, true);
    CatalogMeasurement {
        workload_queries: num_queries,
        points,
        serve_rows,
        serve_queries,
        serve_scan_qps,
        serve_catalog_qps,
    }
}

/// End-to-end count qps of one server configuration: publish a BUREL
/// artifact, replay `num_queries` exact counts over one TCP connection.
/// The result cache is off in both configurations so the comparison
/// isolates the answer path itself.
fn catalog_serve_qps(rows: usize, num_queries: usize, qi: &[usize], catalog: bool) -> f64 {
    use betalike_server::{
        serve, Algo, Client, CountRequest, DatasetSpec, PublishRequest, ServerConfig,
    };

    let server = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        catalog,
        result_cache: 0,
        ..Default::default()
    })
    .expect("bind an ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect");
    let request = PublishRequest::new(DatasetSpec::Census { rows, seed: 42 }, Algo::Burel);
    let handle = client.publish(&request).expect("publish").handle;
    let table = census::generate(&CensusConfig::new(rows, 42));
    let workload = betalike_query::generate_workload(
        &table,
        &betalike_query::WorkloadConfig {
            qi_pool: qi.to_vec(),
            sa: SA,
            lambda: 2,
            theta: 0.1,
            num_queries,
            seed: 7,
        },
    );
    let lines: Vec<String> = workload
        .iter()
        .map(|q| {
            CountRequest {
                handle: handle.clone(),
                qi_preds: q.qi_preds.clone(),
                sa_lo: q.sa_pred.lo,
                sa_hi: q.sa_pred.hi,
                exact: true,
            }
            .to_json()
            .compact()
        })
        .collect();
    let (_, elapsed) = betalike_bench::time_it(|| {
        for line in &lines {
            let resp = client.call_raw(line).expect("count");
            assert!(
                resp.contains("\"ok\":true"),
                "served error during catalog bench: {resp}"
            );
        }
    });
    drop(client);
    server.shutdown_and_join();
    lines.len() as f64 / elapsed.as_secs_f64().max(1e-12)
}

/// Prints the catalog-vs-scan table.
fn print_catalog(catalog: &CatalogMeasurement) {
    println!(
        "catalog: exact-count throughput, aggregate catalog vs row scan \
         ({} queries/workload, bit-identical answers)",
        catalog.workload_queries
    );
    let rows: Vec<Vec<String>> = catalog
        .points
        .iter()
        .map(|p| {
            vec![
                p.rows.to_string(),
                p.algo.to_string(),
                format!("{:.0}", p.scan_qps),
                format!("{:.0}", p.catalog_qps),
                format!("{:.1}x", p.catalog_qps / p.scan_qps.max(1e-12)),
            ]
        })
        .collect();
    print_table(
        &["rows", "algo", "scan qps", "catalog qps", "speedup"],
        &rows,
    );
    println!(
        "serve end-to-end ({} rows, {} exact counts, 1 client, cache off): \
         {:.0} qps without catalog, {:.0} qps with ({:.1}x)",
        catalog.serve_rows,
        catalog.serve_queries,
        catalog.serve_scan_qps,
        catalog.serve_catalog_qps,
        catalog.serve_catalog_qps / catalog.serve_scan_qps.max(1e-12)
    );
    println!();
}

/// Prints the resilience tables.
fn print_faults(faults: &FaultsMeasurement) {
    println!("faults: overload latency (2 workers) with vs without shedding");
    let rows: Vec<Vec<String>> = faults
        .overload
        .iter()
        .map(|p| {
            vec![
                if p.shedding { "bounded" } else { "unbounded" }.to_string(),
                p.queue.to_string(),
                p.clients.to_string(),
                p.total_queries.to_string(),
                p.sheds.to_string(),
                format!("{:.1}", p.p50_ms),
                format!("{:.1}", p.p99_ms),
            ]
        })
        .collect();
    print_table(
        &[
            "queue", "depth", "clients", "queries", "sheds", "p50 ms", "p99 ms",
        ],
        &rows,
    );
    println!(
        "degraded store: {:.0} count qps over {} queries (reads keep serving)",
        faults.degraded_count_qps, faults.degraded_queries
    );
    println!(
        "post-crash recovery to first answer: {} ({} rows)",
        secs(Duration::from_secs_f64(faults.recovery_secs)),
        faults.recovery_rows
    );
    println!();
}

/// Prints the conformance table.
fn print_verify(points: &[VerifyPoint]) {
    println!("verify: independent conformance oracle vs warm publish");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.rows.to_string(),
                p.algo.to_string(),
                secs(Duration::from_secs_f64(p.publish_secs)),
                secs(Duration::from_secs_f64(p.verify_secs)),
                format!("{:.2}x", p.verify_secs / p.publish_secs.max(1e-12)),
            ]
        })
        .collect();
    print_table(
        &["rows", "algo", "publish", "verify", "verify/publish"],
        &rows,
    );
    println!();
}

/// Prints the durability table.
fn print_store(points: &[StorePoint]) {
    println!("store: cold publish (BUREL from empty registry) vs warm snapshot load");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.rows.to_string(),
                format!("{:.1} KB", p.bytes as f64 / 1e3),
                format!("{:.0}", p.write_mbps),
                format!("{:.0}", p.read_mbps),
                secs(Duration::from_secs_f64(p.cold_publish_secs)),
                secs(Duration::from_secs_f64(p.warm_load_secs)),
                format!("{:.1}x", p.cold_publish_secs / p.warm_load_secs.max(1e-12)),
            ]
        })
        .collect();
    print_table(
        &[
            "rows",
            "snapshot",
            "write MB/s",
            "read MB/s",
            "cold publish",
            "warm load",
            "cold/warm",
        ],
        &rows,
    );
    println!();
}

/// Prints the serve-throughput table.
fn print_serve(serve: &ServeMeasurement) {
    println!(
        "serve throughput: BUREL over census {} rows, {} queries/workload",
        serve.dataset_rows, serve.workload_queries
    );
    let rows: Vec<Vec<String>> = serve
        .points
        .iter()
        .map(|p| {
            vec![
                p.clients.to_string(),
                p.total_queries.to_string(),
                secs(Duration::from_secs_f64(p.secs)),
                format!("{:.0}", p.qps),
                format!("{:.3}", p.p50_ms),
                format!("{:.3}", p.p99_ms),
                format!("{:.3}", p.p999_ms),
            ]
        })
        .collect();
    print_table(
        &[
            "clients",
            "queries",
            "secs",
            "queries/sec",
            "p50 ms",
            "p99 ms",
            "p99.9 ms",
        ],
        &rows,
    );
    println!();
    println!("pipelined (1 client, batch-amortized per-request latency):");
    let rows: Vec<Vec<String>> = serve
        .pipeline
        .iter()
        .map(|p| {
            vec![
                p.depth.to_string(),
                p.total_queries.to_string(),
                secs(Duration::from_secs_f64(p.secs)),
                format!("{:.0}", p.qps),
                format!("{:.3}", p.p50_ms),
                format!("{:.3}", p.p99_ms),
                format!("{:.3}", p.p999_ms),
            ]
        })
        .collect();
    print_table(
        &[
            "depth",
            "queries",
            "secs",
            "queries/sec",
            "p50 ms",
            "p99 ms",
            "p99.9 ms",
        ],
        &rows,
    );
    println!();
}

/// Prints the observability-overhead comparison.
fn print_obs_overhead(obs: &ObsOverhead) {
    println!(
        "observability overhead: {} count queries over census {} rows, best of {} passes\n\
         timings on {} / off {} -> {:.2}% overhead (budget 5%)",
        obs.queries,
        obs.rows,
        obs.passes,
        secs(Duration::from_secs_f64(obs.on_secs)),
        secs(Duration::from_secs_f64(obs.off_secs)),
        obs.overhead_frac * 100.0
    );
    println!();
}

/// Prints the per-stage serial/parallel/speedup table per dataset size.
fn print_measurements(measurements: &[Measurement], parallel_threads: usize) {
    let mut sizes: Vec<usize> = Vec::new();
    for m in measurements {
        if !sizes.contains(&m.rows) {
            sizes.push(m.rows);
        }
    }
    for &rows in &sizes {
        println!("rows = {rows}");
        let mut table_rows = Vec::new();
        let mut stages: Vec<&'static str> = Vec::new();
        for m in measurements.iter().filter(|m| m.rows == rows) {
            if !stages.contains(&m.stage) {
                stages.push(m.stage);
            }
        }
        for stage in stages {
            let find = |threads: usize| {
                measurements
                    .iter()
                    .find(|m| m.rows == rows && m.stage == stage && m.threads == threads)
                    .map(|m| m.secs)
            };
            let (Some(serial), Some(parallel)) = (find(1), find(parallel_threads)) else {
                continue;
            };
            table_rows.push(vec![
                stage.to_string(),
                secs(Duration::from_secs_f64(serial)),
                secs(Duration::from_secs_f64(parallel)),
                format!("{:.2}x", serial / parallel.max(1e-12)),
            ]);
        }
        print_table(
            &[
                "stage",
                "serial (s)",
                &format!("{parallel_threads} threads (s)"),
                "speedup",
            ],
            &table_rows,
        );
        println!();
    }
}

/// Renders the trajectory document.
#[allow(clippy::too_many_arguments)] // one argument per document section
fn to_json(
    measurements: &[Measurement],
    serve: &ServeMeasurement,
    store: &[StorePoint],
    verify: &[VerifyPoint],
    faults: Option<&FaultsMeasurement>,
    catalog: Option<&CatalogMeasurement>,
    obs: Option<&ObsOverhead>,
    cpus: usize,
    parallel_threads: usize,
    iters: usize,
    smoke: bool,
) -> Json {
    let cells: Vec<Json> = measurements
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("stage".into(), Json::Str(m.stage.into())),
                ("rows".into(), Json::Num(m.rows as f64)),
                ("threads".into(), Json::Num(m.threads as f64)),
                ("secs".into(), Json::Num(m.secs)),
            ])
        })
        .collect();
    let serve_points: Vec<Json> = serve
        .points
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("clients".into(), Json::Num(p.clients as f64)),
                ("total_queries".into(), Json::Num(p.total_queries as f64)),
                ("secs".into(), Json::Num(p.secs)),
                ("qps".into(), Json::Num(p.qps)),
                ("p50_ms".into(), Json::Num(p.p50_ms)),
                ("p99_ms".into(), Json::Num(p.p99_ms)),
                ("p999_ms".into(), Json::Num(p.p999_ms)),
            ])
        })
        .collect();
    let pipeline_points: Vec<Json> = serve
        .pipeline
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("mode".into(), Json::Str("threaded".into())),
                ("depth".into(), Json::Num(p.depth as f64)),
                ("total_queries".into(), Json::Num(p.total_queries as f64)),
                ("secs".into(), Json::Num(p.secs)),
                ("qps".into(), Json::Num(p.qps)),
                ("p50_ms".into(), Json::Num(p.p50_ms)),
                ("p99_ms".into(), Json::Num(p.p99_ms)),
                ("p999_ms".into(), Json::Num(p.p999_ms)),
            ])
        })
        .collect();
    let store_points: Vec<Json> = store
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("rows".into(), Json::Num(p.rows as f64)),
                ("bytes".into(), Json::Num(p.bytes as f64)),
                ("write_mbps".into(), Json::Num(p.write_mbps)),
                ("read_mbps".into(), Json::Num(p.read_mbps)),
                ("cold_publish_secs".into(), Json::Num(p.cold_publish_secs)),
                ("warm_load_secs".into(), Json::Num(p.warm_load_secs)),
            ])
        })
        .collect();
    let verify_points: Vec<Json> = verify
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("rows".into(), Json::Num(p.rows as f64)),
                ("algo".into(), Json::Str(p.algo.into())),
                ("publish_secs".into(), Json::Num(p.publish_secs)),
                ("verify_secs".into(), Json::Num(p.verify_secs)),
            ])
        })
        .collect();
    let overload_points: Vec<Json> = faults
        .map(|f| {
            f.overload
                .iter()
                .map(|p| {
                    Json::Obj(vec![
                        ("shedding".into(), Json::Bool(p.shedding)),
                        ("clients".into(), Json::Num(p.clients as f64)),
                        ("queue".into(), Json::Num(p.queue as f64)),
                        ("sheds".into(), Json::Num(p.sheds as f64)),
                        ("total_queries".into(), Json::Num(p.total_queries as f64)),
                        ("p50_ms".into(), Json::Num(p.p50_ms)),
                        ("p99_ms".into(), Json::Num(p.p99_ms)),
                    ])
                })
                .collect()
        })
        .unwrap_or_default();
    let catalog_points: Vec<Json> = catalog
        .map(|c| {
            c.points
                .iter()
                .map(|p| {
                    Json::Obj(vec![
                        ("rows".into(), Json::Num(p.rows as f64)),
                        ("algo".into(), Json::Str(p.algo.into())),
                        ("scan_qps".into(), Json::Num(p.scan_qps)),
                        ("catalog_qps".into(), Json::Num(p.catalog_qps)),
                    ])
                })
                .collect()
        })
        .unwrap_or_default();
    let mut catalog_members = vec![
        (
            "workload_queries".into(),
            Json::Num(catalog.map_or(0, |c| c.workload_queries) as f64),
        ),
        ("points".into(), Json::Arr(catalog_points)),
    ];
    if let Some(c) = catalog {
        catalog_members.push((
            "serve".into(),
            Json::Obj(vec![
                ("rows".into(), Json::Num(c.serve_rows as f64)),
                ("queries".into(), Json::Num(c.serve_queries as f64)),
                ("scan_qps".into(), Json::Num(c.serve_scan_qps)),
                ("catalog_qps".into(), Json::Num(c.serve_catalog_qps)),
            ]),
        ));
    }
    let mut faults_members = vec![("overload".into(), Json::Arr(overload_points))];
    if let Some(f) = faults {
        faults_members.push((
            "degraded".into(),
            Json::Obj(vec![
                ("queries".into(), Json::Num(f.degraded_queries as f64)),
                ("count_qps".into(), Json::Num(f.degraded_count_qps)),
            ]),
        ));
        faults_members.push((
            "recovery".into(),
            Json::Obj(vec![
                ("rows".into(), Json::Num(f.recovery_rows as f64)),
                ("secs".into(), Json::Num(f.recovery_secs)),
            ]),
        ));
    }
    let mut members = vec![
        ("pr".into(), Json::Num(9.0)),
        ("harness".into(), Json::Str("perf".into())),
        ("dataset".into(), Json::Str("CENSUS (synthetic)".into())),
        ("beta".into(), Json::Num(BETA)),
        ("cpus_visible".into(), Json::Num(cpus as f64)),
        (
            "parallel_threads".into(),
            Json::Num(parallel_threads as f64),
        ),
        ("iters".into(), Json::Num(iters as f64)),
        ("smoke".into(), Json::Bool(smoke)),
        ("measurements".into(), Json::Arr(cells)),
        (
            "serve".into(),
            Json::Obj(vec![
                ("dataset_rows".into(), Json::Num(serve.dataset_rows as f64)),
                (
                    "workload_queries".into(),
                    Json::Num(serve.workload_queries as f64),
                ),
                ("algo".into(), Json::Str("burel".into())),
                ("clients".into(), Json::Arr(serve_points)),
                ("pipeline".into(), Json::Arr(pipeline_points)),
            ]),
        ),
        (
            "store".into(),
            Json::Obj(vec![
                ("algo".into(), Json::Str("burel".into())),
                ("points".into(), Json::Arr(store_points)),
            ]),
        ),
        (
            "verify".into(),
            Json::Obj(vec![("points".into(), Json::Arr(verify_points))]),
        ),
        ("faults".into(), Json::Obj(faults_members)),
        ("catalog".into(), Json::Obj(catalog_members)),
    ];
    if let Some(o) = obs {
        members.push((
            "obs".into(),
            Json::Obj(vec![
                ("rows".into(), Json::Num(o.rows as f64)),
                ("queries".into(), Json::Num(o.queries as f64)),
                ("passes".into(), Json::Num(o.passes as f64)),
                ("on_secs".into(), Json::Num(o.on_secs)),
                ("off_secs".into(), Json::Num(o.off_secs)),
                ("overhead_frac".into(), Json::Num(o.overhead_frac)),
            ]),
        ));
    }
    Json::Obj(members)
}
