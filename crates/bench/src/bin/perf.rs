//! PERF — the in-process compute harness behind `BENCH_*.json`.
//!
//! The paper's evaluation (§7) times the anonymization pipeline and the
//! answering of `COUNT(*)` queries over a publication. This binary times
//! the compute of both in-process — no sockets, so it measures the code
//! and not the loopback stack. What a client sees over TCP (count and
//! durable-publish latency) is measured by the repository benchmark in
//! `perfbench/`.
//!
//! Sections:
//!
//! * `stages` — every BUREL stage plus the end-to-end run on the CENSUS
//!   generator, at 1 vs N worker threads (N = `max(4,
//!   available_parallelism)`): `census_generate` (the dataset itself),
//!   `hilbert_keys`, `bucketize`
//!   (`DPpartition`), `ectree` (`biSplit`), `materialize`, `audit`
//!   ([`audit_partition`]), `naive_bayes` (the §7 attack) and `burel_e2e`;
//! * `store` — BPUB snapshot size and write/read throughput, and the cold
//!   publish (generate + BUREL + catalog from an empty registry) versus
//!   the warm path, split into `decode` (load and decode the snapshot) and
//!   `restore` (rebuild a serving-ready artifact from it);
//! * `verify` — the independent conformance oracle's verification of a
//!   BUREL and a perturbation snapshot versus the warm publish;
//! * `catalog` — exact-count throughput through the aggregate catalog
//!   versus the row scan, per publication form, and the BUREL estimate
//!   (the served `exact: false` path) through the catalog versus the scan
//!   view, after asserting both give the same answer to every query;
//! * `obs` — what request timing costs: the warm count workload replayed
//!   through [`LocalServer::respond_line`] on timed and `obs: false`
//!   servers, alternating in short blocks.
//!
//! Every point is one record `{section, name, params, unit, samples}`
//! holding K raw samples (K = 3 in smoke mode, 5 otherwise); the printed
//! tables show median and min..max. `check` validates a document with one
//! generic validator and one named gate: the obs overhead computed from
//! the medians stays within 5% (DESIGN.md §14).
//!
//! ```text
//! cargo run --release -p betalike-bench --bin perf -- --rows 200000
//! cargo run --release -p betalike-bench --bin perf -- smoke --out perf-smoke.json
//! cargo run --release -p betalike-bench --bin perf -- check --file perf-smoke.json
//! ```
//!
//! Without `--rows` the grid is 10k/50k/200k rows; `--rows N` replaces it
//! with N. `--out FILE` (default `perf.json`) names the document written.

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
use betalike_bench::{qi_set, time_it, SA};
use betalike_metrics::audit::audit_partition;
use betalike_microdata::census::{self, CensusConfig};
use betalike_microdata::json::Json;
use betalike_microdata::{RowId, Table};
use betalike_query::{generate_workload, AggQuery, WorkloadConfig};
use betalike_server::artifact::Artifact;
use betalike_server::{
    persist, Algo, CountRequest, DatasetSpec, LocalServer, PublishRequest, Registry, ServerConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const BETA: f64 = 4.0;

/// The units a record may carry.
const UNITS: [&str; 7] = ["s", "ms", "1/s", "MB/s", "B", "count", "frac"];

/// The observability budget: timed requests may cost at most this much
/// more than untimed ones, medians compared (DESIGN.md §14).
const OBS_BUDGET: f64 = 0.05;

/// Passes of the obs replay. More than K: the quantity gated is a small
/// difference of two medians.
const OBS_PASSES: usize = 31;

/// Requests per interleaved block of an obs pass.
const OBS_BLOCK: usize = 5;

/// One measured point: `samples` of one quantity under fixed `params`.
struct Record {
    section: &'static str,
    name: &'static str,
    params: Vec<(&'static str, Json)>,
    unit: &'static str,
    samples: Vec<f64>,
}

fn record(
    section: &'static str,
    name: &'static str,
    params: &[(&'static str, Json)],
    unit: &'static str,
    samples: Vec<f64>,
) -> Record {
    Record {
        section,
        name,
        params: params.to_vec(),
        unit,
        samples,
    }
}

fn num(x: usize) -> Json {
    Json::Num(x as f64)
}

fn main() {
    let args = ExpArgs::parse();
    let smoke = match args.sub.as_deref() {
        Some("check") => return run_check(&args),
        Some("smoke") => true,
        None => false,
        Some(other) => {
            eprintln!("unknown sub-mode `{other}` (expected `smoke` or `check`)");
            std::process::exit(2);
        }
    };
    let out_path = args
        .extra
        .get("out")
        .cloned()
        .unwrap_or_else(|| "perf.json".into());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // On a single-core host 4 threads still exercise the pool (and honestly
    // record the oversubscription cost); on real hardware N = all cores.
    let parallel_threads = cpus.max(4);
    // Flag *presence* (not value) selects single-size mode, so an explicit
    // `--rows 100000` equal to the ExpArgs default still replaces the grid.
    let rows_flag_passed = std::env::args().any(|a| a == "--rows");
    let row_grid = if smoke {
        vec![2_000]
    } else if rows_flag_passed {
        vec![args.rows]
    } else {
        vec![10_000, 50_000, 200_000]
    };
    let k = if smoke { 3 } else { 5 };
    let qi = qi_set(args.qi);
    println!(
        "perf harness: CENSUS, beta = {BETA}, QI = {}, threads 1 vs {parallel_threads} \
         ({cpus} cpu(s) visible), {k} samples per point\n",
        qi.len()
    );

    let mut records = Vec::new();
    for &rows in &row_grid {
        let table = Arc::new(census::generate(&CensusConfig::new(rows, args.seed)));
        for threads in [1, parallel_threads] {
            mini_rayon::set_threads(threads);
            measure_stages(&table, args.seed, &qi, threads, k, &mut records);
        }
        mini_rayon::set_threads(0);
        measure_store(rows, k, &mut records);
        measure_verify(rows, k, &mut records);
        let catalog_queries = if smoke { 100 } else { 300 };
        measure_catalog(&table, &qi, catalog_queries, k, &mut records);
    }
    // The overhead is a small difference of two sums of microsecond
    // requests: even the smoke pass replays the full-size workload so the
    // 5% budget is not noise-dominated.
    measure_obs(10_000, 2_000, OBS_PASSES, &mut records);
    print_records(&records);

    let doc = to_json(
        &records,
        vec![
            ("harness", Json::Str("perf".into())),
            ("dataset", Json::Str("CENSUS (synthetic)".into())),
            ("beta", Json::Num(BETA)),
            ("cpus_visible", num(cpus)),
            ("parallel_threads", num(parallel_threads)),
            ("samples_per_point", num(k)),
            ("smoke", Json::Bool(smoke)),
        ],
    );
    match check_schema(&doc) {
        Ok(summary) => println!("{summary}"),
        Err(e) => {
            // The harness must never write a document its own checker
            // rejects.
            eprintln!("emitted document fails the schema: {e}");
            std::process::exit(1);
        }
    }
    std::fs::write(&out_path, doc.pretty() + "\n").expect("write perf JSON");
    println!("wrote {out_path}");
}

/// `perf check --file F`: validate a document against [`check_schema`].
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

/// The document schema, as executable checks: a non-empty `records`
/// array of well-formed records, and the observability budget. CI runs
/// this over the smoke document and every committed `BENCH_*.json`; the
/// writer runs it before writing.
fn check_schema(doc: &Json) -> Result<String, String> {
    let records = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("missing array `records`")?;
    if records.is_empty() {
        return Err("`records` is empty".into());
    }
    let mut sections: Vec<&str> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let section = check_record(r).map_err(|e| format!("records[{i}]: {e}"))?;
        if !sections.contains(&section) {
            sections.push(section);
        }
    }
    let mut summary = format!("{} records: {}", records.len(), sections.join(", "));
    if let Some(overhead) = obs_overhead(records)? {
        if overhead > OBS_BUDGET {
            return Err(format!(
                "obs: median overhead {:.2}% exceeds the {:.0}% observability budget",
                overhead * 100.0,
                OBS_BUDGET * 100.0
            ));
        }
        summary += &format!("; obs overhead {:.2}%", overhead * 100.0);
    }
    Ok(summary)
}

/// Checks one record and returns its section.
fn check_record(r: &Json) -> Result<&str, String> {
    let text = |key: &str| {
        r.get(key)
            .and_then(Json::as_str)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("`{key}` must be a non-empty string"))
    };
    let section = text("section")?;
    text("name")?;
    let unit = text("unit")?;
    if !UNITS.contains(&unit) {
        return Err(format!("unit `{unit}` is not one of {UNITS:?}"));
    }
    let Some(Json::Obj(params)) = r.get("params") else {
        return Err("`params` must be an object".into());
    };
    for (key, value) in params {
        match value {
            Json::Str(_) | Json::Bool(_) => {}
            Json::Num(x) if x.is_finite() => {}
            _ => return Err(format!("param `{key}` is not a finite scalar")),
        }
    }
    let samples = samples_of(r)?;
    if samples.is_empty() {
        return Err("`samples` is empty".into());
    }
    if let Some(bad) = samples.iter().find(|x| !(x.is_finite() && **x >= 0.0)) {
        return Err(format!("sample {bad} is not a finite value >= 0"));
    }
    Ok(section)
}

fn samples_of(r: &Json) -> Result<Vec<f64>, String> {
    r.get("samples")
        .and_then(Json::as_arr)
        .ok_or("missing array `samples`")?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| "samples must be numbers".into()))
        .collect()
}

/// `(on - off) / off` over the medians of the `obs` section's
/// `timings_on` / `timings_off` records, when the document has them.
fn obs_overhead(records: &[Json]) -> Result<Option<f64>, String> {
    let median_of = |name: &str| -> Result<Option<f64>, String> {
        let found = records.iter().find(|r| {
            r.get("section").and_then(Json::as_str) == Some("obs")
                && r.get("name").and_then(Json::as_str) == Some(name)
        });
        found.map(|r| samples_of(r).map(|s| median(&s))).transpose()
    };
    match (median_of("timings_on")?, median_of("timings_off")?) {
        (Some(on), Some(off)) => Ok(Some((on - off) / off.max(1e-12))),
        (None, None) => Ok(None),
        _ => Err("obs: `timings_on` and `timings_off` must come as a pair".into()),
    }
}

/// The median of a non-empty sample set.
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Wall-clock seconds of each of `k` runs of `f`.
fn sample_secs<T>(k: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..k).map(|_| time_it(&mut f).1.as_secs_f64()).collect()
}

/// Times the generation of `table` (CENSUS with `seed`) and every BUREL
/// stage at the current thread count.
fn measure_stages(
    table: &Table,
    seed: u64,
    qi: &[usize],
    threads: usize,
    k: usize,
    out: &mut Vec<Record>,
) {
    let params = [("rows", num(table.num_rows())), ("threads", num(threads))];
    let mut push = |stage: &'static str, samples: Vec<f64>| {
        out.push(record("stages", stage, &params, "s", samples));
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

    let config = CensusConfig::new(table.num_rows(), seed);
    push(
        "census_generate",
        sample_secs(k, || census::generate(&config)),
    );
    push("hilbert_keys", sample_secs(k, || hilbert_keys(table, qi)));
    push(
        "bucketize",
        sample_secs(k, || dp_partition(&dist, &model, 0.25)),
    );
    push(
        "ectree",
        sample_secs(k, || bi_split(&sizes, &eligibility).expect("eligible")),
    );
    push(
        "materialize",
        sample_secs(k, || {
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
        sample_secs(k, || audit_partition(table, &partition, METRIC)),
    );
    push(
        "naive_bayes",
        sample_secs(k, || naive_bayes_attack(table, &partition)),
    );
    push(
        "burel_e2e",
        sample_secs(k, || {
            burel(table, qi, SA, &BurelConfig::new(BETA).with_seed(42)).expect("BUREL")
        }),
    );
}

/// The `store` section at one dataset size: the cold artifact cost
/// (generate + BUREL + catalog from an empty registry — what a restart
/// without a store pays) versus the warm path, split into its `decode`
/// (`ArtifactStore::load`) and `restore` (`persist::restore`) halves, and
/// raw snapshot write/read throughput.
fn measure_store(rows: usize, k: usize, out: &mut Vec<Record>) {
    use betalike_store::ArtifactStore;

    let request = PublishRequest::new(DatasetSpec::Census { rows, seed: 42 }, Algo::Burel);
    // Cold: a fresh registry per run, so dataset generation and the
    // Hilbert transform are paid like on a cold restart.
    let cold = sample_secs(k, || {
        Artifact::publish(&Registry::new(), &request).expect("publish")
    });

    let artifact = Artifact::publish(&Registry::new(), &request).expect("publish");
    let snap = persist::snapshot(&artifact);
    let dir =
        std::env::temp_dir().join(format!("betalike-perf-store-{}-{rows}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (store, _) = ArtifactStore::open(&dir).expect("open data dir");
    let handle = &snap.params.handle;
    let write = sample_secs(k, || store.save(&snap).expect("save"));
    let bytes = store.entry(handle).expect("saved").bytes;
    let load = || store.load(handle).expect("load").expect("stored");
    let decode = sample_secs(k, load);
    // Each restore consumes a snapshot; decode them outside the timing.
    let mut loaded: Vec<_> = (0..k).map(|_| load()).collect();
    let restore = sample_secs(k, || {
        persist::restore(loaded.pop().expect("one snapshot per sample")).expect("restore")
    });
    let _ = std::fs::remove_dir_all(&dir);

    let mb = bytes as f64 / 1e6;
    let mbps = |secs: Vec<f64>| secs.iter().map(|s| mb / s.max(1e-12)).collect();
    let params = [("rows", num(rows)), ("algo", Json::Str("burel".into()))];
    out.push(record(
        "store",
        "snapshot",
        &params,
        "B",
        vec![bytes as f64],
    ));
    out.push(record("store", "write", &params, "MB/s", mbps(write)));
    out.push(record(
        "store",
        "read",
        &params,
        "MB/s",
        mbps(decode.clone()),
    ));
    out.push(record("store", "cold_publish", &params, "s", cold));
    out.push(record("store", "decode", &params, "s", decode));
    out.push(record("store", "restore", &params, "s", restore));
}

/// The `verify` section at one dataset size: snapshot a BUREL and a
/// perturbation publication the way the durable store would and time the
/// conformance oracle's full verification of each, beside the warm
/// publish for scale.
fn measure_verify(rows: usize, k: usize, out: &mut Vec<Record>) {
    let registry = Registry::new();
    for algo in [Algo::Burel, Algo::Perturb] {
        let request = PublishRequest::new(DatasetSpec::Census { rows, seed: 42 }, algo);
        // Warm the dataset/geometry caches, then time the pipeline and the
        // oracle on equal footing.
        let artifact = Artifact::publish(&registry, &request).expect("publish");
        let publish = sample_secs(k, || {
            Artifact::publish(&registry, &request).expect("publish")
        });
        let snap = persist::snapshot(&artifact);
        let verify = sample_secs(k, || {
            let report = betalike_conformance::verify_snapshot(&snap);
            assert!(
                report.pass(),
                "perf artifact must verify: {}",
                report.summary()
            );
        });
        let params = [
            ("rows", num(rows)),
            ("algo", Json::Str(algo.as_str().into())),
        ];
        out.push(record("verify", "publish", &params, "s", publish));
        out.push(record("verify", "verify", &params, "s", verify));
    }
}

/// A count workload over `table` with the shape every section replays.
fn workload(table: &Table, qi: &[usize], num_queries: usize) -> Vec<AggQuery> {
    generate_workload(
        table,
        &WorkloadConfig {
            qi_pool: qi.to_vec(),
            sa: SA,
            lambda: 2,
            theta: 0.1,
            num_queries,
            seed: 7,
        },
    )
}

/// The `catalog` section at one dataset size: exact-count throughput over
/// one workload through `PublishedAnswerer::exact` (catalog) versus
/// `exact_scan` (row scan), for an EC-grouped BUREL catalog and a
/// block-grouped Anatomy catalog, plus `estimate` versus `estimate_scan`
/// for the BUREL one. Bit-identity is asserted before timing.
fn measure_catalog(
    table: &Arc<Table>,
    qi: &[usize],
    num_queries: usize,
    k: usize,
    out: &mut Vec<Record>,
) {
    use betalike_query::PublishedAnswerer;

    let workload = workload(table, qi, num_queries);
    let partition = burel(table, qi, SA, &BurelConfig::new(BETA).with_seed(42)).expect("BUREL");
    let answerers = [
        (
            "burel",
            PublishedAnswerer::generalized(Arc::clone(table), &partition),
        ),
        ("anatomy", PublishedAnswerer::anatomy(Arc::clone(table), SA)),
    ];
    let qps = |path: &dyn Fn(&AggQuery) -> f64| -> Vec<f64> {
        sample_secs(k, || {
            std::hint::black_box(workload.iter().map(path).sum::<f64>())
        })
        .iter()
        .map(|s| workload.len() as f64 / s.max(1e-12))
        .collect()
    };
    for (algo, answerer) in &answerers {
        let estimate = |q: &AggQuery| answerer.estimate(q).expect("estimates cannot fail here");
        let estimate_scan = |q: &AggQuery| {
            answerer
                .estimate_scan(q)
                .expect("estimates cannot fail here")
        };
        // A fast wrong answer must fail the harness before it is timed.
        for q in &workload {
            assert_eq!(
                answerer.exact(q),
                answerer.exact_scan(q),
                "catalog diverged from scan for {algo}"
            );
            assert_eq!(
                estimate(q).to_bits(),
                estimate_scan(q).to_bits(),
                "catalog estimate diverged from scan for {algo}"
            );
        }
        let params = [
            ("rows", num(table.num_rows())),
            ("algo", Json::Str((*algo).into())),
            ("queries", num(workload.len())),
        ];
        let scan = qps(&|q| answerer.exact_scan(q) as f64);
        let catalog = qps(&|q| answerer.exact(q) as f64);
        out.push(record("catalog", "scan", &params, "1/s", scan));
        out.push(record("catalog", "catalog", &params, "1/s", catalog));
        // The served workload sends `exact: false`: time the EC estimate.
        if *algo == "burel" {
            let scan = qps(&estimate_scan);
            let catalog = qps(&estimate);
            out.push(record("catalog", "estimate_scan", &params, "1/s", scan));
            out.push(record("catalog", "estimate", &params, "1/s", catalog));
        }
    }
}

/// The `obs` section: one warm count workload replayed through
/// [`LocalServer::respond_line`] on a server with request timings and on
/// an `obs: false` one. `respond` is where the timings happen, so this
/// prices them without socket noise. Both servers run with the result
/// cache off, so every request pays the full lookup + catalog answer (a
/// cache-hit replay would shrink the denominator and overstate the
/// overhead). Timed and untimed servers alternate within every pass, so
/// a background hiccup lands on both, and [`check_schema`] compares the
/// medians over passes.
fn measure_obs(rows: usize, num_queries: usize, passes: usize, out: &mut Vec<Record>) {
    let request = PublishRequest::new(DatasetSpec::Census { rows, seed: 42 }, Algo::Burel);
    let table = census::generate(&CensusConfig::new(rows, 42));
    let lines: Vec<String> = workload(&table, &[0, 1, 2], num_queries)
        .iter()
        .map(|q| {
            CountRequest {
                handle: request.handle(),
                qi_preds: q.qi_preds.clone(),
                sa_lo: q.sa_pred.lo,
                sa_hi: q.sa_pred.hi,
                exact: false,
            }
            .to_json()
            .compact()
        })
        .collect();
    let server = |obs: bool| {
        let local = LocalServer::new(&ServerConfig {
            result_cache: 0,
            obs,
            ..Default::default()
        })
        .expect("a storeless server");
        let (ack, _) = local.respond_line(&request.to_json().compact());
        assert!(ack.contains("\"ok\":true"), "publish failed: {ack}");
        local
    };
    let replay = |local: &LocalServer, lines: &[String]| {
        let (_, elapsed) = time_it(|| {
            for line in lines {
                let (response, _) = local.respond_line(line);
                assert!(
                    response.contains("\"ok\":true"),
                    "served error during the obs replay: {response}"
                );
            }
        });
        elapsed.as_secs_f64()
    };
    // Whichever server is built first replays about 1% slower, so two
    // (timed, untimed) pairs are built in opposite orders and passes
    // alternate between them.
    let first = (server(true), server(false));
    let (untimed, timed) = (server(false), server(true));
    let pairs = [first, (timed, untimed)];
    for (timed, untimed) in &pairs {
        // Warm-up: touch the artifact and the answer path on each server.
        replay(timed, &lines);
        replay(untimed, &lines);
    }
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for pass in 0..passes {
        let (timed, untimed) = &pairs[pass % 2];
        // Each pass interleaves short blocks, alternating which server goes
        // first, so CPU-speed drift within a pass hits both sums alike.
        let (mut on_secs, mut off_secs) = (0.0, 0.0);
        for (i, block) in lines.chunks(OBS_BLOCK).enumerate() {
            if i % 2 == 0 {
                on_secs += replay(timed, block);
                off_secs += replay(untimed, block);
            } else {
                off_secs += replay(untimed, block);
                on_secs += replay(timed, block);
            }
        }
        on.push(on_secs);
        off.push(off_secs);
    }
    let params = [("rows", num(rows)), ("queries", num(num_queries))];
    out.push(record("obs", "timings_on", &params, "s", on));
    out.push(record("obs", "timings_off", &params, "s", off));
}

/// `x` to three significant digits.
fn sig3(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (2 - x.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{x:.decimals$}")
}

/// Prints one table per section: every record's median and min..max.
fn print_records(records: &[Record]) {
    let mut sections: Vec<&str> = Vec::new();
    for r in records {
        if !sections.contains(&r.section) {
            sections.push(r.section);
        }
    }
    for section in sections {
        println!("{section}");
        let rows: Vec<Vec<String>> = records
            .iter()
            .filter(|r| r.section == section)
            .map(|r| {
                let params: Vec<String> = r
                    .params
                    .iter()
                    .map(|(key, value)| match value {
                        Json::Str(s) => format!("{key}={s}"),
                        other => format!("{key}={}", other.compact()),
                    })
                    .collect();
                let min = r.samples.iter().copied().fold(f64::INFINITY, f64::min);
                let max = r.samples.iter().copied().fold(0.0, f64::max);
                vec![
                    r.name.to_string(),
                    params.join(" "),
                    r.unit.to_string(),
                    sig3(median(&r.samples)),
                    format!("{}..{}", sig3(min), sig3(max)),
                    r.samples.len().to_string(),
                ]
            })
            .collect();
        print_table(
            &["name", "params", "unit", "median", "min..max", "n"],
            &rows,
        );
        println!();
    }
}

/// The document: `meta` members, then every record.
fn to_json(records: &[Record], meta: Vec<(&str, Json)>) -> Json {
    let records = records
        .iter()
        .map(|r| {
            let params = r
                .params
                .iter()
                .map(|(key, value)| (key.to_string(), value.clone()))
                .collect();
            Json::Obj(vec![
                ("section".into(), Json::Str(r.section.into())),
                ("name".into(), Json::Str(r.name.into())),
                ("params".into(), Json::Obj(params)),
                ("unit".into(), Json::Str(r.unit.into())),
                (
                    "samples".into(),
                    Json::Arr(r.samples.iter().copied().map(Json::Num).collect()),
                ),
            ])
        })
        .collect();
    let mut members: Vec<(String, Json)> = meta
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect();
    members.push(("records".into(), Json::Arr(records)));
    Json::Obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal valid document with one stage record and an obs pair
    /// whose medians are `on` and `1.0`.
    fn doc(unit: &str, samples: Vec<Json>, on: f64) -> Json {
        let obs = |name: &str, x: f64| {
            Json::Obj(vec![
                ("section".into(), Json::Str("obs".into())),
                ("name".into(), Json::Str(name.into())),
                ("params".into(), Json::Obj(vec![])),
                ("unit".into(), Json::Str("s".into())),
                ("samples".into(), Json::Arr(vec![Json::Num(x)])),
            ])
        };
        let stage = Json::Obj(vec![
            ("section".into(), Json::Str("stages".into())),
            ("name".into(), Json::Str("bucketize".into())),
            (
                "params".into(),
                Json::Obj(vec![("rows".into(), Json::Num(10.0))]),
            ),
            ("unit".into(), Json::Str(unit.into())),
            ("samples".into(), Json::Arr(samples)),
        ]);
        Json::Obj(vec![(
            "records".into(),
            Json::Arr(vec![stage, obs("timings_on", on), obs("timings_off", 1.0)]),
        )])
    }

    #[test]
    fn committed_documents_validate() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut checked = 0;
        for entry in std::fs::read_dir(root).expect("repo root") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read");
            let parsed = Json::parse(&text).expect("JSON");
            if let Err(e) = check_schema(&parsed) {
                panic!("{name}: {e}");
            }
            checked += 1;
        }
        assert!(checked > 0, "no BENCH_*.json found at the repository root");
    }

    #[test]
    fn validator_rejects_malformed_records_and_the_obs_budget() {
        let good = || vec![Json::Num(0.5), Json::Num(0.25)];
        assert!(check_schema(&doc("s", good(), 1.04)).is_ok());
        for (what, bad) in [
            ("empty samples", doc("s", vec![], 1.0)),
            ("NaN sample", doc("s", vec![Json::Num(f64::NAN)], 1.0)),
            ("negative sample", doc("s", vec![Json::Num(-1.0)], 1.0)),
            ("unknown unit", doc("parsecs", good(), 1.0)),
            ("obs overhead 6%", doc("s", good(), 1.06)),
        ] {
            assert!(check_schema(&bad).is_err(), "{what} must be rejected");
        }
        assert!(check_schema(&Json::Obj(vec![("records".into(), Json::Arr(vec![]))])).is_err());
    }

    #[test]
    fn medians_and_significant_digits() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(sig3(0.012345), "0.0123");
        assert_eq!(sig3(1234.4), "1234");
        assert_eq!(sig3(2.5), "2.50");
    }
}
