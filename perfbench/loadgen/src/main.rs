//! `perfbench` — the repository benchmark's load generator.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --server PATH/TO/betalike-serve --work DIR
//! ```
//!
//! Starts the real `betalike-serve` on a copy of a prepared data directory
//! (one BUREL artifact over census 200k rows), drives it over TCP with
//! requests generated from `--seed`, checks every answer it can afford
//! to, and prints one JSON object as its last line. With `--trace 1` it
//! also replays the same inputs in-process, layer by layer, with spans
//! around each call, and reports the per-layer metrics instead of the
//! end-to-end ones. `perfbench/run.py` builds and calls it; see
//! `perfbench/workloads.json` for what each workload is for.
//!
//! Exit status: 0 with a result, 1 on a wrong answer (after printing the
//! result with `"correct": false`) or a failed run, 2 on bad usage.

mod check;
mod layers;
mod load;
mod server;
mod stats;
mod trace;
mod vfs;
mod workload;

use betalike_microdata::json::Json;
use betalike_query::AggQuery;
use betalike_server::persist;
use betalike_server::Client;
use load::{drive_publishes, CountConn, CountLog, Picker, PublishLog};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stats::{interquartile_mean, median, quantile};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use workload::*;

const USAGE: &str = "usage: perfbench --workload count_generalized|count_hot|publish_mix \
                     --seed N --seconds S --trace 0|1 --server PATH --work DIR";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut work = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server: server.ok_or("--server is required")?,
        work: work.ok_or("--work is required")?,
    })
}

/// One reported metric.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run found.
#[derive(Debug, Default)]
struct Report {
    metrics: Vec<Metric>,
    lines: Vec<String>,
    mismatches: Vec<String>,
    attempted: usize,
    failed: usize,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        for m in &self.mismatches {
            println!("MISMATCH {m}");
        }
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        let out = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.mismatches.is_empty())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{}", out.compact());
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(report) => {
            report.print();
            std::process::exit(if report.mismatches.is_empty() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The load phase's raw results.
#[derive(Debug, Default)]
struct Load {
    counts: Vec<CountLog>,
    publishes: PublishLog,
    /// Count lines sent before the closed loops (the `count_hot` warm set).
    primed: Vec<(u32, String)>,
    /// `(from, to)` of each measured slice, seconds after warm-up ended.
    slices: Vec<(f64, f64)>,
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let workload = args.workload;
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("create {}: {e}", args.work.display()))?;
    let prepared = prepare(&args.work)?;
    let run_dir = args.work.join(format!("run-{}", workload.name()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let data = run_dir.join("data");

    // The scan-only reference every served count is checked against.
    let handle = prepared_request().handle();
    let snap = layers::read_snapshot(&prepared, &handle)?;
    let reference = persist::restore_opt(snap.clone(), false)?;
    let (table, sa) = (&reference.dataset.table, reference.dataset.sa);
    let setup_q = setup_query(table, sa, &handle);
    let setup_line = count_line(&handle, &setup_q);
    let setup_want = reference
        .answerer
        .estimate_scan(&setup_q)
        .map_err(|e| format!("scan path: {e}"))?;

    // Inputs, all from the seed.
    let queries: Vec<AggQuery> = match workload {
        Workload::CountHot => {
            let mut hot = distinct_queries(
                table,
                sa,
                &handle,
                args.seed ^ 0x4071,
                2 * HOT_SET,
                &[setup_q],
            );
            hot.truncate(HOT_SET);
            hot
        }
        _ => distinct_queries(table, sa, &handle, args.seed, STREAM_LEN, &[setup_q]),
    };
    let lines: Vec<String> = queries.iter().map(|q| count_line(&handle, q)).collect();
    let publishes = publish_requests(args.seed, workload.publishes());

    // Set-up: every start is timed to its first correct answer; the last
    // server stays up for the load.
    let mut setup_s = Vec::new();
    let mut server = None;
    for i in 0..SETUP_SPAWNS {
        copy_data_dir(&prepared, &data)?;
        let (started, secs, answer) = server::start_timed(&args.server, &data, &setup_line)?;
        if check::estimate_of(&answer).map(f64::to_bits) != Some(setup_want.to_bits()) {
            report.mismatches.push(format!(
                "set-up count answered `{answer}`, scan path {setup_want:?}"
            ));
        }
        setup_s.push(secs);
        if i + 1 < SETUP_SPAWNS {
            started.shutdown()?;
        } else {
            server = Some(started);
        }
    }
    let server = server.expect("SETUP_SPAWNS > 0");
    let before = server.scrape()?;
    let load = drive(workload, args, server.addr(), &lines, &publishes)?;
    let after = server.scrape()?;
    let peak_rss_mb = server.peak_rss_mb()?;
    server.shutdown()?;

    // End-to-end figures. Count figures are taken per phase and the mean
    // of the middle half of the phases is reported; publishes are too few
    // to slice.
    let mut measured: Vec<(f64, f64)> = load
        .counts
        .iter()
        .flat_map(|c| c.measured.iter().copied())
        .collect();
    measured.sort_by(|a, b| a.0.total_cmp(&b.0));
    let count_slices: Vec<Vec<f64>> = load
        .slices
        .iter()
        .map(|&(lo, hi)| {
            measured
                .iter()
                .filter(|m| m.0 >= lo && m.0 < hi)
                .map(|m| m.1)
                .collect()
        })
        .collect();
    let per_slice =
        |q: f64| -> Vec<f64> { count_slices.iter().map(|s| quantile(s, q) / 1e6).collect() };
    let (slice_p50, slice_p99) = (per_slice(0.5), per_slice(0.99));
    let slice_qps: Vec<f64> = count_slices
        .iter()
        .zip(&load.slices)
        .map(|(s, (lo, hi))| s.len() as f64 / (hi - lo))
        .collect();
    let window_s: f64 = load.slices.iter().map(|(lo, hi)| hi - lo).sum();
    let count_samples = measured.len();
    let count_p50_ms = interquartile_mean(&slice_p50);
    let count_p99_ms = interquartile_mean(&slice_p99);
    let count_qps = interquartile_mean(&slice_qps);
    let publish_p50_ms = quantile(&load.publishes.lat_ms, 0.5);
    let publish_p90_ms = quantile(&load.publishes.lat_ms, 0.9);
    let setup = median(&setup_s);
    let rows = PREPARED_ROWS + publishes.len() * PUBLISH_ROWS;
    let store_bytes = dir_bytes(&data).map_err(|e| format!("size {}: {e}", data.display()))?;
    let counts_sent: usize =
        load.counts.iter().map(|c| c.sent.len()).sum::<usize>() + load.primed.len();
    report.attempted = SETUP_SPAWNS + counts_sent + publishes.len();
    report.failed = load.counts.iter().map(|c| c.errors).sum::<usize>() + load.publishes.errors;
    let error_frac = report.failed as f64 / report.attempted as f64;

    // Correctness: sampled (or primed) answers against the scan path,
    // publish acknowledgments, byte-identical cache replays, and the
    // conformance oracle over every stored artifact.
    let mut kept: Vec<(u32, String)> = load
        .counts
        .iter()
        .flat_map(|c| c.kept.iter().cloned())
        .collect();
    kept.extend(load.primed.iter().cloned());
    report
        .mismatches
        .extend(check::against_scan(&reference.answerer, &queries, &kept));
    report
        .mismatches
        .extend(load.publishes.mismatches.iter().cloned());
    for c in &load.counts {
        report.mismatches.extend(c.mismatches.iter().cloned());
    }
    let (verified, failures) = check::verify_store(&data)?;
    report.mismatches.extend(failures);
    if verified != 1 + publishes.len() {
        report.mismatches.push(format!(
            "{verified} stored artifacts passed the oracle, expected {}",
            1 + publishes.len()
        ));
    }
    report.lines.push(format!(
        "checked: {} count answers against the scan path, {} publish acks, {verified} stored artifacts through the oracle",
        kept.len() + SETUP_SPAWNS,
        publishes.len()
    ));

    let e2e = [
        ("count_p50_ms", count_p50_ms, "ms"),
        ("count_qps", count_qps, "1/s"),
        ("publish_p50_ms", publish_p50_ms, "ms"),
        ("publish_p90_ms", publish_p90_ms, "ms"),
        ("setup_s", setup, "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        (
            "store_bytes_per_row",
            store_bytes as f64 / rows as f64,
            "B/row",
        ),
    ];
    report.lines.push(format!(
        "{}: {} count samples in {:.2} s ({} conns, depth 1), {} publishes, {} set-ups; error_frac {error_frac} ({} of {})",
        workload.name(),
        count_samples,
        window_s,
        workload.count_conns(),
        load.publishes.lat_ms.len(),
        setup_s.len(),
        report.failed,
        report.attempted
    ));
    for (name, value, unit) in e2e {
        report
            .lines
            .push(format!("  {name:<22} {value:>14.4} {unit}"));
    }
    // Reported with the per-layer metrics: its run-to-run spread on two
    // shared cores reaches the largest bound a gate may have.
    report
        .lines
        .push(format!("  {:<22} {count_p99_ms:>14.4} ms", "count_p99_ms"));
    if !args.trace {
        for (name, value, unit) in e2e {
            report.metric(name, value, unit);
        }
        return Ok(report);
    }

    traced(
        args,
        &mut report,
        &Traced {
            prepared: &prepared,
            run_dir: &run_dir,
            snap: &snap,
            handle: &handle,
            setup_line: &setup_line,
            lines: &lines,
            queries: &queries,
            publishes: &publishes,
            load: &load,
            before: &before,
            after: &after,
            count_p50_ms,
            count_p99_ms,
            publish_p50_ms,
            setup_s: setup,
            error_frac,
        },
    )?;
    Ok(report)
}

/// Runs the workload's load against `addr`.
///
/// The window is `SLICES` count phases. Count workloads follow each phase
/// with that phase's share of the publishes, one after another, with the
/// counts paused, so both figures sample the whole run. `publish_mix` runs
/// its reader's phases beside its paced publisher.
fn drive(
    workload: Workload,
    args: &Args,
    addr: std::net::SocketAddr,
    lines: &[String],
    publishes: &[betalike_server::PublishRequest],
) -> Result<Load, String> {
    let mut load = Load::default();
    let seconds = Duration::from_secs_f64(args.seconds);
    let expected: Vec<String>;
    let mut expect: Option<&[String]> = None;
    if workload == Workload::CountHot {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        for (i, line) in lines.iter().enumerate() {
            let answer = client
                .call_raw(line)
                .map_err(|e| format!("warm count: {e}"))?;
            load.primed.push((i as u32, answer));
        }
        expected = load.primed.iter().map(|(_, a)| a.clone()).collect();
        expect = Some(&expected);
    }
    // Every 64th stream index among the first CHECKED_SAMPLES * 64 is
    // checked against the scan path.
    let keep = |i: u32| {
        workload != Workload::CountHot && i.is_multiple_of(64) && (i / 64) < CHECKED_SAMPLES as u32
    };
    let next = AtomicUsize::new(0);
    let mut conns = (0..workload.count_conns() as u64)
        .map(|c| {
            let picker = match workload {
                Workload::CountHot => {
                    Picker::Uniform(ChaCha8Rng::seed_from_u64(hot_draw_seed(args.seed, c)))
                }
                _ => Picker::Shared(&next),
            };
            CountConn::connect(addr, picker)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut publisher = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (idle, busy) = (AtomicBool::new(false), AtomicBool::new(false));
    let warm_end = Instant::now() + WARMUP;
    // Runs every count connection until `until` (and `busy` is clear).
    let counts_until = |conns: &mut Vec<CountConn<'_>>, until: Instant, busy: &AtomicBool| {
        std::thread::scope(|s| {
            let running: Vec<_> = conns
                .iter_mut()
                .map(|conn| s.spawn(|| conn.run(lines, warm_end, until, busy, &keep, expect)))
                .collect();
            running.into_iter().try_for_each(|h| {
                h.join()
                    .map_err(|_| "a count connection panicked".to_string())?
            })
        })
    };
    let offset = |t: Instant| t.saturating_duration_since(warm_end).as_secs_f64();
    // Warm-up, then SLICES count phases, each on fresh connections so the
    // server's worker assignment and the scheduler's thread placement are
    // drawn anew per phase rather than fixed for a whole run (on two
    // shared cores they set the latency level of a cached count). Calls
    // `between(k)` after phase k; the last phase also waits for `busy`.
    let phases = |conns: &mut Vec<CountConn<'_>>,
                  busy: &AtomicBool,
                  between: &mut dyn FnMut(usize) -> Result<(), String>|
     -> Result<Vec<(f64, f64)>, String> {
        counts_until(conns, warm_end, &idle)?;
        let mut slices = Vec::with_capacity(SLICES);
        for k in 0..SLICES {
            for conn in conns.iter_mut() {
                conn.reconnect(addr)?;
            }
            let from = Instant::now();
            let gate = if k + 1 == SLICES { busy } else { &idle };
            counts_until(conns, from + seconds / SLICES as u32, gate)?;
            slices.push((offset(from), offset(last_done(conns)?)));
            between(k)?;
        }
        Ok(slices)
    };
    if workload == Workload::PublishMix {
        busy.store(true, Ordering::SeqCst);
        let every = seconds / publishes.len() as u32;
        let (slices, published) = std::thread::scope(|s| {
            let publishing = s.spawn(|| {
                let done = drive_publishes(
                    &mut publisher,
                    publishes,
                    Some((warm_end, every)),
                    &mut load.publishes,
                );
                busy.store(false, Ordering::SeqCst);
                done
            });
            let slices = phases(&mut conns, &busy, &mut |_| Ok(()));
            (slices, publishing.join())
        });
        published.map_err(|_| "the publisher panicked".to_string())??;
        load.slices = slices?;
    } else {
        load.slices = phases(&mut conns, &idle, &mut |k| {
            let batch =
                &publishes[k * publishes.len() / SLICES..(k + 1) * publishes.len() / SLICES];
            drive_publishes(&mut publisher, batch, None, &mut load.publishes)
        })?;
    }
    load.counts = conns.into_iter().map(|c| c.log).collect();
    Ok(load)
}

/// When the last measured count completed, across connections.
fn last_done(conns: &[CountConn<'_>]) -> Result<Instant, String> {
    conns
        .iter()
        .filter_map(|c| c.log.last_done)
        .max()
        .ok_or_else(|| "no count completed inside the window".to_string())
}

/// The RNG seed of `count_hot` connection `c`'s draws.
fn hot_draw_seed(seed: u64, c: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(c + 1)
}

/// Everything the traced replay needs from the TCP run.
struct Traced<'a> {
    prepared: &'a std::path::Path,
    run_dir: &'a std::path::Path,
    snap: &'a betalike_store::PublicationSnapshot,
    handle: &'a str,
    setup_line: &'a str,
    lines: &'a [String],
    queries: &'a [AggQuery],
    publishes: &'a [betalike_server::PublishRequest],
    load: &'a Load,
    before: &'a server::Scrape,
    after: &'a server::Scrape,
    count_p50_ms: f64,
    count_p99_ms: f64,
    publish_p50_ms: f64,
    setup_s: f64,
    error_frac: f64,
}

/// The traced run: replays the run's inputs layer by layer, checks the
/// server's counters against the replay, and reports per-layer metrics.
fn traced(args: &Args, report: &mut Report, t: &Traced<'_>) -> Result<(), String> {
    // Server-side checks: every count request the run sent reached the
    // result cache once, and the plan counters moved exactly as much as
    // the catalog path records for the requests that missed it.
    let delta = |name: &str| t.after.health(name) - t.before.health(name);
    let (hits, misses) = (delta("result_cache_hits"), delta("result_cache_misses"));
    let sent: usize =
        t.load.counts.iter().map(|c| c.sent.len()).sum::<usize>() + t.load.primed.len();
    if (hits + misses) as usize != sent {
        report.mismatches.push(format!(
            "result cache saw {hits} hits + {misses} misses, the run sent {sent} counts"
        ));
    }
    // Stream indices never repeat within the cache's reach, so every
    // stream request missed; in `count_hot` only the warm set did.
    let missed: Vec<&AggQuery> = match args.workload {
        Workload::CountHot => t.queries.iter().collect(),
        _ => t
            .load
            .counts
            .iter()
            .flat_map(|c| c.sent.iter().map(|&i| &t.queries[i as usize]))
            .collect(),
    };
    let want = layers::plan_counts_of(t.snap, &missed)?;
    for (name, want) in layers::PLAN_COUNTERS.iter().zip(want) {
        let got = t.after.counter(name) - t.before.counter(name);
        if got != want as f64 {
            report.mismatches.push(format!(
                "server {name} moved by {got}, the replay of the same misses records {want}"
            ));
        }
    }
    report.lines.push(format!(
        "server counters: {hits} cache hits + {misses} misses = {sent} counts sent; plan counters match the replay of {} misses",
        missed.len()
    ));

    // The count path, replayed on a fixed, seed-determined sequence.
    let timed: Vec<&str> = match args.workload {
        Workload::CountHot => {
            let mut rng = ChaCha8Rng::seed_from_u64(hot_draw_seed(args.seed, 0));
            let mut seq: Vec<&str> = t.lines.iter().map(String::as_str).collect();
            seq.extend((0..REPLAY_COUNTS).map(|_| {
                use rand::Rng;
                t.lines[rng.gen_range(0..t.lines.len())].as_str()
            }));
            seq
        }
        _ => t
            .lines
            .iter()
            .take(REPLAY_COUNTS)
            .map(String::as_str)
            .collect(),
    };
    let count = layers::replay_counts(t.prepared, t.run_dir, t.snap, &[t.setup_line], &timed)?;
    let publish = layers::replay_publishes(t.prepared, t.run_dir, t.publishes)?;
    let setup = layers::replay_setup(t.prepared, t.run_dir, t.handle, SETUP_SPAWNS)?;
    let trace_path = t.run_dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let spans = Json::Obj(vec![
        ("count".into(), count.spans.clone()),
        ("publish".into(), publish.spans.clone()),
        ("setup".into(), setup.spans.clone()),
    ]);
    std::fs::write(&trace_path, spans.compact())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    report
        .lines
        .push(format!("spans written to {}", trace_path.display()));

    let ns = |name: &str| count.layer_ns.get(name).copied().unwrap_or(0.0);
    let ms = |name: &str| publish.layer_ms.get(name).copied().unwrap_or(0.0);
    let sms = |name: &str| setup.layer_ms.get(name).copied().unwrap_or(0.0);
    let respond_ns = ns("server.respond");
    let wire_client_ns = t.count_p50_ms * 1e6 - respond_ns;
    let per_query = |i: usize| count.plan[i] as f64 / count.requests as f64;
    let classified: u64 = count.plan.iter().sum();
    let pruned_frac = if classified == 0 {
        0.0
    } else {
        count.plan[0] as f64 / classified as f64
    };
    let lookups = hits + misses;
    let publish_other_ms = t.publish_p50_ms - publish.layers_sum_ms;
    let setup_layers_ms =
        sms("store.disk.open") + sms("store.disk.load") + sms("server.persist.restore");
    let process_start_ms = t.setup_s * 1e3 - setup_layers_ms;
    let saves = publish.saves.max(1) as f64;

    let per_layer: Vec<(&'static str, f64, &'static str)> = vec![
        ("server.conn.frame_ns", ns("server.conn.frame"), "ns"),
        ("microdata.json.parse_ns", ns("microdata.json.parse"), "ns"),
        ("server.wire.decode_ns", ns("server.wire.decode"), "ns"),
        ("query.catalog.plan_ns", ns("query.catalog.plan"), "ns"),
        (
            "query.published.estimate_ns",
            ns("query.published.estimate"),
            "ns",
        ),
        (
            "microdata.json.encode_ns",
            ns("microdata.json.encode"),
            "ns",
        ),
        ("server.respond_ns", respond_ns, "ns"),
        ("server.dispatch_self_ns", count.dispatch_self_ns, "ns"),
        ("wire_client_ns", wire_client_ns, "ns"),
        ("query.catalog.disjoint_per_query", per_query(0), "count"),
        ("query.catalog.full_cover_per_query", per_query(1), "count"),
        ("query.catalog.straddle_per_query", per_query(2), "count"),
        (
            "query.catalog.residual_scan_per_query",
            per_query(3),
            "count",
        ),
        ("query.catalog.pruned_frac", pruned_frac, "frac"),
        ("query.catalog.groups", count.groups as f64, "count"),
        (
            "server.result_cache.hit_frac",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "frac",
        ),
        (
            "server.op.count_p50_ns",
            t.after.histogram("op_count_latency_ns", "p50_ns"),
            "ns",
        ),
        (
            "server.op.count_p99_ns",
            t.after.histogram("op_count_latency_ns", "p99_ns"),
            "ns",
        ),
        (
            "server.artifact.publish_ms",
            ms("server.artifact.publish"),
            "ms",
        ),
        (
            "microdata.census.generate_ms",
            ms("microdata.census.generate"),
            "ms",
        ),
        ("hilbert.keys_ms", ms("hilbert.keys"), "ms"),
        ("core.bucketize_ms", ms("core.bucketize"), "ms"),
        ("core.ectree_ms", ms("core.ectree"), "ms"),
        ("core.retrieve_ms", ms("core.retrieve"), "ms"),
        ("core.burel_ms", ms("core.burel"), "ms"),
        ("core.perturb_ms", ms("core.perturb"), "ms"),
        ("baselines.sabre_ms", ms("baselines.sabre"), "ms"),
        ("baselines.mondrian_ms", ms("baselines.mondrian"), "ms"),
        ("baselines.anatomy_ms", ms("baselines.anatomy"), "ms"),
        ("query.catalog.build_ms", ms("query.catalog.build"), "ms"),
        ("metrics.audit_ms", ms("metrics.audit"), "ms"),
        (
            "server.persist.snapshot_ms",
            ms("server.persist.snapshot"),
            "ms",
        ),
        ("store.bpub.encode_ms", ms("store.bpub.encode"), "ms"),
        ("store.disk.save_ms", ms("store.disk.save"), "ms"),
        ("publish_other_ms", publish_other_ms, "ms"),
        (
            "store.disk.writes_per_save",
            publish.tally.writes as f64 / saves,
            "count",
        ),
        (
            "store.disk.fsyncs_per_save",
            publish.tally.fsyncs as f64 / saves,
            "count",
        ),
        (
            "store.disk.renames_per_save",
            publish.tally.renames as f64 / saves,
            "count",
        ),
        (
            "store.disk.bytes_written_per_save",
            publish.tally.bytes_written as f64 / saves,
            "B",
        ),
        (
            "store.disk.manifest_bytes_per_save",
            publish.tally.manifest_bytes as f64 / saves,
            "B",
        ),
        ("store.disk.open_ms", sms("store.disk.open"), "ms"),
        ("store.disk.load_ms", sms("store.disk.load"), "ms"),
        ("store.bpub.decode_ms", sms("store.bpub.decode"), "ms"),
        (
            "server.persist.restore_ms",
            sms("server.persist.restore"),
            "ms",
        ),
        ("process_start_ms", process_start_ms, "ms"),
        ("server.health.shed", t.after.health("shed"), "count"),
        (
            "store.disk.write_failures",
            t.after.health("write_failures"),
            "count",
        ),
        (
            "bench.trace_overhead_frac",
            count.trace_overhead_frac,
            "frac",
        ),
        ("error_frac", t.error_frac, "frac"),
        ("count_p99_ms", t.count_p99_ms, "ms"),
    ];

    // Reconciliation: each end-to-end figure against its layers, with the
    // remainder named.
    report.lines.push(format!(
        "reconcile count_p50 {:.0} ns = server.respond {:.0} [= parts {:.0} + dispatch_self {:.0} + median gap {:.0}] + wire_client {:.0} (server.conn.frame {:.0} is inside wire_client)",
        t.count_p50_ms * 1e6,
        respond_ns,
        count.parts_ns,
        count.dispatch_self_ns,
        respond_ns - count.parts_ns - count.dispatch_self_ns,
        wire_client_ns,
        ns("server.conn.frame"),
    ));
    report.lines.push(format!(
        "reconcile publish_p50 {:.3} ms = artifact.publish {:.3} + audit {:.3} + snapshot {:.3} + disk.save {:.3} (median per-publish sum {:.3}) + publish_other {:.3}",
        t.publish_p50_ms,
        ms("server.artifact.publish"),
        ms("metrics.audit"),
        ms("server.persist.snapshot"),
        ms("store.disk.save"),
        publish.layers_sum_ms,
        publish_other_ms
    ));
    for (scheme, layers) in &publish.by_scheme {
        let row: Vec<String> = layers.iter().map(|(n, v)| format!("{n} {v:.3}")).collect();
        report.lines.push(format!("  {scheme}: {}", row.join(", ")));
    }
    report.lines.push(format!(
        "reconcile setup_s {:.3} ms = disk.open {:.3} + disk.load {:.3} (decode {:.3}) + persist.restore {:.3} + process_start {:.3}",
        t.setup_s * 1e3,
        sms("store.disk.open"),
        sms("store.disk.load"),
        sms("store.bpub.decode"),
        sms("server.persist.restore"),
        process_start_ms
    ));
    for (name, value, unit) in per_layer {
        report
            .lines
            .push(format!("  {name:<40} {value:>16.4} {unit}"));
        report.metric(name, value, unit);
    }
    Ok(())
}
