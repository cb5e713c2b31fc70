//! `betalike-client` — a command-line client for `betalike-serve`.
//!
//! ```text
//! betalike-client --addr HOST:PORT [--retries N] [--retry-seed S] <command> [flags]
//!
//! commands:
//!   ping                       round-trip a ping
//!   datasets                   list loaded datasets, resident published
//!                              handles, and stored handles
//!   publish                    publish a dataset; prints the handle
//!     --dataset SPEC           census[:ROWS[:SEED]] | patients | synthetic[:ROWS[:SEED]]
//!     --algo NAME              burel | sabre | mondrian | anatomy | perturb
//!     --qi N --beta B --t T --seed S
//!   count                      one COUNT(*) query against a handle
//!     --handle H [--pred A:LO:HI]... --sa LO:HI [--exact]
//!   audit --handle H           the privacy audit of a handle
//!   verify --handle H          the independent conformance oracle's
//!     [--battery]              verdict (plus the attack battery); exit 1
//!                              if the artifact fails
//!   health                     the server's health document: status,
//!                              queue depth, shed count, store state
//!   metrics                    the server's metrics snapshot as
//!                              Prometheus exposition text (counters,
//!                              gauges, per-op latency histograms with
//!                              p50/p99/p999); `--json` prints the raw
//!                              reply document instead
//!   smoke [--rows N]           full publish → count → audit round trip,
//!                              cross-checked bit-for-bit against the same
//!                              computation done in-process; non-zero exit
//!                              on any mismatch (the CI server-smoke step),
//!                              naming the op that failed
//!   pipeline                   write a batch of requests without waiting
//!     [--depth N]              (depth per connection, default 32) and
//!     [--clients N]            assert the pipelined responses are
//!                              byte-identical to a serial connection's,
//!                              arrive in request order, and pair 1:1 by
//!                              `trace_id`; `--clients` runs N such
//!                              connections concurrently (default 1) —
//!                              the CI pipeline-stress step. See
//!                              docs/WIRE.md "Pipelining".
//!   shutdown                   stop the server
//!
//! `--retries N` re-runs a command up to N extra times when the failure is
//! *retryable* — the server answered `overloaded` / `degraded` /
//! `deadline`, or closed the connection (a restart) — reconnecting before
//! each attempt and backing off with the deterministic jittered schedule
//! of `betalike_faults::RetryPolicy` (`--retry-seed` picks the jitter
//! stream, default 0). Fatal rejections and mismatches never retry.
//!
//! exit codes:
//!   0  success
//!   1  runtime error (connect failure, server-side rejection, mismatch,
//!      retryable refusals still failing after the retry budget)
//!   2  usage error (unknown command, missing or malformed flags) —
//!      reported before any connection is opened
//!   3  the server closed the connection before or during a response
//!      (after exhausting any retry budget)
//! ```

use betalike::model::BetaLikeness;
use betalike::{burel, perturb, BurelConfig};
use betalike_faults::{RetryPolicy, Sleeper, ThreadSleeper};
use betalike_metrics::audit::audit_partition;
use betalike_microdata::census::{self, CensusConfig};
use betalike_microdata::json::Json;
use betalike_query::{generate_workload, AggQuery, PublishedAnswerer, RangePred, WorkloadConfig};
use betalike_server::artifact::AUDIT_METRIC;
use betalike_server::{Algo, Client, ClientError, CountRequest, DatasetSpec, PublishRequest};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Exit code for a usage error — unknown command, missing or malformed
/// flags. Distinct from runtime errors (1) so scripts can tell "my
/// invocation is wrong, retrying is pointless" from "the server rejected
/// this request". Usage errors are reported before any connection is
/// opened: whether the invocation parses must not depend on whether a
/// server happens to be reachable.
const EXIT_USAGE: i32 = 2;

/// Exit code for a connection the server closed before or mid-response —
/// scripts can tell "server went away" (retry / restart) from "request was
/// wrong" without scraping messages.
const EXIT_DISCONNECTED: i32 = 3;

/// A failure with the process exit code it maps to, and whether a
/// reconnect-and-retry could clear it (drives `--retries`).
struct Failure {
    message: String,
    code: i32,
    retryable: bool,
}

impl Failure {
    fn usage(message: impl Into<String>) -> Self {
        Failure {
            message: message.into(),
            code: EXIT_USAGE,
            retryable: false,
        }
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure {
            message,
            code: 1,
            retryable: false,
        }
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Failure::from(message.to_string())
    }
}

/// Maps a client error during `op` to a [`Failure`], naming the op,
/// giving mid-response disconnections their distinct exit code, and
/// carrying the wire-level retryable classification through.
fn op_failed(op: &str) -> impl Fn(ClientError) -> Failure + '_ {
    move |e| Failure {
        code: match e {
            ClientError::Disconnected(_) => EXIT_DISCONNECTED,
            _ => 1,
        },
        retryable: e.is_retryable(),
        message: format!("op `{op}` failed: {e}"),
    }
}

fn main() {
    let result = run();
    let code = exit_code(&result);
    if let Err(Failure { message, .. }) = result {
        eprintln!("betalike-client: {message}");
    }
    std::process::exit(code);
}

/// The single place the documented exit-code contract is realized — the
/// per-code unit tests drive this.
fn exit_code(result: &Result<(), Failure>) -> i32 {
    match result {
        Ok(()) => 0,
        Err(f) => f.code,
    }
}

struct Args {
    command: String,
    flags: BTreeMap<String, Vec<String>>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut command = None;
        let mut flags: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if key == "exact" || key == "battery" || key == "json" {
                    flags.entry(key.into()).or_default().push("true".into());
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{key} expects a value"))?;
                flags.entry(key.into()).or_default().push(value);
            } else if command.is_none() {
                command = Some(arg);
            } else {
                return Err(format!("unexpected positional argument `{arg}`"));
            }
        }
        Ok(Args {
            command: command
                .ok_or_else(|| format!("no command (expected one of: {})", COMMANDS.join(" | ")))?,
            flags,
        })
    }

    fn one(&self, key: &str) -> Option<&str> {
        self.flags
            .get(key)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.one(key).ok_or_else(|| format!("--{key} is required"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.one(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number `{v}`")),
        }
    }
}

/// Every command the client understands, in the order the doc header
/// lists them. Checked before any connection is opened so an unknown
/// command is a usage error regardless of whether a server is reachable.
const COMMANDS: &[&str] = &[
    "ping", "datasets", "publish", "count", "audit", "verify", "health", "metrics", "smoke",
    "pipeline", "shutdown",
];

/// Dials `addr` and runs one command attempt per fresh connection,
/// re-running *retryable* failures with the policy's deterministic
/// jittered backoff. Connect failures are fatal — "nothing is listening"
/// is not an overload signal — and the last attempt's failure is returned
/// as-is, so exit codes (1 vs 3) survive the retry wrapper.
fn attempt(
    addr: &str,
    policy: &RetryPolicy,
    mut f: impl FnMut(&mut Client) -> Result<(), Failure>,
) -> Result<(), Failure> {
    let attempts = policy.max_attempts.max(1);
    for attempt in 1..=attempts {
        let mut client =
            Client::connect(addr).map_err(|e| Failure::from(format!("connect {addr}: {e}")))?;
        match f(&mut client) {
            Ok(()) => return Ok(()),
            Err(failure) => {
                if attempt >= attempts || !failure.retryable {
                    return Err(failure);
                }
                eprintln!(
                    "betalike-client: attempt {attempt}/{attempts} failed retryably \
                     ({}); backing off",
                    failure.message
                );
                ThreadSleeper.sleep(Duration::from_millis(policy.delay_ms(attempt)));
            }
        }
    }
    Err(Failure::from("retry loop made no attempt"))
}

fn run() -> Result<(), Failure> {
    let args = Args::parse().map_err(Failure::usage)?;
    if !COMMANDS.contains(&args.command.as_str()) {
        return Err(Failure::usage(format!(
            "unknown command `{}` (expected one of: {})",
            args.command,
            COMMANDS.join(" | ")
        )));
    }
    let addr = args.required("addr").map_err(Failure::usage)?;
    let retries: u32 = args.num("retries", 0u32).map_err(Failure::usage)?;
    let retry_seed: u64 = args.num("retry-seed", 0u64).map_err(Failure::usage)?;
    let policy = RetryPolicy::standard(retries.saturating_add(1), retry_seed);
    match args.command.as_str() {
        "ping" => attempt(addr, &policy, |client| {
            client.ping().map_err(op_failed("ping"))?;
            println!("pong");
            Ok(())
        }),
        "datasets" => attempt(addr, &policy, |client| {
            let doc = client.datasets().map_err(op_failed("datasets"))?;
            println!("{}", doc.pretty());
            Ok(())
        }),
        "publish" => {
            let request = publish_request(&args).map_err(Failure::usage)?;
            attempt(addr, &policy, |client| {
                let reply = client.publish(&request).map_err(op_failed("publish"))?;
                println!(
                    "{} kind={} cached={}{}",
                    reply.handle,
                    reply.kind,
                    reply.cached,
                    reply.ecs.map(|n| format!(" ecs={n}")).unwrap_or_default()
                );
                Ok(())
            })
        }
        "count" => {
            let request = count_request(&args).map_err(Failure::usage)?;
            attempt(addr, &policy, |client| {
                let reply = client.count(&request).map_err(op_failed("count"))?;
                match reply.exact {
                    Some(exact) => println!("estimate={} exact={exact}", reply.estimate),
                    None => println!("estimate={}", reply.estimate),
                }
                Ok(())
            })
        }
        "audit" => {
            let handle = args.required("handle").map_err(Failure::usage)?;
            attempt(addr, &policy, |client| {
                let doc = client.audit(handle).map_err(op_failed("audit"))?;
                println!("{}", doc.pretty());
                Ok(())
            })
        }
        "verify" => {
            let handle = args.required("handle").map_err(Failure::usage)?;
            let battery = args.one("battery").is_some();
            attempt(addr, &policy, |client| {
                let doc = client
                    .verify(handle, battery)
                    .map_err(op_failed("verify"))?;
                println!("{}", doc.pretty());
                let pass = doc.get("pass").and_then(Json::as_bool).unwrap_or(false);
                let battery_pass = doc
                    .get("battery_pass")
                    .and_then(Json::as_bool)
                    .unwrap_or(true);
                if !(pass && battery_pass) {
                    return Err(Failure::from("artifact failed conformance verification"));
                }
                Ok(())
            })
        }
        "health" => attempt(addr, &policy, |client| {
            let doc = client.health().map_err(op_failed("health"))?;
            println!("{}", doc.pretty());
            Ok(())
        }),
        "metrics" => {
            let raw = args.one("json").is_some();
            attempt(addr, &policy, |client| {
                let doc = client.metrics().map_err(op_failed("metrics"))?;
                if raw {
                    println!("{}", doc.pretty());
                } else {
                    // The scrape format: what a Prometheus exporter serves.
                    match doc.get("prometheus").and_then(Json::as_str) {
                        Some(text) => print!("{text}"),
                        None => return Err(Failure::from("metrics reply missing `prometheus`")),
                    }
                }
                Ok(())
            })
        }
        // The smoke is idempotent end to end (publishes are
        // content-addressed), so the whole round trip re-runs per attempt.
        "smoke" => {
            let rows = args.num("rows", 2_000usize).map_err(Failure::usage)?;
            attempt(addr, &policy, |client| smoke(client, rows))
        }
        "pipeline" => {
            let depth = args.num("depth", 32usize).map_err(Failure::usage)?;
            let clients = args.num("clients", 1usize).map_err(Failure::usage)?;
            if depth == 0 || clients == 0 {
                return Err(Failure::usage("--depth and --clients must be at least 1"));
            }
            pipeline_stress(addr, depth, clients)
        }
        "shutdown" => attempt(addr, &policy, |client| {
            client.shutdown_server().map_err(op_failed("shutdown"))?;
            println!("server stopping");
            Ok(())
        }),
        // Unreachable: the command was validated against COMMANDS above.
        other => Err(Failure::usage(format!("unknown command `{other}`"))),
    }
}

/// The deterministic request mix one pipelined connection sends: pings,
/// `datasets` listings, and a `count` against an unknown handle (a
/// deterministic *error* response, so ordering is checked across the
/// error path too), each tagged with a unique `trace_id`.
fn pipeline_requests(client_id: usize, depth: usize) -> Vec<String> {
    (0..depth)
        .map(|i| {
            let trace = format!("c{client_id}-{i}");
            match i % 3 {
                0 => format!("{{\"op\":\"ping\",\"trace_id\":\"{trace}\"}}"),
                1 => format!("{{\"op\":\"datasets\",\"trace_id\":\"{trace}\"}}"),
                _ => format!(
                    "{{\"op\":\"count\",\"handle\":\"no-such-handle\",\
                     \"sa\":{{\"lo\":0,\"hi\":1}},\"trace_id\":\"{trace}\"}}"
                ),
            }
        })
        .collect()
}

/// One connection's pipelining check: the batch of `depth` requests is
/// first answered serially (one call, one read) for a reference
/// transcript, then written all at once — the responses must come back
/// byte-identical, in request order, each echoing its request's
/// `trace_id`.
///
/// The serial connection is closed before the pipelined one opens. A
/// server worker keeps its connection until the client hangs up, so a
/// client holding both would pin a worker with an idle connection while
/// its second one waits in the admission queue; with `clients >= threads`
/// every worker ends up pinned that way and nothing progresses.
fn pipeline_once(addr: &str, client_id: usize, depth: usize) -> Result<(), Failure> {
    let lines = pipeline_requests(client_id, depth);
    let mut serial =
        Client::connect(addr).map_err(|e| Failure::from(format!("connect {addr}: {e}")))?;
    let mut reference = Vec::with_capacity(depth);
    for line in &lines {
        reference.push(serial.call_raw(line).map_err(|e| {
            Failure::from(format!("client {client_id}: serial reference failed: {e}"))
        })?);
    }
    drop(serial);
    let mut piped =
        Client::connect(addr).map_err(|e| Failure::from(format!("connect {addr}: {e}")))?;
    let answers = piped
        .pipeline_raw(&lines)
        .map_err(|e| Failure::from(format!("client {client_id}: pipelined batch failed: {e}")))?;
    for (i, (got, want)) in answers.iter().zip(&reference).enumerate() {
        if got != want {
            return Err(Failure::from(format!(
                "client {client_id}: response {i} diverged from the serial transcript:\n  \
                 pipelined: {got}\n  serial:    {want}"
            )));
        }
        let trace = Json::parse(got)
            .ok()
            .and_then(|doc| doc.get("trace_id").and_then(Json::as_str).map(String::from))
            .unwrap_or_default();
        let expected = format!("c{client_id}-{i}");
        if trace != expected {
            return Err(Failure::from(format!(
                "client {client_id}: response {i} echoes trace_id `{trace}`, expected \
                 `{expected}` — responses are out of request order"
            )));
        }
    }
    Ok(())
}

/// `clients` concurrent connections, each pipelining `depth` requests
/// and checking its own transcript — the CI pipeline-stress workload.
/// Concurrency goes through the workspace pool (one worker per client)
/// so thread creation stays centrally controlled.
fn pipeline_stress(addr: &str, depth: usize, clients: usize) -> Result<(), Failure> {
    mini_rayon::set_threads(clients.clamp(1, 64));
    let ids: Vec<usize> = (0..clients).collect();
    let results = mini_rayon::par_map(&ids, |&id| pipeline_once(addr, id, depth));
    if let Some(first) = results.into_iter().find_map(Result::err) {
        return Err(first);
    }
    println!("PIPELINE OK: {clients} clients x depth {depth} byte-identical and in order");
    Ok(())
}

fn publish_request(args: &Args) -> Result<PublishRequest, String> {
    let dataset = DatasetSpec::parse_cli(args.one("dataset").unwrap_or("census"))?;
    let algo = Algo::parse(args.one("algo").unwrap_or("burel"))?;
    Ok(PublishRequest {
        dataset,
        algo,
        qi: args.num("qi", 3usize)?,
        beta: args.num("beta", 4.0f64)?,
        t: args.num("t", 0.2f64)?,
        seed: args.num("seed", 42u64)?,
    }
    .normalized())
}

fn count_request(args: &Args) -> Result<CountRequest, String> {
    let triple = |text: &str| -> Result<Vec<u32>, String> {
        text.split(':')
            .map(|p| p.parse().map_err(|_| format!("bad code `{p}` in `{text}`")))
            .collect()
    };
    let mut qi_preds = Vec::new();
    for pred in args.flags.get("pred").map(Vec::as_slice).unwrap_or(&[]) {
        match triple(pred)?.as_slice() {
            &[attr, lo, hi] => qi_preds.push(RangePred {
                attr: attr as usize,
                lo,
                hi,
            }),
            _ => return Err(format!("--pred expects A:LO:HI, got `{pred}`")),
        }
    }
    let sa = triple(args.required("sa")?)?;
    let &[sa_lo, sa_hi] = sa.as_slice() else {
        return Err("--sa expects LO:HI".into());
    };
    Ok(CountRequest {
        handle: args.required("handle")?.to_string(),
        qi_preds,
        sa_lo,
        sa_hi,
        exact: args.one("exact").is_some(),
    })
}

/// The CI round trip: publish BUREL and perturbation artifacts over TCP,
/// then verify every served count, exact count and audit field is
/// bit-identical to the same computation done in this process. Every
/// failure names the op that broke (and mismatches name the query), so a
/// red CI smoke points at the offending request, not just "smoke failed".
fn smoke(client: &mut Client, rows: usize) -> Result<(), Failure> {
    client.ping().map_err(op_failed("ping"))?;

    let dataset = DatasetSpec::Census { rows, seed: 42 };
    let table = Arc::new(census::generate(&CensusConfig::new(rows, 42)));
    let qi: Vec<usize> = (0..3).collect();
    let sa = census::attr::SALARY;
    let queries = generate_workload(
        &table,
        &WorkloadConfig {
            qi_pool: qi.clone(),
            sa,
            lambda: 2,
            theta: 0.15,
            num_queries: 40,
            seed: 7,
        },
    );

    // BUREL over TCP vs in process.
    let request = PublishRequest::new(dataset.clone(), Algo::Burel);
    let reply = client
        .publish(&request)
        .map_err(op_failed("publish burel"))?;
    let partition = burel(
        &table,
        &qi,
        sa,
        &BurelConfig::new(request.beta).with_seed(request.seed),
    )
    .map_err(|e| Failure::from(e.to_string()))?;
    let answerer = PublishedAnswerer::generalized(Arc::clone(&table), &partition);
    if reply.ecs != Some(partition.num_ecs() as u64) {
        return Err(Failure::from(format!(
            "op `publish burel` answer mismatch: served {:?} ECs, local {}",
            reply.ecs,
            partition.num_ecs()
        )));
    }
    check_counts(client, "count (burel)", &reply.handle, &answerer, &queries)?;

    // Audit fields, bitwise.
    let served = client
        .audit(&reply.handle)
        .map_err(op_failed("audit (burel)"))?;
    let local = audit_partition(&table, &partition, AUDIT_METRIC);
    for (key, want) in [
        ("max_beta", local.max_beta),
        ("avg_beta", local.avg_beta),
        ("max_closeness", local.max_closeness),
        ("avg_closeness", local.avg_closeness),
        ("min_ec_size", local.min_ec_size as f64),
        ("num_ecs", local.num_ecs as f64),
    ] {
        let got = served
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| Failure::from(format!("audit reply missing `{key}`")))?;
        if got.to_bits() != want.to_bits() {
            return Err(Failure::from(format!(
                "op `audit (burel)` mismatch on `{key}`: served {got}, local {want}"
            )));
        }
    }

    // Perturbation over TCP vs in process.
    let request = PublishRequest::new(dataset.clone(), Algo::Perturb);
    let reply = client
        .publish(&request)
        .map_err(op_failed("publish perturb"))?;
    let model = BetaLikeness::new(request.beta).map_err(|e| Failure::from(e.to_string()))?;
    let published =
        perturb(&table, sa, &model, request.seed).map_err(|e| Failure::from(e.to_string()))?;
    let answerer = PublishedAnswerer::perturbed(Arc::clone(&table), published);
    check_counts(
        client,
        "count (perturb)",
        &reply.handle,
        &answerer,
        &queries,
    )?;

    // A republish must be a cache hit on the same handle.
    let again = client
        .publish(&PublishRequest::new(dataset, Algo::Burel))
        .map_err(op_failed("republish burel"))?;
    if !again.cached {
        return Err(Failure::from(
            "op `republish burel`: not served from the artifact cache",
        ));
    }

    println!(
        "SMOKE OK: {} queries x 2 schemes bit-identical over TCP (census {rows} rows)",
        queries.len()
    );
    Ok(())
}

fn check_counts(
    client: &mut Client,
    op: &str,
    handle: &str,
    answerer: &PublishedAnswerer,
    queries: &[AggQuery],
) -> Result<(), Failure> {
    for query in queries {
        let request = CountRequest {
            handle: handle.to_string(),
            qi_preds: query.qi_preds.clone(),
            sa_lo: query.sa_pred.lo,
            sa_hi: query.sa_pred.hi,
            exact: true,
        };
        let served = client.count(&request).map_err(op_failed(op))?;
        let local = answerer
            .estimate(query)
            .map_err(|e| Failure::from(e.to_string()))?;
        if served.estimate.to_bits() != local.to_bits() {
            return Err(Failure::from(format!(
                "op `{op}` estimate mismatch on {query:?}: served {}, local {local}",
                served.estimate
            )));
        }
        let exact = answerer.exact(query);
        if served.exact != Some(exact) {
            return Err(Failure::from(format!(
                "op `{op}` exact mismatch on {query:?}: served {:?}, local {exact}",
                served.exact
            )));
        }
    }
    Ok(())
}

// One test per documented exit code, all driven through `exit_code` — the
// same function `main` uses — so the doc-header contract cannot drift
// from the implementation silently.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_exits_0() {
        assert_eq!(exit_code(&Ok(())), 0);
    }

    #[test]
    fn runtime_errors_exit_1() {
        let rejection = op_failed("publish")(ClientError::Server("β out of range".into()));
        assert_eq!(exit_code(&Err(rejection)), 1);
        let mismatch = Failure::from("op `count` estimate mismatch".to_string());
        assert_eq!(exit_code(&Err(mismatch)), 1);
    }

    #[test]
    fn usage_errors_exit_2() {
        assert_eq!(exit_code(&Err(Failure::usage("unknown command `pong`"))), 2);
        assert_eq!(EXIT_USAGE, 2);
    }

    #[test]
    fn disconnects_exit_3() {
        let gone = op_failed("count")(ClientError::Disconnected("mid-response close".into()));
        assert_eq!(exit_code(&Err(gone)), EXIT_DISCONNECTED);
        assert_eq!(EXIT_DISCONNECTED, 3);
    }

    #[test]
    fn unknown_commands_are_usage_errors_and_name_the_roster() {
        // The roster the error message offers must be exactly the command
        // set `run` accepts (every arm in its match).
        for cmd in COMMANDS {
            assert!([
                "ping", "datasets", "publish", "count", "audit", "verify", "health", "metrics",
                "smoke", "pipeline", "shutdown"
            ]
            .contains(cmd));
        }
    }

    #[test]
    fn io_errors_are_runtime_not_disconnect() {
        let io = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "reset");
        assert_eq!(exit_code(&Err(op_failed("ping")(ClientError::Io(io)))), 1);
    }

    #[test]
    fn retryable_classification_flows_into_failures() {
        // Wire-level retryable refusals drive `--retries`; fatal
        // rejections and local mismatches never do.
        let shed = op_failed("publish")(ClientError::Retryable {
            code: "overloaded".into(),
            message: "queue full".into(),
        });
        assert!(shed.retryable);
        assert_eq!(exit_code(&Err(shed)), 1);
        let gone = op_failed("count")(ClientError::Disconnected("mid-response".into()));
        assert!(gone.retryable, "a restarting server is worth re-dialing");
        assert!(!op_failed("publish")(ClientError::Server("β out of range".into())).retryable);
        assert!(!Failure::from("op `count` estimate mismatch").retryable);
        assert!(!Failure::usage("unknown flag").retryable);
    }
}
