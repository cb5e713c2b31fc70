//! `betalike-serve` — the resident publication server.
//!
//! ```text
//! betalike-serve [--addr HOST:PORT] [--threads N] [--preload SPEC]
//!                [--data-dir DIR] [--queue N] [--read-timeout-ms MS]
//!                [--idle-timeout-ms MS] [--request-timeout-ms MS]
//!                [--result-cache N] [--no-obs]
//!                [--log-level LEVEL] [--log-json] [--slow-query-ms MS]
//!                [--max-line-bytes N]
//! ```
//!
//! * `--addr` defaults to `127.0.0.1:7878`; port `0` binds an ephemeral
//!   port. Once bound, the server prints `LISTENING <addr>` on stdout (the
//!   CI smoke script scrapes this line to find the port).
//! * `--threads` sizes the worker pool (default `max(8, cores)`). Each
//!   worker owns one connection until the client disconnects and answers
//!   its requests in order; a client may *pipeline* — write many request
//!   lines before reading — and gets the responses back in request order
//!   with `trace_id`s echoed for pairing. See DESIGN.md §15 and
//!   docs/WIRE.md "Pipelining".
//! * `--preload` materializes a dataset before accepting traffic, e.g.
//!   `census:10000:42`, `patients`, `synthetic:1000:7`.
//! * `--data-dir` enables durable publications: fresh publishes are
//!   written through to `DIR/artifacts/` and handles published by earlier
//!   processes are lazily loaded and served bit-identically — no
//!   recomputation on restart. Inspect the directory offline with
//!   `betalike-store`.
//! * `--queue` bounds the admission queue (default 64): connections
//!   beyond busy workers + queue are refused with one retryable
//!   `overloaded` error line instead of piling up unread.
//! * `--read-timeout-ms` sets the worker read poll tick (default 200) —
//!   the shutdown-latency bound and the resolution of the two timeouts
//!   below. `--idle-timeout-ms` closes connections idle between requests
//!   (0 = never, the default); `--request-timeout-ms` bounds how long a
//!   started request line may take to finish (0 = never), answering a
//!   retryable `deadline` error on expiry. See DESIGN.md §12.
//! * `--result-cache` caps the per-process `count` result cache in
//!   entries (default 1024; `0` disables it). Hits replay the stored
//!   response byte-identically; `health` reports hit/miss/size gauges.
//! * `--no-obs` turns request *timings* off: per-op latency histograms,
//!   pipeline spans, and the slow-query log stop reading the clock.
//!   Counters and gauges (`health`, `metrics`) still update, and
//!   responses are byte-identical either way (see DESIGN.md §14).
//! * `--log-level` sets the structured stderr log level
//!   (`off | error | warn | info | debug`; default `warn`, or the
//!   `BETALIKE_LOG` environment variable when set). `--log-json` emits
//!   one JSON object per line instead of `key=value` text.
//! * `--slow-query-ms` logs one `warn` line, with the request's per-span
//!   timing breakdown, for every request slower than MS milliseconds
//!   (`0`, the default, disables the slow-query log).
//! * `--max-line-bytes` bounds a request line (default 1 MiB). An
//!   oversized line is answered with one parseable fatal `too_large`
//!   error and the connection closes.
//!
//! Each timing/queue flag also reads an environment fallback when the
//! flag is absent: `BETALIKE_READ_TIMEOUT_MS`, `BETALIKE_IDLE_TIMEOUT_MS`,
//! `BETALIKE_REQUEST_TIMEOUT_MS`, `BETALIKE_QUEUE`,
//! `BETALIKE_RESULT_CACHE`, `BETALIKE_SLOW_QUERY_MS`,
//! `BETALIKE_MAX_LINE_BYTES` — so a supervisor
//! can retune a deployment without editing its unit files.
//!
//! The process runs until a client sends `{"op":"shutdown"}`.

use betalike_obs::{Level, Logger};
use betalike_server::{serve, DatasetSpec, ServerConfig};
use std::io::Write;

/// The flag value, or its `BETALIKE_*` environment fallback, parsed — a
/// malformed value from either source is a usage error (exit 2).
fn numeric(flag: &str, env: &str, cli: Option<String>) -> u64 {
    let (source, text) = match cli {
        Some(text) => (flag.to_string(), text),
        None => match std::env::var(env) {
            Ok(text) => (env.to_string(), text),
            Err(_) => return 0,
        },
    };
    text.parse().unwrap_or_else(|_| {
        eprintln!("{source} expects a non-negative number, got `{text}`");
        std::process::exit(2);
    })
}

fn main() {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7878".into(),
        ..Default::default()
    };
    let mut read_timeout = None;
    let mut idle_timeout = None;
    let mut request_timeout = None;
    let mut queue = None;
    let mut result_cache = None;
    let mut slow_query = None;
    let mut max_line_bytes = None;
    cfg.log_level = Logger::level_from_env().unwrap_or(Level::Warn);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} expects a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--threads" => {
                cfg.threads = value("--threads").parse().unwrap_or_else(|_| {
                    eprintln!("--threads expects a number");
                    std::process::exit(2);
                })
            }
            "--preload" => match DatasetSpec::parse_cli(&value("--preload")) {
                Ok(spec) => cfg.preload = Some(spec),
                Err(e) => {
                    eprintln!("--preload: {e}");
                    std::process::exit(2);
                }
            },
            "--data-dir" => cfg.data_dir = Some(value("--data-dir").into()),
            "--read-timeout-ms" => read_timeout = Some(value("--read-timeout-ms")),
            "--idle-timeout-ms" => idle_timeout = Some(value("--idle-timeout-ms")),
            "--request-timeout-ms" => request_timeout = Some(value("--request-timeout-ms")),
            "--queue" => queue = Some(value("--queue")),
            "--result-cache" => result_cache = Some(value("--result-cache")),
            "--no-obs" => cfg.obs = false,
            "--log-level" => {
                let text = value("--log-level");
                cfg.log_level = Level::parse(&text).unwrap_or_else(|| {
                    eprintln!("--log-level expects off|error|warn|info|debug, got `{text}`");
                    std::process::exit(2);
                })
            }
            "--log-json" => cfg.log_json = true,
            "--slow-query-ms" => slow_query = Some(value("--slow-query-ms")),
            "--max-line-bytes" => max_line_bytes = Some(value("--max-line-bytes")),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: betalike-serve [--addr HOST:PORT] [--threads N] [--preload SPEC] \
                     [--data-dir DIR] [--queue N] [--read-timeout-ms MS] [--idle-timeout-ms MS] \
                     [--request-timeout-ms MS] [--result-cache N] [--no-obs] \
                     [--log-level LEVEL] [--log-json] [--slow-query-ms MS] [--max-line-bytes N]"
                );
                std::process::exit(2);
            }
        }
    }
    cfg.read_timeout_ms = numeric(
        "--read-timeout-ms",
        "BETALIKE_READ_TIMEOUT_MS",
        read_timeout,
    );
    cfg.idle_timeout_ms = numeric(
        "--idle-timeout-ms",
        "BETALIKE_IDLE_TIMEOUT_MS",
        idle_timeout,
    );
    cfg.request_timeout_ms = numeric(
        "--request-timeout-ms",
        "BETALIKE_REQUEST_TIMEOUT_MS",
        request_timeout,
    );
    cfg.queue = numeric("--queue", "BETALIKE_QUEUE", queue) as usize;
    cfg.slow_query_ms = numeric("--slow-query-ms", "BETALIKE_SLOW_QUERY_MS", slow_query);
    cfg.max_line_bytes = numeric(
        "--max-line-bytes",
        "BETALIKE_MAX_LINE_BYTES",
        max_line_bytes,
    ) as usize;
    // Unlike the flags above, the cache default is non-zero (`0` means
    // *disabled*), so only an explicit flag or environment value overrides.
    if result_cache.is_some() || std::env::var("BETALIKE_RESULT_CACHE").is_ok() {
        cfg.result_cache =
            numeric("--result-cache", "BETALIKE_RESULT_CACHE", result_cache) as usize;
    }
    let handle = match serve(&cfg) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    // The contract with scripts: exactly one LISTENING line, flushed before
    // any client could need it.
    println!("LISTENING {}", handle.addr());
    let _ = std::io::stdout().flush();
    handle.join();
    println!("server stopped");
}
