//! `betalike-serve`'s configuration precedence, read back from `health`:
//! a `BETALIKE_*` environment fallback sets a value, its flag beats it,
//! and a malformed value is a usage error (exit 2).

use betalike_server::Client;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn serve(env: (&str, &str), args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_betalike-serve"));
    cmd.env_remove("BETALIKE_QUEUE")
        .env_remove("BETALIKE_RESULT_CACHE")
        .env(env.0, env.1)
        .args(["--addr", "127.0.0.1:0", "--threads", "1"])
        .args(args)
        .stderr(Stdio::null());
    cmd
}

/// The `health` member `field` of a server started with `env` and `args`.
fn health_field(env: (&str, &str), args: &[&str], field: &str) -> f64 {
    let mut child = serve(env, args).stdout(Stdio::piped()).spawn().unwrap();
    // Kept open until exit: the server prints again as it stops.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let mut client = Client::connect(line.trim().strip_prefix("LISTENING ").unwrap()).unwrap();
    let value = client.health().unwrap().get(field).unwrap().as_f64();
    client.shutdown_server().unwrap();
    assert!(child.wait().unwrap().success());
    value.unwrap()
}

#[test]
fn flags_beat_environment_fallbacks_and_bad_values_exit_2() {
    let queue = ("BETALIKE_QUEUE", "3");
    assert_eq!(health_field(queue, &[], "queue_capacity"), 3.0);
    assert_eq!(
        health_field(queue, &["--queue", "5"], "queue_capacity"),
        5.0
    );
    let cache = ("BETALIKE_RESULT_CACHE", "0");
    assert_eq!(health_field(cache, &[], "result_cache_capacity"), 0.0);
    let status = serve(("BETALIKE_QUEUE", "x"), &[]).status().unwrap();
    assert_eq!(status.code(), Some(2));
}
