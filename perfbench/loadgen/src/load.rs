//! Closed-loop TCP load: count connections and the publisher.

use betalike_microdata::json::Json;
use betalike_server::{Client, PublishRequest};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How a count connection picks its next request.
#[derive(Debug)]
pub enum Picker<'a> {
    /// The next index of a stream shared by every connection, wrapping at
    /// the stream's length.
    Shared(&'a AtomicUsize),
    /// Uniform draws from the whole line set.
    Uniform(ChaCha8Rng),
}

/// What one count connection did.
#[derive(Debug, Default)]
pub struct CountLog {
    /// Every line index sent, in order (warm-up included).
    pub sent: Vec<u32>,
    /// `(start, latency)` of requests started inside the window: seconds
    /// after warm-up ended, and nanoseconds.
    pub measured: Vec<(f64, f64)>,
    /// When the last measured request completed.
    pub last_done: Option<Instant>,
    /// Non-`ok` answers.
    pub errors: usize,
    /// `(index, response)` of answers kept for checking.
    pub kept: Vec<(u32, String)>,
    /// Answers that differ from the expected line.
    pub mismatches: Vec<String>,
}

/// One closed-loop count connection at depth 1.
#[derive(Debug)]
pub struct CountConn<'a> {
    client: Client,
    picker: Picker<'a>,
    /// What the connection did so far.
    pub log: CountLog,
}

impl<'a> CountConn<'a> {
    /// Connects.
    pub fn connect(addr: SocketAddr, picker: Picker<'a>) -> Result<Self, String> {
        Ok(CountConn {
            client: Client::connect(addr).map_err(|e| format!("connect: {e}"))?,
            picker,
            log: CountLog::default(),
        })
    }

    /// Replaces the connection with a fresh one (the server hands it to
    /// whichever worker is free).
    pub fn reconnect(&mut self, addr: SocketAddr) -> Result<(), String> {
        self.client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        Ok(())
    }

    /// Sends counts from `lines` until `until` has passed and `busy` is
    /// clear. Requests started at or after `warm_end` are measured. Keeps
    /// the responses of indices `keep` accepts, and compares every
    /// response with `expected` when given.
    pub fn run(
        &mut self,
        lines: &[String],
        warm_end: Instant,
        until: Instant,
        busy: &AtomicBool,
        keep: &dyn Fn(u32) -> bool,
        expected: Option<&[String]>,
    ) -> Result<(), String> {
        let log = &mut self.log;
        loop {
            if Instant::now() >= until && !busy.load(Ordering::SeqCst) {
                return Ok(());
            }
            let index = match &mut self.picker {
                Picker::Shared(next) => next.fetch_add(1, Ordering::Relaxed) % lines.len(),
                Picker::Uniform(rng) => rng.gen_range(0..lines.len()),
            };
            let started = Instant::now();
            let response = self
                .client
                .call_raw(&lines[index])
                .map_err(|e| format!("count: {e}"))?;
            let done = Instant::now();
            log.sent.push(index as u32);
            if started >= warm_end {
                log.measured.push((
                    (started - warm_end).as_secs_f64(),
                    (done - started).as_nanos() as f64,
                ));
                log.last_done = Some(done);
            }
            if !response.starts_with("{\"ok\":true,") {
                log.errors += 1;
            } else if let Some(expected) = expected {
                if response != expected[index] {
                    log.mismatches.push(format!(
                        "count `{}` answered `{response}`, earlier `{}`",
                        lines[index], expected[index]
                    ));
                }
            }
            if keep(index as u32) {
                log.kept.push((index as u32, response));
            }
        }
    }
}

/// What the publisher did.
#[derive(Debug, Default)]
pub struct PublishLog {
    /// Request-to-durable-ack latencies (ms).
    pub lat_ms: Vec<f64>,
    /// Non-`ok` acknowledgments.
    pub errors: usize,
    /// `ok` acknowledgments that are wrong (handle, persistence, cache).
    pub mismatches: Vec<String>,
}

/// Sends `requests` one after another on `client`, appending to `log`.
/// With `pace = (from, every)`, publish `i` is not sent before
/// `from + i * every`.
pub fn drive_publishes(
    client: &mut Client,
    requests: &[PublishRequest],
    pace: Option<(Instant, Duration)>,
    log: &mut PublishLog,
) -> Result<(), String> {
    for (i, request) in requests.iter().enumerate() {
        if let Some((from, every)) = pace {
            let due = from + every * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let line = request.to_json().compact();
        let started = Instant::now();
        let response = client
            .call_raw(&line)
            .map_err(|e| format!("publish: {e}"))?;
        log.lat_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let ack = Json::parse(&response).map_err(|e| format!("publish ack `{response}`: {e}"))?;
        if ack.get("ok").and_then(Json::as_bool) != Some(true) {
            log.errors += 1;
            continue;
        }
        let good = ack.get("handle").and_then(Json::as_str) == Some(request.handle().as_str())
            && ack.get("persisted").and_then(Json::as_bool) == Some(true)
            && ack.get("cached").and_then(Json::as_bool) == Some(false);
        if !good {
            log.mismatches.push(format!(
                "publish `{line}` acknowledged `{response}`, expected handle {} persisted:true cached:false",
                request.handle()
            ));
        }
    }
    Ok(())
}
