//! The `betalike-serve` process under test: start it on a data directory,
//! time set-up to the first correct answer, scrape it, stop it.

use betalike_microdata::json::Json;
use betalike_server::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running server process. Dropping it kills and reaps the process.
#[derive(Debug)]
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    /// Starts `bin` with default flags plus an ephemeral port and
    /// `data_dir`, and waits for its `LISTENING` line.
    pub fn spawn(bin: &Path, data_dir: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read LISTENING line: {e}"))?;
        server.addr = line
            .strip_prefix("LISTENING ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("server did not report its address (got `{}`)", line.trim()))?;
        Ok(server)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// The `metrics` and `health` documents.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let mut client = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        let metrics = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        let health = client.health().map_err(|e| format!("health: {e}"))?;
        Ok(Scrape { metrics, health })
    }

    /// Asks the server to stop and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut client) = Client::connect(self.addr) {
            let _ = client.shutdown_server();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("server did not stop within 10 s of `shutdown`".into()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Starts a server on `data_dir` and times it to the first answer of
/// `line`. Returns the server, the set-up seconds, and the answer line.
pub fn start_timed(
    bin: &Path,
    data_dir: &Path,
    line: &str,
) -> Result<(Server, f64, String), String> {
    let started = Instant::now();
    let server = Server::spawn(bin, data_dir)?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let answer = client
        .call_raw(line)
        .map_err(|e| format!("first count: {e}"))?;
    Ok((server, started.elapsed().as_secs_f64(), answer))
}

/// One `metrics` + `health` scrape.
#[derive(Debug)]
pub struct Scrape {
    metrics: Json,
    health: Json,
}

impl Scrape {
    /// A counter from `metrics` (0 when absent).
    pub fn counter(&self, name: &str) -> f64 {
        self.metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// A field of a latency histogram from `metrics` (0 when absent).
    pub fn histogram(&self, name: &str, field: &str) -> f64 {
        self.metrics
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(field))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// A numeric member of `health` (0 when absent).
    pub fn health(&self, name: &str) -> f64 {
        self.health.get(name).and_then(Json::as_f64).unwrap_or(0.0)
    }
}
