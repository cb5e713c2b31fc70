//! The per-connection protocol state machine — pure bytes in, bytes out,
//! no sockets.
//!
//! A [`Conn`] owns one connection's read buffer, its ordered response
//! queue, and its write buffer, and advances through the protocol as a
//! deterministic function of the byte-arrival schedule:
//!
//! * **Reading** — [`Conn::on_bytes`] appends whatever the transport
//!   delivered (a split half-line, three coalesced requests, one byte at a
//!   time — framing is tolerant of any chunking) and extracts complete
//!   newline-terminated lines as [`FramedRequest`]s for dispatch.
//! * **Dispatching** — each framed request claims a sequence-numbered
//!   *slot* in the response queue; [`Conn::complete`] files each
//!   response into its slot, in whatever order the driver completes
//!   them.
//! * **Writing** — [`Conn::output`] exposes exactly the responses whose
//!   turn has come: slots drain to the write buffer strictly in request
//!   order, so **pipelined responses are always written in the order the
//!   requests arrived**, no matter what order compute finished in.
//!
//! Framing-level refusals never reach dispatch: a line that is not valid
//! UTF-8 answers an error in its slot (the connection survives, matching
//! the blocking path), and a line exceeding the configured byte bound
//! answers one parseable [`crate::wire::ERR_TOO_LARGE`] refusal after
//! which the connection is closed once pending output drains — the
//! pre-bound server grew its read buffer without limit instead.
//!
//! The server's worker feeds the machine from a timed read loop and
//! answers each framed request inline, in order. The machine itself does
//! not assume that order, which is what makes the deterministic harness
//! in `tests/pipeline.rs` meaningful: byte-for-byte equality of [`Conn`]
//! output across chunkings and completion orders *is* equality of what
//! the server writes under any packet schedule.

use crate::wire::{error_response, fatal_coded_error, ERR_TOO_LARGE};
use std::collections::VecDeque;

/// Request-line byte bound when [`crate::ServerConfig::max_line_bytes`]
/// is `0`: 1 MiB, far above any legitimate request in this protocol.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// One complete request line extracted by framing, ready for dispatch.
/// `seq` names the response slot [`Conn::complete`] must fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramedRequest {
    /// The slot this request's response belongs to.
    pub seq: u64,
    /// The trimmed request line (framing already validated UTF-8).
    pub text: String,
}

/// One position in the in-order response queue.
#[derive(Debug)]
enum Slot {
    /// Dispatched, response not yet filed.
    Waiting(u64),
    /// Response bytes (newline-terminated), ready to drain to the write
    /// buffer once every earlier slot has drained.
    Ready(Vec<u8>),
}

/// The per-connection state machine. See the module docs for the
/// Reading → Dispatching → Writing lifecycle.
#[derive(Debug)]
pub struct Conn {
    /// Bytes of the (at most one) incomplete line.
    buf: Vec<u8>,
    /// Prefix of `buf` already known to contain no newline, so repeated
    /// small chunks don't rescan the whole partial line.
    scanned: usize,
    /// In-order response slots for requests in flight.
    slots: VecDeque<Slot>,
    /// Response bytes whose turn has come, not yet taken by the driver.
    out: Vec<u8>,
    next_seq: u64,
    max_line: usize,
    /// An oversized line was refused; framing is over.
    poisoned: bool,
    /// The transport reported end of input.
    eof: bool,
    /// A `shutdown` response was filed at this seq; later slots are
    /// dropped and the connection closes once output drains.
    stop_seq: Option<u64>,
    /// Complete lines extracted so far (blank and refused lines
    /// included). Drivers diff this across a read to reset their idle /
    /// request timers exactly at line boundaries, like the blocking
    /// path's per-line loop did.
    lines: u64,
}

impl Conn {
    /// A fresh connection bounded by `max_line_bytes` per request line
    /// (`0` → [`DEFAULT_MAX_LINE_BYTES`]).
    pub fn new(max_line_bytes: usize) -> Conn {
        Conn {
            buf: Vec::new(),
            scanned: 0,
            slots: VecDeque::new(),
            out: Vec::new(),
            next_seq: 0,
            max_line: if max_line_bytes == 0 {
                DEFAULT_MAX_LINE_BYTES
            } else {
                max_line_bytes
            },
            poisoned: false,
            eof: false,
            stop_seq: None,
            lines: 0,
        }
    }

    /// Feeds bytes as they arrived off the transport and returns the
    /// complete requests they finished, in arrival order. Framing-level
    /// refusals (invalid UTF-8, an oversized line) claim their response
    /// slots internally and are never returned for dispatch.
    pub fn on_bytes(&mut self, data: &[u8]) -> Vec<FramedRequest> {
        if self.reading_closed() {
            return Vec::new();
        }
        self.buf.extend_from_slice(data);
        let mut requests = Vec::new();
        loop {
            let newline = self.buf.iter().skip(self.scanned).position(|&b| b == b'\n');
            match newline {
                Some(rel) => {
                    let line_end = self.scanned + rel;
                    if line_end > self.max_line {
                        self.poison();
                        break;
                    }
                    let line: Vec<u8> = self.buf.drain(..=line_end).collect();
                    self.scanned = 0;
                    self.lines += 1;
                    if let Some(request) = self.frame_line(&line) {
                        requests.push(request);
                    }
                    if self.reading_closed() {
                        break;
                    }
                }
                None => {
                    self.scanned = self.buf.len();
                    if self.buf.len() > self.max_line {
                        self.poison();
                    }
                    break;
                }
            }
        }
        requests
    }

    /// Reports end of input. A final unterminated line is framed exactly
    /// like a complete one (matching `read_until`'s behavior on the
    /// blocking path); the connection closes once pending slots fill and
    /// output drains.
    pub fn on_eof(&mut self) -> Vec<FramedRequest> {
        if self.reading_closed() {
            self.eof = true;
            return Vec::new();
        }
        self.eof = true;
        let mut requests = Vec::new();
        if !self.buf.is_empty() {
            let line: Vec<u8> = std::mem::take(&mut self.buf);
            self.scanned = 0;
            self.lines += 1;
            if let Some(request) = self.frame_line(&line) {
                requests.push(request);
            }
        }
        requests
    }

    /// Frames one extracted line: skips blank lines, answers the UTF-8
    /// refusal in place, or claims a slot and returns the request.
    fn frame_line(&mut self, line: &[u8]) -> Option<FramedRequest> {
        let Ok(text) = std::str::from_utf8(line) else {
            let reply = error_response("request line is not valid UTF-8");
            self.slots
                .push_back(Slot::Ready(line_bytes(&reply.compact())));
            return None;
        };
        let text = text.trim();
        if text.is_empty() {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back(Slot::Waiting(seq));
        Some(FramedRequest {
            seq,
            text: text.to_string(),
        })
    }

    /// Refuses the in-progress oversized line with one parseable
    /// `too_large` error (queued behind any earlier in-flight responses,
    /// so pipelined predecessors still answer) and ends framing.
    fn poison(&mut self) {
        let reply = fatal_coded_error(
            ERR_TOO_LARGE,
            &format!(
                "request line exceeds the {} byte bound; closing the connection",
                self.max_line
            ),
        );
        self.slots
            .push_back(Slot::Ready(line_bytes(&reply.compact())));
        self.poisoned = true;
        self.buf.clear();
        self.scanned = 0;
    }

    /// Files the response for slot `seq` (the compact JSON line, without
    /// its trailing newline). `stop` marks a `shutdown` response: slots
    /// after it are dropped — nothing is written past the acknowledgment,
    /// matching the blocking path — and the connection closes once output
    /// drains. Unknown or already-dropped seqs are ignored.
    pub fn complete(&mut self, seq: u64, response: &str, stop: bool) {
        if self.stop_seq.is_some_and(|s| seq > s) {
            return;
        }
        let position = self
            .slots
            .iter()
            .position(|slot| matches!(slot, Slot::Waiting(s) if *s == seq));
        let Some(position) = position else {
            return;
        };
        if let Some(slot) = self.slots.get_mut(position) {
            *slot = Slot::Ready(line_bytes(response));
        }
        if stop {
            self.stop_seq = Some(seq);
            self.slots.truncate(position + 1);
        }
    }

    /// Moves every leading Ready slot into the write buffer, preserving
    /// request order across out-of-order completions.
    fn promote(&mut self) {
        while matches!(self.slots.front(), Some(Slot::Ready(_))) {
            if let Some(Slot::Ready(bytes)) = self.slots.pop_front() {
                self.out.extend_from_slice(&bytes);
            }
        }
    }

    /// The response bytes whose turn has come and have not been consumed.
    /// Call [`Conn::consume`] with however many the transport accepted.
    pub fn output(&mut self) -> &[u8] {
        self.promote();
        &self.out
    }

    /// Discards the first `n` output bytes as written to the transport.
    pub fn consume(&mut self, n: usize) {
        let n = n.min(self.out.len());
        self.out.drain(..n);
    }

    /// Whether undelivered output exists (after promoting due slots).
    pub fn has_output(&mut self) -> bool {
        !self.output().is_empty()
    }

    /// Whether a request line has started but not finished (drives the
    /// request timeout; a connection with no partial line is *idle*).
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Total complete lines extracted so far (blank and refused lines
    /// included) — see the `lines` field for why drivers diff this.
    pub fn lines_seen(&self) -> u64 {
        self.lines
    }

    /// Whether the machine accepts no further input: refused line, EOF,
    /// or a filed shutdown response.
    pub fn reading_closed(&self) -> bool {
        self.poisoned || self.eof || self.stop_seq.is_some()
    }

    /// Whether the connection is done: no further input will be read and
    /// every response due has been handed to the transport. The driver
    /// closes the socket when this turns true.
    pub fn wants_close(&mut self) -> bool {
        self.promote();
        self.reading_closed() && self.slots.is_empty() && self.out.is_empty()
    }
}

/// A response line as wire bytes: compact JSON plus the terminator.
fn line_bytes(compact: &str) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(compact.len() + 1);
    bytes.extend_from_slice(compact.as_bytes());
    bytes.push(b'\n');
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use betalike_microdata::json::Json;

    fn drain(conn: &mut Conn) -> String {
        let bytes = conn.output().to_vec();
        conn.consume(bytes.len());
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn split_and_coalesced_chunks_frame_identically() {
        let wire = b"{\"op\":\"ping\"}\n{\"op\":\"health\"}\n";
        // One byte at a time vs one coalesced chunk: same requests.
        let mut split = Conn::new(0);
        let mut split_reqs = Vec::new();
        for b in wire.iter() {
            split_reqs.extend(split.on_bytes(&[*b]));
        }
        let mut whole = Conn::new(0);
        let whole_reqs = whole.on_bytes(wire);
        assert_eq!(split_reqs, whole_reqs);
        assert_eq!(whole_reqs.len(), 2);
        assert_eq!(whole_reqs[0].text, "{\"op\":\"ping\"}");
        assert_eq!(whole_reqs[0].seq, 0);
        assert_eq!(whole_reqs[1].seq, 1);
    }

    #[test]
    fn responses_drain_in_request_order_despite_completion_order() {
        let mut conn = Conn::new(0);
        let reqs = conn.on_bytes(b"{\"op\":\"a\"}\n{\"op\":\"b\"}\n{\"op\":\"c\"}\n");
        assert_eq!(reqs.len(), 3);
        // Complete out of order: c, a, b.
        conn.complete(2, "{\"r\":\"c\"}", false);
        assert_eq!(drain(&mut conn), "", "c must wait for a and b");
        conn.complete(0, "{\"r\":\"a\"}", false);
        assert_eq!(drain(&mut conn), "{\"r\":\"a\"}\n");
        conn.complete(1, "{\"r\":\"b\"}", false);
        assert_eq!(drain(&mut conn), "{\"r\":\"b\"}\n{\"r\":\"c\"}\n");
        assert!(!conn.has_output(), "every slot drained");
        assert!(!conn.wants_close(), "no EOF yet");
    }

    #[test]
    fn blank_lines_and_whitespace_are_skipped() {
        let mut conn = Conn::new(0);
        let reqs = conn.on_bytes(b"\n  \n\r\n{\"op\":\"ping\"}\r\n");
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].text, "{\"op\":\"ping\"}");
    }

    #[test]
    fn invalid_utf8_answers_in_slot_order_and_framing_survives() {
        let mut conn = Conn::new(0);
        let mut wire = b"{\"op\":\"a\"}\n".to_vec();
        wire.extend_from_slice(&[0xff, 0xfe, b'\n']);
        wire.extend_from_slice(b"{\"op\":\"b\"}\n");
        let reqs = conn.on_bytes(&wire);
        assert_eq!(reqs.len(), 2, "the bad line frames no request");
        conn.complete(0, "{\"r\":\"a\"}", false);
        conn.complete(1, "{\"r\":\"b\"}", false);
        let out = drain(&mut conn);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"r\":\"a\"}");
        let err = Json::parse(lines[1]).unwrap();
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert!(err
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("UTF-8"));
        assert_eq!(lines[2], "{\"r\":\"b\"}");
        assert!(!conn.reading_closed(), "bad UTF-8 is not fatal");
    }

    #[test]
    fn oversized_line_answers_too_large_once_and_closes() {
        let mut conn = Conn::new(32);
        // A pipelined predecessor, then the flood.
        let reqs = conn.on_bytes(b"{\"op\":\"a\"}\n");
        assert_eq!(reqs.len(), 1);
        assert!(conn.on_bytes(&[b'x'; 20]).is_empty());
        assert!(!conn.reading_closed(), "20 bytes is under the bound");
        assert!(conn.on_bytes(&[b'x'; 20]).is_empty());
        assert!(conn.reading_closed(), "40 bytes crossed the bound");
        // Later input is ignored entirely.
        assert!(conn.on_bytes(b"{\"op\":\"b\"}\n").is_empty());
        // The predecessor still answers first, then the refusal.
        conn.complete(0, "{\"r\":\"a\"}", false);
        let out = drain(&mut conn);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"r\":\"a\"}");
        let refusal = Json::parse(lines[1]).unwrap();
        assert_eq!(
            refusal.get("code").and_then(Json::as_str),
            Some("too_large")
        );
        assert_eq!(refusal.get("ok").and_then(Json::as_bool), Some(false));
        assert!(
            refusal.get("retryable").is_none(),
            "too_large is fatal, not retryable"
        );
        assert!(conn.wants_close());
    }

    #[test]
    fn oversized_complete_line_is_refused_not_dispatched() {
        let mut conn = Conn::new(8);
        let mut wire = vec![b'y'; 30];
        wire.push(b'\n');
        assert!(conn.on_bytes(&wire).is_empty());
        assert!(conn.reading_closed());
        let out = drain(&mut conn);
        assert!(out.contains("too_large"), "{out}");
    }

    #[test]
    fn eof_frames_the_final_unterminated_line() {
        let mut conn = Conn::new(0);
        assert!(conn.on_bytes(b"{\"op\":\"ping\"}").is_empty());
        assert!(conn.has_partial());
        let reqs = conn.on_eof();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].text, "{\"op\":\"ping\"}");
        assert!(!conn.wants_close(), "the final response is still owed");
        conn.complete(0, "{\"r\":1}", false);
        assert_eq!(drain(&mut conn), "{\"r\":1}\n");
        assert!(conn.wants_close());
    }

    #[test]
    fn shutdown_stops_reading_and_drops_later_slots() {
        let mut conn = Conn::new(0);
        let reqs = conn.on_bytes(b"{\"op\":\"ping\"}\n{\"op\":\"shutdown\"}\n{\"op\":\"ping\"}\n");
        assert_eq!(reqs.len(), 3);
        conn.complete(1, "{\"stopping\":true}", true);
        assert!(conn.reading_closed());
        // The late completion of seq 2 is dropped silently.
        conn.complete(2, "{\"r\":\"late\"}", false);
        conn.complete(0, "{\"r\":\"first\"}", false);
        let out = drain(&mut conn);
        assert_eq!(out, "{\"r\":\"first\"}\n{\"stopping\":true}\n");
        assert!(conn.wants_close());
        assert!(conn.on_bytes(b"{\"op\":\"ping\"}\n").is_empty());
    }

    #[test]
    fn slow_drain_consumes_incrementally() {
        let mut conn = Conn::new(0);
        conn.on_bytes(b"{\"op\":\"a\"}\n");
        conn.complete(0, "{\"r\":\"a\"}", false);
        let mut collected = Vec::new();
        // Three bytes per "writable window".
        while conn.has_output() {
            let chunk: Vec<u8> = conn.output().iter().take(3).copied().collect();
            collected.extend_from_slice(&chunk);
            conn.consume(chunk.len());
        }
        assert_eq!(String::from_utf8(collected).unwrap(), "{\"r\":\"a\"}\n");
    }

    #[test]
    fn unknown_and_duplicate_completions_are_ignored() {
        let mut conn = Conn::new(0);
        conn.on_bytes(b"{\"op\":\"a\"}\n");
        conn.complete(7, "{\"bogus\":1}", false);
        conn.complete(0, "{\"r\":1}", false);
        conn.complete(0, "{\"r\":2}", false);
        assert_eq!(drain(&mut conn), "{\"r\":1}\n");
    }
}
