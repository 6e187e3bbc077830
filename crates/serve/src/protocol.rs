//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message is a 4-byte big-endian `u32` byte length followed by that
//! many bytes of UTF-8 JSON. The length prefix is validated against
//! [`MAX_FRAME_LEN`] *before* any allocation, truncated frames and invalid
//! UTF-8 surface as typed [`ProtocolError`]s, and nothing in this module
//! panics on hostile input.
//!
//! Responses are intentionally free of any field that depends on server
//! cache state or wall-clock time: a recorded request stream must replay to
//! a byte-identical response log (DESIGN.md §11), so `Selected` carries no
//! "cache hit" flag and latency lives only in the [`StatsSnapshot`], which
//! replay logs exclude.

use crate::metrics::StatsSnapshot;
use acs_sim::Configuration;
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Hard ceiling on a frame's payload length (1 MiB). A length prefix above
/// this is rejected before any buffer is allocated, so a hostile client
/// cannot make the server reserve gigabytes with four bytes.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// A client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Handshake: ask for the session's node id and current power budget.
    Hello,
    /// Select a configuration for one kernel under the session's budget.
    Select {
        /// Kernel id (`benchmark/input/name`, as listed by `acs suite`).
        kernel_id: String,
        /// Optional service deadline in milliseconds. `Some(d)` lets the
        /// server shed the request with [`Response::ShedDeadline`] when it
        /// knows service cannot complete in time (a zero budget, or a
        /// brownout-tracked p99 above `d`). Absent (`null`, or omitted by
        /// pre-deadline clients) means the request is never shed.
        #[serde(default)]
        deadline_ms: Option<u64>,
        /// Priority class for load shedding (higher survives longer;
        /// 0 — the pre-priority default — is shed first). Only consulted
        /// when `deadline_ms` is set.
        #[serde(default)]
        priority: u8,
    },
    /// Select configurations for many kernels in one round trip; the
    /// server fans the batch onto its thread pool.
    Batch {
        /// Kernel ids to select for, answered in the same order.
        kernel_ids: Vec<String>,
        /// Optional service deadline in milliseconds (see `Select`).
        #[serde(default)]
        deadline_ms: Option<u64>,
        /// Priority class for load shedding (see `Select`).
        #[serde(default)]
        priority: u8,
    },
    /// Execute iterations of a kernel on the session's capped runtime.
    Run {
        /// Kernel id.
        kernel_id: String,
        /// Number of iterations to execute (clamped to at least 1).
        iterations: u64,
        /// Client-generated idempotency key. When present, the engine
        /// memoizes the successful response under this key, and a retry
        /// carrying the same key replays those exact bytes instead of
        /// executing again — exactly-once in effect for resilient
        /// clients. Absent (`null`, or omitted by pre-key clients) means
        /// every send executes.
        idem: Option<u64>,
        /// Optional service deadline in milliseconds (see `Select`).
        #[serde(default)]
        deadline_ms: Option<u64>,
        /// Priority class for load shedding (see `Select`).
        #[serde(default)]
        priority: u8,
    },
    /// Report this node's residual power headroom to the arbiter.
    Report {
        /// Residual watts under the node's current budget (negative when
        /// the node overshoots).
        residual_w: f64,
        /// Optional measured-feedback payload for the session's online
        /// adaptation layer. Absent (`null`, or omitted by pre-adapt
        /// clients) means the Report only feeds the arbiter, exactly as
        /// before — the adaptive path stays bit-identical to static.
        #[serde(default)]
        feedback: Option<ReportFeedback>,
    },
    /// Ask for a metrics snapshot.
    Stats,
    /// Close this session politely.
    Bye,
    /// Poison request: shut the whole server down.
    Shutdown,
}

/// Every [`Request::kind`] label. STATS counts requests per entry, in this
/// order.
pub const REQUEST_KINDS: [&str; 8] =
    ["hello", "select", "batch", "run", "report", "stats", "bye", "shutdown"];

impl Request {
    /// Short label for metrics bucketing (one of [`REQUEST_KINDS`]).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Hello => "hello",
            Request::Select { .. } => "select",
            Request::Batch { .. } => "batch",
            Request::Run { .. } => "run",
            Request::Report { .. } => "report",
            Request::Stats => "stats",
            Request::Bye => "bye",
            Request::Shutdown => "shutdown",
        }
    }

    /// The request's shedding envelope: `Some((deadline_ms, priority))`
    /// for deadline-carrying work, `None` for everything else (which is
    /// never shed).
    pub fn deadline(&self) -> Option<(u64, u8)> {
        match *self {
            Request::Select { deadline_ms: Some(d), priority, .. }
            | Request::Batch { deadline_ms: Some(d), priority, .. }
            | Request::Run { deadline_ms: Some(d), priority, .. } => Some((d, priority)),
            _ => None,
        }
    }
}

/// Measured power/performance feedback attached to a `Report`, consumed by
/// the per-session [`acs_core::AdaptivePredictor`]. The server compares the
/// measurement against the static model's prediction for `config` and feeds
/// the ratios through the session's Kalman filters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportFeedback {
    /// Kernel the measurement is for.
    pub kernel_id: String,
    /// Configuration the measurement was taken under.
    pub config: Configuration,
    /// Measured mean power over the reported window, W.
    pub measured_power_w: f64,
    /// Measured performance over the reported window (iterations/s).
    pub measured_perf: f64,
}

/// One configuration selection, as returned for `Select` and `Batch`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Selection {
    /// Kernel the selection is for.
    pub kernel_id: String,
    /// Cluster the kernel was classified into.
    pub cluster: usize,
    /// The selected configuration.
    pub config: Configuration,
    /// Predicted power at that configuration, W.
    pub predicted_power_w: f64,
    /// Predicted performance at that configuration (iterations/s).
    pub predicted_perf: f64,
    /// The session budget the selection was made under, W.
    pub budget_w: f64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake reply.
    Welcome {
        /// Server-assigned node id for this session.
        node_id: u64,
        /// The session's current power budget, W.
        budget_w: f64,
    },
    /// Reply to `Select`.
    Selected(Selection),
    /// Reply to `Batch`, selections in request order.
    BatchSelected {
        /// One selection per requested kernel id, in order.
        selections: Vec<Selection>,
    },
    /// Reply to `Run`.
    Ran {
        /// Kernel that ran.
        kernel_id: String,
        /// Iterations actually executed.
        iterations: u64,
        /// Mean measured power over those iterations, W.
        avg_power_w: f64,
        /// Total wall time over those iterations, s.
        total_time_s: f64,
        /// Configuration of the final iteration.
        config: Configuration,
        /// Degradation-ladder rung the kernel ended the request on.
        tier: String,
    },
    /// Reply to `Report`: the node's budget after the arbiter re-partitions.
    Budget {
        /// This node's new budget, W.
        budget_w: f64,
    },
    /// Reply to `Stats`. Boxed: the snapshot dwarfs every other variant,
    /// and serde is transparent to the box (same wire bytes).
    Stats(Box<StatsSnapshot>),
    /// Typed load shed: the request carried a `deadline_ms` the server
    /// knew it could not meet before starting service, so the work was
    /// dropped instead of served late. Clients should treat this as
    /// explicit backpressure, not an error.
    ShedDeadline {
        /// The deadline the request carried, ms.
        deadline_ms: u64,
        /// The priority class the request carried.
        priority: u8,
        /// The brownout level the server was at when it shed.
        brownout_level: u8,
    },
    /// Typed backpressure: the server (or a batch) is over its bound.
    Overloaded {
        /// Offered load (active sessions at admission, batch size for
        /// an oversized batch).
        load: u64,
        /// The configured bound that was exceeded.
        limit: u64,
    },
    /// Typed request failure (unknown kernel, malformed frame, ...).
    Error {
        /// Stable machine-readable code.
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Reply to `Bye`.
    Bye,
    /// Reply to `Shutdown`.
    ShuttingDown,
}

/// Typed wire-protocol failures. Never a panic.
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying socket/stream failure.
    Io(std::io::Error),
    /// The stream ended inside a frame.
    Truncated {
        /// Bytes the frame promised.
        expected: usize,
        /// Bytes actually read before EOF.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The claimed payload length.
        len: usize,
        /// The configured maximum.
        max: usize,
    },
    /// The payload is not valid UTF-8.
    InvalidUtf8,
    /// The payload is valid UTF-8 but not a valid message.
    Malformed(String),
}

impl ProtocolError {
    /// Stable machine-readable code for `Response::Error`.
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::Io(_) => "io",
            ProtocolError::Truncated { .. } => "truncated",
            ProtocolError::Oversized { .. } => "oversized",
            ProtocolError::InvalidUtf8 => "invalid-utf8",
            ProtocolError::Malformed(_) => "malformed",
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o failure: {e}"),
            ProtocolError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            ProtocolError::Oversized { len, max } => {
                write!(f, "oversized frame: length prefix {len} exceeds maximum {max}")
            }
            ProtocolError::InvalidUtf8 => write!(f, "frame payload is not valid UTF-8"),
            ProtocolError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Outcome of a non-blocking frame read.
#[derive(Debug)]
pub enum ReadOutcome<T> {
    /// A complete frame arrived.
    Frame(T),
    /// The peer closed the stream cleanly (EOF between frames).
    Eof,
    /// A read timeout fired before the first byte of a frame; nothing was
    /// consumed, so the caller may poll its shutdown flag and retry.
    Idle,
}

/// The 4-byte big-endian length prefix of a `len`-byte payload. `len`
/// fits in a `u32` at every caller: payloads are at most
/// [`MAX_FRAME_LEN`], and an oversized prefix was read off the wire as one.
pub(crate) fn frame_header(len: usize) -> [u8; 4] {
    (len as u32).to_be_bytes()
}

/// Write `body` as one length-prefixed frame: header, body, flush.
pub(crate) fn write_raw_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), ProtocolError> {
    if body.len() > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized { len: body.len(), max: MAX_FRAME_LEN });
    }
    w.write_all(&frame_header(body.len()))?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Serialize `msg` and write it as one length-prefixed frame.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> Result<(), ProtocolError> {
    let body = serde_json::to_string(msg).map_err(|e| ProtocolError::Malformed(e.to_string()))?;
    write_raw_frame(w, body.as_bytes())
}

/// True for the error kinds a read timeout surfaces as.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Finish reading a frame that has started: fill `buf` from `got`,
/// retrying timeouts until `stop` is set (a slow writer is never
/// desynced; a stalled one cannot hold up shutdown). Returns the byte
/// count read when EOF or `stop` cuts the frame short, `buf.len()` on
/// success.
fn read_full<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    mut got: usize,
    stop: &AtomicBool,
) -> Result<usize, ProtocolError> {
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Ok(got),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if stop.load(Ordering::SeqCst) {
                    return Ok(got);
                }
            }
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    Ok(got)
}

/// Read one frame's raw payload, distinguishing clean EOF and idle
/// timeouts from errors.
///
/// On a stream with a read timeout, a timeout before the first byte of the
/// length prefix returns [`ReadOutcome::Idle`]; once a frame has started,
/// timeouts are retried until the frame completes, the stream ends, or
/// `stop` is set (the last two → [`ProtocolError::Truncated`]). A length
/// prefix above [`MAX_FRAME_LEN`] is [`ProtocolError::Oversized`], before
/// any allocation.
pub(crate) fn read_raw_frame<R: Read>(
    r: &mut R,
    stop: &AtomicBool,
) -> Result<ReadOutcome<Vec<u8>>, ProtocolError> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    // The first byte decides between Eof, Idle, and an in-flight frame.
    while got == 0 {
        match r.read(&mut header) {
            Ok(0) => return Ok(ReadOutcome::Eof),
            Ok(n) => got = n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Ok(ReadOutcome::Idle),
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    let got = read_full(r, &mut header, got, stop)?;
    if got < header.len() {
        return Err(ProtocolError::Truncated { expected: header.len(), got });
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized { len, max: MAX_FRAME_LEN });
    }
    let mut body = vec![0u8; len];
    let got = read_full(r, &mut body, 0, stop)?;
    if got < len {
        return Err(ProtocolError::Truncated { expected: len, got });
    }
    Ok(ReadOutcome::Frame(body))
}

/// [`read_frame`] that abandons a started frame once `stop` is set — what
/// every server-side connection loop reads with, passing its shutdown flag.
pub(crate) fn read_frame_until<R: Read, T: Deserialize>(
    r: &mut R,
    stop: &AtomicBool,
) -> Result<ReadOutcome<T>, ProtocolError> {
    let body = match read_raw_frame(r, stop)? {
        ReadOutcome::Frame(body) => body,
        ReadOutcome::Eof => return Ok(ReadOutcome::Eof),
        ReadOutcome::Idle => return Ok(ReadOutcome::Idle),
    };
    let text = std::str::from_utf8(&body).map_err(|_| ProtocolError::InvalidUtf8)?;
    let msg = serde_json::from_str(text).map_err(|e| ProtocolError::Malformed(e.to_string()))?;
    Ok(ReadOutcome::Frame(msg))
}

/// Read one frame, distinguishing clean EOF and idle timeouts from errors.
///
/// On a stream with a read timeout, a timeout before the first byte of the
/// length prefix returns [`ReadOutcome::Idle`]; once a frame has started,
/// timeouts are retried until the frame completes or the stream ends
/// (→ [`ProtocolError::Truncated`]).
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> Result<ReadOutcome<T>, ProtocolError> {
    static NEVER: AtomicBool = AtomicBool::new(false);
    read_frame_until(r, &NEVER)
}

/// Blocking convenience: read one frame, mapping EOF to `None`.
///
/// Intended for streams *without* a read timeout (clients, tests). On a
/// stream with one, the first timeout ends the read: before the frame
/// starts it is an I/O error of kind [`ErrorKind::TimedOut`], after it
/// [`ProtocolError::Truncated`], so no caller waits more than one read
/// timeout for the next byte.
pub fn read_frame_blocking<R: Read, T: Deserialize>(r: &mut R) -> Result<Option<T>, ProtocolError> {
    static GIVE_UP: AtomicBool = AtomicBool::new(true);
    match read_frame_until(r, &GIVE_UP)? {
        ReadOutcome::Frame(t) => Ok(Some(t)),
        ReadOutcome::Eof => Ok(None),
        ReadOutcome::Idle => Err(ProtocolError::Io(std::io::Error::new(
            ErrorKind::TimedOut,
            "read timed out waiting for a frame",
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(msg: &T) {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).unwrap();
        let back: T = read_frame_blocking(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(&back, msg);
    }

    #[test]
    fn every_request_kind_is_in_the_table() {
        let one_of_each = [
            Request::Hello,
            Request::Select { kernel_id: "k".into(), deadline_ms: None, priority: 0 },
            Request::Batch { kernel_ids: vec![], deadline_ms: None, priority: 0 },
            Request::Run {
                kernel_id: "k".into(),
                iterations: 1,
                idem: None,
                deadline_ms: None,
                priority: 0,
            },
            Request::Report { residual_w: 0.0, feedback: None },
            Request::Stats,
            Request::Bye,
            Request::Shutdown,
        ];
        let kinds: Vec<&str> = one_of_each.iter().map(Request::kind).collect();
        assert_eq!(kinds, REQUEST_KINDS);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip(&Request::Hello);
        roundtrip(&Request::Select {
            kernel_id: "LU/Small/lud".into(),
            deadline_ms: None,
            priority: 0,
        });
        roundtrip(&Request::Select {
            kernel_id: "LU/Small/lud".into(),
            deadline_ms: Some(25),
            priority: 200,
        });
        roundtrip(&Request::Batch {
            kernel_ids: vec!["a".into(), "b".into()],
            deadline_ms: None,
            priority: 0,
        });
        roundtrip(&Request::Run {
            kernel_id: "x".into(),
            iterations: 5,
            idem: None,
            deadline_ms: None,
            priority: 0,
        });
        roundtrip(&Request::Run {
            kernel_id: "x".into(),
            iterations: 5,
            idem: Some(42),
            deadline_ms: Some(10),
            priority: 1,
        });
        roundtrip(&Request::Report { residual_w: -1.25, feedback: None });
        roundtrip(&Request::Report {
            residual_w: 3.5,
            feedback: Some(ReportFeedback {
                kernel_id: "LU/Small/lud".into(),
                config: Configuration::all()[0],
                measured_power_w: 41.5,
                measured_perf: 12.25,
            }),
        });
        roundtrip(&Request::Stats);
        roundtrip(&Request::Bye);
        roundtrip(&Request::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip(&Response::Welcome { node_id: 3, budget_w: 40.0 });
        roundtrip(&Response::Overloaded { load: 9, limit: 8 });
        roundtrip(&Response::ShedDeadline { deadline_ms: 5, priority: 3, brownout_level: 2 });
        roundtrip(&Response::Error { code: "oversized".into(), detail: "big".into() });
        roundtrip(&Response::Bye);
        roundtrip(&Response::ShuttingDown);
    }

    #[test]
    fn pre_key_run_frames_parse_with_no_idem() {
        // Clients older than the idempotency key omit the field entirely;
        // the decoder must treat that as `idem: None`, not a malformed
        // frame, so old loadgen recordings stay replayable.
        let json = r#"{"Run":{"kernel_id":"x","iterations":2}}"#;
        let mut buf = (json.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(json.as_bytes());
        let req: Request = read_frame_blocking(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(
            req,
            Request::Run {
                kernel_id: "x".into(),
                iterations: 2,
                idem: None,
                deadline_ms: None,
                priority: 0,
            }
        );
    }

    #[test]
    fn pre_deadline_frames_parse_with_no_deadline_and_zero_priority() {
        // Clients older than the shedding layer omit both fields; the
        // decoder must default to "no deadline, lowest priority" so old
        // recordings replay with shedding permanently inert.
        for (json, kind) in [
            (r#"{"Select":{"kernel_id":"x"}}"#, "select"),
            (r#"{"Batch":{"kernel_ids":["x","y"]}}"#, "batch"),
            (r#"{"Run":{"kernel_id":"x","iterations":1,"idem":7}}"#, "run"),
        ] {
            let mut buf = (json.len() as u32).to_be_bytes().to_vec();
            buf.extend_from_slice(json.as_bytes());
            let req: Request = read_frame_blocking(&mut Cursor::new(&buf)).unwrap().unwrap();
            assert_eq!(req.kind(), kind);
            assert_eq!(req.deadline(), None, "pre-deadline {kind} frames are never shed");
        }
    }

    #[test]
    fn pre_adapt_report_frames_parse_with_no_feedback() {
        // Clients older than the adaptation layer omit the feedback field
        // entirely; the decoder must treat that as `feedback: None`, not a
        // malformed frame, so old loadgen recordings stay replayable.
        let json = r#"{"Report":{"residual_w":2.5}}"#;
        let mut buf = (json.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(json.as_bytes());
        let req: Request = read_frame_blocking(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(req, Request::Report { residual_w: 2.5, feedback: None });
    }

    #[test]
    fn eof_between_frames_is_clean() {
        let empty: Vec<u8> = Vec::new();
        match read_frame::<_, Request>(&mut Cursor::new(&empty)).unwrap() {
            ReadOutcome::Eof => {}
            other => panic!("expected Eof, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_and_body_are_typed() {
        // 2 of 4 header bytes.
        let err = read_frame::<_, Request>(&mut Cursor::new(&[0u8, 0][..])).unwrap_err();
        assert!(matches!(err, ProtocolError::Truncated { expected: 4, got: 2 }));
        // Header promises 10 bytes, body delivers 3.
        let mut buf = 10u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        let err = read_frame::<_, Request>(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, ProtocolError::Truncated { expected: 10, got: 3 }));
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let buf = (u32::MAX).to_be_bytes();
        let err = read_frame::<_, Request>(&mut Cursor::new(&buf[..])).unwrap_err();
        match err {
            ProtocolError::Oversized { len, max } => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected Oversized, got {other}"),
        }
    }

    #[test]
    fn invalid_utf8_and_bad_json_are_typed() {
        let mut buf = 2u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0xff, 0xfe]);
        let err = read_frame::<_, Request>(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidUtf8));

        let mut buf = 4u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"{{{{");
        let err = read_frame::<_, Request>(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed(_)));
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(ProtocolError::InvalidUtf8.code(), "invalid-utf8");
        assert_eq!(ProtocolError::Oversized { len: 1, max: 0 }.code(), "oversized");
        assert_eq!(ProtocolError::Truncated { expected: 4, got: 0 }.code(), "truncated");
        assert_eq!(ProtocolError::Malformed("x".into()).code(), "malformed");
    }
}
