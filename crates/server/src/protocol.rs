//! The wire format: length-prefixed binary frames.
//!
//! Every frame on the wire is a 4-byte **big-endian body length** followed
//! by the body. The length is checked against [`MAX_FRAME_BYTES`] *before*
//! any allocation, so a hostile or corrupt prefix cannot make the reader
//! allocate gigabytes. The body always starts with a fixed header —
//! [`MAGIC`], a [`VERSION`] byte, a frame-type byte — so a peer speaking
//! the wrong protocol (or the right protocol's wrong version) is rejected
//! with a specific [`FrameError`], never misparsed.
//!
//! Frame types:
//!
//! | type | body after the common header |
//! |------|------------------------------|
//! | request | request id `u64`, tenant `u64`, flags `u8`, optional key `u64` (when [`FLAG_KEYED`]), `d` `u32`, payload: big-endian `u32` storage bits |
//! | response | request id `u64`, rows `u32`, payload bits |
//! | error | request id `u64`, [`ErrorCode`] `u8`, message length `u16`, UTF-8 message |
//! | metrics request | (empty) |
//! | metrics response | UTF-8 metrics text |
//!
//! Payload elements are the service's exchange currency — one `u32`
//! storage-bit pattern per element, exactly what
//! [`NormRequest::bits`](iterl2norm::NormRequest::bits) takes and
//! [`NormResponse::bits`](iterl2norm::NormResponse::bits) returns — so
//! the wire adds no rounding step anywhere and bit-identity with
//! in-process execution is structural.
//!
//! Decoding is total: every malformed input maps to a [`FrameError`]
//! variant (truncation, bad magic, version skew, unknown type, ragged
//! payload, trailing bytes, oversized frame), exercised one by one in
//! this module's tests.

use std::io::{self, Read, Write};

use iterl2norm::Priority;

/// First bytes of every frame body — "iterL2 Norm Protocol".
pub const MAGIC: [u8; 4] = *b"L2NP";

/// Protocol version this build speaks. A peer with a different version
/// byte is rejected with [`FrameError::VersionSkew`].
pub const VERSION: u8 = 1;

/// Largest accepted frame *body* in bytes (16 MiB). Checked against the
/// length prefix before the body buffer is allocated.
pub const MAX_FRAME_BYTES: usize = 1 << 24;

/// Request flag: an 8-byte placement key follows the flags byte. The key
/// feeds [`NormRequest::with_key`](iterl2norm::NormRequest::with_key) —
/// sticky shard placement under request-hash services.
pub const FLAG_KEYED: u8 = 0b0000_0001;

/// Request flag: ask for [`Priority::High`] scheduling. The configured
/// admission class is an entitlement cap — the server honors the flag
/// only for tenants whose [`TenantSpec`](crate::admission::TenantSpec)
/// grants `high`; every other tenant (including ids with no configured
/// entry at all) runs at normal priority, so the wire flag can never
/// self-promote past the admission table.
pub const FLAG_HIGH_PRIORITY: u8 = 0b0000_0010;

/// Request flag: the payload is one row-major `m × d` whitening group,
/// not independent rows — routed to
/// [`NormRequest::whiten_group`](iterl2norm::NormRequest::whiten_group)
/// and executed under the service's configured
/// [`WhitenSpec`](iterl2norm::WhitenSpec). The response carries the
/// whitened group with the same shape.
pub const FLAG_WHITEN: u8 = 0b0000_0100;

const TYPE_REQUEST: u8 = 1;
const TYPE_RESPONSE: u8 = 2;
const TYPE_ERROR: u8 = 3;
const TYPE_METRICS_REQUEST: u8 = 4;
const TYPE_METRICS_RESPONSE: u8 = 5;

/// One decoded frame, in either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: normalize a batch of rows.
    Request(RequestFrame),
    /// Server → client: the normalized bits for one request.
    Response(ResponseFrame),
    /// Server → client: a request was refused or failed.
    Error(ErrorFrame),
    /// Client → server: send me the metrics text.
    MetricsRequest,
    /// Server → client: the plaintext metrics export.
    MetricsResponse(String),
}

/// A normalization request as it travels the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFrame {
    /// Caller-chosen correlation id, echoed verbatim on the response (or
    /// error) frame. Responses come back in submission order per
    /// connection, but the id makes matching explicit and debuggable.
    pub request_id: u64,
    /// The tenant this request bills to — the admission layer's key.
    pub tenant: u64,
    /// Optional placement key for sticky shard placement.
    pub key: Option<u64>,
    /// Requested scheduling class (see [`FLAG_HIGH_PRIORITY`] for who
    /// may actually use it).
    pub priority: Priority,
    /// Whether the payload is one whitening group (see [`FLAG_WHITEN`])
    /// rather than independent normalization rows.
    pub whiten: bool,
    /// Row length the payload claims; must equal the serving side's `d`.
    pub d: u32,
    /// Row-major storage bits, `rows × d` elements.
    pub bits: Vec<u32>,
}

/// A successful response: the normalized bits for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseFrame {
    /// The request's correlation id, echoed.
    pub request_id: u64,
    /// Rows normalized (`bits.len() / d` — carried explicitly so the
    /// frame is self-describing).
    pub rows: u32,
    /// Row-major normalized storage bits.
    pub bits: Vec<u32>,
}

/// A refusal or failure for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The request's correlation id (0 when the failure predates parsing
    /// an id, e.g. a malformed frame).
    pub request_id: u64,
    /// What went wrong, as a machine-readable class.
    pub code: ErrorCode,
    /// Human-readable detail (capped at `u16::MAX` bytes by the format).
    pub message: String,
}

/// Machine-readable error classes a server can answer with. The split
/// mirrors the causes a client can act on differently: back off
/// (`QueueFull`), give up (`ServiceShutdown`), fix the payload
/// (`ShapeMismatch`/`BadRequest`), slow down (`OverQuota`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The placed shard's waiting line was at its configured depth.
    QueueFull,
    /// The service is shut down and accepts no further work.
    ServiceShutdown,
    /// The payload's shape does not match the serving side (`d` mismatch,
    /// ragged rows, or an empty request).
    ShapeMismatch,
    /// The tenant's token bucket was empty — over quota.
    OverQuota,
    /// The frame itself was invalid (malformed, or a frame type the
    /// server does not accept from clients).
    BadRequest,
    /// Any other server-side failure.
    Internal,
}

impl ErrorCode {
    /// Every error code, for exhaustive round-trip tests.
    pub const ALL: [ErrorCode; 6] = [
        ErrorCode::QueueFull,
        ErrorCode::ServiceShutdown,
        ErrorCode::ShapeMismatch,
        ErrorCode::OverQuota,
        ErrorCode::BadRequest,
        ErrorCode::Internal,
    ];

    /// Stable wire byte for this code.
    pub fn to_byte(self) -> u8 {
        match self {
            ErrorCode::QueueFull => 1,
            ErrorCode::ServiceShutdown => 2,
            ErrorCode::ShapeMismatch => 3,
            ErrorCode::OverQuota => 4,
            ErrorCode::BadRequest => 5,
            ErrorCode::Internal => 6,
        }
    }

    /// Inverse of [`to_byte`](ErrorCode::to_byte).
    pub fn from_byte(byte: u8) -> Option<Self> {
        Some(match byte {
            1 => ErrorCode::QueueFull,
            2 => ErrorCode::ServiceShutdown,
            3 => ErrorCode::ShapeMismatch,
            4 => ErrorCode::OverQuota,
            5 => ErrorCode::BadRequest,
            6 => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// Short name for reports and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::ServiceShutdown => "shutdown",
            ErrorCode::ShapeMismatch => "shape-mismatch",
            ErrorCode::OverQuota => "over-quota",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Internal => "internal",
        }
    }
}

impl core::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a byte sequence failed to decode as a frame. Total over all
/// malformed inputs — decoding never panics and never truncates silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The input ended before a required field.
    Truncated {
        /// Bytes the pending field (or body) required.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The body did not start with [`MAGIC`].
    BadMagic(
        /// The four bytes found instead.
        [u8; 4],
    ),
    /// The peer speaks a different protocol version.
    VersionSkew {
        /// The version byte found on the wire.
        got: u8,
    },
    /// The frame-type byte names no known frame.
    UnknownFrameType(
        /// The offending type byte.
        u8,
    ),
    /// An error frame carried an unassigned [`ErrorCode`] byte.
    UnknownErrorCode(
        /// The offending code byte.
        u8,
    ),
    /// The length prefix claimed a body larger than [`MAX_FRAME_BYTES`].
    /// Raised *before* any allocation.
    Oversized {
        /// The claimed body length.
        len: usize,
        /// The configured cap.
        cap: usize,
    },
    /// A bits payload was not a whole number of 4-byte words.
    RaggedPayload {
        /// The payload's byte count.
        bytes: usize,
    },
    /// A fixed-layout frame had bytes left over after its last field.
    TrailingBytes {
        /// How many bytes were left.
        extra: usize,
    },
    /// A text field was not valid UTF-8.
    BadUtf8,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Truncated { needed, got } => {
                write!(f, "frame truncated: needed {needed} bytes, got {got}")
            }
            FrameError::BadMagic(found) => {
                write!(f, "bad magic {found:02x?} (expected {MAGIC:02x?})")
            }
            FrameError::VersionSkew { got } => {
                write!(
                    f,
                    "protocol version skew: peer speaks v{got}, this build v{VERSION}"
                )
            }
            FrameError::UnknownFrameType(ty) => write!(f, "unknown frame type {ty}"),
            FrameError::UnknownErrorCode(code) => write!(f, "unknown error code {code}"),
            FrameError::Oversized { len, cap } => {
                write!(f, "frame body of {len} bytes exceeds the {cap}-byte cap")
            }
            FrameError::RaggedPayload { bytes } => {
                write!(f, "payload of {bytes} bytes is not whole 4-byte words")
            }
            FrameError::TrailingBytes { extra } => {
                write!(f, "frame has {extra} trailing bytes after its last field")
            }
            FrameError::BadUtf8 => write!(f, "text field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// What can go wrong reading a frame off a stream: transport I/O, or
/// bytes that arrived fine but do not decode.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The bytes arrived but are not a valid frame.
    Malformed(FrameError),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Malformed(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Malformed(e)
    }
}

/// Encode a frame into its full wire form: length prefix plus body.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut wire = Vec::new();
    encode_frame_into(frame, &mut wire);
    wire
}

/// Encode a frame's full wire form (length prefix plus body) into `out`,
/// replacing its contents. `out` is reserved to the exact frame size
/// before the first byte is written, so the frame is built once, with
/// no growth reallocations and no copy behind the prefix — and a buffer
/// reused across frames (the connection writer's) stops allocating once
/// it has held the largest frame.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Request(req) => {
            let key_bytes = if req.key.is_some() { 8 } else { 0 };
            start_frame(
                out,
                TYPE_REQUEST,
                8 + 8 + 1 + key_bytes + 4 + 4 * req.bits.len(),
            );
            out.extend_from_slice(&req.request_id.to_be_bytes());
            out.extend_from_slice(&req.tenant.to_be_bytes());
            let mut flags = 0u8;
            if req.key.is_some() {
                flags |= FLAG_KEYED;
            }
            if req.priority == Priority::High {
                flags |= FLAG_HIGH_PRIORITY;
            }
            if req.whiten {
                flags |= FLAG_WHITEN;
            }
            out.push(flags);
            if let Some(key) = req.key {
                out.extend_from_slice(&key.to_be_bytes());
            }
            out.extend_from_slice(&req.d.to_be_bytes());
            push_words(out, &req.bits);
        }
        Frame::Response(resp) => encode_response_into(resp.request_id, resp.rows, &resp.bits, out),
        Frame::Error(err) => {
            let msg = err.message.as_bytes();
            let msg = &msg[..msg.len().min(usize::from(u16::MAX))];
            start_frame(out, TYPE_ERROR, 8 + 1 + 2 + msg.len());
            out.extend_from_slice(&err.request_id.to_be_bytes());
            out.push(err.code.to_byte());
            out.extend_from_slice(&(msg.len() as u16).to_be_bytes());
            out.extend_from_slice(msg);
        }
        Frame::MetricsRequest => start_frame(out, TYPE_METRICS_REQUEST, 0),
        Frame::MetricsResponse(text) => {
            start_frame(out, TYPE_METRICS_RESPONSE, text.len());
            out.extend_from_slice(text.as_bytes());
        }
    }
}

/// [`encode_frame_into`] for a response frame over borrowed bits — what
/// the server's connection writer sends straight from a served
/// [`NormResponse`](iterl2norm::NormResponse), without first copying
/// its bits into a [`ResponseFrame`].
pub fn encode_response_into(request_id: u64, rows: u32, bits: &[u32], out: &mut Vec<u8>) {
    start_frame(out, TYPE_RESPONSE, 8 + 4 + 4 * bits.len());
    out.extend_from_slice(&request_id.to_be_bytes());
    out.extend_from_slice(&rows.to_be_bytes());
    push_words(out, bits);
}

/// Start a frame in `out`: clear it, reserve exactly the whole frame —
/// the length prefix, the common header and `fields` bytes after it —
/// then write the prefix and header.
fn start_frame(out: &mut Vec<u8>, frame_type: u8, fields: usize) {
    let body = MAGIC.len() + 2 + fields;
    debug_assert!(body <= MAX_FRAME_BYTES, "oversized frame produced");
    out.clear();
    out.reserve_exact(4 + body);
    out.extend_from_slice(&(body as u32).to_be_bytes());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame_type);
}

/// Append `words` as big-endian `u32`s. One `extend` over the whole
/// payload vectorizes; a per-word `extend_from_slice` does not (about 4×
/// slower on a 1 MiB payload).
fn push_words(out: &mut Vec<u8>, words: &[u32]) {
    out.extend(words.iter().flat_map(|word| word.to_be_bytes()));
}

/// A bounds-checked reader over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let remaining = self.buf.len() - self.pos;
        if remaining < n {
            return Err(FrameError::Truncated {
                needed: n,
                got: remaining,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16_be(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32_be(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64_be(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_be_bytes(arr))
    }

    /// Everything not yet consumed.
    fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Decode a payload of big-endian `u32` words.
fn decode_bits(raw: &[u8]) -> Result<Vec<u32>, FrameError> {
    if !raw.len().is_multiple_of(4) {
        return Err(FrameError::RaggedPayload { bytes: raw.len() });
    }
    Ok(raw
        .chunks_exact(4)
        .map(|w| u32::from_be_bytes([w[0], w[1], w[2], w[3]]))
        .collect())
}

/// Decode a frame body (everything after the length prefix). Total:
/// every malformed input returns a specific [`FrameError`].
pub fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
    let mut c = Cursor::new(body);
    let magic_bytes = c.take(4)?;
    let magic = [
        magic_bytes[0],
        magic_bytes[1],
        magic_bytes[2],
        magic_bytes[3],
    ];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(FrameError::VersionSkew { got: version });
    }
    match c.u8()? {
        TYPE_REQUEST => {
            let request_id = c.u64_be()?;
            let tenant = c.u64_be()?;
            let flags = c.u8()?;
            let key = if flags & FLAG_KEYED != 0 {
                Some(c.u64_be()?)
            } else {
                None
            };
            let priority = if flags & FLAG_HIGH_PRIORITY != 0 {
                Priority::High
            } else {
                Priority::Normal
            };
            let whiten = flags & FLAG_WHITEN != 0;
            let d = c.u32_be()?;
            let bits = decode_bits(c.rest())?;
            Ok(Frame::Request(RequestFrame {
                request_id,
                tenant,
                key,
                priority,
                whiten,
                d,
                bits,
            }))
        }
        TYPE_RESPONSE => {
            let request_id = c.u64_be()?;
            let rows = c.u32_be()?;
            let bits = decode_bits(c.rest())?;
            Ok(Frame::Response(ResponseFrame {
                request_id,
                rows,
                bits,
            }))
        }
        TYPE_ERROR => {
            let request_id = c.u64_be()?;
            let code_byte = c.u8()?;
            let code =
                ErrorCode::from_byte(code_byte).ok_or(FrameError::UnknownErrorCode(code_byte))?;
            let len = usize::from(c.u16_be()?);
            let message =
                String::from_utf8(c.take(len)?.to_vec()).map_err(|_| FrameError::BadUtf8)?;
            if c.remaining() != 0 {
                return Err(FrameError::TrailingBytes {
                    extra: c.remaining(),
                });
            }
            Ok(Frame::Error(ErrorFrame {
                request_id,
                code,
                message,
            }))
        }
        TYPE_METRICS_REQUEST => {
            if c.remaining() != 0 {
                return Err(FrameError::TrailingBytes {
                    extra: c.remaining(),
                });
            }
            Ok(Frame::MetricsRequest)
        }
        TYPE_METRICS_RESPONSE => {
            let text = String::from_utf8(c.rest().to_vec()).map_err(|_| FrameError::BadUtf8)?;
            Ok(Frame::MetricsResponse(text))
        }
        other => Err(FrameError::UnknownFrameType(other)),
    }
}

/// Write one frame to a stream (length prefix plus body), without
/// flushing — callers batching pipelined requests flush once.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))
}

/// Read one frame off a blocking stream.
///
/// Returns `Ok(None)` on a clean close — end of stream *before the first
/// prefix byte*. End of stream anywhere later is a mid-frame truncation
/// and reports [`FrameError::Truncated`]. The length prefix is validated
/// against [`MAX_FRAME_BYTES`] before the body buffer is allocated.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0usize;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Truncated {
                    needed: prefix.len(),
                    got: filled,
                }
                .into())
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized {
            len,
            cap: MAX_FRAME_BYTES,
        }
        .into());
    }
    let mut body = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut body[got..]) {
            Ok(0) => return Err(FrameError::Truncated { needed: len, got }.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    decode_body(&body).map(Some).map_err(WireError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) -> Frame {
        let wire = encode_frame(&frame);
        assert_eq!(wire.capacity(), wire.len(), "reserved to the exact size");
        // A reused buffer holding stale bytes encodes the same frame.
        let mut reused = vec![0xEE; 3];
        encode_frame_into(&frame, &mut reused);
        assert_eq!(reused, wire);
        // Through the body codec…
        assert_eq!(decode_body(&wire[4..]).unwrap(), frame);
        // …and through the stream reader.
        let mut cursor = &wire[..];
        let back = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, frame);
        back
    }

    #[test]
    fn request_frames_round_trip() {
        round_trip(Frame::Request(RequestFrame {
            request_id: 7,
            tenant: 42,
            key: None,
            priority: Priority::Normal,
            whiten: false,
            d: 8,
            bits: vec![1, 2, 3, 4, 5, 6, 7, 8],
        }));
        // Keyed + high priority + empty payload.
        round_trip(Frame::Request(RequestFrame {
            request_id: u64::MAX,
            tenant: 0,
            key: Some(0xDEAD_BEEF_u64),
            priority: Priority::High,
            whiten: false,
            d: 768,
            bits: Vec::new(),
        }));
    }

    #[test]
    fn response_frames_round_trip() {
        round_trip(Frame::Response(ResponseFrame {
            request_id: 3,
            rows: 2,
            bits: vec![0, u32::MAX, 0x3F80_0000, 1],
        }));
    }

    #[test]
    fn response_frames_encode_to_pinned_bytes() {
        let golden: Vec<u8> = [
            &[0, 0, 0, 26][..],
            b"L2NP",
            &[VERSION, TYPE_RESPONSE],
            &3u64.to_be_bytes(),
            &1u32.to_be_bytes(),
            &[0x3F, 0x80, 0, 0],
            &[0, 0, 0, 1],
        ]
        .concat();
        let bits = [0x3F80_0000, 1];
        let frame = Frame::Response(ResponseFrame {
            request_id: 3,
            rows: 1,
            bits: bits.to_vec(),
        });
        assert_eq!(encode_frame(&frame), golden);
        let mut wire = Vec::new();
        encode_frame_into(&Frame::MetricsRequest, &mut wire);
        encode_response_into(3, 1, &bits, &mut wire);
        assert_eq!(wire, golden, "borrowed-bits encoder, reused buffer");
    }

    #[test]
    fn error_frames_round_trip_every_code() {
        for code in ErrorCode::ALL {
            round_trip(Frame::Error(ErrorFrame {
                request_id: 9,
                code,
                message: format!("because {code}"),
            }));
        }
    }

    #[test]
    fn metrics_frames_round_trip() {
        round_trip(Frame::MetricsRequest);
        round_trip(Frame::MetricsResponse(
            "norm_service_requests 12\n".to_string(),
        ));
        round_trip(Frame::MetricsResponse(String::new()));
    }

    #[test]
    fn error_codes_are_distinct_and_invertible() {
        let mut bytes: Vec<u8> = ErrorCode::ALL.iter().map(|c| c.to_byte()).collect();
        bytes.sort_unstable();
        bytes.dedup();
        assert_eq!(bytes.len(), ErrorCode::ALL.len());
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_byte(code.to_byte()), Some(code));
        }
        assert_eq!(ErrorCode::from_byte(0), None);
        assert_eq!(ErrorCode::from_byte(200), None);
    }

    #[test]
    fn clean_close_before_prefix_is_none() {
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
    }

    #[test]
    fn truncated_length_prefix_is_rejected() {
        // The stream dies after 2 of the 4 prefix bytes.
        let mut short: &[u8] = &[0, 0];
        match read_frame(&mut short) {
            Err(WireError::Malformed(FrameError::Truncated { needed: 4, got: 2 })) => {}
            other => panic!("expected prefix truncation, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_rejected() {
        let wire = encode_frame(&Frame::MetricsResponse("hello".into()));
        let mut cut = &wire[..wire.len() - 2];
        match read_frame(&mut cut) {
            Err(WireError::Malformed(FrameError::Truncated { .. })) => {}
            other => panic!("expected body truncation, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut wire = encode_frame(&Frame::MetricsRequest);
        wire[4] = b'X';
        match decode_body(&wire[4..]) {
            Err(FrameError::BadMagic(found)) => assert_eq!(found[0], b'X'),
            other => panic!("expected bad magic, got {other:?}"),
        }
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut wire = encode_frame(&Frame::MetricsRequest);
        wire[8] = VERSION + 1;
        assert_eq!(
            decode_body(&wire[4..]),
            Err(FrameError::VersionSkew { got: VERSION + 1 })
        );
    }

    #[test]
    fn unknown_frame_type_is_rejected() {
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC);
        body.push(VERSION);
        body.push(99);
        assert_eq!(decode_body(&body), Err(FrameError::UnknownFrameType(99)));
    }

    #[test]
    fn unknown_error_code_is_rejected() {
        let mut wire = encode_frame(&Frame::Error(ErrorFrame {
            request_id: 1,
            code: ErrorCode::Internal,
            message: String::new(),
        }));
        // The code byte sits right after magic+version+type+request_id.
        let code_at = 4 + 4 + 1 + 1 + 8;
        wire[code_at] = 0;
        assert_eq!(
            decode_body(&wire[4..]),
            Err(FrameError::UnknownErrorCode(0))
        );
    }

    #[test]
    fn ragged_payload_is_rejected() {
        let mut wire = encode_frame(&Frame::Request(RequestFrame {
            request_id: 1,
            tenant: 1,
            key: None,
            priority: Priority::Normal,
            whiten: false,
            d: 4,
            bits: vec![1, 2, 3, 4],
        }));
        // Chop one byte off the payload and fix the prefix up to match —
        // the bytes now parse cleanly up to a 15-byte payload.
        wire.pop();
        let body_len = (wire.len() - 4) as u32;
        wire[..4].copy_from_slice(&body_len.to_be_bytes());
        let mut cursor = &wire[..];
        match read_frame(&mut cursor) {
            Err(WireError::Malformed(FrameError::RaggedPayload { bytes: 15 })) => {}
            other => panic!("expected ragged payload, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for frame in [
            Frame::MetricsRequest,
            Frame::Error(ErrorFrame {
                request_id: 1,
                code: ErrorCode::QueueFull,
                message: "full".into(),
            }),
        ] {
            let mut body = encode_frame(&frame)[4..].to_vec();
            body.push(0xAB);
            assert_eq!(
                decode_body(&body),
                Err(FrameError::TrailingBytes { extra: 1 }),
                "{frame:?}"
            );
        }
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC);
        body.push(VERSION);
        body.push(5); // metrics response
        body.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(decode_body(&body), Err(FrameError::BadUtf8));
    }

    /// A reader that hands out a hostile length prefix and panics if the
    /// caller tries to read the (absurd) body — proving the cap check
    /// fires *before* any body allocation or read.
    struct HostilePrefix {
        sent: usize,
    }

    impl Read for HostilePrefix {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let prefix = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
            if self.sent >= prefix.len() {
                panic!("reader asked for the oversized body");
            }
            let n = buf.len().min(prefix.len() - self.sent);
            buf[..n].copy_from_slice(&prefix[self.sent..self.sent + n]);
            self.sent += n;
            Ok(n)
        }
    }

    #[test]
    fn oversized_frame_is_capped_before_allocation() {
        let mut hostile = HostilePrefix { sent: 0 };
        match read_frame(&mut hostile) {
            Err(WireError::Malformed(FrameError::Oversized { len, cap })) => {
                assert_eq!(len, MAX_FRAME_BYTES + 1);
                assert_eq!(cap, MAX_FRAME_BYTES);
            }
            other => panic!("expected oversized rejection, got {other:?}"),
        }
    }

    #[test]
    fn long_error_messages_are_capped_at_the_field_width() {
        let frame = Frame::Error(ErrorFrame {
            request_id: 1,
            code: ErrorCode::Internal,
            message: "x".repeat(usize::from(u16::MAX) + 100),
        });
        let wire = encode_frame(&frame);
        match decode_body(&wire[4..]).unwrap() {
            Frame::Error(err) => assert_eq!(err.message.len(), usize::from(u16::MAX)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn frame_errors_display_specifics() {
        let cases: [(FrameError, &[&str]); 5] = [
            (FrameError::Truncated { needed: 8, got: 3 }, &["8", "3"]),
            (FrameError::VersionSkew { got: 9 }, &["v9", "v1"]),
            (FrameError::Oversized { len: 100, cap: 50 }, &["100", "50"]),
            (FrameError::RaggedPayload { bytes: 7 }, &["7"]),
            (FrameError::TrailingBytes { extra: 2 }, &["2"]),
        ];
        for (err, tokens) in cases {
            let s = err.to_string();
            for token in tokens {
                assert!(s.contains(token), "'{s}' missing {token}");
            }
        }
    }
}
