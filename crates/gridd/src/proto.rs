//! The gridd wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message — request or response — travels as one *frame*: a
//! 4-byte big-endian payload length followed by that many payload
//! bytes. The first payload byte is a verb/status tag; the rest is a
//! fixed field sequence for that tag (strings and blobs are themselves
//! u32-length-prefixed). One request frame yields exactly one response
//! frame on the same connection; clients may then reuse or drop the
//! connection.
//!
//! Frames are capped at [`MAX_FRAME`] so a hostile or confused peer
//! cannot make the daemon allocate unboundedly — the length word is
//! validated *before* any buffer is sized.
//!
//! ## Verbs
//!
//! | verb     | request fields            | success response       |
//! |----------|---------------------------|------------------------|
//! | `submit` | client id, job name       | `ok` (job id)          |
//! | `put`    | client id, file name, data| `ok` (bytes stored)    |
//! | `get`    | client id, file name      | `data` (file contents) |
//! | `df`     | client id                 | `free` (free FDs)      |
//! | `stat`   | client id, file name      | `free` (1 if it exists)|
//! | `stats`  | —                         | `stats` (metrics JSON) |
//!
//! Failures come back as `err` with an [`ErrCode`] and a message.
//!
//! ## Two ways through the codec
//!
//! The owning one — [`Request::encode`] / [`frame_into`] on the way
//! out, [`FrameBuf::next_frame`] on the way in — hands every payload
//! over as a `Vec` of its own. The reactors on either end of a
//! connection use the other: [`Request::encode_frame`] and
//! [`Response::encode_frame`] append a whole frame to the connection's
//! outgoing buffer (one field table per direction serves both
//! encoders), and [`FrameBuf::next_slice`] lends the payload out of the
//! receive buffer for `decode` to read, so a message is copied once
//! into its frame and once out of it.

use std::io::{self, Read, Write};

/// Upper bound on a frame payload, in bytes. Large enough for any
/// corpus file transfer, small enough that a bad length word cannot
/// balloon the daemon's memory.
pub const MAX_FRAME: usize = 1 << 20;

/// A request frame, decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit a job to the schedd.
    Submit {
        /// Caller's client index (labels per-client counters).
        client: u32,
        /// Job name (free-form; echoed in the job id).
        job: String,
    },
    /// Store a file on the file server.
    Put {
        /// Caller's client index.
        client: u32,
        /// File name.
        name: String,
        /// File contents.
        data: Vec<u8>,
    },
    /// Fetch a file from the file server.
    Get {
        /// Caller's client index.
        client: u32,
        /// File name.
        name: String,
    },
    /// Free-capacity query — the carrier-sense channel.
    Df {
        /// Caller's client index.
        client: u32,
    },
    /// Does a file exist? The file server's carrier-sense channel:
    /// answered from the directory cache, never queued behind file
    /// service, so sensing is free where a blind `get` miss is an
    /// expensive scan.
    Stat {
        /// Caller's client index.
        client: u32,
        /// File name.
        name: String,
    },
    /// Dump per-client counters as `simgrid::metrics` JSON.
    Stats,
}

/// A response frame, decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The verb succeeded; `info` is verb-specific (job id, byte count).
    Ok {
        /// Verb-specific detail.
        info: String,
    },
    /// File contents (for `get`).
    Data {
        /// The bytes stored under the requested name.
        data: Vec<u8>,
    },
    /// Free capacity (for `df`).
    Free {
        /// Free descriptors in the schedd's table right now (possibly
        /// a lie under a `free-space-lie` fault window), or 1 / 0 for a
        /// `stat` that finds / misses its key.
        slots: u64,
    },
    /// Per-client counters (for `stats`).
    Stats {
        /// A `simgrid::metrics::SeriesSet` JSON document.
        json: String,
    },
    /// The verb failed.
    Err {
        /// Machine-readable failure class.
        code: ErrCode,
        /// Human-readable detail.
        msg: String,
    },
}

/// Failure classes a [`Response::Err`] can carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrCode {
    /// The schedd is down (crashed or under a `schedd-kill` window).
    Down,
    /// No free capacity right now; retrying later may succeed.
    Busy,
    /// The file server has no space (`enospc` window).
    Enospc,
    /// No such file.
    NotFound,
    /// Malformed request.
    Bad,
}

impl ErrCode {
    /// Stable wire tag / display name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrCode::Down => "down",
            ErrCode::Busy => "busy",
            ErrCode::Enospc => "enospc",
            ErrCode::NotFound => "not-found",
            ErrCode::Bad => "bad",
        }
    }

    /// The code's wire tag. Tag 2 is retired and decodes as
    /// [`ProtoError::BadTag`]: a new code takes a new tag.
    fn to_u8(self) -> u8 {
        match self {
            ErrCode::Down => 0,
            ErrCode::Busy => 1,
            ErrCode::Enospc => 3,
            ErrCode::NotFound => 4,
            ErrCode::Bad => 5,
        }
    }

    fn from_u8(b: u8) -> Result<ErrCode, ProtoError> {
        Ok(match b {
            0 => ErrCode::Down,
            1 => ErrCode::Busy,
            3 => ErrCode::Enospc,
            4 => ErrCode::NotFound,
            5 => ErrCode::Bad,
            other => return Err(ProtoError::BadTag(other)),
        })
    }
}

impl std::fmt::Display for ErrCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Decoding failures.
#[derive(Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Unknown verb/status/error tag byte.
    BadTag(u8),
    /// Payload ended before the declared fields.
    Truncated,
    /// Payload has bytes beyond the declared fields.
    TrailingBytes,
    /// A length word exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// A string field is not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadTag(b) => write!(f, "unknown tag byte {b}"),
            ProtoError::Truncated => write!(f, "payload truncated"),
            ProtoError::TrailingBytes => write!(f, "payload has trailing bytes"),
            ProtoError::TooLarge(n) => write!(f, "length {n} exceeds frame cap {MAX_FRAME}"),
            ProtoError::BadUtf8 => write!(f, "string field is not UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------- frames

/// Write one frame: 4-byte big-endian length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame's payload. Validates the length word against
/// [`MAX_FRAME`] before allocating.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtoError::TooLarge(n),
        ));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Append one frame (length word + payload) to `out` without flushing
/// anywhere — the event loop's write path owns the socket.
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_FRAME);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
}

/// An incremental frame decoder for non-blocking sockets: bytes arrive
/// in whatever chunks the kernel hands over, [`FrameBuf::extend`]
/// accumulates them, and [`FrameBuf::next_slice`] lends each complete
/// payload out of the buffer as soon as its last byte lands
/// ([`FrameBuf::next_frame`] copies it out instead). The length word is
/// validated against [`MAX_FRAME`] *before* the payload is buffered,
/// so a hostile peer cannot balloon memory with a lying header, and a
/// buffer that one large frame made grow gives the memory back once
/// the frames are small again.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
}

/// Capacity an emptied per-connection buffer ([`FrameBuf`], the
/// reactor's outgoing bytes) keeps once it is back to small messages,
/// so that one bulk transfer does not cost a connection its size in
/// memory for the rest of its life.
pub(crate) const KEEP: usize = 4096;

/// Empty `buf`. If what it held fit in [`KEEP`], capacity above that
/// goes back to the allocator: whatever made the buffer grow is not
/// being followed by more of the same. (Trimming after *every* fill
/// makes a connection that moves 64 KiB files re-grow the buffer for
/// each — measured at +8 % on `live_verbs`' `setup_s`, eight such
/// `put`s.)
pub(crate) fn clear_and_trim(buf: &mut Vec<u8>) {
    let fit = buf.len() <= KEEP;
    buf.clear();
    if fit && buf.capacity() > KEEP {
        buf.shrink_to(KEEP);
    }
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Feed freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, so a long-lived
        // connection's buffer stays proportional to one frame.
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Lend the next complete frame payload out of the buffer,
    /// `Ok(None)` while one is still partial, or an error for an
    /// over-cap length word. The call that finds the buffer consumed
    /// to its end is the one that empties (and trims) it.
    pub fn next_slice(&mut self) -> Result<Option<&[u8]>, ProtoError> {
        let (len, at) = (self.buf.len(), self.pos + 4);
        if len < at {
            if self.pos == len && len > 0 {
                clear_and_trim(&mut self.buf);
                self.pos = 0;
            }
            return Ok(None);
        }
        let n = u32::from_be_bytes(self.buf[self.pos..at].try_into().expect("4 bytes")) as usize;
        if n > MAX_FRAME {
            return Err(ProtoError::TooLarge(n));
        }
        let end = at + n;
        if len < end {
            return Ok(None);
        }
        self.pos = end;
        Ok(Some(&self.buf[at..end]))
    }

    /// [`FrameBuf::next_slice`], copied out.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtoError> {
        Ok(self.next_slice()?.map(<[u8]>::to_vec))
    }
}

// ------------------------------------------------------------- encoding

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Append one whole frame to `out`: reserve the length word, let
/// `fields` write the payload behind it, then patch the length in.
fn frame_with(out: &mut Vec<u8>, fields: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    fields(out);
    let n = out.len() - at - 4;
    debug_assert!(n <= MAX_FRAME);
    out[at..at + 4].copy_from_slice(&(n as u32).to_be_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME {
            return Err(ProtoError::TooLarge(n));
        }
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        String::from_utf8(self.bytes()?).map_err(|_| ProtoError::BadUtf8)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes)
        }
    }
}

const REQ_SUBMIT: u8 = 1;
const REQ_PUT: u8 = 2;
const REQ_GET: u8 = 3;
const REQ_DF: u8 = 4;
const REQ_STATS: u8 = 5;
const REQ_STAT: u8 = 6;

const RESP_OK: u8 = 0x80;
const RESP_DATA: u8 = 0x81;
const RESP_FREE: u8 = 0x82;
const RESP_STATS: u8 = 0x83;
const RESP_ERR: u8 = 0x84;

impl Request {
    /// The payload: tag byte, then the verb's fields. Always inlined:
    /// [`Request::encode`] must compile to what it was while it held
    /// this `match` itself, with the `Vec` a local and not a pointer.
    #[inline(always)]
    fn put_fields(&self, b: &mut Vec<u8>) {
        match self {
            Request::Submit { client, job } => {
                b.push(REQ_SUBMIT);
                put_u32(b, *client);
                put_str(b, job);
            }
            Request::Put { client, name, data } => {
                b.push(REQ_PUT);
                put_u32(b, *client);
                put_str(b, name);
                put_bytes(b, data);
            }
            Request::Get { client, name } => {
                b.push(REQ_GET);
                put_u32(b, *client);
                put_str(b, name);
            }
            Request::Df { client } => {
                b.push(REQ_DF);
                put_u32(b, *client);
            }
            Request::Stat { client, name } => {
                b.push(REQ_STAT);
                put_u32(b, *client);
                put_str(b, name);
            }
            Request::Stats => b.push(REQ_STATS),
        }
    }

    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        self.put_fields(&mut b);
        b
    }

    /// Append the request to `out` as one whole frame — what
    /// [`frame_into`] makes of [`Request::encode`], without the
    /// payload's own buffer in between.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        frame_with(out, |b| self.put_fields(b));
    }

    /// Decode a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Request, ProtoError> {
        let mut c = Cursor::new(buf);
        let req = match c.u8()? {
            REQ_SUBMIT => Request::Submit {
                client: c.u32()?,
                job: c.string()?,
            },
            REQ_PUT => Request::Put {
                client: c.u32()?,
                name: c.string()?,
                data: c.bytes()?,
            },
            REQ_GET => Request::Get {
                client: c.u32()?,
                name: c.string()?,
            },
            REQ_DF => Request::Df { client: c.u32()? },
            REQ_STAT => Request::Stat {
                client: c.u32()?,
                name: c.string()?,
            },
            REQ_STATS => Request::Stats,
            other => return Err(ProtoError::BadTag(other)),
        };
        c.finish()?;
        Ok(req)
    }

    /// The verb's name as the table above spells it — also the
    /// *channel* a fault plan's `msg-loss` and `latency-spike` specs
    /// name at the daemon.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Submit { .. } => "submit",
            Request::Put { .. } => "put",
            Request::Get { .. } => "get",
            Request::Df { .. } => "df",
            Request::Stat { .. } => "stat",
            Request::Stats => "stats",
        }
    }

    /// The client index this request carries, if any.
    pub fn client(&self) -> Option<u32> {
        match self {
            Request::Submit { client, .. }
            | Request::Put { client, .. }
            | Request::Get { client, .. }
            | Request::Df { client }
            | Request::Stat { client, .. } => Some(*client),
            Request::Stats => None,
        }
    }
}

impl Response {
    /// The payload: status byte, then the status's fields. Always
    /// inlined, as [`Request`]'s is.
    #[inline(always)]
    fn put_fields(&self, b: &mut Vec<u8>) {
        match self {
            Response::Ok { info } => {
                b.push(RESP_OK);
                put_str(b, info);
            }
            Response::Data { data } => {
                b.push(RESP_DATA);
                put_bytes(b, data);
            }
            Response::Free { slots } => {
                b.push(RESP_FREE);
                put_u64(b, *slots);
            }
            Response::Stats { json } => {
                b.push(RESP_STATS);
                put_str(b, json);
            }
            Response::Err { code, msg } => {
                b.push(RESP_ERR);
                b.push(code.to_u8());
                put_str(b, msg);
            }
        }
    }

    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        self.put_fields(&mut b);
        b
    }

    /// Append the response to `out` as one whole frame — what
    /// [`frame_into`] makes of [`Response::encode`], without the
    /// payload's own buffer in between.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        frame_with(out, |b| self.put_fields(b));
    }

    /// Decode a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Response, ProtoError> {
        let mut c = Cursor::new(buf);
        let resp = match c.u8()? {
            RESP_OK => Response::Ok { info: c.string()? },
            RESP_DATA => Response::Data { data: c.bytes()? },
            RESP_FREE => Response::Free { slots: c.u64()? },
            RESP_STATS => Response::Stats { json: c.string()? },
            RESP_ERR => Response::Err {
                code: ErrCode::from_u8(c.u8()?)?,
                msg: c.string()?,
            },
            other => return Err(ProtoError::BadTag(other)),
        };
        c.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        let enc = r.encode();
        assert_eq!(Request::decode(&enc), Ok(r));
    }

    fn roundtrip_resp(r: Response) {
        let enc = r.encode();
        assert_eq!(Response::decode(&enc), Ok(r));
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Submit {
            client: 3,
            job: "job-3-17".into(),
        });
        roundtrip_req(Request::Put {
            client: 0,
            name: "out.txt".into(),
            data: b"hello\nworld\n".to_vec(),
        });
        roundtrip_req(Request::Get {
            client: 9,
            name: "out.txt".into(),
        });
        roundtrip_req(Request::Df { client: 7 });
        roundtrip_req(Request::Stats);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Ok {
            info: "job-3-17@42".into(),
        });
        roundtrip_resp(Response::Data {
            data: vec![0, 1, 2, 255],
        });
        roundtrip_resp(Response::Free { slots: 12 });
        roundtrip_resp(Response::Stats {
            json: "{\"title\":\"x\"}".into(),
        });
        roundtrip_resp(Response::Err {
            code: ErrCode::Enospc,
            msg: "buffer full".into(),
        });
    }

    #[test]
    fn frames_roundtrip_over_a_pipe() {
        let req = Request::Put {
            client: 1,
            name: "n".into(),
            data: vec![7; 1000],
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let mut r = &wire[..];
        let payload = read_frame(&mut r).unwrap();
        assert_eq!(Request::decode(&payload), Ok(req));
        assert!(r.is_empty());
    }

    #[test]
    fn oversized_length_word_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_be_bytes());
        let err = read_frame(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let enc = Request::Submit {
            client: 1,
            job: "j".into(),
        }
        .encode();
        assert_eq!(
            Request::decode(&enc[..enc.len() - 1]),
            Err(ProtoError::Truncated)
        );
        let mut extra = enc.clone();
        extra.push(0);
        assert_eq!(Request::decode(&extra), Err(ProtoError::TrailingBytes));
        assert_eq!(Request::decode(&[99]), Err(ProtoError::BadTag(99)));
    }

    #[test]
    fn frame_buf_reassembles_byte_dribbles() {
        // Two pipelined requests, delivered one byte at a time.
        let reqs = [
            Request::Submit {
                client: 2,
                job: "drip".into(),
            },
            Request::Df { client: 2 },
        ];
        let mut wire = Vec::new();
        for r in &reqs {
            frame_into(&mut wire, &r.encode());
        }
        let mut fb = FrameBuf::new();
        let mut seen = Vec::new();
        for b in wire {
            fb.extend(&[b]);
            while let Some(payload) = fb.next_frame().unwrap() {
                seen.push(Request::decode(&payload).unwrap());
            }
        }
        assert_eq!(seen, reqs);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn frame_buf_rejects_lying_length_before_buffering() {
        let mut fb = FrameBuf::new();
        fb.extend(&u32::MAX.to_be_bytes());
        assert!(matches!(fb.next_frame(), Err(ProtoError::TooLarge(_))));
    }

    #[test]
    fn frame_buf_compacts_consumed_prefix() {
        let mut fb = FrameBuf::new();
        let mut wire = Vec::new();
        frame_into(&mut wire, &Request::Stats.encode());
        for _ in 0..2000 {
            fb.extend(&wire);
            assert!(fb.next_frame().unwrap().is_some());
        }
        // Consumed bytes must not accumulate forever.
        assert!(fb.buf.len() < 16 * 1024, "buffer grew to {}", fb.buf.len());
    }

    /// One of every message, the awkward sizes included: empty strings
    /// and blobs, and a blob that fills a frame to the byte.
    fn every_request() -> Vec<Request> {
        let (client, name) = (7, || "n".to_string());
        let full = vec![0xAB; MAX_FRAME - (1 + 4 + 4 + 1 + 4)];
        vec![
            Request::Submit {
                client,
                job: name(),
            },
            Request::Submit {
                client,
                job: String::new(),
            },
            Request::Put {
                client,
                name: String::new(),
                data: Vec::new(),
            },
            Request::Put {
                client,
                name: name(),
                data: full,
            },
            Request::Get {
                client,
                name: name(),
            },
            Request::Df { client },
            Request::Stat {
                client,
                name: String::new(),
            },
            Request::Stats,
        ]
    }

    fn every_response() -> Vec<Response> {
        let code = ErrCode::NotFound;
        vec![
            Response::Ok {
                info: String::new(),
            },
            Response::Ok { info: "j@1".into() },
            Response::Data { data: Vec::new() },
            Response::Data {
                data: vec![0xCD; MAX_FRAME - (1 + 4)],
            },
            Response::Free { slots: u64::MAX },
            Response::Stats { json: "{}".into() },
            Response::Err {
                code,
                msg: String::new(),
            },
            Response::Err {
                code,
                msg: "no such file".into(),
            },
        ]
    }

    /// `encode_frame` appends exactly what `frame_into` makes of
    /// `encode`, behind whatever the buffer already held.
    #[test]
    fn framing_in_place_matches_the_owning_encoder() {
        fn check(payload: Vec<u8>, encode_frame: impl Fn(&mut Vec<u8>)) {
            let mut want = b"earlier".to_vec();
            frame_into(&mut want, &payload);
            let mut got = b"earlier".to_vec();
            encode_frame(&mut got);
            assert!(got == want, "a {}-byte payload differs", payload.len());
        }
        for r in every_request() {
            check(r.encode(), |out| r.encode_frame(out));
        }
        for r in every_response() {
            check(r.encode(), |out| r.encode_frame(out));
        }
    }

    /// However the stream is cut up, the borrowing and the owning call
    /// yield the same frames.
    #[test]
    fn frame_buf_yields_the_same_frames_however_fed_and_however_asked() {
        let mut wire = Vec::new();
        let mut want = Vec::new();
        for r in every_request()
            .into_iter()
            .filter(|r| r.encode().len() < 64)
        {
            r.encode_frame(&mut wire);
            want.push(r.encode());
        }
        frame_into(&mut wire, &[]); // a zero-length frame is a frame
        want.push(Vec::new());
        for piece in [wire.len(), 1, 7] {
            let (mut lent, mut owned) = (FrameBuf::new(), FrameBuf::new());
            let (mut from_lent, mut from_owned) = (Vec::new(), Vec::new());
            for bytes in wire.chunks(piece) {
                lent.extend(bytes);
                while let Some(frame) = lent.next_slice().unwrap() {
                    from_lent.push(frame.to_vec());
                }
                owned.extend(bytes);
                while let Some(frame) = owned.next_frame().unwrap() {
                    from_owned.push(frame);
                }
            }
            assert_eq!(from_lent, want, "lent, in {piece}-byte pieces");
            assert_eq!(from_owned, want, "owned, in {piece}-byte pieces");
            assert_eq!((lent.pending(), owned.pending()), (0, 0));
        }
        // The length word alone is enough to refuse, either way.
        let lying = ((MAX_FRAME + 1) as u32).to_be_bytes();
        let (mut lent, mut owned) = (FrameBuf::new(), FrameBuf::new());
        lent.extend(&lying);
        owned.extend(&lying);
        let too_large = ProtoError::TooLarge(MAX_FRAME + 1);
        assert_eq!(lent.next_slice().unwrap_err(), too_large);
        assert_eq!(owned.next_frame().unwrap_err(), too_large);
    }

    /// One large frame does not cost the connection its size for good:
    /// the buffer keeps the memory while large frames keep coming and
    /// gives it back with the first fill that did not need it.
    #[test]
    fn frame_buf_gives_back_what_one_large_frame_made_it_allocate() {
        let mut fb = FrameBuf::new();
        let mut wire = Vec::new();
        frame_into(&mut wire, &vec![7; MAX_FRAME]);
        for _ in 0..2 {
            for piece in wire.chunks(16 * 1024) {
                assert_eq!(fb.next_slice(), Ok(None));
                fb.extend(piece);
            }
            assert_eq!(fb.next_slice().unwrap().map(<[u8]>::len), Some(MAX_FRAME));
            assert_eq!(fb.next_slice(), Ok(None));
            assert!(fb.buf.capacity() >= MAX_FRAME, "kept for the next one");
        }
        let mut small = Vec::new();
        Request::Df { client: 1 }.encode_frame(&mut small);
        for _ in 0..100 {
            fb.extend(&small);
            assert!(fb.next_slice().unwrap().is_some());
            assert_eq!(fb.next_slice(), Ok(None));
            assert!(fb.buf.capacity() <= KEEP, "{} kept", fb.buf.capacity());
        }
    }

    #[test]
    fn err_codes_roundtrip() {
        for code in [
            ErrCode::Down,
            ErrCode::Busy,
            ErrCode::Enospc,
            ErrCode::NotFound,
            ErrCode::Bad,
        ] {
            assert_eq!(ErrCode::from_u8(code.to_u8()), Ok(code));
            assert!(!code.as_str().is_empty());
        }
        // Tag 2 is retired; the other codes keep their tags.
        assert_eq!(ErrCode::from_u8(2), Err(ProtoError::BadTag(2)));
        assert_eq!(ErrCode::Enospc.to_u8(), 3);
    }
}
