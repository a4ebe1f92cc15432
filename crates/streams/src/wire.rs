//! Framed wire format for turnstile update streams.
//!
//! A long-running ingest service accepts updates from the outside world over
//! a byte stream (a TCP socket, a pipe, a file being tailed).  This module
//! defines the versioned little-endian framing that byte stream uses — the
//! same codec discipline as the [`checkpoint`](crate::checkpoint) layer, but
//! for *data in motion* instead of state at rest:
//!
//! ```text
//! stream  = magic version domain frame* end-frame
//! magic   = b"ZLWU"                      4 bytes
//! version = u16 LE                       format version (currently 1)
//! domain  = u64 LE                       domain size n; items are in [0, n)
//! frame   = tag len payload
//! tag     = u8                           1 = updates, 2 = end of stream
//! len     = u32 LE                       payload length in bytes
//! payload = (item: u64 LE, delta: i64 LE)*   for updates frames (len % 16 == 0)
//!         = empty                            for the end-of-stream frame
//! ```
//!
//! Design points:
//!
//! * **Length-prefixed frames.** A receiver always knows how many bytes the
//!   next frame occupies, so it can enforce a frame-size bound *before*
//!   allocating ([`WireError::OversizedFrame`]) and a slow consumer
//!   backpressures the socket instead of buffering unboundedly.
//! * **Explicit end-of-stream.** A stream that simply stops (connection
//!   reset, producer crash) is distinguishable from one that finished
//!   cleanly: its decoder is left unfinished ([`FrameDecoder::finished`] is
//!   false) with no parked error, holding exactly the complete frames, and
//!   its owner fails the stream when the bytes run out — as the server's
//!   reactor does for a connection "closed before its end-of-stream
//!   frame".  Truncation, never silent success.
//! * **Coalescable batches.** Frames carry `(item, delta)` batches, and
//!   turnstile deltas add exactly mod 2⁶⁴ (wrapping `i64`), so any stage
//!   downstream of the decoder may [`coalesce`](crate::coalesce_updates) a
//!   frame without changing what a linear sketch computes — the property
//!   every sketch's `update_batch` exploits.
//! * **Typed errors, never panics.** A bad magic, an unsupported version, a
//!   domain the receiver does not serve, an unknown frame tag, an oversized
//!   length prefix and a malformed payload all surface as [`WireError`]s.
//!
//! [`FrameWriter`] produces the format; [`FrameDecoder`] consumes it from
//! whatever byte slices the transport delivers, and its drained batches
//! feed any sink's `update_batch`.

use crate::update::Update;
use std::fmt;
use std::io::{self, Write};

/// The 4-byte magic prefix of every wire stream ("ZeroLaw Wire Updates").
pub const WIRE_MAGIC: [u8; 4] = *b"ZLWU";

/// The current wire format version.
pub const WIRE_VERSION: u16 = 1;

/// Frame tags.  Append-only: a tag's meaning never changes across versions.
pub mod frame_tag {
    /// A batch of `(item, delta)` updates.
    pub const UPDATES: u8 = 1;
    /// Explicit end of stream; its payload is empty.
    pub const END: u8 = 2;
}

/// Bytes per encoded update on the wire (`u64` item + `i64` delta).
pub const WIRE_UPDATE_BYTES: usize = 16;

/// Cap on a single frame's payload, in bytes (64 Ki updates).  Writers
/// chunk larger batches; the decoder rejects larger length prefixes before
/// allocating.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = (1 << 16) * WIRE_UPDATE_BYTES as u32;

/// Error raised while writing or decoding a wire stream.
#[derive(Debug)]
pub enum WireError {
    /// An I/O failure of the writer's underlying [`Write`].
    Io(io::Error),
    /// The stream does not start with the wire magic.
    BadMagic,
    /// The stream was written with a format version this build does not
    /// understand.
    UnsupportedVersion {
        /// The version found in the stream header.
        found: u16,
    },
    /// A frame carries a tag this build does not know.
    UnknownFrameTag {
        /// The tag byte found on the wire.
        found: u8,
    },
    /// A frame's length prefix exceeds [`DEFAULT_MAX_FRAME_BYTES`] —
    /// rejected before any allocation happens.
    OversizedFrame {
        /// The length prefix found on the wire.
        len: u32,
        /// The frame-size bound.
        max: u32,
    },
    /// The stream header declares a different domain than the receiver
    /// serves.  Checked once, at header decode
    /// ([`FrameDecoder::with_expected_domain`]), so an item that is legal for
    /// the *declared* domain but out of range for the *serving* domain can
    /// never survive decoding and reach a sketch at apply time.
    DomainMismatch {
        /// The domain size declared in the stream header.
        declared: u64,
        /// The domain size the receiver serves.
        expected: u64,
    },
    /// The frame payload is structurally invalid: an updates payload whose
    /// length is not a multiple of the encoded update size, a non-empty
    /// end-of-stream frame, an item outside the stream's declared domain.
    Corrupt(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::BadMagic => write!(f, "not a wire stream (bad magic)"),
            WireError::UnsupportedVersion { found } => write!(
                f,
                "unsupported wire format version {found} (this build reads {WIRE_VERSION})"
            ),
            WireError::UnknownFrameTag { found } => {
                write!(f, "unknown wire frame tag {found}")
            }
            WireError::OversizedFrame { len, max } => write!(
                f,
                "frame length prefix {len} exceeds the {max}-byte frame bound"
            ),
            WireError::DomainMismatch { declared, expected } => write!(
                f,
                "stream declares domain {declared} but the receiver serves domain {expected}"
            ),
            WireError::Corrupt(reason) => write!(f, "corrupt wire frame: {reason}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes a framed wire stream of updates to any [`Write`].
///
/// The stream header is written on construction; updates are buffered and
/// flushed as length-prefixed frames of at most
/// [`with_frame_updates`](FrameWriter::with_frame_updates) entries (by
/// default as many as [`DEFAULT_MAX_FRAME_BYTES`] holds);
/// [`finish`](FrameWriter::finish) writes the explicit end-of-stream frame.
/// Dropping a writer without calling `finish` leaves the stream truncated —
/// which a [`FrameDecoder`] never reports as finished, exactly as intended
/// for a crashed producer.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    inner: W,
    buf: Vec<Update>,
    frame_updates: usize,
    domain: u64,
}

impl<W: Write> FrameWriter<W> {
    /// Start a wire stream over the domain `[0, domain)`: writes the
    /// magic/version/domain header immediately.
    pub fn new(mut inner: W, domain: u64) -> Result<Self, WireError> {
        if domain == 0 {
            return Err(WireError::Corrupt(
                "wire stream domain size must be positive".into(),
            ));
        }
        inner.write_all(&WIRE_MAGIC)?;
        inner.write_all(&WIRE_VERSION.to_le_bytes())?;
        inner.write_all(&domain.to_le_bytes())?;
        Ok(Self {
            inner,
            buf: Vec::new(),
            frame_updates: DEFAULT_MAX_FRAME_BYTES as usize / WIRE_UPDATE_BYTES,
            domain,
        })
    }

    /// Cap the number of updates per frame (smaller frames mean earlier
    /// flushes and finer-grained receiver backpressure; larger frames
    /// amortize the 5-byte frame header).  Values are clamped to the
    /// decoder's frame bound, [`DEFAULT_MAX_FRAME_BYTES`].
    ///
    /// Returns an error when `frame_updates == 0`.
    pub fn with_frame_updates(mut self, frame_updates: usize) -> Result<Self, WireError> {
        if frame_updates == 0 {
            return Err(WireError::Corrupt(
                "frame update capacity must be positive".into(),
            ));
        }
        self.frame_updates =
            frame_updates.min(DEFAULT_MAX_FRAME_BYTES as usize / WIRE_UPDATE_BYTES);
        Ok(self)
    }

    /// Append one update, flushing a frame when the buffer fills.
    pub fn write_update(&mut self, u: Update) -> Result<(), WireError> {
        if u.item >= self.domain {
            return Err(WireError::Corrupt(format!(
                "item {} outside the stream domain [0, {})",
                u.item, self.domain
            )));
        }
        self.buf.push(u);
        if self.buf.len() >= self.frame_updates {
            self.flush_frame()?;
        }
        Ok(())
    }

    /// Append a batch of updates (chunked into frames as needed).
    pub fn write_batch(&mut self, updates: &[Update]) -> Result<(), WireError> {
        for &u in updates {
            self.write_update(u)?;
        }
        Ok(())
    }

    /// Flush any buffered updates as one frame (a no-op on an empty buffer).
    pub fn flush_frame(&mut self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let payload_len = (self.buf.len() * WIRE_UPDATE_BYTES) as u32;
        self.inner.write_all(&[frame_tag::UPDATES])?;
        self.inner.write_all(&payload_len.to_le_bytes())?;
        for u in &self.buf {
            self.inner.write_all(&u.item.to_le_bytes())?;
            self.inner.write_all(&u.delta.to_le_bytes())?;
        }
        self.buf.clear();
        Ok(())
    }

    /// Flush buffered updates, write the explicit end-of-stream frame, flush
    /// the underlying writer and hand it back (so e.g. a socket can be
    /// reused for a response).
    pub fn finish(mut self) -> Result<W, WireError> {
        self.flush_frame()?;
        self.inner.write_all(&[frame_tag::END])?;
        self.inner.write_all(&0u32.to_le_bytes())?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Total bytes of the stream header: magic + version + domain.
const HEADER_BYTES: usize = 4 + 2 + 8;

/// Bytes of a frame header: one tag byte + the `u32` length prefix.
const FRAME_HEADER_BYTES: usize = 1 + 4;

/// Where a [`FrameDecoder`] is in the byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecodeState {
    /// Accumulating the 14-byte magic/version/domain stream header.
    Header,
    /// Accumulating a 5-byte tag + length-prefix frame header.
    FrameHeader,
    /// Accumulating a non-empty updates payload of exactly `len` bytes.
    Payload { len: usize },
}

/// Push-based, resumable decoder of the wire format.
///
/// The receiver owns the transport reads and *pushes* whatever bytes
/// arrived into the decoder via [`feed`](FrameDecoder::feed).  The decoder
/// is a byte-level state machine that stops and resumes anywhere —
/// mid-header, mid-length-prefix, mid-payload — which is exactly the shape
/// a non-blocking reactor's `WouldBlock` slices a TCP stream into.
///
/// Decode failures are typed [`WireError`]s, parked until
/// [`take_error`](Self::take_error) so the owner decides how a broken
/// stream dies.  [`feed`](Self::feed) **stops consuming at the
/// end-of-stream frame** (and on a parked error), so bytes after the
/// stream's end are reported unconsumed — on a persistent connection they
/// belong to the *next* request, not to this stream.  Bytes that run out
/// before the end frame leave the decoder unfinished with no parked error;
/// every complete frame has been decoded by then, and the owner decides
/// whether that prefix counts.
///
/// ```
/// use gsum_streams::wire::{encode_updates, FrameDecoder};
/// use gsum_streams::Update;
///
/// let bytes = encode_updates(64, &[Update::new(3, 5), Update::new(9, -2)]).unwrap();
/// let mut decoder = FrameDecoder::new().with_expected_domain(64);
/// // Feed one byte at a time — worst-case readiness slicing.
/// let mut decoded = Vec::new();
/// for &b in &bytes {
///     decoder.feed(&[b]);
///     decoder.drain_into(&mut decoded);
/// }
/// assert!(decoder.finished());
/// assert_eq!(decoded, vec![Update::new(3, 5), Update::new(9, -2)]);
/// ```
#[derive(Debug)]
pub struct FrameDecoder {
    state: DecodeState,
    expected_domain: Option<u64>,
    /// The domain declared by the stream header, once decoded.
    domain: Option<u64>,
    /// Partial bytes of the unit currently being decoded.
    buf: Vec<u8>,
    pending: Vec<Update>,
    finished: bool,
    error: Option<WireError>,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder at the start of a stream (header not yet seen).
    pub fn new() -> Self {
        Self {
            state: DecodeState::Header,
            expected_domain: None,
            domain: None,
            buf: Vec::new(),
            pending: Vec::new(),
            finished: false,
            error: None,
        }
    }

    /// Require the stream's declared domain to be exactly `expected` — the
    /// single decode-time gate a receiver serving a fixed domain uses.
    ///
    /// Without it, a stream declaring a *larger* domain than the receiver
    /// serves decodes cleanly (items are validated against the declared
    /// domain only), and the out-of-range items surface wherever a sketch
    /// happens to notice them, at apply time.  With it, the mismatch
    /// surfaces as a parked [`WireError::DomainMismatch`] the moment the
    /// header is decoded.
    pub fn with_expected_domain(mut self, expected: u64) -> Self {
        self.expected_domain = Some(expected);
        self
    }

    /// Push bytes into the decoder; returns how many were consumed.
    ///
    /// Consumption stops at the end-of-stream frame and on a parked decode
    /// error — the unconsumed tail is the caller's to re-route (the next
    /// request on a persistent connection) or discard (a poisoned stream).
    /// Decoded updates accumulate internally; move them out with
    /// [`drain_into`](Self::drain_into).
    pub fn feed(&mut self, input: &[u8]) -> usize {
        let mut consumed = 0;
        while consumed < input.len() && !self.finished && self.error.is_none() {
            let need = match self.state {
                DecodeState::Header => HEADER_BYTES,
                DecodeState::FrameHeader => FRAME_HEADER_BYTES,
                DecodeState::Payload { len } => len,
            };
            let take = (need - self.buf.len()).min(input.len() - consumed);
            self.buf
                .extend_from_slice(&input[consumed..consumed + take]);
            consumed += take;
            if self.buf.len() < need {
                break;
            }
            let step = match self.state {
                DecodeState::Header => self.decode_header(),
                DecodeState::FrameHeader => self.decode_frame_header(),
                DecodeState::Payload { .. } => self.decode_payload(),
            };
            self.buf.clear();
            if let Err(e) = step {
                self.error = Some(e);
            }
        }
        consumed
    }

    fn decode_header(&mut self) -> Result<(), WireError> {
        if self.buf[..4] != WIRE_MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = u16::from_le_bytes(self.buf[4..6].try_into().expect("2 bytes"));
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { found: version });
        }
        let domain = u64::from_le_bytes(self.buf[6..14].try_into().expect("8 bytes"));
        if domain == 0 {
            return Err(WireError::Corrupt(
                "wire stream domain size must be positive".into(),
            ));
        }
        if let Some(expected) = self.expected_domain {
            if domain != expected {
                return Err(WireError::DomainMismatch {
                    declared: domain,
                    expected,
                });
            }
        }
        self.domain = Some(domain);
        self.state = DecodeState::FrameHeader;
        Ok(())
    }

    fn decode_frame_header(&mut self) -> Result<(), WireError> {
        let tag = self.buf[0];
        let len = u32::from_le_bytes(self.buf[1..5].try_into().expect("4 bytes"));
        match tag {
            frame_tag::END => {
                if len != 0 {
                    return Err(WireError::Corrupt(format!(
                        "end-of-stream frame with a {len}-byte payload"
                    )));
                }
                self.finished = true;
                Ok(())
            }
            frame_tag::UPDATES => {
                if len > DEFAULT_MAX_FRAME_BYTES {
                    return Err(WireError::OversizedFrame {
                        len,
                        max: DEFAULT_MAX_FRAME_BYTES,
                    });
                }
                if !(len as usize).is_multiple_of(WIRE_UPDATE_BYTES) {
                    return Err(WireError::Corrupt(format!(
                        "updates payload of {len} bytes is not a multiple of {WIRE_UPDATE_BYTES}"
                    )));
                }
                // An empty updates frame carries no payload to wait for.
                if len > 0 {
                    self.state = DecodeState::Payload { len: len as usize };
                }
                Ok(())
            }
            other => Err(WireError::UnknownFrameTag { found: other }),
        }
    }

    fn decode_payload(&mut self) -> Result<(), WireError> {
        let domain = self.domain.expect("payload state implies a decoded header");
        for entry in self.buf.chunks_exact(WIRE_UPDATE_BYTES) {
            let item = u64::from_le_bytes(entry[..8].try_into().expect("8 bytes"));
            let delta = i64::from_le_bytes(entry[8..].try_into().expect("8 bytes"));
            if item >= domain {
                return Err(WireError::Corrupt(format!(
                    "item {item} outside the stream domain [0, {domain})"
                )));
            }
            self.pending.push(Update { item, delta });
        }
        self.state = DecodeState::FrameHeader;
        Ok(())
    }

    /// Move every decoded update into `out`; returns how many moved.
    pub fn drain_into(&mut self, out: &mut Vec<Update>) -> usize {
        let n = self.pending.len();
        out.append(&mut self.pending);
        n
    }

    /// Whether the explicit end-of-stream frame has been consumed.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Take ownership of the decode error that poisoned the stream, if any.
    pub fn take_error(&mut self) -> Option<WireError> {
        self.error.take()
    }
}

/// Convenience: frame a whole batch of updates into a fresh byte vector
/// (header, frames, end-of-stream).
pub fn encode_updates(domain: u64, updates: &[Update]) -> Result<Vec<u8>, WireError> {
    let mut writer = FrameWriter::new(Vec::new(), domain)?;
    writer.write_batch(updates)?;
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_updates() -> Vec<Update> {
        vec![
            Update::new(0, 5),
            Update::new(7, -3),
            Update::new(7, 1),
            Update::new(63, i64::MAX),
            Update::new(2, i64::MIN),
        ]
    }

    /// Feed `bytes` to a decoder sliced at `cut`, the worst-case readiness
    /// boundary, and return how many bytes it consumed and what it decoded.
    fn decode_split(decoder: &mut FrameDecoder, bytes: &[u8], cut: usize) -> (usize, Vec<Update>) {
        let mut out = Vec::new();
        let mut fed = decoder.feed(&bytes[..cut]);
        decoder.drain_into(&mut out);
        fed += decoder.feed(&bytes[fed..]);
        decoder.drain_into(&mut out);
        (fed, out)
    }

    /// Feed `bytes`, require the decoder to park an error and refuse all
    /// further input, and return how far it consumed and the error.
    fn parked(mut decoder: FrameDecoder, bytes: &[u8]) -> (usize, WireError) {
        let consumed = decoder.feed(bytes);
        assert_eq!(
            decoder.feed(bytes),
            0,
            "a poisoned decoder consumes nothing"
        );
        assert!(!decoder.finished());
        (consumed, decoder.take_error().expect("a parked error"))
    }

    #[test]
    fn decoder_matches_the_encoded_updates_at_every_split_point() {
        let updates: Vec<Update> = (0..20u64)
            .map(|i| Update::new(i % 8, 3 - i as i64))
            .collect();
        let mut writer = FrameWriter::new(Vec::new(), 8)
            .unwrap()
            .with_frame_updates(6)
            .unwrap();
        writer.write_batch(&updates).unwrap();
        let bytes = writer.finish().unwrap();

        for cut in 0..=bytes.len() {
            let mut decoder = FrameDecoder::new().with_expected_domain(8);
            let (consumed, decoded) = decode_split(&mut decoder, &bytes, cut);
            assert_eq!(decoded, updates, "split at {cut}");
            assert_eq!(consumed, bytes.len(), "split at {cut}");
            assert!(decoder.finished(), "split at {cut}");
            assert!(decoder.take_error().is_none(), "split at {cut}");
        }
    }

    #[test]
    fn decoder_stops_consuming_at_the_end_frame() {
        let bytes = encode_updates(64, &sample_updates()).unwrap();
        let mut on_the_wire = bytes.clone();
        on_the_wire.extend_from_slice(b"EST 0\n");
        let mut decoder = FrameDecoder::new();
        let consumed = decoder.feed(&on_the_wire);
        assert!(decoder.finished());
        assert_eq!(&on_the_wire[consumed..], b"EST 0\n");
        // A finished decoder consumes nothing further.
        assert_eq!(decoder.feed(b"more"), 0);
        let mut out = Vec::new();
        decoder.drain_into(&mut out);
        assert_eq!(out, sample_updates());
    }

    #[test]
    fn decoder_truncation_is_visible_not_silent() {
        let updates = sample_updates();
        let bytes = encode_updates(64, &updates).unwrap();
        // One updates frame, then the 5-byte end frame.
        let end_frame = bytes.len() - FRAME_HEADER_BYTES;
        for cut in 0..bytes.len() {
            let mut decoder = FrameDecoder::new();
            assert_eq!(decoder.feed(&bytes[..cut]), cut, "cut at {cut}");
            assert!(
                !decoder.finished() && decoder.take_error().is_none(),
                "cut at {cut} must look like an unfinished stream, not an error or a clean end"
            );
            // Exactly the frames that arrived whole are decoded.
            let mut out = Vec::new();
            decoder.drain_into(&mut out);
            let complete: &[Update] = if cut >= end_frame { &updates[..] } else { &[] };
            assert_eq!(out, complete, "cut at {cut}");
        }
    }

    #[test]
    fn decoder_parks_every_error_class_and_stops_consuming() {
        let good = encode_updates(8, &[Update::insert(1)]).unwrap();
        let payload = HEADER_BYTES + FRAME_HEADER_BYTES;

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        let (consumed, e) = parked(FrameDecoder::new(), &bad_magic);
        assert!(matches!(e, WireError::BadMagic));
        assert_eq!(consumed, HEADER_BYTES, "feed must stop at the parked error");

        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        let (_, e) = parked(FrameDecoder::new(), &bad_version);
        assert!(matches!(
            e,
            WireError::UnsupportedVersion { found } if found != WIRE_VERSION
        ));

        let mut zero_domain = good.clone();
        zero_domain[6..14].fill(0);
        let (_, e) = parked(FrameDecoder::new(), &zero_domain);
        assert!(matches!(e, WireError::Corrupt(_)));

        let (consumed, e) = parked(FrameDecoder::new().with_expected_domain(64), &good);
        assert!(matches!(
            e,
            WireError::DomainMismatch {
                declared: 8,
                expected: 64
            }
        ));
        assert_eq!(consumed, HEADER_BYTES);

        let mut unknown_tag = good.clone();
        unknown_tag[HEADER_BYTES] = 9;
        let (consumed, e) = parked(FrameDecoder::new(), &unknown_tag);
        assert!(matches!(e, WireError::UnknownFrameTag { found: 9 }));
        assert_eq!(consumed, payload);

        let mut oversized = good.clone();
        oversized[HEADER_BYTES + 1..payload].copy_from_slice(&u32::MAX.to_le_bytes());
        let (consumed, e) = parked(FrameDecoder::new(), &oversized);
        assert!(matches!(
            e,
            WireError::OversizedFrame {
                len: u32::MAX,
                max: DEFAULT_MAX_FRAME_BYTES
            }
        ));
        assert_eq!(consumed, payload, "rejected before any payload is read");

        let mut misaligned = good.clone();
        misaligned[HEADER_BYTES + 1..payload].copy_from_slice(&15u32.to_le_bytes());
        let (_, e) = parked(FrameDecoder::new(), &misaligned);
        assert!(matches!(e, WireError::Corrupt(_)));

        // Forged out-of-domain item in the payload.
        let mut forged = good.clone();
        forged[payload..payload + 8].copy_from_slice(&99u64.to_le_bytes());
        let (consumed, e) = parked(FrameDecoder::new(), &forged);
        assert!(matches!(e, WireError::Corrupt(_)));
        assert_eq!(consumed, good.len() - FRAME_HEADER_BYTES);

        // Non-empty end frame.
        let mut fat_end = encode_updates(8, &[]).unwrap();
        let end_frame = fat_end.len() - FRAME_HEADER_BYTES;
        fat_end[end_frame + 1..].copy_from_slice(&16u32.to_le_bytes());
        let (_, e) = parked(FrameDecoder::new(), &fat_end);
        assert!(matches!(e, WireError::Corrupt(_)));
    }

    #[test]
    fn decoder_handles_empty_streams_and_empty_frames() {
        let bytes = encode_updates(8, &[]).unwrap();
        let mut d = FrameDecoder::new().with_expected_domain(8);
        assert_eq!(d.feed(&bytes), bytes.len());
        assert!(d.finished());
        assert_eq!(d.drain_into(&mut Vec::new()), 0);

        // A hand-built empty updates frame before the end frame is legal and
        // must not stall the state machine waiting for a zero-byte payload.
        let mut with_empty_frame = encode_updates(8, &[]).unwrap();
        let end = with_empty_frame.split_off(HEADER_BYTES);
        with_empty_frame.push(frame_tag::UPDATES);
        with_empty_frame.extend_from_slice(&0u32.to_le_bytes());
        with_empty_frame.extend_from_slice(&end);
        for cut in 0..=with_empty_frame.len() {
            let mut d = FrameDecoder::new();
            let (consumed, decoded) = decode_split(&mut d, &with_empty_frame, cut);
            assert!(decoded.is_empty());
            assert_eq!(consumed, with_empty_frame.len(), "split at {cut}");
            assert!(d.finished(), "split at {cut}");
        }
    }

    #[test]
    fn decoder_enforces_its_frame_bound() {
        let header = &encode_updates(8, &[]).unwrap()[..HEADER_BYTES];
        let frame_header = |len: u32| {
            let mut bytes = header.to_vec();
            bytes.push(frame_tag::UPDATES);
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes
        };
        // A length prefix of exactly the bound is legal: the decoder waits
        // for its payload...
        let at_bound = frame_header(DEFAULT_MAX_FRAME_BYTES);
        let mut d = FrameDecoder::new();
        assert_eq!(d.feed(&at_bound), at_bound.len());
        assert!(!d.finished() && d.take_error().is_none());
        // ...and one update more is rejected before any payload arrives.
        let over = DEFAULT_MAX_FRAME_BYTES + WIRE_UPDATE_BYTES as u32;
        let (consumed, e) = parked(FrameDecoder::new(), &frame_header(over));
        assert_eq!(consumed, at_bound.len());
        assert!(matches!(
            e,
            WireError::OversizedFrame { len, max: DEFAULT_MAX_FRAME_BYTES } if len == over
        ));
    }

    #[test]
    fn items_outside_the_declared_domain_are_corrupt() {
        // The writer refuses them up front; the decoder's check on a forged
        // payload is in `decoder_parks_every_error_class_and_stops_consuming`.
        let mut w = FrameWriter::new(Vec::new(), 4).unwrap();
        assert!(matches!(
            w.write_update(Update::insert(4)),
            Err(WireError::Corrupt(_))
        ));
        w.write_update(Update::insert(3)).unwrap();
    }

    #[test]
    fn zero_config_values_are_rejected() {
        assert!(matches!(
            FrameWriter::new(Vec::new(), 0),
            Err(WireError::Corrupt(_))
        ));
        assert!(matches!(
            FrameWriter::new(Vec::new(), 8)
                .unwrap()
                .with_frame_updates(0),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(WireError::BadMagic.to_string().contains("magic"));
        assert!(WireError::UnsupportedVersion { found: 7 }
            .to_string()
            .contains('7'));
        assert!(WireError::UnknownFrameTag { found: 9 }
            .to_string()
            .contains('9'));
        assert!(WireError::OversizedFrame { len: 10, max: 4 }
            .to_string()
            .contains("10"));
        assert!(WireError::Corrupt("odd payload".into())
            .to_string()
            .contains("odd payload"));
        let mismatch = WireError::DomainMismatch {
            declared: 1024,
            expected: 64,
        };
        assert!(mismatch.to_string().contains("1024"));
        assert!(mismatch.to_string().contains("64"));
    }
}
