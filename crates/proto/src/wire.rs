//! Binary codec and framing.
//!
//! Every message travels as a *frame*: a little-endian `u32` length prefix
//! followed by that many body bytes. The body is a tag byte plus fields in
//! a fixed order. All lengths are validated against sanity bounds before
//! allocation, so a hostile peer cannot force huge allocations.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::message::{
    ClientMessage, DeltaCodec, JobStats, JobStatus, JobStatusEntry, OutputPayload, ResumeEntry,
    ServerMessage, SubmitOptions, TransferEncoding, UpdatePayload,
};
use crate::{
    ContentDigest, DomainId, FileId, HostName, JobId, RequestId, VersionNumber, WireError,
};

/// Maximum frame body length: 64 MiB.
pub const MAX_FRAME_LEN: usize = 64 << 20;
/// Maximum length of any string field: 1 MiB.
const MAX_STR_LEN: usize = 1 << 20;
/// Maximum number of entries in any repeated field.
const MAX_VEC_LEN: usize = 1 << 20;

/// A type that can serialize itself into a frame body.
///
/// Implemented by [`ClientMessage`] and [`ServerMessage`]; sealed in
/// practice by the crate (external protocol extensions should wrap, not
/// extend, these enums).
pub trait WireEncode {
    /// Appends the message body (without the frame length prefix).
    fn encode_body(&self, buf: &mut BytesMut);
}

/// A type that can deserialize itself from a frame body.
pub trait WireDecode: Sized {
    /// Parses the message body (without the frame length prefix).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the body is truncated, carries an
    /// unknown tag, or violates a length bound.
    fn decode_body(buf: &mut Cursor<'_>) -> Result<Self, WireError>;
}

/// Frame-level encode/decode entry points.
///
/// # Example
///
/// ```
/// use shadow_proto::{ClientMessage, Frame};
///
/// # fn main() -> Result<(), shadow_proto::WireError> {
/// let bytes = Frame::encode(&ClientMessage::Bye);
/// let (msg, used) = Frame::decode::<ClientMessage>(&bytes)?.expect("complete");
/// assert_eq!(msg, ClientMessage::Bye);
/// assert_eq!(used, bytes.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Frame;

impl Frame {
    /// Encodes a message as one complete frame.
    pub fn encode<M: WireEncode>(msg: &M) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        Frame::encode_into(msg, &mut out);
        out
    }

    /// Encodes a message as one complete frame appended to `out`.
    ///
    /// The body is serialized directly into `out` after a four-byte
    /// length placeholder that is patched afterwards — no intermediate
    /// body buffer, no copy. Batching transports can encode many frames
    /// into one send buffer this way.
    pub fn encode_into<M: WireEncode>(msg: &M, out: &mut Vec<u8>) {
        let start = out.len();
        let mut buf = BytesMut::from(std::mem::take(out));
        buf.put_u32_le(0); // length placeholder, patched below
        msg.encode_body(&mut buf);
        let mut bytes = Vec::from(buf);
        let body_len = bytes.len() - start - 4;
        debug_assert!(body_len <= MAX_FRAME_LEN, "oversized frame produced");
        if let Some(header) = bytes
            .get_mut(start..)
            .and_then(|s| s.first_chunk_mut::<4>())
        {
            *header = (body_len as u32).to_le_bytes();
        }
        *out = bytes;
    }

    /// Attempts to decode one frame from the front of `input`.
    ///
    /// Returns `Ok(None)` when `input` does not yet hold a complete frame
    /// (read more bytes and retry), or `Ok(Some((message, consumed)))` on
    /// success.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed frames; the stream should then
    /// be torn down, since framing sync is lost.
    pub fn decode<M: WireDecode>(input: &[u8]) -> Result<Option<(M, usize)>, WireError> {
        let Some(header) = input.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::LengthOverflow {
                what: "frame",
                len: len as u64,
                max: MAX_FRAME_LEN as u64,
            });
        }
        let Some(body) = input.get(4..4 + len) else {
            return Ok(None);
        };
        let mut cursor = Cursor { buf: body };
        let msg = M::decode_body(&mut cursor)?;
        if !cursor.buf.is_empty() {
            return Err(WireError::TrailingBytes {
                remaining: cursor.buf.len(),
            });
        }
        Ok(Some((msg, 4 + len)))
    }
}

/// A bounds-checked read cursor over a frame body.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    pub(crate) fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn get_u32(&mut self) -> Result<u32, WireError> {
        let mut b = self.take(4)?;
        Ok(b.get_u32_le())
    }

    pub(crate) fn get_i32(&mut self) -> Result<i32, WireError> {
        let mut b = self.take(4)?;
        Ok(b.get_i32_le())
    }

    pub(crate) fn get_u64(&mut self) -> Result<u64, WireError> {
        let mut b = self.take(8)?;
        Ok(b.get_u64_le())
    }

    pub(crate) fn get_bool(&mut self) -> Result<bool, WireError> {
        Ok(self.get_u8()? != 0)
    }

    pub(crate) fn get_len(&mut self, what: &'static str, max: usize) -> Result<usize, WireError> {
        let len = self.get_u32()? as usize;
        if len > max {
            return Err(WireError::LengthOverflow {
                what,
                len: len as u64,
                max: max as u64,
            });
        }
        Ok(len)
    }

    pub(crate) fn get_bytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.get_len("bytes field", MAX_FRAME_LEN)?;
        Ok(Bytes::copy_from_slice(self.take(len)?))
    }

    pub(crate) fn get_string(&mut self) -> Result<String, WireError> {
        let len = self.get_len("string field", MAX_STR_LEN)?;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }

    fn get_opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        if self.get_bool()? {
            Ok(Some(read(self)?))
        } else {
            Ok(None)
        }
    }
}

pub(crate) fn put_bytes(buf: &mut BytesMut, data: &[u8]) {
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data);
}

pub(crate) fn put_string(buf: &mut BytesMut, s: &str) {
    put_bytes(buf, s.as_bytes());
}

pub(crate) fn put_opt<T>(
    buf: &mut BytesMut,
    value: &Option<T>,
    write: impl FnOnce(&mut BytesMut, &T),
) {
    match value {
        Some(v) => {
            buf.put_u8(1);
            write(buf, v);
        }
        None => buf.put_u8(0),
    }
}

// ---------------------------------------------------------------------------
// Field-level codecs for domain types.
// ---------------------------------------------------------------------------

fn put_encoding(buf: &mut BytesMut, e: TransferEncoding) {
    buf.put_u8(match e {
        TransferEncoding::Identity => 0,
        TransferEncoding::Lzss => 2,
    });
}

fn get_encoding(c: &mut Cursor<'_>) -> Result<TransferEncoding, WireError> {
    match c.get_u8()? {
        0 => Ok(TransferEncoding::Identity),
        2 => Ok(TransferEncoding::Lzss),
        tag => Err(WireError::UnknownTag {
            what: "TransferEncoding",
            tag,
        }),
    }
}

pub(crate) fn put_codec(buf: &mut BytesMut, codec: DeltaCodec) {
    buf.put_u8(match codec {
        DeltaCodec::Line => 0,
        DeltaCodec::Chunk => 1,
    });
}

pub(crate) fn get_codec(c: &mut Cursor<'_>) -> Result<DeltaCodec, WireError> {
    match c.get_u8()? {
        0 => Ok(DeltaCodec::Line),
        1 => Ok(DeltaCodec::Chunk),
        tag => Err(WireError::UnknownTag {
            what: "DeltaCodec",
            tag,
        }),
    }
}

fn put_update_payload(buf: &mut BytesMut, p: &UpdatePayload) {
    match p {
        UpdatePayload::Full {
            encoding,
            data,
            digest,
        } => {
            buf.put_u8(0);
            put_encoding(buf, *encoding);
            put_bytes(buf, data);
            buf.put_u64_le(digest.as_u64());
        }
        UpdatePayload::Delta {
            base,
            codec,
            encoding,
            data,
            digest,
        } => {
            buf.put_u8(1);
            buf.put_u64_le(base.as_u64());
            put_codec(buf, *codec);
            put_encoding(buf, *encoding);
            put_bytes(buf, data);
            buf.put_u64_le(digest.as_u64());
        }
    }
}

fn get_update_payload(c: &mut Cursor<'_>) -> Result<UpdatePayload, WireError> {
    match c.get_u8()? {
        0 => Ok(UpdatePayload::Full {
            encoding: get_encoding(c)?,
            data: c.get_bytes()?,
            digest: ContentDigest::from_raw(c.get_u64()?),
        }),
        1 => Ok(UpdatePayload::Delta {
            base: VersionNumber::new(c.get_u64()?),
            codec: get_codec(c)?,
            encoding: get_encoding(c)?,
            data: c.get_bytes()?,
            digest: ContentDigest::from_raw(c.get_u64()?),
        }),
        tag => Err(WireError::UnknownTag {
            what: "UpdatePayload",
            tag,
        }),
    }
}

fn put_output_payload(buf: &mut BytesMut, p: &OutputPayload) {
    match p {
        OutputPayload::Full { encoding, data } => {
            buf.put_u8(0);
            put_encoding(buf, *encoding);
            put_bytes(buf, data);
        }
        OutputPayload::Delta {
            base_job,
            codec,
            encoding,
            data,
            digest,
        } => {
            buf.put_u8(1);
            buf.put_u64_le(base_job.as_u64());
            put_codec(buf, *codec);
            put_encoding(buf, *encoding);
            put_bytes(buf, data);
            buf.put_u64_le(digest.as_u64());
        }
    }
}

fn get_output_payload(c: &mut Cursor<'_>) -> Result<OutputPayload, WireError> {
    match c.get_u8()? {
        0 => Ok(OutputPayload::Full {
            encoding: get_encoding(c)?,
            data: c.get_bytes()?,
        }),
        1 => Ok(OutputPayload::Delta {
            base_job: JobId::new(c.get_u64()?),
            codec: get_codec(c)?,
            encoding: get_encoding(c)?,
            data: c.get_bytes()?,
            digest: ContentDigest::from_raw(c.get_u64()?),
        }),
        tag => Err(WireError::UnknownTag {
            what: "OutputPayload",
            tag,
        }),
    }
}

pub(crate) fn put_options(buf: &mut BytesMut, o: &SubmitOptions) {
    put_opt(buf, &o.output_file, |b, s| put_string(b, s));
    put_opt(buf, &o.error_file, |b, s| put_string(b, s));
    put_opt(buf, &o.deliver_to, |b, h| put_string(b, h.as_str()));
    buf.put_u8(o.priority);
    buf.put_u8(u8::from(o.shadow_output));
}

fn get_options(c: &mut Cursor<'_>) -> Result<SubmitOptions, WireError> {
    Ok(SubmitOptions {
        output_file: c.get_opt(Cursor::get_string)?,
        error_file: c.get_opt(Cursor::get_string)?,
        deliver_to: c.get_opt(Cursor::get_string)?.map(HostName::new),
        priority: c.get_u8()?,
        shadow_output: c.get_bool()?,
    })
}

fn put_status(buf: &mut BytesMut, s: JobStatus) {
    buf.put_u8(match s {
        JobStatus::Queued => 0,
        JobStatus::WaitingForFiles => 1,
        JobStatus::Running => 2,
        JobStatus::Completed => 3,
        JobStatus::Failed => 4,
        JobStatus::Unknown => 5,
    });
}

fn get_status(c: &mut Cursor<'_>) -> Result<JobStatus, WireError> {
    match c.get_u8()? {
        0 => Ok(JobStatus::Queued),
        1 => Ok(JobStatus::WaitingForFiles),
        2 => Ok(JobStatus::Running),
        3 => Ok(JobStatus::Completed),
        4 => Ok(JobStatus::Failed),
        5 => Ok(JobStatus::Unknown),
        tag => Err(WireError::UnknownTag {
            what: "JobStatus",
            tag,
        }),
    }
}

fn put_stats(buf: &mut BytesMut, s: &JobStats) {
    buf.put_u64_le(s.queued_ms);
    buf.put_u64_le(s.waiting_ms);
    buf.put_u64_le(s.running_ms);
    buf.put_u64_le(s.output_bytes);
    buf.put_i32_le(s.exit_code);
}

fn get_stats(c: &mut Cursor<'_>) -> Result<JobStats, WireError> {
    Ok(JobStats {
        queued_ms: c.get_u64()?,
        waiting_ms: c.get_u64()?,
        running_ms: c.get_u64()?,
        output_bytes: c.get_u64()?,
        exit_code: c.get_i32()?,
    })
}

// ---------------------------------------------------------------------------
// ClientMessage
// ---------------------------------------------------------------------------

const CM_HELLO: u8 = 0x01;
const CM_NOTIFY: u8 = 0x02;
const CM_UPDATE: u8 = 0x03;
const CM_SUBMIT: u8 = 0x04;
const CM_STATUS: u8 = 0x05;
const CM_OUTPUT_ACK: u8 = 0x06;
const CM_BYE: u8 = 0x07;
const CM_PING: u8 = 0x08;

impl WireEncode for ClientMessage {
    fn encode_body(&self, buf: &mut BytesMut) {
        match self {
            ClientMessage::Hello {
                domain,
                host,
                protocol,
                epoch,
                resume,
            } => {
                buf.put_u8(CM_HELLO);
                buf.put_u64_le(domain.as_u64());
                put_string(buf, host.as_str());
                buf.put_u32_le(*protocol);
                buf.put_u64_le(*epoch);
                buf.put_u32_le(resume.len() as u32);
                for e in resume {
                    buf.put_u64_le(e.file.as_u64());
                    buf.put_u64_le(e.version.as_u64());
                    buf.put_u64_le(e.digest.as_u64());
                }
            }
            ClientMessage::NotifyVersion {
                file,
                name,
                version,
                size,
                digest,
            } => {
                buf.put_u8(CM_NOTIFY);
                buf.put_u64_le(file.as_u64());
                put_string(buf, name);
                buf.put_u64_le(version.as_u64());
                buf.put_u64_le(*size);
                buf.put_u64_le(digest.as_u64());
            }
            ClientMessage::Update {
                file,
                version,
                payload,
            } => {
                buf.put_u8(CM_UPDATE);
                buf.put_u64_le(file.as_u64());
                buf.put_u64_le(version.as_u64());
                put_update_payload(buf, payload);
            }
            ClientMessage::Submit {
                request,
                job_file,
                job_version,
                data_files,
                options,
            } => {
                buf.put_u8(CM_SUBMIT);
                buf.put_u64_le(request.as_u64());
                buf.put_u64_le(job_file.as_u64());
                buf.put_u64_le(job_version.as_u64());
                buf.put_u32_le(data_files.len() as u32);
                for (f, v) in data_files {
                    buf.put_u64_le(f.as_u64());
                    buf.put_u64_le(v.as_u64());
                }
                put_options(buf, options);
            }
            ClientMessage::StatusQuery { request, job } => {
                buf.put_u8(CM_STATUS);
                buf.put_u64_le(request.as_u64());
                put_opt(buf, job, |b, j| b.put_u64_le(j.as_u64()));
            }
            ClientMessage::OutputAck { job } => {
                buf.put_u8(CM_OUTPUT_ACK);
                buf.put_u64_le(job.as_u64());
            }
            ClientMessage::Ping { nonce } => {
                buf.put_u8(CM_PING);
                buf.put_u64_le(*nonce);
            }
            ClientMessage::Bye => buf.put_u8(CM_BYE),
        }
    }
}

impl WireDecode for ClientMessage {
    fn decode_body(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        match c.get_u8()? {
            CM_HELLO => {
                let domain = DomainId::new(c.get_u64()?);
                let host = HostName::new(c.get_string()?);
                let protocol = c.get_u32()?;
                let epoch = c.get_u64()?;
                let n = c.get_len("resume entries", MAX_VEC_LEN)?;
                let mut resume = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    resume.push(ResumeEntry {
                        file: FileId::new(c.get_u64()?),
                        version: VersionNumber::new(c.get_u64()?),
                        digest: ContentDigest::from_raw(c.get_u64()?),
                    });
                }
                Ok(ClientMessage::Hello {
                    domain,
                    host,
                    protocol,
                    epoch,
                    resume,
                })
            }
            CM_NOTIFY => Ok(ClientMessage::NotifyVersion {
                file: FileId::new(c.get_u64()?),
                name: c.get_string()?,
                version: VersionNumber::new(c.get_u64()?),
                size: c.get_u64()?,
                digest: ContentDigest::from_raw(c.get_u64()?),
            }),
            CM_UPDATE => Ok(ClientMessage::Update {
                file: FileId::new(c.get_u64()?),
                version: VersionNumber::new(c.get_u64()?),
                payload: get_update_payload(c)?,
            }),
            CM_SUBMIT => {
                let request = RequestId::new(c.get_u64()?);
                let job_file = FileId::new(c.get_u64()?);
                let job_version = VersionNumber::new(c.get_u64()?);
                let n = c.get_len("data_files", MAX_VEC_LEN)?;
                let mut data_files = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    data_files.push((FileId::new(c.get_u64()?), VersionNumber::new(c.get_u64()?)));
                }
                Ok(ClientMessage::Submit {
                    request,
                    job_file,
                    job_version,
                    data_files,
                    options: get_options(c)?,
                })
            }
            CM_STATUS => Ok(ClientMessage::StatusQuery {
                request: RequestId::new(c.get_u64()?),
                job: c.get_opt(|c| Ok(JobId::new(c.get_u64()?)))?,
            }),
            CM_OUTPUT_ACK => Ok(ClientMessage::OutputAck {
                job: JobId::new(c.get_u64()?),
            }),
            CM_PING => Ok(ClientMessage::Ping {
                nonce: c.get_u64()?,
            }),
            CM_BYE => Ok(ClientMessage::Bye),
            tag => Err(WireError::UnknownTag {
                what: "ClientMessage",
                tag,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// ServerMessage
// ---------------------------------------------------------------------------

const SM_HELLO_ACK: u8 = 0x81;
const SM_UPDATE_REQ: u8 = 0x82;
const SM_VERSION_ACK: u8 = 0x83;
const SM_SUBMIT_ACK: u8 = 0x84;
const SM_SUBMIT_ERR: u8 = 0x85;
const SM_STATUS_REPORT: u8 = 0x86;
const SM_JOB_COMPLETE: u8 = 0x87;
const SM_BYE: u8 = 0x88;
const SM_PONG: u8 = 0x89;

impl WireEncode for ServerMessage {
    fn encode_body(&self, buf: &mut BytesMut) {
        match self {
            ServerMessage::HelloAck {
                protocol,
                server,
                resumed,
                retained,
            } => {
                buf.put_u8(SM_HELLO_ACK);
                buf.put_u32_le(*protocol);
                put_string(buf, server.as_str());
                buf.put_u8(u8::from(*resumed));
                buf.put_u32_le(retained.len() as u32);
                for (f, v) in retained {
                    buf.put_u64_le(f.as_u64());
                    buf.put_u64_le(v.as_u64());
                }
            }
            ServerMessage::UpdateRequest { file, have } => {
                buf.put_u8(SM_UPDATE_REQ);
                buf.put_u64_le(file.as_u64());
                put_opt(buf, have, |b, v| b.put_u64_le(v.as_u64()));
            }
            ServerMessage::VersionAck { file, version } => {
                buf.put_u8(SM_VERSION_ACK);
                buf.put_u64_le(file.as_u64());
                buf.put_u64_le(version.as_u64());
            }
            ServerMessage::SubmitAck { request, job } => {
                buf.put_u8(SM_SUBMIT_ACK);
                buf.put_u64_le(request.as_u64());
                buf.put_u64_le(job.as_u64());
            }
            ServerMessage::SubmitError { request, reason } => {
                buf.put_u8(SM_SUBMIT_ERR);
                buf.put_u64_le(request.as_u64());
                put_string(buf, reason);
            }
            ServerMessage::StatusReport { request, entries } => {
                buf.put_u8(SM_STATUS_REPORT);
                buf.put_u64_le(request.as_u64());
                buf.put_u32_le(entries.len() as u32);
                for e in entries {
                    buf.put_u64_le(e.job.as_u64());
                    put_status(buf, e.status);
                    buf.put_u64_le(e.submitted_at_ms);
                }
            }
            ServerMessage::JobComplete {
                job,
                output,
                errors,
                stats,
            } => {
                buf.put_u8(SM_JOB_COMPLETE);
                buf.put_u64_le(job.as_u64());
                put_output_payload(buf, output);
                put_bytes(buf, errors);
                put_stats(buf, stats);
            }
            ServerMessage::Pong { nonce } => {
                buf.put_u8(SM_PONG);
                buf.put_u64_le(*nonce);
            }
            ServerMessage::Bye => buf.put_u8(SM_BYE),
        }
    }
}

impl WireDecode for ServerMessage {
    fn decode_body(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        match c.get_u8()? {
            SM_HELLO_ACK => {
                let protocol = c.get_u32()?;
                let server = HostName::new(c.get_string()?);
                let resumed = c.get_bool()?;
                let n = c.get_len("retained entries", MAX_VEC_LEN)?;
                let mut retained = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    retained.push((FileId::new(c.get_u64()?), VersionNumber::new(c.get_u64()?)));
                }
                Ok(ServerMessage::HelloAck {
                    protocol,
                    server,
                    resumed,
                    retained,
                })
            }
            SM_UPDATE_REQ => Ok(ServerMessage::UpdateRequest {
                file: FileId::new(c.get_u64()?),
                have: c.get_opt(|c| Ok(VersionNumber::new(c.get_u64()?)))?,
            }),
            SM_VERSION_ACK => Ok(ServerMessage::VersionAck {
                file: FileId::new(c.get_u64()?),
                version: VersionNumber::new(c.get_u64()?),
            }),
            SM_SUBMIT_ACK => Ok(ServerMessage::SubmitAck {
                request: RequestId::new(c.get_u64()?),
                job: JobId::new(c.get_u64()?),
            }),
            SM_SUBMIT_ERR => Ok(ServerMessage::SubmitError {
                request: RequestId::new(c.get_u64()?),
                reason: c.get_string()?,
            }),
            SM_STATUS_REPORT => {
                let request = RequestId::new(c.get_u64()?);
                let n = c.get_len("status entries", MAX_VEC_LEN)?;
                let mut entries = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    entries.push(JobStatusEntry {
                        job: JobId::new(c.get_u64()?),
                        status: get_status(c)?,
                        submitted_at_ms: c.get_u64()?,
                    });
                }
                Ok(ServerMessage::StatusReport { request, entries })
            }
            SM_JOB_COMPLETE => Ok(ServerMessage::JobComplete {
                job: JobId::new(c.get_u64()?),
                output: get_output_payload(c)?,
                errors: c.get_bytes()?,
                stats: get_stats(c)?,
            }),
            SM_PONG => Ok(ServerMessage::Pong {
                nonce: c.get_u64()?,
            }),
            SM_BYE => Ok(ServerMessage::Bye),
            tag => Err(WireError::UnknownTag {
                what: "ServerMessage",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_client(msg: ClientMessage) {
        let bytes = Frame::encode(&msg);
        let (decoded, used) = Frame::decode::<ClientMessage>(&bytes).unwrap().unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(used, bytes.len());
    }

    fn round_trip_server(msg: ServerMessage) {
        let bytes = Frame::encode(&msg);
        let (decoded, used) = Frame::decode::<ServerMessage>(&bytes).unwrap().unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn encode_into_appends_and_matches_encode() {
        let a = ClientMessage::Bye;
        let b = ClientMessage::Hello {
            domain: DomainId::new(9),
            host: HostName::new("ws9"),
            protocol: crate::PROTOCOL_VERSION,
            epoch: 0,
            resume: Vec::new(),
        };
        let mut batch = Vec::new();
        Frame::encode_into(&a, &mut batch);
        Frame::encode_into(&b, &mut batch);
        let mut expected = Frame::encode(&a);
        expected.extend_from_slice(&Frame::encode(&b));
        assert_eq!(batch, expected);
        // Both frames decode back out of the shared buffer.
        let (first, used) = Frame::decode::<ClientMessage>(&batch).unwrap().unwrap();
        assert_eq!(first, a);
        let (second, used2) = Frame::decode::<ClientMessage>(&batch[used..])
            .unwrap()
            .unwrap();
        assert_eq!(second, b);
        assert_eq!(used + used2, batch.len());
    }

    #[test]
    fn client_messages_round_trip() {
        round_trip_client(ClientMessage::Hello {
            domain: DomainId::new(1),
            host: HostName::new("ws1.lab"),
            protocol: 1,
            epoch: 0,
            resume: Vec::new(),
        });
        round_trip_client(ClientMessage::Hello {
            domain: DomainId::new(1),
            host: HostName::new("ws1.lab"),
            protocol: 1,
            epoch: 3,
            resume: vec![
                ResumeEntry {
                    file: FileId::new(2),
                    version: VersionNumber::new(5),
                    digest: ContentDigest::of(b"cached content"),
                },
                ResumeEntry {
                    file: FileId::new(7),
                    version: VersionNumber::FIRST,
                    digest: ContentDigest::of(b"other"),
                },
            ],
        });
        round_trip_client(ClientMessage::NotifyVersion {
            file: FileId::new(2),
            name: "/usr/proj/sim.f".into(),
            version: VersionNumber::new(3),
            size: 102_400,
            digest: ContentDigest::of(b"content"),
        });
        round_trip_client(ClientMessage::Update {
            file: FileId::new(2),
            version: VersionNumber::new(3),
            payload: UpdatePayload::Delta {
                base: VersionNumber::new(2),
                codec: DeltaCodec::Line,
                encoding: TransferEncoding::Lzss,
                data: Bytes::from_static(b"4c\nnew line\n.\nw\n"),
                digest: ContentDigest::of(b"whole new content"),
            },
        });
        round_trip_client(ClientMessage::Update {
            file: FileId::new(9),
            version: VersionNumber::FIRST,
            payload: UpdatePayload::Full {
                encoding: TransferEncoding::Identity,
                data: Bytes::from_static(b"entire file"),
                digest: ContentDigest::of(b"entire file"),
            },
        });
        round_trip_client(ClientMessage::Submit {
            request: RequestId::new(7),
            job_file: FileId::new(1),
            job_version: VersionNumber::new(4),
            data_files: vec![
                (FileId::new(2), VersionNumber::new(3)),
                (FileId::new(5), VersionNumber::new(1)),
            ],
            options: SubmitOptions {
                output_file: Some("run.out".into()),
                error_file: None,
                deliver_to: Some(HostName::new("printer-host")),
                priority: 9,
                shadow_output: true,
            },
        });
        round_trip_client(ClientMessage::StatusQuery {
            request: RequestId::new(8),
            job: Some(JobId::new(44)),
        });
        round_trip_client(ClientMessage::StatusQuery {
            request: RequestId::new(9),
            job: None,
        });
        round_trip_client(ClientMessage::OutputAck { job: JobId::new(3) });
        round_trip_client(ClientMessage::Ping { nonce: 0xDEAD_BEEF });
        round_trip_client(ClientMessage::Bye);
    }

    #[test]
    fn server_messages_round_trip() {
        round_trip_server(ServerMessage::HelloAck {
            protocol: 1,
            server: HostName::new("superc.uiuc"),
            resumed: false,
            retained: Vec::new(),
        });
        round_trip_server(ServerMessage::HelloAck {
            protocol: 1,
            server: HostName::new("superc.uiuc"),
            resumed: true,
            retained: vec![
                (FileId::new(2), VersionNumber::new(5)),
                (FileId::new(7), VersionNumber::FIRST),
            ],
        });
        round_trip_server(ServerMessage::UpdateRequest {
            file: FileId::new(2),
            have: Some(VersionNumber::new(2)),
        });
        round_trip_server(ServerMessage::UpdateRequest {
            file: FileId::new(2),
            have: None,
        });
        round_trip_server(ServerMessage::VersionAck {
            file: FileId::new(2),
            version: VersionNumber::new(3),
        });
        round_trip_server(ServerMessage::SubmitAck {
            request: RequestId::new(7),
            job: JobId::new(100),
        });
        round_trip_server(ServerMessage::SubmitError {
            request: RequestId::new(7),
            reason: "unknown job file".into(),
        });
        round_trip_server(ServerMessage::StatusReport {
            request: RequestId::new(8),
            entries: vec![
                JobStatusEntry {
                    job: JobId::new(1),
                    status: JobStatus::Running,
                    submitted_at_ms: 12345,
                },
                JobStatusEntry {
                    job: JobId::new(2),
                    status: JobStatus::Queued,
                    submitted_at_ms: 23456,
                },
            ],
        });
        round_trip_server(ServerMessage::JobComplete {
            job: JobId::new(1),
            output: OutputPayload::Delta {
                base_job: JobId::new(0),
                codec: DeltaCodec::Chunk,
                encoding: TransferEncoding::Lzss,
                data: Bytes::from_static(b"1c\nx\n.\nw\n"),
                digest: ContentDigest::of(b"new output"),
            },
            errors: Bytes::from_static(b""),
            stats: JobStats {
                queued_ms: 10,
                waiting_ms: 20,
                running_ms: 30,
                output_bytes: 40,
                exit_code: 0,
            },
        });
        round_trip_server(ServerMessage::Pong { nonce: 42 });
        round_trip_server(ServerMessage::Bye);
    }

    #[test]
    fn incomplete_frames_return_none() {
        let bytes = Frame::encode(&ClientMessage::Bye);
        for cut in 0..bytes.len() {
            assert_eq!(
                Frame::decode::<ClientMessage>(&bytes[..cut]).unwrap(),
                None,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn two_frames_in_one_buffer_decode_sequentially() {
        let mut stream = Frame::encode(&ClientMessage::Bye);
        stream.extend_from_slice(&Frame::encode(&ClientMessage::OutputAck {
            job: JobId::new(5),
        }));
        let (m1, used1) = Frame::decode::<ClientMessage>(&stream).unwrap().unwrap();
        assert_eq!(m1, ClientMessage::Bye);
        let (m2, used2) = Frame::decode::<ClientMessage>(&stream[used1..])
            .unwrap()
            .unwrap();
        assert_eq!(m2, ClientMessage::OutputAck { job: JobId::new(5) });
        assert_eq!(used1 + used2, stream.len());
    }

    #[test]
    fn oversized_frame_length_rejected() {
        let mut bytes = vec![0u8; 8];
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Frame::decode::<ClientMessage>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::LengthOverflow { .. }));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut body = BytesMut::new();
        body.put_u8(0x7F);
        let mut framed = (body.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&body);
        let err = Frame::decode::<ClientMessage>(&framed).unwrap_err();
        assert_eq!(
            err,
            WireError::UnknownTag {
                what: "ClientMessage",
                tag: 0x7F
            }
        );
    }

    #[test]
    fn encoding_tag_one_is_rejected() {
        // Tag 1 is unassigned, between the Identity and Lzss tags.
        let update = |encoding| ClientMessage::Update {
            file: FileId::new(9),
            version: VersionNumber::FIRST,
            payload: UpdatePayload::Full {
                encoding,
                data: Bytes::from_static(b"entire file"),
                digest: ContentDigest::of(b"entire file"),
            },
        };
        let identity = Frame::encode(&update(TransferEncoding::Identity));
        let lzss = Frame::encode(&update(TransferEncoding::Lzss));
        let differ: Vec<usize> = (0..identity.len())
            .filter(|&i| identity[i] != lzss[i])
            .collect();
        assert_eq!(differ.len(), 1, "only the encoding byte differs");
        let mut bytes = identity;
        assert_eq!(bytes[differ[0]], 0);
        bytes[differ[0]] = 1;
        let err = Frame::decode::<ClientMessage>(&bytes).unwrap_err();
        assert_eq!(
            err,
            WireError::UnknownTag {
                what: "TransferEncoding",
                tag: 1
            }
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Frame::encode(&ClientMessage::Bye);
        // Grow the frame length by one and append a junk byte inside it.
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) + 1;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        bytes.push(0xAA);
        let err = Frame::decode::<ClientMessage>(&bytes).unwrap_err();
        assert_eq!(err, WireError::TrailingBytes { remaining: 1 });
    }

    #[test]
    fn truncated_body_rejected() {
        // Announce a Hello but cut the body short within the frame bounds:
        // frame says 2 bytes, Hello needs more.
        let body = [CM_HELLO, 0x01];
        let mut framed = (body.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&body);
        let err = Frame::decode::<ClientMessage>(&framed).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    #[test]
    fn invalid_utf8_in_string_rejected() {
        let mut body = BytesMut::new();
        body.put_u8(CM_HELLO);
        body.put_u64_le(1);
        body.put_u32_le(2);
        body.put_slice(&[0xFF, 0xFE]);
        body.put_u32_le(1);
        let mut framed = (body.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&body);
        let err = Frame::decode::<ClientMessage>(&framed).unwrap_err();
        assert_eq!(err, WireError::InvalidUtf8);
    }
}
