//! The [`Codec`] trait: one typed request/response API over two wire
//! encodings.
//!
//! A codec turns complete wire messages into [`Request`]s and typed
//! [`Response`]s into complete wire messages. "Complete message" means
//! exactly what one [`frame::split`](crate::frame::split) call yields:
//! a v1 JSON line (newline included on encode, optional on decode) or
//! a v2 frame. Transports own buffering and splitting; codecs own
//! meaning.

use crate::binary;
use crate::error::WireError;
use crate::frame::{self, op, Split};
use crate::json;
use crate::request::Request;
use crate::response::Response;

/// A wire encoding of the typed request/response surface.
pub trait Codec {
    /// Stable name for metrics and benchmarks.
    fn name(&self) -> &'static str;

    /// Decodes one complete wire message into a typed request.
    ///
    /// # Errors
    ///
    /// [`WireError::BadRequest`] for malformed input,
    /// [`WireError::Unsupported`] for unknown commands/ops.
    fn decode_request(&self, message: &[u8]) -> Result<Request, WireError>;

    /// Appends the complete wire encoding of `request` to `out`.
    fn encode_request(&self, request: &Request, out: &mut Vec<u8>);

    /// Appends the complete wire encoding of `response` to `out`,
    /// stamped with the serving node's name when it has one.
    fn encode_response(&self, node: Option<&str>, response: &Response<'_>, out: &mut Vec<u8>);
}

/// The v1 JSON-lines encoding (one object per line, `"v": 1`).
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonCodec;

impl Codec for JsonCodec {
    fn name(&self) -> &'static str {
        "json-v1"
    }

    fn decode_request(&self, message: &[u8]) -> Result<Request, WireError> {
        let text = std::str::from_utf8(message)
            .map_err(|_| WireError::BadRequest("request line is not UTF-8".to_string()))?;
        json::parse_request(text.trim_end_matches(['\r', '\n']))
    }

    fn encode_request(&self, request: &Request, out: &mut Vec<u8>) {
        out.extend_from_slice(json::encode_request(request).as_bytes());
        out.push(b'\n');
    }

    fn encode_response(&self, node: Option<&str>, response: &Response<'_>, out: &mut Vec<u8>) {
        ReplyMode::Line.encode(out, node, response);
    }
}

/// The v2 binary encoding (length-prefixed frames, flat payloads).
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryCodec;

impl Codec for BinaryCodec {
    fn name(&self) -> &'static str {
        "binary-v2"
    }

    fn decode_request(&self, message: &[u8]) -> Result<Request, WireError> {
        match frame::split(message) {
            Split::V2Frame { op, payload, .. } => binary::decode_request_frame(op, payload),
            Split::V1Line { .. } | Split::NeedMore => {
                Err(WireError::BadRequest("not a complete v2 frame".to_string()))
            }
            Split::Malformed(m) => Err(WireError::BadRequest(m.to_string())),
        }
    }

    fn encode_request(&self, request: &Request, out: &mut Vec<u8>) {
        match request {
            Request::Plan { id, instance, spec } => {
                if !binary::encode_plan_request(out, id, instance, spec) {
                    binary::encode_json_request(out, request);
                }
            }
            Request::Ping => frame::write_frame(out, op::PING, b""),
            other => binary::encode_json_request(out, other),
        }
    }

    fn encode_response(&self, node: Option<&str>, response: &Response<'_>, out: &mut Vec<u8>) {
        ReplyMode::Frame.encode(out, node, response);
    }
}

/// The framing an answer goes out in: the framing its request
/// arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyMode {
    /// A newline-terminated v1 line.
    Line,
    /// A v1 line inside a sealed `JSON_RESP` frame (the answer to a
    /// `JSON_REQ`).
    JsonFrame,
    /// A native v2 frame for plans and errors (the answer to a `PLAN`
    /// frame), a sealed `JSON_RESP` for anything else.
    Frame,
}

impl ReplyMode {
    /// Appends `response`, stamped with the serving node's name when
    /// it has one, to `out` in this framing.
    pub fn encode(self, out: &mut Vec<u8>, node: Option<&str>, response: &Response<'_>) {
        match self {
            ReplyMode::Frame => binary::encode_response(out, node, response),
            ReplyMode::Line | ReplyMode::JsonFrame => {
                self.append(out, &json::encode_response(node, response));
            }
        }
    }

    /// Appends an already encoded v1 `line` to `out` in this framing
    /// (a line has no native frame, so `Frame` wraps it as
    /// `JsonFrame` does).
    fn append(self, out: &mut Vec<u8>, line: &str) {
        match self {
            ReplyMode::Line => {
                out.extend_from_slice(line.as_bytes());
                out.push(b'\n');
            }
            ReplyMode::JsonFrame | ReplyMode::Frame => {
                frame::write_checked_frame(out, op::JSON_RESP, line.as_bytes());
            }
        }
    }

    /// `line` as owned wire bytes in this framing.
    #[must_use]
    pub fn package(self, line: &str) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(line.len() + frame::HEADER_LEN + 4);
        self.append(&mut bytes, line);
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonio::Value;
    use pager_core::{Delay, Instance};

    use crate::request::{PlanSpec, Variant};

    fn plan_request() -> Request {
        Request::Plan {
            id: Value::from("rt"),
            instance: Instance::from_rows(vec![vec![0.5, 0.5]]).expect("valid"),
            spec: PlanSpec::new(Delay::new(1).expect("valid"))
                .with_variant(Variant::Greedy)
                .with_cache(false),
        }
    }

    fn assert_plan_round_trip(codec: &dyn Codec) {
        let mut wire = Vec::new();
        codec.encode_request(&plan_request(), &mut wire);
        let Request::Plan { id, instance, spec } = codec.decode_request(&wire).expect("decodes")
        else {
            panic!("expected plan");
        };
        assert_eq!(id, Value::from("rt"));
        assert_eq!(instance.num_cells(), 2);
        assert_eq!(spec.variant(), Variant::Greedy);
        assert!(!spec.cache_enabled());
    }

    #[test]
    fn both_codecs_round_trip_plan_requests() {
        assert_plan_round_trip(&JsonCodec);
        assert_plan_round_trip(&BinaryCodec);
    }

    #[test]
    fn binary_codec_wraps_cold_ops_as_json_frames() {
        let mut wire = Vec::new();
        BinaryCodec.encode_request(&Request::Metrics, &mut wire);
        let Split::V2Frame { op: o, .. } = frame::split(&wire) else {
            panic!("expected a frame");
        };
        assert_eq!(o, op::JSON_REQ);
        assert!(matches!(
            BinaryCodec.decode_request(&wire),
            Ok(Request::Metrics)
        ));
    }

    #[test]
    fn binary_codec_seals_json_wrapped_answers() {
        let mut wire = Vec::new();
        let answer = Response::Control {
            id: &Value::Null,
            fields: vec![("epoch", Value::from(4u64))],
        };
        BinaryCodec.encode_response(None, &answer, &mut wire);
        assert_eq!(wire[3] & frame::FLAG_CHECKED, frame::FLAG_CHECKED);
        let Split::V2Frame {
            op: o, consumed, ..
        } = frame::split(&wire)
        else {
            panic!("expected a frame");
        };
        assert_eq!((o, consumed), (op::JSON_RESP, wire.len()));
    }

    #[test]
    fn json_codec_tolerates_trailing_newline() {
        let mut wire = Vec::new();
        JsonCodec.encode_request(&Request::Ping, &mut wire);
        assert_eq!(wire.last(), Some(&b'\n'));
        assert!(matches!(JsonCodec.decode_request(&wire), Ok(Request::Ping)));
        wire.pop();
        assert!(matches!(JsonCodec.decode_request(&wire), Ok(Request::Ping)));
    }
}
