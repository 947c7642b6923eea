//! A blocking loopback client for both wire protocols.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use jsonio::Value;
use pager_wire::frame::{self, op, Split};

/// A reply that takes longer than this counts as a timeout failure.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One complete reply.
#[derive(Debug, Clone)]
pub enum Reply {
    /// A v2 frame.
    Frame {
        /// The frame's op.
        op: u8,
        /// Its payload.
        payload: Vec<u8>,
    },
    /// A v1 line, without its newline.
    Line(String),
}

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and the reply timeout.
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            chunk: vec![0; 1 << 16],
        })
    }

    /// Writes one request and reads its complete reply.
    ///
    /// # Errors
    ///
    /// Socket errors, a timeout, a closed connection or a malformed
    /// frame.
    pub fn round_trip(&mut self, wire: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(wire)?;
        loop {
            match frame::split(&self.buf) {
                Split::NeedMore => {
                    let n = self.stream.read(&mut self.chunk)?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        ));
                    }
                    self.buf.extend_from_slice(&self.chunk[..n]);
                }
                Split::V1Line { line, consumed } => {
                    let text = String::from_utf8_lossy(line).trim().to_string();
                    self.buf.drain(..consumed);
                    return Ok(Reply::Line(text));
                }
                Split::V2Frame {
                    op,
                    payload,
                    consumed,
                } => {
                    let reply = Reply::Frame {
                        op,
                        payload: payload.to_vec(),
                    };
                    self.buf.drain(..consumed);
                    return Ok(reply);
                }
                Split::Malformed(message) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, message));
                }
            }
        }
    }
}

/// A v2 `PING` frame.
#[must_use]
pub fn ping_frame() -> Vec<u8> {
    let mut out = Vec::new();
    frame::write_frame(&mut out, op::PING, b"");
    out
}

/// A v1 line with its newline.
#[must_use]
pub fn line(text: &str) -> Vec<u8> {
    let mut out = text.as_bytes().to_vec();
    out.push(b'\n');
    out
}

/// A decoded `PLAN_RESP` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReply {
    /// The echoed integer id, if the id was an integer.
    pub id: Option<i64>,
    /// Bit 0 downgraded, bit 1 cached, bit 2 coalesced.
    pub flags: u8,
    /// The served expected paging.
    pub ep: f64,
    /// The serving node's id (empty when the node has none).
    pub node: String,
    /// The strategy's rounds.
    pub groups: Vec<Vec<usize>>,
    /// The strategy exactly as encoded, for byte-identity checks.
    pub groups_bytes: Vec<u8>,
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or("truncated reply frame")?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<usize, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let mut a = [0u8; 8];
        a.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(a))
    }

    fn string(&mut self) -> Result<String, String> {
        let n = self.u32()?;
        Ok(String::from_utf8_lossy(self.take(n)?).into_owned())
    }
}

/// Decodes a `PLAN_RESP` payload (layout in `docs/wire.md`).
///
/// # Errors
///
/// A message when the payload is truncated or its id tag is unknown.
pub fn parse_plan_reply(payload: &[u8]) -> Result<PlanReply, String> {
    let mut r = Reader {
        bytes: payload,
        at: 0,
    };
    let id = match r.u8()? {
        0 => None,
        1 | 2 => Some(r.u64()? as i64),
        3 => {
            let _ = r.string()?;
            None
        }
        tag => return Err(format!("unknown id tag {tag}")),
    };
    let flags = r.u8()?;
    let _tier = r.u8()?;
    let ep = f64::from_bits(r.u64()?);
    let _planning_micros = r.u64()?;
    let node = r.string()?;
    let start = r.at;
    let rounds = r.u32()?;
    let mut groups = Vec::with_capacity(rounds.min(1 << 16));
    for _ in 0..rounds {
        let len = r.u32()?;
        let mut group = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            group.push(r.u32()?);
        }
        groups.push(group);
    }
    Ok(PlanReply {
        id,
        flags,
        ep,
        node,
        groups,
        groups_bytes: payload[start..r.at].to_vec(),
    })
}

/// The plan carried by `reply`.
///
/// # Errors
///
/// A message for error replies (error frames, shed answers) and
/// anything that is not a plan.
pub fn expect_plan(reply: &Reply) -> Result<PlanReply, String> {
    match reply {
        Reply::Frame {
            op: op::PLAN_RESP,
            payload,
        } => parse_plan_reply(payload),
        Reply::Frame {
            op: op::ERROR,
            payload,
        } => Err(format!(
            "error frame: {}",
            String::from_utf8_lossy(payload).escape_debug()
        )),
        Reply::Frame { op, .. } => Err(format!("unexpected reply op 0x{op:02X}")),
        Reply::Line(text) => Err(format!("expected a plan frame, got {text}")),
    }
}

/// The JSON object of an `"ok": true` reply (a v1 line or a
/// `JSON_RESP` frame).
///
/// # Errors
///
/// A message for error answers and non-JSON replies.
pub fn expect_ok(reply: &Reply) -> Result<Value, String> {
    let text = match reply {
        Reply::Line(text) => text.clone(),
        Reply::Frame {
            op: op::JSON_RESP,
            payload,
        } => String::from_utf8_lossy(payload).into_owned(),
        Reply::Frame { op, .. } => return Err(format!("unexpected reply op 0x{op:02X}")),
    };
    let value = jsonio::parse(&text).map_err(|e| format!("bad reply JSON ({e}): {text}"))?;
    if value.get("ok").and_then(Value::as_bool) == Some(true) {
        Ok(value)
    } else {
        Err(format!("error reply: {text}"))
    }
}

/// The strategy of a v1 plan answer.
///
/// # Errors
///
/// A message when `strategy` is not an array of arrays of indices.
pub fn json_groups(value: &Value) -> Result<Vec<Vec<usize>>, String> {
    let rounds = value
        .get("strategy")
        .and_then(Value::as_array)
        .ok_or("reply has no strategy array")?;
    rounds
        .iter()
        .map(|round| {
            round
                .as_array()
                .ok_or("strategy round is not an array")?
                .iter()
                .map(|cell| cell.as_usize().ok_or("strategy cell is not an index"))
                .collect::<Result<Vec<usize>, &str>>()
        })
        .collect::<Result<_, _>>()
        .map_err(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pager_wire::{binary, IdView};

    #[test]
    fn plan_reply_round_trips_through_the_wire_encoder() {
        let groups = vec![vec![2, 0], vec![1]];
        let mut out = Vec::new();
        binary::encode_plan_response(
            &mut out,
            IdView::I64(42),
            Some("n1"),
            "greedy",
            1.75,
            9,
            false,
            true,
            false,
            &groups,
        );
        let Split::V2Frame { op, payload, .. } = frame::split(&out) else {
            panic!("not a frame");
        };
        let reply = expect_plan(&Reply::Frame {
            op,
            payload: payload.to_vec(),
        })
        .expect("plan");
        assert_eq!(reply.id, Some(42));
        assert_eq!(reply.flags, 2);
        assert_eq!(reply.ep, 1.75);
        assert_eq!(reply.node, "n1");
        assert_eq!(reply.groups, groups);
        assert!(parse_plan_reply(&payload[..payload.len() - 1]).is_err());
    }

    #[test]
    fn ok_replies_and_strategies_parse() {
        let reply = Reply::Line(r#"{"ok":true,"strategy":[[1],[0,2]]}"#.into());
        let value = expect_ok(&reply).expect("ok");
        assert_eq!(json_groups(&value), Ok(vec![vec![1], vec![0, 2]]));
        assert!(expect_ok(&Reply::Line(r#"{"ok":false,"code":"overloaded"}"#.into())).is_err());
    }
}
