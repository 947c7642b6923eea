//! Wire negotiation matrix and hostile-input coverage.
//!
//! Drives the same plan request through every protocol/front-end
//! pairing — v1 JSON lines and v2 binary frames, over TCP and over a
//! `--stdio` session, directly and through the cluster router — and
//! asserts the answers carry byte-identical strategies. The
//! hostile-input tests feed the TCP engine truncated, oversize and
//! wrong-version frames and assert a `bad_request` answer or a clean
//! close, never a hang.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use conference_call::service::{
    serve_lines, serve_reactor_with, PagerService, ReactorConfig, ReactorHandle, ServiceConfig,
};
use jsonio::Value;
use pager_core::{Delay, Instance};
use pager_wire::frame::{self, op, Split};
use pager_wire::{binary, Codec, PlanSpec, Request};

const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn service() -> Arc<PagerService> {
    Arc::new(PagerService::new(ServiceConfig {
        workers: 2,
        capacity: 64,
        ..ServiceConfig::default()
    }))
}

fn instance() -> Instance {
    Instance::from_rows(vec![vec![0.5, 0.3, 0.2], vec![0.2, 0.3, 0.5]]).unwrap()
}

fn plan_line(id: i64) -> String {
    format!(r#"{{"id": {id}, "instance": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]], "delay": 2}}"#)
}

fn plan_frame(id: i64) -> Vec<u8> {
    let request = Request::Plan {
        id: Value::Int(id),
        instance: instance(),
        spec: PlanSpec::new(Delay::new(2).unwrap()),
    };
    let mut wire = Vec::new();
    pager_wire::BinaryCodec.encode_request(&request, &mut wire);
    wire
}

/// One decoded response message, either protocol.
enum Msg {
    Line(String),
    Frame(u8, Vec<u8>),
}

/// Reads the next complete response message off the stream.
fn read_message(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Msg {
    let mut chunk = [0u8; 4096];
    loop {
        let (msg, consumed) = match frame::split(buf) {
            Split::NeedMore => {
                let n = stream.read(&mut chunk).expect("read response");
                assert!(n > 0, "connection closed before a full message");
                buf.extend_from_slice(&chunk[..n]);
                continue;
            }
            Split::V1Line { line, consumed } => (
                Msg::Line(std::str::from_utf8(line).unwrap().to_string()),
                consumed,
            ),
            Split::V2Frame {
                op: frame_op,
                payload,
                consumed,
            } => (Msg::Frame(frame_op, payload.to_vec()), consumed),
            Split::Malformed(message) => panic!("malformed response: {message}"),
        };
        buf.drain(..consumed);
        return msg;
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    stream
}

fn v1_round_trip(stream: &mut TcpStream, line: &str) -> Value {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut buf = Vec::new();
    match read_message(stream, &mut buf) {
        Msg::Line(response) => jsonio::parse(&response).expect("v1 response JSON"),
        Msg::Frame(..) => panic!("v1 request answered with a v2 frame"),
    }
}

fn v2_round_trip(stream: &mut TcpStream, wire: &[u8]) -> Value {
    stream.write_all(wire).unwrap();
    let mut buf = Vec::new();
    match read_message(stream, &mut buf) {
        Msg::Frame(resp_op, payload) => {
            binary::response_to_value(resp_op, &payload).expect("decode v2 response")
        }
        Msg::Line(line) => panic!("v2 request answered with a v1 line: {line}"),
    }
}

/// Asserts the two responses plan the exact same strategy.
fn assert_same_strategy(a: &Value, b: &Value) {
    let strategy = a
        .get("strategy")
        .and_then(Value::as_array)
        .expect("strategy");
    assert!(!strategy.is_empty());
    assert_eq!(a.get("strategy"), b.get("strategy"));
    assert_eq!(a.get("ep"), b.get("ep"));
    assert_eq!(a.get("tier"), b.get("tier"));
}

fn serve(service: Arc<PagerService>) -> ReactorHandle {
    serve_reactor_with(
        service,
        "127.0.0.1:0",
        ReactorConfig {
            shards: 2,
            io_threads: 1,
        },
    )
    .unwrap()
}

/// The first v1 line and the v2 frame after it in a `--stdio`
/// session's output.
fn stdio_answers(out: &[u8]) -> (Value, Value) {
    let Split::V1Line { line, consumed } = frame::split(out) else {
        panic!("expected a v1 line first");
    };
    let v1 = jsonio::parse(std::str::from_utf8(line).unwrap()).unwrap();
    let Split::V2Frame {
        op: resp_op,
        payload,
        ..
    } = frame::split(&out[consumed..])
    else {
        panic!("expected a v2 frame second");
    };
    (v1, binary::response_to_value(resp_op, payload).unwrap())
}

#[test]
fn both_codecs_agree_on_both_transports() {
    let reactor = serve(service());
    let mut stream = connect(reactor.local_addr());
    // v1 first (a cache miss), then the same instance as a v2 frame
    // (served from the cache the v1 request populated).
    let tcp_v1 = v1_round_trip(&mut stream, &plan_line(1));
    let tcp_v2 = v2_round_trip(&mut stream, &plan_frame(2));

    // The same two messages as one `--stdio` session.
    let mut input = format!("{}\n", plan_line(1)).into_bytes();
    input.extend_from_slice(&plan_frame(2));
    let mut out = Vec::new();
    serve_lines(&service(), std::io::Cursor::new(input), &mut out).unwrap();
    let (stdio_v1, stdio_v2) = stdio_answers(&out);

    for (v1, v2) in [(&tcp_v1, &tcp_v2), (&stdio_v1, &stdio_v2)] {
        assert_eq!(v1.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v1.get("v").and_then(Value::as_u64), Some(1));
        assert_eq!(v2.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v2.get("id").and_then(Value::as_i64), Some(2));
        assert_eq!(v2.get("cached").and_then(Value::as_bool), Some(true));
        assert_same_strategy(v1, v2);
    }
    // The two fronts agree with each other, not just internally.
    assert_same_strategy(&tcp_v1, &stdio_v1);
    reactor.stop();
}

/// Runs the hostile-input battery against one listening server.
fn hostile_battery(addr: SocketAddr) {
    // Oversize declared length: one bad_request error frame, close.
    {
        let mut stream = connect(addr);
        let len = (frame::MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let mut header = vec![frame::MAGIC, frame::VERSION, op::PLAN, 0];
        header.extend_from_slice(&len);
        stream.write_all(&header).unwrap();
        let mut buf = Vec::new();
        let Msg::Frame(resp_op, payload) = read_message(&mut stream, &mut buf) else {
            panic!("expected an error frame for an oversize length");
        };
        let v = binary::response_to_value(resp_op, &payload).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
        let mut tail = [0u8; 16];
        assert_eq!(stream.read(&mut tail).unwrap(), 0, "expected close");
    }
    // Unsupported frame version: same answer.
    {
        let mut stream = connect(addr);
        stream
            .write_all(&[frame::MAGIC, 9, op::PLAN, 0, 0, 0, 0, 0])
            .unwrap();
        let mut buf = Vec::new();
        let Msg::Frame(resp_op, payload) = read_message(&mut stream, &mut buf) else {
            panic!("expected an error frame for a bad version");
        };
        let v = binary::response_to_value(resp_op, &payload).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
        let mut tail = [0u8; 16];
        assert_eq!(stream.read(&mut tail).unwrap(), 0, "expected close");
    }
    // Truncated length prefix at EOF: clean close, no response.
    {
        let mut stream = connect(addr);
        stream
            .write_all(&[frame::MAGIC, frame::VERSION, op::PLAN, 0])
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut tail = [0u8; 16];
        assert_eq!(stream.read(&mut tail).unwrap(), 0, "expected silent close");
    }
    // Mid-frame disconnect (header promises more payload than ever
    // arrives): clean close, no response.
    {
        let mut stream = connect(addr);
        stream
            .write_all(&[frame::MAGIC, frame::VERSION, op::PLAN, 0, 64, 0, 0, 0])
            .unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut tail = [0u8; 16];
        assert_eq!(stream.read(&mut tail).unwrap(), 0, "expected silent close");
    }
    // The server survived all of it.
    let mut stream = connect(addr);
    let pong = v1_round_trip(&mut stream, r#"{"cmd": "ping"}"#);
    assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));
}

/// Reads until the server closes the connection, failing on a read
/// timeout: after a half-close, a correct server answers (or not) and
/// closes — it never parks the client.
fn drain_until_close(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("server hung on corrupted input: {e}"),
        }
    }
}

/// Corruption sweep: flip every bit of every header byte of a valid
/// PLAN frame. Each corrupted frame must end in an error response or
/// a clean close — never a hang — and a frame with reserved flags set
/// must be named `bad_request` explicitly. The server serves a clean
/// ping afterwards.
fn corruption_battery(addr: SocketAddr) {
    let wire = plan_frame(9);
    for byte in 0..frame::HEADER_LEN {
        for bit in 0..8 {
            let mut bad = wire.clone();
            bad[byte] ^= 1 << bit;
            let mut stream = connect(addr);
            stream.write_all(&bad).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let answer = drain_until_close(&mut stream);
            if byte == 3 && bit > 0 {
                // Reserved flags: the hardened splitter must reject
                // the frame loudly, not guess at its meaning. (Bit 0
                // is the checked flag: setting it promises a CRC
                // trailer that never arrives, so the server waits,
                // sees EOF mid-frame, and closes silently instead.)
                let Split::V2Frame {
                    op: resp_op,
                    payload,
                    ..
                } = frame::split(&answer)
                else {
                    panic!("flags byte {bit}: expected an error frame, got {answer:?}");
                };
                let v = binary::response_to_value(resp_op, payload).unwrap();
                assert_eq!(
                    v.get("code").and_then(Value::as_str),
                    Some("bad_request"),
                    "flags bit {bit}: {v}"
                );
            }
        }
    }
    // The server survived all 64 corruptions.
    let mut stream = connect(addr);
    let pong = v1_round_trip(&mut stream, r#"{"cmd": "ping"}"#);
    assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));
}

#[test]
fn corrupted_headers_never_hang_the_reactor_transport() {
    let handle = serve(service());
    corruption_battery(handle.local_addr());
    handle.stop();
}

#[test]
fn hostile_frames_never_hang_the_reactor_transport() {
    let handle = serve(service());
    hostile_battery(handle.local_addr());
    handle.stop();
}

#[test]
fn router_matrix_v1_and_v2_agree_through_a_real_cluster() {
    use conference_call::cluster::router::RouterConfig;
    use conference_call::cluster::{Cluster, HarnessConfig, Topology};
    use std::path::PathBuf;

    let data_root =
        std::env::temp_dir().join(format!("pager-wire-negotiation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_root);
    let topology = Topology {
        shards: 2,
        replicas: 0,
        vnodes: 64,
        workers: 2,
        queue_depth: 256,
        wal_retain: 8,
        checkpoint_every: 0,
        chaos: None,
    };
    let config = HarnessConfig {
        pager_serve: PathBuf::from(env!("CARGO_BIN_EXE_pager-serve")),
        data_root: data_root.clone(),
        topology,
        router: RouterConfig::default(),
    };
    let cluster = Cluster::launch(&config).expect("launch 2-shard cluster");
    // The router in front of it, served by the same engine as a node.
    let front = serve_reactor_with(
        Arc::clone(&cluster.router),
        "127.0.0.1:0",
        ReactorConfig {
            shards: 2,
            io_threads: 2,
        },
    )
    .expect("serve the router");
    let mut stream = connect(front.local_addr());

    // v1 client -> router -> backend.
    let v1 = v1_round_trip(&mut stream, &plan_line(1));
    assert_eq!(v1.get("ok").and_then(Value::as_bool), Some(true), "{v1:?}");
    assert!(v1.get("shard").is_some(), "router stamps v1 responses");

    // v2 client -> router -> v2 backend: the PLAN frame is routed by
    // its payload fingerprint and forwarded without a decode.
    let v2 = v2_round_trip(&mut stream, &plan_frame(2));
    assert_eq!(v2.get("ok").and_then(Value::as_bool), Some(true), "{v2:?}");
    assert_eq!(v2.get("id").and_then(Value::as_i64), Some(2));
    assert_same_strategy(&v1, &v2);

    // v2 client carrying a JSON-wrapped line: routed exactly like the
    // bare v1 line, answered wrapped.
    let mut wrapped = Vec::new();
    frame::write_frame(&mut wrapped, op::JSON_REQ, plan_line(3).as_bytes());
    stream.write_all(&wrapped).unwrap();
    let mut buf = Vec::new();
    let Msg::Frame(resp_op, resp_payload) = read_message(&mut stream, &mut buf) else {
        panic!("router answered a frame with a line");
    };
    assert_eq!(resp_op, op::JSON_RESP);
    let v3 = jsonio::parse(std::str::from_utf8(&resp_payload).unwrap()).unwrap();
    assert_eq!(v3.get("ok").and_then(Value::as_bool), Some(true), "{v3:?}");
    assert!(v3.get("shard").is_some(), "wrapped lines get router stamps");
    assert_same_strategy(&v1, &v3);

    drop(stream);
    front.stop();
    drop(front);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&data_root);
}
