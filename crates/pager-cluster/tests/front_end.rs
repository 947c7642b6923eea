//! The `pager-cluster launch` TCP front end, against the real binary.
//!
//! Spawns `pager-cluster launch --addr 127.0.0.1:0` (which spawns its
//! `pager-serve` nodes) and drives it over loopback the way a client
//! would: the listening banner, v1 lines stamped with `shard` and
//! `router_epoch`, v2 `PLAN` frames relayed to the owning shard,
//! `PING`→`PONG`, pipelined messages answered in order, a malformed
//! header answered once and closed, a mid-frame disconnect that does
//! not wedge the server, a `shutdown` that stops the router and
//! every node within the drain budget even while another client
//! holds an idle connection, and a request queued behind a stalled
//! shard that is charged its wait instead of served past its deadline.
//!
//! Needs the `pager-serve` binary next to `pager-cluster`: run
//! `cargo build --release` first, then
//! `cargo test --release -p pager-cluster --test front_end`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use jsonio::Value;
use pager_core::{Delay, Instance};
use pager_wire::frame::{self, op, Split};
use pager_wire::{binary, Codec, PlanSpec, Request};

/// `pager-cluster launch` drains for the same 5 s as `pager-serve`.
const DRAIN_BUDGET: Duration = Duration::from_secs(5);
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A launched cluster front end; killed (with its nodes) on drop.
struct Front {
    child: Option<Child>,
    addr: SocketAddr,
    data_root: PathBuf,
}

impl Front {
    fn launch(name: &str) -> Front {
        let exe = Path::new(env!("CARGO_BIN_EXE_pager-cluster"));
        let pager_serve = exe.with_file_name("pager-serve");
        assert!(
            pager_serve.exists(),
            "{} is missing: build it first (cargo build --release)",
            pager_serve.display()
        );
        let data_root =
            std::env::temp_dir().join(format!("pager-front-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_root);
        let mut child = Command::new(exe)
            .args(["launch", "--addr", "127.0.0.1:0", "--data-root"])
            .arg(&data_root)
            .args(["--shards", "2", "--replicas", "1"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn pager-cluster");
        let stderr = child.stderr.take().expect("child stderr");
        let mut lines = BufReader::new(stderr).lines();
        let banner = lines
            .next()
            .expect("launch banner")
            .expect("read launch banner");
        std::thread::spawn(move || for _ in lines {});
        assert!(
            banner.starts_with("pager-cluster: 2 shards x 1 replicas (4 nodes), listening on "),
            "unexpected banner {banner:?}"
        );
        let addr = banner
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("no address in banner {banner:?}"));
        Front {
            child: Some(child),
            addr,
            data_root,
        }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(self.addr).expect("connect to the front end");
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        stream
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("live front end").id()
    }
}

impl Drop for Front {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            // Nodes are reaped by the front end itself; a SIGKILL here
            // only happens on a failed test.
            for node in child_pids(child.id()) {
                let _ = Command::new("kill")
                    .args(["-9", &node.to_string()])
                    .status();
            }
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.data_root);
    }
}

/// Pids whose parent is `parent`, from `/proc/<pid>/stat`.
fn child_pids(parent: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| stat_field(pid, 1).and_then(|p| p.parse().ok()) == Some(parent))
        .collect()
}

/// Field `n` (0 = state) after the `comm` field of `/proc/<pid>/stat`.
fn stat_field(pid: u32, n: usize) -> Option<String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let tail = &stat[stat.rfind(')')? + 1..];
    tail.split_whitespace().nth(n).map(str::to_string)
}

/// A process is gone once `/proc` drops it or it is a zombie awaiting
/// its reaper.
fn exited(pid: u32) -> bool {
    stat_field(pid, 0).is_none_or(|state| state == "Z")
}

fn plan_line(id: i64) -> String {
    format!(r#"{{"id": {id}, "instance": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]], "delay": 2}}"#)
}

fn plan_frame(id: i64) -> Vec<u8> {
    let request = Request::Plan {
        id: Value::Int(id),
        instance: Instance::from_rows(vec![vec![0.5, 0.3, 0.2], vec![0.2, 0.3, 0.5]]).unwrap(),
        spec: PlanSpec::new(Delay::new(2).unwrap()),
    };
    let mut wire = Vec::new();
    pager_wire::BinaryCodec.encode_request(&request, &mut wire);
    wire
}

/// One response message, either protocol.
#[derive(Debug)]
enum Msg {
    Line(Value),
    Frame(Value),
}

/// Reads the next complete response message, buffering partial reads.
fn read_message(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Msg {
    let mut chunk = [0u8; 4096];
    loop {
        let (msg, consumed) = match frame::split(buf) {
            Split::NeedMore => {
                let n = stream.read(&mut chunk).expect("read a response");
                assert!(n > 0, "connection closed before a full message");
                buf.extend_from_slice(&chunk[..n]);
                continue;
            }
            Split::V1Line { line, consumed } => {
                let text = std::str::from_utf8(line).expect("UTF-8 response line");
                (
                    Msg::Line(jsonio::parse(text).expect("JSON response")),
                    consumed,
                )
            }
            Split::V2Frame {
                op: resp_op,
                payload,
                consumed,
            } => {
                let value = if resp_op == op::JSON_RESP {
                    jsonio::parse(std::str::from_utf8(payload).unwrap()).unwrap()
                } else {
                    binary::response_to_value(resp_op, payload).expect("decode a response frame")
                };
                (Msg::Frame(value), consumed)
            }
            Split::Malformed(message) => panic!("malformed response: {message}"),
        };
        buf.drain(..consumed);
        return msg;
    }
}

fn line_reply(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Value {
    match read_message(stream, buf) {
        Msg::Line(value) => value,
        other => panic!("expected a v1 line, got {other:?}"),
    }
}

fn frame_reply(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Value {
    match read_message(stream, buf) {
        Msg::Frame(value) => value,
        other => panic!("expected a v2 frame, got {other:?}"),
    }
}

fn ok(value: &Value) -> bool {
    value.get("ok").and_then(Value::as_bool) == Some(true)
}

/// Reads until the server closes, failing on a read timeout.
fn read_to_close(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("the front end never closed the connection: {e}"),
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "spawns release binaries; run with --release"
)]
fn front_end_speaks_both_protocols() {
    let front = Front::launch("protocols");
    let mut stream = front.connect();
    let mut buf = Vec::new();

    // v1: routed to the owning shard and stamped by the router.
    stream.write_all(plan_line(1).as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let v1 = line_reply(&mut stream, &mut buf);
    assert!(ok(&v1), "{v1}");
    assert_eq!(v1.get("id").and_then(Value::as_i64), Some(1));
    assert!(v1.get("shard").and_then(Value::as_str).is_some(), "{v1}");
    assert!(
        v1.get("router_epoch").and_then(Value::as_u64).is_some(),
        "{v1}"
    );

    // v2: the PLAN frame is relayed and answered with a plan frame
    // carrying the same strategy the v1 line got.
    stream.write_all(&plan_frame(2)).unwrap();
    let v2 = frame_reply(&mut stream, &mut buf);
    assert!(ok(&v2), "{v2}");
    assert_eq!(v2.get("id").and_then(Value::as_i64), Some(2));
    assert_eq!(v2.get("strategy"), v1.get("strategy"));
    assert_eq!(v2.get("ep"), v1.get("ep"));

    // PING -> PONG.
    let mut ping = Vec::new();
    frame::write_frame(&mut ping, op::PING, &[]);
    stream.write_all(&ping).unwrap();
    let pong = frame_reply(&mut stream, &mut buf);
    assert_eq!(
        pong.get("pong").and_then(Value::as_bool),
        Some(true),
        "{pong}"
    );

    // Pipelined: one write, five messages of both protocols, answered
    // strictly in order.
    let mut batch = Vec::new();
    batch.extend_from_slice(format!("{}\n", plan_line(3)).as_bytes());
    batch.extend_from_slice(&plan_frame(4));
    batch.extend_from_slice(b"{\"cmd\": \"ping\", \"id\": 5}\n");
    frame::write_frame(&mut batch, op::JSON_REQ, plan_line(6).as_bytes());
    frame::write_frame(&mut batch, op::PING, &[]);
    stream.write_all(&batch).unwrap();
    let third = line_reply(&mut stream, &mut buf);
    assert_eq!(third.get("id").and_then(Value::as_i64), Some(3), "{third}");
    let fourth = frame_reply(&mut stream, &mut buf);
    assert_eq!(
        fourth.get("id").and_then(Value::as_i64),
        Some(4),
        "{fourth}"
    );
    let fifth = line_reply(&mut stream, &mut buf);
    assert_eq!(
        fifth.get("pong").and_then(Value::as_bool),
        Some(true),
        "{fifth}"
    );
    let sixth = frame_reply(&mut stream, &mut buf);
    assert_eq!(sixth.get("id").and_then(Value::as_i64), Some(6), "{sixth}");
    assert!(
        sixth.get("shard").is_some(),
        "wrapped lines are stamped: {sixth}"
    );
    let seventh = frame_reply(&mut stream, &mut buf);
    assert_eq!(seventh.get("pong").and_then(Value::as_bool), Some(true));

    // A malformed header: one bad_request error frame, then a close.
    let mut bad = front.connect();
    bad.write_all(&[frame::MAGIC, 9, op::PLAN, 0, 0, 0, 0, 0])
        .unwrap();
    let answer = read_to_close(&mut bad);
    let Split::V2Frame {
        op: resp_op,
        payload,
        consumed,
    } = frame::split(&answer)
    else {
        panic!("expected one error frame, got {answer:?}");
    };
    let error = binary::response_to_value(resp_op, payload).unwrap();
    assert_eq!(
        error.get("code").and_then(Value::as_str),
        Some("bad_request")
    );
    assert_eq!(consumed, answer.len(), "more than one answer: {answer:?}");

    // A mid-frame disconnect: the header promises more payload than
    // ever arrives. The server drops it silently and keeps serving.
    {
        let mut cut = front.connect();
        cut.write_all(&[frame::MAGIC, frame::VERSION, op::PLAN, 0, 64, 0, 0, 0])
            .unwrap();
        cut.write_all(&[1, 2, 3]).unwrap();
        cut.shutdown(std::net::Shutdown::Write).unwrap();
        assert!(read_to_close(&mut cut).is_empty(), "answered a cut frame");
    }
    let mut after = front.connect();
    let mut after_buf = Vec::new();
    after.write_all(b"{\"cmd\": \"ping\"}\n").unwrap();
    let pong = line_reply(&mut after, &mut after_buf);
    assert!(ok(&pong), "{pong}");

    // The first connection is still usable too.
    stream.write_all(&ping).unwrap();
    let pong = frame_reply(&mut stream, &mut buf);
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "spawns release binaries; run with --release"
)]
fn shutdown_stops_the_cluster_despite_an_idle_client() {
    let mut front = Front::launch("shutdown");
    let nodes = child_pids(front.pid());
    assert_eq!(nodes.len(), 4, "expected 4 pager-serve nodes: {nodes:?}");

    // A client that connects, is served once, then sits idle.
    let mut idle = front.connect();
    let mut idle_buf = Vec::new();
    idle.write_all(b"{\"cmd\": \"ping\"}\n").unwrap();
    assert!(ok(&line_reply(&mut idle, &mut idle_buf)));

    let mut control = front.connect();
    let mut buf = Vec::new();
    control.write_all(b"{\"cmd\": \"shutdown\"}\n").unwrap();
    let stopping = line_reply(&mut control, &mut buf);
    assert_eq!(
        stopping.get("stopping").and_then(Value::as_bool),
        Some(true),
        "{stopping}"
    );

    let child = front.child.as_mut().expect("live front end");
    let deadline = Instant::now() + DRAIN_BUDGET;
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the front end") {
            break Some(status);
        }
        if Instant::now() >= deadline {
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    // Let a stuck front end go before failing, so it reaps its nodes.
    drop(idle);
    let Some(status) = status else {
        panic!(
            "pager-cluster was still running {DRAIN_BUDGET:?} after answering shutdown \
             while another client held an idle connection"
        );
    };
    assert!(status.success(), "pager-cluster exited with {status}");
    front.child = None;
    let survivors: Vec<u32> = nodes.into_iter().filter(|&pid| !exited(pid)).collect();
    assert!(
        survivors.is_empty(),
        "nodes outlived the front end: {survivors:?}"
    );
}

/// The pids of the `pager-serve` nodes serving `shard` (`--node-id
/// shard-N.rM`), from `/proc/<pid>/cmdline`.
fn shard_node_pids(front: &Front, shard: &str) -> Vec<u32> {
    let prefix = format!("{shard}.");
    child_pids(front.pid())
        .into_iter()
        .filter(|pid| {
            let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
            let args: Vec<&[u8]> = cmdline.split(|&b| b == 0).collect();
            args.windows(2).any(|pair| {
                pair[0] == b"--node-id".as_slice() && pair[1].starts_with(prefix.as_bytes())
            })
        })
        .collect()
}

fn signal(pids: &[u32], sig: &str) {
    for pid in pids {
        let status = Command::new("kill")
            .args([sig, &pid.to_string()])
            .status()
            .expect("run kill");
        assert!(status.success(), "kill {sig} {pid} failed");
    }
}

/// A plan line routed by `key`, with an explicit deadline.
fn keyed_plan_line(id: i64, key: &str, deadline_ms: u64) -> String {
    format!(
        r#"{{"id": {id}, "instance": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]], "delay": 2, "route_key": "{key}", "deadline_ms": {deadline_ms}}}"#
    )
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "spawns release binaries; run with --release"
)]
fn time_queued_behind_a_stalled_shard_is_charged_to_the_deadline() {
    /// More clients than the front end has I/O pool threads.
    const STALLED_CLIENTS: i64 = 4;
    const STALLED_DEADLINE_MS: u64 = 1000;
    const HEALTHY_DEADLINE_MS: u64 = 200;
    /// Scheduling and loopback slack on top of a deadline.
    const SLACK: Duration = Duration::from_millis(150);

    let front = Front::launch("queued");
    let mut probe = front.connect();
    let mut buf = Vec::new();

    // One route key per shard, learned from the `shard` stamp.
    let mut keys: Vec<(String, String)> = Vec::new();
    for k in 0..64 {
        let key = format!("k{k}");
        writeln!(probe, "{}", keyed_plan_line(k, &key, 2000)).unwrap();
        let answer = line_reply(&mut probe, &mut buf);
        assert!(ok(&answer), "{answer}");
        let shard = answer
            .get("shard")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        if keys.iter().all(|(s, _)| *s != shard) {
            keys.push((shard, key));
        }
        if keys.len() == 2 {
            break;
        }
    }
    assert_eq!(keys.len(), 2, "no key reached both shards: {keys:?}");
    let (stalled_shard, stalled_key) = keys[0].clone();
    let healthy_key = keys[1].1.clone();

    // Stop every node of one shard: requests for it wait out their
    // whole deadline while holding an I/O pool thread.
    let stopped = shard_node_pids(&front, &stalled_shard);
    assert_eq!(stopped.len(), 2, "nodes of {stalled_shard}: {stopped:?}");
    signal(&stopped, "-STOP");

    let mut stalled: Vec<TcpStream> = (0..STALLED_CLIENTS)
        .map(|i| {
            let mut client = front.connect();
            writeln!(
                client,
                "{}",
                keyed_plan_line(100 + i, &stalled_key, STALLED_DEADLINE_MS)
            )
            .unwrap();
            client
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    // A plan for the healthy shard, queued behind the stalled ones.
    let mut healthy = front.connect();
    let mut healthy_buf = Vec::new();
    let sent = Instant::now();
    writeln!(
        healthy,
        "{}",
        keyed_plan_line(200, &healthy_key, HEALTHY_DEADLINE_MS)
    )
    .unwrap();
    let answer = line_reply(&mut healthy, &mut healthy_buf);
    let waited = sent.elapsed();

    for client in &mut stalled {
        let mut client_buf = Vec::new();
        let answer = line_reply(client, &mut client_buf);
        assert_eq!(
            answer.get("code").and_then(Value::as_str),
            Some("unavailable"),
            "{answer}"
        );
    }
    signal(&stopped, "-CONT");

    // Served within its deadline, or answered `unavailable`: a plan
    // that waited past its deadline must not come back as a success.
    if waited > Duration::from_millis(HEALTHY_DEADLINE_MS) + SLACK {
        assert_eq!(
            answer.get("code").and_then(Value::as_str),
            Some("unavailable"),
            "answered after {waited:?} on a {HEALTHY_DEADLINE_MS} ms deadline: {answer}"
        );
    } else {
        assert!(ok(&answer), "{answer}");
    }
    assert!(
        waited < Duration::from_millis(2 * STALLED_DEADLINE_MS) + SLACK,
        "the healthy plan waited {waited:?}"
    );
}
