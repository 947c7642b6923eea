//! The service's two fronts: `--stdio` and the TCP connection engine.
//!
//! Both speak the [`crate::proto`] wire protocols — v1 JSON lines and
//! v2 binary frames, selected *per message* by the first byte
//! ([`pager_wire::frame::split`]) — against one shared
//! [`PagerService`].
//!
//! * [`serve_lines`] answers one session over any reader/writer pair,
//!   one message at a time (`pager-serve --stdio`, in-process tests).
//! * On Linux, [`PagerService`] is a
//!   [`Handler`](crate::reactor_server::Handler) for the
//!   [`crate::reactor_server`] engine, which serves TCP. Cache-hit v2
//!   plans, pings, control ops and malformed frames are answered on
//!   the shard thread; cacheable plans go through the service's own
//!   bounded, coalescing [`PagerService::plan_async`] (shed, deadline
//!   and `retry_after_ms` semantics untouched); `observe`, WAL
//!   ship/apply and uncacheable plans may block on disk or a solve
//!   but must never be shed, so they run on the engine's I/O pool.

use std::io::{BufRead, Write};

use jsonio::Value;
use pager_wire::frame::{self, Split};
use pager_wire::{binary, pool, ErrorCode, IdView};

use crate::error::ServiceError;
use crate::proto::{error_line, handle_frame, handle_line};
use crate::service::PagerService;

/// What the buffered messages decided about the session.
enum Flow {
    /// Keep reading.
    Continue,
    /// A shutdown request was answered, or the byte stream is
    /// unrecoverable (a malformed frame was answered): stop.
    Stop,
}

/// Answers every complete message at the front of `buf` — v1 lines
/// and v2 frames interleave freely — and drains the consumed bytes.
/// Incomplete trailing bytes stay buffered for the next read.
fn pump<W: Write>(
    service: &PagerService,
    buf: &mut Vec<u8>,
    writer: &mut W,
) -> std::io::Result<Flow> {
    let mut cursor = 0;
    let mut flow = Flow::Continue;
    loop {
        match frame::split(&buf[cursor..]) {
            Split::NeedMore => break,
            Split::Malformed(message) => {
                // A hostile or corrupt header: the stream can never
                // re-synchronise, so answer once and stop.
                let mut out = pool::take();
                binary::encode_error_response(
                    &mut out,
                    IdView::Null,
                    service.node_id(),
                    ErrorCode::BadRequest,
                    message,
                    None,
                );
                writer.write_all(&out)?;
                writer.flush()?;
                cursor = buf.len();
                flow = Flow::Stop;
                break;
            }
            Split::V1Line { line, consumed } => {
                cursor += consumed;
                let Ok(text) = std::str::from_utf8(line) else {
                    let error = ServiceError::BadRequest("request line is not UTF-8".into());
                    writeln!(writer, "{}", error_line(service, &Value::Null, &error))?;
                    writer.flush()?;
                    continue;
                };
                if text.trim().is_empty() {
                    continue;
                }
                let outcome = handle_line(service, text);
                writeln!(writer, "{}", outcome.response)?;
                writer.flush()?;
                if outcome.shutdown {
                    flow = Flow::Stop;
                    break;
                }
            }
            Split::V2Frame {
                op,
                payload,
                consumed,
            } => {
                let mut out = pool::take();
                let shutdown = handle_frame(service, op, payload, &mut out);
                writer.write_all(&out)?;
                writer.flush()?;
                cursor += consumed;
                if shutdown {
                    flow = Flow::Stop;
                    break;
                }
            }
        }
    }
    buf.drain(..cursor);
    Ok(flow)
}

/// Serves the wire protocols over arbitrary reader/writer pairs (used
/// for `pager-serve --stdio` and in-process tests). Returns when the
/// reader reaches EOF, a shutdown request is handled, or a malformed
/// v2 frame forces a close.
///
/// # Errors
///
/// Propagates I/O errors from the reader or writer.
pub fn serve_lines<R: BufRead, W: Write>(
    service: &PagerService,
    mut reader: R,
    mut writer: W,
) -> std::io::Result<()> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF; a partial trailing message has no sender left to
            // answer and is dropped.
            return Ok(());
        }
        let n = chunk.len();
        buf.extend_from_slice(chunk);
        reader.consume(n);
        match pump(service, &mut buf, &mut writer)? {
            Flow::Continue => {}
            Flow::Stop => return Ok(()),
        }
    }
}

#[cfg(target_os = "linux")]
mod tcp {
    use std::sync::Arc;

    use jsonio::Value;
    use pager_core::Instance;
    use pager_wire::{binary, ErrorCode, IdView, PlanSpec};

    use crate::proto::{self, FrameDispatch, Request};
    use crate::reactor_server::{Dispatch, Handler, Message, Replies, ReplyMode};
    use crate::service::PagerService;

    impl Handler for PagerService {
        fn handle(
            self: &Arc<Self>,
            message: Message<'_>,
            out: &mut Vec<u8>,
            replies: &Replies<'_>,
        ) -> Dispatch {
            match message {
                Message::Line(line) => dispatch_line(self, line, ReplyMode::Line, out, replies),
                Message::Frame { op, payload } => {
                    match proto::dispatch_frame(self, op, payload, out) {
                        FrameDispatch::Answered => Dispatch::Answered { stop: false },
                        FrameDispatch::Solve { id, instance, spec } => {
                            dispatch_solve(self, id, instance, spec, replies)
                        }
                        FrameDispatch::JsonLine(line) => {
                            dispatch_line(self, &line, ReplyMode::JsonFrame, out, replies)
                        }
                    }
                }
                Message::Malformed(reason) => {
                    binary::encode_error_response(
                        out,
                        IdView::Null,
                        self.node_id(),
                        ErrorCode::BadRequest,
                        reason,
                        None,
                    );
                    Dispatch::Answered { stop: false }
                }
            }
        }

        fn connection_opened(&self) {
            self.metrics().reactor_connections.inc();
        }

        fn connection_closed(&self) {
            self.metrics().reactor_connections.dec();
        }

        fn watchdog_fired(&self) {
            self.metrics().reactor_deadline_watchdog.inc();
        }
    }

    /// The watchdog budget of a request carrying `deadline_ms`.
    fn watchdog_ms(service: &PagerService, deadline_ms: Option<u64>) -> Option<u64> {
        deadline_ms.or(service.config().default_deadline_ms)
    }

    /// One v1 line (bare, or unwrapped from a `JSON_REQ` frame).
    fn dispatch_line(
        service: &Arc<PagerService>,
        line: &str,
        mode: ReplyMode,
        out: &mut Vec<u8>,
        replies: &Replies<'_>,
    ) -> Dispatch {
        let (request_id, parsed) = proto::parse_request_with_id(line);
        match parsed {
            Ok(Request::Plan { id, instance, spec }) if spec.cache_enabled() => {
                let watchdog_ms = watchdog_ms(service, spec.deadline_ms());
                let (answer_service, reply) = (Arc::clone(service), replies.reply());
                service.plan_async(
                    &instance,
                    spec,
                    Box::new(move |result| {
                        let line = proto::plan_response_line(&answer_service, &id, &result);
                        reply.send(mode.package(&line));
                    }),
                );
                Dispatch::Pending { watchdog_ms }
            }
            Ok(Request::PlanDevices {
                id,
                devices,
                estimator,
                now,
                spec,
            }) if spec.cache_enabled() => {
                let watchdog_ms = watchdog_ms(service, spec.deadline_ms());
                let (answer_service, reply) = (Arc::clone(service), replies.reply());
                let refs: Vec<&str> = devices.iter().map(String::as_str).collect();
                // Profile resolution happens here (cheap, in-memory);
                // only the solve is deferred to the pool.
                service.plan_devices_async(
                    &refs,
                    estimator,
                    now,
                    spec,
                    Box::new(move |result| {
                        let line = proto::device_plan_response_line(
                            &answer_service,
                            &id,
                            estimator,
                            &result,
                        );
                        reply.send(mode.package(&line));
                    }),
                );
                Dispatch::Pending { watchdog_ms }
            }
            // `observe` may fsync a WAL append before acking; WAL
            // ship/apply touch disk; uncacheable plans solve on the
            // caller. None of these may stall the event loop, and none
            // may shed.
            Ok(
                request @ (Request::Observe { .. }
                | Request::WalShip { .. }
                | Request::WalApply { .. }
                | Request::Plan { .. }
                | Request::PlanDevices { .. }),
            ) => {
                let (job_service, reply) = (Arc::clone(service), replies.reply());
                Dispatch::Blocking {
                    watchdog_ms: watchdog_ms(service, None),
                    job: Box::new(move || {
                        // lint:allow(no-blocking-in-reactor): this
                        // closure runs on the I/O pool, not the shard
                        // thread; blocking here is the design.
                        let outcome = proto::handle_request(&job_service, Ok(request), &request_id);
                        reply.send(mode.package(&outcome.response));
                    }),
                }
            }
            parsed => {
                // lint:allow(no-blocking-in-reactor): every blocking
                // request kind went to the I/O pool above; what reaches
                // this arm is cheap in-memory control traffic or a
                // parse error.
                let outcome = proto::handle_request(service, parsed, &request_id);
                mode.append(out, &outcome.response);
                Dispatch::Answered {
                    stop: outcome.shutdown,
                }
            }
        }
    }

    /// A native v2 plan frame that missed the cache. Cacheable plans
    /// go through the coalescing async solver (same admission, shed
    /// and deadline path as v1 plans); uncacheable ones run on the
    /// I/O pool, mirroring the v1 routing. Either way the answer is a
    /// native v2 frame.
    fn dispatch_solve(
        service: &Arc<PagerService>,
        id: Value,
        instance: Instance,
        spec: PlanSpec,
        replies: &Replies<'_>,
    ) -> Dispatch {
        let (answer_service, reply) = (Arc::clone(service), replies.reply());
        if spec.cache_enabled() {
            let watchdog_ms = watchdog_ms(service, spec.deadline_ms());
            service.plan_async(
                &instance,
                spec,
                Box::new(move |result| {
                    let mut bytes = Vec::new();
                    proto::plan_result_frame(&answer_service, &id, &result, &mut bytes);
                    reply.send(bytes);
                }),
            );
            return Dispatch::Pending { watchdog_ms };
        }
        Dispatch::Blocking {
            watchdog_ms: watchdog_ms(service, None),
            job: Box::new(move || {
                // lint:allow(no-blocking-in-reactor): this closure runs
                // on the I/O pool, not the shard thread; blocking here
                // is the design.
                let result = answer_service.plan(&instance, spec);
                let mut bytes = Vec::new();
                proto::plan_result_frame(&answer_service, &id, &result, &mut bytes);
                reply.send(bytes);
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use jsonio::Value;
    use std::io::Cursor;

    fn service() -> PagerService {
        PagerService::new(ServiceConfig {
            workers: 2,
            capacity: 64,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn serve_lines_round_trip() {
        let svc = service();
        let input =
            "\n{\"id\": 1, \"instance\": [[0.5, 0.5]], \"delay\": 1}\n{\"cmd\": \"ping\"}\n";
        let mut out = Vec::new();
        serve_lines(&svc, Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = jsonio::parse(lines[0]).unwrap();
        assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true));
        assert!(lines[1].contains("pong"));
    }

    #[test]
    fn serve_lines_stops_on_shutdown() {
        let svc = service();
        let input = "{\"cmd\": \"shutdown\"}\n{\"cmd\": \"ping\"}\n";
        let mut out = Vec::new();
        serve_lines(&svc, Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "no output after shutdown");
        assert!(text.contains("stopping"));
    }

    #[test]
    fn serve_lines_interleaves_v1_and_v2_messages() {
        use pager_core::{Delay, Instance};
        use pager_wire::{Codec, PlanSpec, Request};
        let svc = service();
        let mut input = Vec::new();
        input.extend_from_slice(b"{\"id\": 1, \"instance\": [[0.5, 0.5]], \"delay\": 1}\n");
        let request = Request::Plan {
            id: Value::Int(2),
            instance: Instance::from_rows(vec![vec![0.5, 0.5]]).unwrap(),
            spec: PlanSpec::new(Delay::new(1).unwrap()),
        };
        pager_wire::BinaryCodec.encode_request(&request, &mut input);
        input.extend_from_slice(b"{\"cmd\": \"ping\"}\n");
        let mut out = Vec::new();
        serve_lines(&svc, Cursor::new(input), &mut out).unwrap();
        // First answer: a v1 line.
        let newline = out.iter().position(|&b| b == b'\n').unwrap();
        let v1 = jsonio::parse(std::str::from_utf8(&out[..newline]).unwrap()).unwrap();
        assert_eq!(v1.get("id").and_then(Value::as_i64), Some(1));
        // Second: a v2 plan frame, served from the cache the v1
        // request populated.
        let rest = &out[newline + 1..];
        let Split::V2Frame {
            op,
            payload,
            consumed,
        } = frame::split(rest)
        else {
            panic!("expected a v2 frame after the v1 line");
        };
        let v2 = binary::response_to_value(op, payload).unwrap();
        assert_eq!(v2.get("id").and_then(Value::as_i64), Some(2));
        assert_eq!(v2.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(v2.get("strategy"), v1.get("strategy"));
        // Third: the v1 pong.
        let tail = std::str::from_utf8(&rest[consumed..]).unwrap();
        assert!(tail.contains("pong"), "{tail}");
    }

    #[test]
    fn malformed_frames_get_an_error_and_a_clean_close() {
        let svc = service();
        // A magic byte with a hostile version: unrecoverable.
        let input = [frame::MAGIC, 9, 1, 0, 0, 0, 0, 0];
        let mut out = Vec::new();
        serve_lines(&svc, Cursor::new(input.to_vec()), &mut out).unwrap();
        let Split::V2Frame { op, payload, .. } = frame::split(&out) else {
            panic!("expected an error frame");
        };
        let v = binary::response_to_value(op, payload).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
    }
}
