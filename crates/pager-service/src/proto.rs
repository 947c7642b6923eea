//! Wire protocol handling: typed requests in, typed responses out.
//!
//! The protocol itself — the [`Request`]/[`pager_wire::Response`]
//! surface, the v1 JSON-lines encoding, and the v2 binary framing —
//! lives in [`pager_wire`]; the byte-level schemas and negotiation
//! rules are documented in `docs/wire.md`. This module is the
//! *server-side* glue: it decodes one message, runs it against a
//! [`PagerService`], and encodes the answer in the protocol the
//! message arrived in.
//!
//! Entry points:
//!
//! * [`handle_line`] / [`handle_request`] — the v1 path: one JSON
//!   line in, one JSON line out (plus a shutdown flag).
//! * [`handle_frame`] — the v2 path: one decoded frame in, one frame
//!   appended to the output buffer. `plan` frames first probe the
//!   strategy cache straight from the borrowed payload
//!   ([`PagerService::plan_cache_probe`]); a steady-state cache hit is
//!   answered without a single heap allocation.
//!
//! Every other answer, on either protocol, is built once as a typed
//! [`Response`] by `respond` and encoded for the framing its request
//! arrived in ([`ReplyMode`]). Both fronts — `--stdio`
//! ([`crate::server::serve_lines`]) and TCP (the service's
//! [`crate::reactor_server::Handler`]) — funnel through these
//! functions, so they answer byte-identically by construction.

use jsonio::Value;
use pager_wire::frame::op;
use pager_wire::{
    binary, json, DeviceExt, ErrorBody, IdView, PlanBody, PlanFrameView, ReplyMode, Response,
};

pub use pager_wire::json::PROTOCOL_VERSION;
pub use pager_wire::Request;

use pager_profiles::wal::encode_hex;
use pager_profiles::Estimator;

use crate::error::ServiceError;
use crate::service::{DevicePlanResponse, PagerService, PlanResponse};

/// Parses one v1 wire line into a typed request.
///
/// # Errors
///
/// [`ServiceError::BadRequest`] for malformed JSON or invalid
/// payloads, [`ServiceError::Unsupported`] for commands or variants
/// this server does not know.
pub fn parse_request(line: &str) -> Result<Request, ServiceError> {
    json::parse_request(line).map_err(ServiceError::from)
}

/// [`parse_request`] plus the `id` the line carries (`Value::Null`
/// when absent), so the caller can echo it on the response whatever
/// the outcome. Every response echoes its request's id — the cluster
/// router's request/reply correlation relies on it to reject stale
/// duplicated replies.
pub fn parse_request_with_id(line: &str) -> (Value, Result<Request, ServiceError>) {
    let (id, request) = json::parse_request_with_id(line);
    (id, request.map_err(ServiceError::from))
}

/// What handling one line produced.
#[derive(Debug)]
pub struct LineOutcome {
    /// The response line (no trailing newline).
    pub response: String,
    /// Whether the server should stop accepting connections.
    pub shutdown: bool,
}

/// Handles one wire line end to end against a service.
#[must_use]
pub fn handle_line(service: &PagerService, line: &str) -> LineOutcome {
    let (id, request) = parse_request_with_id(line);
    handle_request(service, request, &id)
}

/// Handles one parsed request (or its parse failure) against a
/// service, producing the v1 response line. `id` is the request
/// line's `id` (from [`parse_request_with_id`]); it is echoed on the
/// response whatever the outcome.
#[must_use]
pub fn handle_request(
    service: &PagerService,
    request: Result<Request, ServiceError>,
    id: &Value,
) -> LineOutcome {
    let shutdown = matches!(request, Ok(Request::Shutdown));
    let answer = request.and_then(|request| run(service, request));
    let response = respond(id, answer, |response| {
        json::encode_response(service.node_id(), response)
    });
    LineOutcome { response, shutdown }
}

/// [`handle_request`] with the answer appended to `out` in `mode`'s
/// framing. Returns whether the request asked the server to stop.
pub(crate) fn handle(
    service: &PagerService,
    request: Result<Request, ServiceError>,
    id: &Value,
    mode: ReplyMode,
    out: &mut Vec<u8>,
) -> bool {
    let shutdown = matches!(request, Ok(Request::Shutdown));
    let answer = request.and_then(|request| run(service, request));
    respond(id, answer, |response| {
        mode.encode(out, service.node_id(), response);
    });
    shutdown
}

/// `answer` to the request `id` as owned wire bytes in `mode`'s
/// framing — for answers sent from another thread.
pub(crate) fn package(
    service: &PagerService,
    id: &Value,
    answer: Result<Answer, ServiceError>,
    mode: ReplyMode,
) -> Vec<u8> {
    let mut bytes = Vec::new();
    respond(id, answer, |response| {
        mode.encode(&mut bytes, service.node_id(), response);
    });
    bytes
}

/// What running a request produced, before it is encoded.
pub(crate) enum Answer {
    /// A served `plan`.
    Plan(PlanResponse),
    /// A served `plan_devices`, with the estimator it asked for.
    DevicePlan(DevicePlanResponse, Estimator),
    /// Any other op's fields, in the frozen v1 order.
    Control(Vec<(&'static str, Value)>),
}

/// Runs one typed request against the service. Plans block until
/// served (the connection engine sends cacheable plans through
/// [`PagerService::plan_async`] instead).
pub(crate) fn run(service: &PagerService, request: Request) -> Result<Answer, ServiceError> {
    let fields = match request {
        Request::Plan { instance, spec, .. } => {
            return service.plan(&instance, spec).map(Answer::Plan)
        }
        Request::PlanDevices {
            devices,
            estimator,
            now,
            spec,
            ..
        } => {
            let refs: Vec<&str> = devices.iter().map(String::as_str).collect();
            return service
                .plan_devices(&refs, estimator, now, spec)
                .map(|served| Answer::DevicePlan(served, estimator));
        }
        Request::Ping => vec![("pong", Value::Bool(true))],
        Request::Metrics => vec![("metrics", service.metrics_json())],
        Request::Shutdown => vec![("stopping", Value::Bool(true))],
        Request::Observe { cells, sightings } => {
            let versions = service.observe(cells, &sightings)?;
            // Last version per device (a device may appear several
            // times in one batch).
            let mut latest: Vec<(String, Value)> = Vec::new();
            for (device, version) in &versions {
                match latest.iter_mut().find(|(d, _)| d == device) {
                    Some(entry) => entry.1 = Value::from(*version),
                    None => latest.push((device.clone(), Value::from(*version))),
                }
            }
            vec![
                ("ingested", Value::from(versions.len())),
                ("versions", Value::Object(latest)),
            ]
        }
        Request::ProfileStats => {
            let stats = service.profiles().stats();
            vec![(
                "profiles",
                Value::object(vec![
                    ("devices", Value::from(stats.devices)),
                    ("sightings", Value::from(stats.sightings)),
                    ("evictions", Value::from(stats.evictions)),
                    ("version", Value::from(stats.version)),
                    (
                        "latest_time",
                        match service.profiles().latest_time() {
                            Some(t) => Value::Float(t),
                            None => Value::Null,
                        },
                    ),
                    ("degraded", Value::Bool(service.degraded())),
                ]),
            )]
        }
        Request::NodeInfo => {
            let stats = service.profiles().stats();
            vec![
                ("epoch", Value::from(service.epoch())),
                ("devices", Value::from(stats.devices)),
                ("profile_version", Value::from(stats.version)),
                ("degraded", Value::Bool(service.degraded())),
                ("durable", Value::Bool(service.wal_generation().is_some())),
                (
                    "wal_generation",
                    match service.wal_generation() {
                        Some(generation) => Value::from(generation),
                        None => Value::Null,
                    },
                ),
            ]
        }
        Request::Stats => vec![
            ("epoch", Value::from(service.epoch())),
            ("stats", service.metrics_json()),
        ],
        Request::Epoch { epoch } => vec![("epoch", Value::from(service.adopt_epoch(epoch)))],
        Request::WalShip {
            generation,
            offset,
            max_bytes,
        } => {
            let segment = service.export_wal(generation, offset, max_bytes)?;
            vec![
                ("generation", Value::from(segment.generation)),
                ("offset", Value::from(segment.offset)),
                ("len", Value::from(segment.bytes.len())),
                ("bytes", Value::from(encode_hex(&segment.bytes))),
                ("latest_generation", Value::from(segment.latest_generation)),
                ("end_of_generation", Value::Bool(segment.end_of_generation)),
            ]
        }
        Request::WalApply { bytes } => {
            let outcome = service.apply_wal(&bytes)?;
            vec![
                ("applied", Value::from(outcome.records)),
                ("consumed", Value::from(outcome.consumed)),
                (
                    "profile_version",
                    Value::from(service.profiles().stats().version),
                ),
            ]
        }
    };
    Ok(Answer::Control(fields))
}

/// Builds the typed [`Response`] to the request `id` — its answer or
/// its error — and hands it to `encode`. Every answer the service
/// sends, bar the allocation-free frames [`dispatch_frame`] writes
/// itself, is encoded here, once.
fn respond<R>(
    id: &Value,
    answer: Result<Answer, ServiceError>,
    encode: impl FnOnce(&Response<'_>) -> R,
) -> R {
    match answer {
        Ok(Answer::Plan(served)) => encode(&Response::Plan(plan_body(id, &served))),
        Ok(Answer::DevicePlan(served, estimator)) => encode(&Response::DevicePlan(
            plan_body(id, &served.response),
            DeviceExt {
                estimator: estimator.name(),
                now: served.now,
                versions: &served.versions,
                stale_profiles: served.stale_profiles as u64,
            },
        )),
        Ok(Answer::Control(fields)) => encode(&Response::Control { id, fields }),
        Err(error) => encode(&Response::Error(ErrorBody {
            id,
            code: error.wire_code(),
            message: &error.message(),
            retry_after_ms: match error {
                ServiceError::Overloaded { retry_after_ms } => Some(retry_after_ms),
                _ => None,
            },
        })),
    }
}

/// The borrowed body of a served plan.
fn plan_body<'a>(id: &'a Value, served: &'a PlanResponse) -> PlanBody<'a> {
    PlanBody {
        id,
        strategy: &served.plan.strategy,
        expected_paging: served.plan.expected_paging,
        tier: served.plan.tier.name(),
        downgraded: served.plan.downgraded,
        cached: served.cached,
        coalesced: served.coalesced,
        planning_micros: served.plan.planning_micros,
    }
}

/// What a v2 frame needs from the caller after the fast paths ran.
///
/// [`dispatch_frame`] answers everything it can without blocking —
/// cache-hit plans, pings, malformed payloads, unknown ops — directly
/// into the output buffer. What remains is a request for the caller
/// to run exactly as it runs a v1 line (the connection engine off its
/// shard thread when it would block, [`handle_frame`] in place).
pub(crate) enum FrameDispatch {
    /// `out` now holds the complete response frame; nothing else to do.
    Answered,
    /// A plan frame that missed the cache (answered as a native
    /// frame) or a JSON-wrapped line (op `0x7E`, answered in a sealed
    /// `JSON_RESP`): run `request` and answer in `mode`, echoing `id`.
    Request {
        id: Value,
        request: Result<Request, ServiceError>,
        mode: ReplyMode,
    },
}

/// Runs the non-blocking part of v2 frame handling.
///
/// `plan` frames probe the strategy cache straight from the borrowed
/// payload ([`PagerService::plan_cache_probe`]); a steady-state hit is
/// encoded into `out` without touching the heap. Everything that
/// would block (solver runs, JSON-wrapped cold ops) is returned to
/// the caller instead of executed.
pub(crate) fn dispatch_frame(
    service: &PagerService,
    frame_op: u8,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> FrameDispatch {
    match frame_op {
        op::PLAN => match PlanFrameView::parse(payload) {
            Err(message) => {
                binary::encode_error_response(
                    out,
                    IdView::Null,
                    service.node_id(),
                    pager_wire::ErrorCode::BadRequest,
                    message,
                    None,
                );
                FrameDispatch::Answered
            }
            Ok(view) => {
                if let Some(response) = service.plan_cache_probe(&view) {
                    encode_cached_plan_frame(service, &view, &response, out);
                    return FrameDispatch::Answered;
                }
                // A plan frame that does not decode is answered with a
                // null id.
                let (id, request) = match view.to_request() {
                    Ok(request) => (view.id().to_value(), Ok(request)),
                    Err(error) => (Value::Null, Err(error.into())),
                };
                FrameDispatch::Request {
                    id,
                    request,
                    mode: ReplyMode::Frame,
                }
            }
        },
        op::PING => {
            binary::encode_pong(out, service.node_id());
            FrameDispatch::Answered
        }
        op::JSON_REQ => match std::str::from_utf8(payload) {
            Err(_) => {
                binary::encode_error_response(
                    out,
                    IdView::Null,
                    service.node_id(),
                    pager_wire::ErrorCode::BadRequest,
                    "JSON request frame payload is not UTF-8",
                    None,
                );
                FrameDispatch::Answered
            }
            Ok(line) => {
                let (id, request) = parse_request_with_id(line);
                FrameDispatch::Request {
                    id,
                    request,
                    mode: ReplyMode::JsonFrame,
                }
            }
        },
        other => {
            let message = format!("unknown request op 0x{other:02X}");
            binary::encode_error_response(
                out,
                IdView::Null,
                service.node_id(),
                pager_wire::ErrorCode::Unsupported,
                &message,
                None,
            );
            FrameDispatch::Answered
        }
    }
}

/// Handles one v2 frame end to end against a service, appending the
/// response frame to `out`. Returns whether the server should stop
/// accepting connections.
///
/// `plan` frames first probe the strategy cache straight from the
/// borrowed payload; a hit is encoded without touching the heap. A
/// miss falls back to the typed decode + [`PagerService::plan`]. All
/// cold ops arrive JSON-wrapped (op `0x7E`) and are answered
/// JSON-wrapped (op `0x7F`).
#[must_use]
pub fn handle_frame(
    service: &PagerService,
    frame_op: u8,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> bool {
    match dispatch_frame(service, frame_op, payload, out) {
        FrameDispatch::Answered => false,
        FrameDispatch::Request { id, request, mode } => handle(service, request, &id, mode, out),
    }
}

/// Encodes a cache-hit plan answer for a borrowed frame view. The id
/// is echoed from the payload bytes; nothing is allocated beyond
/// `out` growth (amortised by the caller's buffer pool).
fn encode_cached_plan_frame(
    service: &PagerService,
    view: &PlanFrameView<'_>,
    response: &PlanResponse,
    out: &mut Vec<u8>,
) {
    binary::encode_plan_response(
        out,
        view.id(),
        service.node_id(),
        response.plan.tier.name(),
        response.plan.expected_paging,
        response.plan.planning_micros,
        response.plan.downgraded,
        response.cached,
        response.coalesced,
        response.plan.strategy.groups(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use pager_profiles::wal::{encode_hex, MAX_DEVICE_BYTES};
    use pager_wire::frame::{self, Split};

    fn service() -> PagerService {
        PagerService::new(ServiceConfig {
            workers: 2,
            capacity: 64,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn plan_request_round_trip() {
        let svc = service();
        let line = r#"{"id": 7, "instance": [[0.5, 0.3, 0.2]], "delay": 2}"#;
        let out = handle_line(&svc, line);
        assert!(!out.shutdown);
        let v = jsonio::parse(&out.response).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_i64), Some(7));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("cached").and_then(Value::as_bool), Some(false));
        assert!(v.get("ep").and_then(Value::as_f64).unwrap() > 0.0);
        // Strategy covers all three cells.
        let strategy = v.get("strategy").and_then(Value::as_array).unwrap();
        let total: usize = strategy.iter().map(|g| g.as_array().unwrap().len()).sum();
        assert_eq!(total, 3);
        // Identical follow-up is served from cache.
        let again = handle_line(&svc, line);
        let v2 = jsonio::parse(&again.response).unwrap();
        assert_eq!(v2.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(v2.get("strategy"), v.get("strategy"));
    }

    #[test]
    fn textio_instances_are_accepted() {
        let svc = service();
        let line = r##"{"id": "t", "instance": "# demo\n0.5 0.5\n1/4 3/4", "delay": 2}"##;
        let v = jsonio::parse(&handle_line(&svc, line).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
        assert_eq!(v.get("id").and_then(Value::as_str), Some("t"));
    }

    #[test]
    fn variants_parse_and_validate() {
        let svc = service();
        let bw = r#"{"instance": [[0.25,0.25,0.25,0.25]], "delay": 2, "variant": "bandwidth", "bandwidth": 2}"#;
        let v = jsonio::parse(&handle_line(&svc, bw).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
        assert_eq!(v.get("tier").and_then(Value::as_str), Some("bandwidth"));
        let missing = r#"{"instance": [[1.0]], "delay": 1, "variant": "bandwidth"}"#;
        let v = jsonio::parse(&handle_line(&svc, missing).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        let unknown = r#"{"instance": [[1.0]], "delay": 1, "variant": "psychic"}"#;
        let v = jsonio::parse(&handle_line(&svc, unknown).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn malformed_lines_get_error_responses() {
        let svc = service();
        for bad in [
            "not json",
            "{}",
            r#"{"instance": [[0.5, 0.6]], "delay": 2}"#,
            r#"{"instance": [[0.5, 0.5]], "delay": 0}"#,
            r#"{"instance": [[0.5, 0.5]]}"#,
            r#"{"cmd": "dance"}"#,
            r#"{"instance": [[0.5, 0.5]], "delay": 1, "deadline_ms": "soon"}"#,
        ] {
            let out = handle_line(&svc, bad);
            let v = jsonio::parse(&out.response).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{bad}");
            assert!(v.get("error").is_some(), "{bad}");
            assert!(v.get("code").is_some(), "{bad}");
        }
    }

    #[test]
    fn responses_carry_version_and_stable_codes() {
        let svc = service();
        // Every response line — success or error — is versioned.
        for line in [
            r#"{"cmd": "ping"}"#,
            r#"{"cmd": "metrics"}"#,
            r#"{"instance": [[0.5, 0.5]], "delay": 1}"#,
            "not json",
        ] {
            let v = jsonio::parse(&handle_line(&svc, line).response).unwrap();
            assert_eq!(v.get("v").and_then(Value::as_u64), Some(1), "{line}");
        }
        // Codes distinguish the client's fault from this server's
        // limits.
        let bad = handle_line(&svc, r#"{"instance": [[0.9, 0.2]], "delay": 1}"#);
        let v = jsonio::parse(&bad.response).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
        let unsupported = handle_line(
            &svc,
            r#"{"instance": [[0.5, 0.5]], "delay": 1, "variant": "psychic"}"#,
        );
        let v = jsonio::parse(&unsupported.response).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("unsupported"));
        let unknown_cmd = handle_line(&svc, r#"{"cmd": "dance"}"#);
        let v = jsonio::parse(&unknown_cmd.response).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("unsupported"));
    }

    #[test]
    fn oversize_device_names_are_rejected_at_parse() {
        let svc = service();
        let giant = "d".repeat(MAX_DEVICE_BYTES + 1);
        let line = format!(
            r#"{{"cmd": "observe", "cells": 4,
                "sightings": [{{"device": "ok", "cell": 0, "time": 1.0}},
                              {{"device": "{giant}", "cell": 1, "time": 2.0}}]}}"#
        );
        let v = jsonio::parse(&handle_line(&svc, &line).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
        // Rejected at parse: nothing from the batch was ingested.
        assert_eq!(svc.profiles().stats().devices, 0);
        // At the limit is accepted.
        let at_limit = "d".repeat(MAX_DEVICE_BYTES);
        let line = format!(
            r#"{{"cmd": "observe", "cells": 4,
                "sightings": [{{"device": "{at_limit}", "cell": 0, "time": 1.0}}]}}"#
        );
        let v = jsonio::parse(&handle_line(&svc, &line).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        // A newer client may send fields this server has never heard
        // of; they must be ignored, not rejected.
        let svc = service();
        let line = r#"{"id": 3, "instance": [[0.5, 0.5]], "delay": 1,
                       "future_knob": {"x": 1}, "priority": "high"}"#;
        let v = jsonio::parse(&handle_line(&svc, line).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
        assert_eq!(v.get("id").and_then(Value::as_i64), Some(3));
        assert_eq!(v.get("downgraded").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn deadline_ms_is_parsed_into_the_spec() {
        let line = r#"{"instance": [[0.5, 0.5]], "delay": 1, "deadline_ms": 250}"#;
        match parse_request(line).unwrap() {
            Request::Plan { spec, .. } => assert_eq!(spec.deadline_ms(), Some(250)),
            other => panic!("expected a plan request, got {other:?}"),
        }
        // Omitted: defer to the server default.
        let line = r#"{"instance": [[0.5, 0.5]], "delay": 1}"#;
        match parse_request(line).unwrap() {
            Request::Plan { spec, .. } => assert_eq!(spec.deadline_ms(), None),
            other => panic!("expected a plan request, got {other:?}"),
        }
    }

    #[test]
    fn observe_and_plan_devices_round_trip() {
        let svc = service();
        // Ingest a short history for two devices.
        for t in 0..25 {
            let line = format!(
                r#"{{"cmd": "observe", "cells": 3, "sightings": [
                    {{"device": "a", "cell": {}, "time": {t}.0}},
                    {{"device": "b", "cell": 1, "time": {t}.0}}]}}"#,
                t % 3
            );
            let v = jsonio::parse(&handle_line(&svc, &line).response).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
            assert_eq!(v.get("ingested").and_then(Value::as_u64), Some(2));
        }
        // Stats reflect the ingest.
        let stats = handle_line(&svc, r#"{"cmd": "profile_stats"}"#);
        let v = jsonio::parse(&stats.response).unwrap();
        let profiles = v.get("profiles").unwrap();
        assert_eq!(profiles.get("devices").and_then(Value::as_u64), Some(2));
        assert_eq!(profiles.get("sightings").and_then(Value::as_u64), Some(50));
        assert_eq!(
            profiles.get("latest_time").and_then(Value::as_f64),
            Some(24.0)
        );
        // Plan for the named devices.
        let line = r#"{"cmd": "plan_devices", "id": 5, "devices": ["a", "b"], "delay": 2, "estimator": "empirical"}"#;
        let v = jsonio::parse(&handle_line(&svc, line).response).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
        assert_eq!(v.get("id").and_then(Value::as_i64), Some(5));
        assert_eq!(
            v.get("estimator").and_then(Value::as_str),
            Some("empirical")
        );
        assert_eq!(v.get("now").and_then(Value::as_f64), Some(24.0));
        let versions = v.get("profile_versions").and_then(Value::as_array).unwrap();
        assert_eq!(versions.len(), 2);
        assert_eq!(v.get("stale_profiles").and_then(Value::as_u64), Some(0));
        // Identical request hits the cache; an observe in between
        // bumps a version and forces a fresh plan.
        let v2 = jsonio::parse(&handle_line(&svc, line).response).unwrap();
        assert_eq!(v2.get("cached").and_then(Value::as_bool), Some(true));
        let bump = r#"{"cmd": "observe", "cells": 3, "sightings": [{"device": "a", "cell": 2, "time": 30.0}]}"#;
        assert!(handle_line(&svc, bump).response.contains("true"));
        let v3 = jsonio::parse(&handle_line(&svc, line).response).unwrap();
        assert_eq!(v3.get("cached").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn profile_ops_validate() {
        let svc = service();
        for bad in [
            r#"{"cmd": "observe"}"#,
            r#"{"cmd": "observe", "cells": 0, "sightings": []}"#,
            r#"{"cmd": "observe", "cells": 3, "sightings": [{"device": "a"}]}"#,
            r#"{"cmd": "observe", "cells": 3, "sightings": [{"device": "a", "cell": 9, "time": 0.0}]}"#,
            r#"{"cmd": "plan_devices", "devices": ["nobody"], "delay": 2}"#,
            r#"{"cmd": "plan_devices", "devices": [], "delay": 2}"#,
            r#"{"cmd": "plan_devices", "devices": ["a"], "delay": 2, "estimator": "psychic"}"#,
        ] {
            let v = jsonio::parse(&handle_line(&svc, bad).response).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{bad}");
        }
    }

    #[test]
    fn node_identity_epoch_and_stats() {
        let svc = PagerService::new(ServiceConfig {
            workers: 2,
            capacity: 64,
            node_id: Some("shard-a".into()),
            epoch: 3,
            ..ServiceConfig::default()
        });
        let info = jsonio::parse(&handle_line(&svc, r#"{"cmd": "node_info"}"#).response).unwrap();
        assert_eq!(info.get("node").and_then(Value::as_str), Some("shard-a"));
        assert_eq!(info.get("epoch").and_then(Value::as_u64), Some(3));
        assert_eq!(info.get("durable").and_then(Value::as_bool), Some(false));
        assert_eq!(info.get("degraded").and_then(Value::as_bool), Some(false));
        // Epochs are monotone: adopting an older epoch is a no-op.
        let v =
            jsonio::parse(&handle_line(&svc, r#"{"cmd": "epoch", "epoch": 7}"#).response).unwrap();
        assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(7));
        let v =
            jsonio::parse(&handle_line(&svc, r#"{"cmd": "epoch", "epoch": 5}"#).response).unwrap();
        assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(7));
        // `stats` wraps the metrics registry with node identity.
        let _ = handle_line(&svc, r#"{"instance": [[0.5, 0.5]], "delay": 1}"#);
        let v = jsonio::parse(&handle_line(&svc, r#"{"cmd": "stats"}"#).response).unwrap();
        assert_eq!(v.get("node").and_then(Value::as_str), Some("shard-a"));
        assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(7));
        assert_eq!(
            v.get("stats")
                .and_then(|s| s.get("requests"))
                .and_then(Value::as_u64),
            Some(1)
        );
        // Errors carry the node stamp too.
        let v = jsonio::parse(&handle_line(&svc, "not json").response).unwrap();
        assert_eq!(v.get("node").and_then(Value::as_str), Some("shard-a"));
        // A standalone server omits the field and has no WAL to ship.
        let plain = service();
        let v = jsonio::parse(&handle_line(&plain, r#"{"cmd": "node_info"}"#).response).unwrap();
        assert!(v.get("node").is_none());
        let v =
            jsonio::parse(&handle_line(&plain, r#"{"cmd": "wal_ship", "generation": 0}"#).response)
                .unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("unsupported"));
    }

    #[test]
    fn wal_ship_and_apply_replicate_versions() {
        use crate::service::DurabilityOptions;
        use pager_profiles::io::MemIo;
        use pager_profiles::FsyncPolicy;
        use std::sync::Arc;
        let durable_node = |name: &str| {
            PagerService::try_new(ServiceConfig {
                workers: 2,
                capacity: 64,
                node_id: Some(name.to_string()),
                durability: Some(DurabilityOptions {
                    data_dir: "/node".into(),
                    fsync: FsyncPolicy::Always,
                    checkpoint_every: 0,
                    retain_wal: 4,
                    io: Some(Arc::new(MemIo::new())),
                }),
                ..ServiceConfig::default()
            })
            .unwrap()
        };
        let owner = durable_node("owner");
        let replica = durable_node("replica");
        let observe = r#"{"cmd": "observe", "cells": 4, "sightings": [
            {"device": "a", "cell": 1, "time": 1.0},
            {"device": "b", "cell": 2, "time": 1.5}]}"#;
        let acked = jsonio::parse(&handle_line(&owner, observe).response).unwrap();
        assert_eq!(
            acked.get("ok").and_then(Value::as_bool),
            Some(true),
            "{acked}"
        );
        // Ship the owner's WAL and apply it to the replica.
        let ship = jsonio::parse(
            &handle_line(
                &owner,
                r#"{"cmd": "wal_ship", "generation": 0, "offset": 0}"#,
            )
            .response,
        )
        .unwrap();
        assert_eq!(
            ship.get("ok").and_then(Value::as_bool),
            Some(true),
            "{ship}"
        );
        let hex = ship.get("bytes").and_then(Value::as_str).unwrap();
        let len = ship.get("len").and_then(Value::as_u64).unwrap();
        assert_eq!(hex.len() as u64, 2 * len);
        let apply_line = format!(r#"{{"cmd": "wal_apply", "bytes": "{hex}"}}"#);
        let applied = jsonio::parse(&handle_line(&replica, &apply_line).response).unwrap();
        assert_eq!(applied.get("applied").and_then(Value::as_u64), Some(2));
        assert_eq!(applied.get("consumed").and_then(Value::as_u64), Some(len));
        // The replica reproduced the owner's version numbering exactly.
        let versions = acked.get("versions").and_then(Value::as_object).unwrap();
        let owner_max = versions.iter().map(|(_, v)| v.as_u64().unwrap()).max();
        assert_eq!(
            applied.get("profile_version").and_then(Value::as_u64),
            owner_max
        );
        // And it plans from the replicated profiles.
        let plan = jsonio::parse(
            &handle_line(
                &replica,
                r#"{"cmd": "plan_devices", "id": 1, "devices": ["a", "b"], "delay": 2, "estimator": "empirical"}"#,
            )
            .response,
        )
        .unwrap();
        assert_eq!(
            plan.get("ok").and_then(Value::as_bool),
            Some(true),
            "{plan}"
        );
        assert_eq!(plan.get("node").and_then(Value::as_str), Some("replica"));
        // Garbage hex is rejected at parse.
        let bad = jsonio::parse(
            &handle_line(&replica, r#"{"cmd": "wal_apply", "bytes": "zz"}"#).response,
        )
        .unwrap();
        assert_eq!(bad.get("code").and_then(Value::as_str), Some("bad_request"));
    }

    #[test]
    fn control_lines() {
        let svc = service();
        let ping = handle_line(&svc, r#"{"cmd": "ping"}"#);
        assert!(ping.response.contains("pong"));
        let _ = handle_line(&svc, r#"{"instance": [[0.5, 0.5]], "delay": 1}"#);
        let metrics = handle_line(&svc, r#"{"cmd": "metrics"}"#);
        let v = jsonio::parse(&metrics.response).unwrap();
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("requests"))
                .and_then(Value::as_u64),
            Some(1)
        );
        let stop = handle_line(&svc, r#"{"cmd": "shutdown"}"#);
        assert!(stop.shutdown);
    }

    /// How a golden case sends its request as a v2 frame.
    #[derive(Clone, Copy)]
    enum V2 {
        /// A native `PLAN` frame carrying the v1 line's plan.
        Plan,
        /// That `PLAN` frame with its variant tag byte overwritten.
        PlanWithVariantTag(u8),
        /// A native `PING` frame.
        Ping,
        /// The v1 line inside a `JSON_REQ` frame.
        Wrap,
    }

    /// One row of the golden answer table: the request as a v1 line
    /// and as a v2 frame, and the exact answers to both.
    struct Golden {
        node: Option<&'static str>,
        /// Lines run on the fresh service before the request.
        setup: &'static [&'static str],
        line: String,
        v2: V2,
        /// The v1 answer line, `planning_micros` zeroed.
        v1_answer: &'static str,
        /// The v2 answer frame as `op/flags payload`: the payload is
        /// text for `JSON_RESP` and hex otherwise, `planning_micros`
        /// zeroed.
        v2_answer: &'static str,
    }

    /// Zeroes the `planning_micros` value of a v1 answer line.
    fn zero_micros_in_line(line: &str) -> String {
        const KEY: &str = "\"planning_micros\":";
        let Some(at) = line.find(KEY) else {
            return line.to_string();
        };
        let digits = at + KEY.len();
        let end = digits
            + line[digits..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(line.len() - digits);
        format!("{}0{}", &line[..digits], &line[end..])
    }

    /// Renders one answer frame as `op/flags payload`, checking it is
    /// exactly one well-formed frame (a checked frame's CRC included).
    fn render_frame(wire: &[u8]) -> String {
        let Split::V2Frame {
            op: frame_op,
            payload,
            consumed,
        } = frame::split(wire)
        else {
            panic!("expected a v2 frame, got {wire:?}");
        };
        assert_eq!(consumed, wire.len(), "trailing bytes after the answer");
        let mut payload = payload.to_vec();
        let body = if frame_op == op::JSON_RESP {
            zero_micros_in_line(std::str::from_utf8(&payload).unwrap())
        } else {
            if frame_op == op::PLAN_RESP {
                // id (tag byte + value), flags, tier, ep, then micros.
                let id_len = match payload[0] {
                    0 => 1,
                    1 | 2 => 9,
                    _ => 5 + u32::from_le_bytes(payload[1..5].try_into().unwrap()) as usize,
                };
                let micros = id_len + 1 + 1 + 8;
                payload[micros..micros + 8].fill(0);
            }
            encode_hex(&payload)
        };
        format!("{frame_op:02X}/{:02X} {body}", wire[3])
    }

    fn golden_table() -> Vec<Golden> {
        const OBSERVE: &str = r#"{"cmd": "observe", "cells": 3, "sightings": [{"device": "a", "cell": 0, "time": 1.0}, {"device": "a", "cell": 1, "time": 2.0}, {"device": "b", "cell": 2, "time": 2.0}]}"#;
        // A greedy solve whose deadline has already passed fails as
        // overloaded, with the static retry hint.
        let wide = format!(
            r#"{{"id": 6, "instance": [[{}]], "delay": 3, "variant": "greedy", "deadline_ms": 0, "cache": false}}"#,
            vec!["0.0009765625"; 1024].join(", ")
        );
        vec![
            // A plan with an id.
            Golden {
                node: None,
                setup: &[],
                line: r#"{"id": 7, "instance": [[0.5, 0.3, 0.2]], "delay": 2}"#.into(),
                v2: V2::Plan,
                v1_answer: r#"{"v":1,"id":7,"ok":true,"strategy":[[0],[1,2]],"ep":2.0,"tier":"exact","downgraded":false,"cached":false,"coalesced":false,"planning_micros":0}"#,
                v2_answer: r#"02/00 02070000000000000000000000000000000040000000000000000000000000020000000100000000000000020000000100000002000000"#,
            },
            // A plan without an id.
            Golden {
                node: None,
                setup: &[],
                line: r#"{"instance": [[0.5, 0.3, 0.2]], "delay": 2}"#.into(),
                v2: V2::Plan,
                v1_answer: r#"{"v":1,"id":null,"ok":true,"strategy":[[0],[1,2]],"ep":2.0,"tier":"exact","downgraded":false,"cached":false,"coalesced":false,"planning_micros":0}"#,
                v2_answer: r#"02/00 0000000000000000000040000000000000000000000000020000000100000000000000020000000100000002000000"#,
            },
            // A plan for named devices.
            Golden {
                node: None,
                setup: &[OBSERVE],
                line: r#"{"cmd": "plan_devices", "id": 5, "devices": ["a", "b"], "delay": 2, "now": 2.0}"#
                    .into(),
                v2: V2::Wrap,
                v1_answer: r#"{"v":1,"id":5,"ok":true,"strategy":[[1,2],[0]],"ep":2.36,"tier":"exact","downgraded":false,"cached":false,"coalesced":false,"planning_micros":0,"estimator":"markov","now":2.0,"profile_versions":[2,3],"stale_profiles":0}"#,
                v2_answer: r#"7F/01 {"v":1,"id":5,"ok":true,"strategy":[[1,2],[0]],"ep":2.36,"tier":"exact","downgraded":false,"cached":false,"coalesced":false,"planning_micros":0,"estimator":"markov","now":2.0,"profile_versions":[2,3],"stale_profiles":0}"#,
            },
            // An error without retry_after_ms.
            Golden {
                node: None,
                setup: &[],
                line: r#"{"id": 4, "instance": [[0.9, 0.2]], "delay": 1}"#.into(),
                v2: V2::Wrap,
                v1_answer: r#"{"v":1,"id":4,"ok":false,"code":"bad_request","error":"device 0 probabilities sum to 1.1, not 1"}"#,
                v2_answer: r#"7F/01 {"v":1,"id":4,"ok":false,"code":"bad_request","error":"device 0 probabilities sum to 1.1, not 1"}"#,
            },
            // An error a native plan frame cannot decode answers with
            // a null id.
            Golden {
                node: None,
                setup: &[],
                line: r#"{"id": 8, "instance": [[0.5, 0.5]], "delay": 1, "variant": "psychic"}"#
                    .into(),
                v2: V2::PlanWithVariantTag(9),
                v1_answer: r#"{"v":1,"id":8,"ok":false,"code":"unsupported","error":"unknown variant \"psychic\""}"#,
                v2_answer: r#"03/00 0002ffffffffffffffff15000000756e6b6e6f776e2076617269616e7420746167203900000000"#,
            },
            // An error with retry_after_ms.
            Golden {
                node: None,
                setup: &[],
                line: wide,
                v2: V2::Plan,
                v1_answer: r#"{"v":1,"id":6,"ok":false,"code":"overloaded","error":"server overloaded, retry after 50 ms","retry_after_ms":50}"#,
                v2_answer: r#"03/00 02060000000000000003320000000000000024000000736572766572206f7665726c6f616465642c207265747279206166746572203530206d7300000000"#,
            },
            // A ping without an id.
            Golden {
                node: None,
                setup: &[],
                line: r#"{"cmd": "ping"}"#.into(),
                v2: V2::Ping,
                v1_answer: r#"{"v":1,"ok":true,"pong":true}"#,
                v2_answer: r#"05/00 00000000"#,
            },
            // A ping with an id.
            Golden {
                node: None,
                setup: &[],
                line: r#"{"cmd": "ping", "id": 3}"#.into(),
                v2: V2::Wrap,
                v1_answer: r#"{"v":1,"id":3,"ok":true,"pong":true}"#,
                v2_answer: r#"7F/01 {"v":1,"id":3,"ok":true,"pong":true}"#,
            },
            // A control op without an id.
            Golden {
                node: None,
                setup: &[],
                line: r#"{"cmd": "epoch", "epoch": 4}"#.into(),
                v2: V2::Wrap,
                v1_answer: r#"{"v":1,"ok":true,"epoch":4}"#,
                v2_answer: r#"7F/01 {"v":1,"ok":true,"epoch":4}"#,
            },
            // A control op with an id.
            Golden {
                node: None,
                setup: &[],
                line: r#"{"cmd": "epoch", "id": "e-1", "epoch": 4}"#.into(),
                v2: V2::Wrap,
                v1_answer: r#"{"v":1,"id":"e-1","ok":true,"epoch":4}"#,
                v2_answer: r#"7F/01 {"v":1,"id":"e-1","ok":true,"epoch":4}"#,
            },
            // A control op's error echoes the id.
            Golden {
                node: None,
                setup: &[],
                line: r#"{"cmd": "wal_apply", "id": 11, "bytes": "zz"}"#.into(),
                v2: V2::Wrap,
                v1_answer: r#"{"v":1,"id":11,"ok":false,"code":"bad_request","error":"\"bytes\": non-hex byte 0x7a in payload"}"#,
                v2_answer: r#"7F/01 {"v":1,"id":11,"ok":false,"code":"bad_request","error":"\"bytes\": non-hex byte 0x7a in payload"}"#,
            },
            // Node-stamped answers: a plan, a control op and an error.
            Golden {
                node: Some("shard-a"),
                setup: &[],
                line: r#"{"id": 7, "instance": [[0.5, 0.3, 0.2]], "delay": 2}"#.into(),
                v2: V2::Plan,
                v1_answer: r#"{"v":1,"id":7,"ok":true,"strategy":[[0],[1,2]],"ep":2.0,"tier":"exact","downgraded":false,"cached":false,"coalesced":false,"planning_micros":0,"node":"shard-a"}"#,
                v2_answer: r#"02/00 0207000000000000000000000000000000004000000000000000000700000073686172642d61020000000100000000000000020000000100000002000000"#,
            },
            Golden {
                node: Some("shard-a"),
                setup: &[],
                line: r#"{"cmd": "epoch", "id": 2, "epoch": 4}"#.into(),
                v2: V2::Wrap,
                v1_answer: r#"{"v":1,"id":2,"ok":true,"node":"shard-a","epoch":4}"#,
                v2_answer: r#"7F/01 {"v":1,"id":2,"ok":true,"node":"shard-a","epoch":4}"#,
            },
            Golden {
                node: Some("shard-a"),
                setup: &[],
                line: r#"{"id": 4, "instance": [[0.9, 0.2]], "delay": 1}"#.into(),
                v2: V2::Wrap,
                v1_answer: r#"{"v":1,"id":4,"ok":false,"code":"bad_request","error":"device 0 probabilities sum to 1.1, not 1","node":"shard-a"}"#,
                v2_answer: r#"7F/01 {"v":1,"id":4,"ok":false,"code":"bad_request","error":"device 0 probabilities sum to 1.1, not 1","node":"shard-a"}"#,
            },
        ]
    }

    #[test]
    fn control_responses_echo_the_request_id() {
        // Every answer, on both protocols, pinned byte for byte (bar
        // `planning_micros`). Every answer echoes its request's id —
        // the cluster hop's request/reply correlation keys on it —
        // while id-less control answers keep the frozen v1 shape with
        // no "id" key at all.
        use pager_wire::Codec;
        let fresh = |node: Option<&str>, setup: &[&str]| {
            let svc = PagerService::new(ServiceConfig {
                workers: 2,
                capacity: 64,
                node_id: node.map(str::to_string),
                ..ServiceConfig::default()
            });
            for line in setup {
                assert!(handle_line(&svc, line).response.contains("\"ok\":true"));
            }
            svc
        };
        for case in golden_table() {
            let v1 = handle_line(&fresh(case.node, case.setup), &case.line).response;
            let mut request = Vec::new();
            match case.v2 {
                V2::Plan | V2::PlanWithVariantTag(_) => {
                    let plan = parse_request(&case.line.replace("psychic", "greedy")).unwrap();
                    pager_wire::BinaryCodec.encode_request(&plan, &mut request);
                    assert_eq!(request[2], op::PLAN);
                    if let V2::PlanWithVariantTag(tag) = case.v2 {
                        // Header, then an integer id (tag + 8 bytes),
                        // then the u32 delay.
                        request[frame::HEADER_LEN + 9 + 4] = tag;
                    }
                }
                V2::Ping => frame::write_frame(&mut request, op::PING, b""),
                V2::Wrap => frame::write_frame(&mut request, op::JSON_REQ, case.line.as_bytes()),
            }
            let (request_op, payload) = split_one(&request);
            let mut v2 = Vec::new();
            assert!(!handle_frame(
                &fresh(case.node, case.setup),
                request_op,
                &payload,
                &mut v2
            ));
            assert_eq!(zero_micros_in_line(&v1), case.v1_answer, "{}", case.line);
            assert_eq!(render_frame(&v2), case.v2_answer, "{}", case.line);
        }
    }

    fn split_one(buf: &[u8]) -> (u8, Vec<u8>) {
        match frame::split(buf) {
            Split::V2Frame { op, payload, .. } => (op, payload.to_vec()),
            other => panic!("expected a v2 frame, got {other:?}"),
        }
    }

    #[test]
    fn plan_frames_answer_natively_and_hit_the_cache() {
        use pager_core::{Delay, Instance};
        use pager_wire::{Codec, PlanSpec};
        let svc = service();
        let request = Request::Plan {
            id: Value::Int(41),
            instance: Instance::from_rows(vec![vec![0.5, 0.3, 0.2]]).unwrap(),
            spec: PlanSpec::new(Delay::new(2).unwrap()),
        };
        let mut wire = Vec::new();
        pager_wire::BinaryCodec.encode_request(&request, &mut wire);
        let (op_in, payload) = split_one(&wire);
        assert_eq!(op_in, op::PLAN);
        // First frame: a miss, planned fresh.
        let mut out = Vec::new();
        assert!(!handle_frame(&svc, op_in, &payload, &mut out));
        let (op_out, body) = split_one(&out);
        let v = binary::response_to_value(op_out, &body).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_i64), Some(41));
        assert_eq!(v.get("cached").and_then(Value::as_bool), Some(false));
        // Second, identical frame: served from cache via the borrowed
        // fast path.
        let mut out2 = Vec::new();
        assert!(!handle_frame(&svc, op_in, &payload, &mut out2));
        let (op_out2, body2) = split_one(&out2);
        let v2 = binary::response_to_value(op_out2, &body2).unwrap();
        assert_eq!(v2.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(v2.get("strategy"), v.get("strategy"));
        assert_eq!(svc.metrics().requests.get(), 2);
        assert_eq!(svc.metrics().cache_hits.get(), 1);
    }

    #[test]
    fn fast_path_and_v1_line_agree_on_strategy() {
        use pager_core::{Delay, Instance};
        use pager_wire::{Codec, PlanSpec};
        let svc = service();
        let line = r#"{"id": 1, "instance": [[0.4, 0.4, 0.2], [0.1, 0.8, 0.1]], "delay": 2}"#;
        let v1 = jsonio::parse(&handle_line(&svc, line).response).unwrap();
        let request = Request::Plan {
            id: Value::Int(1),
            instance: Instance::from_rows(vec![vec![0.4, 0.4, 0.2], vec![0.1, 0.8, 0.1]]).unwrap(),
            spec: PlanSpec::new(Delay::new(2).unwrap()),
        };
        let mut wire = Vec::new();
        pager_wire::BinaryCodec.encode_request(&request, &mut wire);
        let (op_in, payload) = split_one(&wire);
        let mut out = Vec::new();
        let _ = handle_frame(&svc, op_in, &payload, &mut out);
        let (op_out, body) = split_one(&out);
        let v2 = binary::response_to_value(op_out, &body).unwrap();
        // Byte-identical strategies across codecs; the v2 answer came
        // from the cache the v1 request populated.
        assert_eq!(v2.get("strategy"), v1.get("strategy"));
        assert_eq!(v2.get("tier"), v1.get("tier"));
        assert_eq!(v2.get("cached").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn json_wrapped_frames_round_trip_cold_ops() {
        let svc = service();
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, op::JSON_REQ, br#"{"cmd": "profile_stats"}"#);
        let (op_in, payload) = split_one(&wire);
        let mut out = Vec::new();
        assert!(!handle_frame(&svc, op_in, &payload, &mut out));
        let (op_out, body) = split_one(&out);
        assert_eq!(op_out, op::JSON_RESP);
        let v = jsonio::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        // Shutdown propagates through the wrap.
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, op::JSON_REQ, br#"{"cmd": "shutdown"}"#);
        let (op_in, payload) = split_one(&wire);
        let mut out = Vec::new();
        assert!(handle_frame(&svc, op_in, &payload, &mut out));
    }

    #[test]
    fn ping_frames_pong_and_bad_frames_error() {
        let svc = service();
        let mut out = Vec::new();
        assert!(!handle_frame(&svc, op::PING, b"", &mut out));
        let (op_out, body) = split_one(&out);
        assert_eq!(op_out, op::PONG);
        let v = binary::response_to_value(op_out, &body).unwrap();
        assert_eq!(v.get("pong").and_then(Value::as_bool), Some(true));
        // Truncated plan payload → bad_request frame, no panic.
        let mut out = Vec::new();
        assert!(!handle_frame(&svc, op::PLAN, &[3, 0, 0], &mut out));
        let (op_out, body) = split_one(&out);
        assert_eq!(op_out, op::ERROR);
        let v = binary::response_to_value(op_out, &body).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
        // Unknown op → unsupported.
        let mut out = Vec::new();
        assert!(!handle_frame(&svc, 0x44, b"", &mut out));
        let (op_out, body) = split_one(&out);
        let v = binary::response_to_value(op_out, &body).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("unsupported"));
    }

    #[test]
    fn metrics_op_reports_cache_evictions() {
        let svc = PagerService::new(ServiceConfig {
            workers: 1,
            capacity: 2,
            shards: 1,
            ..ServiceConfig::default()
        });
        for i in 1..=5 {
            let p = f64::from(i) / 10.0;
            let line = format!(r#"{{"instance": [[{p}, {}]], "delay": 1}}"#, 1.0 - p);
            let outcome = handle_line(&svc, &line);
            assert!(
                outcome.response.contains("\"ok\":true"),
                "{}",
                outcome.response
            );
        }
        let metrics = jsonio::parse(&handle_line(&svc, r#"{"cmd": "metrics"}"#).response).unwrap();
        let evictions = metrics
            .get("metrics")
            .and_then(|m| m.get("evictions"))
            .and_then(Value::as_u64);
        assert_eq!(evictions, Some(3), "{metrics}");
    }
}
