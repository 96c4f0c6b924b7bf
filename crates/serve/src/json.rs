//! Newline-delimited JSON fallback for `pmor serve`.
//!
//! A connection whose first byte is `{` speaks this instead of the
//! binary protocol: one JSON object per line in, one per line out.
//! This module is only the request/response mapping: reading and
//! writing go through the workspace's one JSON implementation,
//! `pmor-json`, whose [`parse_json`] and [`Json`] are re-exported here.
//!
//! The fallback exists for quick `nc`/script interop; numbers travel
//! as decimal text (shortest round-trip form, like `BENCH_*.json`),
//! so the **binary** protocol remains the bitwise-exact transport.
//! `load_rom` is binary-only and answered with an `unsupported` fault
//! here.
//!
//! Request lines:
//!
//! ```json
//! {"op":"ping","id":1}
//! {"op":"info"}
//! {"op":"eval","rom":"00a1b2c3d4e5f607","points":[{"params":[0.1,-0.2],"s":[0.0,6.28e9]}]}
//! {"op":"shutdown"}
//! ```

use crate::protocol::{FaultCode, Request, Response};
use pmor::engine::EvalPoint;
use pmor_json::{json_number, json_string};
pub use pmor_json::{parse_json, Json};
use pmor_num::Complex64;

/// Parses one JSON request line into `(req_id, Request)`.
///
/// `id` defaults to 0 when absent; `rom` fingerprints are 16-digit hex
/// strings (the same rendering responses use).
///
/// # Errors
///
/// Returns a message suitable for a `malformed` fault on any schema
/// violation; `"op":"load_rom"` is reported as binary-only.
pub fn request_from_json(line: &str) -> Result<(u32, Request), String> {
    let doc = parse_json(line)?;
    let op = match doc.get("op") {
        Some(Json::Str(op)) => op.as_str(),
        _ => return Err("missing string field \"op\"".into()),
    };
    let id = match doc.get("id") {
        None => 0,
        Some(Json::Num(n)) if *n >= 0.0 && *n <= u32::MAX as f64 && n.fract() == 0.0 => *n as u32,
        Some(_) => return Err("\"id\" must be a u32".into()),
    };
    let req = match op {
        "ping" => Request::Ping,
        "info" => Request::Info,
        "shutdown" => Request::Shutdown,
        "load_rom" => {
            return Err("load_rom is binary-protocol-only (ROM bytes don't travel as JSON)".into())
        }
        "eval" => {
            let rom = match doc.get("rom") {
                Some(Json::Str(s)) => u64::from_str_radix(s, 16)
                    .map_err(|_| format!("\"rom\" is not a hex fingerprint: {s:?}"))?,
                _ => return Err("missing string field \"rom\"".into()),
            };
            let Some(Json::Arr(raw_points)) = doc.get("points") else {
                return Err("missing array field \"points\"".into());
            };
            if raw_points.is_empty() {
                return Err("\"points\" must be non-empty".into());
            }
            let mut points = Vec::with_capacity(raw_points.len());
            for (i, p) in raw_points.iter().enumerate() {
                let Some(Json::Arr(params)) = p.get("params") else {
                    return Err(format!("point {i}: missing array field \"params\""));
                };
                let mut pv = Vec::with_capacity(params.len());
                for v in params {
                    match v {
                        Json::Num(n) => pv.push(*n),
                        _ => return Err(format!("point {i}: non-numeric parameter")),
                    }
                }
                let s = match p.get("s") {
                    Some(Json::Arr(re_im)) => match re_im.as_slice() {
                        [Json::Num(re), Json::Num(im)] => Complex64::new(*re, *im),
                        _ => return Err(format!("point {i}: \"s\" must be [re, im]")),
                    },
                    _ => return Err(format!("point {i}: missing array field \"s\"")),
                };
                points.push(EvalPoint::new(pv, s));
            }
            Request::Eval {
                rom_fingerprint: rom,
                points,
            }
        }
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok((id, req))
}

/// Renders one response as a single JSON line (no trailing newline).
///
/// Fingerprints render as 16-digit hex strings; floats use the same
/// shortest-round-trip decimal form as `BENCH_*.json` (non-finite →
/// `null`).
pub fn response_to_json(id: u32, resp: &Response) -> String {
    let body = match resp {
        Response::Pong => "\"ok\":\"pong\"".to_string(),
        Response::ShutdownAck => "\"ok\":\"shutdown\"".to_string(),
        Response::Info(info) => format!(
            "\"ok\":\"info\",\"protocol_version\":{},\"max_frame\":{},\"max_batch\":{},\
             \"roms\":[{}]",
            info.protocol_version,
            info.max_frame,
            info.max_batch,
            info.roms
                .iter()
                .map(stamp_json)
                .collect::<Vec<_>>()
                .join(",")
        ),
        Response::RomLoaded(stamp) => {
            format!("\"ok\":\"rom_loaded\",\"rom\":{}", stamp_json(stamp))
        }
        Response::Eval(reply) => {
            let p = &reply.provenance;
            let values: Vec<String> = reply
                .values
                .iter()
                .map(|v| format!("[{},{}]", json_number(v.re), json_number(v.im)))
                .collect();
            format!(
                "\"ok\":\"eval\",\"rom\":\"{:016x}\",\"eval_points\":{},\"threads\":{},\
                 \"eval_seconds\":{},\"rows\":{},\"cols\":{},\"values\":[{}]",
                p.rom_fingerprint,
                p.eval_points,
                p.threads,
                json_number(p.eval_seconds),
                reply.rows,
                reply.cols,
                values.join(",")
            )
        }
        Response::Error(fault) => error_body(fault.code, &fault.message),
    };
    format!("{{\"id\":{id},{body}}}")
}

fn stamp_json(stamp: &crate::protocol::RomStamp) -> String {
    format!(
        "{{\"fingerprint\":\"{:016x}\",\"states\":{},\"full_dim\":{},\"num_params\":{},\
         \"num_inputs\":{},\"num_outputs\":{}}}",
        stamp.fingerprint,
        stamp.states,
        stamp.full_dim,
        stamp.num_params,
        stamp.num_inputs,
        stamp.num_outputs
    )
}

fn error_body(code: FaultCode, message: &str) -> String {
    format!(
        "\"error\":\"{}\",\"message\":{}",
        code.name(),
        json_string(message)
    )
}

/// The standard fault line for an unparsable JSON request.
pub fn malformed_line(detail: &str) -> String {
    format!("{{\"id\":0,{}}}", error_body(FaultCode::Malformed, detail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{EvalReply, Provenance, RomStamp, ServeFault, ServerInfo};

    #[test]
    fn json_number_matches_report_style() {
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.1), "0.1");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert!(json_number(1e300).parse::<f64>().unwrap() == 1e300);
    }

    #[test]
    fn request_lines_parse() {
        let (id, req) = request_from_json(r#"{"op":"ping","id":7}"#).unwrap();
        assert_eq!((id, req), (7, Request::Ping));
        let (id, req) = request_from_json(
            r#"{"op":"eval","rom":"00000000000000ff","points":[{"params":[0.1],"s":[0.0,1.0]}]}"#,
        )
        .unwrap();
        assert_eq!(id, 0);
        match req {
            Request::Eval {
                rom_fingerprint,
                points,
            } => {
                assert_eq!(rom_fingerprint, 0xff);
                assert_eq!(points.len(), 1);
                assert_eq!(points[0].params, vec![0.1]);
            }
            other => panic!("unexpected request {other:?}"),
        }
        assert!(request_from_json(r#"{"op":"load_rom"}"#).is_err());
        assert!(request_from_json(r#"{"op":"eval","rom":"zz","points":[]}"#).is_err());
        assert!(request_from_json(r#"{"op":"nope"}"#).is_err());
        assert!(request_from_json(r#"{"id":-1,"op":"ping"}"#).is_err());
    }

    #[test]
    fn overflowing_numbers_are_malformed_not_infinite() {
        for point in [
            r#"{"params":[1e400],"s":[0.0,1.0]}"#,
            r#"{"params":[0.1],"s":[-1e400,1.0]}"#,
        ] {
            let line = format!(r#"{{"op":"eval","rom":"00000000000000ff","points":[{point}]}}"#);
            let err = request_from_json(&line).unwrap_err();
            assert!(err.contains("overflows"), "{point}: {err}");
        }
        // Underflow is an ordinary zero.
        let line = r#"{"op":"eval","rom":"ff","points":[{"params":[1e-400],"s":[0.0,1.0]}]}"#;
        match request_from_json(line).unwrap().1 {
            Request::Eval { points, .. } => assert_eq!(points[0].params, vec![0.0]),
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let stamp = RomStamp {
            fingerprint: 0xabc,
            states: 6,
            full_dim: 100,
            num_params: 2,
            num_inputs: 1,
            num_outputs: 1,
        };
        let lines = [
            response_to_json(1, &Response::Pong),
            response_to_json(2, &Response::ShutdownAck),
            response_to_json(
                3,
                &Response::Info(ServerInfo {
                    protocol_version: 1,
                    max_frame: 16,
                    max_batch: 8,
                    roms: vec![stamp],
                }),
            ),
            response_to_json(4, &Response::RomLoaded(stamp)),
            response_to_json(
                5,
                &Response::Eval(EvalReply {
                    rows: 1,
                    cols: 1,
                    provenance: Provenance {
                        rom_fingerprint: 0xabc,
                        eval_points: 1,
                        threads: 1,
                        eval_seconds: 0.5,
                        states: 6,
                        full_dim: 100,
                    },
                    values: vec![pmor_num::Complex64::new(1.0, f64::NAN)],
                }),
            ),
            response_to_json(
                6,
                &Response::Error(ServeFault::new(
                    crate::protocol::FaultCode::UnknownRom,
                    "tab\there \"quoted\"",
                )),
            ),
            malformed_line("bad { line"),
        ];
        for line in &lines {
            assert!(!line.contains('\n'), "multi-line: {line}");
            let doc = parse_json(line).unwrap_or_else(|e| panic!("unparsable {line}: {e}"));
            assert!(doc.get("id").is_some(), "no id in {line}");
        }
        // NaN rendered as null, exact hex fingerprint present.
        assert!(lines[4].contains("null"));
        assert!(lines[4].contains("0000000000000abc"));
    }
}
