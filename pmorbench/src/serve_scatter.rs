//! `serve_scatter`: an in-process `pmor-serve` daemon over loopback TCP,
//! driven by two closed-loop binary clients. Points are scattered (one
//! frequency per parameter point), so no per-`p` amortization applies;
//! this is the only workload through the wire codec, checksum, LRU,
//! per-connection threads and the JSON dialect.

use crate::harness::{self, jw, Checked, Fault, Opts, Outcome, Rng, Setups};
use crate::mesh;
use crate::trace::{self, span};
use pmor::engine::{EvalEngine, EvalPoint};
use pmor::{ParametricRom, ReducerKind, ReductionContext};
use pmor_num::Complex64;
use pmor_serve::json::{parse_json, Json};
use pmor_serve::protocol::{self, Request, Response, HEADER_LEN};
use pmor_serve::{ServeAddr, ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Binary client connections open at once (one per client thread; the
/// JSON connection replaces client 0's binary one).
const CLIENTS: usize = 2;
/// Every `LOAD_EVERY`-th request of a client is a `LoadRom`.
const LOAD_EVERY: usize = 6;
/// Eval batch sizes, cycled.
const BATCHES: [usize; 3] = [1, 16, 64];
/// Points per JSON eval request.
const JSON_BATCH: usize = 16;
/// Sanity cap on a response body this client will read.
const MAX_BODY: u32 = 64 << 20;

/// A served ROM: its wire bytes and content fingerprint.
struct Served {
    bytes: Vec<u8>,
    fingerprint: u64,
}

/// One scripted request with its expected answer.
enum Op {
    Load {
        request: Request,
        fingerprint: u64,
    },
    Eval {
        request: Request,
        expected: Vec<Complex64>,
    },
}

/// One JSON request line with its expected values.
struct JsonOp {
    line: String,
    points: usize,
    expected: Vec<Complex64>,
}

/// A binary-protocol connection whose frames go through the public
/// codec, so encoding and decoding are timed on this run's frames.
struct Conn {
    stream: TcpStream,
    next_id: u32,
}

impl Conn {
    /// Connects and waits until the server serves the connection (one
    /// `Ping` round trip).
    fn open(addr: &str) -> Result<Conn, String> {
        let _g = trace::enter("serve.connect");
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let mut conn = Conn { stream, next_id: 1 };
        match conn.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(conn),
            other => Err(format!("expected pong, got {other:?}")),
        }
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let frame = span("serve.encode", || protocol::encode_request(id, request))
            .map_err(|e| e.to_string())?;
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("send: {e}"))?;
        let mut head = [0u8; HEADER_LEN];
        self.stream
            .read_exact(&mut head)
            .map_err(|e| format!("recv: {e}"))?;
        let header = protocol::decode_header(&head).map_err(|e| e.to_string())?;
        if header.body_len > MAX_BODY {
            return Err(format!("response body of {} bytes", header.body_len));
        }
        let mut full = vec![0u8; header.frame_len()];
        full[..HEADER_LEN].copy_from_slice(&head);
        self.stream
            .read_exact(&mut full[HEADER_LEN..])
            .map_err(|e| format!("recv: {e}"))?;
        let (rid, response) =
            span("serve.decode", || protocol::decode_response(&full)).map_err(|e| e.to_string())?;
        if rid != id {
            return Err(format!("response id {rid} for request {id}"));
        }
        Ok(response)
    }

    /// Loads a ROM and checks the server's stamp. `Ok(false)` is a
    /// rejected or wrong load; `Err` a broken connection.
    fn load(&mut self, request: &Request, fingerprint: u64) -> Result<bool, String> {
        let _g = trace::enter("serve.load_rom");
        Ok(match self.roundtrip(request)? {
            Response::RomLoaded(stamp) => stamp.fingerprint == fingerprint,
            Response::Error(_) => {
                trace::fact("serve.faults", 1.0);
                false
            }
            _ => false,
        })
    }
}

/// The daemon every timed path talks to: one engine thread.
fn config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    }
}

fn tcp_addr(handle: &ServerHandle) -> Result<String, String> {
    match handle.addr() {
        ServeAddr::Tcp(hp) => Ok(hp.clone()),
        other => Err(format!("expected a TCP address, got {other:?}")),
    }
}

/// Starts a daemon and loads every served ROM through one connection.
fn start(served: &[Served]) -> Result<ServerHandle, String> {
    let handle = span("serve.start", || Server::start(config())).map_err(|e| e.to_string())?;
    let mut conn = Conn::open(&tcp_addr(&handle)?)?;
    for s in served {
        let request = Request::LoadRom {
            rom_bytes: s.bytes.clone(),
        };
        if !conn.load(&request, s.fingerprint)? {
            return Err("set-up LoadRom rejected".into());
        }
    }
    Ok(handle)
}

fn stop(handle: ServerHandle) -> Result<(), String> {
    handle.shutdown_and_join().map_err(|e| e.to_string())
}

/// Flattens per-point matrices the way an `EvalReply` carries them.
fn flatten(mats: &[pmor_num::Matrix<Complex64>]) -> Vec<Complex64> {
    let mut out = Vec::new();
    for m in mats {
        for r in 0..m.nrows() {
            for c in 0..m.ncols() {
                out.push(m[(r, c)]);
            }
        }
    }
    out
}

fn scattered(rng: &mut Rng, np: usize, n: usize) -> Vec<EvalPoint> {
    (0..n)
        .map(|_| EvalPoint::new(rng.params(np, 0.3), jw(rng.log_freq(1e7, 1e10))))
        .collect()
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut rng = Rng::new(opts.seed, 4);
    let cfg = mesh::mesh_config(opts);
    // The two served ROMs, reduced before any timing: the low-rank ROM
    // and the (larger) multi-point ROM of the same mesh.
    let (sys, lowrank) = mesh::build_and_reduce(&cfg)?;
    let multipoint = ReducerKind::MultiPoint
        .build(&sys)
        .reduce(&sys, &mut ReductionContext::new())
        .map_err(|e| format!("multipoint: {e}"))?;
    trace::fact("reduce.multipoint_q", multipoint.size() as f64);
    let roms: [&ParametricRom; 2] = [&lowrank, &multipoint];
    let served: Vec<Served> = roms
        .iter()
        .map(|rom| Served {
            bytes: pmor::rom::to_bytes(rom),
            fingerprint: pmor::rom::fingerprint(rom),
        })
        .collect();

    // Set-up: start a daemon, connect, load both ROMs. One is a few
    // milliseconds, so each sample times a group back to back.
    let mut setups = Setups::new(opts.pick(9, 2), opts.pick(6, 1), || start(&served), stop);
    let handle = setups.sample()?;
    let addr = tcp_addr(&handle)?;

    // The per-pass scripts and their answers from a serial in-process
    // engine (not timed).
    let engine = EvalEngine::new(1);
    let np = sys.num_params();
    let requests_per_client = opts.pick(24, 6);
    let mut scripts: Vec<Vec<Op>> = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        let mut script = Vec::with_capacity(requests_per_client);
        let mut evals = 0usize;
        for i in 0..requests_per_client {
            let which = (rng.next_u64() % 2) as usize;
            if i % LOAD_EVERY == LOAD_EVERY - 1 {
                let mut rom_bytes = served[which].bytes.clone();
                if opts.fault == Some(Fault::CorruptRom) && i == LOAD_EVERY - 1 {
                    let mid = rom_bytes.len() / 2;
                    rom_bytes[mid] ^= 0x40;
                }
                script.push(Op::Load {
                    request: Request::LoadRom { rom_bytes },
                    fingerprint: served[which].fingerprint,
                });
            } else {
                let points = scattered(&mut rng, np, BATCHES[evals % BATCHES.len()]);
                evals += 1;
                let mats = engine
                    .transfer_batch(roms[which], &points)
                    .map_err(|e| e.to_string())?;
                script.push(Op::Eval {
                    request: Request::Eval {
                        rom_fingerprint: served[which].fingerprint,
                        points,
                    },
                    expected: flatten(&mats),
                });
            }
        }
        scripts.push(script);
    }
    let mut json_script = Vec::new();
    for k in 0..opts.pick(2, 1) {
        let which = k % 2;
        let points = scattered(&mut rng, np, JSON_BATCH);
        let mats = engine
            .transfer_batch(roms[which], &points)
            .map_err(|e| e.to_string())?;
        let pts: Vec<String> = points
            .iter()
            .map(|p| {
                let params: Vec<String> = p.params.iter().map(|v| format!("{v:?}")).collect();
                format!(
                    "{{\"params\":[{}],\"s\":[{:?},{:?}]}}",
                    params.join(","),
                    p.s.re,
                    p.s.im
                )
            })
            .collect();
        json_script.push(JsonOp {
            line: format!(
                "{{\"op\":\"eval\",\"id\":{},\"rom\":\"{:016x}\",\"points\":[{}]}}\n",
                k + 1,
                served[which].fingerprint,
                pts.join(",")
            ),
            points: points.len(),
            expected: flatten(&mats),
        });
    }

    let fault = opts.fault;
    let mut outcome = Outcome::default();
    harness::run_passes(
        opts,
        opts.pick(5, 2),
        false,
        &mut outcome,
        &mut setups,
        || {
            let parent = trace::current();
            let tallies: Vec<Result<Checked, String>> = std::thread::scope(|sc| {
                let handles: Vec<_> = scripts
                    .iter()
                    .enumerate()
                    .map(|(c, script)| {
                        let json = if c == 0 { &json_script[..] } else { &[] };
                        let addr = &addr;
                        sc.spawn(move || client(addr, script, json, parent, fault))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err("client thread panicked".into()))
                    })
                    .collect()
            });
            let mut total = Checked::default();
            for t in tallies {
                let t = t?;
                total.ops += t.ops;
                total.failed += t.failed;
            }
            trace::fact("serve.requests", total.ops as f64);
            Ok(total)
        },
        |total| total,
    )?;
    setups.finish(&mut outcome);
    stop(handle)?;
    Ok(outcome)
}

/// One closed-loop client: its binary script over one connection, then
/// (client 0 only) the JSON requests over a fresh JSON-dialect one.
fn client(
    addr: &str,
    script: &[Op],
    json: &[JsonOp],
    parent: u64,
    fault: Option<Fault>,
) -> Result<Checked, String> {
    let _g = trace::enter_under("serve.client", parent);
    let mut tally = Checked::default();
    let mut conn = Conn::open(addr)?;
    let mut perturbed = false;
    for op in script {
        tally.ops += 1;
        let ok = match op {
            Op::Load {
                request,
                fingerprint,
            } => conn.load(request, *fingerprint)?,
            Op::Eval { request, expected } => {
                let mut g = trace::enter("serve.eval");
                if let Request::Eval { points, .. } = request {
                    g.set_count(points.len() as u64);
                }
                match conn.roundtrip(request)? {
                    Response::Eval(mut reply) => {
                        trace::fact("serve.rom_eval_s", reply.provenance.eval_seconds);
                        trace::fact("serve.rom_evals", f64::from(reply.provenance.eval_points));
                        if fault == Some(Fault::PerturbResponse) && !perturbed {
                            perturbed = true;
                            let v = &mut reply.values[0];
                            v.re = f64::from_bits(v.re.to_bits() ^ 1);
                        }
                        harness::same_bits(&reply.values, expected)
                    }
                    Response::Error(_) => {
                        trace::fact("serve.faults", 1.0);
                        false
                    }
                    _ => false,
                }
            }
        };
        tally.failed += u64::from(!ok);
    }
    drop(conn);
    if !json.is_empty() {
        let t = json_client(addr, json)?;
        tally.ops += t.ops;
        tally.failed += t.failed;
    }
    Ok(tally)
}

/// Sends JSON-dialect eval lines; a value matches when it equals the
/// expected value after a decimal round trip.
fn json_client(addr: &str, ops: &[JsonOp]) -> Result<Checked, String> {
    let (mut writer, mut reader) = {
        let _g = trace::enter("serve.connect");
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let (mut w, mut r) = (stream, reader);
        let reply = json_roundtrip(&mut w, &mut r, "{\"op\":\"ping\",\"id\":0}\n")?;
        if reply.get("ok") != Some(&Json::Str("pong".into())) {
            return Err(format!("expected pong, got {reply:?}"));
        }
        (w, r)
    };
    let mut tally = Checked::default();
    for op in ops {
        let mut g = trace::enter("serve.json_eval");
        g.set_count(op.points as u64);
        let reply = json_roundtrip(&mut writer, &mut reader, &op.line)?;
        drop(g);
        tally.ops += 1;
        let ok = match reply.get("values") {
            Some(Json::Arr(values)) => {
                values.len() == op.expected.len()
                    && values.iter().zip(&op.expected).all(|(v, e)| match v {
                        Json::Arr(pair) => match pair.as_slice() {
                            [Json::Num(re), Json::Num(im)] => {
                                *re == decimal(e.re) && *im == decimal(e.im)
                            }
                            _ => false,
                        },
                        _ => false,
                    })
            }
            _ => {
                if reply.get("error").is_some() {
                    trace::fact("serve.faults", 1.0);
                }
                false
            }
        };
        tally.failed += u64::from(!ok);
    }
    Ok(tally)
}

fn json_roundtrip(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<Json, String> {
    writer
        .write_all(line.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .map_err(|e| format!("recv: {e}"))?;
    parse_json(reply.trim_end()).map_err(|e| format!("json reply: {e}"))
}

/// `v` after a trip through its shortest decimal form.
fn decimal(v: f64) -> f64 {
    format!("{v}").parse().unwrap_or(f64::NAN)
}
