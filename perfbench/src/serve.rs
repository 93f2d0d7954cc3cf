//! `serve_unix`: an in-process `Server` on a Unix socket with one client
//! connection per load thread. Each client opens its next session when the
//! previous one ends, rotating over `PLAN`: registry scenarios with N = 2..16,
//! a quarter of them v2 resumes at block `RESUME_CURSOR`. Every session has
//! a seed of its own, so no stream repeats within a run. After the loop,
//! every served block is compared with the standalone
//! `build_realtime_cached(seed)` stream, and the server's counters with the
//! clients' counts.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use corrfade::{clear_coloring_caches, coloring_cache_stats, ChannelStream, SampleBlock};
use corrfade_network::shard_seed;
use corrfade_scenarios::lookup;
use corrfade_serve::protocol::{
    decode_block_payload, decode_frame_payload, encode_block_frame, encode_request,
};
use corrfade_serve::{Client, Conn, Frame, Request, ServeAddr, Server, ServerConfig};

use crate::fig4a::RESUME_CURSOR;
use crate::layered::{set_counts, Counts, LayeredStream, PassCounts};
use crate::trace::{hash_samples, median, ms, quantile, span_cost_ns, Layer, Tracer};
use crate::{load_threads, Outcome, RunConfig};

type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// One cycle of sessions: (scenario, resume cursor). Steady blocks split
/// N=2 : N=3 : N=4 : N=16 as 2 : 4 : 1 : 1, so the p50 falls inside the
/// fig4a mode and the p90 inside the N = 16 mode rather than on a boundary.
const PLAN: [(&str, u64); 8] = [
    ("two-envelope-complex", 0),
    ("fig4a-spectral", 0),
    ("mimo-ula-halfwave", 0),
    ("fig4a-spectral", RESUME_CURSOR),
    ("two-envelope-complex", 0),
    ("scaling-exp-rho07", 0),
    ("fig4a-spectral", 0),
    ("fig4a-spectral", RESUME_CURSOR),
];
/// Blocks requested per session.
const BLOCKS: u32 = 8;
/// Streams per plan slot that the traced run rebuilds layer by layer.
const PROFILE_SEEDS: u64 = 2;
/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// Timed `skip_blocks` calls behind `resume.skip_ms`.
const SKIP_REPS: usize = 8;

/// The seed of session `k` on connection `conn`.
fn session_seed(seed: u64, conn: usize, k: u64) -> u64 {
    shard_seed(seed, 1 << 40 | (conn as u64) << 32 | k)
}

/// A fresh Unix socket path under `.perfbench/` in the working directory.
fn socket_addr(tag: &str) -> Result<ServeAddr, BoxError> {
    std::fs::create_dir_all(".perfbench")?;
    let path = PathBuf::from(format!(".perfbench/{}-{tag}.sock", std::process::id()));
    Ok(ServeAddr::Unix(path))
}

/// The traced run's per-slot generate and encode time per block, from
/// `PROFILE_SEEDS` streams per slot rebuilt layer by layer, each served
/// block also encoded as the server would.
struct Profile {
    gen_ms: [f64; PLAN.len()],
    enc_ms: [f64; PLAN.len()],
    flops: f64,
    drawn: u64,
}

fn layer_profile(seed: u64, t: &mut Tracer) -> Result<Profile, BoxError> {
    let mut profile = Profile {
        gen_ms: [0.0; PLAN.len()],
        enc_ms: [0.0; PLAN.len()],
        flops: 0.0,
        drawn: 0,
    };
    let mut block = SampleBlock::empty();
    let mut frame = Vec::new();
    let gen_layers = [
        Layer::Keystream,
        Layer::Polar,
        Layer::Spectrum,
        Layer::Fused,
    ];
    for (slot, &(name, cursor)) in PLAN.iter().enumerate() {
        let scenario = lookup(name)?;
        let (gen0, enc0) = (t.sum_ns(&gen_layers), t.ns(Layer::WireEncode));
        let mut generated = 0u64;
        for round in 0..PROFILE_SEEDS {
            let s = shard_seed(seed, 2 << 40 | (slot as u64) << 32 | round);
            let g = scenario.build_realtime_cached(s)?;
            let mut layered = LayeredStream::new(&g, s, scenario.doppler.sigma_orig_sq);
            for b in 0..cursor + u64::from(BLOCKS) {
                layered.next_block(&mut block, t);
                profile.flops += layered.fused_flops();
                generated += 1;
                if b >= cursor {
                    frame.clear();
                    t.span(Layer::WireEncode, || {
                        encode_block_frame(&mut frame, b as u32, &block)
                    });
                }
            }
            profile.drawn += layered.tape.drawn;
        }
        profile.gen_ms[slot] = (t.sum_ns(&gen_layers) - gen0) as f64 / generated as f64 / 1e6;
        profile.enc_ms[slot] = (t.ns(Layer::WireEncode) - enc0) as f64
            / (PROFILE_SEEDS * u64::from(BLOCKS)) as f64
            / 1e6;
    }
    Ok(profile)
}

/// What one session delivered: a sample hash per block received, `None`
/// for a block that already failed its in-loop checks.
struct Served {
    slot: usize,
    seed: u64,
    hashes: Vec<Option<u64>>,
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    out: Outcome,
    tracer: Tracer,
    block_ms: Vec<f64>,
    epoch_ms: Vec<f64>,
    first_ms: Vec<f64>,
    resume_ms: Vec<f64>,
    subscribe_ms: Vec<f64>,
    samples: u64,
    sessions: u64,
    resumes: u64,
    blocks: u64,
    /// Socket and decode span time of steady (not first) blocks.
    steady_socket_ns: u64,
    steady_decode_ns: u64,
    /// Bytes of the block frames read frame by frame.
    block_bytes: u64,
    /// Steady blocks received per plan slot.
    slot_blocks: [u64; PLAN.len()],
    served: Vec<Served>,
}

/// Reads one length-prefixed frame into `frame` and returns its length.
fn read_frame(conn: &mut Conn, frame: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut len = [0u8; 4];
    conn.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    frame.resize(len, 0);
    conn.read_exact(frame)?;
    Ok(len + 4)
}

/// A session driven frame by frame, with socket and decode spans.
struct RawSession {
    conn: Conn,
    frame: Vec<u8>,
    n: usize,
    m: usize,
}

impl RawSession {
    fn open(addr: &ServeAddr, request: &Request) -> Result<Self, BoxError> {
        let mut conn = Conn::connect(addr, Duration::from_secs(30))?;
        let mut frame = Vec::new();
        encode_request(request, &mut frame);
        conn.write_all(&frame)?;
        read_frame(&mut conn, &mut frame)?;
        match decode_frame_payload(&frame)? {
            Frame::Header {
                envelopes, samples, ..
            } => Ok(Self {
                conn,
                frame,
                n: envelopes as usize,
                m: samples as usize,
            }),
            other => Err(format!("expected a header frame, got {other:?}").into()),
        }
    }

    fn next_block(
        &mut self,
        block: &mut SampleBlock,
        log: &mut ClientLog,
    ) -> Result<u32, BoxError> {
        let (conn, frame) = (&mut self.conn, &mut self.frame);
        log.block_bytes += log.tracer.span(Layer::Socket, || read_frame(conn, frame))? as u64;
        let (n, m) = (self.n, self.m);
        let index = log
            .tracer
            .span(Layer::WireDecode, || -> Result<u32, BoxError> {
                let (index, bytes) = decode_block_payload(frame)?;
                block
                    .decode_le_from(n, m, bytes)
                    .map_err(|e| format!("{e:?}"))?;
                Ok(index)
            })?;
        Ok(index)
    }

    fn end(mut self) -> Result<(), BoxError> {
        read_frame(&mut self.conn, &mut self.frame)?;
        match decode_frame_payload(&self.frame)? {
            Frame::End { .. } => Ok(()),
            other => Err(format!("expected an end frame, got {other:?}").into()),
        }
    }
}

/// Either client path: the public `Client`, or frame-by-frame with spans.
enum Session {
    Client(Client),
    Raw(RawSession),
}

/// One session of plan slot `slot` with stream seed `seed`; returns an
/// error for any I/O, protocol or server error. The blocks are recorded in
/// `log.served` for `verify`.
fn session(
    addr: &ServeAddr,
    slot: usize,
    seed: u64,
    traced: bool,
    block: &mut SampleBlock,
    log: &mut ClientLog,
) -> Result<(), BoxError> {
    let (name, cursor) = PLAN[slot];
    let request = Request {
        scenario: name.to_string(),
        seed,
        blocks: BLOCKS,
        cursor,
    };
    log.served.push(Served {
        slot,
        seed,
        hashes: Vec::with_capacity(BLOCKS as usize),
    });
    let t0 = Instant::now();
    let mut s = if traced {
        Session::Raw(RawSession::open(addr, &request)?)
    } else {
        let mut c = Client::connect(addr)?;
        c.subscribe_at(name, request.seed, BLOCKS, cursor)?;
        Session::Client(c)
    };
    log.sessions += 1;
    if cursor > 0 {
        log.resumes += 1;
    } else {
        log.subscribe_ms.push(ms(t0.elapsed()));
    }
    let mut power = Vec::new();
    for b in 0..BLOCKS {
        log.out.attempted += 1;
        let spans0 = (
            log.tracer.ns(Layer::Socket),
            log.tracer.ns(Layer::WireDecode),
        );
        let tb = Instant::now();
        let index = match &mut s {
            Session::Client(c) => c.next_block_into(block)?.ok_or("stream ended early")?,
            Session::Raw(r) => r.next_block(block, log)?,
        };
        let t1 = Instant::now();
        let m = block.samples();
        power.clear();
        power.extend(
            block
                .envelope_slice()
                .chunks_exact(m)
                .map(|path| path.iter().map(|r| r * r).sum::<f64>()),
        );
        let t2 = Instant::now();
        log.blocks += 1;
        log.samples += block.len() as u64;
        if b == 0 {
            let first = ms(t1 - t0);
            if cursor > 0 {
                log.resume_ms.push(first);
            } else {
                log.first_ms.push(first);
            }
        } else {
            log.block_ms.push(ms(t1 - tb));
            log.epoch_ms.push(ms(t2 - tb));
            log.slot_blocks[slot] += 1;
            log.steady_socket_ns += log.tracer.ns(Layer::Socket) - spans0.0;
            log.steady_decode_ns += log.tracer.ns(Layer::WireDecode) - spans0.1;
        }
        let mut hash = None;
        if u64::from(index) != cursor + u64::from(b) {
            log.out.fail(format!(
                "{name}: block index {index}, expected {}",
                cursor + u64::from(b)
            ));
        } else if !power.iter().all(|p| p.is_finite()) {
            log.out
                .fail(format!("{name}: block {index} has a non-finite sample"));
        } else {
            hash = Some(hash_samples(block.as_slice()));
        }
        log.served
            .last_mut()
            .expect("pushed above")
            .hashes
            .push(hash);
    }
    match s {
        Session::Client(mut c) => {
            if c.next_block_into(block)?.is_some() {
                return Err("server sent more blocks than requested".into());
            }
        }
        Session::Raw(r) => r.end()?,
    }
    Ok(())
}

/// Fisher-Yates shuffle driven by SplitMix64 draws from `seed`.
fn shuffle(order: &mut [usize], seed: u64) {
    for i in (1..order.len()).rev() {
        let j = (shard_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
}

/// Closed loop of one connection until `deadline`.
fn client_loop(
    c: usize,
    addr: &ServeAddr,
    seed: u64,
    traced: bool,
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut block = SampleBlock::empty();
    let mut order: Vec<usize> = (0..PLAN.len()).collect();
    let mut k = 0u64;
    while Instant::now() < deadline {
        let round = k / PLAN.len() as u64;
        if k.is_multiple_of(PLAN.len() as u64) {
            // Each connection walks every cycle in its own seeded order, so
            // the two connections do not lock into one relative phase.
            shuffle(
                &mut order,
                shard_seed(seed, 3 << 40 | (c as u64) << 32 | round),
            );
        }
        let slot = order[(k % PLAN.len() as u64) as usize];
        let before = log.out.attempted;
        let s = session_seed(seed, c, k);
        if let Err(e) = session(addr, slot, s, traced, &mut block, &mut log) {
            // The block in flight (or the end frame) failed, and every block
            // the session did not reach counts as attempted and failed.
            let done = log.out.attempted - before;
            let missing = u64::from(BLOCKS) - done;
            log.out.attempted += missing;
            log.out.fail(format!("session {k} ({}): {e}", PLAN[slot].0));
            log.out.failed += missing.saturating_sub(u64::from(done == 0));
        }
        k += 1;
    }
    log
}

/// Waits for every server session to finish, then checks the server's
/// counters against the clients' counts.
fn check_stats(server: &Server, logs: &ClientLog, out: &mut Outcome) {
    let until = Instant::now() + Duration::from_secs(5);
    while server.stats().active > 0 && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = server.stats();
    let checks = [
        ("accepted", stats.accepted, logs.sessions),
        ("blocks_sent", stats.blocks_sent, logs.blocks),
        ("resumed_sessions", stats.resumed_sessions, logs.resumes),
        ("error_frames", stats.error_frames, 0),
        ("active", stats.active, 0),
    ];
    for (what, server_count, client_count) in checks {
        out.attempted += 1;
        if server_count != client_count {
            out.fail(format!(
                "server {what} = {server_count}, clients counted {client_count}"
            ));
        }
    }
}

/// Checks every block in `served` against the standalone
/// `build_realtime_cached(seed)` stream at its index (resumes at
/// `cursor..`), on `threads` threads.
fn verify(served: &[Served], threads: usize, out: &mut Outcome) -> Result<(), BoxError> {
    let results: Vec<Result<Outcome, BoxError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                scope.spawn(move || -> Result<Outcome, BoxError> {
                    let mut out = Outcome::default();
                    let mut block = SampleBlock::empty();
                    for sv in served.iter().skip(i).step_by(threads) {
                        let (name, cursor) = PLAN[sv.slot];
                        let mut g = lookup(name)?.build_realtime_cached(sv.seed)?;
                        for _ in 0..cursor {
                            g.next_block_into(&mut block)?;
                        }
                        for (b, got) in sv.hashes.iter().enumerate() {
                            g.next_block_into(&mut block)?;
                            if got.is_some_and(|h| h != hash_samples(block.as_slice())) {
                                out.fail(format!(
                                    "{name}: block {} differs from the standalone stream",
                                    cursor + b as u64
                                ));
                            }
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread panicked"))
            .collect()
    });
    for r in results {
        out.absorb(r?);
    }
    Ok(())
}

/// Runs the closed loop on a fresh server and merges the client logs.
fn serve_loop(
    seed: u64,
    traced: bool,
    conns: usize,
    seconds: Duration,
    tag: &str,
    out: &mut Outcome,
) -> Result<ClientLog, BoxError> {
    let server = Server::bind(socket_addr(tag)?, ServerConfig::default())?;
    let addr = server.local_addr().clone();
    let deadline = Instant::now() + seconds;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let addr = &addr;
                s.spawn(move || client_loop(c, addr, seed, traced, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = ClientLog::default();
    for log in logs {
        all.block_ms.extend(log.block_ms);
        all.epoch_ms.extend(log.epoch_ms);
        all.first_ms.extend(log.first_ms);
        all.resume_ms.extend(log.resume_ms);
        all.subscribe_ms.extend(log.subscribe_ms);
        all.samples += log.samples;
        all.sessions += log.sessions;
        all.resumes += log.resumes;
        all.blocks += log.blocks;
        all.block_bytes += log.block_bytes;
        all.steady_socket_ns += log.steady_socket_ns;
        all.steady_decode_ns += log.steady_decode_ns;
        for (a, b) in all.slot_blocks.iter_mut().zip(log.slot_blocks) {
            *a += b;
        }
        all.served.extend(log.served);
        all.tracer.merge(&log.tracer);
        out.absorb(log.out);
    }
    check_stats(&server, &all, out);
    server.shutdown()?;
    Ok(all)
}

pub fn run(config: &RunConfig) -> Result<Outcome, Box<dyn std::error::Error>> {
    let result = if config.trace {
        run_traced(config)
    } else {
        run_untraced(config)
    };
    let _ = std::fs::remove_dir(".perfbench");
    result.map_err(|e| e.to_string().into())
}

fn run_untraced(config: &RunConfig) -> Result<Outcome, BoxError> {
    let conns = load_threads();
    let mut out = Outcome {
        workers: conns,
        ..Outcome::default()
    };

    // Set-up: bind + connect + subscribe until the header, cold cache.
    let scenario = "fig4a-spectral";
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for k in 0..SETUP_REPS {
        clear_coloring_caches();
        let t0 = Instant::now();
        let server = Server::bind(socket_addr(&format!("setup{k}"))?, ServerConfig::default())?;
        let mut client = Client::connect(server.local_addr())?;
        client.subscribe(scenario, shard_seed(config.seed, 0), 1)?;
        setups.push(t0.elapsed().as_secs_f64());
        let blocks = client.collect_blocks()?;
        out.attempted += 1;
        if blocks.len() != 1 {
            out.fail(format!("set-up session returned {} blocks", blocks.len()));
        }
        drop(client);
        server.shutdown()?;
    }

    let start = Instant::now();
    let log = serve_loop(config.seed, false, conns, config.seconds, "loop", &mut out)?;
    let wall = start.elapsed().as_secs_f64();
    verify(&log.served, conns, &mut out)?;

    out.set("setup_s", median(&setups));
    out.set("samples_per_s", log.samples as f64 / wall);
    out.set("block_p50_ms", quantile(&log.block_ms, 0.5));
    out.set("block_p90_ms", quantile(&log.block_ms, 0.9));
    out.set("epoch_p50_ms", quantile(&log.epoch_ms, 0.5));
    out.set("epoch_p90_ms", quantile(&log.epoch_ms, 0.9));
    out.set("first_block_p50_ms", quantile(&log.first_ms, 0.5));
    out.set("first_block_p90_ms", quantile(&log.first_ms, 0.9));
    out.set("resume_first_block_p50_ms", quantile(&log.resume_ms, 0.5));
    out.set("resume_first_block_p90_ms", quantile(&log.resume_ms, 0.9));
    eprintln!(
        "serve_unix: {} sessions ({} resumed), {} blocks on {conns} connections in {wall:.2} s",
        log.sessions, log.resumes, log.blocks
    );
    Ok(out)
}

/// Exact counts of one plan cycle on a fresh server over one connection:
/// the layered draw counts of the served streams, the cache hits and misses
/// of the server's builds, the server's counters and the frame bytes.
struct ServeCounts {
    counts: PassCounts,
    server: [u64; 3],
    block_bytes: u64,
    blocks: u64,
    flops: f64,
    bytes: f64,
}

fn count_pass(seed: u64, pass: usize) -> Result<ServeCounts, BoxError> {
    clear_coloring_caches();
    let before = coloring_cache_stats();
    let server = Server::bind(
        socket_addr(&format!("count{pass}"))?,
        ServerConfig::default(),
    )?;
    let addr = server.local_addr().clone();
    let mut log = ClientLog::default();
    let mut block = SampleBlock::empty();
    for slot in 0..PLAN.len() {
        let s = session_seed(seed, 0, slot as u64);
        session(&addr, slot, s, true, &mut block, &mut log)?;
    }
    let mut out = Outcome::default();
    check_stats(&server, &log, &mut out);
    let stats = server.stats();
    server.shutdown()?;
    let after = coloring_cache_stats();
    verify(&log.served, 1, &mut out)?;
    if out.failed + log.out.failed > 0 {
        return Err("count pass failed its checks".into());
    }

    let mut counts = Counts::default();
    let (mut flops, mut bytes) = (0.0, 0.0);
    let mut t = Tracer::default();
    for (slot, &(name, cursor)) in PLAN.iter().enumerate() {
        let scenario = lookup(name)?;
        let s = session_seed(seed, 0, slot as u64);
        let g = scenario.build_realtime_cached(s)?;
        let mut layered = LayeredStream::new(&g, s, scenario.doppler.sigma_orig_sq);
        layered.skip(cursor, &mut t);
        for _ in 0..BLOCKS {
            layered.next_block(&mut block, &mut t);
            flops += layered.fused_flops();
            bytes += layered.fused_bytes();
        }
        let c = layered.counts();
        counts.words += c.words;
        counts.accepted += c.accepted;
        counts.useful_bins += c.useful_bins;
    }
    Ok(ServeCounts {
        counts: (
            counts,
            after.hits - before.hits,
            after.misses - before.misses,
        ),
        server: [
            stats.blocks_sent,
            stats.resumed_sessions,
            stats.error_frames,
        ],
        block_bytes: log.block_bytes,
        blocks: log.blocks,
        flops,
        bytes,
    })
}

fn run_traced(config: &RunConfig) -> Result<Outcome, BoxError> {
    let conns = load_threads();
    let mut out = Outcome {
        workers: conns,
        ..Outcome::default()
    };
    let mut t = Tracer::default();
    let profile = layer_profile(config.seed, &mut t)?;
    let log = serve_loop(config.seed, true, conns, config.seconds, "loop", &mut out)?;
    verify(&log.served, conns, &mut out)?;

    // The library's resume fast-forward, timed on fresh fig4a streams.
    let fig4a = lookup("fig4a-spectral")?;
    for k in 0..SKIP_REPS {
        let mut g = fig4a.build_realtime_cached(shard_seed(config.seed, 4 << 40 | k as u64))?;
        t.span(Layer::ResumeSkip, || g.skip_blocks(RESUME_CURSOR));
    }

    let served = log.block_ms.iter().sum::<f64>() / log.block_ms.len() as f64;
    let steady: u64 = log.slot_blocks.iter().sum();
    let weighted = |per_slot: &[f64; PLAN.len()]| {
        per_slot
            .iter()
            .zip(&log.slot_blocks)
            .map(|(ms, &n)| ms * n as f64)
            .sum::<f64>()
            / steady as f64
    };
    let decode = log.steady_decode_ns as f64 / steady as f64 / 1e6;
    let socket = log.steady_socket_ns as f64 / steady as f64 / 1e6;
    let generated = t.calls(Layer::Fused) as f64;
    let per_generated = |layer| t.ns(layer) as f64 / generated / 1e6;
    out.set("trace.op_ms", served);
    out.set("other.self_ms", served - socket - decode);
    // Two spans per served block, at the calibrated cost of an empty span.
    out.set("trace.overhead_frac", span_cost_ns() * 2.0 / (served * 1e6));
    out.set("keystream.self_ms", per_generated(Layer::Keystream));
    out.set(
        "keystream.ns_per_u64",
        t.ns(Layer::Keystream) as f64 / profile.drawn as f64,
    );
    out.set("polar.self_ms", per_generated(Layer::Polar));
    out.set("spectrum.self_ms", per_generated(Layer::Spectrum));
    out.set("fused.self_ms", per_generated(Layer::Fused));
    out.set("fused.gflop_s", profile.flops / t.ns(Layer::Fused) as f64);
    out.set(
        "wire_encode.self_ms",
        t.ns(Layer::WireEncode) as f64 / t.calls(Layer::WireEncode) as f64 / 1e6,
    );
    out.set("wire_decode.self_ms", decode);
    out.set(
        "session.subscribe_ms",
        log.subscribe_ms.iter().sum::<f64>() / log.subscribe_ms.len() as f64,
    );
    out.set(
        "resume.skip_ms",
        t.ns(Layer::ResumeSkip) as f64 / SKIP_REPS as f64 / 1e6,
    );
    out.set(
        "socket.remainder_ms",
        served - weighted(&profile.gen_ms) - weighted(&profile.enc_ms) - decode,
    );

    let a = count_pass(config.seed, 0)?;
    let b = count_pass(config.seed, 1)?;
    out.attempted += 1;
    if a.server != b.server || a.block_bytes != b.block_bytes || a.blocks != b.blocks {
        out.fail(format!(
            "server counts differ between passes: {:?}/{} vs {:?}/{}",
            a.server, a.block_bytes, b.server, b.block_bytes
        ));
    }
    let blocks = a.blocks as f64;
    out.set("fused.flop_per_op", a.flops / blocks);
    out.set("fused.bytes_per_op", a.bytes / blocks);
    out.set("wire.bytes_per_block", a.block_bytes as f64 / blocks);
    out.set("server.blocks_sent", a.server[0] as f64);
    out.set("server.resumed_sessions", a.server[1] as f64);
    out.set("server.error_frames", a.server[2] as f64);
    set_counts(&mut out, a.counts, b.counts, blocks);
    eprintln!(
        "serve_unix (traced): {} sessions, {} blocks on {conns} connections",
        log.sessions, log.blocks
    );
    Ok(out)
}
