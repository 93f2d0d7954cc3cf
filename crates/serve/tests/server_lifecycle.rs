//! Server lifecycle tests: concurrent independent clients, mid-stream
//! disconnects, protocol-error frames, and graceful shutdown.
//!
//! These exercise the thread-per-connection server end to end over real
//! sockets (TCP on a loopback ephemeral port; the Unix transport is
//! covered by the workspace `wire_equivalence` suite and the CI smoke
//! job).

use std::io::{Read, Write};
use std::mem::ManuallyDrop;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use corrfade::{ChannelStream, SampleBlock};
use corrfade_scenarios::lookup;
use corrfade_serve::protocol::{
    code, decode_frame_payload, encode_request, encode_request_with_flags, split_frame, Frame,
    Request, FLAG_F32_STREAM, MAGIC,
};
use corrfade_serve::{Client, Conn, ServeAddr, ServeError, Server, ServerConfig};

fn tcp_server_with(config: ServerConfig) -> Server {
    Server::bind(ServeAddr::Tcp("127.0.0.1:0".parse().unwrap()), config)
        .expect("binding an ephemeral loopback port")
}

fn tcp_server() -> Server {
    Server::bind(
        ServeAddr::Tcp("127.0.0.1:0".parse().unwrap()),
        ServerConfig::default(),
    )
    .expect("binding an ephemeral loopback port")
}

/// Bit pattern of a block, for exact comparisons.
fn bits(block: &SampleBlock) -> Vec<u64> {
    block
        .as_slice()
        .iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

/// Streams `blocks` blocks of `scenario` standalone, as bit patterns.
fn standalone(scenario: &str, seed: u64, blocks: u32) -> Vec<Vec<u64>> {
    let mut stream = lookup(scenario).unwrap().build_realtime(seed).unwrap();
    let mut block = SampleBlock::empty();
    (0..blocks)
        .map(|_| {
            stream.next_block_into(&mut block).unwrap();
            bits(&block)
        })
        .collect()
}

/// Polls `f` until it returns true or the deadline expires.
fn wait_until(what: &str, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn concurrent_clients_get_independent_deterministic_streams() {
    let server = tcp_server();
    let addr = server.local_addr().clone();

    // Two clients per (scenario, seed) pair: same pair → identical bytes;
    // the pairs differ from each other. All six run concurrently.
    let jobs: Vec<(&str, u64)> = vec![
        ("two-envelope-complex", 11),
        ("two-envelope-complex", 11),
        ("two-envelope-complex", 12),
        ("fig4a-spectral", 11),
        ("fig4a-spectral", 77),
        ("fig4b-spatial", 11),
    ];
    let handles: Vec<_> = jobs
        .iter()
        .map(|&(scenario, seed)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client.subscribe(scenario, seed, 3).unwrap();
                let streamed: Vec<Vec<u64>> =
                    client.collect_blocks().unwrap().iter().map(bits).collect();
                (scenario, seed, streamed)
            })
        })
        .collect();
    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();

    for (scenario, seed, streamed) in &results {
        assert_eq!(
            *streamed,
            standalone(scenario, *seed, 3),
            "stream ({scenario}, seed {seed}) is not bit-identical to standalone"
        );
    }
    // Duplicated pair agrees; distinct seeds diverge.
    assert_eq!(results[0].2, results[1].2);
    assert_ne!(results[1].2, results[2].2);

    // Every connection was closed.
    wait_until("all connections closed", || server.stats().active == 0);
    let stats = server.stats();
    assert_eq!(stats.accepted, 6);
    assert_eq!(stats.blocks_sent, 18);
    assert_eq!(stats.error_frames, 0);
    assert_eq!(stats.resumed_sessions, 0, "no v2 resumes happened");
    assert_eq!(
        stats.errors_by_code.iter().sum::<u64>(),
        0,
        "no per-code errors on the happy path"
    );
    server.shutdown().unwrap();
}

#[test]
fn mid_stream_disconnect_leaves_the_server_serving() {
    let server = tcp_server();
    let addr = server.local_addr().clone();

    // A client asks for a long stream, reads one block, and vanishes.
    {
        let mut client = Client::connect(&addr).unwrap();
        client.subscribe("two-envelope-complex", 5, 10_000).unwrap();
        let mut block = SampleBlock::empty();
        assert_eq!(client.next_block_into(&mut block).unwrap(), Some(0));
        // Dropped here: the connection closes with the server mid-stream.
    }

    // The server notices the broken pipe and closes the connection.
    wait_until("disconnect cleanup", || server.stats().active == 0);

    // The server still serves new clients, bit-identically — including the
    // exact (scenario, seed) the dropped client was using.
    let mut client = Client::connect(&addr).unwrap();
    client.subscribe("two-envelope-complex", 5, 2).unwrap();
    let streamed: Vec<Vec<u64>> = client.collect_blocks().unwrap().iter().map(bits).collect();
    assert_eq!(streamed, standalone("two-envelope-complex", 5, 2));
    server.shutdown().unwrap();
}

#[test]
fn protocol_errors_arrive_as_typed_frames() {
    let server = tcp_server();
    let addr = server.local_addr().clone();

    // Unknown scenario: typed code plus a did-you-mean suggestion.
    let mut client = Client::connect(&addr).unwrap();
    let err = client.subscribe("fig4a-spektral", 1, 1).unwrap_err();
    let ServeError::Server { code: c, message } = err else {
        panic!("expected a server error frame, got {err}");
    };
    assert_eq!(c, code::UNKNOWN_SCENARIO);
    assert!(
        message.contains("did you mean `fig4a-spectral`"),
        "suggestion missing from: {message}"
    );

    // Version mismatch, sent as raw bytes to control the header exactly.
    let mut request = Vec::new();
    encode_request(
        &Request {
            scenario: "two-envelope-complex".into(),
            seed: 1,
            blocks: 1,
            cursor: 0,
        },
        &mut request,
    );
    request[4] = 0xFE; // version := 0xFFFE
    request[5] = 0xFF;
    let mut raw = Conn::connect(&addr, Duration::from_secs(10)).unwrap();
    raw.write_all(&request).unwrap();
    let mut response = Vec::new();
    raw.read_to_end(&mut response).unwrap();
    let (payload, _) = split_frame(&response).unwrap();
    let Frame::Error { code: c, .. } = decode_frame_payload(payload).unwrap() else {
        panic!("expected an error frame");
    };
    assert_eq!(c, code::UNSUPPORTED_VERSION);

    // Bad magic.
    let mut bad_magic = request.clone();
    bad_magic[..4].copy_from_slice(b"XXXX");
    assert_ne!(&bad_magic[..4], &MAGIC);
    let mut raw = Conn::connect(&addr, Duration::from_secs(10)).unwrap();
    raw.write_all(&bad_magic).unwrap();
    let mut response = Vec::new();
    raw.read_to_end(&mut response).unwrap();
    let (payload, _) = split_frame(&response).unwrap();
    let Frame::Error { code: c, .. } = decode_frame_payload(payload).unwrap() else {
        panic!("expected an error frame");
    };
    assert_eq!(c, code::BAD_MAGIC);

    // Each rejected request was counted — totals and exact per-code
    // breakdown — and none left its connection open.
    wait_until("error-frame counters", || server.stats().error_frames == 3);
    let stats = server.stats();
    assert_eq!(stats.error_count(code::UNKNOWN_SCENARIO), 1);
    assert_eq!(stats.error_count(code::UNSUPPORTED_VERSION), 1);
    assert_eq!(stats.error_count(code::BAD_MAGIC), 1);
    assert_eq!(
        stats.errors_by_code.iter().sum::<u64>(),
        3,
        "no error was counted under any other code: {:?}",
        stats.errors_by_code
    );
    assert_eq!(stats.error_count(code::BUSY), 0);
    wait_until("rejected connections closed", || server.stats().active == 0);
    server.shutdown().unwrap();
}

#[test]
fn f32_stream_requests_get_a_typed_precision_error_frame() {
    // Wire v1 streams f64 blocks only; the f32 fast tier's header flag is
    // reserved for v2. A flagged request must not be misread as an oversized
    // name or silently served widened — it earns its own typed error frame
    // and leaves no connection behind.
    let server = tcp_server();
    let addr = server.local_addr().clone();

    let mut request = Vec::new();
    encode_request_with_flags(
        &Request {
            scenario: "two-envelope-complex".into(),
            seed: 1,
            blocks: 1,
            cursor: 0,
        },
        FLAG_F32_STREAM,
        &mut request,
    );
    let mut raw = Conn::connect(&addr, Duration::from_secs(10)).unwrap();
    raw.write_all(&request).unwrap();
    let mut response = Vec::new();
    raw.read_to_end(&mut response).unwrap();
    let (payload, _) = split_frame(&response).unwrap();
    let Frame::Error { code: c, message } = decode_frame_payload(payload).unwrap() else {
        panic!("expected an error frame");
    };
    assert_eq!(c, code::PRECISION_UNSUPPORTED);
    assert!(
        message.contains("f64"),
        "the error should say what the server can stream: {message}"
    );

    wait_until("error-frame counter", || server.stats().error_frames == 1);
    assert_eq!(server.stats().error_count(code::PRECISION_UNSUPPORTED), 1);
    wait_until("rejected connection closed", || server.stats().active == 0);
    server.shutdown().unwrap();
}

#[test]
fn resumed_sessions_are_bit_identical_and_counted() {
    let server = tcp_server();
    let addr = server.local_addr().clone();
    let full = standalone("two-envelope-complex", 21, 7);

    // A v2 resume at cursor 3 delivers exactly blocks 3..7 of the
    // uninterrupted stream, with absolute wire indices.
    let mut client = Client::connect(&addr).unwrap();
    let header = client
        .subscribe_at("two-envelope-complex", 21, 4, 3)
        .unwrap();
    assert_eq!(header.blocks, 4);
    let mut block = SampleBlock::empty();
    for expect in 3..7u32 {
        assert_eq!(client.next_block_into(&mut block).unwrap(), Some(expect));
        assert_eq!(
            bits(&block),
            full[expect as usize],
            "resumed block {expect} is not bit-identical to the uninterrupted stream"
        );
    }
    assert_eq!(client.next_block_into(&mut block).unwrap(), None);

    // A cursor-0 subscribe stays a v1 request and does not count.
    let mut fresh = Client::connect(&addr).unwrap();
    fresh.subscribe("two-envelope-complex", 21, 1).unwrap();
    fresh.collect_blocks().unwrap();

    wait_until("connections closed", || server.stats().active == 0);
    let stats = server.stats();
    assert_eq!(stats.resumed_sessions, 1);
    assert_eq!(stats.blocks_sent, 5);
    assert_eq!(stats.error_frames, 0);
    server.shutdown().unwrap();
}

#[test]
fn admission_control_answers_busy_and_counts_it() {
    let server = tcp_server_with(ServerConfig {
        max_sessions: Some(1),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().clone();

    // First session occupies the only slot mid-stream.
    let mut holder = Client::connect(&addr).unwrap();
    holder.subscribe("two-envelope-complex", 1, 1000).unwrap();
    let mut block = SampleBlock::empty();
    holder.next_block_into(&mut block).unwrap();
    wait_until("holder session active", || server.stats().active == 1);

    // Second session is refused with the typed BUSY frame.
    let mut second = Client::connect(&addr).unwrap();
    let err = second.subscribe("two-envelope-complex", 2, 1).unwrap_err();
    let ServeError::Server { code: c, message } = err else {
        panic!("expected a BUSY server frame, got {err}");
    };
    assert_eq!(c, code::BUSY);
    assert!(
        message.contains("capacity"),
        "BUSY message should say why: {message}"
    );
    assert!(corrfade_serve::is_resumable(&ServeError::Server {
        code: c,
        message,
    }));

    // The refusal is counted under its own code, and once the refused
    // connection closes only the holder is left.
    wait_until("busy counter", || {
        server.stats().error_count(code::BUSY) == 1
    });
    wait_until("busy connection closed", || server.stats().active == 1);

    // Once the slot frees up, the same client address is admitted again.
    drop(holder);
    wait_until("slot released", || server.stats().active == 0);
    let mut third = Client::connect(&addr).unwrap();
    third.subscribe("two-envelope-complex", 3, 1).unwrap();
    assert_eq!(third.collect_blocks().unwrap().len(), 1);
    server.shutdown().unwrap();
}

#[test]
fn idle_connections_are_dropped_at_the_read_deadline() {
    let server = tcp_server_with(ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().clone();

    // Connect and send nothing: the server must drop us at the idle
    // deadline (no error frame — there is no request to answer) instead of
    // holding the connection open.
    let mut idler = Conn::connect(&addr, Duration::from_secs(10)).unwrap();
    let mut buf = [0u8; 16];
    let started = Instant::now();
    let n = idler.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "idle connection should close without any frame");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the idle deadline should fire well before the client timeout"
    );

    wait_until("idle connection reaped", || server.stats().active == 0);
    let stats = server.stats();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.error_frames, 0);
    server.shutdown().unwrap();
}

#[test]
fn shutdown_joins_all_connection_threads_and_stops_streams() {
    let server = tcp_server();
    let addr = server.local_addr().clone();

    // Three clients in the middle of very long streams; each signals once
    // its first block arrived, so all three streams exist before shutdown.
    let (streaming_tx, streaming_rx) = mpsc::channel();
    let clients: Vec<_> = (0..3)
        .map(|i| {
            let addr = addr.clone();
            let streaming_tx = streaming_tx.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client
                    .subscribe("two-envelope-complex", 100 + i, u32::MAX)
                    .unwrap();
                let mut block = SampleBlock::empty();
                let mut received = 0u64;
                loop {
                    match client.next_block_into(&mut block) {
                        Ok(Some(_)) => {
                            if received == 0 {
                                streaming_tx.send(()).unwrap();
                            }
                            received += 1;
                        }
                        // The stream must terminate (shutdown frame, reset,
                        // or close) — never hang and never end cleanly,
                        // since u32::MAX blocks were requested.
                        Ok(None) => panic!("stream ended cleanly during shutdown"),
                        Err(e) => {
                            if let ServeError::Server { code: c, .. } = &e {
                                assert_eq!(*c, code::SERVER_SHUTDOWN);
                            }
                            return received;
                        }
                    }
                }
            })
        })
        .collect();
    for _ in 0..3 {
        streaming_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("timed out waiting for all three streams");
    }

    // shutdown() blocks until the accept thread and every connection
    // thread have been joined — when it returns, nothing is left running.
    server.shutdown().unwrap();

    for handle in clients {
        handle.join().expect("client thread panicked");
    }

    // The listener is gone: new connections are refused.
    assert!(Conn::connect(&addr, Duration::from_millis(500)).is_err());
}

#[test]
fn a_huge_resume_cursor_neither_stalls_other_sessions_nor_pins_shutdown() {
    // Held in `ManuallyDrop` until the shutdown step: a failed assertion
    // would otherwise run `Server::drop`, which joins the replaying thread,
    // and the test would hang instead of failing.
    let server = ManuallyDrop::new(tcp_server());
    let addr = server.local_addr().clone();
    let watchdog = Duration::from_secs(30);

    // Connection A resumes at the last cursor the wire admits: its RNG
    // replay would run for days.
    let (resume_tx, resume_rx) = mpsc::channel();
    {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            let cursor = u64::from(u32::MAX - 1);
            let result = client.subscribe_at("two-envelope-complex", 9, 1, cursor);
            resume_tx.send(result.map(|_| ())).unwrap();
        });
    }
    wait_until("resuming connection accepted", || {
        server.stats().active == 1
    });
    // Give the server time to read A's request and enter the replay.
    std::thread::sleep(Duration::from_millis(200));

    // Connection B streams to completion while A replays.
    let (stream_tx, stream_rx) = mpsc::channel();
    {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            client.subscribe("two-envelope-complex", 10, 2).unwrap();
            let streamed: Vec<Vec<u64>> =
                client.collect_blocks().unwrap().iter().map(bits).collect();
            stream_tx.send(streamed).unwrap();
        });
    }
    let streamed = stream_rx
        .recv_timeout(watchdog)
        .expect("second session stalled behind the resume replay");
    assert_eq!(streamed, standalone("two-envelope-complex", 10, 2));

    // Shutdown interrupts the replay at its next block boundary.
    let (shutdown_tx, shutdown_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = ManuallyDrop::into_inner(server).shutdown();
        shutdown_tx.send(result.is_ok()).unwrap();
    });
    assert!(
        shutdown_rx.recv_timeout(watchdog).expect("shutdown hung"),
        "shutdown failed"
    );
    let err = resume_rx
        .recv_timeout(watchdog)
        .expect("resuming client never got an answer")
        .expect_err("a days-long replay cannot have finished");
    let ServeError::Server { code: c, .. } = err else {
        panic!("expected a SERVER_SHUTDOWN frame, got {err}");
    };
    assert_eq!(c, code::SERVER_SHUTDOWN);
}
