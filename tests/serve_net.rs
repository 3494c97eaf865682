//! Loopback integration tests for the TCP serving path (DESIGN.md §15,
//! `veal::serve::net` + `veal::serve::wire`).
//!
//! The wire layer must be *invisible* the same way the concurrency is:
//! responses served over a socket are bit-identical to the in-process
//! service, malformed frames cost at most their own frame or connection
//! (never the server, never a bystander connection), and idle connections
//! are evicted without disturbing live ones.

use std::collections::BTreeMap;
use std::io::{self, Read as _, Write as _};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use veal::serve::wire::{
    decode_frame, encode_frame, ErrorCode, FrameStatus, WireFrame, MAX_FRAME_LEN, WIRE_VERSION,
};
use veal::serve::{
    generate, LoadSpec, NetConfig, NetReport, Request, ServeConfig, TranslationService, WireFuzzer,
};
use veal::vm::{BinaryModule, EncodedLoop};
use veal::{encode_module, NetServer, WireClient};

fn spec(seed: u64, requests: usize, tenants: usize) -> LoadSpec {
    LoadSpec {
        seed,
        requests,
        tenants,
        ..LoadSpec::default()
    }
}

/// Binds a loopback server on an ephemeral port and runs it on its own
/// thread; returns the address and the report-bearing join handle.
fn spawn_server(cfg: ServeConfig, net: NetConfig) -> (String, thread::JoinHandle<NetReport>) {
    let service = TranslationService::new(cfg);
    let server = NetServer::bind(service, net).expect("bind loopback");
    let addr = server.local_addr().expect("bound address").to_string();
    (addr, thread::spawn(move || server.run()))
}

/// The tentpole's acceptance bar: every response that crosses the socket
/// is bit-identical to what the in-process service hands back for the
/// same stream — same cycles charged, same encoded schedule bytes, same
/// per-tenant session statistics.
#[test]
fn network_responses_are_bit_identical_to_in_process_serving() {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let stream = generate(&spec(0x9E7, 60, 3), &cfg.config, cfg.cca.as_ref());

    // In-process reference: a fresh service over the same stream.
    let reference = TranslationService::new(cfg.clone()).run(&stream);
    assert_eq!(reference.stats.shed, 0, "queues must be deep enough here");

    let (addr, handle) = spawn_server(cfg.clone(), NetConfig::default());

    // One connection per tenant, driven lock-step in stream order — the
    // same admission order the in-process run used.
    let mut clients: Vec<Option<WireClient>> = (0..3).map(|_| None).collect();
    let mut net_outcomes: Vec<Vec<veal::ClientOutcome>> = vec![Vec::new(), Vec::new(), Vec::new()];
    for req in &stream {
        let slot = &mut clients[req.tenant];
        let c = slot.get_or_insert_with(|| {
            WireClient::connect(
                &addr,
                u32::try_from(req.tenant).expect("small tenant index"),
                None,
                cfg.config.clone(),
            )
            .expect("connect")
        });
        let outcome = c.request(req.key, &req.body, &req.hints).expect("request");
        assert!(outcome.error.is_none(), "no refusals in a calm stream");
        net_outcomes[req.tenant].push(outcome);
    }
    clients
        .into_iter()
        .flatten()
        .next()
        .expect("at least one connection")
        .shutdown()
        .expect("graceful shutdown");
    let report = handle.join().expect("server thread");

    for (tenant, got) in net_outcomes.iter().enumerate() {
        let want = &reference.tenants[tenant].outcomes;
        assert_eq!(got.len(), want.len(), "tenant {tenant} answer count");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(
                g.translation_cycles, w.translation_cycles,
                "tenant {tenant} cycles diverged over the wire"
            );
            let want_bytes = w
                .translated
                .as_deref()
                .map(|t| veal::encode_translated_loop(t).expect("schedule encodes"));
            assert_eq!(
                g.translated_bytes, want_bytes,
                "tenant {tenant} schedule bytes diverged over the wire"
            );
        }
        // The sessions behind the socket are the same sessions: their
        // cumulative statistics must match the in-process run bit for bit.
        assert_eq!(
            report.tenants[tenant].stats, reference.tenants[tenant].stats,
            "tenant {tenant} VmStats diverged over the wire"
        );
    }
    assert_eq!(report.stats.completed, 60);
    assert_eq!(report.stats.shed, 0);
    assert_eq!(report.frames, 60 + 3 + 1, "requests + hellos + shutdown");
}

/// Repeating a loop over one connection takes the body-less hash fast
/// path; the answers must not change.
#[test]
fn the_hash_fast_path_answers_match_full_module_requests() {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let stream = generate(&spec(0xFA57, 20, 1), &cfg.config, cfg.cca.as_ref());
    let (addr, handle) = spawn_server(cfg.clone(), NetConfig::default());

    let mut c = WireClient::connect(&addr, 0, None, cfg.config.clone()).expect("connect");
    let mut first_pass = Vec::new();
    for req in &stream {
        let o = c.request(req.key, &req.body, &req.hints).expect("request");
        assert!(o.error.is_none());
        first_pass.push(o.translated_bytes);
    }
    // Second pass over the same loops: every request reuses a registered
    // body, and every answer is byte-identical to the first pass.
    for (req, first) in stream.iter().zip(&first_pass) {
        let o = c.request(req.key, &req.body, &req.hints).expect("request");
        assert!(o.error.is_none());
        assert_eq!(&o.translated_bytes, first, "fast-path answer changed");
    }
    c.shutdown().expect("graceful shutdown");
    let report = handle.join().expect("server thread");
    assert_eq!(report.stats.completed, 40);
}

/// Frame-level damage costs the frame; stream-level damage costs the
/// connection; neither costs the server or a bystander connection.
#[test]
fn malformed_frames_degrade_the_frame_or_connection_never_the_server() {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let stream = generate(&spec(0xBAD, 12, 1), &cfg.config, cfg.cca.as_ref());
    let (addr, handle) = spawn_server(cfg.clone(), NetConfig::default());

    // A well-behaved bystander connection, kept open throughout.
    let mut good = WireClient::connect(&addr, 0, None, cfg.config.clone()).expect("connect");
    let first = &stream[0];
    let o = good
        .request(first.key, &first.body, &first.hints)
        .expect("request");
    assert!(o.error.is_none());

    // Attacker 1: a checksum-damaged frame, then a valid request on the
    // same connection — the frame is rejected, the connection survives.
    {
        let mut c = WireClient::connect(&addr, 1, None, cfg.config.clone()).expect("connect");
        let mut bad = encode_frame(&WireFrame::ReqHash {
            seq: 99,
            key: 1,
            loop_hash: 2,
            hints_fp: 3,
        });
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        c.raw_stream().write_all(&bad).expect("send damaged frame");
        let o = c
            .request(first.key, &first.body, &first.hints)
            .expect("the connection survives the damaged frame");
        assert!(o.error.is_none(), "valid follow-up must be served");
    }

    // Attacker 2: a syntactically valid frame whose module payload is
    // garbage — the decode gauntlet refuses it with a typed error.
    {
        let mut c = WireClient::connect(&addr, 1, None, cfg.config.clone()).expect("connect");
        c.raw_stream()
            .write_all(&encode_frame(&WireFrame::ReqModule {
                seq: 77,
                key: 7,
                module: vec![0xDE, 0xAD, 0xBE, 0xEF],
            }))
            .expect("send garbage module");
        let o = c.request(first.key, &first.body, &first.hints).expect("ok");
        assert!(o.error.is_none(), "connection must outlive the refusal");
    }

    // Attacker 3: an oversized length claim — unresynchronizable, so the
    // server closes that connection (and only that connection).
    {
        let mut s = TcpStream::connect(&addr).expect("raw connect");
        let mut frame = vec![2u8]; // ReqModule tag
        frame.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        frame.extend_from_slice(&[0u8; 8]); // checksum field
        s.write_all(&frame).expect("send oversized claim");
        // The server hangs up; give the reactor a moment to do it.
        thread::sleep(Duration::from_millis(100));
    }

    // Attacker 4: a truncated frame followed by a hangup — torn stream,
    // no response owed, nothing to clean up but the connection.
    {
        let mut s = TcpStream::connect(&addr).expect("raw connect");
        let whole = encode_frame(&WireFrame::Hello {
            version: WIRE_VERSION,
            tenant: 1,
            family_fp: None,
        });
        s.write_all(&whole[..whole.len() / 2]).expect("send half");
        drop(s);
        thread::sleep(Duration::from_millis(100));
    }

    // The bystander is untouched: it serves the rest of its stream.
    for req in &stream[1..] {
        let o = good.request(req.key, &req.body, &req.hints).expect("ok");
        assert!(o.error.is_none(), "bystander must be unaffected");
    }
    good.shutdown().expect("graceful shutdown");
    let report = handle.join().expect("server thread");
    assert!(
        report.decode_rejects >= 2,
        "the damaged frame and the garbage module are counted rejects"
    );
    assert!(
        report.fatal_closes >= 1,
        "the oversized claim closes its connection"
    );
    assert_eq!(
        report.stats.completed,
        12 + 2,
        "stream + two attacker requests"
    );
}

/// A request before the hello and a hello from the future both earn typed
/// refusals, not silence.
#[test]
fn protocol_misuse_earns_typed_errors() {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let stream = generate(&spec(0x5E0, 1, 1), &cfg.config, cfg.cca.as_ref());
    let (addr, handle) = spawn_server(cfg.clone(), NetConfig::default());

    // Request without a hello: BadHello, per-request.
    {
        let mut c = WireClient::connect_raw(&addr, cfg.config.clone()).expect("connect");
        let req = &stream[0];
        let o = c.request(req.key, &req.body, &req.hints).expect("answered");
        assert_eq!(
            o.error.as_ref().map(|(code, _)| *code),
            Some(ErrorCode::BadHello)
        );
    }

    // Hello from a future wire version: BadHello, connection-level.
    {
        let mut s = TcpStream::connect(&addr).expect("raw connect");
        s.write_all(&encode_frame(&WireFrame::Hello {
            version: WIRE_VERSION + 1,
            tenant: 0,
            family_fp: None,
        }))
        .expect("send future hello");
        thread::sleep(Duration::from_millis(100));
    }

    let c = WireClient::connect(&addr, 0, None, cfg.config.clone()).expect("connect");
    c.shutdown().expect("graceful shutdown");
    let report = handle.join().expect("server thread");
    assert!(report.responses >= 2, "both misuses were answered");
}

/// Connections past the idle deadline are evicted; live ones are not.
#[test]
fn idle_connections_are_evicted_at_the_deadline() {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let net = NetConfig {
        idle_timeout: Duration::from_millis(150),
        ..NetConfig::default()
    };
    let stream = generate(&spec(0x1D1E, 30, 1), &cfg.config, cfg.cca.as_ref());
    let (addr, handle) = spawn_server(cfg.clone(), net);

    // The idler says hello and then goes quiet past the deadline.
    let idler = WireClient::connect(&addr, 1, None, cfg.config.clone()).expect("connect");

    // The live connection keeps talking the whole time: each request
    // resets its own deadline, and the idler's eviction never touches it.
    let mut live = WireClient::connect(&addr, 0, None, cfg.config.clone()).expect("connect");
    let deadline = std::time::Instant::now() + Duration::from_millis(600);
    let mut served = 0usize;
    while std::time::Instant::now() < deadline {
        let req = &stream[served % stream.len()];
        let o = live.request(req.key, &req.body, &req.hints).expect("ok");
        assert!(o.error.is_none());
        served += 1;
        thread::sleep(Duration::from_millis(20));
    }
    drop(idler);
    live.shutdown().expect("graceful shutdown");
    let report = handle.join().expect("server thread");
    assert!(
        report.idle_evicted >= 1,
        "the silent connection must be evicted at the deadline"
    );
    assert!(served > 0 && report.stats.completed as usize >= served);
}

/// Sends a hello for `tenant` over a fresh raw connection.
fn raw_hello(addr: &str, tenant: u32) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("raw connect");
    s.write_all(&encode_frame(&WireFrame::Hello {
        version: WIRE_VERSION,
        tenant,
        family_fp: None,
    }))
    .expect("send hello");
    s
}

/// Reads the next whole frame off a blocking stream, keeping any surplus
/// bytes in `buf`.
fn read_frame(s: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<WireFrame> {
    loop {
        match decode_frame(buf, MAX_FRAME_LEN) {
            FrameStatus::Frame { frame, consumed } => {
                buf.drain(..consumed);
                return Ok(frame);
            }
            FrameStatus::Incomplete => {
                let mut chunk = [0u8; 4096];
                let n = s.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            FrameStatus::Reject { reason, .. } | FrameStatus::Fatal { reason } => {
                panic!("server sent a malformed frame: {reason}")
            }
        }
    }
}

/// Two connections may claim the same tenant and so share its admission
/// queue. When they overflow it together, every shed request is answered
/// on its own connection, and a graceful shutdown still finds the server
/// quiescent. Cross-connection shedding needs both batches admitted in
/// one reactor pass; back-to-back writes over three rounds make that
/// near certain, and the per-seq checks hold either way.
#[test]
fn shed_notices_reach_the_connection_that_sent_the_request() {
    const PER_ROUND: u32 = 24;
    const ROUNDS: u32 = 3;
    let cfg = ServeConfig {
        threads: 1,
        queue_capacity: 4,
        ..ServeConfig::paper()
    };
    let stream = generate(&spec(0x5ED, 8, 1), &cfg.config, cfg.cca.as_ref());
    let (addr, handle) = spawn_server(cfg, NetConfig::default());

    let mut conns: Vec<(TcpStream, Vec<u8>)> = (0..2)
        .map(|_| {
            let s = raw_hello(&addr, 0);
            s.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            (s, Vec::new())
        })
        .collect();
    let mut shed = 0usize;
    for round in 0..ROUNDS {
        // Each connection's whole batch goes out in one write, back to
        // back, so the reactor admits both in the same pass.
        let batches: Vec<Vec<u8>> = (0..conns.len())
            .map(|c| {
                let mut bytes = Vec::new();
                for i in 0..PER_ROUND {
                    let req = &stream[(c + i as usize) % stream.len()];
                    let module = encode_module(&BinaryModule {
                        loops: vec![EncodedLoop {
                            body: (*req.body).clone(),
                            priority_hint: req.hints.priority.clone(),
                            cca_hint: req.hints.cca_groups.clone(),
                            family_hint: None,
                        }],
                    });
                    bytes.extend_from_slice(&encode_frame(&WireFrame::ReqModule {
                        seq: round * PER_ROUND + i,
                        key: req.key,
                        module,
                    }));
                }
                bytes
            })
            .collect();
        for ((s, _), bytes) in conns.iter_mut().zip(&batches) {
            s.write_all(bytes).expect("pipeline the batch");
        }
        for (c, (s, buf)) in conns.iter_mut().enumerate() {
            let mut answers: BTreeMap<u32, &str> = BTreeMap::new();
            while answers.len() < PER_ROUND as usize {
                let frame = read_frame(s, buf).unwrap_or_else(|e| {
                    panic!(
                        "connection {c} round {round}: {} of {PER_ROUND} answered: {e}",
                        answers.len()
                    )
                });
                let (seq, kind) = match frame {
                    WireFrame::Outcome { seq, .. } => (seq, "outcome"),
                    WireFrame::Error {
                        seq,
                        code: ErrorCode::Shed,
                        ..
                    } => (seq, "shed"),
                    other => panic!("connection {c}: unexpected frame {other:?}"),
                };
                assert!(
                    (round * PER_ROUND..(round + 1) * PER_ROUND).contains(&seq),
                    "connection {c} round {round}: stray seq {seq}"
                );
                assert!(
                    answers.insert(seq, kind).is_none(),
                    "connection {c}: seq {seq} answered twice"
                );
            }
            shed += answers.values().filter(|&&k| k == "shed").count();
        }
    }
    assert!(shed > 0, "the bound of 4 must shed");

    let (s, buf) = &mut conns[0];
    s.write_all(&encode_frame(&WireFrame::Shutdown))
        .expect("send shutdown");
    let bye = read_frame(s, buf).expect("the server acknowledges the shutdown");
    assert!(matches!(bye, WireFrame::Bye), "got {bye:?} instead of Bye");
    let report = handle.join().expect("server thread");
    let offered = u64::from(2 * PER_ROUND * ROUNDS);
    assert_eq!(report.stats.offered, offered);
    assert_eq!(report.stats.shed as usize, shed);
    assert_eq!(report.stats.completed + report.stats.shed, offered);
}

/// A client that sends requests and never reads its responses stops being
/// read once its unflushed responses reach the frame cap: its sends stall
/// on TCP flow control after a bounded number of bytes instead of growing
/// the server's write buffer without limit, and other connections are
/// served as usual.
#[test]
fn a_peer_that_never_reads_is_throttled_without_stalling_others() {
    const CAP: usize = 64 << 20;
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let net = NetConfig {
        max_frame_len: 4096,
        ..NetConfig::default()
    };
    let stream = generate(&spec(0xB0B, 24, 1), &cfg.config, cfg.cca.as_ref());
    let reference = TranslationService::new(cfg.clone()).run(&stream);
    let (addr, handle) = spawn_server(cfg.clone(), net);

    let mut bystander = WireClient::connect(&addr, 0, None, cfg.config.clone()).expect("connect");
    let mut got = Vec::new();
    let half = stream.len() / 2;
    for req in &stream[..half] {
        let o = bystander.request(req.key, &req.body, &req.hints);
        got.push(o.expect("bystander request"));
    }

    // The flooder asks about a loop the server never saw: each request
    // earns a small NeedBody refusal, which it never reads.
    let mut flooder = raw_hello(&addr, 1);
    flooder.set_nonblocking(true).expect("nonblocking");
    let mut batch = Vec::new();
    for seq in 0..1024u32 {
        batch.extend_from_slice(&encode_frame(&WireFrame::ReqHash {
            seq,
            key: 1,
            loop_hash: 0xDEAD,
            hints_fp: 0xBEEF,
        }));
    }
    let mut sent = 0usize;
    let mut at = 0usize;
    let deadline = Instant::now() + Duration::from_secs(30);
    // Write until the socket pushes back, pause, and repeat until a whole
    // round gets no byte through: the server has stopped reading.
    loop {
        let mut round = 0usize;
        loop {
            match flooder.write(&batch[at..]) {
                Ok(n) => {
                    round += n;
                    at = (at + n) % batch.len();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("flooder write failed: {e}"),
            }
            if sent + round >= CAP {
                break;
            }
        }
        sent += round;
        assert!(
            sent < CAP,
            "the server kept reading a peer that never reads ({sent} bytes)"
        );
        assert!(Instant::now() < deadline, "flooder never stalled");
        if round == 0 {
            break;
        }
        thread::sleep(Duration::from_millis(100));
    }

    // The bystander is served in full while the flooder is stalled.
    for req in &stream[half..] {
        let o = bystander.request(req.key, &req.body, &req.hints);
        got.push(o.expect("bystander request"));
    }
    drop(flooder);
    bystander.shutdown().expect("graceful shutdown");
    let report = handle.join().expect("server thread");

    let want = &reference.tenants[0].outcomes;
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert!(g.error.is_none(), "bystander refused: {:?}", g.error);
        assert_eq!(g.translation_cycles, w.translation_cycles);
        let want_bytes = w
            .translated
            .as_deref()
            .map(|t| veal::encode_translated_loop(t).expect("schedule encodes"));
        assert_eq!(g.translated_bytes, want_bytes, "bystander bytes diverged");
    }
    assert_eq!(report.tenants[0].stats, reference.tenants[0].stats);
}

/// `VEAL_FUZZ_CASES` scales the live fuzz arm: that many cases per prong
/// (default 600; CI smoke runs 200).
fn fuzz_cases() -> u64 {
    std::env::var("VEAL_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(600)
}

/// `req` as a request frame carrying a packed single-loop module.
fn module_frame(seq: u32, req: &Request) -> WireFrame {
    WireFrame::ReqModule {
        seq,
        key: req.key,
        module: encode_module(&BinaryModule {
            loops: vec![EncodedLoop {
                body: (*req.body).clone(),
                priority_hint: req.hints.priority.clone(),
                cca_hint: req.hints.cca_groups.clone(),
                family_hint: None,
            }],
        }),
    }
}

/// One connection sends fuzzed frame streams — transport faults,
/// truncated or split streams, resealed forgeries, boundary-value counts,
/// each case on a fresh connection after a clean hello — while a
/// bystander connection serves its stream lock-step alongside. The server
/// never panics, the fuzz reaches it (rejects and fatal closes are
/// counted), and the bystander's outcomes and session statistics are
/// bit-identical to a clean solo run.
///
/// The fuzzed streams hold requests and server replies but no `Hello`,
/// `Shutdown` or `Bye`: a resealed hello may rightly claim the bystander's
/// tenant, and an empty payload is one tag byte away from a real shutdown.
#[test]
fn fuzzed_frame_streams_leave_a_bystander_bit_identical() {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let stream = generate(&spec(0xF022, 24, 1), &cfg.config, cfg.cca.as_ref());
    let reference = TranslationService::new(cfg.clone()).run(&stream);
    let (addr, handle) = spawn_server(cfg.clone(), NetConfig::default());
    let mut bystander = WireClient::connect(&addr, 0, None, cfg.config.clone()).expect("connect");

    let mut pool = vec![WireFrame::Error {
        seq: 3,
        code: ErrorCode::Shed,
        message: "admission queue full".into(),
    }];
    for (seq, req) in (0u32..).zip(stream.iter().take(4)) {
        pool.push(module_frame(seq, req));
        pool.push(WireFrame::ReqHash {
            seq,
            key: req.key,
            loop_hash: req.body.dfg.content_hash(),
            hints_fp: req.hints.fingerprint(),
        });
        pool.push(WireFrame::Outcome {
            seq,
            key: req.key,
            translation_cycles: 1,
            translated: None,
        });
    }

    let cases = 4 * fuzz_cases();
    let mut fuzzer = WireFuzzer::new(0x11FE);
    let mut got = Vec::new();
    let mut cases_sent = 0;
    for case in 0..cases {
        let clean = fuzzer.stream(&pool, 4);
        let fuzzed = match case % 4 {
            0 => Some(fuzzer.corrupt_bytes(&clean)),
            1 => Some(fuzzer.split(&clean)),
            2 => fuzzer.reseal_forgery(&clean),
            _ => fuzzer.boundary_counts(&clean),
        };
        if let Some(c) = fuzzed {
            cases_sent += 1;
            let mut s = raw_hello(&addr, 1);
            s.set_nodelay(true).expect("nodelay");
            s.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            let mut start = 0;
            for end in c.cuts.iter().copied().chain([c.bytes.len()]) {
                // The server may already have closed on a fatal length.
                let _ = s.write_all(&c.bytes[start..end]);
                start = end;
            }
            // Hang up and wait for the server to close its end, so every
            // case is handled before the next connects and no connection
            // is refused at the accept cap.
            let _ = s.shutdown(std::net::Shutdown::Write);
            let mut sink = Vec::new();
            if let Err(e) = s.read_to_end(&mut sink) {
                assert_ne!(
                    e.kind(),
                    io::ErrorKind::WouldBlock,
                    "case {case}: not closed"
                );
            }
        }
        // Spread the bystander's requests evenly over the fuzz cases.
        while got.len() < stream.len() && got.len() as u64 * cases <= case * stream.len() as u64 {
            let req = &stream[got.len()];
            got.push(
                bystander
                    .request(req.key, &req.body, &req.hints)
                    .expect("bystander"),
            );
        }
    }
    for req in &stream[got.len()..] {
        got.push(
            bystander
                .request(req.key, &req.body, &req.hints)
                .expect("bystander"),
        );
    }
    bystander.shutdown().expect("graceful shutdown");
    let report = handle.join().expect("the server survives every case");

    let want = &reference.tenants[0].outcomes;
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert!(g.error.is_none(), "bystander refused: {:?}", g.error);
        assert_eq!(g.translation_cycles, w.translation_cycles);
        let want_bytes = w
            .translated
            .as_deref()
            .map(|t| veal::encode_translated_loop(t).expect("schedule encodes"));
        assert_eq!(g.translated_bytes, want_bytes, "bystander bytes diverged");
    }
    assert_eq!(report.tenants[0].stats, reference.tenants[0].stats);
    assert!(report.decode_rejects > 0, "the fuzz reached the decoder");
    assert!(
        report.fatal_closes > 0,
        "over-cap lengths closed connections"
    );
    assert_eq!(report.accepted, 1 + cases_sent, "no connection hit the cap");
}

/// Outcomes, per-tenant statistics and frame count of two connections,
/// for tenants 0 and 1, that say hello and then send their requests
/// lock-step, a round at a time. With `bytewise`, every frame goes out
/// one byte per write, the two connections' bytes interleaved.
fn two_connection_run(
    cfg: &ServeConfig,
    stream: &[Request],
    bytewise: bool,
) -> (Vec<Vec<WireFrame>>, Vec<veal::VmStats>, u64) {
    let (addr, handle) = spawn_server(cfg.clone(), NetConfig::default());
    let mut conns: Vec<(TcpStream, Vec<u8>)> = (0..2)
        .map(|_| {
            let s = TcpStream::connect(&addr).expect("connect");
            s.set_nodelay(true).expect("nodelay");
            s.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            (s, Vec::new())
        })
        .collect();
    let mut queues: Vec<Vec<WireFrame>> = (0..2u32)
        .map(|tenant| {
            vec![WireFrame::Hello {
                version: WIRE_VERSION,
                tenant,
                family_fp: None,
            }]
        })
        .collect();
    for (seq, req) in (0u32..).zip(stream) {
        queues[req.tenant].push(module_frame(seq, req));
    }
    let mut answers: Vec<Vec<WireFrame>> = vec![Vec::new(), Vec::new()];
    let rounds = queues.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        let bytes: Vec<Vec<u8>> = queues
            .iter()
            .map(|q| q.get(round).map(encode_frame).unwrap_or_default())
            .collect();
        if bytewise {
            for i in 0..bytes.iter().map(Vec::len).max().unwrap_or(0) {
                for ((s, _), b) in conns.iter_mut().zip(&bytes) {
                    if let Some(byte) = b.get(i) {
                        s.write_all(std::slice::from_ref(byte))
                            .expect("write one byte");
                    }
                }
            }
        } else {
            for ((s, _), b) in conns.iter_mut().zip(&bytes) {
                s.write_all(b).expect("write whole frame");
            }
        }
        // Round 0 is the hellos, which get no answer.
        for (c, (s, buf)) in conns.iter_mut().enumerate() {
            if round > 0 && round < queues[c].len() {
                answers[c].push(read_frame(s, buf).expect("answer"));
            }
        }
    }
    let (s, buf) = &mut conns[0];
    s.write_all(&encode_frame(&WireFrame::Shutdown))
        .expect("send shutdown");
    assert!(matches!(read_frame(s, buf), Ok(WireFrame::Bye)));
    let report = handle.join().expect("server thread");
    let stats = report.tenants.iter().map(|t| t.stats.clone()).collect();
    (answers, stats, report.frames)
}

/// The reactor rebuilds frames that arrive a byte per read pass, on two
/// connections at once, into exactly the outcomes whole-frame writes get.
#[test]
fn frames_written_a_byte_at_a_time_reassemble_on_two_connections() {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let stream = generate(&spec(0xB17E, 16, 2), &cfg.config, cfg.cca.as_ref());
    let whole = two_connection_run(&cfg, &stream, false);
    let bytewise = two_connection_run(&cfg, &stream, true);
    assert_eq!(whole.0.iter().map(Vec::len).sum::<usize>(), stream.len());
    assert!(whole
        .0
        .iter()
        .flatten()
        .all(|f| matches!(f, WireFrame::Outcome { .. })));
    assert_eq!(bytewise, whole);
}

/// A connection that sends a request and hangs up at once is gone before
/// its outcome is ready. The outcome must be dropped, not delivered to the
/// next connection that takes the same slot and tenant.
#[test]
fn an_outcome_never_reaches_a_connection_that_did_not_ask_for_it() {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let stream = generate(&spec(0x57A1, 2, 1), &cfg.config, cfg.cca.as_ref());
    let (addr, handle) = spawn_server(cfg.clone(), NetConfig::default());
    let mut bystander = WireClient::connect(&addr, 0, None, cfg.config.clone()).expect("connect");
    let o = bystander
        .request(stream[0].key, &stream[0].body, &stream[0].hints)
        .expect("bystander request");
    assert!(o.error.is_none());

    // Hello, request and hangup reach the reactor in one read pass.
    {
        let mut gone = raw_hello(&addr, 1);
        gone.write_all(&encode_frame(&module_frame(7, &stream[0])))
            .expect("send request");
    }
    thread::sleep(Duration::from_millis(200));

    let mut next = raw_hello(&addr, 1);
    next.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    next.write_all(&encode_frame(&module_frame(100, &stream[1])))
        .expect("send request");
    let mut buf = Vec::new();
    match read_frame(&mut next, &mut buf).expect("answer") {
        WireFrame::Outcome { seq, .. } => assert_eq!(seq, 100, "got another connection's outcome"),
        other => panic!("unexpected frame {other:?}"),
    }
    drop(next);
    bystander.shutdown().expect("graceful shutdown");
    handle.join().expect("server thread");
}
