//! `serve-net`: the multi-tenant translation service over loopback TCP.
//!
//! The server is an in-process `NetServer` configured like
//! `vealc serve --listen --threads 1` (`ServeConfig::paper()`, point mode,
//! `NetConfig::default()`); with one thread its reactor runs the worker
//! inline. One generator thread drives one connection per tenant with the
//! stream from `serve::generate`, behaving like `WireClient` — the full
//! module on a loop's first sight, the body-less hash request after, and
//! `decode_translated_loop` verification of every response — except that
//! it pipelines. Open loop, request `i` is due at `i / rate` and is timed
//! from then; closed loop, a fixed number of requests stays outstanding.
//!
//! Phases: after a warm-up (first sights translate), the untraced run
//! drives the server closed loop, flat out. The traced run drives one
//! untraced server at the light rate and through the max-rate search, then
//! a second server, whose service carries an enabled discarding trace, at
//! the light and the heavy rate. After each server shuts down, every
//! tenant's `VmStats` must equal an in-process solo replay of the requests
//! that server completed for it.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use veal::obs::metrics::{self, Histogram, BUCKETS};
use veal::serve::wire::MAX_FRAME_LEN;
use veal::serve::{
    decode_frame, encode_frame, generate, ErrorCode, FrameStatus, Request, WireFrame, WIRE_VERSION,
};
use veal::vm::{BinaryModule, EncodedLoop, TranslationMemo};
use veal::{
    decode_translated_loop, encode_module, AcceleratorConfig, LoadSpec, NetConfig, NetReport,
    NetServer, NullSink, ServeConfig, Trace, TranslationService,
};

use crate::spans::Spans;
use crate::stats::{
    median, peak_rate, percentile, search_max_rate, sort, Fate, OpenLoopLog, Probe,
};
use crate::{band_rows, Args, Attribution, Report, SETUP_REPS};

/// The light offered rate, requests per second.
pub const LIGHT_RPS: f64 = 2_000.0;
/// The heavy offered rate: about half the rate where the server starts
/// shedding.
pub const HEAVY_RPS: f64 = 16_000.0;
/// The p99 limit (from the due time) a rate must meet to count as
/// sustained, µs — far above the light-rate p99, so the search stops where
/// the server saturates rather than on noise.
pub const P99_LIMIT_US: f64 = 10_000.0;
/// Max-rate search: lowest and highest rate tried, and the ratio at which
/// bisection stops.
const SEARCH_FLOOR: f64 = 1_000.0;
const SEARCH_CEILING: f64 = 256_000.0;
const SEARCH_RESOLUTION: f64 = 1.05;
/// Requests kept outstanding in the closed-loop phase: half of one
/// tenant's admission queue and of one connection's in-flight cap.
const CLOSED_WINDOW: usize = 32;
/// Tenants (one connection each) and their loop pools.
const TENANTS: usize = 2;
/// Requests generated; phases cycle through them.
const STREAM_LEN: usize = 65_536;
/// How long a phase waits for stragglers after its last request was due.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// The load spec every run uses, bar the seed.
fn load_spec(seed: u64) -> LoadSpec {
    LoadSpec {
        seed,
        tenants: TENANTS,
        requests: STREAM_LEN,
        shared_loops: 32,
        private_loops: 16,
        shared_permille: 700,
        hinted: true,
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    }
}

/// A running server and the client connections driving it.
struct Rig {
    server: Option<JoinHandle<NetReport>>,
    conns: Vec<Conn>,
    config: AcceleratorConfig,
    /// Requests the server completed per tenant, as stream indices in
    /// processing order: the solo replay's input.
    completed: Vec<Vec<usize>>,
    /// Next stream index to offer.
    cursor: usize,
}

/// One pipelined connection.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    next_seq: u32,
    /// Bodies this connection has sent in full: the hash fast path.
    sent: HashSet<(u64, u64)>,
    /// seq → (phase request index, stream index).
    pending: HashMap<u32, (usize, usize)>,
}

impl Conn {
    fn connect(addr: &str, tenant: u32) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: encode_frame(&WireFrame::Hello {
                version: WIRE_VERSION,
                tenant,
                family_fp: None,
            }),
            next_seq: 0,
            sent: HashSet::new(),
            pending: HashMap::new(),
        };
        conn.stream.write_all(&conn.wbuf)?;
        conn.wbuf.clear();
        conn.stream.set_nonblocking(true)?;
        Ok(conn)
    }

    /// Queues one request as `WireClient` would frame it; returns whether
    /// it took the hash path.
    fn push(&mut self, req: &Request, phase_idx: usize, stream_idx: usize) -> bool {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let id = (req.body.dfg.content_hash(), req.hints.fingerprint());
        let hash_path = self.sent.contains(&id);
        let frame = if hash_path {
            WireFrame::ReqHash {
                seq,
                key: req.key,
                loop_hash: id.0,
                hints_fp: id.1,
            }
        } else {
            self.sent.insert(id);
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
        };
        self.wbuf.extend_from_slice(&encode_frame(&frame));
        self.pending.insert(seq, (phase_idx, stream_idx));
        hash_path
    }

    /// Writes as much of the queued bytes as the socket takes.
    fn flush(&mut self) -> io::Result<()> {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads whatever has arrived.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Pops one complete frame from the read buffer.
    fn next_frame(&mut self) -> Option<Result<WireFrame, String>> {
        match decode_frame(&self.rbuf, MAX_FRAME_LEN) {
            FrameStatus::Incomplete => None,
            FrameStatus::Frame { frame, consumed } => {
                self.rbuf.drain(..consumed);
                Some(Ok(frame))
            }
            FrameStatus::Reject { reason, .. } | FrameStatus::Fatal { reason } => Some(Err(reason)),
        }
    }
}

/// How a phase offers its requests.
#[derive(Debug, Clone, Copy)]
enum Pace {
    /// `n` requests, request `i` due at `i / rate` seconds.
    Open { rate: f64, n: usize },
    /// Closed loop: keep `window` requests outstanding for `seconds`.
    Closed { window: usize, seconds: f64 },
}

/// Upper bound on the closed-loop rate, for sizing the phase log.
const CLOSED_CAP_RPS: f64 = 100_000.0;

/// What one phase measured.
struct Phase {
    log: OpenLoopLog,
    /// Per request: lateness, client encode and client verify, µs.
    encode_us: Vec<f64>,
    verify_us: Vec<f64>,
    hash_path: usize,
    mismatches: Vec<String>,
}

impl Rig {
    fn start(traced: bool) -> io::Result<Self> {
        let cfg = serve_config();
        let config = cfg.config.clone();
        let mut service = TranslationService::new(cfg);
        if traced {
            service = service.with_trace(Trace::new(Arc::new(NullSink)));
        }
        let server = NetServer::bind(service, NetConfig::default())?;
        let addr = server.local_addr()?.to_string();
        let handle = std::thread::spawn(move || server.run());
        let mut rig = Rig {
            server: Some(handle),
            conns: Vec::new(),
            config,
            completed: vec![Vec::new(); TENANTS],
            cursor: 0,
        };
        for t in 0..TENANTS {
            match Conn::connect(&addr, t as u32) {
                Ok(c) => rig.conns.push(c),
                Err(e) => {
                    // Still stop the server: the reactor only exits on a
                    // shutdown frame.
                    let _ = rig.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(rig)
    }

    /// Offers requests from the stream at `pace`, then waits for every
    /// response (up to [`DRAIN_TIMEOUT`] after the last was sent or due).
    fn phase(&mut self, stream: &[Request], pace: Pace, spans: &mut Spans) -> Phase {
        let (rate, n, until) = match pace {
            Pace::Open { rate, n } => (rate, n, u64::MAX),
            Pace::Closed { seconds, .. } => (
                f64::INFINITY,
                (CLOSED_CAP_RPS * seconds) as usize,
                (seconds * 1e9) as u64,
            ),
        };
        let window = match pace {
            Pace::Open { .. } => usize::MAX,
            Pace::Closed { window, .. } => window,
        };
        // Per-request client timings are kept for traced phases only.
        let detail = if spans.is_on() { n } else { 0 };
        let mut p = Phase {
            log: OpenLoopLog::new(rate, n),
            encode_us: vec![0.0; detail],
            verify_us: vec![0.0; detail],
            hash_path: 0,
            mismatches: Vec::new(),
        };
        // Responses to an abandoned earlier phase are no longer awaited.
        for c in &mut self.conns {
            c.pending.clear();
        }
        // Room for every request this phase may complete, reserved up
        // front: growing by doubling would make peak RSS jump with the
        // completion count.
        for c in &mut self.completed {
            c.reserve(n);
        }
        let epoch = spans.now();
        let now = |s: &Spans| s.now() - epoch;
        let mut roots = vec![None; if spans.is_on() { n } else { 0 }];
        let last_send = match pace {
            Pace::Open { .. } => p.log.due_ns(n.saturating_sub(1)),
            Pace::Closed { .. } => until,
        };
        let deadline = last_send + DRAIN_TIMEOUT.as_nanos() as u64;
        let mut next = 0usize;
        let mut open = 0usize;
        let mut n = n;
        while next < n || open > 0 {
            let (sent_before, open_before) = (next, open);
            let t = now(spans);
            if t > deadline {
                p.mismatches.push(format!(
                    "{open} responses missing {DRAIN_TIMEOUT:?} after the last send"
                ));
                break;
            }
            if t >= until {
                // A closed-loop phase stops offering when its time is up.
                n = next;
            }
            // Send everything that is due (open) or fits the window (closed).
            while next < n && open < window && p.log.due_ns(next) <= now(spans) {
                let stream_idx = self.cursor % stream.len();
                self.cursor += 1;
                let req = &stream[stream_idx];
                let t0 = now(spans);
                p.log.sent(next, t0);
                let hash = self.conns[req.tenant].push(req, next, stream_idx);
                let t1 = now(spans);
                p.hash_path += usize::from(hash);
                if spans.is_on() {
                    p.encode_us[next] = (t1 - t0) as f64 / 1e3;
                    let due = epoch + p.log.due_ns(next);
                    let root = spans.record("bench.serve.request", due, due, None, next as u64);
                    spans.record(
                        "bench.loadgen.late",
                        due,
                        epoch + t0,
                        Some(root),
                        next as u64,
                    );
                    spans.record(
                        "serve.wire.client_encode",
                        epoch + t0,
                        epoch + t1,
                        Some(root),
                        next as u64,
                    );
                    roots[next] = Some(root);
                }
                next += 1;
                open += 1;
            }
            for c in &mut self.conns {
                if let Err(e) = c.flush() {
                    p.mismatches.push(format!("send failed: {e}"));
                    return p;
                }
            }
            // Take every response that has arrived.
            for tenant in 0..self.conns.len() {
                if let Err(e) = self.conns[tenant].fill() {
                    p.mismatches.push(format!("receive failed: {e}"));
                    return p;
                }
                while let Some(frame) = self.conns[tenant].next_frame() {
                    let frame = match frame {
                        Ok(f) => f,
                        Err(reason) => {
                            p.mismatches
                                .push(format!("malformed response frame: {reason}"));
                            return p;
                        }
                    };
                    open -= self.on_frame(tenant, frame, stream, &mut p, spans, epoch, &roots);
                }
            }
            if next == sent_before && open == open_before {
                // Nothing moved: give the core to the server thread in case
                // the scheduler put both threads on it, instead of spinning
                // through the reactor's wake-up.
                std::thread::yield_now();
            }
        }
        p.log.truncate(n);
        p.encode_us.truncate(n);
        p.verify_us.truncate(n);
        p
    }

    /// Handles one response frame; returns how many requests it ended.
    #[allow(clippy::too_many_arguments)]
    fn on_frame(
        &mut self,
        tenant: usize,
        frame: WireFrame,
        stream: &[Request],
        p: &mut Phase,
        spans: &mut Spans,
        epoch: u64,
        roots: &[Option<u32>],
    ) -> usize {
        let (seq, fate, verify) = match frame {
            WireFrame::Outcome {
                seq, translated, ..
            } => {
                let t0 = spans.now();
                let verified = translated
                    .as_ref()
                    .map(|bytes| decode_translated_loop(bytes, &self.config));
                let t1 = spans.now();
                match verified {
                    Some(Err(e)) => {
                        p.mismatches.push(format!(
                            "response {seq} failed client-side verification: {e}"
                        ));
                        (seq, Fate::Unverified, (t0, t1))
                    }
                    _ => (seq, Fate::Ok, (t0, t1)),
                }
            }
            WireFrame::Error { seq, code, .. } => {
                let now = spans.now();
                match code {
                    ErrorCode::NeedBody => {
                        // The server never saw this body (its module
                        // request was refused): resend in full, as
                        // `WireClient` does.
                        let conn = &mut self.conns[tenant];
                        if let Some((phase_idx, stream_idx)) = conn.pending.remove(&seq) {
                            let req = &stream[stream_idx];
                            conn.sent
                                .remove(&(req.body.dfg.content_hash(), req.hints.fingerprint()));
                            conn.push(req, phase_idx, stream_idx);
                        }
                        return 0;
                    }
                    ErrorCode::Shed => (seq, Fate::Shed, (now, now)),
                    _ => (seq, Fate::Refused, (now, now)),
                }
            }
            other => {
                p.mismatches.push(format!(
                    "unexpected frame from the server: tag {}",
                    other.tag()
                ));
                return 0;
            }
        };
        let Some((i, stream_idx)) = self.conns[tenant].pending.remove(&seq) else {
            p.mismatches.push(format!("response for unknown seq {seq}"));
            return 0;
        };
        let done = verify.1 - epoch;
        p.log.done(i, done, fate);
        if fate == Fate::Ok {
            self.completed[tenant].push(stream_idx);
        }
        if let Some(Some(root)) = roots.get(i) {
            p.verify_us[i] = (verify.1 - verify.0) as f64 / 1e3;
            spans.record(
                "serve.wire.client_verify",
                verify.0,
                verify.1,
                Some(*root),
                i as u64,
            );
            spans.set_end(*root, verify.1);
        }
        1
    }

    /// Shuts the server down gracefully and returns its report.
    fn shutdown(&mut self) -> io::Result<NetReport> {
        if let Some(c) = self.conns.first_mut() {
            c.stream.set_nonblocking(false)?;
            c.stream.write_all(&encode_frame(&WireFrame::Shutdown))?;
            c.stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            loop {
                match c.next_frame() {
                    Some(Ok(WireFrame::Bye)) => break,
                    Some(Ok(_)) => continue,
                    Some(Err(reason)) => return Err(io::Error::other(reason)),
                    None => {
                        let mut chunk = [0u8; 4096];
                        let n = c.stream.read(&mut chunk)?;
                        if n == 0 {
                            return Err(io::ErrorKind::UnexpectedEof.into());
                        }
                        c.rbuf.extend_from_slice(&chunk[..n]);
                    }
                }
            }
        }
        self.conns.clear();
        let handle = self.server.take().expect("server still running");
        handle
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))
    }

    /// Shuts down and checks every tenant's stats against a solo replay
    /// of the requests the server completed for it.
    fn finish(mut self, stream: &[Request]) -> (Option<NetReport>, Vec<String>) {
        let report = match self.shutdown() {
            Ok(r) => r,
            Err(e) => return (None, vec![format!("graceful shutdown failed: {e}")]),
        };
        let cfg = serve_config();
        let mut mismatches = Vec::new();
        for (t, done) in self.completed.iter().enumerate() {
            let mut solo = cfg
                .solo_session()
                .with_memo(Arc::new(TranslationMemo::new()));
            for &i in done {
                let r = &stream[i];
                let _ = solo.invoke(r.key, &r.body, &r.hints);
            }
            match report.tenants.get(t) {
                Some(served) if served.stats == *solo.stats() => {}
                Some(_) => mismatches.push(format!(
                    "tenant {t}: served stats differ from a solo replay of its {} requests",
                    done.len()
                )),
                None => mismatches.push(format!("tenant {t}: missing from the server report")),
            }
        }
        (Some(report), mismatches)
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        if self.server.is_some() {
            let _ = self.shutdown();
        }
    }
}

/// Histogram state for delta reads.
#[derive(Clone, Copy)]
struct HistMark {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl HistMark {
    fn of(h: &Histogram) -> Self {
        HistMark {
            buckets: h.buckets(),
            count: h.count(),
            sum: h.sum(),
        }
    }

    fn delta(self, h: &Histogram) -> Self {
        let now = HistMark::of(h);
        HistMark {
            buckets: std::array::from_fn(|i| now.buckets[i] - self.buckets[i]),
            count: now.count - self.count,
            sum: now.sum - self.sum,
        }
    }

    fn mean_us(&self) -> f64 {
        self.sum as f64 / self.count.max(1) as f64 / 1e3
    }

    /// The `q`-quantile in µs, interpolated linearly within its log2
    /// bucket (bucket `b` holds `[2^(b-1), 2^b)` ns).
    fn quantile_us(&self, q: f64) -> f64 {
        let rank = (q * self.count as f64).ceil().max(1.0);
        let mut seen = 0.0;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let n = n as f64;
            if seen + n >= rank {
                if b == 0 {
                    return 0.0;
                }
                let lo = (1u64 << (b - 1)) as f64;
                return (lo + lo * (rank - seen) / n) / 1e3;
            }
            seen += n;
        }
        0.0
    }
}

/// Requests per quantile window in an open-loop phase: half a second at
/// the light rate.
const LATENCY_WINDOW: usize = 1000;
/// Window over which the closed-loop phase counts completions.
const CAPACITY_WINDOW_NS: u64 = 1_000_000_000;
/// Requests per latency window in the closed-loop phase: about a second.
const CLOSED_LATENCY_WINDOW: usize = 20_000;

/// Median and windowed p99 of a phase's latencies from the due time.
fn p50_p99(log: &OpenLoopLog, report: &mut Report) -> (f64, f64) {
    let lat = log.latencies_us();
    (median(&lat), report.checked_p99(&lat, LATENCY_WINDOW))
}

/// Warm-up: enough requests at a moderate rate that every pooled loop has
/// been seen (and translated) before timing starts.
fn warm_up(rig: &mut Rig, stream: &[Request], report: &mut Report) {
    let w = rig.phase(
        stream,
        Pace::Open {
            rate: 4.0 * LIGHT_RPS,
            n: 2_000,
        },
        &mut Spans::disabled(),
    );
    report.mismatches.extend(w.mismatches);
}

fn absorb(report: &mut Report, p: &Phase) {
    report.absorb(p.log.failures() as u64, p.log.len() as u64, &p.mismatches);
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let spec = load_spec(args.seed);
    let mut report = Report::new(format!(
        "serve::generate seed {}, {TENANTS} tenants, 32 shared + 16 private loops each, \
         70% shared, hinted; light {LIGHT_RPS} rps, heavy {HEAVY_RPS} rps, p99 limit \
         {P99_LIMIT_US} us",
        args.seed
    ));

    // Set-up: generate the stream, start the server, connect. Repeated in
    // the untraced run (the median is reported); spare rigs shut down.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..reps {
        if let Some((_, rig)) = built.take() {
            drop::<Rig>(rig);
        }
        let t = Instant::now();
        let cfg = serve_config();
        let stream = generate(&spec, &cfg.config, cfg.cca.as_ref());
        let rig = match Rig::start(false) {
            Ok(r) => r,
            Err(e) => {
                report
                    .mismatches
                    .push(format!("cannot start the server: {e}"));
                return report;
            }
        };
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((stream, rig));
    }
    let (stream, rig) = built.expect("at least one set-up");

    if args.trace {
        return traced(args, &stream, rig, report);
    }

    // Closed loop with a window that fits every queue bound, so nothing
    // sheds and the reactor never idles: the server runs flat out.
    let mut rig = rig;
    warm_up(&mut rig, &stream, &mut report);
    let cap_s = args.seconds * 0.9;
    let cap = rig.phase(
        &stream,
        Pace::Closed {
            window: CLOSED_WINDOW,
            seconds: cap_s,
        },
        &mut Spans::disabled(),
    );
    absorb(&mut report, &cap);
    let cap_ns = (cap_s * 1e9) as u64;
    let rps = peak_rate(cap.log.ok_done_ns(), cap_ns, CAPACITY_WINDOW_NS.min(cap_ns));
    let lat = cap.log.latencies_us();
    let window = CLOSED_LATENCY_WINDOW.min(lat.len());
    let p50 = report.best_window(&lat, window, 0.5);
    let p90 = report.best_window(&lat, window, 0.9);
    report.context.push(format!(
        "closed loop: peak {rps:.0} requests/s in a window of at most 1 s, {:.0} over the \
         phase; {}",
        cap.log.len() as f64 / cap_s,
        quantiles(&cap.log)
    ));
    let (_, mismatches) = rig.finish(&stream);
    report.mismatches.extend(mismatches);

    report.e2e("throughput_per_s", rps);
    report.e2e("p50_us", p50);
    report.e2e("p90_us", p90);
    report.e2e("setup_s", median(&setup_s));
    report
}

fn open(rate: f64, n: usize) -> Pace {
    Pace::Open { rate, n }
}

/// A context line of a phase's latency quantiles.
fn quantiles(log: &OpenLoopLog) -> String {
    let mut lat = log.latencies_us();
    sort(&mut lat);
    let q = |p| percentile(&lat, p).map_or("-".into(), |v| format!("{v:.0}"));
    format!(
        "n {}, failed {}, p50 {} p90 {} p99 {} p99.9 {} us",
        lat.len(),
        log.failures(),
        q(0.5),
        q(0.9),
        q(0.99),
        q(0.999)
    )
}

/// The max-rate search: each probe offers `probe_s` seconds of requests
/// at its rate and must meet the p99 limit with nothing failed and no
/// growing backlog.
fn max_rate(rig: &mut Rig, stream: &[Request], probe_s: f64, report: &mut Report) -> f64 {
    let mut probes = Vec::new();
    let best = search_max_rate(
        HEAVY_RPS,
        SEARCH_FLOOR,
        SEARCH_CEILING,
        SEARCH_RESOLUTION,
        |rate| {
            let p = rig.phase(
                stream,
                open(rate, (rate * probe_s) as usize),
                &mut Spans::disabled(),
            );
            let (probe, pass) = Probe::judge(&p.log, P99_LIMIT_US);
            // Shed or refused requests fail the probe, not the run; a
            // verification or protocol failure fails both.
            report.mismatches.extend(p.mismatches);
            probes.push(format!(
                "{rate:.0} rps: p99 {:.0} us, {} failed, backlog {} -> {}",
                probe.p99_us,
                probe.failures,
                probe.backlog,
                if pass { "pass" } else { "fail" }
            ));
            pass
        },
    );
    report
        .context
        .push(format!("rate search: {}", probes.join("; ")));
    best.unwrap_or(0.0)
}

/// The traced run: on an untraced server, a light phase (the overhead
/// baseline) and the max-rate search; then a traced light phase and the
/// heavy rate on a traced server, whose lifetime counters therefore cover
/// only those two phases and its warm-up.
fn traced(args: &Args, stream: &[Request], mut rig: Rig, mut report: Report) -> Report {
    let phase_s = args.seconds / 4.0;
    let light_n = (LIGHT_RPS * phase_s) as usize;
    warm_up(&mut rig, stream, &mut report);
    let base = rig.phase(stream, open(LIGHT_RPS, light_n), &mut Spans::disabled());
    absorb(&mut report, &base);
    let (base_p50, base_p99) = p50_p99(&base.log, &mut report);
    report.layer("serve.light_p50_us", base_p50);
    let base_p90 = report.checked_p90(&base.log.latencies_us());
    report.layer("serve.light_p90_us", base_p90);
    report.layer("bench.p99_us", base_p99);
    report
        .context
        .push(format!("light phase: {}", quantiles(&base.log)));
    let max_rps = max_rate(&mut rig, stream, 0.4, &mut report);
    let (_, mismatches) = rig.finish(stream);
    report.mismatches.extend(mismatches);

    let mut rig = match Rig::start(true) {
        Ok(r) => r,
        Err(e) => {
            report
                .mismatches
                .push(format!("cannot start the traced server: {e}"));
            return report;
        }
    };
    let request = metrics::histogram("serve.request.wall_ns");
    let invoke = metrics::histogram("vm.invoke.wall_ns");
    let counter = |name| metrics::counter(name).get();
    let memo0 = (counter("vm.memo.hits"), counter("vm.memo.misses"));
    warm_up(&mut rig, stream, &mut report);
    let batches0 = counter("serve.batches");
    let completed0 = counter("serve.requests.completed");
    let (req0, inv0) = (HistMark::of(request), HistMark::of(invoke));
    let mut spans = Spans::enabled();
    let light = rig.phase(stream, open(LIGHT_RPS, light_n), &mut spans);
    let (req, inv) = (req0.delta(request), inv0.delta(invoke));
    let per_batch = (counter("serve.requests.completed") - completed0) as f64
        / (counter("serve.batches") - batches0).max(1) as f64;
    absorb(&mut report, &light);
    let (light_p50, _) = p50_p99(&light.log, &mut report);

    let heavy_n = (HEAVY_RPS * phase_s) as usize;
    let heavy = rig.phase(stream, open(HEAVY_RPS, heavy_n), &mut Spans::disabled());
    // Like a search probe, the heavy rate may shed on a host stall: that
    // is its result, not a failed run; a verification failure still is.
    report.mismatches.extend_from_slice(&heavy.mismatches);
    report.layer("serve.heavy_failed", heavy.log.failures() as f64);
    let (heavy_p50, heavy_p99) = p50_p99(&heavy.log, &mut report);
    let memo = (
        counter("vm.memo.hits") - memo0.0,
        counter("vm.memo.misses") - memo0.1,
    );
    let (net, mismatches) = rig.finish(stream);
    report.mismatches.extend(mismatches);

    let n = light.log.len() as f64;
    let lateness = light.log.lateness_us();
    let latencies = light.log.latencies_us();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / n;
    let request_us = req.mean_us();
    let residual = mean(&latencies)
        - mean(&lateness)
        - mean(&light.encode_us)
        - mean(&light.verify_us)
        - request_us;
    report.layer("serve.wire.client_encode_us", mean(&light.encode_us));
    report.layer("serve.wire.client_verify_us", mean(&light.verify_us));
    report.layer("serve.wire.hash_path_ratio", light.hash_path as f64 / n);
    let late_p99 = report.checked_p99(&lateness, LATENCY_WINDOW);
    report.layer("bench.loadgen.late_p99_us", late_p99);
    report.layer("serve.service.request_us", request_us);
    report.layer("serve.service.request_p50_us", req.quantile_us(0.5));
    report.layer("serve.service.request_p99_us", req.quantile_us(0.99));
    report.layer("vm.session.invoke_us", inv.mean_us());
    report.layer("serve.service.queue_us", request_us - inv.mean_us());
    report.layer("serve.requests_per_batch", per_batch);
    report.layer("serve.net.residual_us", residual);
    report.layer(
        "vm.memo.hit_ratio",
        memo.0 as f64 / (memo.0 + memo.1).max(1) as f64,
    );
    if let Some(net) = &net {
        let (hits, misses) = net
            .tenants
            .iter()
            .fold((0, 0), |(h, m), t| (h + t.cache.hits, m + t.cache.misses));
        report.layer(
            "vm.session.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        report.layer("serve.requests.offered", net.stats.offered as f64);
        report.layer("serve.requests.shed", net.stats.shed as f64);
        report.layer("serve.net.frames", net.frames as f64);
        report.layer("serve.net.decode_rejects", net.decode_rejects as f64);
    }
    report.layer("serve.heavy_p50_us", heavy_p50);
    report.layer("serve.heavy_p99_us", heavy_p99);
    report.layer("serve.max_rps", max_rps);
    report.layer("trace.overhead_ratio", light_p50 / base_p50);

    // Server time per request is only known in aggregate, so the server
    // rows are the phase means; the residual is the network layer.
    let server_queue = vec![request_us - inv.mean_us(); light.log.len()];
    let server_invoke = vec![inv.mean_us(); light.log.len()];
    let band = band_rows(
        &latencies,
        &[
            ("bench.loadgen.late", &lateness),
            ("serve.wire.client_encode", &light.encode_us),
            ("serve.service.queue (mean)", &server_queue),
            ("vm.session.invoke (mean)", &server_invoke),
            ("serve.wire.client_verify", &light.verify_us),
        ],
    );
    report.table = Some(Attribution {
        op: "one request at the light rate, from its due time",
        median_us: median(&latencies),
        rows: band,
        residual_name: "serve.net (sockets, reactor)",
    });
    report.context.push(format!(
        "traced server: {} requests completed over its lifetime",
        net.as_ref().map_or(0, |r| r.stats.completed)
    ));
    report.spans = Some(spans);
    report
}
