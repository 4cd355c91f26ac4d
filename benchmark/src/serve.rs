//! `serve_mux`: an open-loop load generator driving the multiplexed
//! front end over its TCP line protocol.
//!
//! One generator thread sends 8-row `QUERY` requests on a fixed schedule
//! over two pipelined connections; one receiver thread polls both and
//! checks every reply bytewise against `predict_serial`. Each request is
//! timed from when it was due, so a stall also charges the requests
//! queued behind it.

use crate::gen::{SERVE_D, SERVE_K, SERVE_REQUESTS, SERVE_ROWS};
use crate::report::{kernel_sizes, Report};
use crate::spans::Spans;
use crate::stats::{median, percentile, sorted, summarize};
use crate::train::SETUP_REPS;
use crate::{sys, Args};
use knor_core::{Algorithm, KernelKind};
use knor_matrix::io::read_matrix;
use knor_matrix::DMatrix;
use knor_mpi::net::{poll_fds, PollFd};
use knor_serve::{predict_serial, MuxConfig, MuxServer, ServeConfig, ServeHandle};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered request rates, requests/s, ascending. `BENCHMARK.json` states
/// the same ladder in `serve_mux`'s description, and the run refuses to
/// start if the two disagree. The rungs are densest around the highest
/// rate that met the objective on a 2-vCPU host (36000 to 48000/s).
pub const LADDER: [u32; 12] =
    [4000, 8000, 12000, 18000, 24000, 28000, 32000, 36000, 40000, 44000, 48000, 56000];
/// The rung whose latency is the end-to-end query latency: under half the
/// highest rate that meets the objective. On a 2-vCPU host each coalesced
/// batch there holds ~320 rows, and a request's median latency of ~2.3 ms
/// is ~1 ms of waiting for the coalescer's 2 ms deadline plus the parse,
/// kernel, reply and front-end work that a slower build would lengthen.
/// At 20000/s that work set the latency more, but host slow periods moved
/// its median by up to 50% between runs.
pub const NOMINAL: u32 = 18000;
/// A rung meets the objective when its p99 stays within this limit.
pub const P99_LIMIT_MS: f64 = 50.0;
/// A request still unanswered this long after its rung's last send is a
/// timeout.
const DRAIN: Duration = Duration::from_secs(2);
const CONNS: usize = 2;
const MODEL: &str = "m";
/// In-process predict calls made at the observed coalesced batch size.
const PROBE_CALLS: usize = 300;

/// The load settings as `BENCHMARK.json` must state them.
pub fn ladder_text() -> String {
    let rates: Vec<String> = LADDER.iter().map(|r| r.to_string()).collect();
    format!("rates {}/s, nominal {NOMINAL}/s, p99 limit {P99_LIMIT_MS} ms", rates.join("/"))
}

struct Server {
    handle: ServeHandle,
    mux: MuxServer,
    conns: Vec<TcpStream>,
}

fn connect(mux: &MuxServer) -> io::Result<Vec<TcpStream>> {
    (0..CONNS)
        .map(|_| {
            let c = TcpStream::connect(mux.addr())?;
            c.set_nodelay(true)?;
            Ok(c)
        })
        .collect()
}

/// Bind the front end, register the model and connect the clients.
fn start(model: &DMatrix, nthreads: usize) -> io::Result<Server> {
    let handle = ServeHandle::start(ServeConfig::default().with_threads(nthreads));
    handle.register_model(MODEL, Algorithm::Lloyd, model.clone());
    let mux = MuxServer::bind(handle.clone(), "127.0.0.1:0", MuxConfig::default())?;
    let conns = connect(&mux)?;
    Ok(Server { handle, mux, conns })
}

/// What one rung of offered load saw.
#[derive(Default)]
struct Rung {
    rate: u32,
    sent: u64,
    ok: u64,
    busy: u64,
    mismatched: u64,
    timeouts: u64,
    /// Due-to-reply latency of every request, ms; failures read +inf
    /// so they count as missing any limit.
    lat_ms: Vec<f64>,
    /// How late the generator sent each request, ms.
    lag_ms: Vec<f64>,
    /// Requests still unanswered when the last one was sent.
    backlog: usize,
    /// Rows answered ÷ coalesced kernel batches during the stretch.
    coalesced_rows: f64,
}

impl Rung {
    fn failed(&self) -> u64 {
        self.sent - self.ok
    }

    fn p(&self, q: f64) -> f64 {
        percentile(&sorted(&self.lat_ms), q)
    }

    /// Within the latency limit, nothing failed, and the backlog at the
    /// end of sending is what the limit allows at this rate (Little's law).
    fn meets_objective(&self) -> bool {
        let allowed = (self.rate as f64 * P99_LIMIT_MS / 1e3).max(CONNS as f64);
        self.failed() == 0 && self.p(99.0) <= P99_LIMIT_MS && (self.backlog as f64) <= allowed
    }

    /// Fold another stretch at the same rate into this one.
    fn absorb(&mut self, r: Rung) {
        self.sent += r.sent;
        self.ok += r.ok;
        self.busy += r.busy;
        self.mismatched += r.mismatched;
        self.timeouts += r.timeouts;
        self.lat_ms.extend(r.lat_ms);
        self.lag_ms.extend(r.lag_ms);
        self.backlog = self.backlog.max(r.backlog);
        self.coalesced_rows = self.coalesced_rows.max(r.coalesced_rows);
    }

    fn render(&self) -> String {
        format!(
            "rung {:>5}/s: sent {} ok {} failed {} (busy {}, mismatched {}, timeouts {}); \
             latency ms {}, p99 {:.4}; backlog {}; coalesced rows mean {:.1}; \
             generator lag p99 {:.3} ms; {}",
            self.rate,
            self.sent,
            self.ok,
            self.failed(),
            self.busy,
            self.mismatched,
            self.timeouts,
            summarize(&self.lat_ms).render(),
            self.p(99.0),
            self.backlog,
            self.coalesced_rows,
            percentile(&sorted(&self.lag_ms), 99.0),
            if self.meets_objective() { "meets objective" } else { "misses objective" }
        )
    }
}

/// Offer `rate` requests/s for `dur`; wait for every reply (or `DRAIN`).
/// Requests still unanswered then are timeouts, and the clients reconnect
/// so that their late replies cannot reach the next stretch.
fn run_rung(
    server: &mut Server,
    requests: &[Vec<u8>],
    expected: &[Vec<u8>],
    rate: u32,
    dur: Duration,
    spans: &Spans,
    parent: Option<usize>,
) -> io::Result<Rung> {
    let before = server.handle.stats(MODEL).expect("model stats");
    let conns = &server.conns;
    let count = ((rate as f64 * dur.as_secs_f64()).round() as usize).max(1);
    let period_ns = 1e9 / rate as f64;
    let inflight: Vec<Mutex<VecDeque<(usize, u64)>>> =
        (0..CONNS).map(|_| Mutex::new(VecDeque::new())).collect();
    let sending = AtomicBool::new(true);
    let t0 = Instant::now();
    let now_ns = || t0.elapsed().as_nanos() as u64;
    let span_base = spans.now_ns();

    let mut rung = std::thread::scope(|s| {
        let recv = s.spawn(|| {
            let mut rung = Rung { rate, ..Rung::default() };
            let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); CONNS];
            let mut chunk = vec![0u8; 64 * 1024];
            let mut deadline = None;
            let mut open = [true; CONNS];
            loop {
                let idle = inflight.iter().all(|q| q.lock().unwrap().is_empty());
                if !sending.load(Ordering::Acquire) {
                    if idle {
                        break;
                    }
                    let d = *deadline.get_or_insert_with(|| Instant::now() + DRAIN);
                    if Instant::now() >= d {
                        break;
                    }
                }
                let live: Vec<usize> = (0..CONNS).filter(|&c| open[c]).collect();
                let mut fds: Vec<PollFd> =
                    live.iter().map(|&c| PollFd::read(conns[c].as_raw_fd())).collect();
                if live.is_empty() || poll_fds(&mut fds, 20).is_err() {
                    break;
                }
                for (&c, f) in live.iter().zip(&fds) {
                    if !(f.readable || f.closed) {
                        continue;
                    }
                    let got = match (&conns[c]).read(&mut chunk) {
                        Ok(0) | Err(_) => {
                            open[c] = false; // the server hung up
                            continue;
                        }
                        Ok(g) => g,
                    };
                    let at = now_ns();
                    bufs[c].extend_from_slice(&chunk[..got]);
                    let mut start = 0;
                    while let Some(nl) = bufs[c][start..].iter().position(|&b| b == b'\n') {
                        let line = &bufs[c][start..start + nl];
                        start += nl + 1;
                        let Some((idx, due)) = inflight[c].lock().unwrap().pop_front() else {
                            rung.mismatched += 1; // a reply nobody asked for
                            continue;
                        };
                        let lat = (at.saturating_sub(due)) as f64 / 1e6;
                        if line == expected[idx % expected.len()].as_slice() {
                            rung.ok += 1;
                            rung.lat_ms.push(lat);
                            spans.record("query", parent, span_base + due, span_base + at);
                        } else {
                            if line.starts_with(b"ERR BUSY") {
                                rung.busy += 1;
                            } else {
                                rung.mismatched += 1;
                            }
                            rung.lat_ms.push(f64::INFINITY);
                        }
                    }
                    bufs[c].drain(..start);
                }
            }
            for q in &inflight {
                let left = q.lock().unwrap().len() as u64;
                rung.timeouts += left;
                rung.lat_ms.extend(std::iter::repeat_n(f64::INFINITY, left as usize));
            }
            rung
        });

        let mut lag_ms = Vec::with_capacity(count);
        let mut sent = 0u64;
        for i in 0..count {
            let due = (i as f64 * period_ns) as u64;
            let now = now_ns();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            lag_ms.push(now_ns().saturating_sub(due) as f64 / 1e6);
            let c = i % CONNS;
            inflight[c].lock().unwrap().push_back((i, due));
            if (&conns[c]).write_all(&requests[i % requests.len()]).is_err() {
                inflight[c].lock().unwrap().pop_back();
                break;
            }
            sent += 1;
        }
        let backlog: usize = inflight.iter().map(|q| q.lock().unwrap().len()).sum();
        sending.store(false, Ordering::Release);
        let mut rung = recv.join().expect("receiver thread");
        rung.sent = sent;
        rung.lag_ms = lag_ms;
        rung.backlog = backlog;
        rung
    });
    let after = server.handle.stats(MODEL).expect("model stats");
    rung.coalesced_rows = (after.queries - before.queries) as f64
        / (after.coalesced_batches - before.coalesced_batches).max(1) as f64;
    if rung.timeouts > 0 {
        drop(std::mem::take(&mut server.conns));
        server.conns = connect(&server.mux)?;
    }
    Ok(rung)
}

/// Format the request pool and the reply each request must get back,
/// from `predict_serial` with the protocol's `{:?}` float formatting.
fn request_pool(server: &Server, queries: &DMatrix) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let entry = server.handle.registry().get(MODEL).expect("model registered");
    let d = queries.ncol();
    let block = SERVE_ROWS * d;
    let mut requests = Vec::with_capacity(SERVE_REQUESTS);
    let mut expected = Vec::with_capacity(SERVE_REQUESTS);
    for rows in queries.as_slice().chunks_exact(block) {
        let mut line = format!("QUERY {MODEL} {SERVE_ROWS} {d}");
        for x in rows {
            line.push_str(&format!(" {x:?}"));
        }
        line.push('\n');
        requests.push(line.into_bytes());
        let p = predict_serial(&entry.model, rows, d);
        let mut reply = format!("OK {}", p.assignments.len());
        for (a, dist) in p.assignments.iter().zip(&p.distances) {
            reply.push_str(&format!(" {a}:{dist:?}"));
        }
        expected.push(reply.into_bytes());
    }
    (requests, expected)
}

fn record_failures(rep: &mut Report, r: &Rung) {
    rep.attempted += r.sent;
    rep.failed += r.failed();
    rep.mismatches += r.mismatched;
}

pub fn run(args: &Args, dir: &Path, spans: &Spans) -> io::Result<Report> {
    let nthreads = sys::nproc();
    let mut rep = Report::default();
    let root = spans.begin("run", None);

    let mut read_s = Vec::new();
    let mut read = || -> io::Result<(DMatrix, DMatrix)> {
        let t = Instant::now();
        let sp = spans.begin("matrix.read", Some(root));
        let m = read_matrix(&dir.join("model.knor"))?;
        let q = read_matrix(&dir.join("queries.knor"))?;
        spans.end(sp);
        read_s.push(t.elapsed().as_secs_f64());
        Ok((m, q))
    };
    let (model, queries) = read()?;
    assert_eq!((model.nrow(), model.ncol()), (SERVE_K, SERVE_D));
    if args.trace {
        for _ in 1..SETUP_REPS {
            read()?;
        }
        rep.set("matrix.read_s", median(&read_s));
    }

    // Set-up: server bind, model registration and client connects,
    // repeated on fresh instances; the last one serves the load.
    let mut setup_s = Vec::new();
    let mut timed_start = || -> io::Result<Server> {
        let sp = spans.begin("setup", Some(root));
        let t = Instant::now();
        let server = start(&model, nthreads)?;
        setup_s.push(t.elapsed().as_secs_f64());
        spans.end(sp);
        Ok(server)
    };
    for _ in 1..SETUP_REPS {
        stop(timed_start()?);
    }
    let mut server = timed_start()?;
    let (requests, expected) = request_pool(&server, &queries);

    let resolved = knor_serve::resolve_predict_kernel(KernelKind::Auto, SERVE_K, SERVE_D).kind;
    rep.fact("workload", "serve_mux");
    rep.fact("seed", args.seed);
    rep.fact("nproc", nthreads);
    rep.fact("shape", format!("model k={SERVE_K} d={SERVE_D}; {SERVE_ROWS} rows per QUERY"));
    rep.fact("kernel", format!("auto resolves to {}", resolved.name()));
    rep.fact(
        "load",
        format!("open loop, 1 generator thread, {CONNS} pipelined connections; {}", ladder_text()),
    );
    let input_bytes: u64 = requests.iter().map(|r| r.len() as u64).sum();
    rep.fact("input_bytes", format!("{input_bytes} B of request text in the pool"));
    if let Some(llc) = sys::llc_bytes() {
        rep.fact("llc", format!("{llc} B"));
    }

    let secs = args.seconds;
    let cpu0 = sys::cpu_s();
    if !args.trace {
        // Half the window at the nominal rate; the rest climbs the ladder
        // until a rung misses the objective.
        let nominal = run_rung(
            &mut server,
            &requests,
            &expected,
            NOMINAL,
            Duration::from_secs_f64(secs / 2.0),
            spans,
            None,
        )?;
        rep.line(nominal.render());
        record_failures(&mut rep, &nominal);
        rep.set("op_p50_ms", nominal.p(50.0));
        rep.line(format!(
            "query_p50_ms {} ms, query_p99_ms {} ms at {NOMINAL}/s",
            nominal.p(50.0),
            nominal.p(99.0)
        ));
        // Peak memory at the nominal rate; the overload rungs above it
        // buffer backlogs no nominal user pays for.
        rep.set("peak_rss_mb", sys::peak_rss_mb());
        let rung_dur = Duration::from_secs_f64(secs / 2.0 / (LADDER.len() - 1) as f64);
        let mut best = 0;
        for &rate in LADDER.iter() {
            let r = if rate == NOMINAL {
                None
            } else {
                // More set-ups on throwaway instances, spread over the
                // run: the set-up takes under a millisecond, and the host
                // shifts steps that short by a third for a second at a
                // time.
                for _ in 0..SETUP_REPS {
                    stop(timed_start()?);
                }
                Some(run_rung(&mut server, &requests, &expected, rate, rung_dur, spans, None)?)
            };
            let r = r.as_ref().unwrap_or(&nominal);
            if rate != NOMINAL {
                rep.line(r.render());
                rep.mismatches += r.mismatched;
            }
            if !r.meets_objective() {
                break;
            }
            best = rate;
        }
        rep.line(format!(
            "max_qps_slo {best} requests/s \
             (p99 <= {P99_LIMIT_MS} ms, no failures, no growing backlog)"
        ));
        rep.line(format!("process CPU {:.3} s", sys::cpu_s() - cpu0));
    } else {
        // Untraced and traced halves at the nominal rate, alternated.
        let quarter = Duration::from_secs_f64(secs / 4.0);
        let mut plain = Rung { rate: NOMINAL, ..Rung::default() };
        let mut traced = Rung { rate: NOMINAL, ..Rung::default() };
        for _ in 0..2 {
            let untraced = Spans::new(false);
            let a = run_rung(&mut server, &requests, &expected, NOMINAL, quarter, &untraced, None)?;
            let sp = spans.begin("rung.traced", Some(root));
            let b = run_rung(&mut server, &requests, &expected, NOMINAL, quarter, spans, Some(sp))?;
            spans.end(sp);
            record_failures(&mut rep, &a);
            record_failures(&mut rep, &b);
            plain.absorb(a);
            traced.absorb(b);
        }
        rep.line(format!("untraced {}", plain.render()));
        rep.line(format!("traced   {}", traced.render()));
        rep.set("process.cpu_s", sys::cpu_s() - cpu0);
        rep.set("trace.overhead_frac", traced.p(50.0) / plain.p(50.0) - 1.0);
        rep.set("gen.lag_ms_p99", percentile(&sorted(&plain.lag_ms), 99.0));
        rep.set("serve.busy_frac", plain.busy as f64 / plain.sent.max(1) as f64);
        let snap = server.handle.stats(MODEL).expect("model stats");
        rep.set("serve.coalesced_rows_mean", snap.coalesced_mean);
        rep.line(format!("server stats: {}", snap.render()));
        let dist = (snap.queries * SERVE_K as u64) as f64;
        let (flops, bytes) = kernel_sizes(dist, SERVE_D);
        rep.set("kernel.dist_evals", dist);
        rep.set("kernel.flops_computed", flops);
        rep.set("kernel.bytes_computed", bytes);

        // In-process predict at the batch size the coalescer achieved.
        let m = (snap.coalesced_mean.round() as usize).clamp(1, SERVE_REQUESTS * SERVE_ROWS);
        let probe = "probe";
        server.handle.register_model(probe, Algorithm::Lloyd, model.clone());
        let entry = server.handle.registry().get(probe).expect("probe registered");
        let rows = &queries.as_slice()[..m * SERVE_D];
        let mut call_us = Vec::new();
        let mut phase_us: [Vec<f64>; 4] = Default::default();
        let sp = spans.begin("predict.probe", Some(root));
        for _ in 0..PROBE_CALLS {
            let before = entry.stats.phase_ns();
            let t = Instant::now();
            server
                .handle
                .predict_rows_with(probe, rows, SERVE_D, KernelKind::Auto)
                .expect("in-process predict");
            call_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            let after = entry.stats.phase_ns();
            for i in 0..4 {
                phase_us[i].push((after[i] - before[i]) as f64 / 1e3);
            }
        }
        spans.end(sp);
        let [_, dispatch, kernel, reply] = phase_us.map(|v| median(&v));
        rep.set("serve.probe_rows", m as f64);
        rep.set("serve.dispatch_us", dispatch);
        rep.set("serve.kernel_us", kernel);
        rep.set("serve.reply_us", reply);
        rep.set("kernel.ns_per_dist", kernel * 1e3 / (m * SERVE_K) as f64);
        let in_proc_us = median(&call_us);
        rep.set("serve.frontend_us", plain.p(50.0) * 1e3 - in_proc_us);
        rep.line(format!(
            "in-process predict of {m} rows: {} us \
             (dispatch {dispatch:.1}, kernel {kernel:.1}, reply {reply:.1})",
            summarize(&call_us).render()
        ));
    }
    spans.end(root);
    rep.set("setup_s", median(&setup_s));
    let setup_ms: Vec<f64> = setup_s.iter().map(|s| s * 1e3).collect();
    rep.line(format!("setup_ms: {}", summarize(&setup_ms).render()));
    if args.trace {
        rep.line(format!("benchmark span self times (s): {:?}", spans.self_time_s()));
    }
    stop(server);
    Ok(rep)
}

fn stop(s: Server) {
    drop(s.conns);
    s.mux.stop();
}
