//! serve-mixed: open loop from one generator at a fixed offered rate over
//! at most two keep-alive connections, against an in-process server.
//! Requests `POST /v1/discover` a warehouse document drawn Zipf-skewed
//! from a seeded pool four times larger than the result cache holds, so
//! hot documents hit and the tail misses and evicts.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use discoverxfd::report::render_json;
use discoverxfd::{discover, DiscoveryConfig};
use xfd_datagen::{warehouse_scaled, WarehouseSpec};
use xfd_server::{Server, ServerConfig, ServerHandle};
use xfd_xml::parse;

use crate::check::digest;
use crate::http::{Conn, Response};
use crate::layers::{traced_metrics, Counts};
use crate::metrics::{MetricSet, Samples};
use crate::trace::{Tracer, OP};
use crate::work::{derive_seed, ms, Ctx, Outcome, Rng, Timings};

/// Keep-alive connections the generator may hold open.
pub const CONNECTIONS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Shards of the server's result cache; a shard keeps only whole reports
/// within its share of the budget.
const CACHE_SHARDS: usize = 8;
/// Rendered report of a pool document: 3.6-3.7 KB on every seed tried.
pub const REPORT_BYTES: usize = 3700;
/// Share of requests an ideal cache holding the most popular documents
/// would answer. LRU over eight shards and first-touch misses lose about
/// 0.1 of it in a 55 s run, leaving about three quarters hits: the median
/// request is a hit on every seed and a quarter reach discovery.
pub const HIT_TARGET: f64 = 0.85;
/// Percentile of `op_ms.tail` and of the generator lag's tail.
pub const OP_TAIL_PCT: f64 = 95.0;
/// A request that takes longer than this has failed.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Reports the result cache holds at `budget` bytes.
pub fn cached_reports(budget: usize) -> usize {
    CACHE_SHARDS * (budget / CACHE_SHARDS / REPORT_BYTES)
}

/// Distinct documents in the pool: four times what the cache holds, so
/// the working set is larger than the cache.
pub fn pool_size(budget: usize) -> usize {
    4 * cached_reports(budget)
}

/// The Zipf exponent at which the `cached` most popular of `pool`
/// documents draw `HIT_TARGET` of the requests: solves
/// H(cached, s) / H(pool, s) = HIT_TARGET by bisection (the share rises
/// with s, from cached / pool at s = 0).
pub fn zipf_s(pool: usize, cached: usize) -> f64 {
    let harmonic = |n: usize, s: f64| (1..=n).map(|k| (k as f64).powf(-s)).sum::<f64>();
    let (mut lo, mut hi) = (0.0, 8.0);
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if harmonic(cached, mid) / harmonic(pool, mid) < HIT_TARGET {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

/// One warehouse-like document of the pool (about 40 KB of XML).
pub fn pool_doc(seed: u64) -> String {
    xfd_xml::to_xml_string(&warehouse_scaled(&WarehouseSpec {
        states: 6,
        stores_per_state: 4,
        books_per_store: 9,
        seed,
        ..WarehouseSpec::default()
    }))
}

/// How one response counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// A 200 whose report differs from the in-process one.
    Wrong,
    /// An error, timeout or non-200 status (including 503).
    Failed,
}

pub fn judge(response: &std::io::Result<Response>, expected: u64) -> Verdict {
    match response {
        Ok(r) if r.status == 200 => {
            if digest(&String::from_utf8_lossy(&r.body)) == expected {
                Verdict::Ok
            } else {
                Verdict::Wrong
            }
        }
        _ => Verdict::Failed,
    }
}

struct Record {
    latency_ms: f64,
    lag_ms: f64,
    verdict: Verdict,
    cache_hit: bool,
    traced: bool,
}

struct Running {
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
    addr: SocketAddr,
}

impl Running {
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

fn server_config(ctx: &Ctx) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        result_cache_budget: ctx.sizes.serve_cache_budget,
        request_timeout: TIMEOUT,
        discovery: DiscoveryConfig::default(),
        ..ServerConfig::default()
    }
}

/// Set-up as `setup_s` measures it: from `Server::bind` to the first 200.
fn start(ctx: &Ctx, first: &[u8]) -> Result<(Running, Duration), String> {
    let t = Instant::now();
    let server = Server::bind(server_config(ctx)).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let running = Running {
        handle,
        thread,
        addr,
    };
    let mut conn = Conn::connect(addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    match conn.request("POST", "/v1/discover", first) {
        Ok(r) if r.status == 200 => Ok((running, t.elapsed())),
        other => {
            let status = other
                .map(|r| r.status.to_string())
                .unwrap_or_else(|e| e.to_string());
            let _ = running.stop();
            Err(format!("first request did not succeed: {status}"))
        }
    }
}

/// `/metrics` as `name{labels} -> value`.
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let mut conn = Conn::connect(addr, TIMEOUT).map_err(|e| e.to_string())?;
    let r = conn
        .request("GET", "/metrics", b"")
        .map_err(|e| e.to_string())?;
    Ok(String::from_utf8_lossy(&r.body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, prefix: &str) -> f64 {
    let sum = |m: &BTreeMap<String, f64>| {
        m.iter()
            .filter(|(k, _)| k.as_str() == prefix || k.starts_with(&format!("{prefix}{{")))
            .map(|(_, v)| v)
            .sum::<f64>()
    };
    sum(after) - sum(before)
}

/// Arrival offsets of `rate × seconds` requests over `seconds`: uniform
/// order statistics, i.e. a Poisson process conditioned on its count, so
/// every seed offers the same load. Each request's document is drawn Zipf
/// (exponent `s`) over the pool by rank.
fn schedule(seed: u64, rate: f64, seconds: f64, pool: usize, s: f64) -> Vec<(Duration, usize)> {
    let mut rng = Rng::new(derive_seed(seed, 1 << 30));
    let weights: Vec<f64> = (1..=pool).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let n = (rate * seconds).round() as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    times
        .into_iter()
        .map(|t| {
            let mut u = rng.unit() * total;
            let doc = weights
                .iter()
                .position(|w| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(pool - 1);
            (Duration::from_secs_f64(t), doc)
        })
        .collect()
}

/// Drive the schedule from `CONNECTIONS` threads. Each request is timed
/// from its due time, so a stalled connection delays later requests and
/// the delay counts.
fn drive(
    addr: SocketAddr,
    docs: &Arc<Vec<Vec<u8>>>,
    expected: &Arc<Vec<u64>>,
    plan: Vec<(Duration, usize)>,
    traced_from: Duration,
    tracer: &Arc<Mutex<Tracer>>,
) -> Vec<Record> {
    let plan = Arc::new(plan);
    let next = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let threads: Vec<_> = (0..CONNECTIONS)
        .map(|_| {
            let (plan, next, docs, expected, tracer) = (
                Arc::clone(&plan),
                Arc::clone(&next),
                Arc::clone(docs),
                Arc::clone(expected),
                Arc::clone(tracer),
            );
            std::thread::spawn(move || {
                let mut conn: Option<Conn> = None;
                let mut records = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&(offset, doc)) = plan.get(i) else {
                        return records;
                    };
                    let due = start + offset;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let response = match conn.take() {
                        Some(c) => Ok(c),
                        None => Conn::connect(addr, TIMEOUT),
                    }
                    .and_then(|mut c| {
                        let r = c.request("POST", "/v1/discover", &docs[doc])?;
                        Ok((c, r))
                    })
                    .map(|(c, r)| {
                        if !r.close {
                            conn = Some(c);
                        }
                        r
                    });
                    let done = Instant::now();
                    let traced = offset >= traced_from;
                    if traced {
                        let mut t = tracer.lock().expect("tracer lock poisoned");
                        let op = t.record(OP, due, done, None);
                        t.record("server.request", sent, done, op);
                    }
                    records.push(Record {
                        latency_ms: ms(done - due),
                        lag_ms: ms(sent.saturating_duration_since(due)),
                        verdict: judge(&response, expected[doc]),
                        cache_hit: response
                            .as_ref()
                            .is_ok_and(|r| r.header("X-Cache") == Some("hit")),
                        traced,
                    });
                }
            })
        })
        .collect();
    threads
        .into_iter()
        .flat_map(|t| t.join().expect("generator thread panicked"))
        .collect()
}

/// The set-ups after the first, as `setup_s` measures them: `n` fresh
/// servers bound beside the timed phase at even intervals over it, so
/// their median spans the machine's speed changes as the operation metrics
/// do (the set-ups add about 0.5% to a light load). Each one's first
/// request is another pool document, so the median is not one document's
/// discovery cost.
fn spread_setups(
    ctx: &Ctx,
    docs: &[Vec<u8>],
    started: Instant,
    n: usize,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(n);
    for i in 1..=n {
        let due = started + Duration::from_secs_f64(ctx.seconds * i as f64 / (n + 1) as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let (server, took) = start(ctx, &docs[i % docs.len()])?;
        server.stop()?;
        out.push(took.as_secs_f64());
    }
    Ok(out)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let sizes = &ctx.sizes;
    let cached = cached_reports(sizes.serve_cache_budget);
    let zipf = zipf_s(pool_size(sizes.serve_cache_budget), cached);
    let xml: Vec<String> = (0..pool_size(sizes.serve_cache_budget))
        .map(|i| pool_doc(derive_seed(ctx.seed, i as u64)))
        .collect();
    // The in-process report of every pool document, computed in set-up.
    let mut expected = Vec::with_capacity(xml.len());
    let mut report_bytes = 0usize;
    for x in &xml {
        let tree = parse(x).map_err(|e| format!("pool document does not parse: {e}"))?;
        let json = render_json(&discover(&tree, &DiscoveryConfig::default()));
        report_bytes += json.len();
        expected.push(digest(&json));
    }
    let mut out = Outcome::default();
    out.notes.push(format!(
        "pool: {} documents, {} bytes of XML, {} bytes of reports ({} a report); cache budget \
         {} bytes, about {cached} reports; Zipf s {zipf:.3}; offered {} req/s over \
         {CONNECTIONS} connections; {WORKERS} workers ({} sizes, seed {})",
        xml.len(),
        xml.iter().map(String::len).sum::<usize>(),
        report_bytes,
        report_bytes / xml.len().max(1),
        sizes.serve_cache_budget,
        sizes.serve_rate,
        sizes.name,
        ctx.seed
    ));
    let docs: Arc<Vec<Vec<u8>>> = Arc::new(xml.iter().map(|x| x.clone().into_bytes()).collect());
    let expected = Arc::new(expected);

    let mut timings = Timings::new(OP_TAIL_PCT);
    let (running, took) = start(ctx, &docs[0])?;
    timings.setup_s.push(took.as_secs_f64());

    let before = scrape(running.addr)?;
    let plan = schedule(ctx.seed, sizes.serve_rate, ctx.seconds, docs.len(), zipf);
    let traced_from = if ctx.trace {
        Duration::from_secs_f64(ctx.seconds / 2.0)
    } else {
        Duration::MAX
    };
    let tracer = Arc::new(Mutex::new(Tracer::new(ctx.trace)));
    let extra_setups = if ctx.trace { 0 } else { sizes.serve_setups - 1 };
    let started = Instant::now();
    let (records, more_setups) = std::thread::scope(|scope| {
        let setups = scope.spawn(|| spread_setups(ctx, &docs, started, extra_setups));
        let records = drive(running.addr, &docs, &expected, plan, traced_from, &tracer);
        (records, setups.join())
    });
    timings.end_phase(started);
    for took in more_setups.map_err(|_| "set-up thread panicked")?? {
        timings.setup_s.push(took);
    }
    let after = scrape(running.addr)?;

    let tracer = Arc::try_unwrap(tracer)
        .map_err(|_| "tracer still shared")?
        .into_inner()
        .map_err(|_| "tracer lock poisoned")?;
    running.stop()?;

    let mut lag = Samples::default();
    let mut traced_ms = Samples::default();
    let mut hits = 0usize;
    for r in &records {
        out.tally.attempted += 1;
        match r.verdict {
            Verdict::Ok => {
                timings.completed += 1;
                hits += usize::from(r.cache_hit);
            }
            Verdict::Wrong => out.tally.wrong += 1,
            Verdict::Failed => out.tally.errors += 1,
        }
        // A failed request misses any latency limit: it counts as the
        // longest wait the client would accept.
        let latency = if r.verdict == Verdict::Failed {
            ms(TIMEOUT)
        } else {
            r.latency_ms
        };
        if r.traced {
            traced_ms.push(latency);
        } else {
            timings.op_ms.push(latency);
        }
        lag.push(r.lag_ms);
    }
    if out.tally.wrong > 0 {
        out.problems.push(format!(
            "{} responses differ from the in-process report",
            out.tally.wrong
        ));
    }

    out.metrics = if ctx.trace {
        let runs = delta(&before, &after, "discoverxfd_runs_total").max(1.0);
        let mut direct = MetricSet::default();
        let ok = timings.completed.max(1) as f64;
        direct.put("server.result_cache_hit_ratio", hits as f64 / ok, "ratio");
        let evictions = delta(&before, &after, "discoverxfd_result_cache_evictions_total");
        direct.put("server.result_cache_evictions", evictions, "count");
        let parse_free = delta(&before, &after, "discoverxfd_parse_free_hits_total");
        direct.put("server.parse_free_hits", parse_free, "count");
        let rejected = delta(&before, &after, "discoverxfd_http_rejected_total");
        direct.put("server.rejected", rejected, "count");
        for (stage, name) in [
            ("infer", "server.stage_s_per_run.infer"),
            ("encode", "server.stage_s_per_run.encode"),
            ("discover", "server.stage_s_per_run.discover"),
            ("redundancy", "server.stage_s_per_run.redundancy"),
        ] {
            let key = format!("discoverxfd_stage_seconds_total{{stage=\"{stage}\"}}");
            let secs = after.get(&key).unwrap_or(&0.0) - before.get(&key).unwrap_or(&0.0);
            direct.put(name, secs / runs, "s");
        }
        let lag = lag.summary(OP_TAIL_PCT);
        direct.put("bench.gen_lag_ms.p50", lag.p50, "ms");
        direct.put("bench.gen_lag_ms.tail", lag.tail, "ms");
        traced_metrics(
            ctx,
            &tracer,
            &Counts::default(),
            &timings.op_ms,
            &traced_ms,
            direct,
            &mut out.notes,
        )?
    } else {
        let lag = lag.summary(OP_TAIL_PCT);
        out.notes.push(format!(
            "generator lag p50 {:.3} ms, {} {:.3} ms; result-cache hits {hits} of {}, {} evictions",
            lag.p50,
            lag.describe_tail(),
            lag.tail,
            timings.completed,
            delta(&before, &after, "discoverxfd_result_cache_evictions_total")
        ));
        timings.metrics(&out.tally, &mut out.notes)
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, body: &str) -> std::io::Result<Response> {
        Ok(Response {
            status,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            close: false,
        })
    }

    #[test]
    fn a_503_counts_as_a_failure() {
        let body = "{\n  \"fds\": [\n  ],\n  \"stats\": {}\n}\n";
        let expected = digest(body);
        assert_eq!(judge(&response(200, body), expected), Verdict::Ok);
        assert_eq!(judge(&response(503, body), expected), Verdict::Failed);
        assert_eq!(judge(&response(200, "{}"), expected), Verdict::Wrong);
        let timeout = Err(std::io::Error::new(std::io::ErrorKind::TimedOut, "slow"));
        assert_eq!(judge(&timeout, expected), Verdict::Failed);
    }

    #[test]
    fn schedule_is_seeded_and_skewed() {
        let a = schedule(7, 100.0, 5.0, 10, 1.1);
        assert_eq!(a, schedule(7, 100.0, 5.0, 10, 1.1));
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        let first = a.iter().filter(|(_, d)| *d == 0).count();
        let last = a.iter().filter(|(_, d)| *d == 9).count();
        assert!(first > 3 * last);
    }

    #[test]
    fn the_most_popular_cached_reports_draw_the_hit_target() {
        let (pool, cached) = (pool_size(128 << 10), cached_reports(128 << 10));
        assert_eq!((pool, cached), (128, 32));
        let s = zipf_s(pool, cached);
        let share = |n: usize| (1..=n).map(|k| (k as f64).powf(-s)).sum::<f64>();
        assert!(
            (share(cached) / share(pool) - HIT_TARGET).abs() < 1e-9,
            "{s}"
        );
    }
}
