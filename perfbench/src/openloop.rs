//! Open-loop load generation with due-time accounting.
//!
//! Requests are due on a fixed schedule (`i / rate` seconds after the rung
//! starts) and are sent when due, whether or not earlier ones have been
//! answered: each lane pipelines requests on its own keep-alive
//! connection, so a server stall grows a queue instead of silently slowing
//! the client down. Latency is timed from when a request was **due**, which
//! charges a stall to every request that queued behind it. How late the
//! generator itself sent (`sent − due`) is recorded separately: a rung where
//! the generator fell behind is reported invalid, not failed, so client
//! saturation is never read as server saturation.
//!
//! Percentiles are taken per block of [`BLOCK`] consecutive requests and a
//! rung reports the median over its blocks: on a shared machine a few
//! milliseconds of descheduling land in one block and would otherwise set
//! a whole rung's tail.

use crate::net::{take_reply, Reply};
use crate::stats;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// What happened to one request, in nanoseconds from the rung start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the schedule said to send it.
    pub due: u64,
    /// When the generator actually sent it.
    pub sent: u64,
    /// When its reply was read; `None` if it never came.
    pub done: Option<u64>,
    /// Index into the request pool (for checking the reply).
    pub query: usize,
    /// The scored value of a 200 reply, `None` otherwise.
    pub score: Option<f64>,
}

/// Fixed verdict inputs of a rung.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// The p99 latency limit, ms.
    pub p99_ms: f64,
    /// Generator lateness (p99 of `sent − due`) above which a rung is
    /// invalid, ms.
    pub lag_ms: f64,
    /// Connections (lanes) in use; each may hold one reply in flight at
    /// the end of a rung without that counting as backlog.
    pub lanes: usize,
}

/// Requests per accounting block. Each block reports its own p50, p99 and
/// generator-lateness p99 (1 000 samples put ten beyond p99); a rung
/// reports the median over its blocks, so one episode of scheduling noise
/// moves one block, not the rung.
pub const BLOCK: usize = 1000;

/// The accounting of one rung.
#[derive(Debug, Clone)]
pub struct RungStats {
    pub rate: f64,
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
    /// All due-time latencies, ascending; failures are `+∞`.
    pub latency_ms: Vec<f64>,
    /// Blocks the rung was accounted in.
    pub blocks: usize,
    /// Median over blocks of each block's p50 latency.
    pub p50_ms: f64,
    /// Median over blocks of each block's p99 latency.
    pub p99_ms: f64,
    /// Median over blocks of each block's p99 of `sent − due`.
    pub lag_ms_p99: f64,
    /// Replies per second from the rung start to the last reply.
    pub achieved_rps: f64,
    /// Requests unanswered when the last one was sent.
    pub backlog: usize,
}

impl RungStats {
    /// Accounts a rung's samples (any order).
    pub fn from_samples(rate: f64, samples: &[Sample]) -> Self {
        assert!(!samples.is_empty(), "a rung sends at least one request");
        let ms = |ns: u64| ns as f64 / 1e6;
        let latency = |s: &Sample| match (s.done, s.score) {
            (Some(done), Some(_)) => ms(done.saturating_sub(s.due)),
            _ => f64::INFINITY,
        };
        let mut by_due: Vec<&Sample> = samples.iter().collect();
        by_due.sort_by_key(|s| s.due);
        // Consecutive blocks of BLOCK requests; a short tail joins the last
        // full block, and a rung shorter than one block is one block.
        let blocks = (by_due.len() / BLOCK).max(1);
        let (mut p50s, mut p99s, mut lags) = (Vec::new(), Vec::new(), Vec::new());
        for b in 0..blocks {
            let end = if b + 1 == blocks {
                by_due.len()
            } else {
                (b + 1) * BLOCK
            };
            let block = &by_due[b * BLOCK..end];
            let lat = stats::sorted(block.iter().map(|s| latency(s)).collect());
            let lag = stats::sorted(
                block
                    .iter()
                    .map(|s| ms(s.sent.saturating_sub(s.due)))
                    .collect(),
            );
            p50s.push(stats::percentile(&lat, 500));
            p99s.push(stats::percentile(&lat, 990));
            lags.push(stats::percentile(&lag, 990));
        }
        let ok = samples
            .iter()
            .filter(|s| s.done.is_some() && s.score.is_some())
            .count();
        let last_sent = samples.iter().map(|s| s.sent).max().unwrap_or(0);
        let last_done = samples.iter().filter_map(|s| s.done).max().unwrap_or(0);
        let backlog = samples
            .iter()
            .filter(|s| s.done.is_none_or(|d| d > last_sent))
            .count();
        Self {
            rate,
            sent: samples.len(),
            ok,
            failed: samples.len() - ok,
            latency_ms: stats::sorted(samples.iter().map(latency).collect()),
            blocks,
            p50_ms: stats::median(&p50s),
            p99_ms: stats::median(&p99s),
            lag_ms_p99: stats::median(&lags),
            achieved_rps: if last_done > 0 {
                ok as f64 / (last_done as f64 / 1e9)
            } else {
                0.0
            },
            backlog,
        }
    }

    /// The generator kept to its schedule.
    pub fn valid(&self, limits: &Limits) -> bool {
        self.lag_ms_p99 <= limits.lag_ms
    }

    /// No failures, p99 within the limit, and no queue left growing: at
    /// the last send no more requests are waiting than the limit allows to
    /// arrive (`rate × limit`) plus one per lane.
    pub fn passed(&self, limits: &Limits) -> bool {
        let allowed = (self.rate * limits.p99_ms / 1000.0).ceil() as usize + limits.lanes;
        self.failed == 0 && self.p99_ms <= limits.p99_ms && self.backlog <= allowed
    }
}

/// Runs one rung: `rate × seconds` requests over `lanes` connections to
/// `addr`, request `i` carrying `pool[(offset + i) % pool.len()]`. Replies
/// still missing `drain` after the last send count as failures.
pub fn run_rung(
    addr: &str,
    pool: &[Vec<u8>],
    offset: usize,
    rate: f64,
    seconds: f64,
    lanes: usize,
    drain: Duration,
) -> Vec<Sample> {
    let count = ((rate * seconds).round() as usize).max(lanes);
    let interval_ns = 1e9 / rate;
    let conns: Vec<TcpStream> = (0..lanes)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
            s.set_nodelay(true).expect("TCP_NODELAY");
            s
        })
        .collect();
    // A short lead so every lane is parked on its first due time.
    let start = Instant::now() + Duration::from_millis(20);
    let mut out = Vec::with_capacity(count);
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(lane, conn)| {
                let schedule = (lane..count).step_by(lanes).map(move |i| {
                    let query = (offset + i) % pool.len();
                    ((i as f64 * interval_ns) as u64, query)
                });
                scope.spawn(move || run_lane(conn, pool, schedule.collect(), start, drain))
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("load lane panicked"));
        }
    });
    out
}

/// Nanoseconds since `start` (0 before it).
fn since(start: Instant) -> u64 {
    Instant::now()
        .checked_duration_since(start)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// One lane: sends each `(due, query)` when due on `conn`, reading replies
/// in between; FIFO replies match requests in send order.
fn run_lane(
    mut conn: TcpStream,
    pool: &[Vec<u8>],
    schedule: Vec<(u64, usize)>,
    start: Instant,
    drain: Duration,
) -> Vec<Sample> {
    let mut samples: Vec<Sample> = Vec::with_capacity(schedule.len());
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0usize;
    let mut drain_until: Option<u64> = None;
    let mut broken = false;
    while !broken && (next < schedule.len() || !waiting.is_empty()) {
        let mut now = since(start);
        while next < schedule.len() && schedule[next].0 <= now {
            let (due, query) = schedule[next];
            if conn.write_all(&pool[query]).is_err() {
                broken = true;
                break;
            }
            samples.push(Sample {
                due,
                sent: since(start),
                done: None,
                query,
                score: None,
            });
            waiting.push_back(samples.len() - 1);
            next += 1;
            now = since(start);
        }
        if broken {
            break;
        }
        let wait_ns = if next < schedule.len() {
            schedule[next].0.saturating_sub(now)
        } else {
            let until = *drain_until.get_or_insert(now + drain.as_nanos() as u64);
            if now >= until {
                break;
            }
            until - now
        };
        if !wait_readable(&conn, Duration::from_nanos(wait_ns)) {
            continue;
        }
        match conn.read(&mut chunk) {
            Ok(0) | Err(_) => broken = true,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
        let done = since(start);
        loop {
            match take_reply(&mut buf) {
                Ok(Some(Reply { status, body })) => {
                    let Some(slot) = waiting.pop_front() else {
                        broken = true;
                        break;
                    };
                    samples[slot].done = Some(done);
                    if status == 200 {
                        samples[slot].score = crate::net::parse_score(&body);
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
    }
    // Anything never sent on a broken connection is still a failed request.
    for &(due, query) in &schedule[next..] {
        samples.push(Sample {
            due,
            sent: due,
            done: None,
            query,
            score: None,
        });
    }
    samples
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits up to `wait` (nanosecond resolution) for `conn` to be readable.
pub fn wait_readable(conn: &TcpStream, wait: Duration) -> bool {
    let mut pfd = PollFd {
        fd: conn.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live locals for the whole call, `nfds` is
    // 1 to match the single `PollFd`, and a null signal mask leaves the
    // thread's mask unchanged.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    rc > 0 && pfd.revents != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// A FIFO server on one connection: request `i` finishes
    /// `service(i)` after both its send and the previous request's finish.
    fn fifo(due: &[u64], sent: &[u64], service: impl Fn(usize) -> u64) -> Vec<Sample> {
        let mut free = 0u64;
        due.iter()
            .zip(sent)
            .enumerate()
            .map(|(i, (&due, &sent))| {
                free = free.max(sent) + service(i);
                Sample {
                    due,
                    sent,
                    done: Some(free),
                    query: i,
                    score: Some(1.0),
                }
            })
            .collect()
    }

    const LIMITS: Limits = Limits {
        p99_ms: 2.0,
        lag_ms: 1.0,
        lanes: 1,
    };

    #[test]
    fn a_stall_is_charged_to_every_request_queued_behind_it() {
        // 1000 req/s; the first request takes 10 ms, the rest 0.1 ms.
        let due: Vec<u64> = (0..1000).map(|i| i * MS).collect();
        let samples = fifo(&due, &due, |i| if i == 0 { 10 * MS } else { MS / 10 });
        let r = RungStats::from_samples(1000.0, &samples);
        // Request 1 was due at 1 ms and answered at 10.1 ms.
        assert!(r.latency_ms.contains(&9.1));
        // Timed from send on a free connection it would read 0.1 ms; from
        // its due time the stall spreads over the ten requests behind it.
        let over_1ms = r.latency_ms.iter().filter(|&&l| l > 1.0).count();
        assert_eq!(over_1ms, 10);
        assert!(stats::percentile(&r.latency_ms, 999) > 1.0);
        assert_eq!(r.blocks, 1);
        assert!(r.valid(&LIMITS), "the generator itself was on time");
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn a_late_generator_marks_the_rung_invalid_and_still_counts_from_due() {
        let due: Vec<u64> = (0..1000).map(|i| i * MS).collect();
        // The generator sent every 50th request 5 ms late.
        let sent: Vec<u64> = due
            .iter()
            .enumerate()
            .map(|(i, &d)| if i % 50 == 0 { d + 5 * MS } else { d })
            .collect();
        let samples = fifo(&due, &sent, |_| MS / 10);
        let r = RungStats::from_samples(1000.0, &samples);
        assert_eq!(r.lag_ms_p99, 5.0);
        assert!(!r.valid(&LIMITS));
        assert_eq!(r.latency_ms.last().copied(), Some(5.1));
    }

    #[test]
    fn one_noisy_block_does_not_set_the_rung_tail() {
        // Five blocks; the third holds a 40 ms stall.
        let due: Vec<u64> = (0..5000).map(|i| i * MS / 4).collect();
        let samples = fifo(&due, &due, |i| if i == 2500 { 40 * MS } else { MS / 10 });
        let r = RungStats::from_samples(4000.0, &samples);
        assert_eq!(r.blocks, 5);
        assert!(stats::percentile(&r.latency_ms, 990) > 10.0);
        assert_eq!(r.p99_ms, 0.1);
        assert_eq!(r.p50_ms, 0.1);
        assert!(r.passed(&LIMITS));
    }

    #[test]
    fn failures_and_growing_backlog_fail_the_rung() {
        let due: Vec<u64> = (0..1000).map(|i| i * MS).collect();
        let healthy = RungStats::from_samples(1000.0, &fifo(&due, &due, |_| MS / 10));
        assert!(healthy.passed(&LIMITS));
        assert!(
            (healthy.achieved_rps - 1000.0).abs() < 2.0,
            "{}",
            healthy.achieved_rps
        );

        // Service slower than arrivals: the queue grows without bound.
        let overloaded = RungStats::from_samples(1000.0, &fifo(&due, &due, |_| 2 * MS));
        assert!(overloaded.backlog > 400, "{}", overloaded.backlog);
        assert!(!overloaded.passed(&LIMITS));
        assert!((overloaded.achieved_rps - 500.0).abs() < 5.0);

        let mut lost = fifo(&due, &due, |_| MS / 10);
        lost[3].done = None;
        let r = RungStats::from_samples(1000.0, &lost);
        assert_eq!((r.ok, r.failed), (999, 1));
        assert!(!r.passed(&LIMITS));
    }
}
