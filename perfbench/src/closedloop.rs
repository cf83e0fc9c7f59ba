//! Closed-loop latency: one caller on one keep-alive connection sends a
//! request, waits for its reply and only then sends the next. The server
//! is never asked to queue, so the latency is the cost of one request's
//! path through it, and a few seconds of host slowdown delay the requests
//! they fall on and nothing more. Latency is timed from send.
//!
//! Percentiles are taken per block of [`BLOCK`] consecutive replies; a
//! workload reports the median over its blocks.

use crate::net::{take_reply, Reply};
use crate::openloop::{wait_readable, Sample};
use crate::stats;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Replies per accounting block (ten beyond p99).
pub const BLOCK: usize = 1000;

/// Each block's `permille`-th percentile of latency from send, in ms, in
/// reply order. A short tail joins the last full block; failed requests
/// count as infinitely slow.
pub fn block_percentiles(samples: &[Sample], permille: u32) -> Vec<f64> {
    let latency = |s: &Sample| match (s.done, s.score) {
        (Some(done), Some(_)) => (done - s.sent) as f64 / 1e6,
        _ => f64::INFINITY,
    };
    let blocks = (samples.len() / BLOCK).max(1);
    (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                samples.len()
            } else {
                (b + 1) * BLOCK
            };
            let lat = stats::sorted(samples[b * BLOCK..end].iter().map(latency).collect());
            stats::percentile(&lat, permille)
        })
        .collect()
}

/// Runs one window on a fresh connection to `addr` until `seconds` have
/// passed and at least `min_replies` replies have come back; request `i`
/// carries `pool[(offset + i) % pool.len()]`. A reply missing for `drain`
/// fails its request and ends the window. Samples are in send order.
pub fn run_window(
    addr: &str,
    pool: &[Vec<u8>],
    offset: usize,
    seconds: f64,
    min_replies: usize,
    drain: Duration,
) -> Vec<Sample> {
    let mut conn = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
    conn.set_nodelay(true).expect("TCP_NODELAY");
    let start = Instant::now();
    let until = Duration::from_secs_f64(seconds);
    let since = || start.elapsed().as_nanos() as u64;
    let mut samples: Vec<Sample> = Vec::new();
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    while start.elapsed() < until || samples.len() < min_replies {
        let query = (offset + samples.len()) % pool.len();
        let sent = since();
        samples.push(Sample {
            due: sent,
            sent,
            done: None,
            query,
            score: None,
        });
        if conn.write_all(&pool[query]).is_err() {
            break;
        }
        let reply = loop {
            match take_reply(&mut buf) {
                Ok(Some(reply)) => break Some(reply),
                Ok(None) => {}
                Err(_) => break None,
            }
            if !wait_readable(&conn, drain) {
                break None;
            }
            match conn.read(&mut chunk) {
                Ok(0) | Err(_) => break None,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        };
        let Some(Reply { status, body }) = reply else {
            break;
        };
        let last = samples.last_mut().expect("just pushed");
        last.done = Some(since());
        if status == 200 {
            last.score = crate::net::parse_score(&body);
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn sample(sent: u64, took: u64) -> Sample {
        Sample {
            due: sent,
            sent,
            done: Some(sent + took),
            query: 0,
            score: Some(1.0),
        }
    }

    #[test]
    fn a_stall_moves_one_block_not_the_median() {
        // Three blocks at 1 ms a reply; twenty 50 ms stalls, all in the
        // second block.
        let samples: Vec<Sample> = (0..3000)
            .map(|i| {
                let took = if (1000..1020).contains(&i) {
                    50 * MS
                } else {
                    MS
                };
                sample(i as u64 * 60 * MS, took)
            })
            .collect();
        let p99s = block_percentiles(&samples, 990);
        assert_eq!(p99s, vec![1.0, 50.0, 1.0]);
        assert_eq!(stats::median(&p99s), 1.0);
        assert_eq!(stats::median(&block_percentiles(&samples, 500)), 1.0);
    }

    #[test]
    fn a_short_tail_joins_the_last_block_and_failures_are_infinitely_slow() {
        let mut samples: Vec<Sample> = (0..2500).map(|i| sample(i * 2 * MS, MS)).collect();
        for s in &mut samples[2484..] {
            s.done = None;
        }
        let p99s = block_percentiles(&samples, 990);
        assert_eq!(p99s.len(), 2);
        assert_eq!(p99s[0], 1.0);
        assert!(p99s[1].is_infinite(), "16 of 1500 failed: past p99");
        assert_eq!(block_percentiles(&samples[..10], 500), vec![1.0]);
    }
}
