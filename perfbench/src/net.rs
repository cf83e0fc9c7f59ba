//! Minimal HTTP/1.1 client pieces: one-shot GETs for probes and scrapes,
//! request rendering, and an incremental `Content-Length` response framer
//! for pipelined connections.

use hics_serve::ClientConn;
use std::time::Duration;

/// One framed response: status and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Takes one complete response off the front of `buf`, if it holds one.
/// `Err` on a malformed head (the connection is then unusable).
pub fn take_reply(buf: &mut Vec<u8>) -> Result<Option<Reply>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut len = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err("unexpected chunked response".into());
            }
        }
    }
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_end + 4..total].to_vec();
    buf.drain(..total);
    Ok(Some(Reply { status, body }))
}

/// `GET path` on a fresh connection; the reply, or `None` on any failure.
pub fn get(addr: &str, path: &str, timeout: Duration) -> Option<Reply> {
    let mut conn = ClientConn::connect(addr, timeout).ok()?;
    let r = conn.request("GET", path, None, timeout).ok()?;
    Some(Reply {
        status: r.status,
        body: r.body,
    })
}

/// `GET /metrics` parsed; panics if the server does not answer, since
/// every traced figure depends on it.
pub fn scrape(addr: &str) -> crate::promtext::Scrape {
    let reply = get(addr, "/metrics", Duration::from_secs(10))
        .unwrap_or_else(|| panic!("GET /metrics on {addr} failed"));
    assert_eq!(reply.status, 200, "GET /metrics on {addr}");
    crate::promtext::Scrape::parse(&String::from_utf8_lossy(&reply.body))
        .unwrap_or_else(|e| panic!("unparsable /metrics from {addr}: {e}"))
}

/// A JSON array of `row` with every value in shortest round-trip form, so
/// the server parses back the exact bits.
pub fn json_row(row: &[f64]) -> String {
    let mut s = String::with_capacity(row.len() * 20 + 2);
    s.push('[');
    for (j, v) in row.iter().enumerate() {
        if j > 0 {
            s.push(',');
        }
        hics_serve::json::write_f64(&mut s, *v);
    }
    s.push(']');
    s
}

/// A keep-alive single-point `POST /score` request.
pub fn score_request(row: &[f64]) -> Vec<u8> {
    let body = format!("{{\"point\":{}}}", json_row(row));
    format!(
        "POST /score HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The score in a `{"score":x}` body, bit-exact.
pub fn parse_score(body: &[u8]) -> Option<f64> {
    let text = std::str::from_utf8(body).ok()?.trim();
    let rest = text.strip_prefix("{\"score\":")?;
    rest.strip_suffix('}')?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framer_splits_pipelined_replies_and_waits_for_partial_ones() {
        let mut buf = b"HTTP/1.1 200 OK\r\nContent-Length: 13\r\n\r\n{\"score\":1.5}\
HTTP/1.1 400 Bad Request\r\ncontent-length: 2\r\n\r\n{}HTTP/1.1 200 OK\r\nContent-Len"
            .to_vec();
        let a = take_reply(&mut buf).unwrap().unwrap();
        assert_eq!((a.status, parse_score(&a.body)), (200, Some(1.5)));
        let b = take_reply(&mut buf).unwrap().unwrap();
        assert_eq!((b.status, b.body.as_slice()), (400, &b"{}"[..]));
        assert_eq!(take_reply(&mut buf).unwrap(), None);
        assert!(buf.starts_with(b"HTTP/1.1 200"));
    }

    #[test]
    fn scores_round_trip_bit_exactly() {
        for v in [0.1 + 0.2, 1e-300, 123456.789, 7.897798511346106] {
            let mut s = String::from("{\"score\":");
            hics_serve::json::write_f64(&mut s, v);
            s.push('}');
            assert_eq!(
                parse_score(s.as_bytes()).map(f64::to_bits),
                Some(v.to_bits())
            );
        }
        assert_eq!(json_row(&[0.5, 2.0]), "[0.5,2]");
    }
}
