//! Server processes: spawning the shipped `hics` binary, timing set-up to
//! the first healthy probe, and reading `/proc/<pid>` from outside.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Give up on a server that is not healthy after this long.
const START_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `hics serve` / `hics route` process, killed and reaped on
/// drop.
pub struct Server {
    child: Child,
    pub addr: String,
    /// Spawn to first `200` on `/healthz`.
    pub setup: Duration,
}

impl Server {
    /// Spawns `hics <args> --addr 127.0.0.1:0`, waits for the listen line
    /// on stdout and then for `/healthz` to answer 200. Output goes to
    /// `<log>.out` / `<log>.err`.
    pub fn spawn(hics: &Path, args: &[String], log: &Path) -> Self {
        let out_path = log.with_extension("out");
        let err_path = log.with_extension("err");
        let out = std::fs::File::create(&out_path).expect("create server stdout log");
        let err = std::fs::File::create(&err_path).expect("create server stderr log");
        let t0 = Instant::now();
        let child = Command::new(hics)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", hics.display()));
        let mut server = Server {
            child,
            addr: String::new(),
            setup: Duration::ZERO,
        };
        server.addr = server.await_listen_line(&out_path, &err_path, t0);
        while crate::net::get(&server.addr, "/healthz", Duration::from_secs(5))
            .is_none_or(|r| r.status != 200)
        {
            server.check_alive(&err_path, t0);
            std::thread::sleep(Duration::from_millis(1));
        }
        server.setup = t0.elapsed();
        server
    }

    fn await_listen_line(&mut self, out: &Path, err: &Path, t0: Instant) -> String {
        loop {
            let text = std::fs::read_to_string(out).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .filter(|l| l.contains(" on http://"))
                .find_map(|l| l.split("http://").nth(1))
                .and_then(|rest| rest.split_whitespace().next())
            {
                return addr.to_string();
            }
            self.check_alive(err, t0);
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn check_alive(&mut self, err: &Path, t0: Instant) {
        if let Ok(Some(status)) = self.child.try_wait() {
            let log = std::fs::read_to_string(err).unwrap_or_default();
            panic!("server exited during set-up ({status}): {log}");
        }
        assert!(
            t0.elapsed() < START_TIMEOUT,
            "server not healthy after {START_TIMEOUT:?}"
        );
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU seconds the process has used so far.
    pub fn cpu_seconds(&self) -> f64 {
        cpu_seconds(self.pid())
    }

    /// Threads the process runs right now.
    pub fn threads(&self) -> usize {
        std::fs::read_dir(format!("/proc/{}/task", self.pid())).map_or(0, |d| d.count())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// utime + stime of `pid` from `/proc/<pid>/stat`, in seconds.
pub fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after `) `.
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11..13).map_or(0.0, |f| {
        f.iter().filter_map(|v| v.parse::<f64>().ok()).sum()
    });
    // SAFETY: sysconf only reads a process-wide configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    ticks / if hz > 0 { hz as f64 } else { 100.0 }
}

/// A scratch directory for one run, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(parent: &Path, workload: &str) -> Self {
        let dir = parent.join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        WorkDir(dir)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_cpu_time_is_readable_and_grows() {
        let before = cpu_seconds(std::process::id());
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds(std::process::id()) > before);
    }
}
