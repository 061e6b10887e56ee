//! Child processes: run one `ssdrec` command to completion under a
//! timeout, or keep an `ssdrec serve` alive behind a guard that kills it on
//! every exit path. Peak memory is the kernel's high-water mark (`VmHWM`)
//! polled from `/proc/<pid>/status`.

use std::fs::{self, File};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http;

/// What one finished command left behind.
#[derive(Debug)]
pub struct Finished {
    /// Everything it printed to standard output.
    pub stdout: String,
    /// Spawn-to-exit wall time.
    pub wall: Duration,
    /// Highest `VmHWM` seen while it ran, KiB (0 if it exited before the
    /// first poll).
    pub peak_rss_kib: u64,
}

/// `VmHWM` of a live process in KiB; `None` once it is gone.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Start `bin args…` in `dir` with its output going to `<dir>/<tag>.out`
/// and `<dir>/<tag>.err`; returns the child and the `.out` path.
fn spawn(bin: &Path, args: &[String], dir: &Path, tag: &str) -> Result<(Child, PathBuf), String> {
    let out_path = dir.join(format!("{tag}.out"));
    let err_path = dir.join(format!("{tag}.err"));
    let out = File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let err = File::create(&err_path).map_err(|e| format!("{}: {e}", err_path.display()))?;
    let child = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    Ok((child, out_path))
}

fn tail_of(path: &Path) -> String {
    let text = fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().rev().take(5).collect();
    lines.into_iter().rev().collect::<Vec<_>>().join(" | ")
}

/// Run `bin args…` in `dir` until it exits, polling its memory high-water
/// mark. A non-zero exit, a spawn failure or running past `timeout` (the
/// child is then killed) is an `Err` carrying the tail of its stderr.
pub fn run(
    bin: &Path,
    args: &[String],
    dir: &Path,
    tag: &str,
    timeout: Duration,
) -> Result<Finished, String> {
    let start = Instant::now();
    let (mut child, out_path) = spawn(bin, args, dir, tag)?;
    let pid = child.id();
    let mut peak = 0u64;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {}
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait for {tag}: {e}"));
            }
        }
        if let Some(kib) = vm_hwm_kib(pid) {
            peak = peak.max(kib);
        }
        let elapsed = start.elapsed();
        if elapsed > timeout {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{tag} timed out after {timeout:?}"));
        }
        // Poll at 1 % of the time run so far, between 0.2 and 5 ms: the
        // exit is seen within 1 % of the command's wall time.
        let nap = (elapsed / 100).clamp(Duration::from_micros(200), Duration::from_millis(5));
        std::thread::sleep(nap);
    };
    let wall = start.elapsed();
    if !status.success() {
        return Err(format!(
            "{tag} exited with {status}: {}",
            tail_of(&dir.join(format!("{tag}.err")))
        ));
    }
    let stdout =
        fs::read_to_string(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    Ok(Finished {
        stdout,
        wall,
        peak_rss_kib: peak,
    })
}

/// A running `ssdrec serve`. Dropping it kills the process and reaps it,
/// so no exit path — error return or panic — leaves a server behind.
pub struct Server {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    tag: String,
}

impl Server {
    /// Start `bin args…`, wait for its `serving on http://…` line and then
    /// for the first 200 on `/health`.
    pub fn start(
        bin: &Path,
        args: &[String],
        dir: &Path,
        tag: &str,
        timeout: Duration,
    ) -> Result<Server, String> {
        let start = Instant::now();
        let (child, out_path) = spawn(bin, args, dir, tag)?;
        // From here on the guard owns the child: every `?` below kills it.
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            tag: tag.to_string(),
        };
        loop {
            if let Some(addr) = fs::read_to_string(&out_path)
                .ok()
                .as_deref()
                .and_then(listening_addr)
            {
                server.addr = addr;
                break;
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "{tag} exited with {status} before listening: {}",
                    tail_of(&dir.join(format!("{tag}.err")))
                ));
            }
            if start.elapsed() > timeout {
                return Err(format!("{tag} did not listen within {timeout:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        loop {
            if let Ok((200, _)) = http::request(server.addr, "GET", "/health", "") {
                return Ok(server);
            }
            if start.elapsed() > timeout {
                return Err(format!("{tag} not healthy within {timeout:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The server's memory high-water mark so far, KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        vm_hwm_kib(self.child.id()).unwrap_or(0)
    }

    /// Ask the server to stop (`POST /shutdown`) and wait for it to exit
    /// cleanly; returns its final memory high-water mark in KiB.
    pub fn shutdown(mut self, timeout: Duration) -> Result<u64, String> {
        let peak = self.peak_rss_kib();
        // The process may exit before the connection thread has written the
        // reply, so only a reply that did arrive is held to being a 200; the
        // clean exit below is what counts.
        if let Ok((status, _)) = http::request(self.addr, "POST", "/shutdown", "") {
            if status != 200 {
                return Err(format!("{}: /shutdown answered {status}", self.tag));
            }
        }
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(st)) if st.success() => return Ok(peak),
                Ok(Some(st)) => return Err(format!("{} exited with {st}", self.tag)),
                Ok(None) if start.elapsed() > timeout => {
                    return Err(format!("{} did not stop within {timeout:?}", self.tag))
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("wait for {}: {e}", self.tag)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Already-exited children make both calls no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The address in a `serving on http://HOST:PORT` line, if one is there.
fn listening_addr(stdout: &str) -> Option<SocketAddr> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("serving on http://"))
        .and_then(|a| a.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_high_water_mark_line() {
        let status = "Name:\tssdrec\nVmPeak:\t  9000 kB\nVmHWM:\t    4321 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(4321));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert!(vm_hwm_kib(std::process::id()).unwrap() > 0);
    }

    #[test]
    fn finds_the_listening_address() {
        let out = "loaded checkpoint m.ssdt (SSDRec[SASRec])\nserving on http://127.0.0.1:40997\n  GET  /health\n";
        assert_eq!(
            listening_addr(out),
            Some("127.0.0.1:40997".parse().unwrap())
        );
        assert_eq!(listening_addr("loaded checkpoint\n"), None);
        assert_eq!(listening_addr("serving on http://127.0.0.1:"), None);
    }

    #[test]
    fn runs_commands_and_reports_failures_and_timeouts() {
        // Beside the test binary, i.e. inside the build's target directory.
        let exe = std::env::current_exe().unwrap();
        let dir = exe
            .parent()
            .unwrap()
            .join(format!("proc-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let sh = Path::new("/bin/sh");
        let args = |s: &str| vec!["-c".to_string(), s.to_string()];
        let ok = run(sh, &args("echo hello"), &dir, "ok", Duration::from_secs(5)).unwrap();
        assert_eq!(ok.stdout, "hello\n");
        let bad = run(
            sh,
            &args("echo oops >&2; exit 3"),
            &dir,
            "bad",
            Duration::from_secs(5),
        );
        assert!(bad.unwrap_err().contains("oops"));
        let slow = run(
            sh,
            &args("exec sleep 5"),
            &dir,
            "slow",
            Duration::from_millis(50),
        );
        assert!(slow.unwrap_err().contains("timed out"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
