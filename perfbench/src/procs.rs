//! Server processes: spawn, find, measure, stop.
//!
//! Every server runs in a process group of its own, so the group can
//! be killed in one call along with any children it spawned (the
//! cluster's nodes). [`Server`] kills and reaps its group on drop,
//! which covers every exit path including panics.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::{self, Conn};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const SIGKILL: i32 = 9;

/// SIGKILLs every process in group `pgid`.
fn kill_group(pgid: i32) {
    // kill(-1) would signal every process we may signal; a group id
    // of ours is always a spawned child's pid, so it is > 1.
    if pgid > 1 {
        // SAFETY: kill(2) takes two plain integers and touches no
        // memory of this process.
        unsafe {
            kill(-pgid, SIGKILL);
        }
    }
}

/// Restricts thread `tid` (0: the calling thread) to CPU `cpu`.
///
/// # Errors
///
/// The OS error when the CPU does not exist or may not be used.
pub fn pin_to_cpu(tid: i32, cpu: usize) -> std::io::Result<()> {
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| std::io::Error::other("cpu index out of range"))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` lives across the call and its byte length is
    // passed with it; the kernel only reads it.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// The lowest CPU this process may run on.
#[must_use]
pub fn first_allowed_cpu() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = text
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim()
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// `(pid, state, ppid, pgrp)` of one `/proc/<pid>/stat`.
fn stat(pid: i32) -> Option<(char, i32, i32)> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &text[text.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace();
    let state = fields.next()?.chars().next()?;
    let ppid = fields.next()?.parse().ok()?;
    let pgrp = fields.next()?.parse().ok()?;
    Some((state, ppid, pgrp))
}

fn all_pids() -> Vec<i32> {
    std::fs::read_dir("/proc")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Live (non-zombie) processes in group `pgid`.
#[must_use]
pub fn live_in_group(pgid: i32) -> Vec<i32> {
    all_pids()
        .into_iter()
        .filter(|&pid| matches!(stat(pid), Some((state, _, pgrp)) if pgrp == pgid && state != 'Z'))
        .collect()
}

/// Live children of `parent`.
#[must_use]
pub fn children(parent: i32) -> Vec<i32> {
    all_pids()
        .into_iter()
        .filter(
            |&pid| matches!(stat(pid), Some((state, ppid, _)) if ppid == parent && state != 'Z'),
        )
        .collect()
}

fn status_field(pid: i32, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// `(steal, total)` jiffies of the whole machine from `/proc/stat`.
#[must_use]
pub fn cpu_times() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time the hypervisor stole between two [`cpu_times`]
/// readings: a diagnostic for noisy neighbours on shared hosts.
#[must_use]
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Resident set size of `pid`, in MiB.
#[must_use]
pub fn rss_mib(pid: i32) -> f64 {
    status_field(pid, "VmRSS:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Thread count of `pid`.
#[must_use]
pub fn threads(pid: i32) -> u64 {
    status_field(pid, "Threads:").unwrap_or(0)
}

/// The value following `flag` on `pid`'s command line.
#[must_use]
pub fn cmdline_value(pid: i32, flag: &str) -> Option<String> {
    let raw = std::fs::read(format!("/proc/{pid}/cmdline")).ok()?;
    let args: Vec<&[u8]> = raw.split(|&b| b == 0).collect();
    let at = args.iter().position(|a| *a == flag.as_bytes())?;
    args.get(at + 1)
        .map(|v| String::from_utf8_lossy(v).into_owned())
}

/// The loopback TCP port `pid` listens on.
#[must_use]
pub fn listen_port(pid: i32) -> Option<u16> {
    let inodes: Vec<String> = std::fs::read_dir(format!("/proc/{pid}/fd"))
        .ok()?
        .filter_map(|e| {
            let target = std::fs::read_link(e.ok()?.path()).ok()?;
            let t = target.to_str()?;
            Some(t.strip_prefix("socket:[")?.strip_suffix(']')?.to_string())
        })
        .collect();
    let table = std::fs::read_to_string("/proc/net/tcp").ok()?;
    table.lines().skip(1).find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        // f[1] local address, f[3] state (0A = LISTEN), f[9] inode.
        if f.len() > 9 && f[3] == "0A" && inodes.iter().any(|i| i == f[9]) {
            u16::from_str_radix(f[1].rsplit(':').next()?, 16).ok()
        } else {
            None
        }
    })
}

/// A server process group under this process's control.
#[derive(Debug)]
pub struct Server {
    child: Option<Child>,
    pgid: i32,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

/// How long a server may take to print its listening banner.
const BANNER_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a graceful shutdown may take before the group is killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(15);

impl Server {
    /// Spawns `command` in a new process group, on CPU `cpu` alone when
    /// given, and waits for its `listening on ADDR` banner on stderr.
    /// Stderr keeps draining on a thread until the process exits.
    ///
    /// # Errors
    ///
    /// A message when the spawn fails or no banner arrives in time.
    pub fn spawn(mut command: Command, cpu: Option<usize>) -> Result<Server, String> {
        if let Some(cpu) = cpu {
            // SAFETY: the hook runs in the forked child before exec and
            // makes one system call, which is async-signal-safe.
            unsafe {
                command.pre_exec(move || pin_to_cpu(0, cpu));
            }
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .process_group(0)
            .spawn()
            .map_err(|e| format!("cannot spawn {command:?}: {e}"))?;
        let pgid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
        let stderr = child.stderr.take();
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let Some(stderr) = stderr else { return };
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.split("listening on ").nth(1) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }
        });
        let mut server = Server {
            child: Some(child),
            pgid,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        let banner = rx
            .recv_timeout(BANNER_TIMEOUT)
            .map_err(|_| format!("{command:?} printed no listening banner"))?;
        server.addr = banner
            .parse()
            .map_err(|e| format!("bad listening address {banner:?}: {e}"))?;
        Ok(server)
    }

    /// The address the server listens on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's pid (also its process group id).
    #[must_use]
    pub fn pid(&self) -> i32 {
        self.pgid
    }

    /// Every live process of the group: the server and its children.
    #[must_use]
    pub fn pids(&self) -> Vec<i32> {
        live_in_group(self.pgid)
    }

    /// Asks the server to stop with a v1 `shutdown`, waits for the
    /// group to exit, and kills it if it does not in time.
    ///
    /// # Errors
    ///
    /// A message when a process of the group survives the kill.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut conn) = Conn::connect(self.addr) {
            let _ = conn.round_trip(&client::line(r#"{"cmd": "shutdown"}"#));
        }
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        if let Some(child) = self.child.as_mut() {
            while Instant::now() < deadline {
                if matches!(child.try_wait(), Ok(Some(_))) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.stop()
    }

    /// Kills the group, reaps the server, joins the stderr reader and
    /// waits until no process of the group is left.
    fn stop(&mut self) -> Result<(), String> {
        kill_group(self.pgid);
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let left = live_in_group(self.pgid);
            if left.is_empty() {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!("processes {left:?} outlived their server"));
            }
            kill_group(self.pgid);
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_a_thread_to_an_allowed_cpu() {
        let cpu = first_allowed_cpu().expect("some cpu is allowed");
        let pinned = std::thread::spawn(move || pin_to_cpu(0, cpu))
            .join()
            .expect("pinning thread");
        assert!(pinned.is_ok(), "{pinned:?}");
        assert!(pin_to_cpu(0, 1 << 20).is_err());
    }

    #[test]
    fn steal_share_is_a_share_of_elapsed_jiffies() {
        assert_eq!(steal_share((10, 1000), (30, 1200)), 0.1);
        assert_eq!(steal_share((10, 1000), (10, 1000)), 0.0);
    }

    #[test]
    fn finds_this_process_in_proc() {
        let me = i32::try_from(std::process::id()).expect("pid fits");
        assert!(rss_mib(me) > 0.0);
        assert!(threads(me) >= 1);
        let (state, _, _) = stat(me).expect("own stat");
        assert_ne!(state, 'Z');
    }
}
