//! Worker-process supervision for the socket-backed transport.
//!
//! [`UdsTransport`](crate::transport::UdsTransport) turns each population
//! segment into a real operating-system process. This module owns the
//! process-management half of that story:
//!
//! * **Spawning.** A [`WorkerSupervisor`] spawns one worker per segment via
//!   a [`WorkerLauncher`] (re-exec the current executable, re-enter a named
//!   test in the current test binary — the classic fork-through-libtest
//!   trick — or an explicit command line). Configuration travels through
//!   `DPDE_UDS_*` environment variables; [`maybe_run_worker`] at the top of
//!   a `main` (or inside a dedicated `#[test]`) turns the child into a
//!   worker and never returns.
//! * **Datagram fabric.** Workers and coordinator exchange fixed-size
//!   binary frames over Unix datagram sockets in a per-run temp directory:
//!   a data socket for echo traffic and a control socket for handshakes and
//!   heartbeats, so a flood of echoes can never starve a health check.
//! * **Real death, real recovery.** [`WorkerSupervisor::kill`] SIGKILLs the
//!   child — actual process death commanded by the
//!   [`Adversary`](crate::adversary::Adversary) hooks, not a simulated
//!   crash — and [`WorkerSupervisor::respawn`] restarts it under a bumped
//!   generation, so datagrams from a previous incarnation are discarded
//!   exactly like stale chain generations on the in-proc path.
//! * **Hygiene.** Workers exit on a shutdown frame or after an idle
//!   timeout (no orphans if the coordinator dies); dropping the supervisor
//!   kills every child, reaps it, and removes the socket directory.

use crate::error::io_error;
use crate::Result;
use std::os::unix::net::UnixDatagram;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Frame kinds. An echo request is the coordinator pushing one virtual
/// message through the kernel to the worker owning the destination segment;
/// the worker answers with an echo reply carrying the same sequence number.
pub(crate) const KIND_ECHO_REQ: u8 = 1;
pub(crate) const KIND_ECHO_REPLY: u8 = 2;
pub(crate) const KIND_PING: u8 = 3;
pub(crate) const KIND_PONG: u8 = 4;
pub(crate) const KIND_HELLO: u8 = 5;
pub(crate) const KIND_SHUTDOWN: u8 = 6;

/// Wire size of one frame.
pub(crate) const FRAME_LEN: usize = 32;

/// One fixed-size datagram: kind, worker generation, broker sequence
/// number, endpoints, and the opaque payload. Encoded little-endian by
/// hand — no serde, no allocation, trivially fuzzable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frame {
    pub kind: u8,
    pub gen: u32,
    pub seq: u64,
    pub src: u32,
    pub dst: u32,
    pub payload: u64,
}

impl Frame {
    pub(crate) fn encode(&self) -> [u8; FRAME_LEN] {
        let mut buf = [0u8; FRAME_LEN];
        buf[0] = self.kind;
        buf[4..8].copy_from_slice(&self.gen.to_le_bytes());
        buf[8..16].copy_from_slice(&self.seq.to_le_bytes());
        buf[16..20].copy_from_slice(&self.src.to_le_bytes());
        buf[20..24].copy_from_slice(&self.dst.to_le_bytes());
        buf[24..32].copy_from_slice(&self.payload.to_le_bytes());
        buf
    }

    pub(crate) fn decode(buf: &[u8]) -> Option<Frame> {
        if buf.len() != FRAME_LEN {
            return None;
        }
        let word = |r: std::ops::Range<usize>| -> u64 {
            u64::from_le_bytes(buf[r].try_into().expect("frame slice"))
        };
        let half = |r: std::ops::Range<usize>| -> u32 {
            u32::from_le_bytes(buf[r].try_into().expect("frame slice"))
        };
        Some(Frame {
            kind: buf[0],
            gen: half(4..8),
            seq: word(8..16),
            src: half(16..20),
            dst: half(20..24),
            payload: word(24..32),
        })
    }
}

/// How worker processes are started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerLauncher {
    /// Re-exec the current executable. The host binary must call
    /// [`maybe_run_worker`] at the very top of `main`.
    CurrentExe,
    /// Re-exec the current *test* binary, filtered down to the named test
    /// (full module path) with `--exact`. The named test must consist of a
    /// single call to [`maybe_run_worker`], which makes it a no-op when run
    /// normally and a worker loop when spawned by a supervisor.
    CurrentExeTest(String),
    /// An explicit command line (`argv[0]` plus arguments). The target must
    /// call [`maybe_run_worker`] on startup.
    Command(Vec<String>),
}

impl WorkerLauncher {
    fn command(&self) -> Result<Command> {
        let exe = || std::env::current_exe().map_err(|e| io_error("resolve current executable", e));
        match self {
            WorkerLauncher::CurrentExe => Ok(Command::new(exe()?)),
            WorkerLauncher::CurrentExeTest(test) => {
                let mut cmd = Command::new(exe()?);
                cmd.args([
                    test,
                    "--exact",
                    "--nocapture",
                    "--test-threads=1",
                    "--quiet",
                ]);
                Ok(cmd)
            }
            WorkerLauncher::Command(argv) => {
                let program = argv.first().ok_or(crate::SimError::InvalidConfig {
                    name: "launcher",
                    reason: "command launcher needs at least argv[0]".into(),
                })?;
                let mut cmd = Command::new(program);
                cmd.args(&argv[1..]);
                Ok(cmd)
            }
        }
    }
}

/// Socket-backend tuning: how workers are launched and how long the echo
/// fabric waits for the kernel round-trip before declaring a worker wedged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocketConfig {
    launcher: WorkerLauncher,
    echo_wait_ms: u64,
}

impl SocketConfig {
    /// A socket backend using `launcher`, with the default 2 s echo budget.
    pub fn new(launcher: WorkerLauncher) -> Self {
        SocketConfig {
            launcher,
            echo_wait_ms: 2_000,
        }
    }

    /// Sets the wall-clock budget (milliseconds) for one echo round-trip,
    /// including bounded physical resends. A healthy local worker answers
    /// in microseconds; this budget is only ever spent on dead or wedged
    /// workers, whose segments are then parked.
    pub fn with_echo_wait_ms(mut self, ms: u64) -> Self {
        self.echo_wait_ms = ms.max(1);
        self
    }

    /// The worker launcher.
    pub(crate) fn launcher(&self) -> &WorkerLauncher {
        &self.launcher
    }

    /// The echo round-trip budget in milliseconds.
    pub(crate) fn echo_wait_ms(&self) -> u64 {
        self.echo_wait_ms
    }
}

/// Distinguishes concurrent supervisors inside one process (unit tests).
static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Environment variables a worker reads on startup.
const ENV_SOCKET: &str = "DPDE_UDS_SOCKET";
const ENV_WORKER: &str = "DPDE_UDS_WORKER";
const ENV_GEN: &str = "DPDE_UDS_GEN";
const ENV_COORD: &str = "DPDE_UDS_COORD";
const ENV_CONTROL: &str = "DPDE_UDS_CONTROL";

/// A worker exits after this many seconds without any datagram, so a
/// crashed coordinator cannot leak orphan processes.
const WORKER_IDLE_EXIT: Duration = Duration::from_secs(30);

/// How long `spawn`/`respawn` waits for a worker's HELLO handshake.
const HELLO_WAIT: Duration = Duration::from_secs(10);

struct WorkerSlot {
    child: Option<Child>,
    path: PathBuf,
    alive: bool,
    restarts: u32,
}

/// Spawns, health-checks, kills and restarts the worker processes backing a
/// [`UdsTransport`](crate::transport::UdsTransport) — one worker per
/// population segment.
#[derive(Debug)]
pub struct WorkerSupervisor {
    dir: PathBuf,
    data: UnixDatagram,
    control: UnixDatagram,
    launcher: WorkerLauncher,
    generation: u32,
    workers: Vec<WorkerSlot>,
    next_nonce: u64,
}

impl std::fmt::Debug for WorkerSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerSlot")
            .field("path", &self.path)
            .field("alive", &self.alive)
            .field("restarts", &self.restarts)
            .finish()
    }
}

impl WorkerSupervisor {
    /// Creates the socket directory, binds the coordinator sockets, and
    /// spawns one worker per segment, waiting for each HELLO handshake.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`](crate::SimError::Io) if sockets cannot be
    /// bound, a worker cannot be spawned, or a worker fails to check in.
    pub fn spawn(launcher: WorkerLauncher, segments: usize) -> Result<Self> {
        let dir = socket_dir();
        std::fs::create_dir_all(&dir)
            .map_err(|e| io_error(&format!("create socket dir {}", dir.display()), e))?;
        let data = UnixDatagram::bind(dir.join("coord-data.sock"))
            .map_err(|e| io_error("bind coordinator data socket", e))?;
        data.set_nonblocking(true)
            .map_err(|e| io_error("set data socket non-blocking", e))?;
        let control = UnixDatagram::bind(dir.join("coord-ctl.sock"))
            .map_err(|e| io_error("bind coordinator control socket", e))?;
        control
            .set_read_timeout(Some(Duration::from_millis(200)))
            .map_err(|e| io_error("set control socket timeout", e))?;
        let mut sup = WorkerSupervisor {
            dir,
            data,
            control,
            launcher,
            generation: 1,
            workers: Vec::new(),
            next_nonce: 0,
        };
        for k in 0..segments {
            sup.workers.push(WorkerSlot {
                child: None,
                path: PathBuf::new(),
                alive: false,
                restarts: 0,
            });
            sup.spawn_worker(k)?;
        }
        Ok(sup)
    }

    fn spawn_worker(&mut self, k: usize) -> Result<()> {
        let path = self.dir.join(format!("w{k}-g{}.sock", self.generation));
        let _ = std::fs::remove_file(&path);
        let mut cmd = self.launcher.command()?;
        cmd.env(ENV_SOCKET, &path)
            .env(ENV_WORKER, k.to_string())
            .env(ENV_GEN, self.generation.to_string())
            .env(ENV_COORD, self.dir.join("coord-data.sock"))
            .env(ENV_CONTROL, self.dir.join("coord-ctl.sock"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let child = cmd
            .spawn()
            .map_err(|e| io_error(&format!("spawn worker {k}"), e))?;
        let slot = &mut self.workers[k];
        slot.child = Some(child);
        slot.path = path;
        slot.alive = true;
        self.await_hello(k)
    }

    /// Blocks (bounded) until worker `k` of the current generation says
    /// HELLO on the control socket; other frames are drained and ignored.
    fn await_hello(&mut self, k: usize) -> Result<()> {
        let deadline = Instant::now() + HELLO_WAIT;
        let mut buf = [0u8; FRAME_LEN];
        while Instant::now() < deadline {
            match self.control.recv(&mut buf) {
                Ok(len) => {
                    if let Some(f) = Frame::decode(&buf[..len]) {
                        if f.kind == KIND_HELLO && f.src == k as u32 && f.gen == self.generation {
                            return Ok(());
                        }
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return Err(io_error("recv on control socket", e)),
            }
        }
        Err(io_error(
            &format!("worker {k} handshake"),
            std::io::Error::new(std::io::ErrorKind::TimedOut, "no HELLO within budget"),
        ))
    }

    /// The current worker generation (bumped on every respawn).
    pub(crate) fn generation(&self) -> u32 {
        self.generation
    }

    /// Sends one frame to worker `k`'s socket. The data socket is
    /// non-blocking and Linux caps the datagram queue of a Unix socket
    /// (`net.unix.max_dgram_qlen`, often just 10), so a healthy worker that
    /// is merely behind on draining produces `WouldBlock` — retry briefly
    /// instead of misdiagnosing it as death. Hard errors (socket file gone
    /// after a kill) surface immediately.
    pub(crate) fn send_frame(&self, k: usize, frame: &Frame) -> std::io::Result<()> {
        let buf = frame.encode();
        let deadline = Instant::now() + Duration::from_millis(500);
        loop {
            match self.data.send_to(&buf, &self.workers[k].path) {
                Ok(_) => return Ok(()),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock && Instant::now() < deadline =>
                {
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Single-shot non-blocking send to worker `k` (callers that can drain
    /// echoes between attempts run their own retry loop around this).
    pub(crate) fn try_send_frame(&self, k: usize, frame: &Frame) -> std::io::Result<()> {
        self.data
            .send_to(&frame.encode(), &self.workers[k].path)
            .map(|_| ())
    }

    /// Non-blocking: the next echo reply waiting on the data socket, if any.
    pub(crate) fn try_recv_echo(&self) -> Option<Frame> {
        let mut buf = [0u8; FRAME_LEN];
        loop {
            match self.data.recv(&mut buf) {
                Ok(len) => match Frame::decode(&buf[..len]) {
                    Some(f) if f.kind == KIND_ECHO_REPLY => return Some(f),
                    _ => continue,
                },
                Err(_) => return None,
            }
        }
    }

    /// Health-checks worker `k`: a PING on the control socket answered by a
    /// matching PONG within the timeout. Returns `false` for dead, wedged,
    /// or unreachable workers — never errors.
    pub fn heartbeat(&mut self, k: usize) -> bool {
        if !self.workers[k].alive {
            return false;
        }
        self.next_nonce += 1;
        let ping = Frame {
            kind: KIND_PING,
            gen: self.generation,
            seq: self.next_nonce,
            src: k as u32,
            dst: 0,
            payload: 0,
        };
        if self.send_frame_control(k, &ping).is_err() {
            return false;
        }
        let deadline = Instant::now() + Duration::from_millis(1_000);
        let mut buf = [0u8; FRAME_LEN];
        while Instant::now() < deadline {
            match self.control.recv(&mut buf) {
                Ok(len) => {
                    if let Some(f) = Frame::decode(&buf[..len]) {
                        if f.kind == KIND_PONG && f.seq == self.next_nonce {
                            return true;
                        }
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => return false,
            }
        }
        false
    }

    fn send_frame_control(&self, k: usize, frame: &Frame) -> std::io::Result<()> {
        // Pings go out on the data socket too (the worker has one socket);
        // the *reply* comes back on the control socket, which is what keeps
        // it separate from the echo stream.
        self.send_frame(k, frame)
    }

    /// SIGKILLs worker `k` and reaps it. Idempotent.
    pub(crate) fn kill(&mut self, k: usize) {
        let slot = &mut self.workers[k];
        if let Some(child) = slot.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        slot.child = None;
        slot.alive = false;
        let _ = std::fs::remove_file(&slot.path);
    }

    /// Respawns worker `k` under a bumped generation; frames from the old
    /// incarnation (stale socket, stale echoes) can no longer match.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`](crate::SimError::Io) if the spawn or the
    /// HELLO handshake fails.
    pub fn respawn(&mut self, k: usize) -> Result<()> {
        self.kill(k);
        self.generation += 1;
        self.spawn_worker(k)?;
        self.workers[k].restarts += 1;
        Ok(())
    }
}

impl Drop for WorkerSupervisor {
    fn drop(&mut self) {
        for k in 0..self.workers.len() {
            let shutdown = Frame {
                kind: KIND_SHUTDOWN,
                gen: self.generation,
                seq: 0,
                src: k as u32,
                dst: 0,
                payload: 0,
            };
            let _ = self.send_frame(k, &shutdown);
        }
        for slot in &mut self.workers {
            if let Some(child) = slot.child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Picks a per-run socket directory: short (UDS paths are limited to ~100
/// bytes), unique per process and per supervisor.
fn socket_dir() -> PathBuf {
    let base = std::env::var_os("DPDE_UDS_TMPDIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    base.join(format!(
        "dpde-uds-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Worker entry point. If the `DPDE_UDS_*` environment variables are set,
/// the process becomes a transport worker: it binds its datagram socket,
/// says HELLO on the control socket, then echoes every request back to the
/// coordinator until told to shut down (or until it has been idle long
/// enough to assume the coordinator died) — and **exits the process**.
/// Without the variables it returns immediately, so it is safe (and
/// required) to call unconditionally at the top of any binary or test used
/// as a [`WorkerLauncher`] target.
pub fn maybe_run_worker() {
    let (Some(socket), Some(worker)) = (std::env::var_os(ENV_SOCKET), std::env::var_os(ENV_WORKER))
    else {
        return;
    };
    let code = match run_worker(Path::new(&socket), &worker.to_string_lossy()) {
        Ok(()) => 0,
        Err(_) => 1,
    };
    std::process::exit(code);
}

fn run_worker(socket: &Path, worker: &str) -> std::io::Result<()> {
    let parse = |v: std::ffi::OsString| v.to_string_lossy().parse::<u64>().unwrap_or(0);
    let gen = std::env::var_os(ENV_GEN).map(parse).unwrap_or(0) as u32;
    let me: u32 = worker.parse().unwrap_or(0);
    let coord = std::env::var_os(ENV_COORD)
        .map(PathBuf::from)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "DPDE_UDS_COORD unset"))?;
    let control = std::env::var_os(ENV_CONTROL)
        .map(PathBuf::from)
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "DPDE_UDS_CONTROL unset")
        })?;
    let _ = std::fs::remove_file(socket);
    let sock = UnixDatagram::bind(socket)?;
    sock.set_read_timeout(Some(Duration::from_millis(500)))?;
    let hello = Frame {
        kind: KIND_HELLO,
        gen,
        seq: 0,
        src: me,
        dst: 0,
        payload: 0,
    };
    sock.send_to(&hello.encode(), &control)?;
    let mut buf = [0u8; FRAME_LEN];
    let mut idle_since = Instant::now();
    loop {
        match sock.recv(&mut buf) {
            Ok(len) => {
                idle_since = Instant::now();
                let Some(frame) = Frame::decode(&buf[..len]) else {
                    continue;
                };
                match frame.kind {
                    KIND_ECHO_REQ => {
                        let reply = Frame {
                            kind: KIND_ECHO_REPLY,
                            ..frame
                        };
                        let _ = sock.send_to(&reply.encode(), &coord);
                    }
                    KIND_PING => {
                        let pong = Frame {
                            kind: KIND_PONG,
                            ..frame
                        };
                        let _ = sock.send_to(&pong.encode(), &control);
                    }
                    KIND_SHUTDOWN => return Ok(()),
                    _ => {}
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if idle_since.elapsed() > WORKER_IDLE_EXIT {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worker entry for the fork-through-libtest launcher used below. A
    /// no-op in a normal test run; a worker loop (ending in process exit)
    /// when spawned by a supervisor.
    #[test]
    fn worker_entry() {
        maybe_run_worker();
    }

    fn test_launcher() -> WorkerLauncher {
        WorkerLauncher::CurrentExeTest("supervise::tests::worker_entry".into())
    }

    #[test]
    fn frames_roundtrip_and_reject_short_buffers() {
        let f = Frame {
            kind: KIND_ECHO_REQ,
            gen: 7,
            seq: u64::MAX - 3,
            src: 12,
            dst: 99,
            payload: 0xDEAD_BEEF_CAFE_F00D,
        };
        assert_eq!(Frame::decode(&f.encode()), Some(f));
        assert_eq!(Frame::decode(&f.encode()[..FRAME_LEN - 1]), None);
        assert_eq!(Frame::decode(&[]), None);
    }

    #[test]
    fn socket_config_builders() {
        let cfg = SocketConfig::new(test_launcher()).with_echo_wait_ms(50);
        assert_eq!(cfg.echo_wait_ms(), 50);
        assert_eq!(cfg.launcher(), &test_launcher());
        assert_eq!(SocketConfig::new(test_launcher()).echo_wait_ms(), 2_000);
        // An empty command line is rejected at spawn time.
        assert!(WorkerSupervisor::spawn(WorkerLauncher::Command(vec![]), 1).is_err());
    }

    #[test]
    fn supervisor_spawns_heartbeats_kills_and_respawns() {
        let mut sup = WorkerSupervisor::spawn(test_launcher(), 2).expect("spawn workers");
        let first_gen = sup.generation();
        assert!(sup.heartbeat(0), "fresh worker 0 answers a ping");
        assert!(sup.heartbeat(1), "fresh worker 1 answers a ping");

        // Echo round-trip through the kernel.
        let req = Frame {
            kind: KIND_ECHO_REQ,
            gen: sup.generation(),
            seq: 42,
            src: 1,
            dst: 5,
            payload: 77,
        };
        sup.send_frame(0, &req).expect("send echo request");
        let deadline = Instant::now() + Duration::from_secs(5);
        let echo = loop {
            if let Some(f) = sup.try_recv_echo() {
                break f;
            }
            assert!(Instant::now() < deadline, "echo never arrived");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!((echo.seq, echo.payload), (42, 77));

        // SIGKILL is real: the process is gone and stops answering.
        sup.kill(0);
        assert!(!sup.heartbeat(0), "a killed worker cannot answer");
        assert!(sup.heartbeat(1), "the survivor is unaffected");

        // Respawn bumps the generation and the worker answers again.
        sup.respawn(0).expect("respawn worker 0");
        assert!(sup.generation() > first_gen);
        assert!(sup.heartbeat(0), "respawned worker answers");
    }
}
