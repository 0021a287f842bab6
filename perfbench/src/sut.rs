//! The system under test, driven from outside: one `jahob verify` child
//! per request, or one `jahob serve` daemon behind one client connection.

use jahob::cli::OutputMode;
use jahob::{Client, SubmitOptions, SubmitOutcome};
use std::io::Read;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// What one request came back as.
pub struct Reply {
    /// Wall-clock from sending the request to holding the whole reply.
    pub ms: f64,
    /// The report text, or why there is none (transport error, pipeline
    /// error, BUSY, non-zero exit).
    pub report: Result<String, String>,
    /// CPU time the system under test spent on the request, user plus
    /// system: the child's own rusage for a one-shot request, the
    /// daemon's process CPU clock across the request for a daemon one.
    /// Unlike wall-clock, it does not count time the host stole.
    pub cpu_ms: f64,
    /// Streamed obs event lines (traced requests only).
    pub events: Vec<String>,
}

/// How long a daemon may take to bind its socket.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A command for a child of this runner that gets SIGTERM when the
/// runner dies, so a killed run leaves no daemon or verifier behind (a
/// daemon drains on SIGTERM and removes its socket).
fn child_command(program: &Path) -> Command {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGTERM: u64 = 15;
    let mut cmd = Command::new(program);
    // SAFETY: the hook runs in the forked child before exec and only
    // makes one async-signal-safe system call on its own process.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGTERM, 0, 0, 0);
            Ok(())
        });
    }
    cmd
}

pub struct OneShot {
    pub jahob: PathBuf,
    /// Directory for traced requests' `JAHOB_OBS` files.
    pub tmp: PathBuf,
    /// The largest peak resident set of any child so far, in MiB.
    pub peak_rss_mb: f64,
}

impl OneShot {
    /// Verify `study_path` in a fresh process. With `traced`, the child
    /// streams its obs events to a file through `JAHOB_OBS`.
    pub fn verify(&mut self, study_path: &Path, traced: bool) -> Reply {
        let obs_path = self.tmp.join("obs.jsonl");
        let mut cmd = child_command(&self.jahob);
        cmd.arg("verify").arg("--json").arg(study_path);
        if traced {
            cmd.env("JAHOB_OBS", &obs_path);
        }
        let started = Instant::now();
        let outcome = run_child(&mut cmd);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let (report, cpu_ms) = match outcome {
            Ok((stdout, status, usage)) => {
                self.peak_rss_mb = self.peak_rss_mb.max(usage.peak_rss_mb());
                let report = if status == 0 {
                    String::from_utf8(stdout).map_err(|_| "stdout is not UTF-8".to_owned())
                } else {
                    Err(format!("jahob verify ended with wait status {status:#x}"))
                };
                (report, usage.cpu_ms())
            }
            Err(e) => (
                Err(format!("cannot run {}: {e}", self.jahob.display())),
                0.0,
            ),
        };
        let events = if traced {
            std::fs::read_to_string(&obs_path)
                .map(|text| text.lines().map(str::to_owned).collect())
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        Reply {
            ms,
            report,
            cpu_ms,
            events,
        }
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s (user, then system
/// time), then 14 longs of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

impl Rusage {
    fn cpu_ms(&self) -> f64 {
        let [user_s, user_us, sys_s, sys_us] = self.times;
        ((user_s + sys_s) as f64 * 1e6 + (user_us + sys_us) as f64) / 1e3
    }

    fn peak_rss_mb(&self) -> f64 {
        self.maxrss as f64 / 1024.0
    }
}

/// Run `cmd` to its end with its standard output captured, and reap it
/// with `wait4`, which gives this child's own resource usage: its CPU
/// time and peak resident set, not those of every child this process
/// (or the process it replaced) has ever waited for. Returns the output,
/// the raw wait status (0 for a clean exit) and the usage.
fn run_child(cmd: &mut Command) -> std::io::Result<(Vec<u8>, i32, Rusage)> {
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let pid = child.id() as i32;
    let mut status = 0;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable values laid out
        // as the C `int` and 64-bit Linux `struct rusage` that `wait4`
        // writes; `pid` is this process's own unreaped child.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    read?;
    Ok((stdout, status, usage))
}

/// CPU time of process `pid` so far, all threads, user plus system, in
/// milliseconds, from its process CPU clock.
fn process_cpu_ms(pid: u32) -> Result<f64, String> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    let mut clock = 0;
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: both calls only write the live, writable values passed to
    // them, laid out as `clockid_t` and the 64-bit Linux `timespec`.
    let ok = unsafe {
        clock_getcpuclockid(pid as i32, &mut clock) == 0 && clock_gettime(clock, &mut time) == 0
    };
    if ok {
        Ok(time.sec as f64 * 1e3 + time.nsec as f64 / 1e6)
    } else {
        Err(format!("cannot read the CPU clock of process {pid}"))
    }
}

pub struct Daemon {
    child: Child,
    client: Client,
    socket: PathBuf,
}

impl Daemon {
    /// Spawn `jahob serve` on `socket` over the persistent store in
    /// `cache`, and wait until it answers a STATUS probe.
    pub fn spawn(jahob: &Path, socket: &Path, cache: &Path) -> Result<Daemon, String> {
        let mut child = child_command(jahob)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .env("JAHOB_CACHE", cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", jahob.display()))?;
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("daemon exited during start-up with {status}"));
            }
            if let Ok(mut client) = Client::connect(socket) {
                if client.status().is_ok() {
                    return Ok(Daemon {
                        child,
                        client,
                        socket: socket.to_owned(),
                    });
                }
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon did not become ready".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Submit one source over the one connection. With `traced`, the
    /// daemon streams the request's obs events with their wall-clock
    /// fields and renders the report with its timing counters.
    pub fn submit(&mut self, src: &str, traced: bool) -> Reply {
        let options = SubmitOptions {
            output: if traced {
                OutputMode::JsonTiming
            } else {
                OutputMode::Json
            },
            stream_obs: traced,
            stable_obs: false,
            deadline: None,
        };
        let mut events = Vec::new();
        let cpu_before = process_cpu_ms(self.child.id());
        let started = Instant::now();
        let outcome = self
            .client
            .submit(src, &options, |line| events.push(line.to_owned()));
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let cpu = cpu_before.and_then(|before| Ok(process_cpu_ms(self.child.id())? - before));
        let report = match outcome {
            Ok(SubmitOutcome::Report(text)) => Ok(text),
            Ok(SubmitOutcome::PipelineError(e)) => Err(format!("pipeline error: {e}")),
            Ok(SubmitOutcome::Busy { queued, depth, .. }) => {
                Err(format!("BUSY ({queued}/{depth})"))
            }
            Err(e) => Err(format!("transport error: {e}")),
        };
        let (report, cpu_ms) = match (report, cpu) {
            (Ok(text), Ok(cpu_ms)) => (Ok(text), cpu_ms),
            (Err(why), _) | (Ok(_), Err(why)) => (Err(why), 0.0),
        };
        Reply {
            ms,
            report,
            cpu_ms,
            events,
        }
    }

    /// Round-trip time of one STATUS probe, in milliseconds.
    pub fn status_rtt_ms(&mut self) -> Result<f64, String> {
        let started = Instant::now();
        self.client
            .status()
            .map_err(|e| format!("STATUS failed: {e}"))?;
        Ok(started.elapsed().as_secs_f64() * 1e3)
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the daemon's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in the daemon's /proc status".into())
    }

    /// DRAIN, then check the daemon exits 0 and removes its socket.
    pub fn drain(mut self) -> Result<(), String> {
        let drained = self
            .client
            .drain()
            .map_err(|e| format!("DRAIN failed: {e}"));
        let status = self
            .child
            .wait()
            .map_err(|e| format!("cannot wait for the daemon: {e}"))?;
        drained?;
        if !status.success() {
            return Err(format!("daemon exited with {status} after DRAIN"));
        }
        if self.socket.exists() {
            return Err(format!(
                "daemon left its socket {} behind",
                self.socket.display()
            ));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    /// A daemon abandoned on an error path is killed and reaped; `drain`
    /// has already waited for it otherwise, which makes this a no-op.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
