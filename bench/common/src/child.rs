//! Runs one cold child process and measures it from the outside: wall
//! from just before `spawn` to the moment `wait4` returns, peak RSS
//! from the kernel's accounting.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::sys::{wait_with_usage, Reaped};

/// A child round is killed after this long, so that a hung program
/// fails the run instead of hanging the benchmark.
const CHILD_LIMIT: Duration = Duration::from_secs(120);

/// One finished child.
#[derive(Clone, Debug)]
pub struct ChildRun {
    /// Wall seconds, spawn to exit.
    pub wall_s: f64,
    /// Exit status and the kernel's resource accounting.
    pub reaped: Reaped,
    /// Everything the child wrote to standard output.
    pub stdout: String,
    /// Everything the child wrote to standard error.
    pub stderr: String,
}

impl ChildRun {
    /// True when the child exited with code 0.
    pub fn ok(&self) -> bool {
        self.reaped.code == Some(0)
    }

    /// `exit 0`, `exit 3`, `signal 9`: for the per-child status record.
    pub fn status_text(&self) -> String {
        match (self.reaped.code, self.reaped.signal) {
            (Some(c), _) => format!("exit {c}"),
            (None, Some(s)) => format!("signal {s}"),
            (None, None) => "unknown".into(),
        }
    }
}

/// Runs `program args...` to completion. Output goes to two files in
/// `scratch` (a pipe would need reader threads, and those would run
/// beside the child being timed) and is read back afterwards.
pub fn run_child(program: &Path, args: &[String], scratch: &Path) -> io::Result<ChildRun> {
    let out_path = scratch.join("child.stdout");
    let err_path = scratch.join("child.stderr");
    let mut cmd = Command::new(program);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?);
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = child.id();
    // The watchdog owns the `Child` handle only to be able to kill it;
    // the exit is collected by wait4 below, never by `Child::wait`.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if done_rx.recv_timeout(CHILD_LIMIT).is_err() {
            let _ = child.kill();
        }
    });
    let reaped = wait_with_usage(pid);
    let wall_s = t0.elapsed().as_secs_f64();
    let _ = done_tx.send(());
    watchdog.join().expect("watchdog thread does not panic");
    Ok(ChildRun {
        wall_s,
        reaped: reaped?,
        stdout: std::fs::read_to_string(&out_path)?,
        stderr: std::fs::read_to_string(&err_path)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_output_status_and_time() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../out/test-child-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let args = ["-c".to_string(), "echo out; echo err >&2; sleep 0.05; exit 3".to_string()];
        let run = run_child(Path::new("sh"), &args, &dir).unwrap();
        assert!(!run.ok());
        assert_eq!(run.status_text(), "exit 3");
        assert_eq!((run.stdout.as_str(), run.stderr.as_str()), ("out\n", "err\n"));
        assert!(run.wall_s >= 0.05 && run.wall_s < 5.0);
        assert!(run_child(Path::new("/nonexistent/program"), &[], &dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
