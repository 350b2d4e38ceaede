//! Daemon lifecycle: pidfile management and termination signals.
//!
//! [`Pidfile`] writes the process id on create and removes the file on
//! drop, so `ssim serve --pidfile` cleans up after a graceful drain.
//! [`install_termination_handler`] registers a minimal SIGTERM/SIGINT
//! handler that only sets a process-global flag — the issue's "polled
//! flag" design: the daemon's main loop polls
//! [`termination_requested`] and runs the ordinary graceful-drain path
//! itself, so no drain logic ever runs in signal context.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process;

/// A pidfile held for the daemon's lifetime: written on create,
/// removed on drop.
#[derive(Debug)]
pub struct Pidfile {
    path: PathBuf,
}

impl Pidfile {
    /// Writes this process's pid to `path`. A leftover pidfile naming a
    /// pid that is no longer alive (checked via `/proc`) is treated as
    /// stale and overwritten; one naming a live pid is an
    /// `AlreadyExists` error so two daemons cannot share a pidfile.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` when the pidfile names a live process;
    /// otherwise propagates filesystem errors.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Pidfile> {
        let path = path.into();
        if let Ok(existing) = fs::read_to_string(&path) {
            if let Ok(pid) = existing.trim().parse::<u32>() {
                if pid != process::id() && Path::new(&format!("/proc/{pid}")).exists() {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        format!("pidfile {} names live pid {pid}", path.display()),
                    ));
                }
            }
        }
        fs::write(&path, format!("{}\n", process::id()))?;
        Ok(Pidfile { path })
    }

    /// Where the pidfile lives.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Pidfile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// The signal plumbing. This is the workspace's single unsafe island:
/// there is no `libc` crate offline, so `signal(2)` is declared
/// directly against the C library `std` already links. The handler
/// body is one atomic store — async-signal-safe by construction.
#[allow(unsafe_code)]
mod sig {
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(super) static TERMINATE: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    /// `SIG_ERR`: `signal(2)` returns the previous handler, or all-ones
    /// on failure.
    const SIG_ERR: usize = usize::MAX;

    extern "C" {
        /// `signal(2)` from the platform C library. Handler slots are
        /// exchanged as plain addresses (`sighandler_t`).
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_terminate(_signum: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() -> io::Result<()> {
        for signum in [SIGINT, SIGTERM] {
            let handler = on_terminate as extern "C" fn(i32) as usize;
            let prev = unsafe { signal(signum, handler) };
            if prev == SIG_ERR {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(())
    }
}

/// Registers the SIGTERM/SIGINT handler; after this, either signal
/// flips the flag behind [`termination_requested`] instead of killing
/// the process.
///
/// # Errors
///
/// Propagates the OS error when a handler cannot be installed.
pub fn install_termination_handler() -> io::Result<()> {
    sig::install()
}

/// Whether SIGTERM or SIGINT has arrived since the handler was
/// installed (or the flag was last cleared).
#[must_use]
pub fn termination_requested() -> bool {
    sig::TERMINATE.load(std::sync::atomic::Ordering::SeqCst)
}

/// Resets the termination flag (tests; a daemon that drains and
/// restarts in-process).
pub fn clear_termination_flag() {
    sig::TERMINATE.store(false, std::sync::atomic::Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sharing-http-{}-{name}", process::id()))
    }

    #[test]
    fn pidfile_written_on_create_and_removed_on_drop() {
        let path = tmp("pidfile-basic");
        let _ = fs::remove_file(&path);
        {
            let pidfile = Pidfile::create(&path).unwrap();
            assert_eq!(pidfile.path(), path.as_path());
            let written = fs::read_to_string(&path).unwrap();
            assert_eq!(written.trim().parse::<u32>().unwrap(), process::id());
        }
        assert!(!path.exists(), "dropped pidfile must be removed");
    }

    #[test]
    fn stale_pidfile_is_overwritten() {
        let path = tmp("pidfile-stale");
        // No live process has pid 0 from userspace's point of view
        // (/proc/0 does not exist), so this is stale by definition.
        fs::write(&path, "0\n").unwrap();
        let _pidfile = Pidfile::create(&path).unwrap();
        let written = fs::read_to_string(&path).unwrap();
        assert_eq!(written.trim().parse::<u32>().unwrap(), process::id());
    }

    #[test]
    fn pidfile_naming_a_live_pid_is_refused() {
        if !Path::new("/proc/self").exists() {
            return; // liveness probe needs procfs
        }
        let path = tmp("pidfile-live");
        // Pid 1 is always alive.
        fs::write(&path, "1\n").unwrap();
        let err = Pidfile::create(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn garbage_pidfile_is_overwritten() {
        let path = tmp("pidfile-garbage");
        fs::write(&path, "not a pid\n").unwrap();
        let _pidfile = Pidfile::create(&path).unwrap();
        let written = fs::read_to_string(&path).unwrap();
        assert_eq!(written.trim().parse::<u32>().unwrap(), process::id());
    }

    #[test]
    fn sigterm_sets_the_polled_flag() {
        install_termination_handler().unwrap();
        clear_termination_flag();
        assert!(!termination_requested());
        // `kill` is a shell builtin everywhere, so no binary dependency.
        let status = process::Command::new("sh")
            .arg("-c")
            .arg(format!("kill -s TERM {}", process::id()))
            .status()
            .expect("run kill");
        assert!(status.success());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !termination_requested() {
            assert!(
                std::time::Instant::now() < deadline,
                "signal never reached the flag"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        clear_termination_flag();
    }
}
