//! The host block: what a number was measured on, so numbers from
//! different machines, toolchains or builds are never compared.

use std::process::Command;

/// Machine, toolchain, source and build identity of one run.
#[derive(Clone, Debug)]
pub struct Host {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// CPU model string from the kernel.
    pub cpu: String,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` when the working directory is
    /// not the root of a git checkout.
    pub git_sha: String,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

impl Host {
    /// Collects the host block.
    #[must_use]
    pub fn collect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: sharing_core::par::resolve_jobs(None),
            cpu,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            // Only ask git inside a checkout of its own: git would
            // otherwise report whatever repository encloses this one.
            git_sha: std::path::Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// The block as report lines.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        vec![
            format!("host nproc {}", self.nproc),
            format!("host cpu {}", self.cpu),
            format!("host rustc {}", self.rustc),
            format!("host git_sha {}", self.git_sha),
            format!("host profile {}", self.profile),
        ]
    }
}

/// The process's resident-set high-water mark, in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
