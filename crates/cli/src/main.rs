//! `ssim` — command-line front end for the Sharing Architecture simulator.
//!
//! The paper's SSim "allows all critical micro-architecture parameters and
//! latencies to be set from an XML configuration file" and "reports the
//! cycles executed for a given workload along with cache miss rates and
//! stage-based micro-architecture stalls and statistics" (§5.2). This
//! binary is that tool, with JSON standing in for XML:
//!
//! ```text
//! ssim run --benchmark gcc --slices 4 --banks 8
//! ssim run --benchmark omnetpp --config myconfig.json --json
//! ssim sweep --benchmark mcf
//! ssim sweep --benchmark mcf --daemon 127.0.0.1:42014   # via a running ssimd
//! ssim dc --scenario bursty.json --seed 7   # datacenter market simulation
//! ssim serve --workers 4            # run the ssimd daemon
//! ssim submit --benchmark mcf       # submit a job to a running daemon
//! ssim config                       # emit the default config as JSON
//! ssim list                         # available benchmarks
//! ```

use sharing_ssim::{parse, usage, Command};
use std::io::Write;
use std::process::ExitCode;

/// Prints to stdout, treating a broken pipe as a clean exit (the reader
/// — `head`, `grep -q` — is done with us) and any other write error as
/// a failure.
fn print_output(text: &str) -> ExitCode {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ssim: stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Help) => print_output(&usage()),
        Ok(cmd) => match sharing_ssim::execute(&cmd) {
            Ok(output) => print_output(&output),
            Err(e) => {
                eprintln!("ssim: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("ssim: {e}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
