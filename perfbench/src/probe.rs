//! Known-failure probe: the Table V `hollywood_2009_s` Atos IB PageRank
//! cell at 4 GPUs (default-seed inputs, BFS-grown partition), which
//! exhausts memory today. It runs in a child process under a fixed
//! address-space cap and a time cap, so the blow-up shows as a failed
//! operation without taking the host's memory or the run's time. The
//! benchmark seed does not apply: other partitions of the graph need not
//! blow up, and the probe exists to track this one cell.

use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use atos_core::AtosConfig;
use atos_graph::generators::Preset;
use atos_sim::Fabric;

use crate::cells::{Cell, Kind, Oracles};
use crate::inputs::{set_up, Partitioning, DEFAULT_SEED};

/// Command-line flag that makes the benchmark binary act as the probe child.
pub const CHILD_FLAG: &str = "--hollywood-probe";
/// Address-space cap of the child, bytes.
const AS_CAP_BYTES: u64 = 1 << 30;
/// Wall-time cap of the child.
const TIME_CAP: Duration = Duration::from_secs(60);
/// Child exit code for a result that fails its oracle.
const EXIT_WRONG: u8 = 3;

/// How the probe ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Finished within both caps and matched the oracle.
    Passed,
    /// Finished but its ranks failed the oracle.
    Wrong,
    /// Ended by the address-space cap or another abort.
    Aborted(String),
    /// Killed at the time cap.
    TimedOut,
}

/// Run the probe in a child process and wait for it.
pub fn attempt() -> Outcome {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return Outcome::Aborted(format!("cannot locate the benchmark binary: {e}")),
    };
    let spawned = Command::new(exe)
        .arg(CHILD_FLAG)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .env("RUST_BACKTRACE", "0")
        .spawn();
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => return Outcome::Aborted(format!("cannot start the probe: {e}")),
    };
    let deadline = Instant::now() + TIME_CAP;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return classify(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                // Kill can only fail if the child already exited; wait reaps it.
                let _ = child.kill();
                let _ = child.wait();
                return Outcome::TimedOut;
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Outcome::Aborted(format!("cannot wait for the probe: {e}"));
            }
        }
    }
}

fn classify(status: ExitStatus) -> Outcome {
    match status.code() {
        Some(0) => Outcome::Passed,
        Some(code) if code == i32::from(EXIT_WRONG) => Outcome::Wrong,
        _ => Outcome::Aborted(status.to_string()),
    }
}

/// The probe child's body; returns its exit code.
pub fn child() -> u8 {
    cap_address_space(AS_CAP_BYTES);
    let preset = Preset::by_name("hollywood_2009_s").expect("hollywood_2009_s is a Table I preset");
    let (inputs, _) = set_up(preset, 4, Partitioning::BfsGrow, false, DEFAULT_SEED);
    let cell = Cell {
        name: "atos_ib_pr_hollywood",
        kind: Kind::AtosPr(AtosConfig::ib_pagerank()),
    };
    let (oracles, _) = Oracles::compute(&[cell], &inputs);
    let runs = cell.run(&inputs, &Fabric::ib_cluster(4), 1);
    if runs
        .iter()
        .enumerate()
        .all(|(i, (_, out))| oracles.check(i, out))
    {
        0
    } else {
        EXIT_WRONG
    }
}

/// Limit this process's address space, so an allocation past the cap
/// fails (and aborts the process) instead of growing into host memory.
#[cfg(target_os = "linux")]
fn cap_address_space(bytes: u64) {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    const RLIMIT_AS: i32 = 9;
    let lim = Rlimit {
        cur: bytes,
        max: bytes,
    };
    // SAFETY: `setrlimit` reads one `struct rlimit` (two `rlim_t`, which
    // are 64-bit on Linux) through a pointer to a live local; it has no
    // other memory effects.
    let rc = unsafe { setrlimit(RLIMIT_AS, &lim) };
    assert_eq!(rc, 0, "setrlimit(RLIMIT_AS) failed");
}

/// Without `setrlimit(RLIMIT_AS)` only the time cap applies.
#[cfg(not(target_os = "linux"))]
fn cap_address_space(_bytes: u64) {}
