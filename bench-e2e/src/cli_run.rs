//! Spawning the real `qsim` binary, sampling its memory, and reading what
//! it prints: the stats line and the histogram block of `qsim run` are part
//! of the CLI's output contract that this benchmark checks.

use std::io::Read;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::workloads::Input;

/// A `qsim` call running longer than this is killed and counted as failed.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(120);

/// `VmHWM` sampling period.
const POLL: Duration = Duration::from_millis(10);

/// One finished `qsim` process.
#[derive(Debug)]
pub struct Call {
    /// Spawn to exit.
    pub wall: Duration,
    /// Last `VmHWM` sample (KiB): a high-water mark, so the last sample is
    /// the peak. Zero if the process ended before the first sample.
    pub peak_rss_kib: u64,
    pub stdout: String,
    pub status: ExitStatus,
    pub timed_out: bool,
}

/// Run `qsim args…` to completion with stdout captured and stderr passed
/// through, sampling `/proc/<pid>/status` every 10 ms from one poller
/// thread. The poller kills the process after [`CALL_TIMEOUT`].
///
/// # Errors
///
/// Returns the I/O error of a failed spawn, read or wait.
pub fn spawn(qsim: &Path, args: &[String]) -> std::io::Result<Call> {
    let start = Instant::now();
    let mut child = Command::new(qsim)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let pid = child.id();
    let peak = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let timed_out = AtomicBool::new(false);
    let mut stdout = String::new();
    let (status, wall) = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if let Some(kib) = vm_hwm_kib(pid) {
                    peak.fetch_max(kib, Ordering::Relaxed);
                }
                if start.elapsed() > CALL_TIMEOUT && !timed_out.swap(true, Ordering::SeqCst) {
                    // Closing the process ends the main thread's read.
                    let _ = Command::new("kill")
                        .args(["-KILL", &pid.to_string()])
                        .stdout(Stdio::null())
                        .status();
                }
                std::thread::sleep(POLL);
            }
        });
        let read = child.stdout.take().expect("stdout is piped").read_to_string(&mut stdout);
        // The process has closed its stdout and is exiting: one more
        // sample catches growth since the last poll.
        if let Some(kib) = vm_hwm_kib(pid) {
            peak.fetch_max(kib, Ordering::Relaxed);
        }
        done.store(true, Ordering::SeqCst);
        let status = child.wait();
        let wall = start.elapsed();
        read.and(status).map(|status| (status, wall))
    })?;
    Ok(Call {
        wall,
        peak_rss_kib: peak.into_inner(),
        stdout,
        status,
        timed_out: timed_out.into_inner(),
    })
}

fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse().ok()
}

/// What `qsim run` reports on its first line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StatsLine {
    pub trials: u64,
    pub ops: u64,
    /// The run time `qsim run` measured around its executor.
    pub run: Duration,
}

/// Parse `"<n> trials: <ops> basic ops, … (<Duration:?>)"`.
pub fn parse_stats_line(line: &str) -> Option<StatsLine> {
    let (trials, rest) = line.split_once(" trials: ")?;
    let (ops, _) = rest.split_once(" basic ops")?;
    let (_, elapsed) = line.trim_end().strip_suffix(')')?.rsplit_once('(')?;
    Some(StatsLine {
        trials: trials.trim().parse().ok()?,
        ops: ops.trim().parse().ok()?,
        run: parse_duration(elapsed)?,
    })
}

/// Parse Rust's `Duration` debug rendering: `12ns`, `1.5µs`, `158.2ms`,
/// `4.06s`.
pub fn parse_duration(text: &str) -> Option<Duration> {
    let (number, scale) = [("ns", 1e-9), ("µs", 1e-6), ("ms", 1e-3), ("s", 1.0)]
        .iter()
        .find_map(|(unit, scale)| text.strip_suffix(unit).map(|n| (n, *scale)))?;
    let value: f64 = number.parse().ok()?;
    (value.is_finite() && value >= 0.0).then(|| Duration::from_secs_f64(value * scale))
}

/// Everything `qsim run` prints after its stats line: the histogram block.
pub fn histogram_block(stdout: &str) -> &str {
    stdout.split_once('\n').map_or("", |(_, rest)| rest)
}

/// The optimized op count `qsim analyze` predicts: `"… -> <n> ops …"`.
pub fn predicted_ops(analyze_stdout: &str) -> Option<u64> {
    let (_, rest) = analyze_stdout.split_once(" -> ")?;
    rest.split_once(" ops")?.0.trim().parse().ok()
}

/// The untimed reference a timed call must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reference {
    /// Histogram block of `qsim run --baseline`, same flags and seed.
    pub histogram: String,
    /// Optimized ops `qsim analyze` predicts for the same flags and seed.
    pub ops: u64,
}

/// Produce the reference for `input` with the baseline executor and the
/// static analyzer.
///
/// # Errors
///
/// Describes the call that failed.
pub fn reference(qsim: &Path, input: &Input) -> Result<Reference, String> {
    let baseline = successful(qsim, &input.args("run", &["--baseline"]))?;
    let analyze = successful(qsim, &input.args("analyze", &[]))?;
    let ops = predicted_ops(&analyze.stdout)
        .ok_or_else(|| format!("qsim analyze printed no op count: {:?}", analyze.stdout))?;
    Ok(Reference { histogram: histogram_block(&baseline.stdout).to_owned(), ops })
}

fn successful(qsim: &Path, args: &[String]) -> Result<Call, String> {
    let call = spawn(qsim, args).map_err(|e| format!("qsim {}: {e}", args[0]))?;
    exited_cleanly(&call).map_err(|e| format!("qsim {}: {e}", args[0]))?;
    Ok(call)
}

fn exited_cleanly(call: &Call) -> Result<(), String> {
    if call.timed_out {
        Err(format!("killed after {}s", CALL_TIMEOUT.as_secs()))
    } else if !call.status.success() {
        Err(format!("exited with {}", call.status))
    } else {
        Ok(())
    }
}

/// Check a timed `qsim run` call against its reference.
///
/// # Errors
///
/// Describes the first check that failed.
pub fn check(call: &Call, reference: &Reference) -> Result<StatsLine, String> {
    exited_cleanly(call)?;
    let first = call.stdout.lines().next().unwrap_or("");
    let stats =
        parse_stats_line(first).ok_or_else(|| format!("unreadable stats line {first:?}"))?;
    if histogram_block(&call.stdout) != reference.histogram {
        return Err("histogram differs from the --baseline reference".to_owned());
    }
    if stats.ops != reference.ops {
        return Err(format!("{} basic ops, qsim analyze predicts {}", stats.ops, reference.ops));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: &str = "128 trials: 13426 basic ops, 5512 fused kernels, 5554 amplitude passes, \
                       1 stored states at peak (956.27166ms)\n2 outcomes over 2 bits:\n  00: 1 (0.500)\n  11: 1 (0.500)\n\n";

    #[test]
    fn parses_every_duration_debug_unit() {
        assert_eq!(parse_duration("4.06570184s"), Some(Duration::from_nanos(4_065_701_840)));
        assert_eq!(parse_duration("158.240732ms"), Some(Duration::from_nanos(158_240_732)));
        assert_eq!(parse_duration("950µs"), Some(Duration::from_micros(950)));
        assert_eq!(parse_duration("1.5µs"), Some(Duration::from_nanos(1500)));
        assert_eq!(parse_duration("12ns"), Some(Duration::from_nanos(12)));
        assert_eq!(parse_duration("0ns"), Some(Duration::ZERO));
        assert_eq!(
            parse_duration(&format!("{:?}", Duration::from_millis(72))),
            Some(Duration::from_millis(72))
        );
        assert_eq!(parse_duration("12"), None);
        assert_eq!(parse_duration("fast s"), None);
    }

    #[test]
    fn parses_the_stats_line() {
        let stats = parse_stats_line(RUN.lines().next().expect("a line")).expect("parses");
        assert_eq!(stats.trials, 128);
        assert_eq!(stats.ops, 13426);
        assert_eq!(stats.run, Duration::from_nanos(956_271_660));
        let tree = "4 trials: 10 basic ops, 4 fused kernels, 6 amplitude passes, 3 stored states \
                    at peak, 2 batch sweeps (3 states at widest) (1.2ms)";
        assert_eq!(parse_stats_line(tree).expect("parses").run, Duration::from_micros(1200));
        assert_eq!(parse_stats_line("qsim: error"), None);
    }

    #[test]
    fn extracts_the_histogram_block() {
        assert_eq!(
            histogram_block(RUN),
            "2 outcomes over 2 bits:\n  00: 1 (0.500)\n  11: 1 (0.500)\n\n"
        );
        assert_eq!(histogram_block("only a stats line"), "");
    }

    #[test]
    fn reads_the_analyzer_prediction() {
        let out = "128 trials: 84010 -> 13426 ops (normalized 0.160, saving 84.0%), 1 MSVs\n";
        assert_eq!(predicted_ops(out), Some(13426));
        assert_eq!(predicted_ops("nothing"), None);
    }
}
