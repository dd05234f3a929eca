//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <md|fft|mandelbrot> --seed <n> --seconds <s> --trace <0|1> [--size <full|tiny>]
//! ```
//!
//! The process supervises a measuring child process (itself, with
//! `--child`) so that a run that aborts the process is counted as a failed
//! operation instead of ending the benchmark. The last line of standard
//! output is the result object.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use perfbench::aggregate::{result_json, Aggregate};
use perfbench::catalog;
use perfbench::measure::{self, Options};
use perfbench::workload::{describe, Kind, Size};

/// Extra time a measuring process may take past its budget before it is
/// killed and counted as failed.
const GRACE: Duration = Duration::from_secs(60);
/// Measuring processes one run may start (respawns after crashes).
const MAX_SPAWNS: usize = 8;

const USAGE: &str =
    "usage: perfbench --workload <md|fft|mandelbrot> --seed <n> --seconds <s> --trace <0|1> [--size <full|tiny>]";

struct Args {
    opts: Options,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut size, mut seed, mut seconds, mut trace, mut child) =
        (None, Size::Full, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--size" => size = Size::parse(&value).ok_or(format!("unknown size `{value}`"))?,
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        opts: Options {
            kind: kind.ok_or("--workload is required")?,
            size,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
        child,
    })
}

/// Output of `command`, trimmed, or `unknown`.
fn tool_output(command: &mut Command) -> String {
    command
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run measuring processes until the budget is spent, feeding their
/// output into one aggregate.
fn supervise(opts: &Options) -> Result<Aggregate, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut agg = Aggregate::default();
    for _ in 0..MAX_SPAWNS {
        let remaining = budget.saturating_sub(started.elapsed());
        let size = match opts.size {
            Size::Full => "full",
            Size::Tiny => "tiny",
        };
        let mut child = Command::new(&exe)
            .args(["--child", "--workload", opts.kind.name(), "--size", size])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &remaining.as_secs_f64().to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start measuring process: {e}"))?;
        let stdout = child.stdout.take().expect("child stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let deadline = Instant::now() + remaining + GRACE;
        let mut killed = false;
        loop {
            match rx.recv_timeout(Duration::from_millis(200)) {
                Ok(line) => agg.feed(&line),
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
                Err(mpsc::RecvTimeoutError::Timeout) if Instant::now() > deadline => {
                    eprintln!("perfbench: measuring process overran its budget; killing it");
                    let _ = child.kill();
                    killed = true;
                    break;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
            }
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for measuring process: {e}"))?;
        reader
            .join()
            .map_err(|_| "output reader panicked".to_string())?;
        if status.success() && agg.finished && !killed {
            return Ok(agg);
        }
        eprintln!("perfbench: measuring process ended abnormally ({status})");
        agg.crashed();
        if started.elapsed() >= budget {
            break;
        }
    }
    Ok(agg)
}

/// The human summary of a traced run: speedup, gap and the share table.
fn print_attribution(
    kind: Kind,
    e2e_speedup: f64,
    values: &std::collections::BTreeMap<&'static str, f64>,
) {
    eprintln!(
        "perfbench {}: traced speedup {:.3}x  gap_s {:.4}  (tls {:.4} s, seq {:.4} s)",
        kind.name(),
        e2e_speedup,
        values["gap_s"],
        values["span.run_s"],
        values["span.direct_s"],
    );
    for (name, value) in values.iter().filter(|(n, _)| n.starts_with("share.")) {
        eprintln!("  {name:<20} {:>8.2}%", value * 100.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = args.opts;
    if args.child {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        measure::run(&opts, &mut |line| {
            // The supervisor reads every line as it arrives.
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        });
        return ExitCode::SUCCESS;
    }

    let config = measure::runtime_config();
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    println!(
        "perfbench provenance: {{\"workload\": \"{}\", \"seed\": {}, \"seed_applies\": {}, \"size\": \"{:?}\", \
         \"input\": \"{}\", \"nproc\": {}, \"num_cpus\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"seconds\": {}, \"trace\": {}}}",
        opts.kind.name(),
        opts.seed,
        opts.kind.seed_applies(),
        opts.size,
        describe(opts.kind, opts.size),
        measure::nproc(),
        config.num_cpus,
        tool_output(Command::new("rustc").arg("--version")),
        // Only a repository rooted here counts: git must not search the
        // directories above the working directory.
        tool_output(
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .env("GIT_CEILING_DIRECTORIES", ceiling)
        ),
        opts.seconds,
        opts.trace,
    );
    let agg = match supervise(&opts) {
        Ok(agg) => agg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let e2e = agg.end_to_end();
    let values = if opts.trace {
        let values = agg.per_layer();
        print_attribution(
            opts.kind,
            values["span.direct_s"] / values["span.run_s"],
            &values,
        );
        values
    } else {
        eprintln!(
            "perfbench {}: {} runs, speedup {:.3}x (seq {:.4} s / tls {:.4} s)",
            opts.kind.name(),
            agg.samples(),
            e2e["speedup"],
            e2e["seq_wall_s"],
            e2e["tls_wall_s"],
        );
        e2e
    };
    println!(
        "{}",
        result_json(
            agg.attempted,
            agg.failed,
            &values,
            catalog::for_trace(opts.trace)
        )
    );
    ExitCode::SUCCESS
}
