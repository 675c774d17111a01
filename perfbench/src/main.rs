//! The repository's benchmark: the paper's query workloads run through
//! the public API in a closed loop, one client thread.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! with every end-to-end metric; with `--trace 1` it carries the per-layer
//! metrics of a traced run. `perfbench/METRICS.md` defines every metric,
//! its layer and the workloads.

mod check;
mod gauge;
mod run;
mod trace;

use std::process::{Command, ExitCode};

use run::{Metric, Outcome, Workload};

/// The second seed a claimed gain must also hold on (see METRICS.md).
const HELD_OUT_SEED: u64 = 20_090_401;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<&str> {
        raw.iter()
            .position(|a| a == key)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::from_name(workload).ok_or_else(|| {
        format!(
            "unknown workload {workload:?}; expected one of {}",
            Workload::NAMES.join(", ")
        )
    })?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(String::from("--seconds must be positive"));
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs `program args…` and returns its trimmed standard output, if it
/// ran and succeeded.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: every digit as measured, `null` if not finite.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        String::from("null")
    }
}

fn provenance(args: &Args) -> String {
    // Only a checkout that is itself a git work tree has a commit; an
    // exported tree reports "unknown" rather than an enclosing repo's.
    let in_git = std::path::Path::new(".git").exists();
    let git = |args: &[&str]| in_git.then(|| command_output("git", args)).flatten();
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| String::from("unknown"));
    let dirty = match git(&["status", "--porcelain"]) {
        Some(s) => (!s.is_empty()).to_string(),
        None => String::from("null"),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"provenance\": {{\"commit\": {}, \"dirty\": {dirty}, \"profile\": {}, \
         \"nproc\": {nproc}, \"rustc\": {}, \"workload\": {}, \"seed\": {}, \
         \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \"trace\": {}}}}}",
        json_str(&commit),
        json_str(profile),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
    )
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|Metric { name, value, unit }| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1]",
                Workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    let outcome = run::run(args.workload, args.seed, args.seconds, args.trace);
    for note in &outcome.notes {
        eprintln!("perfbench: {note}");
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
