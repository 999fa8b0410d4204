//! The repo's benchmark: one end-to-end harness over four workloads
//! (`wide`, `long`, `churn`, `dist`) with a per-layer traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --seed S [--workload W] [--seconds N] [--runs N] [--trace [0|1]] [--aa] [--probe m-scaling]
//! ```
//!
//! One workload, one run (what the driver asks for) executes in this
//! process and prints the result object as its last line. Several runs
//! or workloads each execute in a fresh re-exec'd child of this program,
//! so peak memory, allocator and page-cache state never leak from one
//! into the next; run `i` of a set uses seed `S + i`. See `README.md`.

mod check;
mod client;
mod gen;
mod layers;
mod report;
mod run;
mod spec;
mod stats;
mod sut;
#[cfg(test)]
mod tests;
mod trace;

use report::{Folded, Parsed};
use spec::{Spec, BASE_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: affinity_benchmark --seed <n> [--workload wide|long|churn|dist] \
[--seconds <n>] [--runs <n>] [--trace [0|1]] [--aa] [--probe m-scaling]";

#[derive(Debug)]
struct Args {
    seed: u64,
    workloads: Vec<&'static Spec>,
    seconds: u64,
    runs: usize,
    trace: bool,
    aa: bool,
    probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        workloads: WORKLOADS.iter().collect(),
        seconds: BASE_SECONDS,
        runs: 1,
        trace: false,
        aa: false,
        probe: false,
    };
    let mut it = argv.iter().peekable();
    let number = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        v.and_then(|s| s.parse().ok())
            .ok_or(format!("{flag} needs a whole number"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => args.seed = number(flag, it.next())?,
            "--seconds" => args.seconds = number(flag, it.next())?.clamp(1, 60),
            "--runs" => args.runs = number(flag, it.next())?.max(1) as usize,
            "--workload" => {
                let name = it.next().ok_or("--workload needs a name")?;
                args.workloads =
                    vec![spec::workload(name).ok_or(format!("unknown workload '{name}'"))?];
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--aa" => args.aa = true,
            "--probe" => match it.next().map(String::as_str) {
                Some("m-scaling") => args.probe = true,
                other => return Err(format!("unknown probe {other:?}")),
            },
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// `benchmark/out` of the checkout the program runs in (the current
/// directory when it is a checkout's root, else the one it was built in).
fn out_dir() -> PathBuf {
    let here = std::env::current_dir()
        .map(|d| d.join("benchmark"))
        .unwrap_or_default();
    let root = if here.join("Cargo.toml").is_file() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    root.join("out")
}

/// One workload, once, in this process. Exit code 0 only for a correct
/// run; the result object is printed either way.
fn run_here(spec: &Spec, args: &Args) -> ExitCode {
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("error: {}: {e}", out.display());
        return ExitCode::from(2);
    }
    match run::run(&spec.scaled(args.seconds), args.seed, args.trace, &out) {
        Ok(outcome) => {
            report::print_run(spec, args.seed, args.seconds, args.trace, &outcome);
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {} failed: {e}", spec.name);
            ExitCode::from(2)
        }
    }
}

/// One workload, once, in a fresh child of this program.
fn run_child(spec: &Spec, seed: u64, args: &Args) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", spec.name])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    report::parse_run(&stdout).ok_or(format!(
        "{} seed {seed}: child exited with {} and no result",
        spec.name, output.status
    ))
}

/// `args.runs` runs of every selected workload, seeds `S, S+1, …`.
fn run_set(args: &Args, label: &str) -> Result<Vec<(String, Folded)>, String> {
    args.workloads
        .iter()
        .map(|spec| {
            let mut folded = Folded::new();
            for i in 0..args.runs {
                let seed = args.seed + i as u64;
                let t = std::time::Instant::now();
                let run = run_child(spec, seed, args)?;
                eprintln!(
                    "{label}{} seed {seed}: {:.1} s, correct {}, failed {}",
                    spec.name,
                    t.elapsed().as_secs_f64(),
                    run.correct,
                    run.failed
                );
                for check in &run.checks {
                    eprintln!("    {check}");
                }
                folded.add(&run);
            }
            Ok((spec.name.to_string(), folded))
        })
        .collect()
}

/// `build_s` of the `long` shape at m ∈ {6 000, 12 000}: the m-cliff as
/// a one-off, not a fifth workload.
fn probe_m_scaling(seed: u64) -> Result<(), String> {
    let long = spec::workload("long").expect("long exists");
    println!(
        "probe m-scaling: n={} stock series, threads=all, seed={seed}",
        long.n
    );
    let mut per_sample = Vec::new();
    for m in [long.m / 2, long.m] {
        let data = sut::Matrix::from_columns(sut::generate(long.dataset, long.n, m, seed));
        let mut seconds = Vec::new();
        for _ in 0..2 {
            let t = std::time::Instant::now();
            sut::build_and_answer(&data, 0, "MET correlation > 0.5", &mut trace::Tracer::off())?;
            seconds.push(t.elapsed().as_secs_f64());
        }
        let build_s = stats::median(&seconds);
        per_sample.push(build_s / m as f64);
        println!("metric build_s@m={m} {build_s} s");
    }
    println!(
        "doubling m multiplied build_s per sample by {:.2} (1.00 = linear in m)",
        per_sample[1] / per_sample[0]
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.probe {
        return match probe_m_scaling(args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    if let ([spec], 1, false) = (&args.workloads[..], args.runs, args.aa) {
        return run_here(spec, &args);
    }
    if args.aa {
        let sets = run_set(&args, "A ").and_then(|a| Ok((a, run_set(&args, "B ")?)));
        let (a, b) = match sets {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        let all_correct = a.iter().chain(&b).all(|(_, f)| f.correct);
        let sets: Vec<_> = a
            .into_iter()
            .zip(b)
            .map(|((w, a), (_, b))| (w, a, b))
            .collect();
        let (table, breaches) = report::aa_table(&sets);
        println!(
            "A/A: two sets of {} run(s) per workload, seeds {}..{}, --seconds {}, same code\n",
            args.runs,
            args.seed,
            args.seed + args.runs as u64 - 1,
            args.seconds
        );
        println!("{table}");
        println!("{breaches} breach(es); every run correct: {all_correct}");
        return if breaches == 0 && all_correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    let set = match run_set(&args, "") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut objects = Vec::new();
    for (workload, folded) in &set {
        println!("{}", folded.table(workload));
        let result = report::result_json(
            folded.correct,
            folded.attempted,
            folded.failed,
            folded.medians(),
        );
        objects.push(format!("\"{workload}\": {result}"));
    }
    println!("{{{}}}", objects.join(", "));
    if set.iter().all(|(_, f)| f.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
