//! The repository benchmark: three workloads driven through the public APIs of the shp
//! crates, each checked for correct outputs. See README.md for the workloads, the metrics
//! and the layer each per-layer metric should move.
//!
//! ```text
//! perfbench --workload <bisect|bsp|serve-live> --seed <n> --seconds <s> --trace <0|1>
//!           --work <dir> [--shp <path to the shp CLI>] [--rev <source revision>] [--quick]
//! ```
//!
//! The last stdout line is `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer ones. The line before
//! it holds provenance and sample counts. Exit code 1 when any check failed, 2 on a setup
//! error (then no result line is printed).

mod partition;
mod probe;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Threads the partitioner may use (`PartitionSpec::workers`), sized to a 2-core machine.
pub const WORKERS: usize = 2;
/// Closed-loop client threads of the serving phases.
pub const CLIENTS: usize = 2;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub tracer: Tracer,
    pub work: PathBuf,
    pub shp: Option<PathBuf>,
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    notes: Vec<(String, String)>,
}

impl Report {
    /// Counts one checked operation, recording why it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks(1, u64::from(!ok), what);
    }

    /// Counts `attempted` checked operations of which `failed` failed.
    pub fn checks(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// A JSON value (number or quoted string) shown in the provenance line.
    pub fn note(&mut self, key: &str, json_value: String) {
        self.notes.push((key.to_string(), json_value));
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    work: PathBuf,
    shp: Option<PathBuf>,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        work: PathBuf::new(),
        shp: None,
        rev: "unknown".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--quick" {
            args.quick = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--work" => args.work = PathBuf::from(value),
            "--shp" => args.shp = Some(PathBuf::from(value)),
            "--rev" => args.rev = value.clone(),
            _ => return Err(format!("unknown option {flag:?}")),
        }
        i += 2;
    }
    if args.work.as_os_str().is_empty() {
        return Err("--work is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {err}", args.work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        tracer: Tracer::new(args.trace),
        work: args.work.clone(),
        shp: args.shp.clone(),
    };
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "bisect" => partition::run(&ctx, &partition::BISECT, &mut report),
        "bsp" => partition::run(&ctx, &partition::BSP, &mut report),
        "serve-live" => serve::run_live(&ctx, &mut report),
        other => Err(format!(
            "unknown workload {other:?} (bisect, bsp, serve-live)"
        )),
    };
    if let Err(err) = outcome {
        eprintln!("perfbench: {}: {err}", args.workload);
        return ExitCode::from(2);
    }
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    if ctx.tracer.enabled() {
        let path = ctx.work.join("spans.jsonl");
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => report.note("spans_file", quoted(&path.display().to_string())),
            Err(err) => report.check(false, || format!("writing {}: {err}", path.display())),
        }
        report.note("spans", ctx.tracer.num_spans().to_string());
    }
    print_result(&args, &mut report);
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn print_result(args: &Args, report: &mut Report) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let metrics = if args.trace {
        std::mem::take(&mut report.per_layer)
    } else {
        std::mem::take(&mut report.end_to_end)
    };
    if report.attempted == 0 {
        report.check(false, || "no operation was checked".into());
    }
    for m in &metrics {
        if !m.value.is_finite() {
            report.check(false, || format!("metric {} was not measured", m.name));
        }
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
    let mut provenance = vec![
        ("workload", quoted(&args.workload)),
        ("rev", quoted(&args.rev)),
        ("nproc", nproc.to_string()),
        ("workers", WORKERS.to_string()),
        ("clients", CLIENTS.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("quick", args.quick.to_string()),
        ("profile", quoted(profile)),
    ];
    let failures: Vec<String> = report.failures.iter().map(|f| quoted(f)).collect();
    let failures = format!("[{}]", failures.join(","));
    provenance.push(("failures", failures));
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{v}", quoted(k)))
        .collect();
    let provenance: Vec<String> = provenance
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", quoted(k)))
        .collect();
    println!(
        "{{\"provenance\":{{{}}},\"notes\":{{{}}}}}",
        provenance.join(","),
        notes.join(",")
    );
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                quoted(&m.name),
                quoted(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
}
