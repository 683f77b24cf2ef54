//! `perfbench` — one benchmark for the TCCA fit path and the serving path.
//!
//! ```text
//! perfbench --workload <fit-secstr|fit-ads|serve-tenants|serve-refit>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --selftest
//! ```
//!
//! Every workload builds its inputs from `--seed`, sets up (timed several
//! times, median reported), measures for `--seconds`, checks the program's
//! outputs and prints a human-readable report followed by one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The traced run also writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.json`. The process exits non-zero
//! when any correctness check fails.

mod fit;
mod layers;
mod probes;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use trace::Tracer;
use util::{json_num, json_str, Metric};

/// End-to-end metrics every workload reports (see `perfbench/README.md`).
pub const E2E_METRICS: [&str; 7] = [
    "setup_s",
    "p50_ms",
    "p90_ms",
    "ops_per_s",
    "peak_rss_mb",
    "objective",
    "accuracy",
];

pub const WORKLOADS: [&str; 4] = ["fit-secstr", "fit-ads", "serve-tenants", "serve-refit"];

/// Run settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes for the self-test.
    pub toy: bool,
    pub out: PathBuf,
    pub tracer: Tracer,
}

impl Ctx {
    /// A fresh directory for one set-up's files.
    pub fn scratch_dir(&self, tag: &str) -> PathBuf {
        let dir = self.out.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark scratch directory");
        dir
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub report: Vec<String>,
    /// Body of the trace file's summary object.
    pub trace_summary: Vec<(String, String)>,
}

impl Outcome {
    /// Record one timed operation's success.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a named correctness check; a failed check counts as a failure.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        self.op(ok);
        if !ok {
            self.report.push(format!("CHECK FAILED: {name}"));
        }
        self.checks.push((name, ok));
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.report.push(s.into());
    }

    pub fn summary(&mut self, key: &str, value: f64) {
        self.trace_summary.push((key.to_string(), json_num(value)));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --selftest",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "fit-secstr" => fit::run(ctx, fit::Shape::SecStr),
        "fit-ads" => fit::run(ctx, fit::Shape::Ads),
        "serve-tenants" => serve::tenants(ctx),
        "serve-refit" => serve::refit(ctx),
        _ => usage(),
    }
}

/// Print the report and the result line; returns whether every check passed
/// and every expected metric is present.
fn emit(name: &str, ctx: &Ctx, outcome: &Outcome) -> bool {
    for line in &outcome.report {
        println!("[{name}] {line}");
    }
    let expected: Vec<&str> = if ctx.trace {
        layers::NAMES.iter().map(|(n, _)| *n).collect()
    } else {
        E2E_METRICS.to_vec()
    };
    let metrics = if ctx.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    let mut complete = true;
    for want in &expected {
        match metrics.iter().find(|m| m.name == *want) {
            Some(m) if m.value.is_finite() => {}
            _ => {
                println!("[{name}] METRIC MISSING OR NOT FINITE: {want}");
                complete = false;
            }
        }
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "[{name}] error_rate = {error_rate} fraction ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    for m in &outcome.e2e {
        println!("[{name}] e2e {} = {} {}", m.name, json_num(m.value), m.unit);
    }
    if ctx.trace {
        for m in &outcome.layers {
            println!(
                "[{name}] layer {} = {} {}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
    }
    let correct = complete && outcome.failed == 0 && outcome.checks.iter().all(|c| c.1);
    let body: Vec<String> = expected
        .iter()
        .filter_map(|want| metrics.iter().find(|m| m.name == *want))
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    correct
}

fn write_trace(name: &str, ctx: &Ctx, outcome: &Outcome) {
    let mut summary: Vec<String> = vec![
        format!("\"workload\": {}", json_str(name)),
        format!("\"seed\": {}", ctx.seed),
    ];
    summary.extend(
        outcome
            .trace_summary
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k))),
    );
    let path = ctx.out.join(format!("trace-{name}-{}.json", ctx.seed));
    if let Err(e) = ctx.tracer.write(&path, &summary.join(", ")) {
        println!("[{name}] could not write trace {}: {e}", path.display());
    } else {
        println!("[{name}] trace written to {}", path.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut selftest = false;
    let mut i = 0;
    while i < args.len() {
        let val = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(val(i)),
            "--seed" => seed = Some(val(i).parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(val(i).parse::<f64>().unwrap_or_else(|_| usage())),
            "--trace" => trace = val(i) == "1",
            "--selftest" => {
                selftest = true;
                i += 1;
                continue;
            }
            _ => usage(),
        }
        i += 2;
    }
    let out = PathBuf::from("perfbench").join("out");
    std::fs::create_dir_all(&out).expect("create perfbench/out");

    if selftest {
        // Every workload at toy size, traced (so every probe and check runs),
        // with the untraced timed phase inside the traced run.
        let mut all_ok = true;
        for name in WORKLOADS {
            let ctx = Ctx {
                seed: 1,
                seconds: 0.5,
                trace: true,
                toy: true,
                out: out.clone(),
                tracer: Tracer::new(true),
            };
            let outcome = run_workload(name, &ctx);
            write_trace(name, &ctx, &outcome);
            let ok = emit(name, &ctx, &outcome);
            let e2e_ok = E2E_METRICS.iter().all(|w| {
                outcome
                    .e2e
                    .iter()
                    .any(|m| m.name == *w && m.value.is_finite())
            });
            println!(
                "[selftest] {name}: {}",
                if ok && e2e_ok { "ok" } else { "FAILED" }
            );
            all_ok &= ok && e2e_ok;
        }
        std::process::exit(if all_ok { 0 } else { 1 });
    }

    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        toy: false,
        out,
        tracer: Tracer::new(trace),
    };
    let outcome = run_workload(&workload, &ctx);
    if trace {
        write_trace(&workload, &ctx, &outcome);
    }
    let ok = emit(&workload, &ctx, &outcome);
    std::process::exit(if ok { 0 } else { 1 });
}
