//! `simbench` — the EagleTree simulator benchmark.
//!
//! ```text
//! simbench --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]
//! simbench --print-reference
//! ```
//!
//! Runs episodes of the workload until `--seconds` have passed (at least
//! two), checks the simulated outputs, prints a table of metrics and, as
//! the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. Exits 1 when a correctness check fails, 2 on bad arguments.

// Host wall-clock timing is what the benchmark measures (see lib.rs).
#![allow(clippy::disallowed_methods)]

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use eagletree_simbench::host;
use eagletree_simbench::median;
use eagletree_simbench::outcome::Outcome;
use eagletree_simbench::sim::{self, SimStats};
use eagletree_simbench::workload::{run_episode, Episode, WorkloadId, DEFAULT_SEED};

const USAGE: &str =
    "usage: simbench --workload <gc_overwrite_qd512|tenants_wfq_obs|replay_dftl_aged|all> \
[--seed N] [--seconds N] [--trace 0|1]\n       simbench --print-reference";

/// Episodes every run makes at least, so each seed is checked against a
/// repeat of itself.
const MIN_EPISODES: usize = 2;

struct Args {
    /// `None` for `--workload all`.
    workload: Option<WorkloadId>,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_reference: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload_given = false;
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        print_reference: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-reference" {
            args.print_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number =
            || -> Result<u64, String> { value.parse().map_err(|e| format!("{flag} {value}: {e}")) };
        match flag.as_str() {
            "--workload" => {
                workload_given = true;
                args.workload = match value.as_str() {
                    "all" => None,
                    _ => Some(
                        WorkloadId::parse(value).ok_or(format!("unknown workload `{value}`"))?,
                    ),
                }
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !workload_given && !args.print_reference {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run of one workload reports.
struct RunReport {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// The correctness gate: every episode reproduces the first one's
/// simulated statistics exactly, `check_invariants` holds after each, and
/// at the default seed the statistics equal the recorded reference.
fn gate(w: WorkloadId, seed: u64, eps: &[Episode]) -> Vec<String> {
    let mut problems = Vec::new();
    let first = &eps[0];
    for (i, e) in eps.iter().enumerate().skip(1) {
        let kind = if e.probes.is_some() {
            "traced"
        } else {
            "untraced"
        };
        for m in e.sim.moved(&first.sim) {
            problems.push(format!("episode {i} ({kind}) differs from episode 0: {m}"));
        }
    }
    for (i, e) in eps.iter().enumerate() {
        if let Err(msg) = &e.invariants {
            problems.push(format!("episode {i}: check_invariants failed: {msg}"));
        }
    }
    if seed == DEFAULT_SEED {
        match sim::reference(w.name()) {
            Some(r) => {
                for m in first.sim.moved(&r) {
                    problems.push(format!(
                        "differs from reference.txt (run vs reference): {m}"
                    ));
                }
            }
            None => problems.push("no reference recorded for this workload".to_string()),
        }
    }
    problems
}

/// Run episodes until `seconds` have passed and at least `MIN_EPISODES`
/// ran; `traced(i)` says whether episode `i` is traced.
fn episodes(
    w: WorkloadId,
    seed: u64,
    seconds: u64,
    traced: impl Fn(usize) -> bool,
) -> Vec<Episode> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut eps = Vec::new();
    while eps.len() < MIN_EPISODES || start.elapsed() < budget {
        eps.push(run_episode(w, seed, w.default_size(), traced(eps.len())));
    }
    eps
}

fn print_sim_outputs(sim: &SimStats) {
    println!("  simulated outputs (checked, not scored; the model is unvalidated):");
    for (name, unit) in [
        ("sim_iops", "IO/s"),
        ("sim_read_p99_us", "us"),
        ("sim_write_p99_us", "us"),
        ("sim_wa", "ratio"),
        ("sim_end_ns", "ns"),
    ] {
        println!("    {name:<34} {:>16} {unit}", sim.get(name));
    }
    println!("    {:<34} {:>16x}", "sim_digest", sim.digest());
}

/// Untraced run: the end-to-end metrics.
fn end_to_end(w: WorkloadId, seed: u64, seconds: u64) -> Result<RunReport, String> {
    let eps = episodes(w, seed, seconds, |_| false);
    let sim = &eps[0].sim;
    let attempted = sim.get("ios_attempted") as u64;
    let completed = sim.get("ios_completed") as u64;
    let n = eps.len() as u64;
    let ios_per_s: Vec<f64> = eps.iter().map(Episode::host_ios_per_s).collect();
    let setup_s: Vec<f64> = eps.iter().map(|e| e.setup_ref_ns / 1e9).collect();
    let metrics = vec![
        metric("host_ios_per_s", median(&ios_per_s), "IO/s"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mb", host::peak_rss_mb()?, "MB"),
    ];
    println!("== {} (seed {seed}, {n} episodes, end to end)", w.name());
    for m in &metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let wall_ios_per_s: Vec<f64> = eps
        .iter()
        .map(|e| e.sim.get("ios_completed") / (e.run_ns as f64 / 1e9))
        .collect();
    let speed: Vec<f64> = eps.iter().map(Episode::run_scale).collect();
    println!("  by episode, at reference speed:");
    println!("    host_ios_per_s  {}", list(&ios_per_s));
    println!("    setup_s         {}", list(&setup_s));
    println!("  by episode, as measured on the wall clock:");
    println!("    host_ios_per_s  {}", list(&wall_ios_per_s));
    println!("    host speed      {}", list(&speed));
    println!(
        "  {:<36} {:>16} count (per episode)",
        "ios_attempted", attempted
    );
    println!(
        "  {:<36} {:>16} count (per episode)",
        "ios_failed",
        attempted - completed
    );
    print_sim_outputs(sim);
    Ok(RunReport {
        problems: gate(w, seed, &eps),
        attempted: attempted * n,
        failed: (attempted - completed) * n,
        metrics,
    })
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median over `eps` of `f`.
fn med(eps: &[&Episode], f: impl Fn(&Episode) -> f64) -> f64 {
    median(&eps.iter().map(|e| f(e)).collect::<Vec<_>>())
}

/// Traced run: untraced and traced episodes alternate; the per-layer
/// metrics come from the traced ones.
fn per_layer(w: WorkloadId, seed: u64, seconds: u64) -> Result<RunReport, String> {
    let wall0 = Instant::now();
    let cpu0 = host::cpu_ns()?;
    let eps = episodes(w, seed, seconds, |i| i % 2 == 1);
    let cpu_util = (host::cpu_ns()? - cpu0) as f64 / wall0.elapsed().as_nanos() as f64;
    let (traced, untraced): (Vec<&Episode>, Vec<&Episode>) =
        eps.iter().partition(|e| e.probes.is_some());
    // Host times are medians over the traced episodes, at the reference
    // host speed (see `Episode`).
    let probe = |e: &Episode| e.probes.expect("traced episode");
    let s = &eps[0].sim;
    let ios = s.get("ios_completed");
    let events = s.get("events");
    let (moves, stale) = (s.get("gc_moves"), s.get("gc_stale"));
    let lookups = s.get("cmt_hits") + s.get("cmt_pending_hits") + s.get("cmt_misses");
    let run_ns = med(&traced, |e| e.run_ref_ns);
    let callback_ns = med(&traced, |e| probe(e).callback_ns as f64 * e.run_scale());
    let metrics = vec![
        metric("setup.fill_events", s.get("fill_events"), "count"),
        metric(
            "setup.host_ns_per_event",
            med(&traced, |e| probe(e).fill_ns as f64 * e.setup_scale()) / s.get("fill_events"),
            "ns",
        ),
        metric("event.events", events, "count"),
        metric("event.events_per_io", ratio(events, ios), "event/IO"),
        metric("event.queue_ops", s.get("queue_ops"), "count"),
        metric("event.host_ns_per_event", ratio(run_ns, events), "ns"),
        metric("os.run_ns_per_io", ratio(run_ns - callback_ns, ios), "ns"),
        metric("os.queue_wait_us", s.get("sim_queue_wait_us"), "us"),
        metric("controller.events", s.get("controller_events"), "count"),
        metric("controller.issued_app", s.get("issued_app"), "count"),
        metric(
            "controller.issued_internal",
            s.get("issued_internal"),
            "count",
        ),
        metric(
            "controller.quiescent_at_end",
            s.get("quiescent_at_end"),
            "bool",
        ),
        metric("controller.gc.moves", moves, "count"),
        metric("controller.gc.stale", stale, "count"),
        metric(
            "controller.gc.useful_ratio",
            ratio(moves, moves + stale),
            "ratio",
        ),
        metric("controller.gc.erases", s.get("gc_erases"), "count"),
        metric("controller.wa", s.get("sim_wa"), "ratio"),
        metric(
            "controller.ftl.cmt_hit_ratio",
            ratio(s.get("cmt_hits"), lookups),
            "ratio",
        ),
        metric(
            "controller.ftl.mapping_fetches",
            s.get("mapping_fetches"),
            "count",
        ),
        metric(
            "controller.ftl.mapping_writebacks",
            s.get("mapping_writebacks"),
            "count",
        ),
        metric("flash.reads", ratio(s.get("flash_reads"), ios), "op/IO"),
        metric(
            "flash.programs",
            ratio(s.get("flash_programs"), ios),
            "op/IO",
        ),
        metric("flash.erases", ratio(s.get("flash_erases"), ios), "op/IO"),
        metric(
            "flash.transfers",
            ratio(s.get("flash_transfers"), ios),
            "op/IO",
        ),
        metric(
            "flash.copybacks",
            ratio(s.get("flash_copybacks"), ios),
            "op/IO",
        ),
        metric(
            "flash.fault.reads_sampled",
            s.get("fault_reads_sampled"),
            "count",
        ),
        metric(
            "flash.fault.read_retries",
            s.get("fault_read_retries"),
            "count",
        ),
        metric(
            "flash.fault.program_fails",
            s.get("fault_program_fails"),
            "count",
        ),
        metric("flash.fault.grown_bad", s.get("fault_grown_bad"), "count"),
        metric("obs.spans_closed", s.get("spans_closed"), "count"),
        metric("obs.spans_dropped", s.get("spans_dropped"), "count"),
        metric("obs.timeline_rows", s.get("timeline_rows"), "count"),
        metric(
            "workloads.callback_ns_per_io",
            ratio(callback_ns, ios),
            "ns",
        ),
        metric(
            "workloads.blktrace.records",
            s.get("trace_records"),
            "count",
        ),
        metric(
            "workloads.blktrace.record_ns",
            med(&traced, |e| {
                let p = probe(e);
                ratio(p.record_ns as f64 * e.run_scale(), p.record_calls as f64)
            }),
            "ns",
        ),
        metric("proc.cpu_util", cpu_util, "ratio"),
        metric(
            "proc.host_speed",
            med(&eps.iter().collect::<Vec<_>>(), Episode::run_scale),
            "ratio",
        ),
        metric(
            "trace.overhead",
            ratio(run_ns, med(&untraced, |e| e.run_ref_ns)),
            "ratio",
        ),
    ];
    println!(
        "== {} (seed {seed}, {} traced + {} untraced episodes, per layer)",
        w.name(),
        traced.len(),
        untraced.len()
    );
    for m in &metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let attempted = s.get("ios_attempted") as u64;
    let failed = attempted - ios as u64;
    Ok(RunReport {
        problems: gate(w, seed, &eps),
        attempted: attempted * eps.len() as u64,
        failed: failed * eps.len() as u64,
        metrics,
    })
}

/// `--workload all`: run each workload in a child process of its own
/// (so `peak_rss_mb` is each workload's own), pass its tables through,
/// and merge the result lines with metric names prefixed by workload.
fn run_all(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for w in WorkloadId::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        let o = Outcome::parse(last).ok_or(format!("{}: no result line", w.name()))?;
        all.correct &= o.correct && out.status.success();
        all.attempted += o.attempted;
        all.failed += o.failed;
        for (name, value, unit) in o.metrics {
            all.metrics
                .push((format!("{}.{name}", w.name()), value, unit));
        }
    }
    Ok(all)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_reference {
        println!(
            "# workload statistic value: simulated statistics at the default seed ({DEFAULT_SEED})"
        );
        for w in WorkloadId::ALL {
            let ep = run_episode(w, DEFAULT_SEED, w.default_size(), false);
            print!("{}", sim::reference_lines(w.name(), &ep.sim));
        }
        return ExitCode::SUCCESS;
    }
    let outcome = match args.workload {
        None => run_all(&args),
        Some(w) => run_one(w, &args),
    };
    match outcome {
        Ok(o) => {
            println!("{}", o.to_line());
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload and check it.
fn run_one(w: WorkloadId, args: &Args) -> Result<Outcome, String> {
    let report = if args.trace {
        per_layer(w, args.seed, args.seconds)?
    } else {
        end_to_end(w, args.seed, args.seconds)?
    };
    let mut problems = report.problems;
    for m in &report.metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {} is {}", m.name, m.value));
        }
    }
    for p in &problems {
        eprintln!("simbench: CORRECTNESS: {}: {p}", w.name());
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: report.attempted,
        failed: report.failed,
        metrics: report
            .metrics
            .into_iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    if m.value.is_finite() { m.value } else { 0.0 },
                    m.unit.to_string(),
                )
            })
            .collect(),
    })
}
