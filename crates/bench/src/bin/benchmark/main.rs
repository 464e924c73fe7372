//! The repository's benchmark: six named workloads through the public APIs
//! of every crate, end-to-end metrics in both clocks, and a per-layer
//! ledger from a traced second pass. See `README.md` beside this file.
//!
//! ```text
//! benchmark [--workload <name>] [--seed <n>] [--seconds <s> | --repeats <n>]
//!           [--trace <0|1> | --traced] [--quick] [--self-check]
//! ```
//!
//! With `--trace <0|1>` (the harness form) the last line of standard
//! output is one JSON object `{correct, attempted, failed, metrics}`.
//! Every measurement runs in a fresh child process of this executable
//! (`--child`), pinned to one CPU.

#![forbid(unsafe_code)]

mod instrument;
mod names;
mod probes;
mod replay;
mod smb_mix;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use names::{MetricDef, Workload, END_TO_END, PER_LAYER};
use workloads::{Sizes, FULL, QUICK};

/// Untraced repeats a timed run never goes below.
const MIN_REPEATS: usize = 3;
/// Repeats of a run given neither `--seconds` nor `--repeats`.
const DEFAULT_REPEATS: usize = 5;
/// A child that runs longer than this is hung (a full-size child takes
/// one to four seconds) and is killed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);
/// The traced replay must reproduce the platform's `virt_iter_ms` this closely.
const REPLAY_TOLERANCE: f64 = 0.01;

#[derive(Debug, Clone)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    repeats: Option<usize>,
    traced: bool,
    /// `--trace <0|1>` was given: finish with the harness JSON line.
    harness: bool,
    quick: bool,
    self_check: bool,
}

struct ChildArgs {
    workload: Workload,
    seed: u64,
    traced: bool,
    quick: bool,
    spawned_at: SystemTime,
}

enum Mode {
    Parent(Options),
    Child(ChildArgs),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut o = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: None,
        repeats: None,
        traced: false,
        harness: false,
        quick: false,
        self_check: false,
    };
    let mut child = None;
    let mut spawned_at = SystemTime::now();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let workload = |name: &String| {
            Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
        };
        let number = |v: &String| v.parse::<f64>().map_err(|_| format!("{flag}: bad number {v:?}"));
        match flag.as_str() {
            "--workload" => o.workloads = vec![workload(value()?)?],
            "--child" => child = Some(workload(value()?)?),
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed: bad number".to_string())?,
            "--seconds" => o.seconds = Some(number(value()?)?),
            "--repeats" => o.repeats = Some(number(value()?)? as usize),
            "--trace" => {
                o.harness = true;
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--traced" => o.traced = true,
            "--quick" => o.quick = true,
            "--self-check" => o.self_check = true,
            "--spawned-at" => {
                spawned_at = UNIX_EPOCH + Duration::from_nanos(number(value()?)? as u64);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.repeats == Some(0) || o.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--repeats and --seconds must be positive".to_string());
    }
    Ok(match child {
        Some(workload) => Mode::Child(ChildArgs {
            workload,
            seed: o.seed,
            traced: o.traced,
            quick: o.quick,
            spawned_at,
        }),
        None => Mode::Parent(o),
    })
}

/// Where traces and `result.json` go: under the build directory, never in
/// the repository tree.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}

// ---------------------------------------------------------------------------
// Child: one in-process execution, reported as one record per line.
// ---------------------------------------------------------------------------

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_child(args: &ChildArgs) -> ExitCode {
    let sizes: &Sizes = if args.quick { &QUICK } else { &FULL };
    let tracer = args.traced.then(trace::Tracer::new);
    let mut out = workloads::run(args.workload, args.seed, sizes, tracer.as_ref());
    let setup_s = out.first_op.duration_since(args.spawned_at).map_or(0.0, |d| d.as_secs_f64());
    let rss = peak_rss_mb();
    if let Some(tracer) = &tracer {
        let dir = out_dir();
        let path = dir.join(format!("trace.{}.json", args.workload.name()));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_trace(&tracer.spans())));
        if let Err(e) = written {
            out.problems.push(format!("cannot write {}: {e}", path.display()));
        }
        out.layer.extend(probes::run(sizes));
    }
    let mut text = String::new();
    for (name, value) in [
        ("virt_iter_ms", out.virt_iter_ms),
        ("virt_run_s", out.virt_run_s),
        ("host_s", out.host_s),
        ("setup_s", setup_s),
        ("peak_rss_mb", rss),
    ] {
        let _ = writeln!(text, "E {name} {value:?}");
    }
    let slices: Vec<String> = out.host_slices.iter().map(|v| format!("{v:?}")).collect();
    let _ = writeln!(text, "S host_slices {}", slices.join(" "));
    let _ = writeln!(text, "N attempted {}", out.attempted);
    let _ = writeln!(text, "N failed {}", out.failed);
    let _ = writeln!(text, "N checksum {}", out.checksum);
    for (name, value) in &out.layer {
        let _ = writeln!(text, "L {name} {value:?}");
    }
    for p in &out.problems {
        let _ = writeln!(text, "P {}", p.replace('\n', " "));
    }
    print!("{text}");
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Parent: spawn children, aggregate, check, report.
// ---------------------------------------------------------------------------

/// One child's parsed report.
#[derive(Debug, Default, Clone)]
struct ChildReport {
    e2e: BTreeMap<String, f64>,
    counts: BTreeMap<String, u64>,
    layer: BTreeMap<String, f64>,
    /// `host_s` cut into slices at fixed points of the work.
    host_slices: Vec<f64>,
    problems: Vec<String>,
}

fn parse_child(stdout: &str) -> ChildReport {
    let mut r = ChildReport::default();
    for line in stdout.lines() {
        let mut parts = line.splitn(3, ' ');
        let (kind, a, b) = (parts.next(), parts.next(), parts.next());
        match (kind, a, b) {
            (Some("E"), Some(name), Some(v)) => {
                r.e2e.insert(name.to_string(), v.parse().unwrap_or(f64::NAN));
            }
            (Some("L"), Some(name), Some(v)) => {
                r.layer.insert(name.to_string(), v.parse().unwrap_or(f64::NAN));
            }
            (Some("S"), Some("host_slices"), Some(v)) => {
                r.host_slices = v.split(' ').map(|x| x.parse().unwrap_or(f64::NAN)).collect();
            }
            (Some("N"), Some(name), Some(v)) => {
                r.counts.insert(name.to_string(), v.parse().unwrap_or(0));
            }
            (Some("P"), Some(a), b) => {
                r.problems.push(format!("{a} {}", b.unwrap_or("")).trim_end().to_string());
            }
            _ => {}
        }
    }
    r
}

/// The CPU children are pinned to: the last one this process may run on.
/// The simulator runs exactly one simulated process at a time, so one core
/// loses nothing and removes cross-core wake-up noise.
fn pin_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?.trim();
    let last = list.rsplit([',', '-']).next()?.trim();
    let taskset_works = Command::new("taskset")
        .args(["-c", last, "true"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    taskset_works.then(|| last.to_string())
}

struct Spawner {
    exe: PathBuf,
    cpu: Option<String>,
    seed: u64,
    quick: bool,
}

impl Spawner {
    fn run(&self, workload: Workload, traced: bool) -> ChildReport {
        let mut cmd = match &self.cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.args(["-c", cpu]).arg(&self.exe);
                c
            }
            None => Command::new(&self.exe),
        };
        let now = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        cmd.args(["--child", workload.name(), "--seed", &self.seed.to_string()])
            .args(["--spawned-at", &now.to_string()])
            .env("SHMCAFFE_THREADS", "1")
            .stdin(Stdio::null())
            .stderr(Stdio::null());
        if traced {
            cmd.arg("--traced");
        }
        if self.quick {
            cmd.arg("--quick");
        }
        let failed = |why: String| ChildReport { problems: vec![why], ..Default::default() };
        let mut child = match cmd.stdout(Stdio::piped()).spawn() {
            Ok(child) => child,
            Err(e) => return failed(format!("cannot start child: {e}")),
        };
        // A child's whole report is a few KB, well under the pipe buffer,
        // so it never blocks on a reader that is still polling. A hung
        // simulation is killed rather than waited for; either way the
        // child has been reaped when this function returns.
        let deadline = Instant::now() + CHILD_TIMEOUT;
        let timed_out = loop {
            match child.try_wait() {
                Ok(Some(_)) | Err(_) => break false,
                Ok(None) if Instant::now() >= deadline => {
                    let _ = child.kill();
                    break true;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        match child.wait_with_output() {
            _ if timed_out => {
                failed(format!("child still running after {CHILD_TIMEOUT:?}: killed"))
            }
            Ok(out) if out.status.success() => parse_child(&String::from_utf8_lossy(&out.stdout)),
            Ok(out) => failed(format!("child exited with {}", out.status)),
            Err(e) => failed(format!("cannot collect child: {e}")),
        }
    }
}

/// Everything measured for one workload.
#[derive(Debug, Default)]
struct Measured {
    /// Per end-to-end metric: one sample per untraced repeat.
    e2e: BTreeMap<&'static str, Vec<f64>>,
    /// Per untraced repeat: its `host_s` in slices.
    host_slices: Vec<Vec<f64>>,
    /// Per per-layer metric: one sample per traced repeat.
    layer: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Measured {
    /// The reported value of an end-to-end metric over the repeats of one
    /// run. A repeat's work is fixed and deterministic, so its host time
    /// only ever varies upwards, by whatever the shared machine's other
    /// tenants add; the two host timings therefore report a floor and the
    /// rest the median. `setup_s` is the fastest repeat. `host_s` is the
    /// sum over the slices of the measured phase (see `PhaseClock`) of the
    /// fastest repeat of each slice: the interference comes in bursts of
    /// milliseconds that slow everything by up to 1.8x and fill 20-98 % of
    /// a minute, so every whole repeat catches its share of them, while
    /// some repeat of nearly every 15-30 ms slice escapes.
    fn e2e_value(&self, name: &str) -> f64 {
        let Some(samples) = self.e2e.get(name) else { return f64::NAN };
        match name {
            "host_s" => stats::sum_of_column_minima(&self.host_slices),
            "setup_s" => stats::min(samples),
            _ => stats::median(samples),
        }
    }

    fn layer_value(&self, name: &str) -> f64 {
        self.layer.get(name).filter(|v| !v.is_empty()).map_or(0.0, |v| stats::median(v))
    }
}

fn measure(workload: Workload, o: &Options, spawner: &Spawner) -> Measured {
    let start = Instant::now();
    let mut m = Measured::default();
    let mut untraced: Vec<ChildReport> = Vec::new();
    let mut traced: Vec<ChildReport> = Vec::new();
    let min_repeats = match (o.traced, o.quick) {
        (true, _) | (_, true) => 1,
        _ => MIN_REPEATS,
    };
    // The longest repeat so far: a timed run stops when another one like it
    // would end after `--seconds`.
    let mut longest = 0.0f64;
    loop {
        let began = start.elapsed().as_secs_f64();
        untraced.push(spawner.run(workload, false));
        if o.traced {
            traced.push(spawner.run(workload, true));
        }
        let elapsed = start.elapsed().as_secs_f64();
        longest = longest.max(elapsed - began);
        let done = match (o.repeats, o.seconds) {
            (Some(n), _) => untraced.len() >= n,
            (None, Some(s)) => untraced.len() >= min_repeats && elapsed + longest > s,
            (None, None) => untraced.len() >= if o.quick { 1 } else { DEFAULT_REPEATS },
        };
        if done {
            break;
        }
    }

    for def in END_TO_END {
        let samples: Vec<f64> =
            untraced.iter().filter_map(|r| r.e2e.get(def.name).copied()).collect();
        if samples.len() != untraced.len() || samples.iter().any(|v| !v.is_finite() || *v <= 0.0) {
            m.problems.push(format!("{} was not measured on every repeat", def.name));
        }
        m.e2e.insert(def.name, samples);
    }
    m.host_slices = untraced.iter().map(|r| r.host_slices.clone()).collect();
    if !stats::sum_of_column_minima(&m.host_slices).is_finite() {
        m.problems.push("the repeats did not cut the measured phase into the same slices".into());
    }
    for r in untraced.iter().chain(&traced) {
        m.attempted += r.counts.get("attempted").copied().unwrap_or(0);
        m.failed += r.counts.get("failed").copied().unwrap_or(0);
        m.problems.extend(r.problems.iter().cloned());
    }
    // Same seed, same code: virtual time must repeat bit for bit among the
    // platform runs and among the replays (the two are held to each other
    // by the replay tolerance below), and the final weights everywhere.
    for group in [&untraced, &traced] {
        for r in group.iter().skip(1) {
            for name in ["virt_iter_ms", "virt_run_s"] {
                let (a, b) = (group[0].e2e.get(name), r.e2e.get(name));
                if a.map(|v| v.to_bits()) != b.map(|v| v.to_bits()) {
                    m.problems.push(format!("{name} differs between repeats: {a:?} vs {b:?}"));
                }
            }
        }
    }
    let reference = &untraced[0];
    if untraced
        .iter()
        .chain(&traced)
        .any(|r| r.counts.get("checksum") != reference.counts.get("checksum"))
    {
        m.problems.push("final-weights checksum differs between repeats".to_string());
    }

    if o.traced {
        for def in PER_LAYER {
            let samples = traced.iter().filter_map(|r| r.layer.get(def.name).copied()).collect();
            m.layer.insert(def.name, samples);
        }
        let host = |rs: &[ChildReport]| {
            stats::min(&rs.iter().filter_map(|r| r.e2e.get("host_s").copied()).collect::<Vec<_>>())
        };
        m.layer.insert("bench.trace_overhead_share", vec![host(&traced) / host(&untraced) - 1.0]);
        let virt = |r: &ChildReport| r.e2e.get("virt_iter_ms").copied().unwrap_or(f64::NAN);
        let delta = ((virt(&traced[0]) - virt(reference)) / virt(reference)).abs();
        m.layer.insert("bench.replay_virt_delta", vec![delta]);
        if delta.is_nan() || delta > REPLAY_TOLERANCE {
            m.problems.push(format!(
                "traced replay virt_iter_ms is off by {:.2}% (limit 1%): not the same workload",
                delta * 100.0
            ));
        }
        for (name, samples) in &m.layer {
            if samples.iter().any(|v| !v.is_finite()) {
                m.problems.push(format!("{name} is not a finite number"));
            }
        }
    }
    m.problems.sort();
    m.problems.dedup();
    m
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

fn json_metrics(defs: &[MetricDef], value: impl Fn(&str) -> f64) -> String {
    let mut out = String::from("{");
    for (i, def) in defs.iter().enumerate() {
        let v = value(def.name);
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            def.name,
            def.unit
        );
    }
    out.push('}');
    out
}

fn harness_line(m: &Measured, traced: bool) -> String {
    let metrics = if traced {
        json_metrics(&PER_LAYER, |n| m.layer_value(n))
    } else {
        json_metrics(&END_TO_END, |n| m.e2e_value(n))
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        m.problems.is_empty(),
        m.attempted.max(1),
        m.failed
    )
}

fn print_workload(workload: Workload, m: &Measured, traced: bool) {
    println!("== {}: {} ==", workload.name(), workload.why());
    for def in END_TO_END {
        let samples = &m.e2e[def.name];
        let [q1, q2, q3] = stats::quartiles(samples);
        println!(
            "  {:<14} {:>14.6} {:<4} (min {:.6}, q1 {q1:.6}, median {q2:.6}, q3 {q3:.6}, n={}, \
             {} is better)",
            def.name,
            m.e2e_value(def.name),
            def.unit,
            stats::min(samples),
            samples.len(),
            def.better
        );
    }
    println!("  {:<14} {:>14} of {} attempted", "failed", m.failed, m.attempted);
    if traced {
        for def in PER_LAYER {
            println!("  {:<36} {:>16.6} {}", def.name, m.layer_value(def.name), def.unit);
        }
    }
    for p in &m.problems {
        println!("  PROBLEM: {p}");
    }
}

/// Host facts a reader needs to interpret the host-clock numbers.
fn host_block(cpu: &Option<String>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().into(),
        );
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    format!(
        "{{\"nproc\": {nproc}, \"pinned\": {}, \"pinned_cpu\": \"{}\", \"threads\": 1, \
         \"rustc\": \"{rustc}\", \"avx2\": {avx2}}}",
        cpu.is_some(),
        cpu.as_deref().unwrap_or("")
    )
}

fn write_result(o: &Options, host: &str, results: &[(Workload, Measured)]) {
    let mut out =
        format!("{{\n  \"seed\": {},\n  \"quick\": {},\n  \"host\": {host},\n", o.seed, o.quick);
    out.push_str("  \"workloads\": {\n");
    for (i, (w, m)) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"repeats\": {}, \
             \"end_to_end\": {}, \"per_layer\": {}}}{}",
            w.name(),
            m.problems.is_empty(),
            m.attempted,
            m.failed,
            m.e2e["host_s"].len(),
            json_metrics(&END_TO_END, |n| m.e2e_value(n)),
            if o.traced { json_metrics(&PER_LAYER, |n| m.layer_value(n)) } else { "{}".into() },
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    out.push_str("  }\n}\n");
    let dir = out_dir();
    let path = dir.join("result.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out)) {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Two full sets of the same code and seed: every end-to-end metric must
/// agree within its own bound. A metric whose run-to-run spread exceeds
/// the bound cannot resolve a regression of that size and is reported as
/// unresolved.
fn self_check(first: &[(Workload, Measured)], second: &[(Workload, Measured)]) -> bool {
    let mut ok = true;
    println!("== self-check: two sets, same code, same seed ==");
    for ((w, a), (_, b)) in first.iter().zip(second) {
        for def in END_TO_END {
            let (va, vb) = (a.e2e_value(def.name), b.e2e_value(def.name));
            let drift = (vb - va).abs() / va.abs();
            let spread = stats::spread(&a.e2e[def.name]).max(stats::spread(&b.e2e[def.name]));
            // Virtual time must agree exactly; set-up differences under
            // 50 ms never count.
            let agrees = if def.name.starts_with("virt_") {
                va.to_bits() == vb.to_bits()
            } else {
                drift <= def.bound || (def.name == "setup_s" && (vb - va).abs() < 0.05)
            };
            let verdict = match (agrees, spread > def.bound) {
                (false, _) => "DISAGREES",
                (true, true) => "unresolved",
                (true, false) => "ok",
            };
            println!(
                "  {:<18} {:<14} {va:>12.6} vs {vb:>12.6}  drift {:>6.2}%  spread {:>6.2}%  \
                 bound {:>5.1}%  {verdict}",
                w.name(),
                def.name,
                drift * 100.0,
                spread * 100.0,
                def.bound * 100.0
            );
            ok &= agrees;
        }
    }
    ok
}

fn run_parent(o: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spawner = Spawner { exe, cpu: pin_cpu(), seed: o.seed, quick: o.quick };
    let host = host_block(&spawner.cpu);
    println!("host: {host}");
    let run_set = || -> Vec<(Workload, Measured)> {
        o.workloads.iter().map(|&w| (w, measure(w, o, &spawner))).collect()
    };
    let results = run_set();
    for (w, m) in &results {
        print_workload(*w, m, o.traced);
    }
    let mut ok = results.iter().all(|(_, m)| m.problems.is_empty());
    if o.self_check {
        let second = run_set();
        ok &= second.iter().all(|(_, m)| m.problems.is_empty()) && self_check(&results, &second);
    }
    write_result(o, &host, &results);
    if o.harness {
        let (_, m) = &results[0];
        println!("{}", harness_line(m, o.traced));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Child(child)) => run_child(&child),
        Ok(Mode::Parent(o)) if o.harness && o.workloads.len() != 1 => {
            eprintln!("--trace needs --workload <name>");
            ExitCode::FAILURE
        }
        Ok(Mode::Parent(o)) => run_parent(&o),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn harness_arguments_parse() {
        let mode = parse_args(&args(&[
            "--workload",
            "smb_mix",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]));
        let Ok(Mode::Parent(o)) = mode else { panic!("expected parent mode") };
        assert_eq!(o.workloads, vec![Workload::SmbMix]);
        assert_eq!((o.seed, o.seconds, o.traced, o.harness), (7, Some(3.0), true, true));
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--repeats", "0"])).is_err());
        assert!(matches!(parse_args(&args(&["--child", "fault_a8"])), Ok(Mode::Child(_))));
    }

    #[test]
    fn child_records_round_trip() {
        let r = parse_child(
            "E host_s 1.25\nS host_slices 1.0 0.25\nN failed 3\nL smb.faults 2.0\nP it broke badly\nnoise\n",
        );
        assert_eq!(r.e2e["host_s"], 1.25);
        assert_eq!(r.host_slices, vec![1.0, 0.25]);
        assert_eq!(r.counts["failed"], 3);
        assert_eq!(r.layer["smb.faults"], 2.0);
        assert_eq!(r.problems, vec!["it broke badly".to_string()]);
    }

    #[test]
    fn harness_line_has_exactly_the_contract_keys() {
        let mut m = Measured::default();
        for def in END_TO_END {
            m.e2e.insert(def.name, vec![1.5, 2.5, 3.5]);
        }
        // Three repeats in two slices each: the floor takes 0.5 from the
        // first repeat and 0.75 from the second.
        m.host_slices = vec![vec![0.5, 1.0], vec![1.75, 0.75], vec![1.5, 2.0]];
        m.attempted = 10;
        let line = harness_line(&m, false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"host_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 2.5, \"unit\": \"MB\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let traced = harness_line(&m, true);
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
    }

    /// Every workload runs in-process at smoke size, traced and untraced,
    /// passes its own correctness checks, and the replay reproduces the
    /// platform run — so library API drift breaks `cargo test`, not the
    /// next benchmark run. Together with the probes and the two numbers
    /// the parent computes, the runs emit exactly the listed per-layer
    /// metrics.
    #[test]
    fn quick_smoke_of_every_workload() {
        let mut emitted: Vec<&str> = vec!["bench.trace_overhead_share", "bench.replay_virt_delta"];
        for w in Workload::ALL {
            let plain = workloads::run(w, 3, &QUICK, None);
            assert!(plain.problems.is_empty(), "{}: {:?}", w.name(), plain.problems);
            assert!(plain.virt_iter_ms > 0.0 && plain.virt_run_s > 0.0 && plain.attempted > 0);
            assert!(!plain.host_slices.is_empty() && plain.host_slices.len() <= 64);
            let tracer = trace::Tracer::new();
            let traced = workloads::run(w, 3, &QUICK, Some(&tracer));
            assert!(traced.problems.is_empty(), "{}: {:?}", w.name(), traced.problems);
            assert_eq!(plain.checksum, traced.checksum, "{}: replay diverged", w.name());
            let delta = (traced.virt_iter_ms - plain.virt_iter_ms).abs() / plain.virt_iter_ms;
            assert!(delta <= REPLAY_TOLERANCE, "{}: virt_iter_ms off by {delta}", w.name());
            assert!(!tracer.spans().is_empty());
            emitted.extend(traced.layer.keys());
        }
        let probed = probes::run(&QUICK);
        for (name, v) in &probed {
            assert!(v.is_finite() && *v >= 0.0, "{name} = {v}");
        }
        emitted.extend(probed.keys());
        emitted.sort_unstable();
        emitted.dedup();
        let mut listed: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        listed.sort_unstable();
        assert_eq!(emitted, listed, "emitted per-layer metrics differ from names::PER_LAYER");
    }
}
