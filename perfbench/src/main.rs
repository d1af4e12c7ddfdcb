//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload sweep-cold|flow-validate|remap-delta --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs a memory probe (the workload's first 20 operations,
//! each in a fresh child process), then all three workloads taking turns
//! in one timed loop: the named workload for `S` seconds of operation
//! time, each other one (a companion) for a quarter of that, each for at
//! least 100 operations (flow-validate: its whole corpus). So every
//! end-to-end metric has a measured value on every workload, taken over
//! the whole run. `--trace 1` runs the workload untraced and
//! then traced over the same operation count, and reports per-layer
//! metrics. Either way the last stdout line is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the lines before
//! it are a readable table and a JSON line of run metadata. The exit code
//! is nonzero when any correctness check fails. See `README.md`.

mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stats::{geomean, median, p90, OpEnd, Tally};
use trace::{chrome_json, self_times, Tracer};
use workloads::{Budget, Kind, Mode, Phase};

/// Operations of the memory probe, each in its own process.
const MEMORY_OPS: usize = 20;
/// Wall time between the repeated set-ups of a `--trace 0` run;
/// `setup_s` is the median of all of them.
const SETUP_INTERVAL: Duration = Duration::from_secs(2);
/// Passes whose per-pass counters are reported, in flow order.
const PASSES: [&str; 7] = [
    "bind",
    "wire-alloc",
    "schedule",
    "buffer-size",
    "verify-shared",
    "platform-gen",
    "boot-sim",
];
/// Layers whose self-time shares are reported.
const LAYERS: [&str; 14] = [
    "unattributed",
    "xml",
    "dse",
    "flow",
    "multi",
    "strategy",
    "pass.bind",
    "pass.wire-alloc",
    "pass.schedule",
    "pass.buffer-size",
    "pass.verify-shared",
    "pass.platform-gen",
    "pass.boot-sim",
    "sim.run",
];

/// The end-to-end metrics, with their units, as `BENCHMARK.json` lists
/// them.
const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("sweep.points_per_s", "points/s"),
    ("sweep.app_ms_p50", "ms"),
    ("sweep.app_ms_p90", "ms"),
    ("flow.app_ms_p50", "ms"),
    ("flow.app_ms_p90", "ms"),
    ("sim.mcycles_per_s", "Mcycle/s"),
    ("remap.ms_p50", "ms"),
    ("remap.ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("qor.tput_geomean", "iter/cycle"),
    ("qor.buffer_bytes", "bytes"),
    ("qor.feasible_share", "fraction"),
    ("failed_share", "fraction"),
];

/// The per-layer metric names, in `BENCHMARK.json` order.
fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = ["greedy", "spiral", "genetic"]
        .iter()
        .map(|b| format!("bind.{b}.ms"))
        .collect();
    for pass in PASSES {
        for suffix in ["ms", "runs", "hits"] {
            names.push(format!("pass.{pass}.{suffix}"));
        }
    }
    names.extend(
        [
            "pass_cache.hit_ratio",
            "analysis_cache.lookups",
            "analysis_cache.hits",
            "analysis_cache.misses",
            "analysis_cache.hit_ratio",
            "fingerprint.us_per_call",
            "state_space.calls",
            "state_space.us_per_call",
            "state_space.states_per_call",
            "expand.us_per_call",
            "expand.actors_per_call",
            "multi.map_use_case.ms",
            "multi.admitted",
            "multi.rejected",
            "sim.run.ms",
            "sim.cycles",
            "sim.firings",
            "sim.ns_per_firing",
            "codegen.ms",
            "codegen.bytes",
            "dse.sweep.ms",
            "dse.points",
            "dse.skipped",
            "dse.parallel_efficiency",
            "xml.parse.us",
        ]
        .map(String::from),
    );
    names.extend(LAYERS.iter().map(|l| format!("self.{l}.share")));
    names.extend(["trace.coverage", "trace.overhead_share"].map(String::from));
    names
}

/// Fails unless `metrics` holds exactly the `expected` names.
fn check_names(metrics: &BTreeMap<String, Metric>, expected: &[String]) -> Result<(), String> {
    let mut have: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut want: Vec<&str> = expected.iter().map(String::as_str).collect();
    have.sort_unstable();
    want.sort_unstable();
    if have == want {
        Ok(())
    } else {
        Err(format!(
            "reported metrics {have:?} differ from the declared {want:?}"
        ))
    }
}

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run only memory-probe operation `n` (see
    /// [`memory_probe`]).
    memory_op: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut memory_op = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Kind::by_name(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--memory-op" => {
                memory_op = Some(value.parse().map_err(|e| format!("--memory-op: {e}"))?)
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        memory_op,
    })
}

/// One reported metric.
struct Metric {
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// A finished run: what the last line reports plus the metadata.
struct Outcome {
    tally: Tally,
    metrics: BTreeMap<String, Metric>,
    phases: Vec<(Kind, &'static str, Phase)>,
}

fn put(
    metrics: &mut BTreeMap<String, Metric>,
    name: &str,
    unit: &'static str,
    value: Option<f64>,
    samples: usize,
) -> Result<(), String> {
    if !(stats::valid_name(name) && stats::valid_unit(unit)) {
        return Err(format!(
            "metric `{name}` or its unit `{unit}` breaks the naming rules"
        ));
    }
    let value = value
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("metric `{name}` has no value ({samples} samples)"))?;
    metrics.insert(
        name.to_string(),
        Metric {
            value,
            unit,
            samples,
        },
    );
    Ok(())
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Peak RSS of the workload's first `MEMORY_OPS` operations, each in a
/// fresh process as the `mamps` CLI runs one application per process.
/// Measured in-process, every figure after a heavy operation would carry
/// the memory the process keeps from it. Returns the per-operation peaks
/// (MiB) and the operations' tally.
fn memory_probe(args: &Args) -> Result<(Vec<f64>, Tally), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut peaks = Vec::with_capacity(MEMORY_OPS);
    let mut tally = Tally::default();
    for n in 0..MEMORY_OPS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", "1", "--trace", "0"])
            .args(["--memory-op", &n.to_string()])
            .output()
            .map_err(|e| format!("memory probe {n}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<&str> = text.split_whitespace().collect();
        match (out.status.success(), fields.as_slice()) {
            (true, ["memory-op", peak, failed]) => {
                peaks.push(peak.parse().map_err(|e| format!("memory probe {n}: {e}"))?);
                tally.record(if *failed == "0" {
                    OpEnd::Ok
                } else {
                    OpEnd::Failed
                });
            }
            _ => tally.record(OpEnd::Failed),
        }
    }
    Ok((peaks, tally))
}

/// Runs memory-probe operation `n` in this (fresh) process and prints
/// `memory-op <peak MiB> <failed ops>`.
fn memory_op(args: &Args, n: usize, jobs: usize) -> Result<(), String> {
    let mut input = workloads::setup(args.workload, args.seed)?;
    input.skip(n);
    let one = Budget {
        seconds: 0.0,
        min_ops: 1,
        max_ops: 1,
    };
    let tracer = Arc::new(Tracer::new(false));
    let phase = workloads::run(input, one, Mode::Memory, &tracer, jobs);
    let peak = phase.peak_rss_mb.first().ok_or("no peak RSS reading")?;
    println!("memory-op {peak} {}", phase.tally.failed);
    Ok(())
}

/// Seconds of operation time a workload gets in a `--trace 0` run, as a
/// share of `--seconds`: all of it for the run's own workload, a quarter
/// for each companion. remap-delta's own share is half, because every
/// remap operation is followed by a check (a cold re-map) that costs more
/// than the operation.
fn op_seconds(kind: Kind, own: bool, seconds: f64) -> f64 {
    let share = match (kind, own) {
        (Kind::Remap, true) => 0.5,
        (_, true) => 1.0,
        (_, false) => 0.25,
    };
    share * seconds
}

/// Fewest operations a workload runs in a `--trace 0` run: enough for a
/// p90, and for flow-validate the whole corpus once, because simulation
/// speed varies widely across applications. A sweep's 100 operations
/// take longer than a companion's share of the time.
fn min_ops(kind: Kind) -> usize {
    match kind {
        Kind::Flow => workloads::FLOW_CORPUS,
        _ => stats::MIN_P90_SAMPLES,
    }
}

/// How far a phase is towards its budget: the lesser of its share of the
/// time and of the operation count it must reach.
fn progress(op_s: f64, target_s: f64, ops: usize, min_ops: usize) -> f64 {
    let time = if target_s > 0.0 {
        op_s / target_s
    } else {
        f64::INFINITY
    };
    time.min(ops as f64 / min_ops as f64)
}

/// The `--trace 0` run: the memory probe, then all three workloads taking
/// turns one operation at a time (the least advanced phase goes next)
/// until each has used its time and run its operations, then the checks;
/// every end-to-end metric. Taking turns spreads every workload's samples
/// over the whole run, so each metric sees the machine's speed averaged
/// over the run rather than over one stretch of it.
fn measured_run(args: &Args, jobs: usize) -> Result<Outcome, String> {
    let mut kinds = vec![args.workload];
    kinds.extend(Kind::ALL.into_iter().filter(|k| *k != args.workload));

    let set_up = || -> Result<(f64, Vec<workloads::Inputs>), String> {
        let start = Instant::now();
        let inputs = kinds
            .iter()
            .map(|k| workloads::setup(*k, args.seed))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((start.elapsed().as_secs_f64(), inputs))
    };
    let (first_setup_s, inputs) = set_up()?;
    let mut setup_s = vec![first_setup_s];

    let (rss, memory_tally) = memory_probe(args)?;

    let tracer = Arc::new(Tracer::new(false));
    let mut runs: Vec<(Kind, &'static str, f64, workloads::Run)> = kinds
        .iter()
        .zip(inputs)
        .map(|(&kind, input)| {
            let own = kind == args.workload;
            (
                kind,
                if own { "workload" } else { "companion" },
                op_seconds(kind, own, args.seconds),
                workloads::Run::new(input, Mode::Timed, &tracer, jobs),
            )
        })
        .collect();
    // Set-up is timed again every `SETUP_INTERVAL` between operations, so
    // its median, like every other figure, spans the whole run.
    let start = Instant::now();
    let mut next_setup = SETUP_INTERVAL;
    while start.elapsed() < workloads::HARD_CAP {
        if start.elapsed() >= next_setup {
            setup_s.push(set_up()?.0);
            next_setup += SETUP_INTERVAL;
        }
        let next = runs
            .iter_mut()
            .map(|r| (progress(r.3.op_seconds(), r.2, r.3.ops(), min_ops(r.0)), r))
            .filter(|(p, _)| *p < 1.0)
            .min_by(|a, b| a.0.total_cmp(&b.0));
        match next {
            Some((_, r)) => r.3.step(),
            None => break,
        }
    }
    let phases: Vec<(Kind, &'static str, Phase)> = runs
        .into_iter()
        .map(|(kind, role, _, run)| (kind, role, run.finish(jobs)))
        .collect();

    let mut tally = memory_tally;
    for (_, _, p) in &phases {
        tally.merge(p.tally);
    }
    let phase = |k: Kind| {
        &phases
            .iter()
            .find(|(kind, _, _)| *kind == k)
            .expect("every kind ran")
            .2
    };

    let (sweep, flow, remap) = (phase(Kind::Sweep), phase(Kind::Flow), phase(Kind::Remap));
    let own = phase(args.workload);
    // A sweep's design points carry no buffer allocation: its buffer
    // figure comes from the flow companion phase.
    let buffers = if args.workload == Kind::Sweep {
        flow
    } else {
        own
    };

    let mut m = BTreeMap::new();
    put(&mut m, "setup_s", "s", median(&setup_s), setup_s.len())?;
    let n = sweep.latencies_ms.len();
    put(
        &mut m,
        "sweep.points_per_s",
        "points/s",
        Some(sweep.points as f64 / secs(sweep.op_ns)),
        n,
    )?;
    put(
        &mut m,
        "sweep.app_ms_p50",
        "ms",
        median(&sweep.latencies_ms),
        n,
    )?;
    put(
        &mut m,
        "sweep.app_ms_p90",
        "ms",
        p90(&sweep.latencies_ms),
        n,
    )?;
    let n = flow.latencies_ms.len();
    put(
        &mut m,
        "flow.app_ms_p50",
        "ms",
        median(&flow.latencies_ms),
        n,
    )?;
    put(&mut m, "flow.app_ms_p90", "ms", p90(&flow.latencies_ms), n)?;
    put(
        &mut m,
        "sim.mcycles_per_s",
        "Mcycle/s",
        Some(flow.sim_cycles as f64 / 1e6 / secs(flow.sim_ns)),
        flow.sim_runs,
    )?;
    let n = remap.latencies_ms.len();
    put(&mut m, "remap.ms_p50", "ms", median(&remap.latencies_ms), n)?;
    put(&mut m, "remap.ms_p90", "ms", p90(&remap.latencies_ms), n)?;
    put(&mut m, "peak_rss_mb", "MiB", median(&rss), rss.len())?;
    put(
        &mut m,
        "qor.tput_geomean",
        "iter/cycle",
        geomean(&own.qor_tputs),
        own.qor_tputs.len(),
    )?;
    put(
        &mut m,
        "qor.buffer_bytes",
        "bytes",
        geomean(&buffers.qor_buffer_bytes),
        buffers.qor_buffer_bytes.len(),
    )?;
    put(
        &mut m,
        "qor.feasible_share",
        "fraction",
        Some(own.qor_feasible as f64 / own.qor_outcomes.max(1) as f64),
        own.qor_outcomes as usize,
    )?;
    put(
        &mut m,
        "failed_share",
        "fraction",
        Some(tally.failed_share()),
        tally.attempted as usize,
    )?;
    let declared: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    check_names(&m, &declared)?;
    for (name, unit) in END_TO_END {
        if m[name].unit != unit {
            return Err(format!(
                "metric `{name}` reports unit `{}`, declared `{unit}`",
                m[name].unit
            ));
        }
    }
    Ok(Outcome {
        tally,
        metrics: m,
        phases,
    })
}

/// The `--trace 1` run: the workload untraced, then traced over the same
/// number of operations from a fresh set-up; every per-layer metric.
fn traced_run(args: &Args, jobs: usize) -> Result<Outcome, String> {
    let untraced = {
        let input = workloads::setup(args.workload, args.seed)?;
        let budget = Budget {
            seconds: args.seconds / 2.0,
            min_ops: stats::MIN_P90_SAMPLES,
            max_ops: usize::MAX,
        };
        workloads::run(
            input,
            budget,
            Mode::Timed,
            &Arc::new(Tracer::new(false)),
            jobs,
        )
    };
    let ops = untraced.latencies_ms.len();
    let tracer = Arc::new(Tracer::new(true));
    let traced = {
        let input = workloads::setup(args.workload, args.seed)?;
        let budget = Budget {
            seconds: 0.0,
            min_ops: ops,
            max_ops: ops,
        };
        workloads::run(input, budget, Mode::Timed, &tracer, jobs)
    };
    let spans = tracer.spans();
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!(
        "{out_dir}/trace-{}-s{}.json",
        args.workload.name(),
        args.seed
    );
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, chrome_json(&spans)))
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!("perfbench: {} spans written to {path}", spans.len());

    let t = &traced;
    let n = t.latencies_ms.len();
    let per_op = |x: f64| Some(x / n.max(1) as f64);
    let span_ns = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_ns as f64)
    };
    let ratio = |a: u64, b: u64| {
        Some(if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        })
    };
    let c = &t.counters;

    let mut m = BTreeMap::new();
    for (name, span) in [
        ("bind.greedy.ms", "bind.greedy"),
        ("bind.spiral.ms", "bind.spiral"),
        ("bind.genetic.ms", "bind.genetic"),
    ] {
        put(&mut m, name, "ms/op", per_op(span_ns(span) / 1e6), n)?;
    }
    for pass in PASSES {
        let (runs, hits, nanos) = c.passes.get(pass).copied().unwrap_or_default();
        let name = |suffix: &str| format!("pass.{pass}.{suffix}");
        put(&mut m, &name("ms"), "ms/op", per_op(nanos as f64 / 1e6), n)?;
        put(&mut m, &name("runs"), "count/op", per_op(runs as f64), n)?;
        put(&mut m, &name("hits"), "count/op", per_op(hits as f64), n)?;
    }
    put(
        &mut m,
        "pass_cache.hit_ratio",
        "ratio",
        ratio(c.pass_cache.0, c.pass_cache.1),
        n,
    )?;
    let (hits, misses) = c.analysis;
    put(
        &mut m,
        "analysis_cache.lookups",
        "count/op",
        per_op((hits + misses) as f64),
        n,
    )?;
    put(
        &mut m,
        "analysis_cache.hits",
        "count/op",
        per_op(hits as f64),
        n,
    )?;
    put(
        &mut m,
        "analysis_cache.misses",
        "count/op",
        per_op(misses as f64),
        n,
    )?;
    put(
        &mut m,
        "analysis_cache.hit_ratio",
        "ratio",
        ratio(hits, misses),
        n,
    )?;
    let calls = |p: &workloads::Probe| p.calls.load(std::sync::atomic::Ordering::Relaxed) as usize;
    put(
        &mut m,
        "fingerprint.us_per_call",
        "us",
        Some(t.fingerprint.us_per_call()),
        calls(&t.fingerprint),
    )?;
    put(
        &mut m,
        "state_space.calls",
        "count/op",
        per_op(misses as f64),
        n,
    )?;
    put(
        &mut m,
        "state_space.us_per_call",
        "us",
        Some(t.state_space.us_per_call()),
        calls(&t.state_space),
    )?;
    put(
        &mut m,
        "state_space.states_per_call",
        "states",
        Some(t.state_space.work_per_call()),
        calls(&t.state_space),
    )?;
    put(
        &mut m,
        "expand.us_per_call",
        "us",
        Some(t.expand.us_per_call()),
        calls(&t.expand),
    )?;
    put(
        &mut m,
        "expand.actors_per_call",
        "actors",
        Some(t.expand.work_per_call()),
        calls(&t.expand),
    )?;
    put(
        &mut m,
        "multi.map_use_case.ms",
        "ms/op",
        per_op(span_ns("multi.map_use_case") / 1e6),
        n,
    )?;
    put(
        &mut m,
        "multi.admitted",
        "count/op",
        per_op(c.admitted as f64),
        n,
    )?;
    put(
        &mut m,
        "multi.rejected",
        "count/op",
        per_op(c.rejected as f64),
        n,
    )?;
    let sim_ns = span_ns("sim.run");
    put(&mut m, "sim.run.ms", "ms/op", per_op(sim_ns / 1e6), n)?;
    put(
        &mut m,
        "sim.cycles",
        "cycles/op",
        per_op(t.sim_cycles as f64),
        n,
    )?;
    put(
        &mut m,
        "sim.firings",
        "count/op",
        per_op(c.sim_firings as f64),
        n,
    )?;
    put(
        &mut m,
        "sim.ns_per_firing",
        "ns",
        Some(if c.sim_firings == 0 {
            0.0
        } else {
            sim_ns / c.sim_firings as f64
        }),
        n,
    )?;
    let codegen_ns = c.passes.get("platform-gen").map_or(0, |p| p.2);
    put(
        &mut m,
        "codegen.ms",
        "ms/op",
        per_op(codegen_ns as f64 / 1e6),
        n,
    )?;
    put(
        &mut m,
        "codegen.bytes",
        "bytes/op",
        per_op(c.codegen_bytes as f64),
        n,
    )?;
    put(
        &mut m,
        "dse.sweep.ms",
        "ms/op",
        per_op(span_ns("dse.sweep") / 1e6),
        n,
    )?;
    put(
        &mut m,
        "dse.points",
        "count/op",
        per_op(c.dse_points as f64),
        n,
    )?;
    put(
        &mut m,
        "dse.skipped",
        "count/op",
        per_op(c.dse_skipped as f64),
        n,
    )?;
    put(
        &mut m,
        "dse.parallel_efficiency",
        "ratio",
        Some(if c.dse_capacity_ns == 0 {
            0.0
        } else {
            c.dse_busy_ns as f64 / c.dse_capacity_ns as f64
        }),
        n,
    )?;
    put(
        &mut m,
        "xml.parse.us",
        "us/op",
        per_op(span_ns("xml.parse") / 1e3),
        n,
    )?;
    let own = self_times(&spans);
    let total = own.values().sum::<u64>().max(1) as f64;
    for layer in LAYERS {
        put(
            &mut m,
            &format!("self.{layer}.share"),
            "ratio",
            Some(own.get(layer).copied().unwrap_or(0) as f64 / total),
            n,
        )?;
    }
    let unattributed = own.get("unattributed").copied().unwrap_or(0) as f64;
    put(
        &mut m,
        "trace.coverage",
        "ratio",
        Some(1.0 - unattributed / total),
        n,
    )?;
    put(
        &mut m,
        "trace.overhead_share",
        "ratio",
        Some((t.op_ns as f64 - untraced.op_ns as f64) / untraced.op_ns.max(1) as f64),
        n,
    )?;

    check_names(&m, &per_layer_names())?;

    let mut tally = untraced.tally;
    tally.merge(traced.tally);
    Ok(Outcome {
        tally,
        metrics: m,
        phases: vec![
            (args.workload, "untraced", untraced),
            (args.workload, "traced", traced),
        ],
    })
}

/// `git rev-parse HEAD` of the checkout, without looking above it.
fn git_revision() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let ceiling = std::path::Path::new(root)
        .canonicalize()
        .ok()
        .and_then(|p| p.parent().map(|p| p.display().to_string()))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_outcome(args: &Args, jobs: usize, out: &Outcome) {
    println!(
        "perfbench {} seed {} ({} s, trace {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (kind, role, p) in &out.phases {
        println!(
            "  {role:<9} {:<13} {:>6} ops  {:>9.3} s in ops  {:>7.3} s checks  {} failed",
            kind.name(),
            p.latencies_ms.len(),
            secs(p.op_ns),
            p.check_s,
            p.tally.failed
        );
        for f in &p.failures {
            println!("    FAILED {f}");
        }
    }
    println!(
        "  {:<28} {:>16} {:<10} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for (name, metric) in &out.metrics {
        println!(
            "  {name:<28} {:>16.6} {:<10} {:>8}",
            metric.value, metric.unit, metric.samples
        );
    }

    let samples: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, metric)| format!("{}:{}", json_str(name), metric.samples))
        .collect();
    let phases: Vec<String> = out
        .phases
        .iter()
        .map(|(kind, role, p)| {
            format!(
                "{{\"workload\":{},\"role\":{},\"ops\":{},\"failed\":{},\"op_seconds\":{}}}",
                json_str(kind.name()),
                json_str(role),
                p.latencies_ms.len(),
                p.tally.failed,
                secs(p.op_ns)
            )
        })
        .collect();
    println!(
        "{{\"meta\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{jobs},\
         \"git_rev\":{},\"rustc\":{},\"phases\":[{}],\"samples\":{{{}}}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&git_revision()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        phases.join(","),
        samples.join(",")
    );

    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, metric)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                metric.value,
                json_str(metric.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload sweep-cold|flow-validate|remap-delta \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    if let Some(n) = args.memory_op {
        return match memory_op(&args, n, jobs) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = if args.trace {
        traced_run(&args, jobs)
    } else {
        measured_run(&args, jobs)
    };
    match result {
        Ok(out) => {
            print_outcome(&args, jobs, &out);
            if out.tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists of `BENCHMARK.json`, as `(name, unit)` pairs.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc = serde::json::parse(text).expect("BENCHMARK.json parses");
        let entries = doc.as_map().expect("top-level object");
        serde::map_get(entries, section)
            .as_seq()
            .expect("metric list")
            .iter()
            .map(|m| {
                let m = m.as_map().expect("metric object");
                let field = |k| {
                    serde::map_get(m, k)
                        .as_str()
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<String> = declared("per_layer").into_iter().map(|(n, _)| n).collect();
        assert_eq!(layers, per_layer_names());
        for (name, unit) in declared("end_to_end")
            .into_iter()
            .chain(declared("per_layer"))
        {
            assert!(stats::valid_name(&name), "{name}");
            assert!(stats::valid_unit(&unit), "{unit}");
        }
    }

    #[test]
    fn a_phase_is_done_when_both_its_time_and_its_count_are_reached() {
        // Half the time, all the operations: half done.
        assert_eq!(progress(1.5, 3.0, 100, 100), 0.5);
        // All the time, a quarter of the operations: a quarter done.
        assert_eq!(progress(3.0, 3.0, 25, 100), 0.25);
        // No time share: the count alone decides.
        assert_eq!(progress(9.0, 0.0, 50, 100), 0.5);
        assert!(progress(3.0, 3.0, 100, 100) >= 1.0);
        // The own workload gets more time than a companion.
        for kind in Kind::ALL {
            assert!(op_seconds(kind, true, 12.0) > op_seconds(kind, false, 12.0));
        }
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload remap-delta --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Kind::Remap, 7, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload sweep-cold --seconds 1",
            "--workload sweep-cold --seed 1 --seconds 0",
            "--workload sweep-cold --seed 1 --seconds 1 --trace 2",
            "--workload sweep-cold --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
