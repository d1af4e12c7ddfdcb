//! The three workloads: seeded inputs, the timed operation loop, and the
//! correctness checks that run after it.
//!
//! Every operation starts from interchange XML text and goes through the
//! same public library calls the `mamps` CLI makes. Load is closed-loop
//! with one caller: the next operation starts when the previous one has
//! returned. Checks run after the timed loop, outside every timing.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mamps_core::dse::{explore_report, DseReport};
use mamps_core::flow::{run_flow, run_flow_with_arch, run_multi_flow, FlowError, FlowOptions};
use mamps_core::report::render_multi_report;
use mamps_core::{parallel_map, GuaranteeReport};
use mamps_mapping::multi::{map_use_case, UseCase, UseCaseMapping};
use mamps_mapping::strategy;
use mamps_mapping::{
    expand, BindOptions, Binding, BindingStrategy, MapError, MapOptions, Mapping, PassCache,
    PassReport, PassRunner, StrategyHandle,
};
use mamps_platform::arch::Architecture;
use mamps_platform::gen::{synthesize, ArchSpec};
use mamps_platform::interconnect::Interconnect;
use mamps_platform::xml::{architecture_from_xml, architecture_to_xml};
use mamps_sdf::gen::{generate, Family, GenConfig};
use mamps_sdf::model::ApplicationModel;
use mamps_sdf::state_space::{reference, throughput, AnalysisOptions, ThroughputResult};
use mamps_sdf::xml::{application_from_xml, application_to_xml};
use mamps_sdf::{
    repetition_vector, CacheStats, GlobalAnalysisCache, GraphFingerprint, SdfError, SdfGraph,
};
use mamps_sim::{Engine, Measurement, System, WcetTimes};

use crate::stats::{OpEnd, Tally};
use crate::trace::Tracer;

/// Tile counts of every sweep (`mamps dse <app> 4`).
const SWEEP_TILES: [usize; 4] = [1, 2, 3, 4];
/// Binders of every sweep, in registry order.
const SWEEP_BINDERS: [&str; 3] = ["greedy", "spiral", "genetic"];
/// Generated applications in the sweep corpus (plus MJPEG).
const SWEEP_GENERATED: usize = 127;
/// Actors per generated sweep application.
const SWEEP_ACTORS: usize = 8;
/// Generated applications in the flow corpus (plus MJPEG).
const FLOW_GENERATED: usize = 255;
/// Applications in the flow corpus.
pub const FLOW_CORPUS: usize = FLOW_GENERATED + 1;
/// Actors per generated flow application.
const FLOW_ACTORS: usize = 10;
/// Actor firings each flow-validate platform run is sized to: the
/// iteration count is this over the firings per iteration of the mapped
/// system's expanded graph (communication actors included), so every
/// validation does a similar amount of simulation.
const FLOW_SIM_FIRINGS: u64 = 600_000;
/// Bounds on the iteration count of a flow-validate platform run.
const FLOW_SIM_ITERATIONS: std::ops::RangeInclusive<u64> = 100..=20_000;
/// Actors of the generated member of the remap use-case.
const REMAP_ACTORS: usize = 8;
/// Leading operations of every phase whose outcomes form the
/// quality-of-result figures. Every phase runs at least this many, and
/// the corpora are larger, so the figures depend on the seed alone.
const QOR_OPS: usize = 100;
/// Operations per phase that are also run under the lockstep engine.
const LOCKSTEP_SAMPLES: usize = 4;
/// Graph iterations of a sampled use-case validation (`map-multi`'s
/// default).
const MULTI_SIM_ITERATIONS: u64 = 100;
/// Throughput-constraint slack of the constrained generated applications.
const CONSTRAINT_SLACK: u64 = 4;
/// Longest a timed loop may run, whatever the budget asks, so a run ends
/// well inside its time limit even on a much slower program.
pub const HARD_CAP: Duration = Duration::from_secs(60);

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// One full DSE sweep per application, cold caches.
    Sweep,
    /// Map on a synthesized mesh, then a long validation run.
    Flow,
    /// One-WCET edits of a use-case, re-mapped with warm caches.
    Remap,
}

impl Kind {
    /// Every workload, in a fixed order.
    pub const ALL: [Kind; 3] = [Kind::Sweep, Kind::Flow, Kind::Remap];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sweep => "sweep-cold",
            Kind::Flow => "flow-validate",
            Kind::Remap => "remap-delta",
        }
    }

    /// Resolves a workload name.
    pub fn by_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// SplitMix64: the benchmark's own seeded stream, independent of any
/// library RNG.
struct Rng(u64);

impl Rng {
    /// A stream for `seed`, salted so each use draws unrelated values.
    fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next value.
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The checked-in interchange examples.
fn example(name: &str) -> Result<String, String> {
    let path = format!("{}/../examples/data/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
}

/// The `k`-th generated application of a corpus: families round-robin
/// (as `mamps gen --family mixed`).
fn generated_xml(
    seed: u64,
    salt: u64,
    k: usize,
    actors: usize,
    constrained: bool,
) -> Result<String, String> {
    let cfg = GenConfig {
        seed: Rng::new(seed, salt).next() % 1_000_000_000 + k as u64,
        family: Family::ALL[k % Family::ALL.len()],
        actors,
        constraint_slack: constrained.then_some(CONSTRAINT_SLACK),
        ..GenConfig::default()
    };
    let app = generate(&cfg).map_err(|e| format!("generator: {e}"))?;
    Ok(application_to_xml(&app))
}

/// Whether the `k`-th corpus application carries a throughput
/// constraint: every other block of four, so each family appears with
/// and without one.
fn constrained(k: usize) -> bool {
    (k / Family::ALL.len()).is_multiple_of(2)
}

/// Corpus positions whose operations are also checked under the lockstep
/// engine: the `LOCKSTEP_SAMPLES` positions with the smallest seeded hash.
fn lockstep_sample(seed: u64, len: usize) -> HashSet<usize> {
    let mut keyed: Vec<(u64, usize)> = (0..len)
        .map(|i| (Rng::new(seed ^ i as u64, 0x5A).next(), i))
        .collect();
    keyed.sort_unstable();
    keyed
        .into_iter()
        .take(LOCKSTEP_SAMPLES)
        .map(|(_, i)| i)
        .collect()
}

/// Inputs of the sweep-cold workload.
pub struct SweepInputs {
    apps: Vec<String>,
    lockstep: HashSet<usize>,
}

/// Inputs of the flow-validate workload.
pub struct FlowInputs {
    apps: Vec<String>,
    arch: String,
    lockstep: HashSet<usize>,
}

/// Inputs of the remap-delta workload, with its warm caches.
pub struct RemapInputs {
    base_xml: Vec<String>,
    base: Vec<ApplicationModel>,
    arch: String,
    passes: Arc<PassCache>,
    analysis: Arc<GlobalAnalysisCache>,
    rng: Rng,
    seen: HashSet<Edit>,
    lockstep: HashSet<usize>,
}

/// The set-up of one workload phase.
pub enum Inputs {
    /// sweep-cold.
    Sweep(SweepInputs),
    /// flow-validate.
    Flow(FlowInputs),
    /// remap-delta.
    Remap(RemapInputs),
}

impl Inputs {
    /// Moves the inputs past their first `n` operations, so the next
    /// phase starts with operation `n`.
    pub fn skip(&mut self, n: usize) {
        match self {
            Inputs::Sweep(SweepInputs { apps, .. }) | Inputs::Flow(FlowInputs { apps, .. }) => {
                let len = apps.len();
                apps.rotate_left(n % len);
            }
            Inputs::Remap(r) => {
                for _ in 0..n {
                    r.next_edit();
                }
            }
        }
    }
}

/// Builds a workload's inputs from `seed` (and, for remap-delta, warms
/// its caches).
pub fn setup(kind: Kind, seed: u64) -> Result<Inputs, String> {
    match kind {
        Kind::Sweep => {
            let mut apps = vec![example("mjpeg_small_app.xml")?];
            for k in 0..SWEEP_GENERATED {
                apps.push(generated_xml(seed, 1, k, SWEEP_ACTORS, constrained(k))?);
            }
            let lockstep = lockstep_sample(seed, apps.len());
            Ok(Inputs::Sweep(SweepInputs { apps, lockstep }))
        }
        Kind::Flow => {
            let mut apps = vec![example("mjpeg_small_app.xml")?];
            for k in 0..FLOW_GENERATED {
                apps.push(generated_xml(seed, 2, k, FLOW_ACTORS, constrained(k))?);
            }
            let mesh = synthesize(
                &ArchSpec::Mesh {
                    width: 3,
                    height: 3,
                },
                "gen_mesh3x3",
            )
            .map_err(|e| format!("mesh: {e}"))?;
            let lockstep = lockstep_sample(seed, apps.len());
            Ok(Inputs::Flow(FlowInputs {
                apps,
                arch: architecture_to_xml(&mesh),
                lockstep,
            }))
        }
        Kind::Remap => {
            let k = Rng::new(seed, 3).below(Family::ALL.len() as u64) as usize;
            let base_xml = vec![
                example("mjpeg_small_app.xml")?,
                example("pipeline_small_app.xml")?,
                // Unconstrained: the use-case's platform is shared with
                // MJPEG, and a constrained member would be rejected on
                // every edit.
                generated_xml(seed, 3, k, REMAP_ACTORS, false)?,
            ];
            let base = base_xml
                .iter()
                .map(|x| application_from_xml(x).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            let arch = example("fsl_3tile_arch.xml")?;
            let inputs = RemapInputs {
                base_xml,
                base,
                arch,
                passes: Arc::new(PassCache::new()),
                analysis: Arc::new(GlobalAnalysisCache::new()),
                rng: Rng::new(seed, 4),
                seen: HashSet::new(),
                lockstep: lockstep_sample(seed, QOR_OPS),
            };
            // Warm both caches once with the unedited use-case.
            let uc = UseCase::new(inputs.base.clone()).map_err(|e| e.to_string())?;
            let arch = architecture_from_xml(&inputs.arch).map_err(|e| e.to_string())?;
            map_use_case(
                &uc,
                &arch,
                &inputs.warm_options(&Arc::new(Tracer::new(false)), None),
            );
            Ok(Inputs::Remap(inputs))
        }
    }
}

/// When a timed loop stops: once it has run for `seconds` *and* done
/// `min_ops` operations, or after `max_ops` operations.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Minimum measuring time.
    pub seconds: f64,
    /// Minimum operation count.
    pub min_ops: usize,
    /// Maximum operation count.
    pub max_ops: usize,
}

impl Budget {
    fn done(&self, ops: usize, elapsed: Duration) -> bool {
        ops >= self.max_ops
            || (ops >= self.min_ops && elapsed.as_secs_f64() >= self.seconds)
            || elapsed >= HARD_CAP
    }
}

/// How a phase runs its operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Timed operations, then the correctness checks.
    Timed,
    /// One operation of a memory probe in a fresh process: the peak-RSS
    /// count restarts after set-up and the operation's peak RSS is
    /// recorded. No checks.
    Memory,
}

/// Wall time, call count and a work count of calls the benchmark times
/// itself (outside the operations).
#[derive(Debug, Default)]
pub struct Probe {
    /// Calls timed.
    pub calls: AtomicU64,
    /// Total nanoseconds.
    pub nanos: AtomicU64,
    /// Total work units (actors, states).
    pub work: AtomicU64,
}

impl Probe {
    fn time<T>(&self, f: impl FnOnce() -> T, work: impl FnOnce(&T) -> u64) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.work.fetch_add(work(&out), Ordering::Relaxed);
        out
    }

    /// Mean microseconds per call.
    pub fn us_per_call(&self) -> f64 {
        let calls = self.calls.load(Ordering::Relaxed).max(1);
        self.nanos.load(Ordering::Relaxed) as f64 / 1e3 / calls as f64
    }

    /// Mean work units per call.
    pub fn work_per_call(&self) -> f64 {
        let calls = self.calls.load(Ordering::Relaxed).max(1);
        self.work.load(Ordering::Relaxed) as f64 / calls as f64
    }
}

/// Library counters summed over a phase's operations.
#[derive(Debug, Default)]
pub struct Counters {
    /// Per-pass runs, hits and nanoseconds (`PassRunner::report`).
    pub passes: HashMap<&'static str, (u64, u64, u64)>,
    /// Pass-cache hits and misses (`PassCache::stats`).
    pub pass_cache: (u64, u64),
    /// Analysis-cache hits and misses (`GlobalAnalysisCache::stats`).
    pub analysis: (u64, u64),
    /// Design points and skipped points of the sweeps.
    pub dse_points: u64,
    /// Skipped design points of the sweeps.
    pub dse_skipped: u64,
    /// Σ pass time of the traced sweeps, in nanoseconds.
    pub dse_busy_ns: u64,
    /// Σ `lanes × sweep wall` of the sweeps.
    pub dse_capacity_ns: u64,
    /// Admitted applications of the remaps.
    pub admitted: u64,
    /// Rejected applications of the remaps.
    pub rejected: u64,
    /// Completed firings of the validation runs.
    pub sim_firings: u64,
    /// Generated project bytes (`Project::total_bytes`).
    pub codegen_bytes: u64,
}

impl Counters {
    fn add_passes(&mut self, report: &PassReport) {
        for p in &report.0 {
            let e = self.passes.entry(p.name).or_default();
            e.0 += p.runs;
            e.1 += p.hits;
            e.2 += p.nanos;
        }
    }
}

/// Everything a phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations attempted and failed (checks included).
    pub tally: Tally,
    /// Latency of every operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Peak resident set size during each operation of a memory probe,
    /// in MiB.
    pub peak_rss_mb: Vec<f64>,
    /// Σ operation time, in nanoseconds.
    pub op_ns: u64,
    /// Design points (kept + skipped) the sweeps evaluated.
    pub points: u64,
    /// Simulated cycles of the validation runs.
    pub sim_cycles: u64,
    /// Validation runs.
    pub sim_runs: usize,
    /// Host nanoseconds of the validation runs (build + run).
    pub sim_ns: u64,
    /// Guaranteed throughput of each feasible outcome in the QoR prefix.
    pub qor_tputs: Vec<f64>,
    /// Buffer bytes of each feasible mapping in the QoR prefix (for a
    /// remap, of the whole use-case mapping).
    pub qor_buffer_bytes: Vec<f64>,
    /// Feasible outcomes in the QoR prefix.
    pub qor_feasible: u64,
    /// All outcomes in the QoR prefix.
    pub qor_outcomes: u64,
    /// Library counters.
    pub counters: Counters,
    /// `expand` timed on every checked outcome (traced runs only).
    pub expand: Probe,
    /// `GraphFingerprint::of` timed on every checked outcome.
    pub fingerprint: Probe,
    /// `state_space::throughput` timed on every checked outcome.
    pub state_space: Probe,
    /// Wall time of the checks after the timed loop, in seconds.
    pub check_s: f64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Operations that failed so far.
    failed: HashSet<usize>,
}

impl Phase {
    fn fail(&mut self, op: usize, msg: String) {
        self.failed.insert(op);
        if self.failures.len() < 8 {
            self.failures.push(format!("op {op}: {msg}"));
        }
    }
}

/// A binder that records a span around every `bind` call of the strategy
/// it wraps.
struct TracedBinder {
    inner: StrategyHandle,
    span: String,
    tracer: Arc<Tracer>,
}

impl BindingStrategy for TracedBinder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn bind(
        &self,
        app: &ApplicationModel,
        arch: &Architecture,
        opts: &BindOptions,
    ) -> Result<Binding, MapError> {
        self.tracer
            .span_in_context(&self.span, || self.inner.bind(app, arch, opts))
    }
}

/// The registry binder `name`, wrapped for tracing when `tracer` records.
fn binder(name: &str, tracer: &Arc<Tracer>) -> StrategyHandle {
    let inner = strategy::by_name(name).expect("built-in binder");
    if !tracer.enabled() {
        return inner;
    }
    StrategyHandle::new(TracedBinder {
        span: format!("bind.{name}"),
        inner,
        tracer: Arc::clone(tracer),
    })
}

/// The analysis options of the mapping flow's own verification.
fn analysis_options() -> AnalysisOptions {
    AnalysisOptions {
        auto_concurrency: true,
        max_states: MapOptions::default().max_states,
        ..AnalysisOptions::default()
    }
}

/// Mapping errors that are verdicts about the input: the platform cannot
/// host the application under this binder (it deadlocks, misses its
/// constraint, fits no tile, or exhausts the NoC's wires), as a sweep
/// reports a skipped point. An analysis that gives up, an invalid graph
/// or a platform that fails to run is a failure.
fn is_verdict(e: &FlowError) -> bool {
    matches!(
        e,
        FlowError::Map(
            MapError::Sdf(SdfError::Deadlock(_))
                | MapError::ConstraintUnmet(_)
                | MapError::Infeasible(_)
                | MapError::Wires(_)
        )
    )
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Peak resident set size of this process since start or since the
/// last [`reset_peak_rss`], in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Restarts the peak-RSS count from the current RSS (Linux `clear_refs`
/// mode 5), so the next reading is the peak of what follows.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs one operation of `phase` with a panic guard: records its latency
/// (and in [`Mode::Memory`] its peak RSS), and returns its result.
fn guarded<T>(
    phase: &mut Phase,
    mode: Mode,
    op: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    if mode == Mode::Memory {
        reset_peak_rss();
    }
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(op))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(p))));
    let ns = start.elapsed().as_nanos() as u64;
    phase.latencies_ms.push(ns as f64 / 1e6);
    phase.op_ns += ns;
    if mode == Mode::Memory {
        phase.peak_rss_mb.extend(peak_rss_mb());
    }
    out
}

/// The application graph with the binding's WCETs, as the mapping flow
/// analyses it.
fn wcet_graph(app: &ApplicationModel, mapping: &Mapping) -> SdfGraph {
    let mut g = app.graph().clone();
    for (aid, _) in app.graph().actors() {
        g.actor_mut(aid)
            .set_execution_time(mapping.binding.wcet_of[aid.0]);
    }
    g
}

/// Shared verification helpers of the check phase.
struct Checker<'a> {
    phase: &'a Phase,
    traced: bool,
    /// Reference-kernel verdicts by graph fingerprint, so a graph that
    /// recurs is checked once.
    verified: Mutex<HashMap<u64, bool>>,
}

impl Checker<'_> {
    /// The mapping flow's analysis of `graph` equals the reference kernel.
    fn analysis_matches(&self, graph: &SdfGraph, analysis: &ThroughputResult) -> bool {
        let key = GraphFingerprint::of(graph).hash();
        if let Some(ok) = self.verified.lock().expect("memo").get(&key) {
            return *ok;
        }
        let ok = reference::throughput(graph, &analysis_options()).as_ref() == Ok(analysis);
        self.verified.lock().expect("memo").insert(key, ok);
        ok
    }

    /// Times expand, fingerprint and the state-space kernel on one
    /// outcome (traced runs), checking the re-expansion reproduces the
    /// outcome's expanded graph.
    fn probe(
        &self,
        app: &ApplicationModel,
        mapping: &Mapping,
        arch: &Architecture,
        expanded: &SdfGraph,
    ) -> bool {
        if !self.traced {
            return true;
        }
        let g = wcet_graph(app, mapping);
        let e = self.phase.expand.time(
            || expand(&g, mapping, arch),
            |e| e.as_ref().map_or(0, |e| e.graph.actor_count() as u64),
        );
        self.phase
            .fingerprint
            .time(|| GraphFingerprint::of(expanded), |_| 0);
        let _ = self.phase.state_space.time(
            || throughput(expanded, &analysis_options()),
            |r| r.as_ref().map_or(0, |r| r.states_explored as u64),
        );
        matches!(e, Ok(e) if &e.graph == expanded)
    }
}

/// A phase in progress: its inputs, the operations run so far and what
/// their checks need. [`Run::step`] runs one more operation;
/// [`Run::finish`] runs the checks (in [`Mode::Timed`]) and returns the
/// phase. Phases of different workloads can take turns.
pub struct Run {
    inputs: Inputs,
    state: State,
    phase: Phase,
    mode: Mode,
    tracer: Arc<Tracer>,
}

/// What the operations of a phase leave for its checks.
enum State {
    Sweep(Box<SweepRun>),
    Flow(FlowRun),
    Remap(RemapRun),
}

impl Run {
    /// A phase over `inputs` that has run no operation yet.
    pub fn new(inputs: Inputs, mode: Mode, tracer: &Arc<Tracer>, jobs: usize) -> Run {
        let state = match &inputs {
            Inputs::Sweep(_) => State::Sweep(Box::new(SweepRun::new(tracer, jobs))),
            Inputs::Flow(_) => State::Flow(FlowRun {
                records: Vec::new(),
                greedy: binder("greedy", tracer),
            }),
            Inputs::Remap(_) => State::Remap(RemapRun {
                records: Vec::new(),
            }),
        };
        Run {
            inputs,
            state,
            phase: Phase::default(),
            mode,
            tracer: Arc::clone(tracer),
        }
    }

    /// Operations run so far.
    pub fn ops(&self) -> usize {
        self.phase.latencies_ms.len()
    }

    /// Seconds spent inside operations so far.
    pub fn op_seconds(&self) -> f64 {
        self.phase.op_ns as f64 / 1e9
    }

    /// Runs the next operation.
    pub fn step(&mut self) {
        let (phase, mode, tracer) = (&mut self.phase, self.mode, &self.tracer);
        match (&mut self.state, &mut self.inputs) {
            (State::Sweep(s), Inputs::Sweep(inp)) => s.op(inp, phase, mode, tracer),
            (State::Flow(f), Inputs::Flow(inp)) => f.op(inp, phase, mode, tracer),
            (State::Remap(r), Inputs::Remap(inp)) => r.op(inp, phase, mode, tracer),
            _ => unreachable!("a run's state matches its inputs"),
        }
    }

    /// Runs the checks (not in [`Mode::Memory`]) and closes the tally.
    pub fn finish(mut self, jobs: usize) -> Phase {
        let ops = self.ops();
        let start = Instant::now();
        if self.mode == Mode::Timed {
            let (phase, tracer) = (&mut self.phase, &self.tracer);
            match (self.state, &self.inputs) {
                (State::Sweep(s), Inputs::Sweep(inp)) => s.check(inp, phase, tracer, jobs),
                (State::Flow(f), Inputs::Flow(inp)) => f.check(inp, phase, tracer, jobs),
                (State::Remap(r), Inputs::Remap(inp)) => r.check(inp, phase, tracer, jobs),
                _ => unreachable!("a run's state matches its inputs"),
            }
        }
        close(&mut self.phase, ops);
        self.phase.check_s = start.elapsed().as_secs_f64();
        self.phase
    }
}

/// Runs one phase alone: operations until `budget` is spent, then the
/// checks. Spans go to `tracer` when it records.
pub fn run(inputs: Inputs, budget: Budget, mode: Mode, tracer: &Arc<Tracer>, jobs: usize) -> Phase {
    let mut run = Run::new(inputs, mode, tracer, jobs);
    let start = Instant::now();
    while !budget.done(run.ops(), start.elapsed()) {
        run.step();
    }
    run.finish(jobs)
}

/// Closes a phase's tally from its operation count and failed set.
fn close(phase: &mut Phase, ops: usize) {
    for i in 0..ops {
        phase.tally.record(if phase.failed.contains(&i) {
            OpEnd::Failed
        } else {
            OpEnd::Ok
        });
    }
}

/// Records derived spans for the passes of one operation under `parent`.
fn pass_spans(tracer: &Tracer, report: &PassReport, bind_id: u64, parent: u64, op: u64) {
    for p in &report.0 {
        let id = if p.name == "bind" { bind_id } else { 0 };
        tracer.derived(id, &format!("pass.{}", p.name), parent, op, p.nanos);
    }
}

/// One sweep report, with the pass cache of an application's first sweep.
type SweepRecord = (usize, DseReport, Option<Arc<PassCache>>);

/// A sweep-cold phase in progress.
struct SweepRun {
    reports: Vec<Option<SweepRecord>>,
    base: FlowOptions,
    lanes: u32,
}

impl SweepRun {
    fn new(tracer: &Arc<Tracer>, jobs: usize) -> SweepRun {
        let mut base = FlowOptions {
            jobs,
            ..FlowOptions::default()
        };
        base.binders = SWEEP_BINDERS.iter().map(|n| binder(n, tracer)).collect();
        SweepRun {
            reports: Vec::new(),
            base,
            lanes: jobs.clamp(1, SWEEP_TILES.len() * 2 * SWEEP_BINDERS.len()) as u32,
        }
    }

    fn op(&mut self, inp: &SweepInputs, phase: &mut Phase, mode: Mode, tracer: &Arc<Tracer>) {
        let i = self.reports.len();
        let app_idx = i % inp.apps.len();
        let op = i as u64 + 1;
        let lanes = self.lanes;
        let sweep_id = Cell::new(0);
        let bind_id = tracer.reserve();
        let out = guarded(phase, mode, || {
            tracer.span("op", 0, op, |root| {
                let app = tracer
                    .span("xml.parse", root, op, |_| {
                        application_from_xml(&inp.apps[app_idx])
                    })
                    .map_err(|e| e.to_string())?;
                // As `mamps dse --cache-dir <empty dir>`: a fresh analysis
                // cache and a fresh pass cache per process (here: per
                // sweep); both only take writes.
                let mut opts = self.base.clone();
                let cache = Arc::new(GlobalAnalysisCache::new());
                let pass_cache = Arc::new(PassCache::new());
                let runner = Arc::new(PassRunner::with_cache(Arc::clone(&pass_cache)));
                opts.map.cache = Some(Arc::clone(&cache));
                opts.map.passes = Some(Arc::clone(&runner));
                let report = tracer.span_lanes("dse.sweep", root, op, lanes, |id| {
                    sweep_id.set(id);
                    tracer.set_context(op, bind_id);
                    explore_report(&app, &SWEEP_TILES, true, &opts)
                });
                Ok((report, runner.report(), cache.stats(), pass_cache))
            })
        });
        match out {
            Ok((report, passes, cache, pass_cache)) => {
                let points = (report.points.len() + report.skipped.len()) as u64;
                phase.points += points;
                let c = &mut phase.counters;
                c.add_passes(&passes);
                c.analysis.0 += cache.hits;
                c.analysis.1 += cache.misses;
                let writes = pass_cache.stats();
                c.pass_cache.0 += writes.hits;
                c.pass_cache.1 += writes.misses;
                c.dse_points += points;
                c.dse_skipped += report.skipped.len() as u64;
                if tracer.enabled() {
                    pass_spans(tracer, &passes, bind_id, sweep_id.get(), op);
                    let wall = tracer
                        .spans()
                        .iter()
                        .rev()
                        .find(|s| s.id == sweep_id.get())
                        .map_or(0, |s| s.dur_ns);
                    c.dse_busy_ns += passes.total_nanos();
                    c.dse_capacity_ns += wall * u64::from(lanes);
                }
                if i < QOR_OPS {
                    phase
                        .qor_tputs
                        .extend(report.points.iter().map(|p| p.guaranteed));
                    phase.qor_feasible += report.points.len() as u64;
                    phase.qor_outcomes += points;
                }
                let keep = (i < inp.apps.len()).then_some(pass_cache);
                self.reports.push(Some((app_idx, report, keep)));
            }
            Err(e) => {
                phase.fail(i, e);
                self.reports.push(None);
            }
        }
    }

    /// A repeated application must reproduce its first report; every kept
    /// point of a first report is replayed from that sweep's pass cache,
    /// its guarantee compared, and its analysis held against the
    /// reference kernel.
    fn check(self, inp: &SweepInputs, phase: &mut Phase, tracer: &Tracer, jobs: usize) {
        let reports = self.reports;
        let mut first: HashMap<usize, usize> = HashMap::new();
        for (i, r) in reports.iter().enumerate() {
            let Some((app_idx, report, _)) = r else {
                continue;
            };
            match first.get(app_idx) {
                None => {
                    first.insert(*app_idx, i);
                }
                Some(&j) => {
                    let (_, reference, _) = reports[j].as_ref().expect("first report");
                    if reference != report {
                        phase.fail(i, "sweep report differs from the first run".into());
                    }
                }
            }
        }
        let mut items: Vec<(usize, usize)> = Vec::new();
        for &i in first.values() {
            let (_, report, _) = reports[i].as_ref().expect("first report");
            items.extend((0..report.points.len()).map(|p| (i, p)));
        }
        items.sort_unstable();
        let checker = Checker {
            phase,
            traced: tracer.enabled(),
            verified: Mutex::new(HashMap::new()),
        };
        let verdicts = parallel_map(jobs, &items, |_, &(i, p)| -> Result<(), String> {
            let (app_idx, report, pass_cache) = reports[i].as_ref().expect("first report");
            let point = &report.points[p];
            let app = application_from_xml(&inp.apps[*app_idx]).map_err(|e| e.to_string())?;
            let ic = match point.interconnect {
                "fsl" => Interconnect::fsl(),
                _ => Interconnect::noc_for_tiles(point.tiles),
            };
            let mut opts = FlowOptions::default();
            opts.map.bind.strategy = strategy::by_name(point.strategy).ok_or("unknown binder")?;
            let pass_cache = pass_cache
                .as_ref()
                .expect("first sweeps keep their pass cache");
            opts.map.passes = Some(Arc::new(PassRunner::with_cache(Arc::clone(pass_cache))));
            let flow = catch_unwind(AssertUnwindSafe(|| run_flow(&app, point.tiles, ic, &opts)))
                .map_err(panic_message)?
                .map_err(|e| format!("replay failed: {e}"))?;
            let what = format!(
                "{} tiles {} {}",
                point.tiles, point.interconnect, point.strategy
            );
            if flow.guaranteed_throughput() != point.guaranteed {
                return Err(format!("{what}: replayed guarantee differs"));
            }
            let mapped = &flow.mapped;
            if !checker.analysis_matches(&mapped.expanded.graph, &mapped.analysis) {
                return Err(format!(
                    "{what}: analysis differs from the reference kernel"
                ));
            }
            if !checker.probe(&app, &mapped.mapping, &flow.arch, &mapped.expanded.graph) {
                return Err(format!("{what}: re-expansion differs"));
            }
            if p == 0 && inp.lockstep.contains(app_idx) {
                let times = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
                let run = |engine| {
                    System::new(app.graph(), &mapped.mapping, &flow.arch, &times)
                        .and_then(|s| s.with_engine(engine).run(20, 1_000_000_000))
                };
                if run(Engine::Event) != run(Engine::Lockstep) {
                    return Err(format!("{what}: event and lockstep engines disagree"));
                }
            }
            Ok(())
        });
        drop(checker);
        for (&(i, _), v) in items.iter().zip(verdicts) {
            if let Err(e) = v {
                phase.fail(i, e);
            }
        }
    }
}

/// What a flow-validate operation produced.
enum FlowOut {
    /// A structured infeasibility verdict.
    Verdict,
    /// A validated mapping.
    Mapped(Box<FlowRecord>),
}

struct FlowRecord {
    app: ApplicationModel,
    arch: Architecture,
    mapped: mamps_mapping::MappedApplication,
    iterations: u64,
    holds: bool,
    cycles: u64,
    firings: u64,
    project_bytes: u64,
    /// Kept for the lockstep comparison of sampled operations.
    measurement: Option<Measurement>,
}

/// A flow-validate phase in progress.
struct FlowRun {
    records: Vec<Option<(usize, FlowOut)>>,
    greedy: StrategyHandle,
}

impl FlowRun {
    fn op(&mut self, inp: &FlowInputs, phase: &mut Phase, mode: Mode, tracer: &Arc<Tracer>) {
        let i = self.records.len();
        let app_idx = i % inp.apps.len();
        let op = i as u64 + 1;
        let keep_measurement = i < inp.apps.len() && inp.lockstep.contains(&app_idx);
        let map_id = Cell::new(0);
        let bind_id = tracer.reserve();
        let runner = Arc::new(PassRunner::new());
        let sim_ns = Cell::new(0u64);
        let out = guarded(phase, mode, || {
            tracer.span("op", 0, op, |root| {
                let app = tracer
                    .span("xml.parse", root, op, |_| {
                        application_from_xml(&inp.apps[app_idx])
                    })
                    .map_err(|e| e.to_string())?;
                let arch = tracer
                    .span("xml.parse", root, op, |_| architecture_from_xml(&inp.arch))
                    .map_err(|e| e.to_string())?;
                // As `mamps simulate`: no caches; the traced run attaches
                // a pass runner for its per-pass times.
                let mut opts = FlowOptions::default();
                opts.map.bind.strategy = self.greedy.clone();
                if tracer.enabled() {
                    opts.map.passes = Some(Arc::clone(&runner));
                }
                let flow = tracer.span("flow.map", root, op, |id| {
                    map_id.set(id);
                    tracer.set_context(op, bind_id);
                    run_flow_with_arch(&app, arch, &opts)
                });
                let flow = match flow {
                    Ok(flow) => flow,
                    Err(e) if is_verdict(&e) => return Ok(FlowOut::Verdict),
                    Err(e) => return Err(e.to_string()),
                };
                let iterations = validation_iterations(&flow.mapped.expanded.graph)?;
                let sim_start = Instant::now();
                let m = tracer
                    .span("sim.run", root, op, |_| {
                        let times = WcetTimes::new(flow.mapped.mapping.binding.wcet_of.clone());
                        System::new(app.graph(), &flow.mapped.mapping, &flow.arch, &times)?
                            .run(iterations, u64::MAX / 4)
                    })
                    .map_err(|e| format!("validation run: {e}"))?;
                sim_ns.set(sim_start.elapsed().as_nanos() as u64);
                let rep = GuaranteeReport::new(flow.guaranteed_throughput(), m.steady_throughput());
                Ok(FlowOut::Mapped(Box::new(FlowRecord {
                    iterations,
                    holds: rep.holds(),
                    cycles: m.total_cycles,
                    firings: m.firings.iter().sum(),
                    project_bytes: flow.project.total_bytes() as u64,
                    measurement: keep_measurement.then_some(m),
                    app,
                    arch: flow.arch,
                    mapped: flow.mapped,
                })))
            })
        });
        let passes = runner.report();
        if tracer.enabled() {
            pass_spans(tracer, &passes, bind_id, map_id.get(), op);
        }
        phase.counters.add_passes(&passes);
        let first_pass = i < QOR_OPS;
        match out {
            Ok(out) => {
                if let FlowOut::Mapped(r) = &out {
                    phase.sim_runs += 1;
                    phase.sim_ns += sim_ns.get();
                    phase.sim_cycles += r.cycles;
                    phase.counters.sim_firings += r.firings;
                    phase.counters.codegen_bytes += r.project_bytes;
                    if first_pass {
                        phase.qor_feasible += 1;
                        phase.qor_tputs.push(r.mapped.analysis.as_f64());
                        phase.qor_buffer_bytes.push(buffer_bytes(
                            &r.app,
                            &r.mapped.mapping,
                            &r.arch,
                        ));
                    }
                }
                if first_pass {
                    phase.qor_outcomes += 1;
                }
                self.records.push(Some((app_idx, out)));
            }
            Err(e) => {
                phase.fail(i, e);
                self.records.push(None);
            }
        }
    }

    /// Every validated guarantee holds, every analysis matches the
    /// reference kernel, a repeated application reproduces its first
    /// mapping, and sampled runs agree under the lockstep engine.
    fn check(self, _inp: &FlowInputs, phase: &mut Phase, tracer: &Tracer, jobs: usize) {
        let records = self.records;
        let mut first: HashMap<usize, usize> = HashMap::new();
        for (i, r) in records.iter().enumerate() {
            if let Some((app_idx, _)) = r {
                first.entry(*app_idx).or_insert(i);
            }
        }
        let checker = Checker {
            phase,
            traced: tracer.enabled(),
            verified: Mutex::new(HashMap::new()),
        };
        let verdicts = parallel_map(jobs, &records, |i, r| -> Result<(), String> {
            let Some((app_idx, out)) = r else {
                return Ok(());
            };
            let j = first[app_idx];
            let FlowOut::Mapped(rec) = out else {
                return match &records[j] {
                    Some((_, FlowOut::Verdict)) => Ok(()),
                    _ => Err("verdict differs from the first run".into()),
                };
            };
            if !rec.holds {
                return Err("validated guarantee VIOLATED".into());
            }
            if j != i {
                return match &records[j] {
                    Some((_, FlowOut::Mapped(f))) if f.mapped.mapping == rec.mapped.mapping => {
                        Ok(())
                    }
                    _ => Err("mapping differs from the first run".into()),
                };
            }
            let m = &rec.mapped;
            if !checker.analysis_matches(&m.expanded.graph, &m.analysis) {
                return Err("analysis differs from the reference kernel".into());
            }
            if !checker.probe(&rec.app, &m.mapping, &rec.arch, &m.expanded.graph) {
                return Err("re-expansion differs".into());
            }
            if let Some(event) = &rec.measurement {
                let times = WcetTimes::new(m.mapping.binding.wcet_of.clone());
                let lockstep = System::new(rec.app.graph(), &m.mapping, &rec.arch, &times)
                    .and_then(|s| {
                        s.with_engine(Engine::Lockstep)
                            .run(rec.iterations, u64::MAX / 4)
                    })
                    .map_err(|e| format!("lockstep run: {e}"))?;
                if &lockstep != event {
                    return Err("event and lockstep engines disagree".into());
                }
            }
            Ok(())
        });
        drop(checker);
        for (i, v) in verdicts.into_iter().enumerate() {
            if let Err(e) = v {
                phase.fail(i, e);
            }
        }
    }
}

/// Iterations of a flow-validate platform run for a mapping whose
/// expanded graph is `expanded` (see [`FLOW_SIM_FIRINGS`]).
fn validation_iterations(expanded: &SdfGraph) -> Result<u64, String> {
    let q = repetition_vector(expanded).map_err(|e| e.to_string())?;
    let n = FLOW_SIM_FIRINGS / q.total_firings().max(1);
    Ok(n.clamp(*FLOW_SIM_ITERATIONS.start(), *FLOW_SIM_ITERATIONS.end()))
}

/// Total channel-buffer bytes of a mapping.
fn buffer_bytes(app: &ApplicationModel, mapping: &Mapping, arch: &Architecture) -> f64 {
    mapping
        .buffer_bytes_per_tile(app.graph(), arch.tile_count())
        .iter()
        .sum::<u64>() as f64
}

/// One edit of the remap stream: a new WCET for one actor of one
/// application of the use-case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Edit {
    app: usize,
    actor: usize,
    wcet: u64,
}

impl RemapInputs {
    /// The map options of a warm re-map (`mamps remap --cache-dir`): the
    /// warm analysis cache and a fresh runner over the warm pass cache.
    fn warm_options(&self, tracer: &Arc<Tracer>, runner: Option<&Arc<PassRunner>>) -> MapOptions {
        let mut opts = MapOptions::with_strategy(binder("greedy", tracer));
        opts.cache = Some(Arc::clone(&self.analysis));
        opts.passes = Some(match runner {
            Some(r) => Arc::clone(r),
            None => Arc::new(PassRunner::with_cache(Arc::clone(&self.passes))),
        });
        opts
    }

    /// The next novel edit: an actor's WCET moved by up to a quarter,
    /// never to a value this stream has produced before. The reach grows
    /// with every collision, so the stream never runs dry.
    fn next_edit(&mut self) -> Edit {
        for collisions in 0.. {
            // Applications take turns, so every run edits the same mix.
            let app = (self.seen.len() + collisions as usize) % self.base.len();
            let graph = self.base[app].graph();
            let actor = self.rng.below(graph.actor_count() as u64) as usize;
            let old = graph.actor(mamps_sdf::ActorId(actor)).execution_time();
            let reach = (old / 4).max(2) + collisions;
            let delta = 1 + self.rng.below(reach);
            let wcet = if self.rng.below(2) == 0 || delta >= old {
                old + delta
            } else {
                old - delta
            };
            let edit = Edit { app, actor, wcet };
            if self.seen.insert(edit) {
                return edit;
            }
        }
        unreachable!("the collision counter is unbounded")
    }

    /// The interchange XML of the use-case's applications after `edit`.
    fn edited_xml(&self, edit: Edit) -> Vec<String> {
        let mut xml = self.base_xml.clone();
        let app = &self.base[edit.app];
        let aid = mamps_sdf::ActorId(edit.actor);
        let old = app.graph().actor(aid).execution_time() as i128;
        let shift = edit.wcet as i128 - old;
        let mut graph = app.graph().clone();
        graph.actor_mut(aid).set_execution_time(edit.wcet);
        let implementations = app
            .graph()
            .actors()
            .map(|(a, actor)| {
                let mut impls = app.implementations(a).to_vec();
                if a == aid {
                    for im in &mut impls {
                        im.wcet = (im.wcet as i128 + shift).max(1) as u64;
                    }
                }
                (actor.name().to_string(), impls)
            })
            .collect();
        let edited = ApplicationModel::new(graph, implementations, app.throughput_constraint())
            .expect("a WCET edit keeps the model valid");
        xml[edit.app] = application_to_xml(&edited);
        xml
    }
}

/// A canonical byte rendering of a use-case mapping, for byte-equality
/// checks (hash maps inside expanded graphs are left out: the expanded
/// graph itself is rendered).
fn outcome_bytes(o: &UseCaseMapping) -> String {
    let json = |v: &dyn serde::Serialize| {
        let mut out = String::new();
        serde::json::emit(&v.to_value(), &mut out);
        out
    };
    let mut s = String::new();
    for a in &o.admitted {
        let m = &a.mapped;
        let _ = writeln!(
            s,
            "admit {} {} group {} shared {:?} constraint {:?} strategy {} analysis {:?}\n{}\n{}",
            a.index,
            a.name,
            a.group,
            a.shared_guarantee,
            a.constraint,
            m.strategy,
            m.analysis,
            json(&m.mapping),
            json(&m.expanded.graph),
        );
    }
    for r in &o.rejected {
        let _ = writeln!(s, "reject {} {} {}", r.index, r.name, json(&r.reason));
    }
    for g in &o.groups {
        let _ = writeln!(
            s,
            "group {:?} {:?}\n{}\n{}",
            g.members,
            g.analysis,
            json(&g.graph),
            json(&g.mapping)
        );
    }
    let _ = writeln!(s, "{:?}", o.occupancy);
    s
}

fn digest(s: &str) -> (usize, u64) {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    (s.len(), h.finish())
}

/// A remap-delta phase in progress: each operation's edit and the digest
/// of its outcome.
struct RemapRun {
    records: Vec<(Edit, Option<(usize, u64)>)>,
}

impl RemapRun {
    fn op(&mut self, inp: &mut RemapInputs, phase: &mut Phase, mode: Mode, tracer: &Arc<Tracer>) {
        let i = self.records.len();
        let op = i as u64 + 1;
        // The edit is produced by the benchmark, outside the operation.
        let edit = inp.next_edit();
        let xml = inp.edited_xml(edit);
        let runner = Arc::new(PassRunner::with_cache(Arc::clone(&inp.passes)));
        let opts = inp.warm_options(tracer, Some(&runner));
        let pass_before = inp.passes.stats();
        let analysis_before = inp.analysis.stats();
        let map_id = Cell::new(0);
        let bind_id = tracer.reserve();
        let out = guarded(phase, mode, || {
            tracer.span("op", 0, op, |root| {
                let apps = xml
                    .iter()
                    .map(|x| tracer.span("xml.parse", root, op, |_| application_from_xml(x)))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                let arch = tracer
                    .span("xml.parse", root, op, |_| architecture_from_xml(&inp.arch))
                    .map_err(|e| e.to_string())?;
                let uc = tracer
                    .span("multi.use_case", root, op, |_| UseCase::new(apps))
                    .map_err(|e| e.to_string())?;
                Ok(tracer.span("multi.map_use_case", root, op, |id| {
                    map_id.set(id);
                    tracer.set_context(op, bind_id);
                    map_use_case(&uc, &arch, &opts)
                }))
            })
        });
        let passes = runner.report();
        if tracer.enabled() {
            pass_spans(tracer, &passes, bind_id, map_id.get(), op);
        }
        let c = &mut phase.counters;
        c.add_passes(&passes);
        let delta = |after: CacheStats, before: CacheStats| {
            (after.hits - before.hits, after.misses - before.misses)
        };
        let (h, m) = delta(inp.passes.stats(), pass_before);
        c.pass_cache.0 += h;
        c.pass_cache.1 += m;
        let (h, m) = delta(inp.analysis.stats(), analysis_before);
        c.analysis.0 += h;
        c.analysis.1 += m;
        match out {
            Ok(outcome) => {
                c.admitted += outcome.admitted.len() as u64;
                c.rejected += outcome.rejected.len() as u64;
                if i < QOR_OPS {
                    let arch = architecture_from_xml(&inp.arch).expect("parsed above");
                    // The outcome is one use-case mapping: its buffer
                    // figure is the sum over the admitted applications.
                    let mut bytes = 0.0;
                    for a in &outcome.admitted {
                        phase.qor_tputs.push(a.shared_guarantee.to_f64());
                        bytes += buffer_bytes(&inp.base[a.index], &a.mapped.mapping, &arch);
                    }
                    if !outcome.admitted.is_empty() {
                        phase.qor_buffer_bytes.push(bytes);
                    }
                    phase.qor_feasible += outcome.admitted.len() as u64;
                    phase.qor_outcomes += (outcome.admitted.len() + outcome.rejected.len()) as u64;
                }
                self.records
                    .push((edit, Some(digest(&outcome_bytes(&outcome)))));
            }
            Err(e) => {
                phase.fail(i, e);
                self.records.push((edit, None));
            }
        }
    }

    /// Every outcome is byte-equal to a cold, uncached map of the same
    /// edited inputs; every admitted analysis matches the reference
    /// kernel; a seeded sample is validated under both engines.
    fn check(self, inp: &RemapInputs, phase: &mut Phase, tracer: &Tracer, jobs: usize) {
        let records = self.records;
        let arch = architecture_from_xml(&inp.arch).expect("checked-in platform parses");
        let checker = Checker {
            phase,
            traced: tracer.enabled(),
            verified: Mutex::new(HashMap::new()),
        };
        let verdicts = parallel_map(
            jobs,
            &records,
            |i, (edit, digest_warm)| -> Result<(), String> {
                let Some(digest_warm) = digest_warm else {
                    return Ok(());
                };
                let apps = inp
                    .edited_xml(*edit)
                    .iter()
                    .map(|x| application_from_xml(x).map_err(|e| e.to_string()))
                    .collect::<Result<Vec<_>, _>>()?;
                let uc = UseCase::new(apps.clone()).map_err(|e| e.to_string())?;
                let cold = catch_unwind(AssertUnwindSafe(|| {
                    map_use_case(&uc, &arch, &MapOptions::default())
                }))
                .map_err(panic_message)?;
                if digest(&outcome_bytes(&cold)) != *digest_warm {
                    return Err(format!("{edit:?}: warm re-map differs from a cold map"));
                }
                for a in &cold.admitted {
                    let m = &a.mapped;
                    if !checker.analysis_matches(&m.expanded.graph, &m.analysis) {
                        return Err(format!(
                            "{edit:?}: {} analysis differs from the reference kernel",
                            a.name
                        ));
                    }
                    if !checker.probe(&uc.apps()[a.index], &m.mapping, &arch, &m.expanded.graph) {
                        return Err(format!("{edit:?}: {} re-expansion differs", a.name));
                    }
                }
                for g in &cold.groups {
                    let e = expand(&g.graph, &g.mapping, &arch)
                        .map_err(|e| format!("{edit:?}: {e}"))?;
                    if !checker.analysis_matches(&e.graph, &g.analysis) {
                        return Err(format!(
                            "{edit:?}: shared analysis differs from the reference kernel"
                        ));
                    }
                }
                if inp.lockstep.contains(&i) {
                    let validate = |engine| {
                        let opts = FlowOptions {
                            sim_engine: engine,
                            ..FlowOptions::default()
                        };
                        run_multi_flow(apps.clone(), arch.clone(), &opts, MULTI_SIM_ITERATIONS)
                            .map_err(|e| format!("{edit:?}: validation failed: {e}"))
                    };
                    let event = validate(Engine::Event)?;
                    let lockstep = validate(Engine::Lockstep)?;
                    if !event.all_guarantees_hold() {
                        return Err(format!("{edit:?}: a validated guarantee is violated"));
                    }
                    if render_multi_report(&event) != render_multi_report(&lockstep) {
                        return Err(format!("{edit:?}: event and lockstep engines disagree"));
                    }
                }
                Ok(())
            },
        );
        drop(checker);
        for (i, v) in verdicts.into_iter().enumerate() {
            if let Err(e) = v {
                phase.fail(i, e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infeasible_mappings_are_verdicts_and_breakage_fails() {
        for verdict in [
            MapError::Sdf(SdfError::Deadlock("x".into())),
            MapError::ConstraintUnmet("x".into()),
            MapError::Infeasible("x".into()),
        ] {
            assert!(is_verdict(&FlowError::Map(verdict)));
        }
        for failure in [
            MapError::Sdf(SdfError::AnalysisLimit("x".into())),
            MapError::Sdf(SdfError::InvalidGraph("x".into())),
        ] {
            assert!(!is_verdict(&FlowError::Map(failure)));
        }
        let boot = FlowError::Sim(mamps_sim::SimError::Deadlock("x".into()));
        assert!(!is_verdict(&boot));
    }

    #[test]
    fn a_panicking_operation_counts_as_failed() {
        let mut phase = Phase::default();
        let out: Result<(), String> = guarded(&mut phase, Mode::Timed, || panic!("boom"));
        assert_eq!(out, Err("panicked: boom".into()));
        assert_eq!(phase.latencies_ms.len(), 1);
        phase.fail(0, out.unwrap_err());
        close(&mut phase, 2);
        assert_eq!(
            phase.tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn budget_needs_both_time_and_operations() {
        let b = Budget {
            seconds: 1.0,
            min_ops: 100,
            max_ops: usize::MAX,
        };
        assert!(!b.done(99, Duration::from_secs(5)));
        assert!(!b.done(500, Duration::from_millis(500)));
        assert!(b.done(100, Duration::from_secs(1)));
        assert!(b.done(0, HARD_CAP));
        let fixed = Budget {
            seconds: 0.0,
            min_ops: 100,
            max_ops: 100,
        };
        assert!(!fixed.done(99, Duration::ZERO) && fixed.done(100, Duration::ZERO));
    }

    #[test]
    fn inputs_depend_on_the_seed_alone() {
        let xml = |seed| match setup(Kind::Sweep, seed).expect("sweep inputs") {
            Inputs::Sweep(s) => (s.apps, s.lockstep.into_iter().collect::<Vec<_>>().len()),
            _ => unreachable!(),
        };
        assert_eq!(xml(3), xml(3));
        assert_ne!(xml(3).0, xml(4).0);
        assert_eq!(xml(3).1, LOCKSTEP_SAMPLES);
    }

    #[test]
    fn remap_edits_are_novel_single_wcet_changes() {
        let Inputs::Remap(mut r) = setup(Kind::Remap, 5).expect("remap inputs") else {
            unreachable!()
        };
        let mut seen = HashSet::new();
        for _ in 0..500 {
            let edit = r.next_edit();
            assert!(seen.insert(edit), "{edit:?} repeats");
            let edited = r.edited_xml(edit);
            let changed: Vec<usize> = (0..edited.len())
                .filter(|&i| edited[i] != r.base_xml[i])
                .collect();
            assert_eq!(changed, vec![edit.app]);
            let app = application_from_xml(&edited[edit.app]).expect("edited XML parses");
            let aid = mamps_sdf::ActorId(edit.actor);
            assert_eq!(app.graph().actor(aid).execution_time(), edit.wcet);
        }
    }
}
