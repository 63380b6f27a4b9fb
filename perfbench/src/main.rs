//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it cycles set-up + the workload's timed pipeline through
//! the workload's corpora for `--seconds` (at least one full cycle, after one
//! untimed warm-up repetition) and prints the end-to-end metrics: `wall_s`
//! as the mean and `peak_heap_mib` as the median over corpora of each
//! corpus's median repetition, `setup_s` as the median set-up. With
//! `--trace 1` it runs the pipeline once under an engine timing sink, then
//! replays the workload's layer calls single-threaded, alternately untraced
//! and traced, and prints the per-layer metrics; the spans of the first
//! traced replay are written to
//! `.bench_out/trace-<workload>-<seed>.json`. Either way the last line of
//! standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.

mod alloc;
mod memvfs;
mod replay;
mod stats;
mod trace;
mod workload;

use qubikos_engine::NullSink;
use replay::{replay, Counters};
use stats::{median, ratio, summarize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{check_subtree, Span, Tracer};
use workload::{run, setup, EngineTally, Workload, DEFAULT_SEED, THREADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Per-call layer timings: each reports its per-replay total, median, tail
/// percentile and sample count.
const CALL_TIMINGS: [&str; 13] = [
    "route.lightsabre",
    "route.tket",
    "route.qmap",
    "route.ml-qls",
    "validate",
    "generate",
    "certificate",
    "exact",
    "qasm.emit",
    "qasm.parse",
    "store.load_shard",
    "store.read_cached",
    "store.write_cached",
];

/// Layer calls made once or a handful of times per replay: total only.
const TOTAL_TIMINGS: [&str; 5] = [
    "arch.build",
    "store.export",
    "store.shard_records",
    "store.read_file",
    "analytics",
];

const STAGES: [&str; 6] = [
    "export",
    "verify",
    "eval-cold",
    "eval-warm",
    "analytics",
    "certify",
];

const TOOLS: [&str; 4] = ["lightsabre", "tket", "qmap", "ml-qls"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Metrics in print order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Result of a run, printed as the last line of standard output.
struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Metrics,
}

impl Report {
    fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    /// Counts `jobs` checked jobs, `failed` of them failed, and logs why.
    fn count(&mut self, jobs: u64, failed: u64, failures: Vec<String>) {
        self.attempted += jobs;
        self.failed += failed;
        self.failures.extend(failures);
    }

    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (index, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            // `+ 0.0` turns a negative zero (an empty sum) into 0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            let sep = if index == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failures.is_empty() && self.failed == 0,
            self.attempted.max(1),
            // Two checks can fail the same job; a job fails at most once.
            self.failed.min(self.attempted.max(1))
        )
    }
}

/// End-to-end run: set-up and the timed pipeline of every corpus, cycled
/// through until `seconds` have passed and every corpus ran at least once.
/// Per corpus the median repetition counts. Time is averaged over the
/// corpora; peak heap, which one hard circuit can double in a corpus (the
/// exact solver's table), takes the median corpus instead.
fn run_end_to_end(args: &Args) -> Result<Report, String> {
    let specs = args.workload.specs(args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut setups = Vec::new();
    let mut walls = vec![Vec::new(); specs.len()];
    let mut peaks = vec![Vec::new(); specs.len()];
    let mut report = Report::new();
    // The first repetition of a process runs up to a quarter slower (fresh
    // heap pages); run it untimed so every timed repetition starts warm.
    let warmup = run(&specs[0], &setup(&specs[0])?, &NullSink);
    report.count(warmup.jobs, warmup.failed_jobs, warmup.failures);
    let start = Instant::now();
    let mut reps = 0;
    while reps < specs.len() || start.elapsed() < budget {
        let corpus = reps % specs.len();
        let spec = &specs[corpus];
        let began = Instant::now();
        let prepared = setup(spec)?;
        setups.push(began.elapsed().as_secs_f64());
        alloc::reset_peak();
        let outcome = run(spec, &prepared, &NullSink);
        peaks[corpus].push(alloc::peak_mib());
        walls[corpus].push(outcome.wall);
        report.count(outcome.jobs, outcome.failed_jobs, outcome.failures);
        reps += 1;
    }
    let medians =
        |per_corpus: &[Vec<f64>]| per_corpus.iter().map(|v| median(v)).collect::<Vec<_>>();
    let wall = medians(&walls).iter().sum::<f64>() / specs.len() as f64;
    eprintln!(
        "{}: {reps} repetitions over {} corpora on {THREADS} engine threads ({} cores available); \
         wall {walls:?} s; setup {setups:?} s; peak heap {peaks:?} MiB",
        args.workload.name(),
        specs.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report.metrics.put("wall_s", wall, "s");
    report.metrics.put("setup_s", median(&setups), "s");
    report
        .metrics
        .put("peak_heap_mib", median(&medians(&peaks)), "MiB");
    Ok(report)
}

/// Per-name span durations in milliseconds.
fn durations_ms(spans: &[Span]) -> BTreeMap<&str, Vec<f64>> {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for span in spans {
        by_name
            .entry(span.name.as_str())
            .or_default()
            .push(span.duration() as f64 / 1e6);
    }
    by_name
}

/// Traced run: the pipeline once under an engine timing sink, then
/// alternating untraced and traced single-threaded replays for `seconds`.
fn run_traced(args: &Args) -> Result<(Report, Vec<Span>), String> {
    let spec = args.workload.spec(args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut report = Report::new();

    let tally = EngineTally::default();
    let pipeline = run(&spec, &setup(&spec)?, &tally);
    report.count(
        pipeline.jobs,
        pipeline.failed_jobs,
        pipeline.failures.clone(),
    );

    let mut first: Option<Counters> = None;
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut traced_spans: Vec<Vec<Span>> = Vec::new();
    let mut round = 0;
    while traced_spans.is_empty() || start.elapsed() < budget {
        // Alternate which replay goes first, so warm-up favours neither.
        let order = if round % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        round += 1;
        for traced in order {
            let tracer = Tracer::new(traced);
            let result = replay(&spec, &tracer);
            report.count(result.jobs, result.failures.len() as u64, result.failures);
            match &first {
                None => first = Some(result.counters),
                Some(counters) if *counters != result.counters => report.count(
                    0,
                    1,
                    vec![format!(
                        "replay counters differ between runs: {counters:?} vs {:?}",
                        result.counters
                    )],
                ),
                Some(_) => {}
            }
            if traced {
                traced_walls.push(result.wall);
                traced_spans.push(tracer.spans());
            } else {
                untraced_walls.push(result.wall);
            }
        }
    }
    let counters = first.unwrap_or_default();
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;

    // The replay, made single-threaded, must route exactly as the pipeline.
    let replay_swaps: f64 = TOOLS
        .iter()
        .map(|t| counter(&format!("route.{t}.swaps")))
        .sum();
    if replay_swaps != pipeline.swaps as f64 {
        let error = format!(
            "replay inserted {replay_swaps} SWAPs, the pipeline {}",
            pipeline.swaps
        );
        report.count(0, 1, vec![error]);
    }

    // Span arithmetic: per stage, the self times of its layer calls plus its
    // own self time add up to its wall time.
    for spans in &traced_spans {
        for (index, span) in spans.iter().enumerate() {
            if span.name.starts_with("stage.") {
                if let Err(error) = check_subtree(spans, index) {
                    report.count(0, 1, vec![error]);
                }
            }
        }
    }

    let replays = traced_spans.len() as f64;
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for spans in &traced_spans {
        for (name, mut values) in durations_ms(spans) {
            samples.entry(name).or_default().append(&mut values);
        }
    }
    let samples_of = |name: &str| samples.get(name).map_or(&[][..], Vec::as_slice);
    let per_replay = |name: &str| samples_of(name).iter().sum::<f64>() / replays;

    let m = &mut report.metrics;
    for name in CALL_TIMINGS {
        let summary = summarize(samples_of(name));
        m.put(format!("{name}.ms_sum"), summary.sum / replays, "ms");
        m.put(format!("{name}.ms_p50"), summary.p50, "ms");
        m.put(format!("{name}.ms_tail"), summary.tail, "ms");
        m.put(format!("{name}.tail_pct"), summary.tail_pct, "%");
        m.put(format!("{name}.n"), summary.n as f64, "count");
    }
    for name in TOTAL_TIMINGS {
        m.put(format!("{name}.ms"), per_replay(name), "ms");
    }
    for tool in TOOLS {
        let name = format!("route.{tool}.swaps");
        m.put(&name, counter(&name), "count");
    }
    m.put("designed.swaps", counter("designed.swaps"), "count");
    m.put(
        "route.swap_ratio",
        ratio(replay_swaps, counter("designed.swaps")),
        "ratio",
    );
    for name in [
        "queries",
        "rows_computed",
        "cache_hits",
        "pinned_hits",
        "landmark_queries",
        "exact_fallbacks",
    ] {
        let name = format!("oracle.{name}");
        m.put(&name, counter(&name), "count");
    }
    // Row lookups either hit the row cache or compute a BFS row.
    let hits = counter("oracle.cache_hits");
    m.put(
        "oracle.hit_ratio",
        ratio(hits, hits + counter("oracle.rows_computed")),
        "ratio",
    );
    let landmark = counter("oracle.landmark_queries");
    m.put(
        "oracle.prune_ratio",
        ratio(landmark - counter("oracle.exact_fallbacks"), landmark),
        "ratio",
    );

    let (jobs, wall_us, busy_us, capacity_us) = tally.totals();
    m.put("engine.jobs", jobs as f64, "count");
    m.put("engine.wall_ms", wall_us as f64 / 1e3, "ms");
    m.put("engine.busy_ms", busy_us as f64 / 1e3, "ms");
    m.put(
        "engine.idle_frac",
        1.0 - ratio(busy_us as f64, capacity_us as f64).min(1.0),
        "ratio",
    );

    for name in [
        "exact.nodes",
        "exact.nodes.k1",
        "exact.nodes.k2",
        "exact.nodes.k3",
    ] {
        m.put(name, counter(name), "count");
    }
    let exact_s = per_replay("exact") / 1e3;
    m.put(
        "exact.nodes_per_s",
        ratio(counter("exact.nodes"), exact_s),
        "1/s",
    );
    m.put(
        "exact.budget_exhausted",
        counter("exact.budget_exhausted"),
        "count",
    );
    m.put(
        "exact.decided_frac",
        ratio(counter("exact.decided"), counter("exact.eligible")),
        "ratio",
    );
    m.put("exact.eligible", counter("exact.eligible"), "count");

    m.put("qasm.bytes", counter("qasm.bytes"), "B");
    for name in [
        "store.cache.hits",
        "store.cache.misses",
        "store.cache.corrupt",
        "store.residency_peak",
    ] {
        m.put(name, counter(name), "count");
    }
    m.put("store.bytes_written", counter("store.bytes_written"), "B");

    for stage in STAGES {
        m.put(
            format!("stage.{stage}.ms"),
            per_replay(&format!("stage.{stage}")),
            "ms",
        );
    }
    for stage in STAGES {
        let seconds = pipeline
            .stages
            .iter()
            .filter(|(name, _)| *name == stage)
            .map(|(_, s)| s)
            .sum::<f64>();
        m.put(
            format!("pipeline.{}_s", stage.replace('-', "_")),
            seconds,
            "s",
        );
    }

    let untraced = median(&untraced_walls);
    m.put(
        "trace.overhead_frac",
        ratio(median(&traced_walls) - untraced, untraced),
        "ratio",
    );
    m.put(
        "trace.spans",
        traced_spans.first().map_or(0, Vec::len) as f64,
        "count",
    );
    m.put("trace.replays", replays, "count");
    eprintln!(
        "{}: pipeline {:.3} s on {THREADS} threads; replays untraced {:?} s, traced {:?} s",
        args.workload.name(),
        pipeline.wall,
        untraced_walls,
        traced_walls
    );
    let spans = traced_spans.into_iter().next().unwrap_or_default();
    Ok((report, spans))
}

/// Writes the first traced replay's spans under `.bench_out/`, with each
/// stage's self time split by span name (the parts add up to the stage).
fn write_trace(args: &Args, spans: &[Span]) {
    let mut stages = String::new();
    for (index, span) in spans.iter().enumerate() {
        if let (true, Ok(split)) = (span.name.starts_with("stage."), check_subtree(spans, index)) {
            let parts: Vec<String> = split
                .iter()
                .map(|(name, ns)| format!("\"{name}\": {}", *ns as f64 / 1e6))
                .collect();
            let sep = if stages.is_empty() { "" } else { ", " };
            let _ = write!(stages, "{sep}\"{}\": {{{}}}", span.name, parts.join(", "));
        }
    }
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"stage_self_ms\": {{{stages}}}, \"spans\": {}}}\n",
        args.workload.name(),
        args.seed,
        trace::to_json(spans)
    );
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        run_traced(&args).map(|(report, spans)| {
            write_trace(&args, &spans);
            report
        })
    } else {
        run_end_to_end(&args)
    };
    match result {
        Ok(report) => {
            for failure in &report.failures {
                eprintln!("check failed: {failure}");
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}
