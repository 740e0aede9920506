//! The repository's benchmark: the paper's repeated sweeps — the
//! transactional census (§4), the same census under packet loss,
//! DNSRoute++ path traces (§5) and the campaign comparison (§3) — timed
//! end to end through the public runners, and, in a separate traced run,
//! layer by layer through the public call of each layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload census --seed 3235782689 --seconds 28 --trace 0
//! ```
//!
//! `--workload all` runs the four workloads one after another, each in
//! its own process so that each reports its own peak memory. `--catalog`
//! prints every metric with its unit, direction, layer and the
//! end-to-end metric it should move. Every run checks its outputs against
//! the generator's planted truth address by address, writes its manifest,
//! metrics and spans to `perfbench/results/` under the working directory
//! (or `--out <dir>`), and prints one JSON result as its last line.

mod catalog;
mod layers;
mod stats;
mod truth;
mod unit;
mod workload;

use catalog::Kind;
use layers::{Span, SweepTrace, TracedWorlds};
use stats::{interquartile_mean, json_num, json_str, median, timed, Clock};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use truth::{Check, Truth};
use workload::{Digest, Workload};

const USAGE: &str = "usage: perfbench --workload <census|census_lossy|dnsroute|campaign|all> \
[--seed <u64>] [--seconds <n>] [--trace <0|1>] [--out <dir>]\n       perfbench --catalog";

/// How a run splits its `--seconds`: set-up rounds, then warm sweeps
/// alternating with one-shot sweeps, or, in a traced run, untraced warm
/// sweeps and traced sweeps.
const SETUP_SHARE: f64 = 0.06;
const SWEEP_SHARE: f64 = 0.94;
const TRACE_UNTRACED_SHARE: f64 = 0.25;
const TRACE_TRACED_SHARE: f64 = 0.65;
/// Fewest set-up rounds and timed sweeps of each kind, however long they
/// take.
const MIN_SETUP_ROUNDS: usize = 5;
const MIN_SWEEPS: usize = 2;

/// The census world's default seed must reproduce these counts.
const DEFAULT_CENSUS: [(&str, &str, u64); 5] = [
    ("transparent", "transparent", 58_312),
    ("recursive_forwarder", "recursive_forwarder", 145_289),
    ("resolver", "resolver", 2_437),
    ("manipulated", "discarded:ControlRecordViolated", 21_882),
    ("dud", "discarded:NoResponse", 911_680),
];

/// The lossy census at the default seed: 12,589 planted hosts missed
/// under loss, and the public runner's resilience cell.
const DEFAULT_LOSSY: [(&str, &str, u64); 9] = [
    ("transparent", "transparent", 26_198),
    ("transparent", "discarded:NoResponse", 2_956),
    ("recursive_forwarder", "recursive_forwarder", 64_310),
    ("recursive_forwarder", "discarded:NoResponse", 8_342),
    ("resolver", "resolver", 1_165),
    ("resolver", "discarded:NoResponse", 63),
    ("manipulated", "discarded:ControlRecordViolated", 9_710),
    ("manipulated", "discarded:NoResponse", 1_228),
    ("dud", "discarded:NoResponse", 455_888),
];
const DEFAULT_LOSSY_CELL: analysis::ResilienceCell = analysis::ResilienceCell {
    planted_transparent: 29_154,
    detected_true: 26_198,
    false_positives: 0,
    probes_sent: 569_860,
    retransmits_sent: 947_218,
    answered: 101_383,
};

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: inetgen::GenConfig::default().seed,
        seconds: 28.0,
        trace: false,
        out: PathBuf::from("perfbench/results"),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--catalog" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match workload.as_deref() {
        None => return Err("--workload is required".into()),
        Some("all") => {}
        Some(name) => {
            args.workload =
                Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?)
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", catalog::to_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}

/// Everything one run measured and checked.
#[derive(Default)]
struct Run {
    /// Metrics by name, including the ones the result line omits.
    metrics: BTreeMap<&'static str, f64>,
    /// Figures printed and persisted but not part of the result line.
    notes: Vec<(String, String)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    matrix: BTreeMap<(&'static str, String), u64>,
    spans: Vec<Span>,
}

impl Run {
    fn verify(&mut self, what: &str, check: &Check) {
        self.attempted += check.attempted;
        self.failed += check.failed;
        for p in &check.problems {
            self.problems.push(format!("{what}: {p}"));
        }
    }

    /// A sweep that must equal the truth-checked reference row for row;
    /// a divergent sweep fails every operation it attempted.
    fn verify_same(&mut self, what: &str, same: bool, ops: &Check) {
        if same {
            self.attempted += ops.attempted;
            self.failed += ops.failed;
        } else {
            self.attempted += ops.attempted.max(1);
            self.failed += ops.attempted.max(1);
            self.problems
                .push(format!("{what} differs from the reference sweep"));
        }
    }

    fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let mut run = Run::default();
    run.problems.extend(catalog::drift());
    let manifest = manifest(workload, args);
    println!("{} manifest: {manifest}", workload.name());
    measure(workload, args, &mut run);
    let kind = if args.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    for m in catalog::of_kind(kind) {
        if !run.metrics.contains_key(m.name) {
            run.problems
                .push(format!("metric {} was not measured", m.name));
        }
    }
    let correct = run.problems.is_empty() && run.failed == 0;
    print_report(workload, &run, correct);
    if let Err(e) = write_results(workload, args, &manifest, &run, correct) {
        eprintln!("perfbench: cannot write results: {e}");
        return ExitCode::FAILURE;
    }
    let metrics: Vec<String> = catalog::of_kind(kind)
        .filter_map(|m| {
            run.metrics.get(m.name).map(|v| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    json_num(*v),
                    json_str(m.unit)
                )
            })
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Repeat `step`, which returns the seconds it measured: at least `min`
/// times, and then again as long as another step of the last one's
/// length still fits in the budget.
fn phase(budget_s: f64, min: usize, mut step: impl FnMut() -> f64) -> Vec<f64> {
    let clock = Clock::start();
    let mut times: Vec<f64> = Vec::new();
    while times.len() < min || clock.secs() + times.last().copied().unwrap_or(0.0) <= budget_s {
        times.push(step());
    }
    times
}

fn measure(workload: Workload, args: &Args, run: &mut Run) {
    let seed = args.seed;
    let s = args.seconds;

    // Set-up: generate the shard worlds again and again; the median is
    // `setup_s`. The first round's worlds give the planted truth.
    let mut generate_busy = Vec::new();
    let mut truth: Option<Truth> = None;
    let setup = phase(SETUP_SHARE * s, MIN_SETUP_ROUNDS, || {
        let (worlds, spans, wall_s) = TracedWorlds::generate(workload, seed);
        generate_busy.push(spans.iter().map(Span::secs).sum::<f64>());
        if truth.is_none() {
            truth = Some(worlds.with_worlds(|w| Truth::from_worlds(w.iter().copied())));
        }
        drop(worlds);
        stats::release_free_memory();
        wall_s
    });
    let truth = truth.expect("at least one set-up round");
    run.metrics.insert("setup_s", median(&setup));
    run.metrics
        .insert("inetgen.generate_s", median(&generate_busy));

    // The public cached runner: a cold sweep that generates the worlds
    // (the truth-checked reference), then warm sweeps over reset worlds.
    // Only the reference's digest is kept, so that the peak memory of
    // the sweeps that follow holds no benchmark copy of an output.
    let mut cache = inetgen::ShardWorldCache::new(workload.gen_config(seed));
    let cold = workload::run_cached(workload, &mut cache);
    let ref_check = truth.check(workload, &cold);
    run.verify("cold sweep", &ref_check);
    run.matrix = ref_check.matrix.clone();
    let work = cold.work_units(workload, truth.targets());
    let reference = Reference {
        digest: cold.digest(),
        cell: cold.lossy_cell.clone(),
    };
    drop(cold);
    // Warm and one-shot sweeps alternate, so that both figures sample the
    // whole run: the machine's speed drifts over tens of seconds, and a
    // phase of its own would catch one fast or one slow stretch whole.
    // Each figure is the mean of the middle half of its sweeps: with ten
    // or so sweeps spread this wide, the median jumps from one neighbour
    // to the next between runs, while the middle half's mean moves less.
    let budget = if args.trace {
        TRACE_UNTRACED_SHARE
    } else {
        SWEEP_SHARE
    } * s;
    let mut warm = Vec::new();
    let mut oneshot = Vec::new();
    phase(budget, MIN_SWEEPS, || {
        let (out, secs) = timed(|| workload::run_cached(workload, &mut cache));
        run.verify_same("warm sweep", out.digest() == reference.digest, &ref_check);
        // The footprint of a cold and a warm sweep over cached worlds, read
        // at the same point of every run: each later sweep's worker
        // threads may land on other allocator arenas and grow the peak by
        // chance. Of the benchmark's own data only the planted truth is
        // live; its size is noted.
        if !run.metrics.contains_key("peak_rss_mb") {
            if let Some(mb) = stats::peak_rss_mb() {
                run.metrics.insert("peak_rss_mb", mb);
                run.note("peak_rss_mb_of_which_truth", truth.heap_mb());
            }
        }
        warm.push(secs);
        if args.trace {
            return secs;
        }
        // A one-shot user starts from a fresh process, not from the pages
        // the last one-shot freed.
        stats::release_free_memory();
        let (out, oneshot_s) = timed(|| workload::run_oneshot(workload, seed));
        run.verify_same(
            "one-shot sweep",
            out.digest() == reference.digest,
            &ref_check,
        );
        drop(out);
        oneshot.push(oneshot_s);
        secs + oneshot_s
    });
    drop(cache);
    let warm_median = median(&warm);
    let warm_mean = interquartile_mean(&warm);
    run.metrics
        .insert("throughput_per_s", work as f64 / warm_mean);
    run.note("setup_s_samples", samples(&setup));
    run.note("warm_sweep_s_samples", samples(&warm));
    run.note("work_units_per_sweep", work);
    run.note("warm_sweep_s_median", warm_median);
    run.note("warm_sweep_s_interquartile_mean", warm_mean);
    match stats::tail_percentile(&warm) {
        Some((p, v)) => run.note(format!("warm_sweep_s_p{p}"), v),
        None => run.note(
            "warm_sweep_s_tail",
            format!(
                "no percentile beyond the median has ten samples (n = {})",
                warm.len()
            ),
        ),
    }

    if !args.trace {
        run.metrics
            .insert("oneshot_s", interquartile_mean(&oneshot));
        run.note("oneshot_s_median", median(&oneshot));
        run.note("oneshot_s_samples", samples(&oneshot));
    }

    // The decomposed sweep: the per-layer metrics in a traced run, and in
    // every lossy run the rows the public lossy runner does not return.
    if args.trace || workload.lossy() {
        let budget = if args.trace {
            TRACE_TRACED_SHARE * s
        } else {
            0.0
        };
        traced(workload, seed, budget, &truth, &reference, warm_median, run);
    }

    check_default_seed(workload, seed, &reference, run);
}

/// What traced sweeps are compared with: the reference sweep's digest
/// and, for the lossy census, whose public runner returns no rows, its
/// resilience cell.
struct Reference {
    digest: Digest,
    cell: Option<analysis::ResilienceCell>,
}

/// The traced run: the same sweeps decomposed into layer calls, each
/// compared with the public runner's output.
fn traced(
    workload: Workload,
    seed: u64,
    budget_s: f64,
    truth: &Truth,
    reference: &Reference,
    untraced_s: f64,
    run: &mut Run,
) {
    let (mut worlds, spans, _) = TracedWorlds::generate(workload, seed);
    run.spans.extend(spans);
    let mut sweeps: Vec<SweepTrace> = Vec::new();
    // Only the last sweep's output and payloads are kept.
    let mut last: workload::SweepResult;
    let mut payloads: Vec<netsim::Payload>;
    let clock = Clock::start();
    loop {
        let mut trace = worlds.sweep();
        let mut ops = truth.check(workload, &trace.result);
        // The lossy public runner returns only its resilience cell: the
        // decomposed rows are checked against the truth directly, the
        // runner's cell against them, and their cell against the runner's.
        let same = if workload.lossy() {
            trace.result.lossy_cell == reference.cell
        } else {
            trace.result.digest() == reference.digest
        };
        if workload.lossy() {
            let on_retry = trace.counters.get("scanner.answered_on_retry");
            ops.check_lossy(reference.cell.as_ref(), on_retry.map_or(0, |n| *n as u64));
            for p in &ops.problems {
                run.problems.push(format!("decomposed lossy sweep: {p}"));
            }
            run.metrics
                .insert("analysis.missed_under_loss", ops.missed as f64);
            if sweeps.is_empty() {
                run.matrix = ops.matrix.clone();
                run.note("lossy_recall", ops.recall());
                if let Some(c) = &reference.cell {
                    run.note("lossy_cell", format!("{c:?}"));
                }
            }
        }
        run.verify_same("traced sweep", same, &ops);
        last = std::mem::take(&mut trace.result);
        payloads = std::mem::take(&mut trace.payloads);
        let last_s = trace.wall_s;
        sweeps.push(trace);
        // The first sweep is cold; at least MIN_SWEEPS warm ones follow.
        let warm_done = sweeps.len() > MIN_SWEEPS && clock.secs() + last_s > budget_s;
        if budget_s == 0.0 || warm_done {
            break;
        }
    }
    if budget_s == 0.0 {
        return;
    }
    // The first sweep ran on fresh worlds; the warm ones reset first,
    // like the public warm sweeps they are compared with.
    let warm = &sweeps[1..];
    let med = |f: &dyn Fn(&SweepTrace) -> f64| median(&warm.iter().map(f).collect::<Vec<_>>());
    let busy =
        |name: &'static str| move |t: &SweepTrace| t.busy().get(name).copied().unwrap_or(0.0);
    let share = |name: &'static str| {
        move |t: &SweepTrace| {
            let b = t.busy();
            let layers: f64 = b
                .iter()
                .filter(|(n, _)| **n != layers::INSTRUMENTATION)
                .map(|(_, secs)| secs)
                .sum();
            b.get(name).copied().unwrap_or(0.0) / layers
        }
    };
    for (metric, span) in [
        ("inetgen.reset_s", "inetgen.reset"),
        ("scanner.scan_s", "scanner.scan"),
        ("scanner.correlate_s", "scanner.correlate"),
        ("analysis.classify_s", "analysis.classify"),
    ] {
        run.metrics.insert(metric, med(&busy(span)));
    }
    for (metric, span) in [
        ("scanner.campaign_share", "scanner.campaign"),
        ("dnsroute.trace_share", "dnsroute.trace"),
        ("dnsroute.sanitize_share", "dnsroute.sanitize"),
    ] {
        run.metrics.insert(metric, med(&share(span)));
    }
    // Time the benchmark spent reading counters is tracing overhead: it
    // is taken out of the sweep before the layers' share is computed.
    let layered_wall = |t: &SweepTrace| t.wall_s - t.instrumentation_s();
    run.metrics.insert(
        "analysis.residual_s",
        med(&|t| layered_wall(t) - t.explained_s()),
    );
    run.metrics.insert(
        "analysis.explained_share",
        med(&|t| t.explained_s() / layered_wall(t)),
    );
    let traced_s = med(&|t| t.wall_s);
    run.metrics
        .insert("analysis.trace_overhead_s", traced_s - untraced_s);
    run.note("traced_sweeps", warm.len());
    run.note("traced_sweep_s_median", traced_s);
    for (name, secs) in warm.last().expect("two warm traced sweeps").busy() {
        run.note(format!("busy_s.{name}"), secs);
    }

    let c = &sweeps.last().expect("traced sweeps ran").counters;
    let get = |name: &str| c.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    for (name, value) in c {
        if catalog::METRICS.iter().any(|m| m.name == *name) {
            run.metrics.insert(name, *value);
        }
    }
    run.metrics.insert(
        "netsim.events_per_target",
        ratio(get("netsim.events"), get("inetgen.targets")),
    );
    run.metrics.insert(
        "netsim.route_cache_hit_ratio",
        ratio(
            get("netsim.route_cache_hits"),
            get("netsim.route_cache_hits") + get("netsim.route_cache_misses"),
        ),
    );
    run.metrics.insert(
        "odns.cache_hit_ratio",
        ratio(
            get("odns.resolver_cache_answers"),
            get("odns.resolver_queries"),
        ),
    );
    let traces = last.traces.len() as f64;
    let kept = last.sanitize.as_ref().map_or(0, |s| s.kept) as f64;
    run.metrics.insert("dnsroute.traces", traces);
    run.metrics.insert("dnsroute.kept", kept);
    run.metrics.insert("dnsroute.rejected", traces - kept);
    run.metrics.insert(
        "dnsroute.icmp_per_trace",
        ratio(get("dnsroute.icmp"), traces),
    );
    // Counters of stages a workload does not run.
    for name in [
        "analysis.missed_under_loss",
        "scanner.campaign_probes",
        "scanner.sensor_rate_limited",
    ] {
        run.metrics.entry(name).or_insert(0.0);
    }

    let (decode, encode) = unit::codec(&payloads);
    run.metrics.insert("dnswire.decode_ns", decode);
    run.metrics.insert("dnswire.encode_ns", encode);
    let (cold_ns, warm_ns) = worlds.with_worlds(|w| unit::routes(w[0]));
    run.metrics.insert("netsim.route_resolve_cold_ns", cold_ns);
    run.metrics.insert("netsim.route_resolve_warm_ns", warm_ns);

    for t in sweeps {
        run.spans.extend(t.spans);
    }
    let teardown = worlds.teardown();
    run.metrics.insert(
        "inetgen.teardown_s",
        teardown.iter().map(Span::secs).sum::<f64>(),
    );
    run.spans.extend(teardown);
}

/// A timing sample as a space-separated list, for the results file.
fn samples(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    v.join(" ")
}

/// The default seed must reproduce the census's paper-scale counts, and
/// the lossy census's planted class × verdict matrix and resilience cell,
/// exactly.
fn check_default_seed(workload: Workload, seed: u64, reference: &Reference, run: &mut Run) {
    if seed != inetgen::GenConfig::default().seed {
        return;
    }
    let pinned: &[(&str, &str, u64)] = match workload {
        Workload::Census => &DEFAULT_CENSUS,
        Workload::CensusLossy => &DEFAULT_LOSSY,
        _ => &[],
    };
    for &(planted, verdict, want) in pinned {
        let got = run.matrix.get(&(planted, verdict.to_string())).copied();
        if got != Some(want) {
            run.problems.push(format!(
                "default seed: {want} {planted} hosts should read {verdict}, got {got:?}"
            ));
        }
    }
    if !pinned.is_empty() && run.matrix.len() != pinned.len() {
        run.problems.push(format!(
            "default seed: {} planted class × verdict pairs, {} expected",
            run.matrix.len(),
            pinned.len()
        ));
    }
    if workload.lossy() && reference.cell != Some(DEFAULT_LOSSY_CELL) {
        run.problems.push(format!(
            "default seed: the resilience cell should read {DEFAULT_LOSSY_CELL:?}, got {:?}",
            reference.cell
        ));
    }
}

fn manifest(workload: Workload, args: &Args) -> String {
    let config = workload.gen_config(args.seed);
    let countries = match &config.countries {
        inetgen::CountrySelection::All => "all".to_string(),
        inetgen::CountrySelection::TopByTransparent(n) => format!("top {n}"),
        inetgen::CountrySelection::Codes(codes) => codes.join(" "),
    };
    let (loss, retries) = if workload.lossy() {
        (workload::LOSS_PERMILLE, workload::LOSS_RETRIES)
    } else {
        (0, 0)
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"countries\": {}, \"scale\": {}, \"dud_fraction\": {}, \
\"loss_permille\": {loss}, \"retries\": {retries}, \"shards\": {}, \"nproc\": {}, \
\"worker_threads\": {}, \"seconds\": {}, \"trace\": {}, \"git_revision\": {}}}",
        json_str(workload.name()),
        args.seed,
        json_str(&countries),
        config.scale,
        json_num(config.dud_fraction),
        workload.shards(),
        stats::nproc(),
        stats::workers(workload.shards()),
        json_num(args.seconds),
        u8::from(args.trace),
        json_str(&stats::git_revision()),
    )
}

fn print_report(workload: Workload, run: &Run, correct: bool) {
    let w = workload.name();
    for (name, value) in &run.metrics {
        let m = catalog::find(name);
        let alias = if *name == "throughput_per_s" {
            format!(" ({})", workload.throughput_name())
        } else {
            String::new()
        };
        println!("{w}: {name}{alias} = {value} {}", m.unit);
    }
    println!(
        "{w}: fail_share = {} share ({} of {} operations)",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    for (key, value) in &run.notes {
        println!("{w}: {key} = {value}");
    }
    for ((planted, verdict), n) in &run.matrix {
        println!("{w}: truth {planted} -> {verdict}: {n}");
    }
    for p in &run.problems {
        println!("{w}: PROBLEM {p}");
    }
    println!("{w}: correct = {correct}");
}

fn write_results(
    workload: Workload,
    args: &Args,
    manifest: &str,
    run: &Run,
    correct: bool,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(name, v)| {
            let m = catalog::find(name);
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"layer\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(m.unit),
                json_str(m.layer)
            )
        })
        .collect();
    let notes: Vec<String> = run
        .notes
        .iter()
        .map(|(k, v)| format!("    {}: {}", json_str(k), json_str(v)))
        .collect();
    let matrix: Vec<String> = run
        .matrix
        .iter()
        .map(|((p, v), n)| format!("    {}: {n}", json_str(&format!("{p} -> {v}"))))
        .collect();
    let spans: Vec<String> = run
        .spans
        .iter()
        .map(|s| {
            let shard = if s.shard == layers::MAIN_THREAD {
                "\"main\"".to_string()
            } else {
                s.shard.to_string()
            };
            format!(
                "    {{\"name\": {}, \"sweep\": {}, \"shard\": {shard}, \"start_s\": {}, \"end_s\": {}}}",
                json_str(s.name),
                s.sweep,
                json_num(s.start_s),
                json_num(s.end_s)
            )
        })
        .collect();
    let problems: Vec<String> = run.problems.iter().map(|p| json_str(p)).collect();
    let body = format!(
        "{{\n  \"manifest\": {manifest},\n  \"correct\": {correct},\n  \"attempted\": {},\n  \"failed\": {},\n  \"problems\": [{}],\n  \"metrics\": {{\n{}\n  }},\n  \"notes\": {{\n{}\n  }},\n  \"truth_matrix\": {{\n{}\n  }},\n  \"spans\": [\n{}\n  ]\n}}\n",
        run.attempted,
        run.failed,
        problems.join(", "),
        metrics.join(",\n"),
        notes.join(",\n"),
        matrix.join(",\n"),
        spans.join(",\n"),
    );
    std::fs::write(&path, body)?;
    println!("{}: results written to {}", workload.name(), path.display());
    Ok(())
}

/// Run every workload, each in a process of its own (peak memory is a
/// per-process figure), and combine their result lines.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let kind = if args.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in Workload::ALL {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let (last, report) = lines.split_last().unwrap_or((&"", &[]));
        for line in report {
            println!("{line}");
        }
        let field = |key: &str| -> Option<u64> {
            let rest = last.split(&format!("\"{key}\": ")).nth(1)?;
            rest.split([',', '}']).next()?.trim().parse().ok()
        };
        correct &= output.status.success() && last.contains("\"correct\": true");
        attempted += field("attempted").unwrap_or(0);
        failed += field("failed").unwrap_or(0);
        for m in catalog::of_kind(kind) {
            let key = format!("{}: ", json_str(m.name));
            if let Some(rest) = last.split(&key).nth(1) {
                let object = &rest[..rest.find('}').map_or(rest.len(), |i| i + 1)];
                metrics.push(format!(
                    "{}: {object}",
                    json_str(&format!("{}/{}", workload.name(), m.name))
                ));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
