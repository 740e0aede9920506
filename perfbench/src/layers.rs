//! The traced run: each shard pass decomposed into the public call of
//! every layer it crosses, each call wrapped in a span, and the layers'
//! public counters read across it. Nothing here reaches inside the
//! program; spans stay in memory until the run writes them out.

use crate::stats::{on_workers, Clock};
use crate::workload::{SweepResult, Workload, LOSS_PERMILLE, LOSS_RETRIES};
use analysis::campaign_sweep::{collect_sensor_totals, sensor_targets};
use analysis::{Census, ResilienceCell, SensorTotals, CAMPAIGN_EPOCH};
use dnsroute::{DnsRouteConfig, TraceResult};
use inetgen::{Internet, PlantedClass, ShardSpec};
use netsim::{Payload, SimDuration, SimStats, Simulator};
use scanner::{Campaign, CampaignConfig, CampaignReport, ClassifierConfig, OdnsClass, ScanConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Mutex;

/// Shard index spans on the driving thread carry (merge, sanitize).
pub const MAIN_THREAD: u32 = u32::MAX;

/// The span of the benchmark's own counter reading: tracing overhead,
/// neither a layer's time nor unexplained time.
pub const INSTRUMENTATION: &str = "perfbench.counters";

/// Response payloads kept from a sweep for the codec unit costs.
const PAYLOAD_SAMPLE: usize = 16_384;

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// 0 for world generation, one id per sweep, `u32::MAX` for teardown.
    pub sweep: u32,
    pub shard: u32,
    /// Seconds since the sweep (or generation) began.
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Counters summed over shards, by metric name.
pub type Counters = BTreeMap<&'static str, f64>;

fn add(c: &mut Counters, name: &'static str, v: impl Into<f64>) {
    *c.entry(name).or_default() += v.into();
}

struct Recorder<'a> {
    clock: &'a Clock,
    sweep: u32,
    shard: u32,
    spans: Vec<Span>,
}

impl Recorder<'_> {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_s = self.clock.secs();
        let out = f();
        self.spans.push(Span {
            name,
            sweep: self.sweep,
            shard: self.shard,
            start_s,
            end_s: self.clock.secs(),
        });
        out
    }
}

/// What one shard pass hands back to the merge.
#[derive(Default)]
struct ShardOut {
    census: Census,
    lossy_cell: Option<ResilienceCell>,
    traces: Vec<TraceResult>,
    campaigns: Vec<(Campaign, CampaignReport)>,
    sensors: Option<SensorTotals>,
    addrs: Option<inetgen::build::scanner_addrs::SensorAddrs>,
    captures: Vec<Vec<u8>>,
    payloads: Vec<Payload>,
    counters: Counters,
    spans: Vec<Span>,
}

/// One traced sweep: its output, wall time, spans and counters.
pub struct SweepTrace {
    pub result: SweepResult,
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub counters: Counters,
    /// Response payloads of the first shard, for the codec unit costs.
    pub payloads: Vec<Payload>,
}

impl SweepTrace {
    /// Busy seconds per span name, summed over shards.
    pub fn busy(&self) -> BTreeMap<&'static str, f64> {
        let mut busy = BTreeMap::new();
        for s in &self.spans {
            *busy.entry(s.name).or_default() += s.secs();
        }
        busy
    }

    /// Seconds of the sweep's wall time the layer spans explain: the
    /// busiest worker's spans (the workers run in parallel, and the sweep
    /// waits for the slowest) plus the driving thread's.
    pub fn explained_s(&self) -> f64 {
        self.critical_path(|s| s.name != INSTRUMENTATION)
    }

    /// Seconds the benchmark's own counter reading added to the sweep.
    pub fn instrumentation_s(&self) -> f64 {
        self.critical_path(|s| s.name == INSTRUMENTATION)
    }

    fn critical_path(&self, include: impl Fn(&Span) -> bool) -> f64 {
        let mut per_shard: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| include(s)) {
            *per_shard.entry(s.shard).or_default() += s.secs();
        }
        let main = per_shard.remove(&MAIN_THREAD).unwrap_or(0.0);
        // With fewer workers than shards a worker runs several shards in
        // turn; the stride matches `on_workers`.
        let workers = crate::stats::workers(per_shard.len() as u32);
        let mut per_worker = vec![0.0; workers as usize];
        for (shard, secs) in per_shard {
            per_worker[(shard % workers) as usize] += secs;
        }
        per_worker.into_iter().fold(0.0, f64::max) + main
    }
}

/// A workload's shard worlds, generated and driven by the traced run.
pub struct TracedWorlds {
    workload: Workload,
    seed: u64,
    worlds: Vec<Mutex<Option<Internet>>>,
    sweeps: u32,
}

impl TracedWorlds {
    /// Generate every shard world on the worker pool, one span per shard.
    pub fn generate(workload: Workload, seed: u64) -> (TracedWorlds, Vec<Span>, f64) {
        let config = workload.gen_config(seed);
        let k = workload.shards();
        let clock = Clock::start();
        let built = on_workers(k, |shard| {
            let mut rec = Recorder {
                clock: &clock,
                sweep: 0,
                shard,
                spans: Vec::new(),
            };
            let world = rec.span("inetgen.generate", || {
                inetgen::generate_shard(&config, ShardSpec::new(shard, k))
            });
            (world, rec.spans)
        });
        let wall_s = clock.secs();
        let mut spans = Vec::new();
        let worlds = built
            .into_iter()
            .map(|(world, s)| {
                spans.extend(s);
                Mutex::new(Some(world))
            })
            .collect();
        let traced = TracedWorlds {
            workload,
            seed,
            worlds,
            sweeps: 0,
        };
        (traced, spans, wall_s)
    }

    /// Borrow each shard world in turn (truth extraction, unit costs).
    pub fn with_worlds<R>(&self, f: impl FnOnce(&[&Internet]) -> R) -> R {
        let guards: Vec<_> = self
            .worlds
            .iter()
            .map(|m| m.lock().expect("no shard pass panicked"))
            .collect();
        let worlds: Vec<&Internet> = guards
            .iter()
            .map(|g| g.as_ref().expect("world present"))
            .collect();
        f(&worlds)
    }

    /// One sweep over every shard: the first sweep runs on the freshly
    /// generated worlds, every later one resets them first — the same
    /// order of calls the public cached runner makes.
    pub fn sweep(&mut self) -> SweepTrace {
        self.sweeps += 1;
        let (workload, seed, sweep) = (self.workload, self.seed, self.sweeps);
        let k = self.worlds.len() as u32;
        let reset = sweep > 1;
        let worlds = &self.worlds;
        let clock = Clock::start();
        let outs = on_workers(k, |shard| {
            let mut guard = worlds[shard as usize]
                .lock()
                .expect("no shard pass panicked");
            let world = guard.as_mut().expect("world present");
            let mut rec = Recorder {
                clock: &clock,
                sweep,
                shard,
                spans: Vec::new(),
            };
            let spec = ShardSpec::new(shard, k);
            shard_pass(workload, seed, spec, world, reset, &mut rec)
        });
        let mut rec = Recorder {
            clock: &clock,
            sweep,
            shard: MAIN_THREAD,
            spans: Vec::new(),
        };
        let (result, counters, mut spans, payloads) = merge(workload, outs, &mut rec);
        let wall_s = clock.secs();
        spans.extend(rec.spans);
        SweepTrace {
            result,
            wall_s,
            spans,
            counters,
            payloads,
        }
    }

    /// Drop every world on its worker, one span per shard.
    pub fn teardown(self) -> Vec<Span> {
        let clock = Clock::start();
        let worlds = &self.worlds;
        on_workers(worlds.len() as u32, |shard| {
            let world = worlds[shard as usize]
                .lock()
                .expect("no shard pass panicked")
                .take();
            let mut rec = Recorder {
                clock: &clock,
                sweep: u32::MAX,
                shard,
                spans: Vec::new(),
            };
            rec.span("inetgen.teardown", || drop(world));
            rec.spans
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

/// The census stage every workload starts with: transactional scan,
/// correlation, classification. Returns the shard's census part plus
/// `(answered, probes)` for the resilience cell.
fn census_stage(
    rec: &mut Recorder<'_>,
    world: &mut Internet,
    scan: ScanConfig,
    out: &mut ShardOut,
) -> (u64, u64) {
    let node = world.fixtures.scanner;
    let (probes, responses, retry) = rec.span("scanner.scan", || {
        scanner::run_scan_raw(&mut world.sim, node, scan)
    });
    let c = &mut out.counters;
    add(c, "scanner.probes", probes.len() as f64);
    add(c, "scanner.responses", responses.len() as f64);
    add(c, "scanner.retransmits", retry.retransmits_sent as f64);
    let on_retry: u64 = retry.answered_on_attempt[1..].iter().sum();
    add(c, "scanner.answered_on_retry", on_retry as f64);
    let bytes: usize = responses.iter().map(|r| r.payload.len()).sum();
    add(c, "dnswire.response_bytes", bytes as f64);
    if rec.shard == 0 {
        out.payloads = responses
            .iter()
            .take(PAYLOAD_SAMPLE)
            .map(|r| r.payload.clone())
            .collect();
    }
    let outcome = rec.span("scanner.correlate", || {
        scanner::correlate_owned(probes, responses, ScanConfig::DEFAULT_TIMEOUT)
    });
    add(c, "scanner.unmatched", outcome.unmatched_responses as f64);
    add(
        c,
        "scanner.late_answers_discarded",
        outcome.late_answers_discarded as f64,
    );
    let answered = outcome.answered_count() as u64;
    let sent = outcome.transactions.len() as u64;
    let classifier = ClassifierConfig::default();
    out.census = rec.span("analysis.classify", || {
        let mut part = Census::from_transactions(&outcome.transactions, &world.geo, &classifier);
        part.unmatched_responses = outcome.unmatched_responses;
        part.late_responses = outcome.late_responses;
        part.late_answers_discarded = outcome.late_answers_discarded;
        // The public runner drops the transactions inside its in-worker
        // tail; so does this span.
        drop(outcome);
        part
    });
    (answered, sent)
}

fn shard_pass(
    workload: Workload,
    seed: u64,
    spec: ShardSpec,
    world: &mut Internet,
    reset: bool,
    rec: &mut Recorder<'_>,
) -> ShardOut {
    if reset {
        rec.span("inetgen.reset", || world.reset());
    }
    let base = world.sim.stats().clone();
    let mut out = ShardOut::default();
    let scanner_node = world.fixtures.scanner;
    match workload {
        Workload::Census => {
            census_stage(rec, world, ScanConfig::new(world.targets.clone()), &mut out);
        }
        Workload::CensusLossy => {
            let plan = analysis::sweep_fault_plan(LOSS_PERMILLE, seed);
            world.sim.set_faults(plan);
            let scan = ScanConfig::new(world.targets.clone())
                .with_target_keyed_tuples()
                .with_retry(analysis::sweep_retry_policy(LOSS_RETRIES));
            let (answered, sent) = census_stage(rec, world, scan, &mut out);
            out.lossy_cell = Some(rec.span("analysis.score", || {
                resilience_cell(world, &out.census, answered, sent, &out.counters)
            }));
        }
        Workload::DnsRoute => {
            census_stage(rec, world, ScanConfig::new(world.targets.clone()), &mut out);
            let before = world.sim.stats().icmp_delivered;
            let census = &out.census;
            out.traces = rec.span("dnsroute.trace", || {
                dnsroute::run_dnsroute(
                    &mut world.sim,
                    scanner_node,
                    DnsRouteConfig::new(census.transparent_targets()),
                )
            });
            let icmp = world.sim.stats().icmp_delivered - before;
            add(&mut out.counters, "dnsroute.icmp", icmp as f64);
        }
        Workload::Campaign => {
            rec.span("analysis.install_sensors", || {
                analysis::install_sensors(world)
            });
            let addrs = world.fixtures.sensor_addrs;
            world.sim.tap(scanner_node);
            census_stage(rec, world, ScanConfig::new(world.targets.clone()), &mut out);
            out.captures.push(
                world
                    .sim
                    .take_capture(scanner_node)
                    .expect("scanner tapped"),
            );
            let mut targets = world.targets.clone();
            targets.extend(sensor_targets(spec, addrs));
            for (i, campaign) in Campaign::all().into_iter().enumerate() {
                let node = world.fixtures.campaign_scanners[i];
                world.sim.tap(node);
                let delay = if i == 0 {
                    SimDuration::ZERO
                } else {
                    CAMPAIGN_EPOCH
                };
                let config = CampaignConfig::new(campaign, targets.clone());
                let report = rec.span("scanner.campaign", || {
                    scanner::run_campaign_delayed(&mut world.sim, node, config, delay)
                });
                out.campaigns.push((campaign, report));
                out.captures
                    .push(world.sim.take_capture(node).expect("campaign tapped"));
                add(
                    &mut out.counters,
                    "scanner.campaign_probes",
                    targets.len() as f64,
                );
            }
            let sensors = collect_sensor_totals(&world.sim, &world.fixtures);
            add(
                &mut out.counters,
                "scanner.sensor_rate_limited",
                sensors.rate_limited() as f64,
            );
            out.sensors = Some(sensors);
            out.addrs = Some(addrs);
        }
    }
    let capture: usize = out.captures.iter().map(Vec::len).sum();
    add(&mut out.counters, "scanner.capture_bytes", capture as f64);
    add(
        &mut out.counters,
        "inetgen.targets",
        world.targets.len() as f64,
    );
    add(
        &mut out.counters,
        "inetgen.planted_hosts",
        world.truth.hosts.len() as f64,
    );
    sim_counters(&base, world.sim.stats(), &mut out.counters);
    rec.span(INSTRUMENTATION, || {
        host_counters(&world.sim, &mut out.counters)
    });
    out.spans = std::mem::take(&mut rec.spans);
    out
}

/// Score one shard's lossy census against its planted transparent
/// forwarders, exactly as the resilience sweep scores its cells.
fn resilience_cell(
    world: &Internet,
    census: &Census,
    answered: u64,
    probes_sent: u64,
    counters: &Counters,
) -> ResilienceCell {
    let planted: BTreeSet<Ipv4Addr> = world
        .truth
        .hosts
        .iter()
        .filter(|h| h.class == PlantedClass::TransparentForwarder)
        .map(|h| h.ip)
        .collect();
    let mut cell = ResilienceCell {
        planted_transparent: planted.len() as u64,
        probes_sent,
        retransmits_sent: counters.get("scanner.retransmits").copied().unwrap_or(0.0) as u64,
        answered,
        ..ResilienceCell::default()
    };
    for row in census.of_class(OdnsClass::TransparentForwarder) {
        if planted.contains(&row.target) {
            cell.detected_true += 1;
        } else {
            cell.false_positives += 1;
        }
    }
    cell
}

fn sim_counters(base: &SimStats, now: &SimStats, c: &mut Counters) {
    let d = |get: fn(&SimStats) -> u64| (get(now) - get(base)) as f64;
    add(c, "netsim.events", d(|s| s.events_processed));
    add(c, "netsim.udp_sent", d(|s| s.udp_sent));
    add(c, "netsim.udp_delivered", d(|s| s.udp_delivered));
    add(c, "netsim.icmp_delivered", d(|s| s.icmp_delivered));
    add(c, "netsim.timers_fired", d(|s| s.timers_fired));
    add(c, "netsim.timers_coalesced", d(|s| s.timers_coalesced));
    add(c, "netsim.wheel_scheduled", d(|s| s.events_wheel_scheduled));
    add(c, "netsim.heap_scheduled", d(|s| s.events_heap_scheduled));
    add(c, "netsim.route_cache_hits", d(|s| s.route_cache_hits));
    add(c, "netsim.route_cache_misses", d(|s| s.route_cache_misses));
    add(
        c,
        "netsim.dropped_no_such_host",
        d(|s| s.dropped_no_such_host),
    );
    add(c, "netsim.dropped_ttl", d(|s| s.dropped_ttl));
    add(c, "netsim.dropped_fault", d(|s| s.dropped_fault));
    add(c, "netsim.dropped_corrupt", d(|s| s.dropped_corrupt));
    add(
        c,
        "netsim.duplicates_injected",
        d(|s| s.duplicates_injected),
    );
    add(c, "netsim.bytes_delivered", d(|s| s.udp_bytes_delivered));
}

/// The ODNS hosts' own counters, summed over every node of the world.
fn host_counters(sim: &Simulator, c: &mut Counters) {
    for node in sim.topology().nodes() {
        if let Some(r) = sim.host_as::<odns::RecursiveResolver>(node) {
            add(c, "odns.resolver_queries", r.stats.client_queries as f64);
            add(
                c,
                "odns.resolver_cache_answers",
                r.stats.cache_answers as f64,
            );
            add(c, "odns.resolver_coalesced", r.stats.coalesced as f64);
            add(
                c,
                "odns.resolver_upstream_queries",
                r.stats.upstream_queries as f64,
            );
        } else if let Some(f) = sim.host_as::<odns::RecursiveForwarder>(node) {
            add(c, "odns.forwarder_relayed", f.stats.relayed as f64);
        } else if let Some(t) = sim.host_as::<odns::TransparentForwarder>(node) {
            add(c, "odns.transparent_relayed", t.stats.relayed as f64);
            add(
                c,
                "odns.transparent_ttl_exceeded",
                t.stats.ttl_exceeded as f64,
            );
        } else if let Some(a) = sim.host_as::<odns::StudyAuthServer>(node) {
            add(c, "odns.auth_queries", a.stats.queries_received as f64);
            add(c, "odns.auth_rate_limited", a.stats.rate_limited as f64);
        }
    }
}

type Merged = (SweepResult, Counters, Vec<Span>, Vec<Payload>);

/// The deterministic merge of the shard outputs, in shard order — the
/// same concatenations and folds the public runners perform.
fn merge(workload: Workload, outs: Vec<ShardOut>, rec: &mut Recorder<'_>) -> Merged {
    let mut counters = Counters::new();
    let mut spans = Vec::new();
    let mut payloads = Vec::new();
    let mut result = SweepResult::default();
    let mut reports: Vec<(Campaign, CampaignReport)> = Campaign::all()
        .into_iter()
        .map(|c| (c, CampaignReport::default()))
        .collect();
    let mut addrs = None;
    let merge_start = rec.clock.secs();
    for out in outs {
        for (name, v) in out.counters {
            add(&mut counters, name, v);
        }
        spans.extend(out.spans);
        if payloads.is_empty() {
            payloads = out.payloads;
        }
        let census = &mut result.census;
        census.rows.extend(out.census.rows);
        census.unmatched_responses += out.census.unmatched_responses;
        census.late_responses += out.census.late_responses;
        census.late_answers_discarded += out.census.late_answers_discarded;
        if let Some(cell) = out.lossy_cell {
            result
                .lossy_cell
                .get_or_insert_with(ResilienceCell::default)
                .absorb(&cell);
        }
        result.traces.extend(out.traces);
        for (campaign, report) in out.campaigns {
            let slot = reports
                .iter_mut()
                .find(|(c, _)| *c == campaign)
                .expect("Campaign::all covers every campaign");
            slot.1.absorb(&report);
        }
        if let Some(s) = out.sensors {
            result
                .sensors
                .get_or_insert_with(SensorTotals::default)
                .absorb(&s);
        }
        addrs = addrs.or(out.addrs);
        if !out.captures.is_empty() {
            result.captures.push(out.captures);
        }
    }
    // The concatenations and folds above mirror the public runners'
    // merge, which is not public itself.
    rec.spans.push(Span {
        name: "analysis.merge",
        sweep: rec.sweep,
        shard: MAIN_THREAD,
        start_s: merge_start,
        end_s: rec.clock.secs(),
    });
    match workload {
        Workload::DnsRoute => {
            let (_, stats) = rec.span("dnsroute.sanitize", || dnsroute::sanitize(&result.traces));
            result.sanitize = Some(stats);
        }
        Workload::Campaign => {
            let addrs = addrs.expect("campaign shards report sensor addresses");
            result.matrix = Some(analysis::DetectionMatrix::from_reports(&reports, addrs));
            result.reports = reports;
        }
        Workload::Census | Workload::CensusLossy => {}
    }
    (result, counters, spans, payloads)
}
