//! Runs one benchmark workload of the SocialTube simulator, serially on one
//! thread, and prints its metrics as one JSON line.
//!
//! ```text
//! perfbench <paper-mix|socialtube-scale|churn-telemetry> --seed N --seconds S
//!           --trace 0|1 [--tiny]
//! ```
//!
//! The run generates the workload's fixed traces, then repeats whole rounds
//! of the same simulation runs until the next round would overrun
//! `--seconds`, generating the traces again after each simulation run
//! (`setup_s` is the median of all these set-ups). Every run is checked
//! against its configuration and the method's invariants; a failed check
//! exits 1.
//! With `--trace 1` each run is repeated through a tracing recorder that
//! attributes wall time to event kinds, and the per-layer metrics replace
//! the end-to-end ones. `--tiny` shrinks every workload for a fast
//! self-check of the same code path. See `README.md` beside this crate.

mod tracing;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use socialtube_experiments::harness::StackBuilder;
use socialtube_experiments::{
    configs, ExperimentOptions, MetricsSummary, Protocol, RecorderConfig, RunSpec, SimOutcome,
};
use socialtube_obs::Counter;
use socialtube_sim::SimRng;
use socialtube_trace::{generate_shared, SharedTrace};

use crate::tracing::{queue_replay, EvTotals, TracingRecorder, EV_KINDS, PEER_MSG, SERVER_MSG};

/// Root seed of the workloads' traces: `ExperimentOptions`' default seed.
const TRACE_SEED: u64 = 42;

/// How many times a run sets its traces up again after each simulation
/// run, so that `setup_s` samples the machine over the whole run.
const SETUP_REPS_PER_RUN: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// All five variants over each of three demo-scale traces.
    PaperMix,
    /// One SocialTube w/ PF run at tens of thousands of peers.
    SocialTubeScale,
    /// Three variants at PlanetLab scale under abrupt-failure churn, with
    /// the metrics recorder attached.
    ChurnTelemetry,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperMix,
        Workload::SocialTubeScale,
        Workload::ChurnTelemetry,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper-mix",
            Workload::SocialTubeScale => "socialtube-scale",
            Workload::ChurnTelemetry => "churn-telemetry",
        }
    }

    fn options(self, tiny: bool) -> ExperimentOptions {
        match self {
            Workload::PaperMix => {
                // The `campaign --scale demo` setting.
                let mut o = configs::smoke_test_long();
                if !tiny {
                    o.trace.users = 300;
                    o.network.server_bandwidth_bps = 30_000_000;
                }
                o
            }
            Workload::SocialTubeScale => configs::scale_test(if tiny { 2_000 } else { 20_000 }),
            Workload::ChurnTelemetry => {
                let mut o = configs::planetlab_scale();
                o.workload.abrupt_departure_prob = 0.5;
                if tiny {
                    o.workload.sessions_per_node = 4;
                }
                o
            }
        }
    }

    fn protocols(self) -> &'static [Protocol] {
        match self {
            Workload::PaperMix => &Protocol::ALL,
            Workload::SocialTubeScale => &[Protocol::SocialTube],
            Workload::ChurnTelemetry => &[
                Protocol::SocialTube,
                Protocol::SocialTubeNoPrefetch,
                Protocol::PaVod,
            ],
        }
    }

    /// How many traces one round runs over.
    fn traces(self, tiny: bool) -> u64 {
        match self {
            Workload::PaperMix if !tiny => 3,
            _ => 1,
        }
    }

    fn recorder(self) -> RecorderConfig {
        match self {
            Workload::ChurnTelemetry => RecorderConfig::metrics_only(),
            _ => RecorderConfig::default(),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().ok_or("missing workload name")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut args = Args {
        workload,
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad(&"expected a finite, non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One simulation run of a round: a protocol over one trace, with the
/// run seed that drives sessions, video choices, latencies and protocol
/// randomness.
struct Cell {
    seed: u64,
    protocol: Protocol,
    trace: usize,
}

/// What must repeat exactly whenever a cell runs again.
#[derive(Clone, Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    sim_end_us: u64,
    metrics: MetricsSummary,
}

impl Fingerprint {
    fn of(outcome: &SimOutcome) -> Self {
        Self {
            events: outcome.events,
            sim_end_us: outcome.sim_end.as_micros(),
            metrics: outcome.metrics.clone(),
        }
    }
}

/// Everything a workload run measured, across rounds.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Rounds completed.
    rounds: u32,
    /// Wall seconds of each cell's untraced runs, one per round.
    cell_run_s: Vec<Vec<f64>>,
    /// Traced-mode totals.
    traced_run_ns: u64,
    untraced_run_ns: u64,
    ev: EvTotals,
    obs_ns: u64,
    playbacks: u64,
    resolved_p2p: u64,
    resolved_all: u64,
    ttl_expired: u64,
    queue_peak: usize,
    proto_events: Vec<(Protocol, u64, u64)>,
}

impl Tally {
    fn proto(&mut self, protocol: Protocol, events: u64, ns: u64) {
        match self
            .proto_events
            .iter_mut()
            .find(|(p, _, _)| *p == protocol)
        {
            Some(entry) => {
                entry.1 += events;
                entry.2 += ns;
            }
            None => self.proto_events.push((protocol, events, ns)),
        }
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Generates every trace of one round; returns them with the wall time.
fn set_up(options: &ExperimentOptions, trace_seeds: &[u64]) -> (Vec<SharedTrace>, f64) {
    let started = Instant::now();
    let traces = trace_seeds
        .iter()
        .map(|&seed| generate_shared(&options.trace, seed))
        .collect();
    (traces, started.elapsed().as_secs_f64())
}

/// Checks one outcome against its configuration and the method's
/// invariants. Returns the playback shortfall (failed playback requests).
fn check_cell(
    options: &ExperimentOptions,
    protocol: Protocol,
    o: &SimOutcome,
) -> Result<u64, String> {
    let m = &o.metrics;
    let expected = expected_playbacks(options);
    if o.truncated {
        return Err("run hit the event budget".into());
    }
    if m.playbacks > expected {
        return Err(format!(
            "{} playbacks, more than the {expected} requested",
            m.playbacks
        ));
    }
    let starts = m.cache_hits + m.prefetch_hits + m.peer_starts + m.server_starts;
    if starts != m.playbacks {
        return Err(format!(
            "cache {} + prefetch {} + peer {} + server {} starts != {} playbacks",
            m.cache_hits, m.prefetch_hits, m.peer_starts, m.server_starts, m.playbacks
        ));
    }
    if m.total_server_bits > o.server_bits_served {
        return Err(format!(
            "peers received {} server bits, the server served {}",
            m.total_server_bits, o.server_bits_served
        ));
    }
    if protocol == Protocol::PaVod && m.cache_hits != 0 {
        return Err(format!("PA-VoD reported {} cache hits", m.cache_hits));
    }
    let prefetching = matches!(protocol, Protocol::SocialTube | Protocol::NetTube);
    if !prefetching && m.prefetch_hits != 0 {
        return Err(format!(
            "a variant without prefetch reported {} prefetch hits",
            m.prefetch_hits
        ));
    }
    if matches!(
        protocol,
        Protocol::SocialTube | Protocol::SocialTubeNoPrefetch
    ) {
        let bound = (options.socialtube.inner_links + options.socialtube.inter_links) as f64;
        let last = m.maintenance_curve.last().map_or(0.0, |p| p.1);
        if last > bound + 1e-9 {
            return Err(format!(
                "final maintenance links {last} exceed N_l + N_h = {bound}"
            ));
        }
    }
    Ok(expected - m.playbacks)
}

fn expected_playbacks(options: &ExperimentOptions) -> u64 {
    let w = &options.workload;
    options.trace.users as u64 * u64::from(w.sessions_per_node) * u64::from(w.videos_per_session)
}

/// One of the orderings `tests/paper_reproduction.rs` asserts, evaluated
/// on one trace's five runs.
struct Ordering {
    name: &'static str,
    held: bool,
    /// Whether a broken ordering fails the run. The others are printed
    /// only: at this workload's scale they break on some traces (see
    /// `README.md`, "Correctness checks").
    gated: bool,
}

/// The Fig 16, 17, 18 and tracker-state orderings of one trace's runs.
fn orderings(runs: &[(Protocol, &SimOutcome)]) -> Vec<Ordering> {
    let get = |p: Protocol| {
        runs.iter()
            .find(|(q, _)| *q == p)
            .map(|(_, o)| *o)
            .expect("all five variants ran")
    };
    let (pa, st, st_nopf, nt) = (
        get(Protocol::PaVod),
        get(Protocol::SocialTube),
        get(Protocol::SocialTubeNoPrefetch),
        get(Protocol::NetTube),
    );
    let p50 = |o: &SimOutcome| o.metrics.peer_bandwidth_percentiles.p50;
    let delay = |o: &SimOutcome| o.metrics.mean_startup_delay_ms;
    let links = |o: &SimOutcome| o.metrics.maintenance_curve.last().map_or(0.0, |p| p.1);
    let ordering = |name, held, gated| Ordering { name, held, gated };
    vec![
        ordering("fig16.st_ge_nt", p50(st) >= p50(nt), true),
        ordering("fig16.nt_ge_pavod", p50(nt) >= p50(pa), false),
        ordering("fig17.st_lt_nt", delay(st) < delay(nt), true),
        ordering("fig17.nt_lt_pavod", delay(nt) < delay(pa), false),
        ordering("fig17.pf_helps_st", delay(st) <= delay(st_nopf), false),
        ordering("fig18.nt_gt_st", links(nt) > links(st), true),
        ordering(
            "tracker.st_lt_nt",
            st.server_tracked_peak < nt.server_tracked_peak,
            false,
        ),
    ]
}

struct Bench {
    workload: Workload,
    options: ExperimentOptions,
    trace_seeds: Vec<u64>,
    traces: Vec<SharedTrace>,
    cells: Vec<Cell>,
    traced: bool,
    fingerprints: Vec<Option<Fingerprint>>,
    /// Wall seconds of every set-up so far: the first, whose traces the
    /// runs use, then `setup_reps` more after each simulation run.
    setup_samples: Vec<f64>,
    setup_reps: usize,
}

impl Bench {
    fn spec(&self, cell: &Cell) -> RunSpec {
        RunSpec::new(cell.protocol)
            .options(self.options.clone())
            .seed(cell.seed)
            .trace(self.traces[cell.trace].clone())
            .with_recorder(self.workload.recorder())
    }

    /// Checks a finished run and folds its accounting into `tally`. The
    /// first run of each cell prints the cell's fingerprint line; every
    /// later run of it must repeat that fingerprint exactly.
    fn account(&mut self, index: usize, outcome: &SimOutcome, tally: &mut Tally) {
        let cell = &self.cells[index];
        let label = format!(
            "trace_seed={} seed={} protocol={}",
            self.trace_seeds[cell.trace],
            cell.seed,
            cell.protocol.key()
        );
        tally.attempted += expected_playbacks(&self.options);
        match check_cell(&self.options, cell.protocol, outcome) {
            Ok(shortfall) => tally.failed += shortfall,
            Err(e) => tally.errors.push(format!("{label}: {e}")),
        }
        let print = Fingerprint::of(outcome);
        match &self.fingerprints[index] {
            None => {
                let m = &outcome.metrics;
                println!(
                    "cell workload={} {label} events={} sim_end_us={} playbacks={} \
                     mean_startup_ms={} mean_peer_bw={}",
                    self.workload.name(),
                    outcome.events,
                    print.sim_end_us,
                    m.playbacks,
                    m.mean_startup_delay_ms,
                    m.mean_peer_bandwidth
                );
                self.fingerprints[index] = Some(print);
            }
            Some(first) if *first != print => {
                tally
                    .errors
                    .push(format!("{label}: a repeated run differs from the first"));
            }
            Some(_) => {}
        }
    }

    /// One round: every cell once (and, traced, once more through the
    /// tracing recorder). Returns the untraced wall seconds.
    fn round(&mut self, tally: &mut Tally) -> f64 {
        let mut run_s = 0.0;
        let mut outcomes: Vec<SimOutcome> = Vec::with_capacity(self.cells.len());
        for index in 0..self.cells.len() {
            let spec = self.spec(&self.cells[index]);
            let started = Instant::now();
            let outcome = spec.run();
            let ns = started.elapsed().as_nanos() as u64;
            run_s += ns as f64 / 1e9;
            if tally.cell_run_s.len() <= index {
                tally.cell_run_s.push(Vec::new());
            }
            tally.cell_run_s[index].push(ns as f64 / 1e9);
            self.account(index, &outcome, tally);
            if self.traced {
                self.traced_run(index, &spec, &outcome, ns, tally);
            }
            outcomes.push(outcome);
            for _ in 0..self.setup_reps {
                let (traces, secs) = set_up(&self.options, &self.trace_seeds);
                drop(traces);
                self.setup_samples.push(secs);
            }
        }
        if self.workload == Workload::PaperMix {
            for (i, &seed) in self.trace_seeds.iter().enumerate() {
                let runs: Vec<(Protocol, &SimOutcome)> = self
                    .cells
                    .iter()
                    .zip(&outcomes)
                    .filter(|(c, _)| c.trace == i)
                    .map(|(c, o)| (c.protocol, o))
                    .collect();
                let checked = orderings(&runs);
                if tally.rounds == 0 {
                    let mut line = format!("orderings trace_seed={seed}");
                    for o in &checked {
                        let state = if o.held { "held" } else { "broken" };
                        let _ = write!(line, " {}={state}", o.name);
                    }
                    println!("{line}");
                }
                for o in checked.iter().filter(|o| o.gated && !o.held) {
                    tally
                        .errors
                        .push(format!("trace_seed={seed}: ordering {} broken", o.name));
                }
            }
        }
        run_s
    }

    fn traced_run(
        &mut self,
        index: usize,
        spec: &RunSpec,
        untraced: &SimOutcome,
        untraced_ns: u64,
        tally: &mut Tally,
    ) {
        let protocol = self.cells[index].protocol;
        let mut rec = TracingRecorder::new();
        let started = Instant::now();
        let outcome = spec.run_recorded(&mut rec);
        let traced_ns = started.elapsed().as_nanos() as u64;
        tally.attempted += expected_playbacks(&self.options);
        match check_cell(&self.options, protocol, &outcome) {
            Ok(shortfall) => tally.failed += shortfall,
            Err(e) => tally
                .errors
                .push(format!("traced protocol={}: {e}", protocol.key())),
        }
        if outcome.metrics != untraced.metrics || outcome.events != untraced.events {
            tally.errors.push(format!(
                "traced protocol={}: recording perturbed the run ({} events against {})",
                protocol.key(),
                outcome.events,
                untraced.events
            ));
        }
        tally.traced_run_ns += traced_ns;
        tally.untraced_run_ns += untraced_ns;
        tally.ev.absorb(&rec.ev);
        tally.obs_ns += rec.obs_ns;
        tally.playbacks += outcome.metrics.playbacks;
        let channel = rec.counter(Counter::ResolvedChannel);
        let category = rec.counter(Counter::ResolvedCategory);
        tally.resolved_p2p += channel + category;
        tally.resolved_all += channel + category + rec.counter(Counter::ResolvedServer);
        tally.ttl_expired += rec.counter(Counter::TtlExpired);
        tally.queue_peak = tally.queue_peak.max(outcome.queue_peak());
        tally.proto(protocol, untraced.events, untraced_ns);
    }

    /// Median wall seconds of building every cell's protocol stack,
    /// standalone, over `reps` repetitions.
    fn build_s(&self, reps: usize) -> f64 {
        let root = SimRng::seed(self.cells[0].seed);
        let mut samples: Vec<f64> = (0..reps)
            .map(|_| {
                let mut total = Duration::ZERO;
                for cell in &self.cells {
                    let trace = &self.traces[cell.trace];
                    let builder = StackBuilder::from_options(
                        cell.protocol,
                        trace.catalog().clone(),
                        &self.options,
                    );
                    let started = Instant::now();
                    let stack = builder.build(trace, &root);
                    total += started.elapsed();
                    drop(stack);
                }
                total.as_secs_f64()
            })
            .collect();
        median(&mut samples)
    }
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn run(args: &Args) -> Result<(Vec<Metric>, Tally), String> {
    let workload = args.workload;
    let options = workload.options(args.tiny);
    // The traces are the workload's fixed dataset, as the paper evaluates
    // every variant on one crawled trace: the traces `campaign --seed 42`
    // generates. The workload seed drives every run on them.
    let trace_seeds: Vec<u64> = (0..workload.traces(args.tiny))
        .map(|i| SimRng::run_seed(TRACE_SEED, i))
        .collect();

    let (traces, first_setup_s) = set_up(&options, &trace_seeds);

    let cells = (0..trace_seeds.len())
        .flat_map(|trace| {
            let seed = SimRng::run_seed(args.seed, trace as u64);
            workload.protocols().iter().map(move |&protocol| Cell {
                seed,
                protocol,
                trace,
            })
        })
        .collect::<Vec<_>>();
    let mut bench = Bench {
        workload,
        fingerprints: cells.iter().map(|_| None).collect(),
        options,
        trace_seeds,
        traces,
        setup_samples: vec![first_setup_s],
        setup_reps: if args.tiny { 1 } else { SETUP_REPS_PER_RUN },
        cells,
        traced: args.trace,
    };

    // Whole rounds until the next one would overrun the budget.
    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    loop {
        let run_s = bench.round(&mut tally);
        tally.rounds += 1;
        println!("round {} run_s={run_s}", tally.rounds);
        let elapsed = started.elapsed();
        if elapsed + elapsed / tally.rounds > budget {
            break;
        }
    }

    let setup_s = median(&mut bench.setup_samples);
    let metrics = if args.trace {
        traced_metrics(&bench, &tally, setup_s, args)
    } else {
        // Each cell's median over the rounds, summed: one slow round on a
        // shared machine moves no more than its median.
        let run_s = tally.cell_run_s.iter_mut().map(|s| median(s)).sum();
        vec![
            metric("run_s", run_s, "s"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ]
    };
    Ok((metrics, tally))
}

/// The per-layer metrics of a traced run, in BENCHMARK.json's order.
fn traced_metrics(bench: &Bench, tally: &Tally, setup_s: f64, args: &Args) -> Vec<Metric> {
    let rounds = f64::from(tally.rounds);
    let ev = &tally.ev;
    let loop_ns = ev.total_ns() as f64;
    let mut m = vec![
        metric("trace.generate_s", setup_s, "s"),
        metric(
            "harness.build_s",
            bench.build_s(if args.tiny { 1 } else { 5 }),
            "s",
        ),
    ];
    for (k, (kind, _)) in EV_KINDS.iter().enumerate() {
        m.push(metric(
            format!("ev.{kind}.count"),
            ev.count[k] as f64 / rounds,
            "count",
        ));
        m.push(metric(
            format!("ev.{kind}.ns_per_event"),
            ratio(ev.ns[k] as f64, ev.count[k] as f64),
            "ns",
        ));
    }
    m.push(metric(
        "ev.server_msg.loop_share",
        ratio(ev.ns[SERVER_MSG] as f64, loop_ns),
        "ratio",
    ));
    for protocol in Protocol::ALL {
        let (events, ns) = tally
            .proto_events
            .iter()
            .find(|(p, _, _)| *p == protocol)
            .map_or((0, 0), |(_, e, n)| (*e, *n));
        m.push(metric(
            format!("proto.{}.events", protocol.key()),
            events as f64 / rounds,
            "count",
        ));
        m.push(metric(
            format!("proto.{}.ns_per_event", protocol.key()),
            ratio(ns as f64, events as f64),
            "ns",
        ));
    }
    let holds = if args.tiny { 100_000 } else { 2_000_000 };
    m.extend([
        metric("sim.queue_peak", tally.queue_peak as f64, "count"),
        metric(
            "sim.queue_ns_per_op",
            queue_replay(tally.queue_peak, holds, args.seed),
            "ns",
        ),
        metric(
            "obs.recorder_ns_per_event",
            ratio(tally.obs_ns as f64, ev.events() as f64),
            "ns",
        ),
        metric(
            "search.p2p_resolved_per_search",
            ratio(tally.resolved_p2p as f64, tally.resolved_all as f64),
            "ratio",
        ),
        metric(
            "search.ttl_expired_per_search",
            ratio(tally.ttl_expired as f64, tally.resolved_all as f64),
            "ratio",
        ),
        metric(
            "msgs.peer_per_playback",
            ratio(ev.count[PEER_MSG] as f64, tally.playbacks as f64),
            "ratio",
        ),
        metric(
            "tracing.overhead",
            ratio(tally.traced_run_ns as f64, tally.untraced_run_ns as f64),
            "ratio",
        ),
        metric(
            "tracing.attributed_share",
            ratio(loop_ns, tally.traced_run_ns as f64),
            "ratio",
        ),
    ]);
    m
}

fn render(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (metrics, tally) = match run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "playbacks workload={} attempted={} failed={}",
        args.workload.name(),
        tally.attempted,
        tally.failed
    );
    for e in &tally.errors {
        eprintln!("check failed: {e}");
    }
    let correct = tally.errors.is_empty();
    println!("{}", render(correct, &tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
