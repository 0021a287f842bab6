//! End-to-end benchmark of the `jahob` verifier.
//!
//! ```sh
//! python3 perfbench/run.py --workload warm_daemon --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `run.py` builds the release `jahob` binary and this runner from the
//! checkout, then runs it with `--jahob <binary>`. The runner
//! runs one workload as a closed loop with one client, checks every
//! verdict against the hand-written answer key, and prints its metrics;
//! the last line of standard output is one JSON object. See NOTES.md for
//! the workloads, the metrics and the layer each metric watches.

mod answers;
mod json;
mod plan;
mod stats;
mod sut;
mod trace;

use answers::{Check, Key, Tally};
use plan::{Edit, Plan, Request};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use sut::{Daemon, OneShot, Reply};

/// The case studies, each one request kind of the unchanged workloads.
pub const STUDIES: [&str; 7] = [
    "assoclist",
    "client",
    "game",
    "globalset",
    "globalset_bug",
    "list",
    "list_bug",
];

/// Where the runner keeps sockets, stores and obs files, relative to
/// the checkout root; removed at the end of every run.
const TMP_ROOT: &str = ".bench_tmp";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ColdVerify,
    WarmDaemon,
    EditDaemon,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_verify" => Some(Workload::ColdVerify),
            "warm_daemon" => Some(Workload::WarmDaemon),
            "edit_daemon" => Some(Workload::EditDaemon),
            _ => None,
        }
    }

    /// Whole rounds a timed run measures at least, whatever `--seconds`
    /// says. The tail keeps ten samples beyond it, so it only sits
    /// inside the slowest request kind's cluster, away from its edge,
    /// when a run has well over ten rounds (see NOTES.md).
    fn min_rounds(self) -> usize {
        match self {
            Workload::ColdVerify | Workload::EditDaemon => 14,
            Workload::WarmDaemon => 20,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    jahob: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut jahob = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            "--jahob" => jahob = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        jahob: jahob.ok_or("--jahob is required")?,
    })
}

/// Everything read from the checkout before any timing starts.
struct Inputs {
    sources: BTreeMap<String, String>,
    keys: BTreeMap<String, Key>,
    edits: Vec<Edit>,
}

fn load_inputs() -> Result<Inputs, String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let mut sources = BTreeMap::new();
    let mut keys = BTreeMap::new();
    for study in STUDIES {
        sources.insert(study.to_owned(), read(&study_path(study))?);
        let key = Key::parse(&read(&format!("perfbench/answers/{study}.txt"))?)
            .map_err(|e| format!("answers/{study}.txt: {e}"))?;
        keys.insert(study.to_owned(), key);
    }
    let edits = plan::parse_edits(&read("perfbench/edits.txt")?)?;
    for edit in &edits {
        let key = keys
            .get(&edit.study)
            .ok_or_else(|| format!("edit of unknown study `{}`", edit.study))?;
        if !key.has_method(&format!("{}.{}", edit.class, edit.method)) {
            return Err(format!(
                "edit of unverified method {}.{}",
                edit.class, edit.method
            ));
        }
    }
    Ok(Inputs {
        sources,
        keys,
        edits,
    })
}

fn study_path(study: &str) -> String {
    format!("case_studies/{study}.javax")
}

/// A soundness failure stops the run at once; everything else a request
/// can get wrong is counted and the run goes on.
enum Failure {
    Unsound(String),
    Broken(String),
}

impl From<String> for Failure {
    fn from(why: String) -> Failure {
        Failure::Broken(why)
    }
}

/// The system under test.
enum Target {
    Cold(OneShot),
    Daemon(Daemon),
}

impl Target {
    fn send(&mut self, request: &Request, traced: bool) -> Reply {
        match self {
            Target::Cold(one_shot) => {
                one_shot.verify(Path::new(&study_path(&request.study)), traced)
            }
            Target::Daemon(daemon) => daemon.submit(&request.src, traced),
        }
    }
}

/// What a measured phase saw.
#[derive(Default)]
struct Phase {
    /// `(study, ms)` per request.
    samples: Vec<(String, f64)>,
    /// `(study, CPU ms)` per request: the system under test's own CPU
    /// time (see [`Reply::cpu_ms`]).
    cpu_samples: Vec<(String, f64)>,
    /// `(request kind, ms)` per request: the study, or for an edit the
    /// study and the renamed method.
    kinds: Vec<(String, f64)>,
    tally: Tally,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    rounds: usize,
    /// Blocks of rounds measured and kept, and measured but thrown away
    /// because the host stole too much CPU time during them.
    blocks: usize,
    blocks_discarded: usize,
    /// Share of CPU time the host stole during the kept blocks: noise
    /// from outside, reported beside the figures it disturbs.
    steal_share: f64,
    /// The traced phase keeps its requests and replies for the replay.
    traced: Vec<(Request, Reply)>,
}

/// A request's kind: its study, or for an edit the study and the
/// renamed method.
fn kind_of(request: &Request) -> String {
    match &request.method {
        Some(method) => format!("{} with {method} renamed", request.study),
        None => request.study.clone(),
    }
}

/// Check one reply against the key: count it, or stop on a soundness
/// failure.
fn check_reply(
    phase: &mut Phase,
    keys: &BTreeMap<String, Key>,
    request: &Request,
    reply: &Reply,
) -> Result<(), Failure> {
    phase.attempted += 1;
    let what = kind_of(request);
    let verdicts = reply
        .report
        .clone()
        .and_then(|text| json::parse(&text))
        .map(|doc| answers::check(&keys[&request.study], &doc));
    match verdicts {
        Ok(Check::Pass(tally)) => {
            phase.tally.add(tally);
            phase.samples.push((request.study.clone(), reply.ms));
            phase
                .cpu_samples
                .push((request.study.clone(), reply.cpu_ms));
            phase.kinds.push((what, reply.ms));
            Ok(())
        }
        Ok(Check::Unsound(why)) => Err(Failure::Unsound(format!("{what}: {why}"))),
        Ok(Check::Wrong(why)) | Err(why) => {
            phase.failed += 1;
            eprintln!("perfbench: request failed: {what}: {why}");
            Ok(())
        }
    }
}

/// CPU time the host took from this machine, in clock ticks, summed over
/// its CPUs (the `steal` column of `/proc/stat`); `None` where unknown.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Steal share above which a block of rounds is thrown away and
/// measured again. On this kind of host, a few percent stolen already
/// slows the small daemon requests by a fifth (see NOTES.md).
const STEAL_LIMIT: f64 = 0.03;

/// A block of rounds lasts at least this long, so that its steal, counted
/// in 1/100 s ticks, is measured to a fraction of a percent.
const BLOCK_S: f64 = 1.0;

/// Longest a phase may run, thrown-away blocks included. A host that
/// keeps stealing past it gets no result: the run stops with a reason
/// instead of reporting figures the host bent.
const PHASE_LIMIT_S: f64 = 80.0;

/// Add one block's figures to the phase's.
fn absorb(phase: &mut Phase, block: Phase) {
    phase.samples.extend(block.samples);
    phase.cpu_samples.extend(block.cpu_samples);
    phase.kinds.extend(block.kinds);
    phase.tally.add(block.tally);
    phase.traced.extend(block.traced);
    phase.rounds += block.rounds;
    phase.steal_share = (phase.steal_share * phase.wall_s + block.steal_share * block.wall_s)
        / (phase.wall_s + block.wall_s);
    phase.wall_s += block.wall_s;
    phase.blocks += 1;
}

/// Run blocks of whole rounds until `done(rounds, seconds)` holds for the
/// kept ones. Every request is checked and counted, but a block in which
/// the host stole more than [`STEAL_LIMIT`] of the CPU time adds nothing
/// else and is measured again.
fn measure(
    target: &mut Target,
    plan: &mut Plan,
    keys: &BTreeMap<String, Key>,
    done: impl Fn(usize, f64) -> bool,
    traced: bool,
) -> Result<Phase, Failure> {
    let mut phase = Phase::default();
    let started = Instant::now();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    while !done(phase.rounds, phase.wall_s) {
        if started.elapsed().as_secs_f64() > PHASE_LIMIT_S {
            return Err(Failure::Broken(format!(
                "the host stole more than {:.0}% of the CPU time in {} of {} blocks \
                 of rounds within {PHASE_LIMIT_S} s; no result is reported",
                STEAL_LIMIT * 100.0,
                phase.blocks_discarded,
                phase.blocks_discarded + phase.blocks
            )));
        }
        let mut block = Phase::default();
        let block_started = Instant::now();
        let steal_before = steal_ticks();
        while block.rounds == 0 || block_started.elapsed().as_secs_f64() < BLOCK_S {
            for request in plan.next_round()? {
                let reply = target.send(&request, traced);
                check_reply(&mut block, keys, &request, &reply)?;
                if traced {
                    block.traced.push((request, reply));
                }
            }
            block.rounds += 1;
        }
        block.wall_s = block_started.elapsed().as_secs_f64();
        if let (Some(before), Some(after)) = (steal_before, steal_ticks()) {
            // Ticks are 1/100 s on Linux.
            block.steal_share = (after - before) as f64 / 100.0 / (block.wall_s * cpus);
        }
        phase.attempted += block.attempted;
        phase.failed += block.failed;
        if block.steal_share > STEAL_LIMIT {
            phase.blocks_discarded += 1;
        } else {
            absorb(&mut phase, block);
        }
    }
    Ok(phase)
}

/// A workload's running system plus its setup time.
struct Setup {
    target: Target,
    setup_s: f64,
    /// Samples and tallies of setup requests are not measured, but they
    /// are checked.
    checked: Phase,
}

/// Warm-up passes of the one-shot workload, and setups of a daemon.
const SETUPS: usize = 3;

/// Set the workload up [`SETUPS`] times and keep the last; `setup_s` is
/// the median. One-shot setup is a warm-up pass: one `jahob verify` of
/// every study, which loads the binary and the inputs. Daemon setup runs
/// from spawning `jahob serve` to its socket answering, plus priming it
/// with one submission per study over a fresh persistent store.
fn set_up(workload: Workload, args: &Args, inputs: &Inputs, tmp: &Path) -> Result<Setup, Failure> {
    let mut checked = Phase::default();
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        // Only one daemon runs at a time: the previous setup's is drained
        // before the next one starts.
        if let Some(Target::Daemon(previous)) = kept.take() {
            previous.drain()?;
        }
        let started = Instant::now();
        let mut target = if workload == Workload::ColdVerify {
            Target::Cold(OneShot {
                jahob: args.jahob.clone(),
                tmp: tmp.to_owned(),
                peak_rss_mb: 0.0,
            })
        } else {
            Target::Daemon(spawn_daemon(&args.jahob, &tmp.join(format!("daemon{i}")))?)
        };
        for study in STUDIES {
            let request = Request {
                study: study.to_owned(),
                method: None,
                src: inputs.sources[study].clone(),
            };
            let reply = target.send(&request, false);
            check_reply(&mut checked, &inputs.keys, &request, &reply)?;
        }
        times.push(started.elapsed().as_secs_f64());
        kept = Some(target);
    }
    Ok(Setup {
        target: kept.expect("at least one setup"),
        setup_s: stats::median(&times),
        checked,
    })
}

/// Spawn a daemon with its socket and a fresh store in `dir`.
fn spawn_daemon(jahob: &Path, dir: &Path) -> Result<Daemon, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Daemon::spawn(jahob, &dir.join("sock"), &dir.join("store"))
}

/// Stop the system under test and return its peak resident set in MiB.
fn tear_down(target: Target) -> Result<f64, Failure> {
    match target {
        Target::Cold(one_shot) => Ok(one_shot.peak_rss_mb),
        Target::Daemon(daemon) => {
            let peak = daemon.peak_rss_mb()?;
            daemon.drain()?;
            Ok(peak)
        }
    }
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn end_to_end(phase: &Phase, setup_s: f64, peak_rss_mb: f64, notes: &mut Vec<String>) -> Metrics {
    let times: Vec<f64> = phase.samples.iter().map(|s| s.1).collect();
    let tail = stats::tail(&times);
    let medians = stats::group_medians(&phase.samples);
    let cpu_medians = stats::group_medians(&phase.cpu_samples);
    notes.push(format!(
        "{} requests measured in {} rounds over {:.1} s; the host stole {:.1}% of the CPU time; \
         {} of {} blocks of rounds thrown away for steal above {:.0}%",
        phase.samples.len(),
        phase.rounds,
        phase.wall_s,
        phase.steal_share * 100.0,
        phase.blocks_discarded,
        phase.blocks + phase.blocks_discarded,
        STEAL_LIMIT * 100.0
    ));
    notes.push(format!(
        "p50 falls in {}",
        stats::place_median(&phase.kinds)
    ));
    notes.push(format!(
        "tail is p{:.2} with {} samples beyond it, of {}; it falls in {}",
        tail.percentile,
        tail.beyond,
        tail.samples,
        stats::place_tail(&phase.kinds)
    ));
    for (kind, ms) in stats::group_medians(&phase.kinds) {
        notes.push(format!("median {ms:.3} ms: {kind}"));
    }
    let t = &phase.tally;
    vec![
        ("setup_s".into(), setup_s, "s"),
        ("request_ms_p50".into(), stats::median(&times), "ms"),
        ("request_ms_tail".into(), tail.value, "ms"),
        (
            "study_ms_geomean".into(),
            stats::geomean(&medians.values().copied().collect::<Vec<_>>()),
            "ms",
        ),
        (
            "study_cpu_ms_geomean".into(),
            stats::geomean(&cpu_medians.values().copied().collect::<Vec<_>>()),
            "ms",
        ),
        (
            "obligations_per_s".into(),
            t.obligations as f64 / phase.wall_s,
            "1/s",
        ),
        (
            "decided_share".into(),
            share(t.proved + t.refuted, t.obligations),
            "share",
        ),
        (
            "unbounded_share".into(),
            share(t.unbounded, t.proved),
            "share",
        ),
        (
            "ok_share".into(),
            1.0 - share(phase.failed, phase.attempted),
            "share",
        ),
        ("peak_rss_mb".into(), peak_rss_mb, "MiB"),
    ]
}

fn timed_run(
    args: &Args,
    inputs: &Inputs,
    tmp: &Path,
    notes: &mut Vec<String>,
) -> Result<(Metrics, u64, u64), Failure> {
    let Setup {
        mut target,
        setup_s,
        checked,
    } = set_up(args.workload, args, inputs, tmp)?;
    let edits = (args.workload == Workload::EditDaemon).then_some(inputs.edits.as_slice());
    let mut plan = Plan::new(args.seed, &inputs.sources, edits);
    let (min_rounds, seconds) = (args.workload.min_rounds(), args.seconds as f64);
    let phase = measure(
        &mut target,
        &mut plan,
        &inputs.keys,
        |rounds, elapsed| rounds >= min_rounds && elapsed >= seconds,
        false,
    )?;
    let peak = tear_down(target)?;
    let failed = phase.failed + checked.failed;
    let attempted = phase.attempted + checked.attempted;
    if phase.samples.is_empty() {
        return Err(Failure::Broken("no request succeeded".into()));
    }
    Ok((end_to_end(&phase, setup_s, peak, notes), attempted, failed))
}

/// The traced run: an untraced phase for half the time, then the same
/// number of rounds traced, then the traced requests replayed in this
/// process through the stage functions.
fn traced_run(
    args: &Args,
    inputs: &Inputs,
    tmp: &Path,
    notes: &mut Vec<String>,
) -> Result<(Metrics, u64, u64), Failure> {
    let Setup {
        mut target,
        checked,
        ..
    } = set_up(args.workload, args, inputs, tmp)?;
    let edits = (args.workload == Workload::EditDaemon).then_some(inputs.edits.as_slice());
    let mut plan = Plan::new(args.seed, &inputs.sources, edits);
    let half = args.seconds as f64 / 2.0;
    let until_half = |rounds, elapsed| rounds >= 1 && elapsed >= half;
    let plain = measure(&mut target, &mut plan, &inputs.keys, until_half, false)?;
    let same_rounds = |rounds, _| rounds >= plain.rounds;
    let traced = measure(&mut target, &mut plan, &inputs.keys, same_rounds, true)?;
    // The one-shot workload never talks to a daemon or a store: its
    // service and store rows read 0.
    let status_rtt_ms = match &mut target {
        Target::Daemon(daemon) => Some(status_rtt_ms(daemon)?),
        Target::Cold(_) => None,
    };
    tear_down(target)?;
    if plain.samples.is_empty() || traced.samples.is_empty() {
        return Err(Failure::Broken("no request succeeded".into()));
    }

    let (mut replay, store) = match args.workload {
        Workload::ColdVerify => (trace::Replay::one_shot(), None),
        _ => {
            let (replay, load_ms) =
                trace::Replay::daemon(&tmp.join("mirror"), &inputs.sources, &inputs.keys)?;
            (replay, Some(load_ms))
        }
    };
    let mut stages = trace::Stages::default();
    for (request, _) in &traced.traced {
        replay.run(&request.src, &inputs.keys[&request.study], &mut stages)?;
    }
    let daemon = match (status_rtt_ms, store) {
        (Some(status_rtt_ms), Some(store_load_ms)) => Some(DaemonSide {
            status_rtt_ms,
            store_load_ms,
        }),
        _ => None,
    };
    let metrics = per_layer(&plain, &traced, &stages, daemon.as_ref())?;
    notes.push(format!(
        "untraced and traced phases of {} rounds each; the host stole {:.1}% and {:.1}% of the CPU time",
        plain.rounds,
        plain.steal_share * 100.0,
        traced.steal_share * 100.0
    ));
    let attempted = checked.attempted + plain.attempted + traced.attempted;
    let failed = checked.failed + plain.failed + traced.failed;
    Ok((metrics, attempted, failed))
}

/// Median round trip of 200 STATUS probes.
fn status_rtt_ms(daemon: &mut Daemon) -> Result<f64, String> {
    let rtts = (0..200)
        .map(|_| daemon.status_rtt_ms())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(stats::median(&rtts))
}

/// What the traced run measures of a daemon beside its requests.
struct DaemonSide {
    /// Median STATUS round trip.
    status_rtt_ms: f64,
    /// Reopening the replay's primed mirror store.
    store_load_ms: f64,
}

/// The per-layer metrics, averaged over the traced requests. `daemon` is
/// `None` for the one-shot workload, whose service and store rows read 0.
fn per_layer(
    plain: &Phase,
    traced: &Phase,
    stages: &trace::Stages,
    daemon: Option<&DaemonSide>,
) -> Result<Metrics, Failure> {
    let mut events = trace::EventTally::default();
    // The program's own counters of each report: conjunct pieces, proofs
    // by the simplifier (whole obligations, and pieces that reach the
    // portfolio), and goal-cache misses (every miss runs the simplifier
    // on its piece once more).
    let mut counters = trace::ReportCounters::default();
    // The store counters of a daemon's timing report are cumulative over
    // its session, so a request's writes are the difference from the
    // previous request's; the first traced request is the baseline. A
    // one-shot `--json` report has no store counters.
    let mut store = (0.0, 0.0);
    let mut store_deltas = 0u64;
    let mut last = None;
    for (_, reply) in &traced.traced {
        for line in &reply.events {
            events.add_line(line)?;
        }
        if let Ok(text) = &reply.report {
            let doc = json::parse(text)?;
            counters.add(&doc);
            let get = |k: &str| doc.get("stats").map_or(0.0, |s| s.num_or_zero(k));
            let now = (get("store.flush.records"), get("store.flush.bytes"));
            if let Some((records, bytes)) = last {
                store.0 += now.0 - records;
                store.1 += now.1 - bytes;
                store_deltas += 1;
            }
            last = Some(now);
        }
    }

    let n = traced.traced.len() as f64;
    let per_request = |count: f64| count / n;
    let ms = |micros: f64| micros / 1e3 / n;
    let mut metrics: Metrics = Vec::new();
    let extra = events
        .lanes
        .keys()
        .filter(|l| !trace::LANES.contains(&l.as_str()));
    for lane in trace::LANES
        .iter()
        .map(|l| l.to_string())
        .chain(extra.cloned())
    {
        let l = if lane == "simplifier" {
            // The simplifier runs inline and emits no attempt events. It
            // runs once on every obligation and once more on every piece
            // that misses the cache; its decisive outcomes are the
            // program's `proved.simplifier` count, and its time the
            // replay's `simplify` calls.
            trace::Lane {
                micros: stages.simplify_us,
                attempts: stages.obligations + counters.cache_misses,
                fuel: 0,
                decisive: counters.proved_by_simplifier,
            }
        } else {
            events.lanes.get(&lane).copied().unwrap_or_default()
        };
        metrics.extend([
            (format!("{lane}.ms"), ms(l.micros), "ms"),
            (
                format!("{lane}.attempts"),
                per_request(l.attempts as f64),
                "count",
            ),
            (format!("{lane}.fuel"), per_request(l.fuel as f64), "count"),
            (
                format!("{lane}.yield"),
                share(l.decisive, l.attempts),
                "share",
            ),
        ]);
    }

    // The service's own cost, per request kind: the median untraced
    // request end to end, minus the median in-process pipeline doing the
    // same work; the metric is the median over kinds.
    let plain_kinds = stats::group_medians(&plain.kinds);
    let inproc: Vec<(String, f64)> = traced
        .traced
        .iter()
        .map(|(request, _)| kind_of(request))
        .zip(stages.inproc_ms.iter().copied())
        .collect();
    let overhead: Vec<f64> = stats::group_medians(&inproc)
        .into_iter()
        .filter_map(|(kind, inproc_ms)| plain_kinds.get(&kind).map(|ms| ms - inproc_ms))
        .collect();
    let p50 = |phase: &Phase| stats::median(&phase.samples.iter().map(|s| s.1).collect::<Vec<_>>());
    metrics.extend([
        ("javalite.parse_ms".into(), ms(stages.parse_us), "ms"),
        ("javalite.resolve_ms".into(), ms(stages.resolve_us), "ms"),
        ("vcgen.ms".into(), ms(stages.vcgen_us), "ms"),
        (
            "vcgen.obligations".into(),
            per_request(stages.obligations as f64),
            "count",
        ),
        (
            "vcgen.form_nodes".into(),
            per_request(stages.form_nodes as f64),
            "count",
        ),
        ("logic.split_ms".into(), ms(stages.split_us), "ms"),
        (
            "logic.pieces".into(),
            per_request(counters.pieces as f64),
            "count",
        ),
        (
            "goal_cache.normalize_ms".into(),
            ms(stages.normalize_us),
            "ms",
        ),
        (
            "goal_cache.fingerprint_ms".into(),
            ms(stages.fingerprint_us),
            "ms",
        ),
        (
            "goal_cache.lookups".into(),
            per_request(events.lookups as f64),
            "count",
        ),
        (
            "goal_cache.hit_share".into(),
            share(events.hits, events.lookups),
            "share",
        ),
        ("dispatcher.prove_ms".into(), ms(stages.prove_us), "ms"),
        (
            "dispatcher.self_ms".into(),
            ms(stages.prove_us - stages.lane_us),
            "ms",
        ),
        (
            "store.load_ms".into(),
            daemon.map_or(0.0, |d| d.store_load_ms),
            "ms",
        ),
        (
            "store.flush_ms".into(),
            if daemon.is_some() {
                ms(stages.flush_us)
            } else {
                0.0
            },
            "ms",
        ),
        (
            "store.records".into(),
            store.0 / store_deltas.max(1) as f64,
            "count",
        ),
        (
            "store.bytes".into(),
            store.1 / store_deltas.max(1) as f64,
            "bytes",
        ),
        (
            "service.status_rtt_ms".into(),
            daemon.map_or(0.0, |d| d.status_rtt_ms),
            "ms",
        ),
        (
            "service.overhead_ms".into(),
            if daemon.is_none() || overhead.is_empty() {
                0.0
            } else {
                stats::median(&overhead)
            },
            "ms",
        ),
        ("report.render_ms".into(), ms(stages.render_us), "ms"),
        ("trace.overhead_ms".into(), p50(traced) - p50(plain), "ms"),
    ]);
    for (study, ms) in stats::group_medians(&plain.samples) {
        metrics.push((format!("study.{study}.ms"), ms, "ms"));
    }
    Ok(metrics)
}

fn render_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!("usage: perfbench --workload cold_verify|warm_daemon|edit_daemon --seed N --seconds N --trace 0|1 --jahob PATH");
            return ExitCode::from(2);
        }
    };
    // Hermetic runs: no inherited knob may change what is measured, in
    // this process (the in-process replay) or in any child.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("JAHOB_") {
            std::env::remove_var(name);
        }
    }
    let inputs = match load_inputs() {
        Ok(inputs) => inputs,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(TMP_ROOT).join(format!("{}-{}", std::process::id(), args.seed));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }

    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_owned(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {:?} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    println!(
        "commit {commit}; nproc {nproc}; binary {}",
        args.jahob.display()
    );

    let mut notes = Vec::new();
    let outcome = if args.trace {
        traced_run(&args, &inputs, &tmp, &mut notes)
    } else {
        timed_run(&args, &inputs, &tmp, &mut notes)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(TMP_ROOT);
    match outcome {
        Ok((metrics, attempted, failed)) => {
            for note in &notes {
                println!("{note}");
            }
            for (name, value, unit) in &metrics {
                println!("{name} {value:.4} {unit}");
            }
            println!(
                "{}",
                render_result(failed == 0, attempted, failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(Failure::Unsound(why)) => {
            eprintln!("perfbench: SOUNDNESS FAILURE: {why}");
            println!("{}", render_result(false, 1, 1, &Vec::new()));
            ExitCode::from(1)
        }
        Err(Failure::Broken(why)) => {
            eprintln!("perfbench: {why}");
            ExitCode::from(1)
        }
    }
}
