//! The traced run's two sources of per-layer numbers.
//!
//! * [`EventTally`] reads the obs events the system under test already
//!   emits (prover attempts, goal-cache lookups) for the traced requests.
//! * [`ReportCounters`] reads the program's own counters from the traced
//!   requests' reports: conjunct pieces, simplifier proofs, cache misses.
//! * [`Replay`] re-runs the same requests in this process through the
//!   public stage functions, timing each call from outside: parse and
//!   resolve, VC generation, simplify and split, normalize and
//!   fingerprint, `Dispatcher::prove`, report rendering, and the
//!   persistent store's open and flush. Its session mirrors the
//!   workload's: a fresh in-memory goal cache per request for one-shot
//!   runs, one primed persistent cache for the daemon workloads. The
//!   replay only times; what it counts is not reported, because
//!   `Dispatcher::prove` works on the elaborated goal, which the public
//!   calls do not reach, so simplify, split, normalize and fingerprint
//!   are timed on the unelaborated obligation and its pieces.

use crate::answers::{self, Check, Key};
use crate::json::{self, Json};
use jahob::goal_cache::fingerprint;
use jahob::verify::{MethodReport, ObligationReport, VerdictSummary};
use jahob::{
    normalize, Config, Dispatcher, Event, GoalCache, Recorder, ReportRender, Verdict, VerifyReport,
};
use jahob_logic::transform::{simplify, split_conjuncts};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Prover lanes, named by the module that implements them.
pub const LANES: [&str; 7] = [
    "models",
    "bapa",
    "hol",
    "presburger",
    "smt",
    "fol",
    "simplifier",
];

/// The lane (module) of a prover as the obs stream names it. Provers
/// without an entry here keep their own name, so a new lane shows up as
/// its own `<lane>.*` rows.
pub fn lane_of(prover: &str) -> String {
    match prover {
        "bounded-models" => "models",
        "hol-auto" => "hol",
        "nelson-oppen" => "smt",
        "fol-resolution" => "fol",
        other => other,
    }
    .to_owned()
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Lane {
    pub micros: f64,
    pub attempts: u64,
    pub fuel: u64,
    /// Attempts that proved or refuted.
    pub decisive: u64,
}

impl Lane {
    fn add(&mut self, micros: f64, fuel: u64, outcome: &str) {
        self.micros += micros;
        self.attempts += 1;
        self.fuel += fuel;
        if outcome == "proved" || outcome == "refuted" {
            self.decisive += 1;
        }
    }
}

/// Totals over the obs events of the traced requests.
#[derive(Debug, Default)]
pub struct EventTally {
    pub lanes: BTreeMap<String, Lane>,
    pub lookups: u64,
    pub hits: u64,
}

impl EventTally {
    pub fn add_line(&mut self, line: &str) -> Result<(), String> {
        let event = json::parse(line).map_err(|e| format!("bad obs line `{line}`: {e}"))?;
        match event.get("type").and_then(Json::str) {
            Some("attempt") => {
                let prover = event.get("prover").and_then(Json::str).unwrap_or("?");
                let outcome = event.get("outcome").and_then(Json::str).unwrap_or("");
                self.lanes.entry(lane_of(prover)).or_default().add(
                    event.num_or_zero("micros"),
                    event.num_or_zero("fuel") as u64,
                    outcome,
                );
            }
            Some("cache.lookup") => {
                self.lookups += 1;
                if event.get("hit") == Some(&Json::Bool(true)) {
                    self.hits += 1;
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// Totals of the program's own counters over the traced requests'
/// reports (the `stats` object, counted per request).
#[derive(Debug, Default)]
pub struct ReportCounters {
    /// `goal.pieces`: conjunct pieces the dispatcher split goals into.
    pub pieces: u64,
    /// `proved.simplifier`: obligations and pieces the simplifier closed.
    pub proved_by_simplifier: u64,
    /// `cache.miss`: goal-cache lookups that missed.
    pub cache_misses: u64,
}

impl ReportCounters {
    pub fn add(&mut self, report: &Json) {
        let get = |k: &str| report.get("stats").map_or(0.0, |s| s.num_or_zero(k)) as u64;
        self.pieces += get("goal.pieces");
        self.proved_by_simplifier += get("proved.simplifier");
        self.cache_misses += get("cache.miss");
    }
}

/// Accumulated stage costs of the replayed requests.
#[derive(Debug, Default)]
pub struct Stages {
    pub parse_us: f64,
    pub resolve_us: f64,
    pub vcgen_us: f64,
    pub obligations: u64,
    pub form_nodes: u64,
    pub simplify_us: f64,
    pub split_us: f64,
    pub normalize_us: f64,
    pub fingerprint_us: f64,
    pub prove_us: f64,
    /// Prover-attempt time inside `Dispatcher::prove`, from its recorder.
    pub lane_us: f64,
    pub render_us: f64,
    pub flush_us: f64,
    /// Per request: the in-process pipeline time (parse through flush,
    /// without the side measurements), to set against the request's
    /// end-to-end time.
    pub inproc_ms: Vec<f64>,
}

fn us(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

pub struct Replay {
    cache: Option<Arc<GoalCache>>,
    config: Config,
    digest: u64,
}

/// Digest the mirror store is written under; the store is private to
/// the replay, so any fixed value works.
const MIRROR_DIGEST: u64 = 0x6a68_6f62_6265_6e63;

impl Replay {
    /// A replay of one-shot runs: every request gets a fresh cache.
    pub fn one_shot() -> Replay {
        let config = Config::builder().build();
        Replay {
            cache: None,
            digest: config.dispatch.cache_digest(),
            config,
        }
    }

    /// A replay of a daemon session over a persistent store in `dir`,
    /// primed with every study once like the daemon's setup. The primed
    /// store is then closed and reopened; the reopen's time, in
    /// milliseconds, is returned beside the replay.
    pub fn daemon(
        dir: &Path,
        sources: &BTreeMap<String, String>,
        keys: &BTreeMap<String, Key>,
    ) -> Result<(Replay, f64), String> {
        let config = Config::builder().build();
        let open = || Arc::new(GoalCache::open_persistent(dir, MIRROR_DIGEST, None, None));
        let mut replay = Replay {
            cache: Some(open()),
            digest: config.dispatch.cache_digest(),
            config,
        };
        let mut priming = Stages::default();
        for (study, src) in sources {
            replay.run(src, &keys[study], &mut priming)?;
        }
        replay.cache = None;
        let started = Instant::now();
        replay.cache = Some(open());
        let load_ms = us(started) / 1e3;
        Ok((replay, load_ms))
    }

    /// Replay one request, adding its stage costs to `stages`, and check
    /// the in-process verdicts against the key as well.
    pub fn run(&mut self, src: &str, key: &Key, stages: &mut Stages) -> Result<(), String> {
        let mut pipeline_us = 0.0;
        let t = Instant::now();
        let program = jahob_javalite::parse_program(src).map_err(|e| e.to_string())?;
        let parse = us(t);
        let t = Instant::now();
        let typed = jahob_javalite::resolve(&program).map_err(|e| e.to_string())?;
        let resolve = us(t);
        stages.parse_us += parse;
        stages.resolve_us += resolve;
        pipeline_us += parse + resolve;

        let cache = self
            .cache
            .clone()
            .unwrap_or_else(|| Arc::new(GoalCache::new()));
        let mut methods = Vec::new();
        for m in typed.classes.iter().flat_map(|c| &c.methods) {
            if m.contract.assumed {
                continue;
            }
            let t = Instant::now();
            let vcs = jahob_vcgen::method_obligations(&typed, m).map_err(|e| e.to_string())?;
            let vcgen = us(t);
            stages.vcgen_us += vcgen;
            pipeline_us += vcgen;

            let mut dispatcher = Dispatcher::new(typed.sig.clone(), Default::default());
            dispatcher.config = self.config.dispatch.clone();
            dispatcher.cache = Some(Arc::clone(&cache));
            dispatcher.recorder = Recorder::buffered();
            let mut obligations = Vec::new();
            for ob in &vcs.obligations {
                stages.obligations += 1;
                stages.form_nodes += ob.form.size() as u64;
                let t = Instant::now();
                let simplified = simplify(&ob.form);
                stages.simplify_us += us(t);
                let t = Instant::now();
                let pieces = split_conjuncts(&simplified);
                stages.split_us += us(t);
                for piece in &pieces {
                    let t = Instant::now();
                    let normal = normalize(piece);
                    stages.normalize_us += us(t);
                    let t = Instant::now();
                    black_box(fingerprint(&normal, &typed.sig, self.digest));
                    stages.fingerprint_us += us(t);
                }
                let t = Instant::now();
                let verdict = dispatcher.prove(&ob.form);
                let prove = us(t);
                stages.prove_us += prove;
                pipeline_us += prove;
                obligations.push(ObligationReport {
                    label: ob.label.clone(),
                    verdict: match verdict {
                        Verdict::Proved { prover, bound } => {
                            VerdictSummary::Proved { prover, bound }
                        }
                        Verdict::CounterModel(_) => VerdictSummary::Refuted,
                        Verdict::Unknown(diagnosis) => VerdictSummary::Unknown(diagnosis),
                    },
                    millis: (prove / 1e3) as u128,
                });
            }
            for event in dispatcher.recorder.drain() {
                if let Event::Attempt { micros, .. } = event {
                    stages.lane_us += micros as f64;
                }
            }
            methods.push(MethodReport {
                class: m.class,
                method: m.name,
                obligations,
                error: None,
            });
        }
        let report = VerifyReport {
            methods,
            stats: BTreeMap::new(),
            quarantined: Vec::new(),
        };
        let t = Instant::now();
        let text = black_box(report.to_json(ReportRender::STABLE));
        let render = us(t);
        stages.render_us += render;
        pipeline_us += render;
        if let Some(cache) = &self.cache {
            let t = Instant::now();
            cache.flush_persistent();
            let flush = us(t);
            stages.flush_us += flush;
            pipeline_us += flush;
        }
        stages.inproc_ms.push(pipeline_us / 1e3);

        let doc = json::parse(&text)?;
        match answers::check(key, &doc) {
            Check::Pass(_) => Ok(()),
            Check::Wrong(why) | Check::Unsound(why) => Err(format!("in-process replay: {why}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counters_read_the_programs_own_stats() {
        let mut counters = ReportCounters::default();
        for report in [
            r#"{"methods":[],"stats":{"goal.pieces":11,"proved.simplifier":2,"cache.miss":9}}"#,
            r#"{"methods":[],"stats":{"goal.pieces":3,"cache.hit":3}}"#,
            r#"{"methods":[]}"#,
        ] {
            counters.add(&json::parse(report).unwrap());
        }
        assert_eq!(
            (
                counters.pieces,
                counters.proved_by_simplifier,
                counters.cache_misses
            ),
            (14, 2, 9)
        );
    }

    #[test]
    fn event_tally_sums_attempts_per_lane_and_cache_lookups() {
        let mut tally = EventTally::default();
        for line in [
            r#"{"type":"attempt","prover":"bounded-models","pass":"first","outcome":"proved","fuel":0,"micros":1500}"#,
            r#"{"type":"attempt","prover":"bounded-models","pass":"first","outcome":"no-decision","fuel":7,"micros":500}"#,
            r#"{"type":"attempt","prover":"mona","pass":"first","outcome":"refuted","fuel":0,"micros":10}"#,
            r#"{"type":"cache.lookup","fingerprint":1,"hit":true,"saved_fuel":0}"#,
            r#"{"type":"cache.lookup","fingerprint":2,"hit":false,"saved_fuel":0}"#,
            r#"{"type":"piece.end","verdict":"proved"}"#,
        ] {
            tally.add_line(line).unwrap();
        }
        let models = tally.lanes["models"];
        assert_eq!(
            (models.micros, models.attempts, models.fuel, models.decisive),
            (2000.0, 2, 7, 1)
        );
        assert_eq!(
            tally.lanes["mona"].decisive, 1,
            "an unlisted prover is its own lane"
        );
        assert_eq!((tally.lookups, tally.hits), (2, 1));
        assert!(tally.add_line("not json").is_err());
    }
}
