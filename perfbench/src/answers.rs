//! The hand-written answer key and the per-request verdict check.
//!
//! `answers/<study>.txt` lists every obligation of a study as
//! `<Class>.<method> <index> <valid|invalid> <label>`. A report passes
//! when it has exactly the key's methods and obligations, in order, and
//! no verdict contradicts the key. `Proved` on an invalid obligation is a
//! soundness failure, a refutation of a valid one is a wrong verdict, and
//! `Unknown` is always allowed (it only lowers the decided share).

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Truth {
    Valid,
    Invalid,
}

#[derive(Clone, Debug)]
pub struct Key {
    /// `(Class.method, [(truth, label)])` in report order.
    pub methods: Vec<(String, Vec<(Truth, String)>)>,
}

impl Key {
    pub fn parse(text: &str) -> Result<Key, String> {
        let mut methods: Vec<(String, Vec<(Truth, String)>)> = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(4, ' ');
            let (Some(method), Some(index), Some(truth), Some(label)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("line {}: expected 4 fields", n + 1));
            };
            let truth = match truth {
                "valid" => Truth::Valid,
                "invalid" => Truth::Invalid,
                other => return Err(format!("line {}: unknown truth `{other}`", n + 1)),
            };
            if methods.last().is_none_or(|(m, _)| m != method) {
                if methods.iter().any(|(m, _)| m == method) {
                    return Err(format!("line {}: {method} listed twice", n + 1));
                }
                methods.push((method.to_owned(), Vec::new()));
            }
            let obligations = &mut methods.last_mut().expect("pushed above").1;
            if index.parse::<usize>() != Ok(obligations.len()) {
                return Err(format!(
                    "line {}: expected index {}",
                    n + 1,
                    obligations.len()
                ));
            }
            obligations.push((truth, label.to_owned()));
        }
        Ok(Key { methods })
    }

    #[cfg(test)]
    pub fn obligations(&self) -> usize {
        self.methods.iter().map(|(_, obs)| obs.len()).sum()
    }

    pub fn has_method(&self, method: &str) -> bool {
        self.methods.iter().any(|(m, _)| m == method)
    }
}

/// Verdict counts of one report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub obligations: u64,
    pub proved: u64,
    /// Proofs without a `bounded ≤k` tag.
    pub unbounded: u64,
    pub refuted: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.obligations += other.obligations;
        self.proved += other.proved;
        self.unbounded += other.unbounded;
        self.refuted += other.refuted;
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Check {
    Pass(Tally),
    /// A wrong verdict or a malformed report: the request failed.
    Wrong(String),
    /// `Proved` on an invalid obligation.
    Unsound(String),
}

/// Check one `--json` report against the key.
pub fn check(key: &Key, report: &Json) -> Check {
    let Some(methods) = report.get("methods").and_then(Json::arr) else {
        return Check::Wrong("report has no methods".into());
    };
    // A method whose obligations were all discharged during generation
    // has nothing to check, and the key does not list it.
    let methods: Vec<&Json> = methods
        .iter()
        .filter(|m| {
            m.get("error").and_then(Json::str).is_some()
                || m.get("obligations")
                    .and_then(Json::arr)
                    .is_some_and(|o| !o.is_empty())
        })
        .collect();
    let names: Vec<String> = methods
        .iter()
        .map(|m| {
            let part = |k: &str| m.get(k).and_then(Json::str).unwrap_or("?").to_owned();
            format!("{}.{}", part("class"), part("method"))
        })
        .collect();
    let expected: Vec<&String> = key.methods.iter().map(|(m, _)| m).collect();
    if names.iter().collect::<Vec<_>>() != expected {
        return Check::Wrong(format!("methods {names:?}, expected {expected:?}"));
    }
    let mut tally = Tally::default();
    let mut wrong = Vec::new();
    for ((name, key_obs), m) in key.methods.iter().zip(&methods) {
        if let Some(error) = m.get("error").and_then(Json::str) {
            return Check::Wrong(format!("{name}: pipeline error: {error}"));
        }
        let obs = m.get("obligations").and_then(Json::arr).unwrap_or(&[]);
        if obs.len() != key_obs.len() {
            return Check::Wrong(format!(
                "{name}: {} obligations, expected {}",
                obs.len(),
                key_obs.len()
            ));
        }
        for (index, ((truth, label), ob)) in key_obs.iter().zip(obs).enumerate() {
            let got_label = ob.get("label").and_then(Json::str).unwrap_or("");
            if got_label != label {
                return Check::Wrong(format!(
                    "{name} #{index}: label `{got_label}`, expected `{label}`"
                ));
            }
            let verdict = ob.get("verdict");
            let kind = verdict.and_then(|v| v.get("kind")).and_then(Json::str);
            tally.obligations += 1;
            match (kind, truth) {
                (Some("proved"), Truth::Invalid) => {
                    return Check::Unsound(format!(
                        "{name} #{index} `{label}` is invalid but was proved"
                    ));
                }
                (Some("proved"), Truth::Valid) => {
                    tally.proved += 1;
                    if verdict.and_then(|v| v.get("bound")) == Some(&Json::Null) {
                        tally.unbounded += 1;
                    }
                }
                (Some("refuted"), Truth::Valid) => {
                    tally.refuted += 1;
                    wrong.push(format!(
                        "{name} #{index} `{label}` is valid but was refuted"
                    ));
                }
                (Some("refuted"), Truth::Invalid) => tally.refuted += 1,
                (Some("unknown"), _) => {}
                (other, _) => return Check::Wrong(format!("{name} #{index}: verdict {other:?}")),
            }
        }
    }
    if wrong.is_empty() {
        Check::Pass(tally)
    } else {
        Check::Wrong(wrong.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    const KEY: &str = "# comment\nA.f 0 valid A.f: ensures\nA.f 1 invalid A.f: invariant 1\nB.g 0 valid precondition of A.f\n";

    fn report(verdicts: [&str; 3]) -> Json {
        let ob = |label: &str, v: &str| format!(r#"{{"label":"{label}","verdict":{v}}}"#);
        json::parse(&format!(
            r#"{{"methods":[{{"class":"A","method":"f","error":null,"obligations":[{},{}]}},{{"class":"B","method":"g","error":null,"obligations":[{}]}}]}}"#,
            ob("A.f: ensures", verdicts[0]),
            ob("A.f: invariant 1", verdicts[1]),
            ob("precondition of A.f", verdicts[2]),
        ))
        .unwrap()
    }

    const PROVED: &str = r#"{"kind":"proved","prover":"hol-auto","bound":null}"#;
    const BOUNDED: &str = r#"{"kind":"proved","prover":"bounded-models","bound":3}"#;
    const REFUTED: &str = r#"{"kind":"refuted"}"#;
    const UNKNOWN: &str = r#"{"kind":"unknown","diagnosis":{}}"#;

    #[test]
    fn the_shipped_keys_parse_and_total_113_obligations() {
        let mut total = 0;
        for study in crate::STUDIES {
            let path = format!("{}/answers/{study}.txt", env!("CARGO_MANIFEST_DIR"));
            let key = Key::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            total += key.obligations();
        }
        assert_eq!(total, 113);
    }

    #[test]
    fn parse_rejects_gaps_and_unknown_truths() {
        assert!(Key::parse("A.f 1 valid x").is_err());
        assert!(Key::parse("A.f 0 maybe x").is_err());
        assert!(Key::parse("A.f 0 valid x\nB.g 0 valid y\nA.f 1 valid z").is_err());
    }

    #[test]
    fn a_correct_report_passes_with_its_tally() {
        let key = Key::parse(KEY).unwrap();
        let tally = match check(&key, &report([PROVED, REFUTED, BOUNDED])) {
            Check::Pass(t) => t,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            tally,
            Tally {
                obligations: 3,
                proved: 2,
                unbounded: 1,
                refuted: 1,
            }
        );
        assert!(matches!(
            check(&key, &report([UNKNOWN, UNKNOWN, UNKNOWN])),
            Check::Pass(_)
        ));
    }

    #[test]
    fn methods_without_obligations_are_not_keyed() {
        let key = Key::parse("A.f 0 valid x").unwrap();
        let doc = json::parse(
            r#"{"methods":[{"class":"A","method":"e","error":null,"obligations":[]},{"class":"A","method":"f","error":null,"obligations":[{"label":"x","verdict":{"kind":"refuted"}}]}]}"#,
        )
        .unwrap();
        assert!(matches!(check(&key, &doc), Check::Wrong(_)));
        let broken = json::parse(
            r#"{"methods":[{"class":"A","method":"f","error":"boom","obligations":[]}]}"#,
        )
        .unwrap();
        assert!(matches!(check(&key, &broken), Check::Wrong(why) if why.contains("boom")));
    }

    #[test]
    fn proving_an_invalid_obligation_is_unsound() {
        let key = Key::parse(KEY).unwrap();
        assert!(matches!(
            check(&key, &report([PROVED, BOUNDED, PROVED])),
            Check::Unsound(_)
        ));
    }

    #[test]
    fn refuting_a_valid_obligation_is_wrong() {
        let key = Key::parse(KEY).unwrap();
        assert!(matches!(
            check(&key, &report([REFUTED, REFUTED, PROVED])),
            Check::Wrong(_)
        ));
    }

    #[test]
    fn a_changed_shape_is_wrong() {
        let key = Key::parse(
            "A.f 0 valid A.f: ensures\nA.f 1 invalid other\nB.g 0 valid precondition of A.f",
        )
        .unwrap();
        assert!(matches!(
            check(&key, &report([PROVED, REFUTED, PROVED])),
            Check::Wrong(_)
        ));
        let key = Key::parse("A.f 0 valid A.f: ensures").unwrap();
        assert!(matches!(
            check(&key, &report([PROVED, REFUTED, PROVED])),
            Check::Wrong(_)
        ));
    }
}
