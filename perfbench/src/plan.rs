//! Request sequences: what each workload sends, in which order.
//!
//! A run is a sequence of rounds, and every round sends each request
//! kind of the workload exactly once. The seed only shuffles the order
//! within a round and names the fresh identifiers of edits, so the mix of
//! studies never depends on the seed: two seeds running the same number
//! of rounds send the same multiset of `(study, method)` requests.

use std::collections::BTreeMap;

/// SplitMix64: a small, fixed generator, so a seed means the same
/// inputs whatever the code under test does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One hand-written entry of `edits.txt`: the identifiers to rename in
/// one method of one study.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edit {
    pub study: String,
    pub class: String,
    pub method: String,
    pub idents: Vec<String>,
}

pub fn parse_edits(text: &str) -> Result<Vec<Edit>, String> {
    let mut edits = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let qualified = words.get(1).and_then(|q| q.split_once('.'));
        match (words.first(), qualified) {
            (Some(study), Some((class, method))) if words.len() > 2 => edits.push(Edit {
                study: study.to_string(),
                class: class.to_owned(),
                method: method.to_owned(),
                idents: words[2..].iter().map(|w| w.to_string()).collect(),
            }),
            _ => return Err(format!("edits line {}: `{line}`", n + 1)),
        }
    }
    Ok(edits)
}

/// One request of a run.
#[derive(Clone, Debug)]
pub struct Request {
    pub study: String,
    /// `Class.method` for an edit, `None` for an unchanged study.
    pub method: Option<String>,
    pub src: String,
}

/// An endless supply of rounds for one workload.
pub struct Plan<'a> {
    rng: Rng,
    sources: &'a BTreeMap<String, String>,
    /// `None`: every study unchanged; `Some`: one kind per edit.
    edits: Option<&'a [Edit]>,
    /// Prefix of this run's fresh names, derived from the seed.
    tag: String,
    fresh: u64,
}

impl<'a> Plan<'a> {
    pub fn new(
        seed: u64,
        sources: &'a BTreeMap<String, String>,
        edits: Option<&'a [Edit]>,
    ) -> Plan<'a> {
        let mut rng = Rng::new(seed);
        let tag = format!("{:04x}", rng.next() & 0xffff);
        Plan {
            rng,
            sources,
            edits,
            tag,
            fresh: 0,
        }
    }

    pub fn kinds(&self) -> usize {
        self.edits.map_or(self.sources.len(), <[Edit]>::len)
    }

    pub fn next_round(&mut self) -> Result<Vec<Request>, String> {
        let mut order: Vec<usize> = (0..self.kinds()).collect();
        self.rng.shuffle(&mut order);
        order.into_iter().map(|k| self.request(k)).collect()
    }

    fn request(&mut self, kind: usize) -> Result<Request, String> {
        let Some(edits) = self.edits else {
            let (study, src) = self.sources.iter().nth(kind).expect("kind in range");
            return Ok(Request {
                study: study.clone(),
                method: None,
                src: src.clone(),
            });
        };
        let edit = &edits[kind];
        let src = self
            .sources
            .get(&edit.study)
            .ok_or_else(|| format!("edit names unknown study `{}`", edit.study))?;
        let mut names = BTreeMap::new();
        for ident in &edit.idents {
            names.insert(
                ident.clone(),
                format!("{ident}_{}_{}", self.tag, self.fresh),
            );
            self.fresh += 1;
        }
        Ok(Request {
            study: edit.study.clone(),
            method: Some(format!("{}.{}", edit.class, edit.method)),
            src: rename_in_method(src, &edit.class, &edit.method, &names)?,
        })
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte range of `Class.method` in `src`: from the method's name in its
/// header to the closing brace of its body. Headers are found at nesting
/// depth one inside the class body, so calls inside other bodies never
/// match; comments (where annotations live) and string literals are
/// skipped while matching braces.
pub fn method_span(src: &str, class: &str, method: &str) -> Result<(usize, usize), String> {
    let b = src.as_bytes();
    let mut i = 0;
    let mut depth = 0usize;
    let mut in_class = false;
    let mut class_depth = 0;
    let mut start = None;
    while i < b.len() {
        if b[i..].starts_with(b"//") {
            i += src[i..].find('\n').unwrap_or(b.len() - i);
            continue;
        }
        if b[i..].starts_with(b"/*") {
            i += src[i..].find("*/").map_or(b.len() - i, |e| e + 2);
            continue;
        }
        if b[i] == b'"' {
            i += 1 + src[i + 1..].find('"').map_or(b.len() - i - 1, |e| e + 1);
            continue;
        }
        if is_ident_start(b[i]) && (i == 0 || !is_ident(b[i - 1])) {
            let end = i + b[i..].iter().take_while(|&&c| is_ident(c)).count();
            let word = &src[i..end];
            let rest = src[end..].trim_start();
            if word == "class"
                && rest.starts_with(class)
                && !rest[class.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
            {
                in_class = true;
                class_depth = depth;
            } else if in_class
                && start.is_none()
                && depth == class_depth + 1
                && word == method
                && rest.starts_with('(')
            {
                start = Some(i);
            }
            i = end;
            continue;
        }
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.checked_sub(1).ok_or("unbalanced braces")?;
                if let Some(s) = start {
                    if depth == class_depth + 1 {
                        return Ok((s, i + 1));
                    }
                }
                if in_class && depth == class_depth {
                    in_class = false;
                }
            }
            _ => {}
        }
        i += 1;
    }
    Err(format!("method {class}.{method} not found"))
}

/// Rename whole-word identifiers inside one method, annotations
/// included. A word after `.` is a field selection and is left alone.
/// Every identifier in `names` must occur in the method.
pub fn rename_in_method(
    src: &str,
    class: &str,
    method: &str,
    names: &BTreeMap<String, String>,
) -> Result<String, String> {
    let (start, end) = method_span(src, class, method)?;
    let body = &src[start..end];
    let b = body.as_bytes();
    let mut out = String::with_capacity(src.len() + 64);
    out.push_str(&src[..start]);
    let mut used = std::collections::BTreeSet::new();
    let mut i = 0;
    while i < b.len() {
        if is_ident_start(b[i]) && (i == 0 || !is_ident(b[i - 1])) {
            let end = i + b[i..].iter().take_while(|&&c| is_ident(c)).count();
            let word = &body[i..end];
            let selected = i > 0 && b[i - 1] == b'.';
            match names.get(word) {
                Some(fresh) if !selected => {
                    out.push_str(fresh);
                    used.insert(word);
                }
                _ => out.push_str(word),
            }
            i = end;
        } else {
            let ch = body[i..].chars().next().expect("in bounds");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    out.push_str(&src[end..]);
    if let Some(missing) = names.keys().find(|k| !used.contains(k.as_str())) {
        return Err(format!("{class}.{method} has no identifier `{missing}`"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn sources() -> BTreeMap<String, String> {
        crate::STUDIES
            .iter()
            .map(|s| {
                let path = format!("{}/../case_studies/{s}.javax", env!("CARGO_MANIFEST_DIR"));
                (s.to_string(), std::fs::read_to_string(path).unwrap())
            })
            .collect()
    }

    fn edits() -> Vec<Edit> {
        let path = format!("{}/edits.txt", env!("CARGO_MANIFEST_DIR"));
        parse_edits(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn multiset(
        seed: u64,
        rounds: usize,
        sources: &BTreeMap<String, String>,
        edits: Option<&[Edit]>,
    ) -> Vec<(String, Option<String>)> {
        let mut plan = Plan::new(seed, sources, edits);
        let mut all = Vec::new();
        for _ in 0..rounds {
            let round = plan.next_round().unwrap();
            let kinds: BTreeSet<_> = round
                .iter()
                .map(|r| (r.study.clone(), r.method.clone()))
                .collect();
            assert_eq!(
                kinds.len(),
                plan.kinds(),
                "a round sends every kind exactly once"
            );
            all.extend(round.into_iter().map(|r| (r.study, r.method)));
        }
        all.sort();
        all
    }

    #[test]
    fn different_seeds_send_the_same_multiset() {
        let sources = sources();
        let edits = edits();
        for workload_edits in [None, Some(edits.as_slice())] {
            let a = multiset(1, 6, &sources, workload_edits);
            let b = multiset(0xdead_beef, 6, &sources, workload_edits);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn seeds_change_the_order() {
        let sources = sources();
        let order = |seed| -> Vec<String> {
            let mut plan = Plan::new(seed, &sources, None);
            (0..4)
                .flat_map(|_| plan.next_round().unwrap())
                .map(|r| r.study)
                .collect()
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
    }

    /// Each edit changes only its own method: every line outside the
    /// method's span is untouched, the renamed source still parses and
    /// resolves, and none of the old names survives inside the span.
    #[test]
    fn an_edit_renames_exactly_one_method() {
        let sources = sources();
        let edits = edits();
        let mut plan = Plan::new(3, &sources, Some(&edits));
        for request in plan.next_round().unwrap() {
            let method = request.method.clone().unwrap();
            let edit = edits
                .iter()
                .find(|e| format!("{}.{}", e.class, e.method) == method && e.study == request.study)
                .unwrap();
            let original = &sources[&request.study];
            let (start, end) = method_span(original, &edit.class, &edit.method).unwrap();
            assert_eq!(
                &request.src[..start],
                &original[..start],
                "{method}: text before the method changed"
            );
            let tail = original.len() - end;
            assert_eq!(
                &request.src[request.src.len() - tail..],
                &original[end..],
                "{method}: text after the method changed"
            );
            let (new_start, new_end) =
                method_span(&request.src, &edit.class, &edit.method).unwrap();
            let renamed = &request.src[new_start..new_end];
            for ident in &edit.idents {
                let survives = renamed
                    .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
                    .any(|w| w == ident);
                assert!(!survives, "{method}: `{ident}` survives the rename");
            }
            let program = jahob_javalite::parse_program(&request.src).unwrap();
            jahob_javalite::resolve(&program).unwrap();
        }
    }

    #[test]
    fn fresh_names_never_repeat_within_a_run() {
        let sources = sources();
        let edits = edits();
        let mut plan = Plan::new(11, &sources, Some(&edits));
        let mut seen = BTreeSet::new();
        for _ in 0..40 {
            for request in plan.next_round().unwrap() {
                for word in request
                    .src
                    .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                {
                    if word.contains(&format!("_{}_", plan.tag)) {
                        seen.insert(word.to_owned());
                    }
                }
            }
        }
        let renamed: usize = edits.iter().map(|e| e.idents.len()).sum();
        assert_eq!(seen.len(), 40 * renamed, "every fresh name is new");
    }

    #[test]
    fn method_spans_skip_calls_and_annotations() {
        let src = "class A { void f(int o) /*: ensures \"x = {}\" */ { g(o); } void g(int o) { } }\nclass B { void f() { A.f(1); } }";
        let (s, e) = method_span(src, "A", "f").unwrap();
        assert_eq!(&src[s..e], "f(int o) /*: ensures \"x = {}\" */ { g(o); }");
        let (s, e) = method_span(src, "B", "f").unwrap();
        assert_eq!(&src[s..e], "f() { A.f(1); }");
        let names = BTreeMap::from([("o".to_string(), "p".to_string())]);
        let renamed = rename_in_method(src, "A", "g", &names).unwrap();
        assert!(renamed.contains("void g(int p) { }") && renamed.contains("void f(int o)"));
        assert!(rename_in_method(src, "B", "f", &names).is_err());
    }
}
