//! Structured representation of `#pragma acc` / `#pragma omp` directives.
//!
//! A pragma line such as
//!
//! ```text
//! #pragma acc parallel loop gang vector reduction(+:sum) copyin(a[0:N])
//! ```
//!
//! is parsed into a [`Directive`] with `name = ["parallel", "loop"]` and
//! clauses `gang`, `vector`, `reduction(+:sum)`, `copyin(a[0:N])`. The split
//! between directive-name words and clause words follows the grammar of the
//! OpenACC 3.x and OpenMP (≤ 4.5) specifications: the leading words that are
//! construct keywords form the name; the first word that either carries a
//! parenthesised argument list or is not a construct keyword starts the
//! clause list.

use crate::span::Span;
use std::fmt;

/// The directive-based programming model a pragma belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DirectiveModel {
    /// OpenACC (`#pragma acc ...`).
    OpenAcc,
    /// OpenMP (`#pragma omp ...`).
    OpenMp,
}

impl DirectiveModel {
    /// The pragma sentinel (`"acc"` or `"omp"`).
    pub fn sentinel(&self) -> &'static str {
        match self {
            DirectiveModel::OpenAcc => "acc",
            DirectiveModel::OpenMp => "omp",
        }
    }

    /// Human-readable name used in prompts and reports.
    pub fn display_name(&self) -> &'static str {
        match self {
            DirectiveModel::OpenAcc => "OpenACC",
            DirectiveModel::OpenMp => "OpenMP",
        }
    }
}

impl fmt::Display for DirectiveModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_name())
    }
}

/// A clause attached to a directive, e.g. `copyin(a[0:N])` or `gang`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Clause {
    /// Clause keyword (lower case as written).
    pub name: String,
    /// The raw text of the parenthesised argument list, without the outer
    /// parentheses, if present.
    pub args: Option<String>,
}

/// A parsed pragma directive.
#[derive(Clone, Debug, PartialEq)]
pub struct Directive {
    /// The programming model, if the sentinel was recognized.
    pub model: Option<DirectiveModel>,
    /// The raw sentinel word (`acc`, `omp`, or anything else that appeared).
    pub sentinel: String,
    /// The words forming the directive name, e.g. `["target", "teams"]`.
    pub name: Vec<String>,
    /// The clauses, in order.
    pub clauses: Vec<Clause>,
    /// The raw pragma payload as written (after `#pragma`).
    pub raw: String,
    /// Source location of the pragma line.
    pub span: Span,
}

impl Directive {
    /// The directive name joined with spaces (e.g. `"parallel loop"`).
    pub fn display_name(&self) -> String {
        self.name.join(" ")
    }

    /// Look up a clause by name.
    pub fn clause(&self, name: &str) -> Option<&Clause> {
        self.clauses.iter().find(|c| c.name == name)
    }

    /// True if this directive stands alone (does not govern a following
    /// statement or block), per the OpenACC/OpenMP grammars.
    pub fn is_standalone(&self) -> bool {
        let name = self.display_name();
        match self.model {
            Some(DirectiveModel::OpenAcc) => matches!(
                name.as_str(),
                "update"
                    | "wait"
                    | "cache"
                    | "declare"
                    | "routine"
                    | "init"
                    | "shutdown"
                    | "set"
                    | "enter data"
                    | "exit data"
            ),
            Some(DirectiveModel::OpenMp) => matches!(
                name.as_str(),
                "barrier"
                    | "taskwait"
                    | "taskyield"
                    | "flush"
                    | "threadprivate"
                    | "declare target"
                    | "end declare target"
                    | "declare reduction"
                    | "target update"
                    | "target enter data"
                    | "target exit data"
            ),
            None => true,
        }
    }
}

/// Words that may form part of an OpenACC directive name.
const ACC_CONSTRUCT_WORDS: &[&str] = &[
    "parallel",
    "kernels",
    "serial",
    "loop",
    "data",
    "enter",
    "exit",
    "host_data",
    "update",
    "wait",
    "cache",
    "atomic",
    "declare",
    "routine",
    "init",
    "shutdown",
    "set",
];

/// Words that may form part of an OpenMP directive name.
const OMP_CONSTRUCT_WORDS: &[&str] = &[
    "target",
    "teams",
    "distribute",
    "parallel",
    "for",
    "simd",
    "sections",
    "section",
    "single",
    "master",
    "critical",
    "barrier",
    "taskwait",
    "taskyield",
    "taskgroup",
    "atomic",
    "flush",
    "ordered",
    "task",
    "taskloop",
    "declare",
    "threadprivate",
    "data",
    "enter",
    "exit",
    "update",
    "end",
    "reduction",
    "loop",
    "requires",
    "scan",
    "masked",
];

fn construct_words(model: DirectiveModel) -> &'static [&'static str] {
    match model {
        DirectiveModel::OpenAcc => ACC_CONSTRUCT_WORDS,
        DirectiveModel::OpenMp => OMP_CONSTRUCT_WORDS,
    }
}

/// A word or clause scanned from the pragma payload, borrowing the payload
/// text (no per-word allocation; owners lowercase/copy only what they keep).
struct PragmaItem<'a> {
    word: &'a str,
    args: Option<&'a str>,
}

fn scan_items(text: &str) -> Vec<PragmaItem<'_>> {
    let bytes = text.as_bytes();
    let mut items = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() || b == b',' {
            i += 1;
            continue;
        }
        if b.is_ascii_alphanumeric() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &text[start..i];
            // optional whitespace then '('
            let mut j = i;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            let mut args = None;
            if j < bytes.len() && bytes[j] == b'(' {
                let mut depth = 0usize;
                let mut k = j;
                let arg_start = j + 1;
                while k < bytes.len() {
                    if bytes[k] == b'(' {
                        depth += 1;
                    } else if bytes[k] == b')' {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                let arg_end = k.min(bytes.len());
                args = Some(text[arg_start..arg_end].trim());
                i = (k + 1).min(bytes.len());
            }
            items.push(PragmaItem { word, args });
        } else {
            // Unexpected punctuation in a pragma; keep it as an opaque word so
            // the spec validator can flag it. Slice a full character (pragmas
            // may contain multi-byte text, e.g. unicode whitespace, which is
            // still skipped like ASCII whitespace).
            let c = text[i..].chars().next().unwrap_or(' ');
            let char_len = c.len_utf8();
            if !c.is_whitespace() {
                items.push(PragmaItem {
                    word: &text[i..i + char_len],
                    args: None,
                });
            }
            i += char_len;
        }
    }
    items
}

/// Parse a pragma payload (the text after `#pragma`) into a [`Directive`].
pub fn parse_pragma(text: &str, span: Span) -> Directive {
    let trimmed = text.trim();
    let mut items = scan_items(trimmed).into_iter();
    let sentinel_item = items.next();
    let sentinel = sentinel_item
        .as_ref()
        .map(|i| i.word.to_string())
        .unwrap_or_default();
    let model = match sentinel.as_str() {
        "acc" => Some(DirectiveModel::OpenAcc),
        "omp" => Some(DirectiveModel::OpenMp),
        _ => None,
    };

    let mut name = Vec::new();
    let mut clauses = Vec::new();
    let mut in_clauses = false;
    if let Some(model) = model {
        let words = construct_words(model);
        for item in items {
            let lower = item.word.to_ascii_lowercase();
            let is_construct_word = words.contains(&lower.as_str());
            if !in_clauses && is_construct_word && item.args.is_none() {
                name.push(lower);
            } else {
                in_clauses = true;
                clauses.push(Clause {
                    name: lower,
                    args: item.args.map(str::to_string),
                });
            }
        }
    } else {
        // Unknown sentinel (e.g. `#pragma once`, or a corrupted pragma):
        // everything after the sentinel is treated as clause-like payload.
        for item in items {
            clauses.push(Clause {
                name: item.word.to_ascii_lowercase(),
                args: item.args.map(str::to_string),
            });
        }
    }

    Directive {
        model,
        sentinel,
        name,
        clauses,
        raw: trimmed.to_string(),
        span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Directive {
        parse_pragma(text, Span::new(1, 1))
    }

    #[test]
    fn parse_acc_parallel_loop() {
        let d = parse("acc parallel loop gang vector reduction(+:sum) copyin(a[0:N])");
        assert_eq!(d.model, Some(DirectiveModel::OpenAcc));
        assert_eq!(d.name, vec!["parallel", "loop"]);
        assert_eq!(d.clauses.len(), 4);
        assert_eq!(
            d.clause("reduction").unwrap().args.as_deref(),
            Some("+:sum")
        );
        assert_eq!(d.clause("copyin").unwrap().args.as_deref(), Some("a[0:N]"));
        assert!(!d.is_standalone());
    }

    #[test]
    fn parse_omp_target_combined() {
        let d =
            parse("omp target teams distribute parallel for map(tofrom: c[0:N]) reduction(+:err)");
        assert_eq!(d.model, Some(DirectiveModel::OpenMp));
        assert_eq!(
            d.name,
            vec!["target", "teams", "distribute", "parallel", "for"]
        );
        assert!(d.clause("map").is_some());
        assert!(!d.is_standalone());
    }

    #[test]
    fn parse_acc_data_with_clause_first() {
        let d = parse("acc data copyin(a[0:N], b[0:N]) copyout(c[0:N])");
        assert_eq!(d.name, vec!["data"]);
        assert_eq!(d.clauses.len(), 2);
    }

    #[test]
    fn standalone_detection() {
        assert!(parse("acc update self(a[0:N])").is_standalone());
        assert!(parse("acc enter data copyin(a[0:N])").is_standalone());
        assert!(parse("omp barrier").is_standalone());
        assert!(parse("omp target update from(a[0:N])").is_standalone());
        assert!(!parse("acc kernels").is_standalone());
        assert!(!parse("omp target data map(tofrom: a[0:N])").is_standalone());
    }

    #[test]
    fn unknown_sentinel_has_no_model() {
        let d = parse("once");
        assert_eq!(d.model, None);
        assert_eq!(d.sentinel, "once");
        assert!(d.is_standalone());
    }

    #[test]
    fn corrupted_directive_name_becomes_clause() {
        // A typical negative-probing mutation: "parallel" -> "paralel".
        let d = parse("acc paralel loop");
        assert_eq!(d.model, Some(DirectiveModel::OpenAcc));
        assert!(d.name.is_empty());
        assert_eq!(d.clauses[0].name, "paralel");
    }

    #[test]
    fn nested_parens_in_clause_args() {
        let d = parse("omp parallel for if((n > 0) && (m > 0))");
        assert_eq!(
            d.clause("if").unwrap().args.as_deref(),
            Some("(n > 0) && (m > 0)")
        );
    }

    #[test]
    fn clause_after_clause_never_rejoins_name() {
        let d = parse("acc parallel num_gangs(4) loop");
        // once clauses begin, later construct words stay clauses
        assert_eq!(d.name, vec!["parallel"]);
        assert_eq!(d.clauses.len(), 2);
        assert_eq!(d.clauses[1].name, "loop");
    }

    #[test]
    fn model_display() {
        assert_eq!(DirectiveModel::OpenAcc.to_string(), "OpenACC");
        assert_eq!(DirectiveModel::OpenMp.sentinel(), "omp");
    }
}
